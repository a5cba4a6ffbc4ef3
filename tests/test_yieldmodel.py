"""Tests for the yield / YAT model, anchored to the paper's numbers."""

import numpy as np
import pytest

from repro.yieldmodel import (
    AreaModel,
    CoreCounts,
    FaultDensityModel,
    GammaMixing,
    TABLE2_FRACTIONS,
    YatModel,
    cores_per_chip,
    enumerate_configs,
    generations,
    negbin_yield,
)
from repro.yieldmodel.area import (
    BASELINE_CORE_AREA_90NM,
    RESCUE_CORE_AREA_90NM,
)
from repro.yieldmodel.configs import config_probabilities
from repro.yieldmodel.pwp import ITRS_DIE_AREA, ITRS_TARGET_YIELD
from repro.yieldmodel.yat import flat_rescue_ipc


class TestPwp:
    def test_generations(self):
        assert generations(90) == 0
        assert generations(45) == pytest.approx(2.0)
        assert generations(18) == pytest.approx(np.log2(25), abs=1e-9)

    def test_calibration_hits_itrs_yield(self):
        m = FaultDensityModel(stagnation_node_nm=90)
        y = negbin_yield(ITRS_DIE_AREA, m.base_density, m.alpha)
        assert y == pytest.approx(ITRS_TARGET_YIELD, abs=1e-9)

    def test_density_constant_before_stagnation(self):
        m = FaultDensityModel(stagnation_node_nm=65)
        assert m.density(90) == pytest.approx(m.base_density)
        assert m.density(65) == pytest.approx(m.base_density)

    def test_density_doubles_per_generation_after(self):
        m = FaultDensityModel(stagnation_node_nm=90)
        assert m.density(65) / m.density(90) == pytest.approx(
            2.0 ** generations(65), rel=1e-9
        )

    def test_later_stagnation_means_lower_density(self):
        early = FaultDensityModel(stagnation_node_nm=90)
        late = FaultDensityModel(stagnation_node_nm=65)
        assert late.density(18) < early.density(18)

    def test_bad_node_rejected(self):
        with pytest.raises(ValueError):
            generations(0)

    def test_required_pwp_improvement_is_square_of_scaling(self):
        """EQ 1 forward: PWP must improve as the square of the linear
        scaling factor to hold yield — 25x from 90nm to 18nm."""
        m = FaultDensityModel()
        assert m.required_pwp_improvement(45) == pytest.approx(4.0)
        assert m.required_pwp_improvement(18) == pytest.approx(25.0)


class TestNegbin:
    def test_zero_density_is_perfect_yield(self):
        assert negbin_yield(140, 0.0) == 1.0

    def test_matches_paper_form(self):
        # (1 + A D / alpha)^-alpha by hand.
        assert negbin_yield(100, 0.01, 2.0) == pytest.approx(
            (1 + 0.5) ** -2
        )

    def test_quadrature_matches_closed_form(self):
        m = GammaMixing(density=0.02, alpha=2.0)
        for area in (10.0, 50.0, 140.0, 400.0):
            assert m.yield_of_quadrature(area) == pytest.approx(
                negbin_yield(area, 0.02, 2.0), rel=1e-6
            )

    def test_quadrature_matches_other_alpha(self):
        m = GammaMixing(density=0.01, alpha=4.0)
        assert m.yield_of_quadrature(80.0) == pytest.approx(
            negbin_yield(80.0, 0.01, 4.0), rel=1e-6
        )

    def test_clustering_helps_yield(self):
        """Clustered faults (small alpha) waste fewer chips than random
        faults (alpha → ∞ approaches Poisson)."""
        d, a = 0.02, 140.0
        clustered = negbin_yield(a, d, alpha=2.0)
        nearly_poisson = negbin_yield(a, d, alpha=200.0)
        assert clustered > nearly_poisson

    def test_negative_area_rejected(self):
        with pytest.raises(ValueError):
            negbin_yield(-1, 0.1)


class TestArea:
    def test_fractions_sum_to_one(self):
        assert sum(TABLE2_FRACTIONS.values()) == pytest.approx(1.0)

    def test_rescue_larger_than_baseline(self):
        assert RESCUE_CORE_AREA_90NM > BASELINE_CORE_AREA_90NM

    def test_group_areas_cover_core(self):
        m = AreaModel(growth=0.3)
        groups = m.group_areas(90)
        # Two groups per redundant component + chipkill = full core.
        total = groups["chipkill"] + 2 * sum(
            v for k, v in groups.items() if k != "chipkill"
        )
        assert total == pytest.approx(m.rescue_core_area(90))

    def test_area_shrinks_with_scaling(self):
        m = AreaModel(growth=0.3)
        assert m.rescue_core_area(45) < m.rescue_core_area(90)

    def test_growth_slows_shrink(self):
        slow = AreaModel(growth=0.2).rescue_core_area(18)
        fast = AreaModel(growth=0.5).rescue_core_area(18)
        assert fast > slow

    def test_bad_fractions_rejected(self):
        with pytest.raises(ValueError):
            AreaModel(growth=0.3, fractions={"chipkill": 0.5})


class TestGrowth:
    def test_paper_core_counts_at_18nm(self):
        """Section 6.3: 'Scaling from 1 core at the 90nm node we reach
        11, 7, 5, 4 cores for core growths of 20%, 30%, 40% and 50%'."""
        expected = {0.2: 11, 0.3: 7, 0.4: 5, 0.5: 4}
        for growth, cores in expected.items():
            assert cores_per_chip(18, growth) == cores

    def test_anchor_node(self):
        assert cores_per_chip(90, 0.3) == 1
        assert cores_per_chip(65, 0.3, anchor_node_nm=65, anchor_cores=2) == 2

    def test_at_least_one_core(self):
        assert cores_per_chip(90, 0.5) == 1


class TestConfigs:
    def test_enumeration_size(self):
        assert len(list(enumerate_configs())) == 64

    def test_full_config_flag(self):
        assert CoreCounts().is_full
        assert not CoreCounts(lsq=1).is_full

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError):
            CoreCounts(frontend=0)
        with pytest.raises(ValueError):
            CoreCounts(iq_fp=3)

    def test_probabilities_sum_with_dead(self):
        """Sum over operable configs + P(dead) must be 1 given λ."""
        areas = AreaModel(growth=0.3).group_areas(45)
        lam = np.array([0.0, 0.001, 0.01, 0.1])
        probs = config_probabilities(lam, areas)
        total = sum(probs.values())
        # Dead probability: chipkill hit, or any dimension loses both.
        chip_ok = np.exp(-lam * areas["chipkill"])
        alive_dims = chip_ok.copy()
        for dim in ("frontend", "int_backend", "fp_backend", "iq_int",
                    "iq_fp", "lsq"):
            y = np.exp(-lam * areas[dim])
            alive_dims = alive_dims * (1 - (1 - y) ** 2)
        np.testing.assert_allclose(total, alive_dims, rtol=1e-10)

    def test_zero_density_gives_full_config(self):
        areas = AreaModel(growth=0.3).group_areas(90)
        probs = config_probabilities(np.zeros(1), areas)
        assert probs[CoreCounts().key()][0] == pytest.approx(1.0)


def _toy_ipc_table(full=2.0):
    """IPC penalty: each lost dimension costs a plausible factor."""
    def penalty(cfg):
        f = 1.0
        for dim, cost in (("frontend", 0.8), ("int_backend", 0.75),
                          ("fp_backend", 0.95), ("iq_int", 0.9),
                          ("iq_fp", 0.97), ("lsq", 0.92)):
            if getattr(cfg, dim) == 1:
                f *= cost
        return f
    return flat_rescue_ipc(full, penalty)


class TestYat:
    def _model(self, stag=90, growth=0.3):
        return YatModel(
            density=FaultDensityModel(stagnation_node_nm=stag),
            growth=growth,
            baseline_ipc=2.05,  # rescue full = 2.0: ~2.4% ICI cost
            rescue_ipc=_toy_ipc_table(2.0),
        )

    def test_orderings_hold(self):
        """no-redundancy <= CS; Rescue >= CS once densities grow."""
        m = self._model()
        for node in (90, 65, 32, 18):
            r = m.evaluate(node)
            assert r.no_redundancy <= r.core_sparing + 1e-12
            assert 0 <= r.no_redundancy <= 1.0 + 1e-12
        r18 = m.evaluate(18)
        assert r18.rescue > r18.core_sparing

    def test_rescue_advantage_grows_with_scaling(self):
        m = self._model()
        gain32 = m.evaluate(32).rescue_over_cs
        gain18 = m.evaluate(18).rescue_over_cs
        assert gain18 > gain32 > 0

    def test_later_stagnation_reduces_opportunity(self):
        early = self._model(stag=90).evaluate(18).rescue_over_cs
        late = self._model(stag=65).evaluate(18).rescue_over_cs
        assert early > late

    def test_larger_growth_means_larger_gain(self):
        low = self._model(growth=0.2).evaluate(18).rescue_over_cs
        high = self._model(growth=0.5).evaluate(18).rescue_over_cs
        assert high > low

    def test_relative_yat_bounded(self):
        m = self._model()
        r = m.evaluate(18)
        for v in (r.no_redundancy, r.core_sparing, r.rescue):
            assert 0.0 <= v <= 1.0 + 1e-9

    def test_missing_full_config_rejected(self):
        with pytest.raises(ValueError):
            YatModel(
                density=FaultDensityModel(),
                growth=0.3,
                baseline_ipc=2.0,
                rescue_ipc={},
            )

    def test_sweep_returns_all_nodes(self):
        m = self._model()
        res = m.sweep([90, 65, 32, 18])
        assert sorted(res) == [18, 32, 65, 90]

    def test_headline_magnitudes(self):
        """Rescue/CS gain at 30% growth should land in the paper's range:
        low single digits at 32nm, tens of percent at 18nm."""
        m = self._model()
        assert 0.0 < m.evaluate(32).rescue_over_cs < 0.6
        assert 0.05 < m.evaluate(18).rescue_over_cs < 1.0
