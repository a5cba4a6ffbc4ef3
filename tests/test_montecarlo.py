"""Monte Carlo vs analytic YAT cross-validation."""

import pytest

from repro.yieldmodel import FaultDensityModel, YatModel
from repro.yieldmodel.montecarlo import (
    ChipSpan,
    MonteCarloResult,
    _poisson,
    sample_core,
    simulate_chips,
)
from repro.yieldmodel.yat import flat_rescue_ipc

import math
import random


class TestPoisson:
    """Mean/variance of _poisson on both sides of the λ=30 switch-over.

    Below 30 the draw is exact (Knuth product method); above it a
    rounded normal approximates the Poisson.  Both regimes must keep
    mean ≈ λ and variance ≈ λ within sampling tolerance, or the chip
    sampler's fault counts silently bias the YAT cross-check.
    """

    @pytest.mark.parametrize("lam", [5.0, 25.0, 35.0, 80.0])
    def test_mean_and_variance_track_lambda(self, lam):
        rng = random.Random(123)
        n = 20_000
        draws = [_poisson(rng, lam) for _ in range(n)]
        mean = sum(draws) / n
        var = sum((d - mean) ** 2 for d in draws) / (n - 1)
        # Mean's standard error is sqrt(lam/n); allow 5 of them.  The
        # variance estimator's s.e. is ~lam*sqrt(2/n) for Poisson-like
        # distributions; allow 6 to keep the test deterministic-stable.
        assert abs(mean - lam) < 5 * math.sqrt(lam / n)
        assert abs(var - lam) < 6 * lam * math.sqrt(2 / n)

    def test_exact_regime_small_lambda(self):
        rng = random.Random(0)
        draws = [_poisson(rng, 0.1) for _ in range(5000)]
        zero_frac = draws.count(0) / len(draws)
        assert abs(zero_frac - math.exp(-0.1)) < 0.02

    def test_degenerate_inputs(self):
        rng = random.Random(0)
        assert _poisson(rng, 0.0) == 0
        assert _poisson(rng, -1.0) == 0
        assert _poisson(rng, 1e6) >= 0  # clamp keeps the approx sane


def _penalty(cfg):
    factor = 1.0
    for dim, cost in (("frontend", 0.82), ("int_backend", 0.78),
                      ("fp_backend", 0.96), ("iq_int", 0.93),
                      ("iq_fp", 0.98), ("lsq", 0.94)):
        if getattr(cfg, dim) == 1:
            factor *= cost
    return factor


def _model(growth=0.3):
    return YatModel(
        density=FaultDensityModel(stagnation_node_nm=90),
        growth=growth,
        baseline_ipc=2.05,
        rescue_ipc=flat_rescue_ipc(2.0, _penalty),
    )


class TestSampleCore:
    def test_zero_density_is_always_full(self):
        rng = random.Random(0)
        areas = {"chipkill": 40.0, "frontend": 6.0, "int_backend": 8.0,
                 "fp_backend": 11.0, "iq_int": 1.5, "iq_fp": 1.0,
                 "lsq": 3.5}
        for _ in range(20):
            counts = sample_core(rng, 0.0, areas)
            assert counts is not None and counts.is_full

    def test_huge_density_kills(self):
        rng = random.Random(0)
        areas = {"chipkill": 40.0, "frontend": 6.0, "int_backend": 8.0,
                 "fp_backend": 11.0, "iq_int": 1.5, "iq_fp": 1.0,
                 "lsq": 3.5}
        dead = sum(
            sample_core(rng, 10.0, areas) is None for _ in range(50)
        )
        assert dead == 50


class TestMonteCarloAgreement:
    @pytest.mark.parametrize("node", [90, 32, 18])
    def test_matches_analytic_within_tolerance(self, node):
        model = _model()
        analytic = model.evaluate(node).rescue
        mc = simulate_chips(
            model.density, node, model.growth,
            model.baseline_ipc, model.rescue_ipc,
            n_chips=3000, seed=7,
        )
        # Monte Carlo with 3000 chips: a few percent of statistical noise.
        assert mc.mean_relative_yat == pytest.approx(analytic, abs=0.03)

    def test_summary_format(self):
        mc = MonteCarloResult(
            chips=10, mean_relative_yat=0.5,
            dead_core_fraction=0.1, degraded_core_fraction=0.2,
        )
        assert "10 chips" in mc.summary()

    def test_degraded_fraction_grows_with_density(self):
        model = _model()
        near = simulate_chips(
            model.density, 90, 0.3, model.baseline_ipc, model.rescue_ipc,
            n_chips=1500, seed=3,
        )
        far = simulate_chips(
            model.density, 18, 0.3, model.baseline_ipc, model.rescue_ipc,
            n_chips=1500, seed=3,
        )
        assert far.degraded_core_fraction > near.degraded_core_fraction


class TestChipSpanMerge:
    def test_merge_concatenates_exactly(self):
        a = ChipSpan(start=0, stop=2, relative_yat=[0.5, 0.7], dead=1,
                     degraded=2)
        b = ChipSpan(start=2, stop=3, relative_yat=[0.9], dead=0,
                     degraded=1)
        merged = a.merge(b)
        assert merged == b.merge(a)  # order-insensitive
        assert merged.relative_yat == [0.5, 0.7, 0.9]
        assert (merged.start, merged.stop) == (0, 3)
        assert (merged.dead, merged.degraded) == (1, 3)

    def test_json_roundtrip(self):
        span = ChipSpan(start=3, stop=5, relative_yat=[0.25, 1.0],
                        dead=2, degraded=0)
        assert ChipSpan.from_json(span.to_json()) == span

    def test_from_span_reduction_matches_direct_stats(self):
        values = [0.2, 0.4, 0.9, 1.0]
        span = ChipSpan(start=0, stop=4, relative_yat=values, dead=3,
                        degraded=5)
        result = MonteCarloResult.from_span(span, cores_per_chip=4)
        mean = sum(values) / 4
        assert result.mean_relative_yat == pytest.approx(mean)
        assert result.dead_core_fraction == pytest.approx(3 / 16)
        assert result.degraded_core_fraction == pytest.approx(5 / 16)
        var = sum((x - mean) ** 2 for x in values) / 3
        assert result.std_error == pytest.approx(math.sqrt(var / 4))
