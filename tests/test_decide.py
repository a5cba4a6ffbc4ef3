"""Tests for the decision-support subsystem (repro.decide).

Covers the pure Pareto machinery's determinism laws (hypothesis),
the vulnerability fold's conservation properties, the YAT-contribution
identity against the closed-form yield model, and the sharded campaign's
headline contract: the Pareto front and total ranking are bit-identical
for any worker count, chunking, or resume history — including a run
served over the HTTP campaign service.
"""

from __future__ import annotations

import json
from dataclasses import replace
from itertools import combinations
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from repro.decide import (
    DecideResult,
    DecideSpec,
    dominates,
    evaluate,
    ipc_spec,
    key_label,
    label_key,
    masked_sdc,
    rank,
    residual_sdc,
    run_decide,
    sdc_contributions,
    vulnerability_table,
    yat_contributions,
)
from repro.decide.objectives import OBJECTIVES, area_saved_fractions
from repro.inject import InjectionSpec, InjectionStats, run_injection
from repro.inject.campaign import OUTCOMES
from repro.runner import run_ipc_sweep
from repro.yieldmodel import FaultDensityModel
from repro.yieldmodel.configs import CoreCounts, DIMENSIONS, enumerate_configs
from repro.yieldmodel.yat import YatModel


# ----------------------------------------------------------------------
# Pure Pareto machinery (hypothesis)
# ----------------------------------------------------------------------

@st.composite
def vector_sets(draw):
    """A keyed set of objective vectors with a shared dimensionality."""
    n_obj = draw(st.integers(min_value=1, max_value=4))
    coord = st.floats(min_value=-10, max_value=10)
    vec = st.lists(coord, min_size=n_obj, max_size=n_obj).map(tuple)
    vals = draw(st.lists(vec, min_size=1, max_size=10))
    return {(i,): v for i, v in enumerate(vals)}


class TestPareto:
    def test_dominates_basics(self):
        assert dominates((1.0, 1.0), (0.0, 1.0))
        assert not dominates((1.0, 1.0), (1.0, 1.0))  # irreflexive
        assert not dominates((1.0, 0.0), (0.0, 1.0))  # incomparable
        with pytest.raises(ValueError):
            dominates((1.0,), (1.0, 2.0))

    @given(items=vector_sets())
    def test_fronts_partition_and_peel(self, items):
        r = rank(items)
        flat = [k for front in r.fronts for k in front]
        assert sorted(flat) == sorted(items)
        assert sorted(r.order) == sorted(items)
        # Front 0 is mutually non-dominating...
        for a, b in combinations(r.fronts[0], 2):
            assert not dominates(items[a], items[b])
            assert not dominates(items[b], items[a])
        # ...and every later-front member is dominated by the previous
        # front (the NSGA-II peeling invariant).
        for prev, front in zip(r.fronts, r.fronts[1:]):
            for k in front:
                assert any(
                    dominates(items[p], items[k]) for p in prev
                )

    @given(data=st.data())
    def test_rank_is_permutation_invariant(self, data):
        items = data.draw(vector_sets())
        perm = data.draw(st.permutations(sorted(items)))
        shuffled = {k: items[k] for k in perm}
        assert rank(shuffled) == rank(items)

    @given(items=vector_sets())
    def test_domination_implies_strictly_better_rank(self, items):
        r = rank(items)
        for a in items:
            for b in items:
                if dominates(items[a], items[b]):
                    assert r.rank_of(a) < r.rank_of(b)

    @given(items=vector_sets())
    def test_crowding_and_knee(self, items):
        r = rank(items)
        assert set(r.crowding) == set(items)
        assert r.knee in r.fronts[0]
        for front in r.fronts:
            if len(front) <= 2:
                assert all(r.crowding[k] == inf for k in front)
            else:
                n_obj = len(next(iter(items.values())))
                for obj in range(n_obj):
                    ranked = sorted(
                        front, key=lambda k: (items[k][obj], k)
                    )
                    assert r.crowding[ranked[0]] == inf
                    assert r.crowding[ranked[-1]] == inf

    def test_golden_dominant_config_outranks_dominated(self):
        # A config better on all four objectives must rank above the
        # dominated one, wherever the rest of the population lands.
        a, b = (2, 2, 1, 2, 2, 2), (1, 1, 1, 1, 1, 1)
        items = {
            a: (0.9, 1.0, -0.01, 0.11),
            b: (0.5, 0.7, -0.20, 0.05),
            (2, 1, 2, 2, 2, 2): (0.6, 0.95, -0.05, 0.08),
            (2, 2, 2, 2, 2, 2): (1.0, 0.9, -0.30, 0.0),
        }
        r = rank(items)
        assert r.rank_of(a) < r.rank_of(b)
        assert b not in r.fronts[0]


# ----------------------------------------------------------------------
# Vulnerability fold
# ----------------------------------------------------------------------

def _synthetic_stats() -> InjectionStats:
    stats = InjectionStats()
    stats.by_block = {
        "iq_int.1": {k: 0 for k in OUTCOMES} | {"sdc": 2, "masked": 2},
        "lsq.1": {k: 0 for k in OUTCOMES} | {"sdc": 1, "masked": 3},
        "frontend.0": {k: 0 for k in OUTCOMES} | {"masked": 4},
    }
    for counts in stats.by_block.values():
        for k, v in counts.items():
            stats.outcomes[k] += v
    return stats


class TestVulnerability:
    def test_mapped_out_blocks_contribute_zero(self):
        stats = _synthetic_stats()
        contrib = sdc_contributions(stats, CoreCounts(iq_int=1))
        assert contrib["iq_int.1"] == 0.0
        assert contrib["lsq.1"] == pytest.approx(1 / 12)
        assert residual_sdc(stats, CoreCounts(iq_int=1)) == pytest.approx(
            1 / 12
        )

    def test_full_config_keeps_all_sdc_mass(self):
        stats = _synthetic_stats()
        assert residual_sdc(stats, CoreCounts()) == pytest.approx(
            stats.rate("sdc")
        )
        assert masked_sdc(stats, CoreCounts()) == 0.0

    def test_conservation_across_all_configs(self):
        stats = _synthetic_stats()
        table = vulnerability_table(stats)
        assert len(table) == 64
        for cfg in enumerate_configs():
            assert table[cfg.key()] + masked_sdc(
                stats, cfg
            ) == pytest.approx(stats.rate("sdc"))
            # Mapping out can only remove SDC mass, never add it.
            assert table[cfg.key()] <= stats.rate("sdc") + 1e-12

    def test_empty_stats_score_zero(self):
        table = vulnerability_table(InjectionStats())
        assert set(table.values()) == {0.0}

    def test_measured_campaign_conserves_mass(self):
        stats = run_injection(
            InjectionSpec(
                n_instructions=800, n_faults=16, chunk_size=4,
                keep_records=False,
            ),
            workers=1, checkpoint=False,
        )
        for cfg in (CoreCounts(), CoreCounts(lsq=1),
                    CoreCounts(**{d: 1 for d in DIMENSIONS})):
            assert residual_sdc(stats, cfg) + masked_sdc(
                stats, cfg
            ) == pytest.approx(stats.rate("sdc"))


# ----------------------------------------------------------------------
# Objectives
# ----------------------------------------------------------------------

class TestObjectives:
    def test_yat_contributions_sum_to_yield_model(self):
        # Summing the per-config summands reproduces the closed-form
        # Rescue relative YAT (per-chip core count cancels).
        ipc_table = {
            cfg.key(): 1.4 + 0.05 * sum(cfg.key())
            for cfg in enumerate_configs()
        }
        contrib = yat_contributions(
            ipc_table, node_nm=32.0, growth=0.3,
            stagnation_node_nm=90.0, baseline_ipc=2.05,
        )
        model = YatModel(
            density=FaultDensityModel(stagnation_node_nm=90.0),
            growth=0.3,
            baseline_ipc=2.05,
            rescue_ipc=ipc_table,
        )
        assert sum(contrib.values()) == pytest.approx(
            model.evaluate(32.0).rescue
        )

    def test_area_saved_orientation(self):
        area = area_saved_fractions(node_nm=32.0, growth=0.3)
        full = CoreCounts().key()
        worst = CoreCounts(**{d: 1 for d in DIMENSIONS}).key()
        assert area[full] == 0.0
        assert area[worst] == max(area.values())
        assert all(0.0 <= v < 1.0 for v in area.values())

    def test_objective_orientation_table(self):
        names = [name for name, _ in OBJECTIVES]
        assert names == ["yat", "ipc_ratio", "sdc", "area_saved"]
        maximized = {n for n, up in OBJECTIVES if up}
        assert maximized == {"yat", "ipc_ratio", "area_saved"}


# ----------------------------------------------------------------------
# Sharded campaign: worker/chunk/resume invariance
# ----------------------------------------------------------------------

TINY = DecideSpec(
    benchmarks=("gzip",),
    n_instructions=800,
    warmup=400,
    inject_instructions=600,
    n_faults=8,
    inject_chunk=4,
    chunk_size=2,
)

#: Memoized campaign runs — hypothesis may revisit the same example.
_RUNS = {}


def _run(spec: DecideSpec, workers: int = 1) -> DecideResult:
    key = (spec, workers)
    if key not in _RUNS:
        _RUNS[key] = run_decide(spec, workers=workers, checkpoint=False)
    return _RUNS[key]


@pytest.fixture(scope="module")
def reference() -> DecideResult:
    return _run(TINY)


class TestDecideCampaign:
    @settings(max_examples=6, deadline=None)
    @given(
        workers=st.sampled_from([1, 2, 3]),
        chunk=st.sampled_from([1, 2, 3]),
        inject_chunk=st.sampled_from([2, 4, 8]),
    )
    def test_front_and_ranking_invariant(
        self, reference, workers, chunk, inject_chunk
    ):
        # The headline contract: any worker count and any chunking of
        # either measurement phase yields the bit-identical result.
        spec = replace(TINY, chunk_size=chunk, inject_chunk=inject_chunk)
        assert _run(spec, workers=workers) == reference

    def test_resume_after_interrupt_is_bit_identical(
        self, tmp_path, reference
    ):
        class Interrupt(Exception):
            pass

        seen = []

        def bail(ev):
            seen.append(ev)
            if len(seen) == 3:
                raise Interrupt

        with pytest.raises(Interrupt):
            run_decide(TINY, cache_root=str(tmp_path), progress=bail)
        events = []
        res = run_decide(
            TINY, workers=2, resume=True, cache_root=str(tmp_path),
            progress=events.append,
        )
        assert res == reference
        assert sum(1 for ev in events if ev.cached) == 3

    def test_full_resume_recomputes_nothing(self, tmp_path, reference):
        run_decide(TINY, cache_root=str(tmp_path))
        events = []
        res = run_decide(
            TINY, resume=True, cache_root=str(tmp_path),
            progress=events.append,
        )
        assert res == reference
        assert all(ev.cached for ev in events)

    def test_service_run_matches_direct(self, tmp_path, reference):
        from repro.service.testing import service_fixture

        params = {
            "benchmarks": ["gzip"],
            "n_instructions": 800,
            "warmup": 400,
            "inject_instructions": 600,
            "n_faults": 8,
            "inject_chunk": 4,
            "chunk_size": 2,
        }
        with service_fixture(tmp_path) as (client, service):
            job = client.submit("decide", params)["job"]
            while service.run_once():
                pass
            payload = client.wait(job, timeout=120)
        assert payload["result"] == reference.to_json()
        assert DecideResult.from_json(payload["result"]) == reference

    def test_result_structure_and_roundtrip(self, reference):
        assert len(reference.ranking) == 64
        assert len(reference.objectives) == 64
        assert reference.n_injections == TINY.n_faults
        assert reference.benchmarks == ("gzip",)
        assert reference.knee in reference.fronts[0]
        full = CoreCounts().key()
        assert reference.objectives[full].ipc_ratio == 1.0
        assert reference.objectives[full].area_saved == 0.0
        assert any(key != full for key in reference.ranking)
        restored = DecideResult.from_json(
            json.loads(json.dumps(reference.to_json()))
        )
        assert restored == reference
        summary = reference.summary(top=5)
        assert "pareto front" in summary
        assert key_label(reference.knee) in summary

    def test_ranking_respects_dominance(self, reference):
        vectors = {
            k: s.vector() for k, s in reference.objectives.items()
        }
        position = {k: i for i, k in enumerate(reference.ranking)}
        for a in reference.ranking:
            for b in reference.ranking:
                if dominates(vectors[a], vectors[b]):
                    assert position[a] < position[b]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            run_decide(replace(TINY, n_faults=0), checkpoint=False)
        with pytest.raises(ValueError):
            run_decide(replace(TINY, benchmarks=()), checkpoint=False)

    def test_key_label_roundtrip(self):
        for cfg in enumerate_configs():
            assert label_key(key_label(cfg.key())) == cfg.key()


class TestIpcPhase:
    """decide's IPC phase is the ``ipc`` campaign run on ``ipc_spec``."""

    SPEC = replace(TINY, benchmarks=("swim", "gzip"), chunk_size=3)

    @pytest.fixture(scope="class")
    def sweep(self):
        return run_ipc_sweep(ipc_spec(self.SPEC), checkpoint=False)

    def test_measured_points_equal_the_ipc_campaign(
        self, sweep, monkeypatch
    ):
        import repro.decide.campaign as campaign

        seen = {}
        fold = campaign.evaluate

        def spy(spec, measured, stats):
            seen.update(measured)
            return fold(spec, measured, stats)

        monkeypatch.setattr(campaign, "evaluate", spy)
        run_decide(self.SPEC, checkpoint=False)
        assert seen == sweep.measured

    def test_mean_table_is_the_mean_of_the_sweep_tables(self, sweep):
        tables = [table for _, table in sorted(sweep.tables().items())]
        result = _run(self.SPEC)
        assert len(result.objectives) == 64
        for key, score in result.objectives.items():
            assert score.ipc == sum(t[key] for t in tables) / len(tables)


# ----------------------------------------------------------------------
# Fold determinism at the evaluate() level
# ----------------------------------------------------------------------

class TestEvaluate:
    def test_evaluate_is_pure(self):
        measured = {("gzip", CoreCounts().key()): 1.5}
        for dim in DIMENSIONS:
            measured[("gzip", CoreCounts(**{dim: 1}).key())] = 1.2
        stats = _synthetic_stats()
        a = evaluate(TINY, dict(measured), stats)
        b = evaluate(TINY, dict(reversed(list(measured.items()))), stats)
        assert a == b
        assert len(a.ranking) == 64
