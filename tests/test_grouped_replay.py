"""Tests for checkpoint-grouped warm-core replay.

Covers the compressed snapshot arena (round-trip, decode counters), the
warm-core invariant (a core restored after a faulty run is bit-identical
to a freshly restored one and classifies the next fault like
:func:`run_with_fault`), the ``forced_ready`` aliasing regression for
group reuse, the persistent golden-prefix cache, and a hypothesis
property that the campaign's grouped, scan-guided replay classifies
every fault exactly like the from-scratch oracle for any schedule /
interval / worker count.

The ``slow`` variants rerun both properties with many more examples
(``pytest -m slow tests/test_grouped_replay.py``).
"""

from __future__ import annotations

import functools
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu import Core, MachineConfig
from repro.inject import (
    FaultSpec,
    InjectionSpec,
    ReplaySession,
    enumerate_sites,
    first_effect_scan,
    golden_key,
    load_golden,
    run_golden,
    run_injection,
    run_with_fault,
    sample_faults,
    store_golden,
    synth_never_result,
)
from repro.inject.arena import SnapshotArena
from repro.inject.harness import _execute_and_classify
from repro.inject.models import FaultyArchState
from repro.inject.sites import field_width
import repro.inject.campaign as campaign_mod
from repro.workloads.generator import generate_trace
from repro.telemetry import TELEMETRY
from repro.workloads.profiles import profile
from tests.oracles import scratch_campaign, scratch_run

FULL = MachineConfig(rescue=True)


def _trace(n=300, bench="gzip", seed=7):
    return generate_trace(profile(bench), n, seed=seed)


def _golden(n=300, interval=32, seed=7):
    return run_golden(
        FULL, _trace(n, seed=seed), n, checkpoint_interval=interval,
    )


# ----------------------------------------------------------------------
# Snapshot arena
# ----------------------------------------------------------------------

class TestSnapshotArena:
    def _snaps(self, n=12, interval=32):
        golden = _golden(600, interval)
        return [(golden.arena.cycle_of(i), golden.arena.get(i))
                for i in range(min(n, len(golden.arena)))]

    def test_round_trip(self):
        snaps = self._snaps()
        arena = SnapshotArena()
        for cyc, snap in snaps:
            arena.append(cyc, snap)
        for i, (cyc, snap) in enumerate(snaps):
            assert arena.cycle_of(i) == cyc
            assert arena.get(i) == snap

    def test_decode_work_is_counted(self):
        arena = _golden(600).arena
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            with TELEMETRY.collect() as metrics:
                for i in range(len(arena)):
                    arena.get(i)
                    arena.get(i)
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        assert (
            metrics.counters["inject.arena_decompressions"]
            == 2 * len(arena)
        )

    def test_entries_carry_commits_not_log(self):
        golden = _golden(600)
        for _, snap in golden.arena.items():
            assert "log" not in snap["arch"]
            assert snap["arch"]["commits"] == snap["committed"]

    def test_compressed_smaller_than_raw(self):
        arena = _golden(600).arena
        stats = arena.stats()
        assert stats["compressed_bytes"] < stats["raw_bytes"]
        assert stats["ratio"] > 1.0

    def test_find(self):
        arena = SnapshotArena()
        golden = _golden(600, 32)
        for cyc, snap in golden.arena.items():
            arena.append(cyc, snap)
        first = arena.cycle_of(0)
        assert arena.find(first - 1) is None
        assert arena.find(first) == 0
        assert arena.find(first + 1) == 0
        last = arena.cycle_of(len(arena) - 1)
        assert arena.find(last + 10_000) == len(arena) - 1

    def test_pickle_round_trip(self):
        arena = _golden(600).arena
        clone = pickle.loads(pickle.dumps(arena))
        assert len(clone) == len(arena)
        for i in range(len(arena)):
            assert clone.get(i) == arena.get(i)


# ----------------------------------------------------------------------
# Warm-core invariant + forced_ready aliasing
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _warm_golden():
    return _golden(400, 32)


_SITES = enumerate_sites(FULL)
_PRF_SITES = [s for s in _SITES if s.struct in ("prf_int", "prf_fp")]


@st.composite
def _warm_case(draw):
    """A checkpoint index and a fault pair forking from it: a ``prf``
    transient shortly after the checkpoint, and a transient in the
    golden run's last cycles, whose run commits past stores before it
    activates (the trace stalls on a miss mid-run, so "late" must mean
    after the stall)."""
    golden = _warm_golden()
    index = draw(st.integers(0, len(golden.arena) // 2))
    cyc = golden.arena.cycle_of(index)
    prf = draw(st.sampled_from(_PRF_SITES))
    f_prf = FaultSpec(
        prf, "transient", draw(st.integers(0, field_width(prf, FULL) - 1)),
        0, cyc + draw(st.integers(1, 64)),
    )
    late = draw(st.sampled_from(_SITES))
    f_late = FaultSpec(
        late, "transient",
        draw(st.integers(0, field_width(late, FULL) - 1)), 0,
        draw(st.integers(golden.cycles - 16, golden.cycles - 1)),
    )
    pair = (f_prf, f_late) if draw(st.booleans()) else (f_late, f_prf)
    return index, pair


def _check_warm_core(index, pair):
    # Fault 1 dirties the core; each restore must then equal a fresh
    # restore and classify the next fault like run_with_fault.  Fault 1
    # runs again after fault 2, so the pair's fault-written registers
    # and committed stores are each left behind for one restore.
    golden = _warm_golden()
    snap = golden.arena.get(index)
    fork_cycle = golden.arena.cycle_of(index)
    f1, f2 = pair
    arch = FaultyArchState(golden.config, f1, golden_log=golden.log)
    core = Core(golden.config, iter(()), arch=arch)
    core.restore(snap, golden.trace)
    _execute_and_classify(golden, f1, core, arch, fork_cycle)
    stored = False
    for fault in (f2, f1):
        assert arch.prf != [list(p) for p in snap["arch"]["prf"]]
        stored = stored or arch.mem != snap["arch"]["mem"]
        arch.reset_run(fault)
        core.restore(snap, golden.trace)
        ref_arch = FaultyArchState(golden.config, fault,
                                   golden_log=golden.log)
        ref = Core(golden.config, iter(()), arch=ref_arch)
        ref.restore(snap, golden.trace)
        assert core.snapshot() == ref.snapshot()
        assert not arch.forced_ready
        got = _execute_and_classify(golden, fault, core, arch, fork_cycle)
        assert got == run_with_fault(golden, fault, fork_index=index)
    assert stored


class TestWarmCore:
    def _fault_pair(self, golden, index):
        """Two faults whose fork point is the arena's ``index`` entry."""
        cyc = golden.arena.cycle_of(index)
        hi = (golden.arena.cycle_of(index + 1) - 1
              if index + 1 < len(golden.arena) else golden.cycles)
        prf = next(s for s in _SITES if s.struct == "prf_int")
        iq = next(s for s in _SITES
                  if s.struct == "iq_int" and s.field == "ready")
        return (
            FaultSpec(prf, "transient", 3, 0, min(cyc + 1, hi)),
            FaultSpec(iq, "transient", 0, 1, min(cyc + 2, hi)),
        )

    @settings(max_examples=8, deadline=None)
    @given(case=_warm_case())
    def test_restore_after_run_matches_fresh_restore(self, case):
        _check_warm_core(*case)

    @pytest.mark.slow
    @settings(max_examples=150, deadline=None)
    @given(case=_warm_case())
    def test_restore_after_run_matches_fresh_restore_many(self, case):
        _check_warm_core(*case)

    def test_forced_ready_not_inherited_across_reuse(self):
        # Regression for the Core._forced aliasing: a fault that forced
        # issue-queue entries ready must not leak its sequence numbers
        # into the next fault on the same warm core.
        golden = _golden(400, 32)
        index = len(golden.arena) // 2
        f_ready, f_next = self._fault_pair(golden, index)[::-1]
        session = ReplaySession(golden, index)
        r1 = session.run(f_ready)
        # The core aliases the set — restore must clear it in place.
        assert session.core._forced is session.arch.forced_ready
        r2 = session.run(f_next)
        assert session.runs == 2
        assert not session.arch.forced_ready
        assert r1 == run_with_fault(golden, f_ready)
        assert r2 == run_with_fault(golden, f_next)

    def test_session_matches_per_fault_restore(self):
        golden = _golden(400, 32)
        faults = sample_faults(
            enumerate_sites(FULL), 10, seed=3, model="both",
            config=FULL, golden_cycles=golden.cycles,
        )
        by_index = {}
        for f in faults:
            by_index.setdefault(golden.fork_index(f.cycle), []).append(f)
        for index, group in sorted(
            by_index.items(), key=lambda kv: (kv[0] is None, kv[0])
        ):
            if index is None:
                continue
            session = ReplaySession(golden, index)
            for f in group:
                assert session.run(f) == run_with_fault(golden, f)


# ----------------------------------------------------------------------
# Sticky-fault first-effect scan
# ----------------------------------------------------------------------

class TestFirstEffectScan:
    def _sticky_population(self, golden):
        """Sampled stickies plus crafted fetch faults (never / biting)."""
        sites = enumerate_sites(golden.config)
        faults = sample_faults(
            sites, 16, seed=11, model="stuckat", config=golden.config,
            golden_cycles=golden.cycles,
        )
        fetch = next(s for s in sites if s.struct == "fetch")
        top = max(i.pc for i in golden.trace).bit_length()
        faults.append(FaultSpec(fetch, "stuckat", top + 2, 0, 0))
        faults.append(FaultSpec(fetch, "stuckat", 2, 1, 0))
        return faults

    def test_scan_guided_matches_scratch(self):
        # Every sticky fault, replayed from the checkpoint the scan
        # licenses (or synthesized when it never bites), must classify
        # exactly like from-scratch execution.
        golden = _golden(400, 32)
        faults = self._sticky_population(golden)
        scan = first_effect_scan(golden, faults)
        synthesized = forked = 0
        for i, fault in enumerate(faults):
            ref = scratch_run(golden, fault)
            fe = scan[i]
            if fe.first is None:
                got = synth_never_result(golden, fe)
                synthesized += 1
            else:
                k = golden.fork_index(fe.first)
                prearm = (
                    None if k is None
                    else fe.prearm(golden.arena.cycle_of(k))
                )
                got = run_with_fault(
                    golden, fault, fork_index=k, prearm=prearm
                )
                if k is not None:
                    forked += 1
            assert got == ref, fault.label
        # The scan must actually be saving work on this population.
        assert synthesized > 0
        assert forked > 0

    def test_fetch_high_bit_never_bites(self):
        # A stuck-at on a PC bit above every PC in the trace can never
        # change a fetched instruction: the scan proves it and the
        # synthesized verdict still reports the armed flag (the way
        # does fetch) exactly like from-scratch execution.
        golden = _golden(400, 32)
        fetch = next(
            s for s in enumerate_sites(golden.config)
            if s.struct == "fetch"
        )
        top = max(i.pc for i in golden.trace).bit_length()
        fault = FaultSpec(fetch, "stuckat", top + 2, 0, 0)
        fe = first_effect_scan(golden, [fault])[0]
        assert fe.first is None
        assert fe.armed_cycle is not None
        synth = synth_never_result(golden, fe)
        assert synth.armed
        assert synth == scratch_run(golden, fault)

    def test_scan_is_deterministic(self):
        golden = _golden(400, 32)
        faults = self._sticky_population(golden)
        assert first_effect_scan(golden, faults) == first_effect_scan(
            golden, faults
        )

    def test_transients_not_scanned(self):
        golden = _golden(300, 32)
        faults = sample_faults(
            enumerate_sites(FULL), 8, seed=2, model="transient",
            config=FULL, golden_cycles=golden.cycles,
        )
        assert first_effect_scan(golden, faults) == {}


# ----------------------------------------------------------------------
# Campaign equivalence (hypothesis)
# ----------------------------------------------------------------------

def _check_grouped_campaign(seed, interval, chunk, workers):
    spec = InjectionSpec(
        n_instructions=250, n_faults=10, seed=seed,
        chunk_size=chunk, checkpoint_interval=interval,
    )
    grouped = run_injection(spec, workers=workers, checkpoint=False)
    assert grouped == scratch_campaign(spec)


_CAMPAIGN_CASES = dict(
    seed=st.integers(0, 2**16),
    interval=st.sampled_from([24, 32, 64, 128]),
    chunk=st.sampled_from([3, 5, 24]),
    workers=st.sampled_from([1, 2]),
)


class TestGroupedEquivalence:
    @settings(max_examples=6, deadline=None)
    @given(**_CAMPAIGN_CASES)
    def test_grouped_fork_scratch_identical(
        self, seed, interval, chunk, workers
    ):
        _check_grouped_campaign(seed, interval, chunk, workers)

    @pytest.mark.slow
    @settings(max_examples=60, deadline=None)
    @given(**_CAMPAIGN_CASES)
    def test_grouped_fork_scratch_identical_many(
        self, seed, interval, chunk, workers
    ):
        _check_grouped_campaign(seed, interval, chunk, workers)

    def test_resume_grouped(self, tmp_path):
        spec = InjectionSpec(
            n_instructions=300, n_faults=12, chunk_size=4,
            checkpoint_interval=32,
        )
        first = run_injection(
            spec, workers=2, checkpoint=True, cache_root=tmp_path
        )
        resumed = run_injection(
            spec, workers=1, resume=True, checkpoint=True,
            cache_root=tmp_path,
        )
        assert resumed.records == first.records


# ----------------------------------------------------------------------
# Persistent golden-prefix cache
# ----------------------------------------------------------------------

class TestGoldenCache:
    def test_store_load_round_trip(self, tmp_path):
        golden = _golden(300, 32)
        key = golden_key("gzip", 300, 7, (2, 2, 2, 2, 2, 2), 32, 0)
        store_golden(golden, key, root=tmp_path)
        loaded = load_golden(FULL, golden.trace, 300, key, root=tmp_path)
        assert loaded is not None
        assert loaded.log == golden.log
        assert loaded.cycles == golden.cycles
        assert loaded.commits == golden.commits
        assert len(loaded.arena) == len(golden.arena)
        for i in range(len(golden.arena)):
            assert loaded.arena.get(i) == golden.arena.get(i)
        # A warm golden drives replay exactly like the original.
        fault = sample_faults(
            enumerate_sites(FULL), 1, seed=5, model="transient",
            config=FULL, golden_cycles=golden.cycles,
        )[0]
        assert run_with_fault(loaded, fault) == run_with_fault(
            golden, fault
        )

    def test_miss_on_absent_and_corrupt(self, tmp_path):
        golden = _golden(300, 32)
        key = golden_key("gzip", 300, 7, (2, 2, 2, 2, 2, 2), 32, 0)
        assert load_golden(FULL, golden.trace, 300, key,
                           root=tmp_path) is None
        store_golden(golden, key, root=tmp_path)
        path = next(tmp_path.glob("golden-*.blob"))
        path.write_bytes(b"not a pickle")
        assert load_golden(FULL, golden.trace, 300, key,
                           root=tmp_path) is None

    def test_key_invalidation(self):
        counts = (2, 2, 2, 2, 2, 2)
        base = golden_key("gzip", 300, 7, counts, 32, 0)
        assert golden_key("gzip", 400, 7, counts, 32, 0) != base
        assert golden_key("mcf", 300, 7, counts, 32, 0) != base
        assert golden_key("gzip", 300, 7, counts, 64, 0) != base
        assert golden_key("gzip", 300, 7, counts, 32, 16) != base

    def test_campaign_cold_then_warm(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        spec = InjectionSpec(
            n_instructions=300, n_faults=6, chunk_size=6,
            checkpoint_interval=32, golden_cache=True,
        )
        campaign_mod.prepare_injection.cache_clear()
        cold = run_injection(spec, workers=1, checkpoint=False)
        assert list(tmp_path.glob("golden-*.blob"))
        campaign_mod.prepare_injection.cache_clear()
        warm = run_injection(spec, workers=1, checkpoint=False)
        campaign_mod.prepare_injection.cache_clear()
        assert warm.records == cold.records

    def test_campaign_blobs_follow_cache_root(self, tmp_path, monkeypatch):
        """A run's ``cache_root`` holds its golden and scan blobs too,
        not only its shard checkpoints."""
        env, root = tmp_path / "env", tmp_path / "root"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(env))
        spec = InjectionSpec(
            n_instructions=300, n_faults=4, chunk_size=4,
            checkpoint_interval=32, golden_cache=True, seed=13,
        )
        run_injection(spec, workers=1, cache_root=root)
        kinds = sorted(p.name.split("-")[0] for p in root.iterdir())
        assert kinds == ["golden", "scan", "shard"]
        assert not env.exists()

    def test_entry_keyed_before_strategy_switches_went_still_hits(
        self, tmp_path, monkeypatch
    ):
        """``golden_key`` never folded in the retired ``fork`` /
        ``grouped`` / ``first_effect`` spec fields: an entry stored
        under the key the forking path always used (the spec's interval,
        no profile stride) is what the campaign looks up."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        spec = InjectionSpec(
            n_instructions=300, n_faults=4, chunk_size=4,
            checkpoint_interval=32, golden_cache=True,
        )
        key = golden_key("gzip", 300, 7, (2, 2, 2, 2, 2, 2), 32, 0)
        store_golden(_golden(300, 32), key, root=tmp_path)
        campaign_mod.prepare_injection.cache_clear()
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            with TELEMETRY.collect() as metrics:
                run_injection(spec, workers=1, checkpoint=False)
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
            campaign_mod.prepare_injection.cache_clear()
        assert metrics.counters["inject.golden_cache_hits"] == 1
        assert "inject.golden_sim_cycles" not in metrics.counters
