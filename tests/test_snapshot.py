"""Property tests for machine snapshot/restore and suffix replay.

The deterministic-resume contract: a core restored from
:meth:`Core.snapshot` and run to completion is bit-identical — final
cycle count, commit log, architectural digest, and the full snapshot of
the final machine — to the same core never having been interrupted.
On top of that contract, forked faulty runs (:func:`run_with_fault`)
must classify identically to the from-scratch oracle
(:func:`tests.oracles.scratch_run`) for any fault, checkpoint interval,
and configuration, including faults landing exactly on a checkpoint
boundary and cycle-0 stuck-ats.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu import ArchState, Core, MachineConfig
from repro.inject import (
    FaultSpec,
    enumerate_sites,
    hang_budget,
    run_golden,
    run_with_fault,
    sample_faults,
)
from repro.inject.sites import field_width
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import profile
from repro.yieldmodel.configs import CoreCounts
from tests.oracles import scratch_run

FULL = MachineConfig(rescue=True)
DEGRADED = MachineConfig(rescue=True, counts=CoreCounts(1, 1, 1, 1, 1, 1))


def _trace(n=250, seed=7, bench="gzip"):
    return generate_trace(profile(bench), n, seed=seed)


def _finished(config, trace, n):
    arch = ArchState(config)
    core = Core(config, iter(trace), arch=arch)
    core.run(n)
    return core, arch


# ----------------------------------------------------------------------
# Snapshot/restore round trip
# ----------------------------------------------------------------------

class TestSnapshotRoundTrip:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        cut=st.integers(1, 700),
        degraded=st.booleans(),
    )
    def test_restore_resumes_bit_identical(self, seed, cut, degraded):
        config = DEGRADED if degraded else FULL
        n = 250
        trace = _trace(n, seed=seed)
        ref, ref_arch = _finished(config, trace, n)

        cut_arch = ArchState(config)
        cut_core = Core(config, iter(trace), arch=cut_arch)
        cut_core.run(n, on_cycle=lambda c: c.cycle >= cut)
        snap = cut_core.snapshot()

        arch2 = ArchState(config)
        resumed = Core(config, iter(()), arch=arch2)
        resumed.restore(snap, trace)
        resumed.run(n)

        assert resumed.cycle == ref.cycle
        assert arch2.commits == ref_arch.commits
        # The resumed log holds only the commits made since the restore.
        assert arch2.log == ref_arch.log[snap["arch"]["commits"]:]
        assert arch2.state_digest() == ref_arch.state_digest()
        assert resumed.snapshot() == ref.snapshot()

    def test_snapshot_is_reusable(self):
        """One snapshot dict seeds any number of identical resumes."""
        n = 200
        trace = _trace(n)
        cut_arch = ArchState(FULL)
        cut_core = Core(FULL, iter(trace), arch=cut_arch)
        cut_core.run(n, on_cycle=lambda c: c.cycle >= 50)
        snap = cut_core.snapshot()

        finals = []
        for _ in range(2):
            arch = ArchState(FULL)
            core = Core(FULL, iter(()), arch=arch)
            core.restore(snap, trace)
            core.run(n)
            finals.append((core.cycle, arch.state_digest(), core.snapshot()))
        assert finals[0] == finals[1]

    def test_restore_does_not_alias_the_snapshot(self):
        """Running a restored core must not mutate the snapshot dict."""
        n = 200
        trace = _trace(n)
        arch = ArchState(FULL)
        core = Core(FULL, iter(trace), arch=arch)
        core.run(n, on_cycle=lambda c: c.cycle >= 60)
        snap = core.snapshot()
        import copy

        frozen = copy.deepcopy(snap)
        arch2 = ArchState(FULL)
        resumed = Core(FULL, iter(()), arch=arch2)
        resumed.restore(snap, trace)
        resumed.run(n)
        assert snap == frozen


# ----------------------------------------------------------------------
# Fork-vs-scratch equivalence
# ----------------------------------------------------------------------

class TestForkEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        interval=st.integers(16, 200),
        degraded=st.booleans(),
    )
    def test_fork_matches_scratch(self, seed, interval, degraded):
        config = DEGRADED if degraded else FULL
        n = 200
        trace = _trace(n, seed=3)
        golden = run_golden(config, trace, n, checkpoint_interval=interval)
        faults = sample_faults(
            enumerate_sites(config), 3, seed, "both", config, golden.cycles
        )
        for fault in faults:
            forked = run_with_fault(golden, fault)
            scratch = scratch_run(golden, fault)
            assert forked == scratch, fault.label

    @pytest.mark.parametrize("seed", [1, 2, 4])
    def test_forked_sdc_commit_distance_matches_scratch(self, seed):
        """A checkpoint carries the commit count, not the commit log; a
        faulty run forked from it still counts its corruption distance
        from the same absolute commit as the from-scratch run."""
        n = 300
        golden = run_golden(FULL, _trace(n, seed=seed), n,
                            checkpoint_interval=32)
        sites = [
            s for s in enumerate_sites(FULL)
            if s.struct in ("iq_int", "fetch", "rob")
        ]
        forked_sdc = 0
        for fault in sample_faults(sites, 40, seed, "transient", FULL,
                                   golden.cycles):
            got = run_with_fault(golden, fault)
            if got.outcome != "sdc" or not got.fork_cycle:
                continue
            ref = scratch_run(golden, fault)
            assert got.commit_distance == ref.commit_distance
            assert got == ref, fault.label
            forked_sdc += 1
        assert forked_sdc > 0

    def test_transient_on_checkpoint_boundary(self):
        """A fault activating exactly at a checkpoint cycle forks from
        that same checkpoint (the prefix up to and including the hook at
        cycle c is golden; the fault fires after the hook)."""
        n = 300
        trace = _trace(n)
        interval = 64
        golden = run_golden(FULL, trace, n, checkpoint_interval=interval)
        sites = enumerate_sites(FULL)
        picks = [
            next(s for s in sites if s.struct == "prf_int"),
            next(s for s in sites if s.struct == "rob"),
            next(s for s in sites if s.struct == "iq_int"),
        ]
        boundaries = [c for c, _ in golden.arena.items()][:3]
        assert boundaries, "golden run too short for checkpoints"
        for site in picks:
            for cycle in boundaries:
                for bit in range(min(2, field_width(site, FULL))):
                    fault = FaultSpec(site, "transient", bit, 0, cycle)
                    forked = run_with_fault(golden, fault)
                    scratch = scratch_run(golden, fault)
                    assert forked == scratch, fault.label
                    assert forked.fork_cycle == cycle

    def test_stuckat_cycle0_never_forks(self):
        """Cycle-0 stuck-ats have no golden prefix: the fork path must
        fall back to from-scratch and still classify identically."""
        n = 200
        trace = _trace(n)
        golden = run_golden(FULL, trace, n, checkpoint_interval=64)
        site = next(
            s for s in enumerate_sites(FULL) if s.struct == "rob"
        )
        fault = FaultSpec(site, "stuckat", 0, 0, 0)
        forked = run_with_fault(golden, fault)
        scratch = scratch_run(golden, fault)
        assert forked == scratch
        assert forked.fork_cycle == 0

    def test_early_exit_saves_cycles(self):
        """Late transients in the big register file reconverge: at
        least one run early-exits, and every early exit simulates fewer
        cycles than its from-scratch twin while classifying the same."""
        n = 300
        trace = _trace(n)
        golden = run_golden(FULL, trace, n, checkpoint_interval=64)
        site = next(
            s for s in enumerate_sites(FULL)
            if s.struct == "prf_int" and s.index == 0
        )
        exits = 0
        for cycle in range(16, min(golden.cycles, 400), 48):
            fault = FaultSpec(site, "transient", 3, 0, cycle)
            forked = run_with_fault(golden, fault)
            scratch = scratch_run(golden, fault)
            assert forked == scratch
            if forked.early_exit:
                exits += 1
                assert forked.outcome == "masked"
                assert forked.simulated_cycles < scratch.simulated_cycles
                assert forked.cycles_saved > 0
        assert exits > 0

    def test_hang_budget_is_suffix_scaled(self):
        site = next(
            s for s in enumerate_sites(FULL) if s.struct == "rob"
        )
        golden_cycles = 1000
        sa0 = FaultSpec(site, "stuckat", 0, 0, 0)
        late = FaultSpec(site, "transient", 0, 0, 600)
        past = FaultSpec(site, "transient", 0, 0, 5000)
        assert hang_budget(golden_cycles, sa0) == 2 * 1000 + 512
        assert hang_budget(golden_cycles, late) == 1000 + 400 + 512
        # Activation beyond the golden end clamps: one suffix of zero.
        assert hang_budget(golden_cycles, past) == 1000 + 512
