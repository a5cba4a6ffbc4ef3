"""Tests for the fault-injection subsystem (repro.inject).

Covers the site enumerator's ICI-block ownership, the architectural
value layer's observation contract and timing independence, pinned
outcomes for handcrafted faults (one per taxonomy class), the masking
validation, and the campaign's worker/chunk/resume invariance.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cpu import ArchState, Core, MachineConfig
from repro.cpu.archstate import DEP_WINDOW, preg_count, preg_tag_bits
from repro.cpu.degraded import degraded_params
from repro.inject import (
    FaultSpec,
    InjectionSpec,
    InjectionStats,
    Site,
    enumerate_sites,
    mapped_out_blocks,
    masking_validation,
    prepare_injection,
    run_golden,
    run_injection,
    run_with_fault,
    sample_faults,
    site_inert,
)
from repro.inject.campaign import DIMENSIONS
from repro.inject.models import force_site
from repro.inject.sites import field_width, sites_in_blocks
from repro.telemetry import TELEMETRY
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import profile
from repro.yieldmodel.configs import CoreCounts
from tests.oracles import scratch_campaign

FULL = MachineConfig(rescue=True)
DEGRADED = degraded_params(FULL, CoreCounts(1, 1, 1, 1, 1, 1))
SHADOW = mapped_out_blocks(CoreCounts(1, 1, 1, 1, 1, 1))


def _trace(n=800, bench="gzip", seed=7):
    return generate_trace(profile(bench), n, seed=seed)


# ----------------------------------------------------------------------
# Site enumeration
# ----------------------------------------------------------------------

class TestSites:
    def test_block_ownership(self):
        sites = {(s.struct, s.index, s.field): s for s in
                 enumerate_sites(FULL)}
        assert sites[("rob", 0, "done")].block == "chipkill"
        assert sites[("iq_int", 0, "ready")].block == "iq_int.0"
        assert sites[("iq_int", 20, "ready")].block == "iq_int.1"
        assert sites[("iq_int", 36, "ready")].block == "chipkill"  # latch
        assert sites[("iq_fp", 17, "src")].block == "iq_fp.0"
        assert sites[("lsq", 15, "addr")].block == "lsq.0"
        assert sites[("lsq", 16, "addr")].block == "lsq.1"
        assert sites[("prf_int", 0, "data")].block == "int_backend.0"
        n = preg_count(FULL.core)
        assert sites[("prf_fp", n - 1, "data")].block == "fp_backend.1"
        assert sites[("rmap_int", 5, "tag")].block == "chipkill"
        assert sites[("fetch", 0, "pc")].block == "frontend.0"
        assert sites[("fetch", 3, "pc")].block == "frontend.1"

    def test_site_universe_is_config_independent(self):
        # Degradation maps blocks out; it does not shrink the silicon.
        assert enumerate_sites(FULL) == enumerate_sites(DEGRADED)

    def test_mapped_out_blocks(self):
        assert SHADOW == (
            "frontend.1", "int_backend.1", "fp_backend.1",
            "iq_int.1", "iq_fp.1", "lsq.1",
        )
        assert mapped_out_blocks(CoreCounts(2, 2, 2, 2, 2, 2)) == ()
        assert mapped_out_blocks(CoreCounts(frontend=1)) == ("frontend.1",)

    def test_sites_in_blocks_filters(self):
        sites = enumerate_sites(FULL)
        shadow = sites_in_blocks(sites, SHADOW)
        assert shadow and all(s.block in SHADOW for s in shadow)
        assert not any(s.block == "chipkill" for s in shadow)

    def test_field_widths(self):
        tag = preg_tag_bits(FULL.core)
        assert field_width(Site("rob", 0, "done", "chipkill"), FULL) == 1
        assert field_width(Site("rob", 0, "dest", "chipkill"), FULL) == 5
        assert field_width(Site("rmap_int", 0, "tag", "chipkill"),
                           FULL) == tag
        assert field_width(
            Site("prf_int", 0, "data", "int_backend.0"), FULL
        ) == 64

    def test_json_roundtrip(self):
        s = Site("iq_fp", 19, "src", "iq_fp.1")
        assert Site.from_json(s.to_json()) == s
        f = FaultSpec(s, "stuckat", 3, 1, 0)
        assert FaultSpec.from_json(f.to_json()) == f


# ----------------------------------------------------------------------
# The architectural value layer
# ----------------------------------------------------------------------

class TestArchState:
    def test_observation_only(self):
        # Attaching an ArchState must not perturb timing at all.
        trace = _trace(1200)
        plain = Core(FULL, iter(trace)).run(1200)
        observed = Core(FULL, iter(trace), arch=ArchState(FULL)).run(1200)
        assert plain == observed

    def test_golden_determinism(self):
        trace = _trace(1000)
        a = run_golden(FULL, trace, 1000)
        b = run_golden(FULL, trace, 1000)
        assert a.log == b.log
        assert a.cycles == b.cycles
        assert a.digest == b.digest

    def test_committed_values_are_timing_independent(self):
        # The commit stream must be a pure function of the trace: the
        # same trace on full / fully-degraded / baseline machines (all
        # wildly different timings) commits identical values, which is
        # what makes timing-only fault perturbations classify masked.
        trace = _trace(1200, bench="vpr", seed=3)
        logs = []
        for cfg in (FULL, DEGRADED, MachineConfig(rescue=False)):
            arch = ArchState(cfg)
            Core(cfg, iter(trace), arch=arch).run(1200)
            logs.append(arch.log)
        assert logs[0] == logs[1] == logs[2]
        assert len(logs[0]) == 1200

    def test_snapshot_api(self):
        trace = _trace(600)
        arch = ArchState(FULL)
        Core(FULL, iter(trace), arch=arch).run(600)
        assert arch.commits == 600
        assert len(arch.arch_regs[0]) == 32
        assert any(v != 0 for v in arch.arch_regs[0])
        arch2 = ArchState(FULL)
        Core(FULL, iter(trace), arch=arch2).run(600)
        assert arch2.arch_regs == arch.arch_regs
        assert arch2.state_digest() == arch.state_digest()

    def test_producer_records_kept_for_dep_window(self):
        trace = _trace(600)
        arch = ArchState(FULL)
        Core(FULL, iter(trace), arch=arch).run(600)
        # Records older than the dependence window are cleaned up.
        assert all(seq > 600 - 2 * DEP_WINDOW - 8 for seq in arch.info)


# ----------------------------------------------------------------------
# The forcing ladder: the scan's answer and the applied forcing
# ----------------------------------------------------------------------

class TestForceSite:
    """``force_site`` answers (the first-effect scan) exactly what
    applying it changes (``FaultyArchState.begin_cycle``)."""

    @staticmethod
    def _kind(site):
        return (site.struct, site.field, site.block == "chipkill")

    @staticmethod
    def _stuck(site, value):
        return FaultSpec(site, "stuckat", site.index % 5, value, 0)

    def _picked(self, core, sites, cycle):
        """Per site kind: three sites some stuck value changes, spread
        over the structure, and one that none does."""
        by_kind = {}
        for s in sites:
            by_kind.setdefault(self._kind(s), []).append(s)
        picked = []
        for pool in by_kind.values():
            bites, idle = [], []
            for s in pool:
                (bites if any(
                    force_site(self._stuck(s, v), core, core.arch, cycle,
                               False)
                    for v in (0, 1)
                ) else idle).append(s)
            picked += bites[::max(1, len(bites) // 2)][:3] + idle[:1]
        return picked

    @pytest.mark.parametrize("config", [FULL, DEGRADED],
                             ids=["full", "degraded"])
    def test_answer_is_the_change_applying_makes(self, config):
        trace = _trace(400)
        snaps = []

        def on_cycle(c):
            if c.cycle % 60 == 30 or (c.iq_int.buf and len(snaps) < 3):
                snaps.append((c.cycle, c.snapshot()))
            return False

        Core(config, iter(trace), arch=ArchState(config)).run(
            400, on_cycle=on_cycle
        )
        sites = [s for s in enumerate_sites(config) if s.struct != "fetch"]
        core = Core(config, iter(()), arch=ArchState(config))
        answers = {}
        for cycle, snap in snaps:
            core.restore(snap, trace)
            before = core.snapshot()
            for site in self._picked(core, sites, cycle):
                for value in (0, 1):
                    f = self._stuck(site, value)
                    would = force_site(f, core, core.arch, cycle, False)
                    did = force_site(f, core, core.arch, cycle, True)
                    changed = (
                        core.snapshot() != before
                        or bool(core.arch.forced_ready)
                    )
                    assert would == did == changed, (cycle, f.label)
                    answers.setdefault(self._kind(site), set()).add(would)
                    if changed:
                        core.restore(snap, trace)
        # Every kind answered both ways, the compaction latch included
        # (it holds entries only on the full core).  gzip issues no FP
        # work, so the FP queue only ever answers no.
        both = {k for k, seen in answers.items() if seen == {False, True}}
        assert {
            ("rob", "done", True), ("rob", "dest", True),
            ("iq_int", "ready", False), ("iq_int", "src", False),
            ("lsq", "addr", False), ("prf_int", "data", False),
            ("prf_fp", "data", False), ("rmap_int", "tag", True),
        } <= both
        latch = {("iq_int", "ready", True), ("iq_int", "src", True)}
        assert latch <= both if config is FULL else not latch & both


# ----------------------------------------------------------------------
# Outcome taxonomy: one pinned fault per class
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def golden():
    return run_golden(FULL, _trace(800), 800)


class TestOutcomes:
    def test_rob_done_stuck0_hangs(self, golden):
        # ROB slot 0 pinned not-done: seq 0 can never commit.
        f = FaultSpec(Site("rob", 0, "done", "chipkill"), "stuckat", 0, 0, 0)
        r = run_with_fault(golden, f)
        assert r.outcome == "hang"
        assert r.commits == 0

    def test_rob_done_stuck1_detected(self, golden):
        # Forcing done commits a never-executed instruction: the
        # commit.unwritten checker fires.
        f = FaultSpec(Site("rob", 0, "done", "chipkill"), "stuckat", 0, 1, 0)
        r = run_with_fault(golden, f)
        assert r.outcome == "detected"
        assert r.detect_reason == "commit.unwritten"
        assert r.detect_latency is not None and r.detect_latency >= 0

    def test_prf_stuckat_on_live_register_is_sdc(self, golden):
        # Register 0 is the first integer allocation; stick a data bit
        # to the opposite of its golden value so the first commit that
        # reads it diverges.
        first_value = next(
            rec[2] for rec in golden.log if rec[0] == 0
        )
        wrong = 1 - (first_value & 1)
        f = FaultSpec(
            Site("prf_int", 0, "data", "int_backend.0"),
            "stuckat", 0, wrong, 0,
        )
        r = run_with_fault(golden, f)
        assert r.outcome == "sdc"
        assert r.commit_distance is not None and r.commit_distance >= 0

    def test_transient_on_unallocated_register_is_masked(self, golden):
        # The highest physical register is only reached after ~1200
        # same-class allocations; an 800-instruction trace never touches
        # it, so the flip lands in dead state.
        n = preg_count(FULL.core)
        f = FaultSpec(
            Site("prf_int", n - 1, "data", "int_backend.1"),
            "transient", 13, 0, golden.cycles // 2,
        )
        r = run_with_fault(golden, f)
        assert r.outcome == "masked"
        assert r.commits == golden.commits

    def test_fetch_pc_stuckat_is_sdc(self, golden):
        # A PC corruption changes both the committed value mix and the
        # architectural destination of every instruction through way 0.
        f = FaultSpec(Site("fetch", 0, "pc", "frontend.0"),
                      "stuckat", 4, 1, 0)
        r = run_with_fault(golden, f)
        assert r.outcome == "sdc"

    def test_faulty_run_is_deterministic(self, golden):
        f = FaultSpec(Site("fetch", 0, "pc", "frontend.0"),
                      "stuckat", 4, 1, 0)
        assert run_with_fault(golden, f) == run_with_fault(golden, f)


# ----------------------------------------------------------------------
# Campaigns
# ----------------------------------------------------------------------

SPEC = InjectionSpec(n_instructions=800, n_faults=16, chunk_size=4)


class TestCampaign:
    def test_sample_faults_deterministic(self):
        sites = enumerate_sites(FULL)
        a = sample_faults(sites, 12, 0, "both", FULL, 2000)
        b = sample_faults(sites, 12, 0, "both", FULL, 2000)
        assert a == b
        c = sample_faults(sites, 12, 1, "both", FULL, 2000)
        assert a != c

    def test_worker_and_chunk_invariance(self):
        base = run_injection(SPEC, workers=1, checkpoint=False)
        assert base.n == 16
        two = run_injection(SPEC, workers=2, checkpoint=False)
        assert base == two
        rechunked = run_injection(
            InjectionSpec(n_instructions=800, n_faults=16, chunk_size=7),
            workers=1, checkpoint=False,
        )
        assert base == rechunked

    def test_checkpoint_resume_identical(self, tmp_path):
        fresh = run_injection(SPEC, workers=1, cache_root=str(tmp_path))
        events = []
        resumed = run_injection(
            SPEC, workers=2, cache_root=str(tmp_path), resume=True,
            progress=events.append,
        )
        assert fresh == resumed
        assert events and all(ev.cached for ev in events)

    def test_stats_merge_and_json(self):
        stats = run_injection(SPEC, workers=1, checkpoint=False)
        assert stats == InjectionStats.from_json(stats.to_json())
        empty = InjectionStats()
        assert empty.merge(stats) == stats
        assert stats.n == sum(stats.outcomes.values())
        assert set(stats.outcomes) == {"masked", "sdc", "detected", "hang"}
        assert all(r["outcome"] in stats.outcomes for r in stats.records)
        assert stats.summary()

    def test_by_block_counts(self):
        stats = run_injection(SPEC, workers=1, checkpoint=False)
        # Per-block counts partition the outcome totals exactly.
        for outcome in stats.outcomes:
            assert sum(
                counts.get(outcome, 0)
                for counts in stats.by_block.values()
            ) == stats.outcomes[outcome]
        assert sum(
            sum(c.values()) for c in stats.by_block.values()
        ) == stats.n
        # Agrees with the per-record view while records are kept.
        for blk, counts in stats.by_block.items():
            for outcome, n in counts.items():
                assert n == sum(
                    1 for r in stats.records
                    if r["block"] == blk and r["outcome"] == outcome
                )
        # block_rate is the per-block conditional outcome rate.
        blk = next(iter(stats.by_block))
        total = sum(stats.by_block[blk].values())
        assert stats.block_rate(blk, "masked") == pytest.approx(
            stats.by_block[blk]["masked"] / total
        )
        assert stats.block_rate("nonesuch", "masked") == 0.0

    def test_by_block_populated_without_records(self):
        stats = run_injection(
            replace(SPEC, keep_records=False), workers=1,
            checkpoint=False,
        )
        assert not stats.records
        assert stats.by_block
        assert sum(
            sum(c.values()) for c in stats.by_block.values()
        ) == stats.n
        # Summary-only stats still roundtrip with per-block counts.
        assert InjectionStats.from_json(stats.to_json()) == stats

    def test_by_block_merge_worker_invariant(self):
        one = run_injection(SPEC, workers=1, checkpoint=False)
        two = run_injection(SPEC, workers=2, checkpoint=False)
        assert one.by_block == two.by_block

    def test_masking_validation(self):
        val = masking_validation(
            InjectionSpec(n_instructions=800, n_faults=16, chunk_size=4),
            workers=1, checkpoint=False,
        )
        deg, full = val["degraded"], val["full"]
        # The headline property: every fault in a mapped-out block is
        # masked on the degraded core...
        assert deg.outcomes["masked"] == deg.n == 16
        assert all(r["block"] in SHADOW for r in deg.records)
        # ...while the same sites are live on the full core.
        assert full.n == 16
        assert full.outcomes["masked"] < full.n

    def test_telemetry_counters(self):
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            with TELEMETRY.collect() as metrics:
                stats = run_injection(SPEC, workers=1, checkpoint=False)
        finally:
            TELEMETRY.disable()
        counters = metrics.counters
        assert counters["inject.runs"] == 16
        assert sum(
            counters.get(f"inject.outcome.{k}", 0)
            for k in ("masked", "sdc", "detected", "hang")
        ) == 16
        assert counters["inject.outcome.masked"] == stats.outcomes["masked"]
        assert counters["inject.faulty_cycles"] > 0

    def test_fork_campaign_equals_scratch(self):
        forked = run_injection(SPEC, workers=1, checkpoint=False)
        scratch = scratch_campaign(SPEC)
        assert forked == scratch
        odd = run_injection(
            replace(SPEC, checkpoint_interval=57), workers=1,
            checkpoint=False,
        )
        assert odd == scratch

    def test_fork_telemetry_counters(self):
        # A fresh seed forces prepare_injection (and so run_golden's
        # checkpoint histogram) to run inside the collect scopes.
        spec = replace(SPEC, seed=5)
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            with TELEMETRY.collect() as m_fork:
                run_injection(spec, workers=1, checkpoint=False)
            with TELEMETRY.collect() as m_scratch:
                scratch_campaign(spec)
        finally:
            TELEMETRY.disable()
        fork_c, scratch_c = m_fork.counters, m_scratch.counters
        assert fork_c["inject.fork_restores"] > 0
        assert fork_c["inject.early_exits"] > 0
        assert fork_c["inject.cycles_saved"] > 0
        assert (
            fork_c["inject.sim_cycles"] < scratch_c["inject.sim_cycles"]
        )
        # The golden run records its checkpoint spacing...
        hist = m_fork.hists["inject.checkpoint_interval"]
        assert hist.n > 0
        assert hist.mean == spec.checkpoint_interval
        # ...and the scratch path never forks, exits, or checkpoints.
        for name in (
            "inject.fork_restores", "inject.early_exits",
            "inject.cycles_saved",
        ):
            assert name not in scratch_c
        assert "inject.checkpoint_interval" not in m_scratch.hists

    def test_summary_only_mode(self):
        full = run_injection(SPEC, workers=1, checkpoint=False)
        spec = replace(SPEC, keep_records=False, exemplar_cap=3)
        summary = run_injection(spec, workers=1, checkpoint=False)
        assert summary.n == full.n
        assert summary.outcomes == full.outcomes
        assert summary.records == []
        assert summary.exemplars
        assert all(
            len(v) <= 3 for v in summary.exemplars.values()
        )
        assert all(
            r["outcome"] == k
            for k, v in summary.exemplars.items() for r in v
        )
        # Aggregate metrics survive without records: same summary text.
        assert summary.summary() == full.summary()
        # Worker-count invariance and JSON round-trip still hold.
        two = run_injection(spec, workers=2, checkpoint=False)
        assert summary == two
        assert summary == InjectionStats.from_json(summary.to_json())
        empty = InjectionStats()
        assert empty.merge(summary) == summary

    def test_weighted_sampling(self):
        trace = _trace(800)
        golden = run_golden(FULL, trace, 800, profile_stride=16)
        sites = enumerate_sites(FULL)
        a = sample_faults(
            sites, 20, 0, "both", FULL, golden.cycles,
            mode="weighted", profile=golden.profile,
        )
        b = sample_faults(
            sites, 20, 0, "both", FULL, golden.cycles,
            mode="weighted", profile=golden.profile,
        )
        assert a == b
        universe = set(sites)
        assert all(f.site in universe for f in a)
        uniform = sample_faults(sites, 20, 0, "both", FULL, golden.cycles)
        assert a != uniform
        # Structure picks stay stratified: same structure per index.
        assert [f.site.struct for f in a] == [
            f.site.struct for f in uniform
        ]
        with pytest.raises(ValueError):
            sample_faults(
                sites, 4, 0, "both", FULL, golden.cycles, mode="weighted"
            )
        with pytest.raises(ValueError):
            sample_faults(
                sites, 4, 0, "both", FULL, golden.cycles, mode="bogus"
            )

    def test_site_profile_contents(self):
        trace = _trace(800)
        golden = run_golden(DEGRADED, trace, 800, profile_stride=16)
        prof = golden.profile
        assert prof.samples > 0
        assert prof.residency("rob", 0) > 0
        assert prof.residency("fetch", 0) > 0
        totals = prof.struct_totals()
        assert totals["iq_int"] > 0 and totals["lsq"] > 0
        # Residency never exceeds the sample count...
        assert all(c <= prof.samples for c in prof.counts.values())
        # ...and mapped-out silicon never shows occupancy.
        for (struct, index) in prof.counts:
            assert not site_inert(
                Site(struct, index, "x", "chipkill"), DEGRADED
            )
        assert "samples" in prof.report()

    def test_site_inert(self):
        core = FULL.core
        iq_half = core.iq_int_size // 2
        mk = lambda struct, index: Site(struct, index, "x", "b")
        # Full config: everything is live.
        for struct, index in (
            ("iq_int", core.iq_int_size), ("lsq", core.lsq_size - 1),
            ("prf_int", preg_count(core) - 1), ("fetch", 3),
            ("rob", 0), ("rmap_int", 0),
        ):
            assert not site_inert(mk(struct, index), FULL)
        # Degraded: the mapped-out halves are statically dead...
        assert site_inert(mk("iq_int", iq_half), DEGRADED)
        assert site_inert(mk("iq_int", 2 * iq_half), DEGRADED)  # latch
        assert site_inert(mk("lsq", DEGRADED.lsq_size), DEGRADED)
        assert site_inert(
            mk("prf_int", preg_count(core) // 2), DEGRADED
        )
        assert site_inert(mk("fetch", DEGRADED.fetch_width), DEGRADED)
        # ...while the live halves and chipkill structures are not.
        assert not site_inert(mk("iq_int", 0), DEGRADED)
        assert not site_inert(mk("lsq", 0), DEGRADED)
        assert not site_inert(mk("rob", core.rob_size - 1), DEGRADED)
        assert not site_inert(mk("rmap_int", 31), DEGRADED)

    def test_full_campaign_taxonomy_coverage(self):
        # A larger stuck-at sample on the full core exercises several
        # taxonomy classes at once, and the first-effect scan with it.
        spec = InjectionSpec(
            n_instructions=2000, n_faults=96, model="stuckat",
            chunk_size=8,
        )
        stats = run_injection(spec, workers=2, checkpoint=False)
        assert stats.n == 96
        assert stats.outcomes["sdc"] > 0
        assert stats.outcomes["masked"] > 0
