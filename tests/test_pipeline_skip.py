"""Dead-cycle jumps must be invisible.

``Core.run`` jumps over cycles in which nothing changes: to the next
timer, the cycle budget, the next cycle an ``on_cycle`` hook's
``schedule`` names, or the next cycle the ``arch`` layer's
``next_active`` names.  An ``on_cycle`` hook without a schedule sees
every cycle, so it forces the per-cycle loop, which is the oracle: both
paths must leave the same ``SimResult``, stall counters, final cycle,
and machine snapshot.  The observed runs of fault injection — golden
capture with checkpoints and a site profile, faulty replay, the
first-effect scan — are checked the same way, with every ``Core.run``
inside them forced to step (:func:`per_cycle`).
``data/pipeline_skip_goldens.json`` additionally pins the statistics
the per-cycle core produced before the skip and the live-list issue
queue existed, so neither path can drift along with the other.
"""

import copy
import dataclasses
import functools
import json
import pickle
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu import Core, MachineConfig
from repro.cpu.degraded import measured_configs
from repro.inject import (
    FaultSpec,
    enumerate_sites,
    run_golden,
    run_with_fault,
    sample_faults,
)
from repro.inject.harness import first_effect_scan
from repro.inject.sites import field_width
from repro.telemetry import TELEMETRY
from repro.workloads import generate_trace, profile
from repro.workloads.profiles import PROFILES
from repro.yieldmodel.configs import DIMENSIONS, CoreCounts

GOLDENS = Path(__file__).parent / "data" / "pipeline_skip_goldens.json"

STALLS = (
    "stall_rob_full", "stall_iq_full", "stall_lsq_full",
    "fetch_redirect_cycles", "fetch_stall_cycles",
    "fetch_backpressure_cycles",
)

_RESCUE = MachineConfig(rescue=True)

CONFIGS = {
    "baseline": MachineConfig(rescue=False),
    "tech+1": MachineConfig(rescue=False, tech_generations=1),
    "rescue": _RESCUE,
    "trim": MachineConfig(rescue=True, replay_policy="trim"),
    **{
        f"degraded-{dim}": MachineConfig(rescue=True, counts=counts)
        for dim, counts in zip(DIMENSIONS, measured_configs()[1:])
    },
}
ALL_DEGRADED = MachineConfig(rescue=True, counts=CoreCounts(*(1,) * 6))
MCF_TRACE = generate_trace(profile("mcf"), 600, seed=2)


def _state(core, result):
    return (
        result,
        core.cycle,
        tuple(getattr(core, s) for s in STALLS),
        core.snapshot(),
    )


def _both(cfg, trace, n, **kw):
    """(skipping run, per-cycle run) states for the same inputs."""
    fast = Core(cfg, trace)
    r_fast = fast.run(n, **kw)
    slow = Core(cfg, trace)
    r_slow = slow.run(n, on_cycle=lambda c: False, **kw)
    return _state(fast, r_fast), _state(slow, r_slow)


def _never_stop(core):
    return False


@contextmanager
def per_cycle():
    """Every ``Core.run`` inside the block steps every cycle: the hook it
    was given (or a no-op one) runs without its schedule."""
    run = Core.run

    def stepping(self, *args, on_cycle=None, schedule=None, **kw):
        return run(self, *args, on_cycle=on_cycle or _never_stop, **kw)

    with mock.patch.object(Core, "run", stepping):
        yield


class _Recording(Core):
    """A core that records every dead-cycle jump it takes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.jumps = []

    def _next_event(self, cycle):
        target = super()._next_event(cycle)
        self.jumps.append((cycle, target))
        return target


def _longest_jump():
    """(from, to) of the longest jump of a Rescue run on ``MCF_TRACE``."""
    probe = _Recording(_RESCUE, MCF_TRACE)
    probe.run(400, warmup=200)
    return max(probe.jumps, key=lambda j: j[1] - j[0])


@pytest.mark.parametrize("bench", ["gzip", "mcf", "swim"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_skip_matches_per_cycle_loop(bench, name):
    trace = generate_trace(profile(bench), 600, seed=11)
    fast, slow = _both(CONFIGS[name], trace, 400, warmup=200)
    assert fast == slow


@pytest.mark.parametrize("bench", ["mcf", "swim"])
def test_skip_matches_without_warmup(bench):
    trace = generate_trace(profile(bench), 500, seed=5)
    fast, slow = _both(_RESCUE, trace, 500, warmup=0)
    assert fast == slow


def test_max_cycles_cap_inside_a_dead_stretch():
    """A cycle budget that ends mid-jump stops both paths at the cap
    with the same partial accounting."""
    start, target = _longest_jump()
    assert target - start > 4
    cap = start + (target - start) // 2
    fast, slow = _both(_RESCUE, MCF_TRACE, 400, warmup=200, max_cycles=cap)
    assert fast == slow
    assert fast[1] == cap


def _plant(snap, timer, mid):
    """Plant one timer firing at ``mid`` into a dead-stretch snapshot."""
    snap = copy.deepcopy(snap)
    if timer == "fetch_stall_until":
        # Resolve a pending redirect so the stall is what holds fetch.
        snap["redirect_seq"] = None
        snap["fetch_stall_until"] = mid
    elif timer == "pending_fix":
        seq = next(iter(snap["opt_done"]))
        snap["pending_fixes"] += ((mid, seq),)
    else:
        # The youngest waiting entry of a selecting half: its producers
        # complete now, so only ``blocked_until`` or a producer's
        # wakeup at ``mid`` holds it back.
        iq = snap["iq_int"]
        entries = list(iq["entries"])
        i = max(
            j for j, t in enumerate(entries)
            if t[2] != "buf" and t[3] is None
        )
        seq, pc, seg, _, entered, blocked = entries[i]
        opt = snap["opt_done"]
        wake = snap["cycle"] if timer == "blocked_until" else mid
        for d in MCF_TRACE[seq].deps:
            if seq - d in opt:
                opt[seq - d] = wake
        if timer == "blocked_until":
            blocked = mid
        entries[i] = (seq, pc, seg, None, entered, blocked)
        snap["iq_int"] = dict(iq, entries=tuple(entries))
    return snap


@pytest.mark.parametrize(
    "timer",
    ["blocked_until", "producer_wakeup", "fetch_stall_until", "pending_fix"],
)
def test_planted_timer_inside_a_dead_stretch(timer):
    """Every timer kind stops a jump: plant one in the middle of a long
    dead stretch and cap the run just after it, so a jump that overran
    the timer would leave a different machine at the cap."""
    start, target = _longest_jump()
    mid = start + (target - start) // 2
    stopped = Core(_RESCUE, MCF_TRACE)
    stopped.run(400, warmup=200, on_cycle=lambda c: c.cycle > start)
    snap = _plant(stopped.snapshot(), timer, mid)
    states = []
    for hook in ({}, {"on_cycle": lambda c: False}):
        core = Core(_RESCUE, MCF_TRACE)
        core.restore(snap, MCF_TRACE)
        r = core.run(400, warmup=200, max_cycles=mid + 1, **hook)
        states.append(_state(core, r))
    assert states[0] == states[1]


def test_goldens_from_the_per_cycle_core():
    """3 benchmarks x 4 configs against statistics recorded from the
    per-cycle core with the single tagged-list issue queue (trace seed
    7, 900 instructions, ``run(600, warmup=300)``)."""
    configs = {
        "baseline": MachineConfig(rescue=False),
        "rescue": _RESCUE,
        "trim": CONFIGS["trim"],
        "degraded": ALL_DEGRADED,
    }
    goldens = json.loads(GOLDENS.read_text())
    got = {}
    for bench in ("gzip", "mcf", "swim"):
        trace = generate_trace(profile(bench), 900, seed=7)
        for name, cfg in configs.items():
            core = Core(cfg, trace)
            r = core.run(600, warmup=300)
            row = {
                "cycles": r.cycles, "issued": r.issued,
                "replays": r.replays, "load_squashes": r.load_squashes,
                "iq_occupancy_sum": r.iq_occupancy_sum,
                "core_cycle": core.cycle,
            }
            row.update({s: getattr(core, s) for s in STALLS})
            got[f"{bench}/{name}"] = row
    assert got == goldens


# ---- observed runs: fault injection -----------------------------------

#: Checkpoint interval and profile stride of the observed golden runs;
#: coprime, so the schedule has to merge both.
INTERVAL, STRIDE = 48, 20
INJECT_CONFIGS = {"rescue": _RESCUE, "all-degraded": ALL_DEGRADED}


def _golden_state(g):
    """Everything a golden run hands the campaign, as bytes where the
    on-disk cache stores bytes."""
    return (
        pickle.dumps(g.arena), g.log, g.cycles, g.commits, g.digest,
        pickle.dumps(g.profile),
    )


def _full(result):
    """Every field of an ``InjectionResult``, ``compare=False`` too."""
    return dataclasses.astuple(result)


@functools.lru_cache(maxsize=None)
def _inject_golden(name, bench="gzip", n=250):
    trace = generate_trace(profile(bench), n, seed=9)
    return run_golden(
        INJECT_CONFIGS[name], trace, n, checkpoint_interval=INTERVAL,
        profile_stride=STRIDE,
    )


def _replay(golden, fault, scan=None):
    """Classify ``fault`` the way the campaign does: sticky faults fork
    where the first-effect scan licenses, the rest where they activate."""
    if scan is None or scan.first is None:
        return run_with_fault(golden, fault)
    k = golden.fork_index(scan.first)
    prearm = None if k is None else scan.prearm(golden.arena.cycle_of(k))
    return run_with_fault(golden, fault, fork_index=k, prearm=prearm)


def _replays_match(golden, faults):
    scans = first_effect_scan(golden, faults)
    for i, fault in enumerate(faults):
        for scan in {None, scans.get(i)}:
            fast = _replay(golden, fault, scan)
            with per_cycle():
                slow = _replay(golden, fault, scan)
            assert _full(fast) == _full(slow), (fault.label, scan)


@pytest.mark.parametrize(
    "name", sorted(CONFIGS) + ["all-degraded"]
)
def test_golden_capture_matches_per_cycle(name):
    """Checkpoints, profile, log and digest are byte-identical."""
    cfg = CONFIGS.get(name, ALL_DEGRADED)
    trace = generate_trace(profile("mcf"), 300, seed=4)
    kw = dict(checkpoint_interval=INTERVAL, profile_stride=STRIDE)
    fast = run_golden(cfg, trace, 300, **kw)
    with per_cycle():
        slow = run_golden(cfg, trace, 300, **kw)
    assert len(fast.arena) > 0
    assert _golden_state(fast) == _golden_state(slow)


def _site_faults(golden, struct_field, kind):
    """Up to four faults of ``kind`` on ``struct.field`` sites, spread
    over the site indices, bits and (transients) the golden run."""
    cfg = golden.config
    sites = [
        s for s in enumerate_sites(cfg)
        if f"{s.struct}.{s.field}" == struct_field
    ]
    picks = sites[:: max(1, len(sites) // 4)][:4]
    faults = []
    for j, site in enumerate(picks):
        bit = (7 * site.index + j) % field_width(site, cfg)
        if kind == "transient":
            cycle = golden.cycles * (j + 1) // 5
            faults.append(FaultSpec(site, kind, bit, 0, cycle))
        else:
            faults.append(FaultSpec(site, "stuckat", bit, int(kind[-1]), 0))
    return faults


STRUCT_FIELDS = (
    "rob.done", "rob.dest", "iq_int.ready", "iq_int.src", "iq_fp.ready",
    "iq_fp.src", "lsq.addr", "prf_int.data", "prf_fp.data",
    "rmap_int.tag", "rmap_fp.tag", "fetch.pc",
)


@pytest.mark.parametrize("kind", ["transient", "sa0", "sa1"])
@pytest.mark.parametrize("struct_field", STRUCT_FIELDS)
@pytest.mark.parametrize("name", sorted(INJECT_CONFIGS))
def test_faulty_replay_matches_per_cycle(name, struct_field, kind):
    """Every site kind x fault kind: the whole ``InjectionResult``,
    bookkeeping included, from scratch and from the scan's fork."""
    golden = _inject_golden(name)
    faults = _site_faults(golden, struct_field, kind)
    if not faults:
        pytest.skip(f"no {struct_field} sites on {name}")
    _replays_match(golden, faults)


@pytest.mark.parametrize("name", sorted(INJECT_CONFIGS))
def test_first_effect_scan_matches_per_cycle(name):
    golden = _inject_golden(name, "mcf", 300)
    faults = sample_faults(
        enumerate_sites(golden.config), 300, 5, "stuckat", golden.config,
        golden.cycles,
    )
    TELEMETRY.reset()
    TELEMETRY.enable()
    try:
        with TELEMETRY.collect() as m_fast:
            fast = first_effect_scan(golden, faults)
        with TELEMETRY.collect() as m_slow, per_cycle():
            slow = first_effect_scan(golden, faults)
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()
    assert fast == slow
    assert any(fe.first is not None for fe in fast.values())
    assert (
        m_fast.counters["inject.scan_cycles"]
        == m_slow.counters["inject.scan_cycles"]
    )


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(INJECT_CONFIGS)),
    pick=st.integers(0, 1 << 30),
    kind=st.sampled_from(["transient", "stuckat"]),
    value=st.integers(0, 1),
    frac=st.floats(0.0, 1.0),
    bit_pick=st.integers(0, 63),
)
def test_random_faults_match_per_cycle(name, pick, kind, value, frac,
                                       bit_pick):
    golden = _inject_golden(name)
    sites = enumerate_sites(golden.config)
    site = sites[pick % len(sites)]
    bit = bit_pick % field_width(site, golden.config)
    cycle = int(frac * golden.cycles)
    _replays_match(golden, [FaultSpec(site, kind, bit, value, cycle)])


class TestSkippedCyclesTelemetry:
    @pytest.fixture(autouse=True)
    def _isolated(self):
        TELEMETRY.disable()
        TELEMETRY.reset()
        yield
        TELEMETRY.disable()
        TELEMETRY.reset()

    def _skipped(self, **kw):
        trace = generate_trace(profile("mcf"), 600, seed=1)
        TELEMETRY.enable()
        with TELEMETRY.collect() as m:
            Core(_RESCUE, trace).run(400, warmup=200, **kw)
        return m.counters.get("cpu.skipped_cycles", 0)

    def test_unobserved_run_skips(self):
        assert self._skipped() > 0

    def test_observed_run_skips_nothing(self):
        """A hook without a schedule sees every cycle."""
        assert self._skipped(on_cycle=lambda c: False) == 0

    def test_scheduled_observer_skips(self):
        every = self._skipped(on_cycle=lambda c: False,
                              schedule=lambda c: c + 1)
        sparse = self._skipped(on_cycle=lambda c: False,
                               schedule=lambda c: (c // 50 + 1) * 50)
        assert every == 0 < sparse < self._skipped()

    def test_faulty_replays_count_their_jumps(self):
        golden = _inject_golden("rescue")
        site = next(
            s for s in enumerate_sites(golden.config) if s.struct == "lsq"
        )
        fault = FaultSpec(site, "stuckat", 3, 1, 0)
        TELEMETRY.enable()
        with TELEMETRY.collect() as m:
            run_with_fault(golden, fault)
        with TELEMETRY.collect() as m_slow, per_cycle():
            run_with_fault(golden, fault)
        assert m.counters["inject.skipped_cycles"] > 0
        assert m.counters["inject.skipped_cycles"] == (
            m.counters["cpu.skipped_cycles"]
        )
        assert m_slow.counters["inject.skipped_cycles"] == 0
        assert (
            m.counters["inject.sim_cycles"]
            == m_slow.counters["inject.sim_cycles"]
        )


@pytest.mark.slow
@pytest.mark.parametrize("prof", PROFILES, ids=lambda p: p.name)
def test_skip_matches_per_cycle_loop_all_profiles(prof):
    trace = generate_trace(prof, 900, seed=3)
    for cfg in list(CONFIGS.values()) + [ALL_DEGRADED]:
        fast, slow = _both(cfg, trace, 600, warmup=300)
        assert fast == slow


@pytest.mark.slow
@pytest.mark.parametrize("prof", PROFILES, ids=lambda p: p.name)
def test_observed_runs_match_per_cycle_all_profiles(prof):
    """Golden capture, the scan and faulty replay on every profile."""
    trace = generate_trace(prof, 300, seed=3)
    for cfg in INJECT_CONFIGS.values():
        kw = dict(checkpoint_interval=INTERVAL, profile_stride=STRIDE)
        golden = run_golden(cfg, trace, 300, **kw)
        with per_cycle():
            slow = run_golden(cfg, trace, 300, **kw)
        assert _golden_state(golden) == _golden_state(slow)
        faults = sample_faults(
            enumerate_sites(cfg), 8, 1, "both", cfg, golden.cycles
        )
        with per_cycle():
            slow_scan = first_effect_scan(golden, faults)
        assert first_effect_scan(golden, faults) == slow_scan
        _replays_match(golden, faults)
