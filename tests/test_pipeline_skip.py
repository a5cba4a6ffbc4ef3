"""The dead-cycle skip must be invisible.

An unobserved ``Core.run`` (no ``arch``, no ``on_cycle``) jumps over
cycles in which nothing changes.  Passing any ``on_cycle`` hook forces
the plain per-cycle loop, which is the oracle: both paths must leave
the same ``SimResult``, stall counters, final cycle, and machine
snapshot.  ``data/pipeline_skip_goldens.json`` additionally pins the
statistics the per-cycle core produced before the skip and the
live-list issue queue existed, so neither path can drift along with
the other.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.cpu import Core, MachineConfig
from repro.cpu.degraded import degraded_params, single_degradation_counts
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
        f"degraded-{dim}": degraded_params(_RESCUE, counts)
        for dim, counts in zip(DIMENSIONS, single_degradation_counts())
    },
}
ALL_DEGRADED = degraded_params(_RESCUE, CoreCounts(*(1,) * 6))
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
        assert self._skipped(on_cycle=lambda c: False) == 0


@pytest.mark.slow
@pytest.mark.parametrize("prof", PROFILES, ids=lambda p: p.name)
def test_skip_matches_per_cycle_loop_all_profiles(prof):
    trace = generate_trace(prof, 900, seed=3)
    for cfg in list(CONFIGS.values()) + [ALL_DEGRADED]:
        fast, slow = _both(cfg, trace, 600, warmup=300)
        assert fast == slow
