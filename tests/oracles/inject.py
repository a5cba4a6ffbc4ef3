"""From-scratch fault replay: the reference the injection campaign must match.

The campaign forks each faulty run from a golden checkpoint, exits early
on reconvergence, synthesizes verdicts the first-effect scan proves,
groups faults onto warm cores, and jumps every run over its dead cycles.
None of that may change a classification.  The reference here does none
of it: the golden run keeps no checkpoints, so every fault replays the
whole trace from cycle 0 with no early exit, no scan and no grouping,
every run steps every cycle, and results fold into the stats in fault
order.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cpu import Core
from repro.cpu.archstate import ArchState
from repro.inject import (
    InjectionSpec,
    InjectionStats,
    enumerate_sites,
    sample_faults,
)
from repro.inject.campaign import machine_config
from repro.inject.harness import (
    GoldenRun,
    InjectionResult,
    _execute_and_classify,
)
from repro.inject.models import FaultSpec, FaultyArchState
from repro.inject.profiler import SiteProfile
from repro.inject.sites import sites_in_blocks
from repro.workloads import generate_trace, profile


class _Stepping:
    """Claims its ``begin_cycle`` acts every cycle: the core never jumps."""

    def next_active(self, core, cycle: int) -> int:
        return cycle + 1


class _SteppingGolden(_Stepping, ArchState):
    pass


class _SteppingFaulty(_Stepping, FaultyArchState):
    pass


def scratch_golden(
    config, trace, n_instructions: int, profile_stride: int = 0
) -> GoldenRun:
    """The golden run stepped cycle by cycle, without checkpoints."""
    arch = _SteppingGolden(config)
    core = Core(config, iter(trace), arch=arch)
    prof = SiteProfile(config, profile_stride) if profile_stride else None

    def on_cycle(c: Core) -> bool:
        if prof is not None and c.cycle % prof.stride == 0:
            prof.observe(c)
        return False

    result = core.run(n_instructions, on_cycle=on_cycle)
    return GoldenRun(
        config=config,
        trace=trace,
        n_instructions=n_instructions,
        log=arch.log,
        cycles=result.cycles,
        commits=arch.commits,
        digest=arch.state_digest(),
        profile=prof,
    )


def scratch_run(golden: GoldenRun, fault: FaultSpec) -> InjectionResult:
    """Replay ``fault`` from cycle 0, every cycle stepped: the golden run
    minus checkpoints."""
    arch = _SteppingFaulty(golden.config, fault, golden_log=golden.log)
    core = Core(golden.config, iter(golden.trace), arch=arch)
    return _execute_and_classify(
        replace(golden, arena=None, checkpoint_interval=0),
        fault, core, arch, 0,
    )


def scratch_campaign(spec: InjectionSpec) -> InjectionStats:
    """The campaign ``spec`` describes, every fault replayed from scratch.

    Same config, trace, golden commit stream and fault sample as
    :func:`repro.inject.run_injection`; the golden run takes no
    checkpoints, so a faulty run has nothing to fork from.
    """
    config = machine_config(spec)
    trace = generate_trace(
        profile(spec.benchmark), spec.n_instructions, seed=spec.trace_seed
    )
    stride = spec.profile_stride if spec.sampling == "weighted" else 0
    golden = scratch_golden(
        config, trace, spec.n_instructions, profile_stride=stride
    )
    sites = enumerate_sites(config)
    if spec.blocks is not None:
        sites = sites_in_blocks(sites, spec.blocks)
    faults = sample_faults(
        sites, spec.n_faults, spec.seed, spec.model, config,
        golden.cycles, mode=spec.sampling, profile=golden.profile,
    )
    stats = InjectionStats(
        keep_records=spec.keep_records, exemplar_cap=spec.exemplar_cap
    )
    for fault in faults:
        stats.add(fault, scratch_run(golden, fault))
    return stats
