"""From-scratch fault replay: the reference the injection campaign must match.

The campaign forks each faulty run from a golden checkpoint, exits early
on reconvergence, synthesizes verdicts the first-effect scan proves, and
groups faults onto warm cores.  None of that may change a
classification.  The reference here does none of it: the golden run
keeps no checkpoints, so every fault replays the whole trace from cycle
0 with no early exit, no scan and no grouping, and results fold into the
stats in fault order.
"""

from __future__ import annotations

from dataclasses import replace

from repro.inject import (
    InjectionSpec,
    InjectionStats,
    enumerate_sites,
    run_golden,
    run_with_fault,
    sample_faults,
)
from repro.inject.campaign import machine_config
from repro.inject.harness import GoldenRun, InjectionResult
from repro.inject.models import FaultSpec
from repro.inject.sites import sites_in_blocks
from repro.workloads import generate_trace, profile


def scratch_run(golden: GoldenRun, fault: FaultSpec) -> InjectionResult:
    """Replay ``fault`` from cycle 0: the golden run minus checkpoints."""
    return run_with_fault(
        replace(golden, arena=None, checkpoint_interval=0), fault
    )


def scratch_campaign(spec: InjectionSpec) -> InjectionStats:
    """The campaign ``spec`` describes, every fault replayed from scratch.

    Same config, trace, golden commit stream and fault sample as
    :func:`repro.inject.run_injection`; the golden run takes no
    checkpoints, so :func:`run_with_fault` has nothing to fork from.
    """
    config = machine_config(spec)
    trace = generate_trace(
        profile(spec.benchmark), spec.n_instructions, seed=spec.trace_seed
    )
    stride = spec.profile_stride if spec.sampling == "weighted" else 0
    golden = run_golden(
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
        stats.add(fault, run_with_fault(golden, fault))
    return stats
