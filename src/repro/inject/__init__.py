"""Architectural fault injection and SDC classification.

Closes the loop on the paper's defect-tolerance claim: inject a fault
into named microarchitectural state of a *running* core, diff the
committed architectural state against a golden run, and classify the
outcome (DAVOS-style simulation-based injection, ITHICA's taxonomy):

``masked``
    The faulty run commits the golden value stream in full — the fault
    never reached architectural state.  Every fault sited in a
    mapped-out ICI block must land here.
``sdc``
    A committed value diverges from the golden record: silent data
    corruption.
``detected``
    A microarchitectural checker fires first (committing a
    never-executed instruction, an out-of-range register tag, a
    physical-register double free).
``hang``
    The run fails to commit the full trace within the cycle-budget
    watchdog (suffix-scaled: the golden cycle count plus one golden
    suffix past the activation cycle, plus slack).

- :mod:`repro.inject.sites` — injection-site enumerator; every site
  maps to its owning ICI block so campaigns can be conditioned on the
  fault map,
- :mod:`repro.inject.models` — transient bit-flip and sticky stuck-at
  fault models applied through the core's architectural-state hooks,
- :mod:`repro.inject.profiler` — per-site occupancy profiling of the
  golden run (``--profile`` reports, residency-weighted sampling),
- :mod:`repro.inject.harness` — golden/faulty paired execution and
  outcome classification, with checkpointed suffix replay, a
  reconvergence early-exit, and warm-core group replay
  (:class:`ReplaySession`: one core and one decoded checkpoint shared by
  the faults that fork from it, restored in full before each);
  classifications are bit-identical to from-scratch replay, kept as a
  test oracle,
- :mod:`repro.inject.arena` — the compressed snapshot arena backing
  the golden checkpoint stream,
- :mod:`repro.inject.goldencache` — the persistent golden-prefix cache
  under ``REPRO_CACHE_DIR`` (warm campaigns skip golden simulation),
- :mod:`repro.inject.campaign` — sharded, checkpointable campaigns with
  worker-count-invariant merged :class:`InjectionStats`, including the
  degraded-mode masking validation.
"""

from repro.inject.sites import (
    Site,
    enumerate_sites,
    mapped_out_blocks,
    site_inert,
)
from repro.inject.arena import SnapshotArena
from repro.inject.goldencache import (
    golden_key,
    load_golden,
    store_golden,
)
from repro.inject.models import FaultSpec, FaultyArchState, sample_faults
from repro.inject.profiler import SiteProfile
from repro.inject.harness import (
    FirstEffect,
    GoldenRun,
    InjectionResult,
    ReplaySession,
    first_effect_scan,
    hang_budget,
    run_golden,
    run_with_fault,
    synth_never_result,
)
from repro.inject.campaign import (
    InjectionSpec,
    InjectionStats,
    masking_validation,
    prepare_injection,
    run_injection,
)

__all__ = [
    "FaultSpec",
    "FaultyArchState",
    "FirstEffect",
    "GoldenRun",
    "InjectionResult",
    "InjectionSpec",
    "InjectionStats",
    "ReplaySession",
    "Site",
    "SiteProfile",
    "SnapshotArena",
    "enumerate_sites",
    "first_effect_scan",
    "golden_key",
    "hang_budget",
    "load_golden",
    "mapped_out_blocks",
    "masking_validation",
    "prepare_injection",
    "run_golden",
    "run_injection",
    "run_with_fault",
    "sample_faults",
    "site_inert",
    "synth_never_result",
]
