"""Cycle-level out-of-order performance simulator (the paper's modified
SimpleScalar, Section 5).

- :mod:`repro.cpu.params` — Table 1 machine parameters plus the Rescue
  modifications and the fault map's surviving group counts,
- :mod:`repro.cpu.isa` — the trace instruction format,
- :mod:`repro.cpu.bpred` — hybrid branch predictor, BTB, and RAS,
- :mod:`repro.cpu.caches` — set-associative cache hierarchy,
- :mod:`repro.cpu.queues` — compacting issue queues (baseline and the
  ICI-transformed two-half variant with the temporary compaction latch and
  the select/replay policy) and the LSQ,
- :mod:`repro.cpu.pipeline` — the core model,
- :mod:`repro.cpu.archstate` — the architectural-value layer driven by
  the core's observation hooks (the fault-injection substrate),
- :mod:`repro.cpu.degraded` — degraded-configuration sweeps for YAT.
"""

from repro.cpu.params import CoreParams, MachineConfig
from repro.cpu.isa import Instr, OpClass
from repro.cpu.pipeline import Core, SimResult
from repro.cpu.archstate import ArchState
from repro.cpu.degraded import simulate_config

__all__ = [
    "ArchState",
    "Core",
    "CoreParams",
    "Instr",
    "MachineConfig",
    "OpClass",
    "SimResult",
    "simulate_config",
]
