"""Reference implementations, kept only as test oracles.

The program has one gate-level engine: the bit-packed
:class:`repro.netlist.compiled.PackedWordSimulator` for good and faulty
simulation, and :class:`repro.atpg.podem_compiled.CompiledPodem` for test
generation.  It has one fault-replay path: checkpoint-forked, grouped
replay guided by the first-effect scan.  The straightforward
implementations they replaced live here, where the equivalence tests and
the ``benchmarks/bench_faultsim.py`` / ``bench_atpg.py`` /
``bench_inject.py`` / ``bench_repair.py`` ``--check`` gates compare
against them.  The
list-based cache, BTB and predictor tables the flat checkpointable ones
replaced are in :mod:`tests.oracles.tables`.  :func:`full_reset` is the
compiled PODEM's per-target reset as one full pass, and
:func:`scratch_verify` the repair oracle with every candidate rebuilt and
re-simulated from scratch.  Nothing under ``src/`` imports this package.
"""

from tests.oracles.inject import scratch_campaign, scratch_run
from tests.oracles.podem import Podem, full_reset
from tests.oracles.repair import scratch_verify
from tests.oracles.sim import (
    PackedSimulator,
    Simulator,
    detection_matrix,
    fault_mismatch,
    grade_faults,
)

__all__ = [
    "PackedSimulator",
    "Podem",
    "Simulator",
    "detection_matrix",
    "fault_mismatch",
    "full_reset",
    "grade_faults",
    "scratch_campaign",
    "scratch_run",
    "scratch_verify",
]
