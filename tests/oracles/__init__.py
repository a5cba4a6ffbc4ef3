"""Reference implementations, kept only as test oracles.

The program has one gate-level engine: the bit-packed
:class:`repro.netlist.compiled.PackedWordSimulator` for good and faulty
simulation, and :class:`repro.atpg.podem_compiled.CompiledPodem` for test
generation.  It has one fault-replay path: checkpoint-forked, grouped
replay guided by the first-effect scan.  The straightforward
implementations they replaced live here, where the equivalence tests and
the ``benchmarks/bench_faultsim.py`` / ``bench_atpg.py`` /
``bench_inject.py`` ``--check`` gates compare against them.  The
list-based cache, BTB and predictor tables the flat checkpointable ones
replaced are in :mod:`tests.oracles.tables`.  Nothing under ``src/``
imports this package.
"""

from tests.oracles.inject import scratch_campaign, scratch_run
from tests.oracles.podem import Podem
from tests.oracles.sim import (
    PackedSimulator,
    Simulator,
    detection_matrix,
    grade_faults,
)

__all__ = [
    "PackedSimulator",
    "Podem",
    "Simulator",
    "detection_matrix",
    "grade_faults",
    "scratch_campaign",
    "scratch_run",
]
