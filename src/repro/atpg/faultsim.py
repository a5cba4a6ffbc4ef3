"""Packed-pattern fault simulation (fault grading).

Given a pattern set and a fault list, determine which faults each pattern
detects.  The good circuit is simulated once; each fault re-simulates only
its fanout cone, the optimization that keeps grading thousands of faults
tractable.  The engine is the bit-packed 64-patterns-per-word
:class:`~repro.netlist.compiled.PackedWordSimulator`, with fault-effect
death pruning in the cone walk.

Fault *dropping* lives in the callers (the ATPG flow and random phase):
once a fault is detected it leaves the active list, so later pattern
batches never re-simulate it.  The deterministic phase batches up to
``drop_batch`` PODEM patterns per :func:`grade_faults` call so each drop
pass fills whole 64-bit packed words instead of grading 1-row matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.netlist.compiled import PackedWordSimulator
from repro.netlist.faults import StuckAt
from repro.netlist.netlist import Netlist
from repro.telemetry import TELEMETRY


@dataclass
class FaultGrade:
    """Grading result for one pattern set."""

    n_faults: int
    detected: Dict[StuckAt, int] = field(default_factory=dict)
    undetected: List[StuckAt] = field(default_factory=list)

    @property
    def coverage(self) -> float:
        """Detected fraction of the graded fault list."""
        return len(self.detected) / self.n_faults if self.n_faults else 1.0


def grade_faults(
    netlist: Netlist,
    faults: Sequence[StuckAt],
    patterns: np.ndarray,
    sim: Optional[PackedWordSimulator] = None,
) -> FaultGrade:
    """Grade ``faults`` against ``patterns``.

    Args:
        netlist: the design under test.
        faults: fault list to grade.
        patterns: (P, n_sources) bool matrix over PIs + scan bits.
        sim: optional pre-built simulator for ``netlist`` (reuses its
            compiled form across calls).

    Returns:
        A :class:`FaultGrade`; ``detected[f]`` holds the index of the first
        detecting pattern.
    """
    if sim is None:
        sim = PackedWordSimulator(netlist)
    grade = FaultGrade(n_faults=len(faults))
    with TELEMETRY.span("faultsim/grade"):
        values = sim.good_values(patterns)
        for fault in faults:
            first = sim.first_detection(values, fault)
            if first is None:
                grade.undetected.append(fault)
            else:
                grade.detected[fault] = first
    t = TELEMETRY
    if t.enabled:
        t.count("faultsim.grade_calls")
        t.count("faultsim.faults_graded", len(faults))
        t.count("faultsim.faults_detected", len(grade.detected))
        t.count("faultsim.patterns", int(patterns.shape[0]))
    return grade
