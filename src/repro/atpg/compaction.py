"""Static test-set compaction.

Production ATPG compacts its vector set because tester time is money —
and Table 3's vector counts reflect a compacted set.  This module
implements classic reverse-order compaction on full detection data: grade
every (fault, pattern) pair once, then walk the patterns newest-to-oldest
dropping any whose detected faults are all covered by the patterns kept.

The bit-packed simulator computes each fault's per-pattern detection
vector directly from packed mismatch words.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.netlist.compiled import PackedWordSimulator
from repro.netlist.faults import StuckAt
from repro.netlist.netlist import Netlist


def detection_matrix(
    netlist: Netlist,
    faults: Sequence[StuckAt],
    patterns: np.ndarray,
    sim: Optional[PackedWordSimulator] = None,
) -> Dict[StuckAt, np.ndarray]:
    """Per-fault boolean vectors: which patterns detect the fault."""
    if sim is None:
        sim = PackedWordSimulator(netlist)
    values = sim.good_values(patterns)
    return {fault: sim.detection_vector(values, fault) for fault in faults}


def reverse_order_compaction(
    netlist: Netlist,
    patterns: np.ndarray,
    faults: Sequence[StuckAt],
    sim: Optional[PackedWordSimulator] = None,
) -> np.ndarray:
    """Drop patterns whose detections are covered by the rest.

    Coverage of the given fault list is preserved exactly; the newest
    patterns (usually the most specialized, from the deterministic phase)
    are considered for dropping first, the classic heuristic.

    Returns the compacted pattern matrix (possibly the input unchanged).
    """
    if patterns.shape[0] <= 1:
        return patterns
    matrix = detection_matrix(netlist, faults, patterns, sim=sim)
    detected = [f for f, vec in matrix.items() if vec.any()]
    if not detected:
        return patterns[:0]
    stack = np.stack([matrix[f] for f in detected], axis=0)  # (F, P)
    keep = np.ones(patterns.shape[0], dtype=bool)
    counts = stack.sum(axis=1)  # detections per fault under kept set
    for p in range(patterns.shape[0] - 1, -1, -1):
        col = stack[:, p]
        # Droppable iff no fault relies on pattern p alone.
        if not ((counts == 1) & col).any():
            keep[p] = False
            counts = counts - col
    return patterns[keep]
