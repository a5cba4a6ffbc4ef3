"""Static test-set compaction.

Production ATPG compacts its vector set because tester time is money —
and Table 3's vector counts reflect a compacted set.  This module
implements classic reverse-order compaction on full detection data: grade
every (fault, pattern) pair once, then walk the patterns newest-to-oldest
dropping any whose detected faults are all covered by the patterns kept.

One critical-path-tracing pass of the bit-packed simulator
(:meth:`~repro.netlist.compiled.PackedWordSimulator.detections`) gives
every fault's packed detection int; compaction unpacks only the
nonzero ones, in one call.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.netlist.compiled import PackedWordSimulator, _ints_to_bits
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
    bits = _ints_to_bits(sim.detections(values, faults), values.npat)
    return {fault: bits[:, j] for j, fault in enumerate(faults)}


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
    if sim is None:
        sim = PackedWordSimulator(netlist)
    values = sim.good_values(patterns)
    detected = [v for v in sim.detections(values, faults) if v]
    if not detected:
        return patterns[:0]
    stack = _ints_to_bits(detected, values.npat).T  # (F, P)
    keep = np.ones(patterns.shape[0], dtype=bool)
    counts = stack.sum(axis=1)  # detections per fault under kept set
    for p in range(patterns.shape[0] - 1, -1, -1):
        col = stack[:, p]
        # Droppable iff no fault relies on pattern p alone.
        if not ((counts == 1) & col).any():
            keep[p] = False
            counts = counts - col
    return patterns[keep]
