"""Gate-level area accounting (the paper's Section 5 methodology).

The paper compiled its Verilog model against the CMU standard-cell library
to get a pre-layout area breakdown, then (a) counted scan-cell area as
chipkill (25% of the queues, 12% of the other stages) and (b) charged the
extra shift stages to the frontend/backends.  This module reproduces that
accounting for our gate-level models: per-gate relative cell areas, a
scan-flop overhead, and per-block / scan-vs-logic breakdowns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.netlist.gates import GateType, block_of
from repro.netlist.netlist import Netlist
from repro.scan.insertion import SCAN_CELL_AREA_OVERHEAD

#: Relative cell areas (NAND2-equivalents), standard-cell-library-like.
GATE_AREA: Mapping[GateType, float] = {
    GateType.NOT: 0.67,
    GateType.BUF: 0.67,
    GateType.AND: 1.33,
    GateType.OR: 1.33,
    GateType.NAND: 1.0,
    GateType.NOR: 1.0,
    GateType.XOR: 2.33,
    GateType.XNOR: 2.33,
    GateType.MUX2: 2.33,
    GateType.CONST0: 0.0,
    GateType.CONST1: 0.0,
}

#: A plain D flip-flop in NAND2-equivalents.
FLOP_AREA = 6.0

#: Multi-input gates beyond 2 inputs cost one extra unit per extra input.
_EXTRA_INPUT_AREA = 0.67


def gate_area(gtype: GateType, n_inputs: int) -> float:
    """Area of one gate instance in NAND2-equivalents."""
    base = GATE_AREA[gtype]
    extra = max(0, n_inputs - 2) * _EXTRA_INPUT_AREA
    if gtype in (GateType.NOT, GateType.BUF, GateType.MUX2,
                 GateType.CONST0, GateType.CONST1):
        extra = 0.0
    return base + extra


@dataclass
class AreaBreakdown:
    """Per-block area split into logic and scan-cell contributions."""

    logic: Dict[str, float]
    flops: Dict[str, float]
    scan_overhead: Dict[str, float]

    @property
    def total(self) -> float:
        """Whole-design area in NAND2-equivalents."""
        return (
            sum(self.logic.values())
            + sum(self.flops.values())
            + sum(self.scan_overhead.values())
        )

    def blocks(self):
        """All block names present in the breakdown."""
        names = set(self.logic) | set(self.flops) | set(self.scan_overhead)
        return sorted(names)


def area_breakdown(netlist: Netlist) -> AreaBreakdown:
    """Compute the per-block area breakdown of a netlist.

    Blocks are the outermost component labels (the map-out granularity);
    unlabeled logic lands in ``""``.
    """
    logic: Dict[str, float] = {}
    flops: Dict[str, float] = {}
    scan_overhead: Dict[str, float] = {}

    for g in netlist.gates:
        b = block_of(g.component)
        logic[b] = logic.get(b, 0.0) + gate_area(g.gtype, len(g.inputs))
    for f in netlist.flops:
        b = block_of(f.component)
        flops[b] = flops.get(b, 0.0) + FLOP_AREA
        if f.scan:
            scan_overhead[b] = scan_overhead.get(b, 0.0) + FLOP_AREA * (
                SCAN_CELL_AREA_OVERHEAD - 1.0
            )
    return AreaBreakdown(logic=logic, flops=flops,
                         scan_overhead=scan_overhead)
