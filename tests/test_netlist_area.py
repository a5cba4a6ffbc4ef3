"""Tests for gate-level area accounting."""

import pytest

from repro.netlist import GateType, NetBuilder
from repro.netlist.area import (
    FLOP_AREA,
    AreaBreakdown,
    area_breakdown,
    gate_area,
)
from repro.rtl import RtlParams, build_rescue_rtl
from repro.scan import insert_scan


def _scan_fraction(bd: AreaBreakdown, block: str) -> float:
    """Scan-cell share of a block (the paper's 25%/12% figures count
    the whole scan flop plus its mux as scan area)."""
    scan_area = bd.flops.get(block, 0.0) + bd.scan_overhead.get(block, 0.0)
    return scan_area / bd.block_total(block)


class TestGateArea:
    def test_basic_sizes_ordered(self):
        assert gate_area(GateType.NOT, 1) < gate_area(GateType.NAND, 2)
        assert gate_area(GateType.NAND, 2) < gate_area(GateType.XOR, 2)

    def test_wide_gates_cost_more(self):
        assert gate_area(GateType.AND, 4) > gate_area(GateType.AND, 2)

    def test_consts_are_free(self):
        assert gate_area(GateType.CONST0, 0) == 0.0


class TestBreakdown:
    def _design(self):
        bld = NetBuilder(name="area")
        a = bld.nl.add_input("a")
        with bld.component("blkA/logic"):
            y = bld.gate(GateType.AND, a, a)
            bld.register([y], "ra")
        with bld.component("blkB/logic"):
            z = bld.gate(GateType.NOT, a)
            bld.register([z, z], "rb")
        insert_scan(bld.nl)
        return bld.nl

    def test_blocks_enumerated(self):
        bd = area_breakdown(self._design())
        assert bd.blocks() == ["blkA", "blkB"]

    def test_flop_counts(self):
        bd = area_breakdown(self._design())
        assert bd.flops["blkA"] == FLOP_AREA
        assert bd.flops["blkB"] == 2 * FLOP_AREA

    def test_scan_fraction_positive_when_scanned(self):
        bd = area_breakdown(self._design())
        for block in bd.blocks():
            assert 0.0 < _scan_fraction(bd, block) < 1.0

    def test_total_is_sum_of_blocks(self):
        bd = area_breakdown(self._design())
        assert bd.total == pytest.approx(
            sum(bd.block_total(b) for b in bd.blocks())
        )

    def test_rescue_blocks_have_substantial_scan_area(self):
        """The paper counts scan-cell area (25% of the queues, 12% of the
        other stages) as chipkill; every block of our model must likewise
        show a substantial, bounded scan fraction.  Note: in this
        scaled-down model the *frontend* is the latch-heaviest block (its
        logic shrank faster than its pipeline registers), so the paper's
        queue-vs-rest ordering does not carry over — see EXPERIMENTS.md.
        """
        model = build_rescue_rtl(RtlParams.tiny())
        insert_scan(model.netlist)
        bd = area_breakdown(model.netlist)
        for block in ("iq_old", "iq_new", "frontend0", "backend0", "lsq0"):
            assert 0.05 < _scan_fraction(bd, block) < 0.95, block
