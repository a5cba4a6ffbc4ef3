"""Unit tests for the scan-bit isolation table (repro.core.isolation)."""

import pytest

from repro.core import IsolationTable
from repro.netlist import GateType, NetBuilder
from repro.scan import insert_scan


def _three_block_design():
    """Three isolated blocks, two flops each."""
    bld = NetBuilder(name="iso")
    ins = [bld.nl.add_input(f"i{k}") for k in range(3)]
    for b, inp in enumerate(ins):
        with bld.component(f"block{b}/logic"):
            y = bld.gate(GateType.NOT, inp)
            bld.register([y, bld.gate(GateType.BUF, y)], f"r{b}")
    chain = insert_scan(bld.nl)
    return bld.nl, chain


class TestIsolationTable:
    def test_bit_components_follow_chain(self):
        nl, chain = _three_block_design()
        table = IsolationTable(chain)
        assert table.bit_component[0] == "block0/logic"
        assert table.isolate([5]).block == "block2"

    def test_single_block_isolates(self):
        nl, chain = _three_block_design()
        table = IsolationTable(chain)
        result = table.isolate([2, 3])
        assert result.isolated
        assert result.block == "block1"

    def test_multi_block_failure_is_ambiguous(self):
        nl, chain = _three_block_design()
        table = IsolationTable(chain)
        result = table.isolate([0, 4])
        assert not result.isolated
        assert result.blocks == {"block0", "block2"}
        with pytest.raises(ValueError, match="spans"):
            _ = result.block

    def test_po_components(self):
        nl, chain = _three_block_design()
        table = IsolationTable(chain, po_components=["block1/output"])
        result = table.isolate([], failing_pos=[0])
        assert result.isolated and result.block == "block1"

    def test_custom_block_mapper(self):
        nl, chain = _three_block_design()
        table = IsolationTable(
            chain, block_of_component=lambda c: "everything"
        )
        result = table.isolate([0, 3, 5])
        assert result.isolated and result.block == "everything"

    def test_blocks_enumeration(self):
        nl, chain = _three_block_design()
        table = IsolationTable(chain)
        assert table.blocks() == {"block0", "block1", "block2"}

    def test_empty_failure_isolates_nowhere(self):
        nl, chain = _three_block_design()
        result = IsolationTable(chain).isolate([])
        assert not result.isolated
        assert result.blocks == set()
