"""Unit tests for the scan/DFT substrate."""

import numpy as np
import pytest

from repro.netlist import GateType, NetBuilder, Netlist
from repro.netlist.compiled import PackedWordSimulator
from repro.netlist.faults import StuckAt
from repro.scan import ScanChain, ScanTester, insert_scan


def _pipeline_pair():
    """Two-stage pipeline: stage A (not) -> flop -> stage B (buf) -> flop.

    Mirrors Figure 2b: a fault detected in the second flop must be stage B,
    in the first flop stage A.
    """
    bld = NetBuilder(name="pipe2")
    a = bld.nl.add_input("in")
    with bld.component("stageA"):
        ya = bld.gate(GateType.NOT, a)
        qa = bld.register([ya], "ra")
    with bld.component("stageB"):
        yb = bld.gate(GateType.NOT, qa[0])
        bld.register([yb], "rb")
    return bld.nl, (a, ya, yb)


class TestScanChain:
    def test_insertion_orders_all_flops(self):
        nl, _ = _pipeline_pair()
        chain = insert_scan(nl)
        assert len(chain) == 2
        assert all(f.scan for f in nl.flops)
        assert [f.scan_index for f in nl.flops] == [0, 1]

    def test_custom_order(self):
        nl, _ = _pipeline_pair()
        chain = insert_scan(nl, order=[1, 0])
        assert chain.flop_at(0) == 1
        assert chain.bit_of_flop[0] == 1

    def test_duplicate_flop_rejected(self):
        nl, _ = _pipeline_pair()
        with pytest.raises(ValueError, match="repeats"):
            ScanChain(nl, [0, 0])

    def test_partial_chain_rejected_for_full_scan(self):
        nl, _ = _pipeline_pair()
        with pytest.raises(ValueError, match="full scan"):
            insert_scan(nl, order=[0])

    def test_component_table(self):
        nl, _ = _pipeline_pair()
        chain = insert_scan(nl)
        assert chain.component_table() == ["stageA", "stageB"]

    def test_test_cycles_formula(self):
        nl, _ = _pipeline_pair()
        chain = insert_scan(nl)
        # (V+1)*L + V with L=2: V=1 -> 5, V=10 -> 32.
        assert chain.test_cycles(1) == 5
        assert chain.test_cycles(10) == 32
        assert chain.test_cycles(0) == 0


def _n_sources(nl: Netlist) -> int:
    return PackedWordSimulator(nl).n_sources


class TestScanTester:
    def test_good_response_shapes(self):
        nl, _ = _pipeline_pair()
        chain = insert_scan(nl)
        patterns = np.zeros((4, _n_sources(nl)), dtype=bool)
        tester = ScanTester(nl, chain, patterns)
        _, state = tester.sim.capture(tester.values)
        assert state.shape == (4, 2)

    def test_fault_detected_and_bit_localized(self):
        nl, (a, ya, yb) = _pipeline_pair()
        chain = insert_scan(nl)
        rng = np.random.default_rng(0)
        patterns = rng.integers(
            0, 2, size=(8, _n_sources(nl))
        ).astype(bool)
        tester = ScanTester(nl, chain, patterns)
        # Fault in stage B logic: observed only at scan bit 1 (flop rb).
        fault = StuckAt(net=yb, value=0)
        assert tester.sim.detections(tester.values, [fault]) != [0]
        bits, po = tester.failing_bits(fault)
        assert bits == [1] and po == []
        assert chain.component_at(bits[0]) == "stageB"

    def test_stage_a_fault_maps_to_bit0(self):
        nl, (a, ya, yb) = _pipeline_pair()
        chain = insert_scan(nl)
        rng = np.random.default_rng(1)
        patterns = rng.integers(
            0, 2, size=(8, _n_sources(nl))
        ).astype(bool)
        tester = ScanTester(nl, chain, patterns)
        fault = StuckAt(net=ya, value=1)
        bits, _ = tester.failing_bits(fault)
        assert bits == [0]
        assert chain.component_at(0) == "stageA"

    def test_undetectable_with_unlucky_patterns(self):
        """A SA0 fault needs a pattern driving the net to 1 to show up."""
        nl, (a, ya, yb) = _pipeline_pair()
        chain = insert_scan(nl)
        # Input 1 makes ya = 0, equal to the stuck value: no detection.
        patterns = np.ones((2, _n_sources(nl)), dtype=bool)
        tester = ScanTester(nl, chain, patterns)
        fault = StuckAt(net=ya, value=0)
        assert tester.sim.detections(tester.values, [fault]) == [0]

    def test_flop_d_pin_fault_detected(self):
        nl, _ = _pipeline_pair()
        chain = insert_scan(nl)
        patterns = np.zeros((1, _n_sources(nl)), dtype=bool)
        tester = ScanTester(nl, chain, patterns)
        # Input 0 -> stageA drives 1 into flop 0; D pin stuck at 0 flips it.
        fault = StuckAt(net=nl.flops[0].d_net, value=0, flop=0)
        bits, _ = tester.failing_bits(fault)
        assert bits == [0]

    def test_multiple_faulty_components_isolated_same_vector(self):
        """ICI corollary (Section 3.1): simultaneous faults in independent
        components each map to their own scan bits."""
        nl, (a, ya, yb) = _pipeline_pair()
        chain = insert_scan(nl)
        rng = np.random.default_rng(2)
        patterns = rng.integers(
            0, 2, size=(8, _n_sources(nl))
        ).astype(bool)
        tester = ScanTester(nl, chain, patterns)
        bits_a, _ = tester.failing_bits(StuckAt(net=ya, value=0))
        bits_b, _ = tester.failing_bits(StuckAt(net=yb, value=0))
        assert set(bits_a).isdisjoint(bits_b)
