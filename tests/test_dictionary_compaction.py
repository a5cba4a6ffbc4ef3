"""Tests for fault dictionaries and static test compaction."""

import numpy as np
import pytest

from repro.atpg import collapse_faults, full_fault_universe, grade_faults
from repro.atpg.compaction import detection_matrix, reverse_order_compaction
from repro.atpg.dictionary import FaultDictionary
from repro.netlist import GateType, NetBuilder, Netlist
from repro.netlist.compiled import PackedWordSimulator
from repro.netlist.faults import StuckAt
from repro.scan import ScanTester, insert_scan


def _design():
    """Two independent blocks so signatures separate cleanly."""
    bld = NetBuilder(name="dict")
    a = bld.nl.add_input("a")
    b = bld.nl.add_input("b")
    with bld.component("A"):
        ya = bld.gate(GateType.AND, a, b)
        bld.register([ya], "ra")
    with bld.component("B"):
        yb = bld.gate(GateType.XOR, a, b)
        bld.register([yb], "rb")
    chain = insert_scan(bld.nl)
    return bld.nl, chain, (ya, yb)


def _exhaustive_patterns(nl):
    n = PackedWordSimulator(nl).n_sources
    rows = [[(v >> i) & 1 for i in range(n)] for v in range(1 << n)]
    return np.array(rows, dtype=bool)


class TestFaultDictionary:
    def test_entries_only_for_detected(self):
        nl, chain, _ = _design()
        patterns = _exhaustive_patterns(nl)
        tester = ScanTester(nl, chain, patterns)
        faults = collapse_faults(nl, full_fault_universe(nl))
        d = FaultDictionary(tester, faults)
        assert 0 < d.n_entries <= len(faults)

    def test_lookup_finds_inserted_fault(self):
        nl, chain, (ya, yb) = _design()
        patterns = _exhaustive_patterns(nl)
        tester = ScanTester(nl, chain, patterns)
        faults = collapse_faults(nl, full_fault_universe(nl))
        d = FaultDictionary(tester, faults)
        fault = StuckAt(net=ya, value=0)
        match = d.locate(fault)
        assert match.matched
        assert match.nearest_distance == 0

    def test_unmodeled_fault_falls_back_to_nearest(self):
        nl, chain, (ya, yb) = _design()
        patterns = _exhaustive_patterns(nl)
        tester = ScanTester(nl, chain, patterns)
        # Dictionary built over block A faults only.
        faults = [StuckAt(net=ya, value=0), StuckAt(net=ya, value=1)]
        d = FaultDictionary(tester, faults)
        match = d.locate(StuckAt(net=yb, value=1))
        assert not match.matched
        assert match.nearest is not None and match.nearest_distance > 0

    def test_storage_scales_with_entries(self):
        nl, chain, (ya, yb) = _design()
        patterns = _exhaustive_patterns(nl)
        tester = ScanTester(nl, chain, patterns)
        small = FaultDictionary(tester, [StuckAt(net=ya, value=0)])
        faults = collapse_faults(nl, full_fault_universe(nl))
        big = FaultDictionary(tester, faults)
        assert big.storage_bits() > small.storage_bits()

    def test_ambiguity_at_least_one(self):
        nl, chain, _ = _design()
        patterns = _exhaustive_patterns(nl)
        tester = ScanTester(nl, chain, patterns)
        faults = collapse_faults(nl, full_fault_universe(nl))
        d = FaultDictionary(tester, faults)
        assert d.ambiguity() >= 1.0


class TestCompaction:
    def _circuit(self):
        nl = Netlist("comp")
        a = nl.add_input("a")
        b = nl.add_input("b")
        c = nl.add_input("c")
        y = nl.add_gate(GateType.AND, [a, b])
        z = nl.add_gate(GateType.OR, [y, c])
        nl.mark_output(z)
        return nl

    def test_detection_matrix_matches_grader(self):
        nl = self._circuit()
        faults = collapse_faults(nl, full_fault_universe(nl))
        rng = np.random.default_rng(0)
        patterns = rng.integers(0, 2, size=(16, 3)).astype(bool)
        matrix = detection_matrix(nl, faults, patterns)
        grade = grade_faults(nl, faults, patterns)
        for f in faults:
            detected_here = matrix[f].any()
            assert detected_here == (f in grade.detected)

    def test_compaction_preserves_coverage(self):
        nl = self._circuit()
        faults = collapse_faults(nl, full_fault_universe(nl))
        rng = np.random.default_rng(1)
        patterns = rng.integers(0, 2, size=(32, 3)).astype(bool)
        before = grade_faults(nl, faults, patterns)
        compacted = reverse_order_compaction(nl, patterns, faults)
        after = grade_faults(nl, faults, compacted)
        assert set(after.detected) == set(before.detected)

    def test_compaction_shrinks_redundant_sets(self):
        nl = self._circuit()
        faults = collapse_faults(nl, full_fault_universe(nl))
        rng = np.random.default_rng(2)
        base = rng.integers(0, 2, size=(8, 3)).astype(bool)
        duplicated = np.concatenate([base, base, base], axis=0)
        compacted = reverse_order_compaction(nl, duplicated, faults)
        assert compacted.shape[0] < duplicated.shape[0]

    def test_single_pattern_passthrough(self):
        nl = self._circuit()
        faults = collapse_faults(nl, full_fault_universe(nl))
        one = np.ones((1, 3), dtype=bool)
        assert reverse_order_compaction(nl, one, faults).shape[0] == 1

    def test_no_detected_faults_gives_empty_set(self):
        nl = self._circuit()
        # A fault list that nothing detects: stuck value equal to the
        # constant driven value everywhere is impossible here, so use a
        # pattern set of zero rows instead.
        faults = [StuckAt(net=0, value=0)]
        patterns = np.zeros((4, 3), dtype=bool)
        out = reverse_order_compaction(nl, patterns, faults)
        assert out.shape[0] <= 4
