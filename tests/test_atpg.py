"""Unit tests for fault universe, collapsing, PODEM, and the ATPG flow."""

import numpy as np
import pytest

from repro.atpg import (
    CompiledPodem,
    collapse_faults,
    full_fault_universe,
    grade_faults,
    run_atpg,
)
from repro.atpg.faults import component_of_fault
from repro.netlist import GateType, NetBuilder, Netlist
from repro.netlist.faults import StuckAt
from tests.oracles import Simulator


def _and_circuit():
    nl = Netlist("and2")
    a = nl.add_input("a")
    b = nl.add_input("b")
    y = nl.add_gate(GateType.AND, [a, b])
    nl.mark_output(y)
    return nl, (a, b, y)


def _redundant_circuit():
    """y = a OR (a AND b): the AND is redundant, its faults untestable."""
    nl = Netlist("redundant")
    a = nl.add_input("a")
    b = nl.add_input("b")
    t = nl.add_gate(GateType.AND, [a, b])
    y = nl.add_gate(GateType.OR, [a, t])
    nl.mark_output(y)
    return nl, (a, b, t, y)


class TestFaultUniverse:
    def test_and2_universe(self):
        nl, (a, b, y) = _and_circuit()
        faults = full_fault_universe(nl)
        # Stems on a, b, y = 6 faults; single-fanout pins add nothing.
        assert len(faults) == 6
        assert all(f.is_stem for f in faults)

    def test_branch_faults_only_on_fanout(self):
        nl, (a, b, t, y) = _redundant_circuit()
        faults = full_fault_universe(nl)
        branch = [f for f in faults if f.gate is not None]
        # Net a fans out to the AND and the OR: 2 pins x 2 values.
        assert len(branch) == 4
        assert {f.net for f in branch} == {a}

    def test_component_of_fault(self):
        bld = NetBuilder()
        a = bld.nl.add_input("a")
        with bld.component("blk"):
            y = bld.gate(GateType.NOT, a)
        bld.nl.mark_output(y)
        assert component_of_fault(bld.nl, StuckAt(net=y, value=0)) == "blk"
        assert component_of_fault(bld.nl, StuckAt(net=a, value=0)) == ""


class TestCollapse:
    def test_and_gate_collapses_input_sa0(self):
        nl, (a, b, y) = _and_circuit()
        faults = full_fault_universe(nl)
        collapsed = collapse_faults(nl, faults)
        # Classic result for a 2-input AND cone: 6 -> 4 faults.
        assert len(collapsed) == 4

    def test_inverter_chain_collapses_to_two(self):
        nl = Netlist()
        a = nl.add_input("a")
        x = nl.add_gate(GateType.NOT, [a])
        y = nl.add_gate(GateType.NOT, [x])
        nl.mark_output(y)
        faults = full_fault_universe(nl)
        collapsed = collapse_faults(nl, faults)
        assert len(collapsed) == 2

    def test_collapse_preserves_coverage(self):
        """Every universe fault must be detected by a complete test set for
        the collapsed list (equivalence correctness)."""
        nl, (a, b, t, y) = _redundant_circuit()
        universe = full_fault_universe(nl)
        collapsed = collapse_faults(nl, universe)
        result = run_atpg(nl, seed=1)
        grade_all = grade_faults(nl, universe, result.patterns)
        grade_col = grade_faults(nl, collapsed, result.patterns)
        # Undetected universe faults must be equivalent to undetected
        # collapsed faults (here: the untestable redundant ones).
        assert len(grade_all.undetected) >= len(grade_col.undetected)
        for f in grade_col.undetected:
            assert f in grade_all.undetected


class TestPodem:
    def test_detects_simple_fault(self):
        nl, (a, b, y) = _and_circuit()
        res = CompiledPodem(nl).generate(StuckAt(net=y, value=0))
        assert res.detected
        # Pattern must set both inputs to 1.
        assert res.pattern[a] == 1 and res.pattern[b] == 1

    def test_proves_redundant_fault_untestable(self):
        nl, (a, b, t, y) = _redundant_circuit()
        # t stuck-at-0: masked by a OR -. Activation needs a=1,b=1 but then
        # the OR output is 1 either way: no propagation.
        res = CompiledPodem(nl).generate(StuckAt(net=t, value=0))
        assert res.status == "untestable"

    def test_pattern_verified_by_simulation(self):
        rng = np.random.default_rng(11)
        nl = Netlist()
        nets = [nl.add_input(f"i{k}") for k in range(5)]
        kinds = [GateType.AND, GateType.OR, GateType.XOR, GateType.NAND]
        for _ in range(30):
            g = kinds[int(rng.integers(len(kinds)))]
            x, yy = rng.choice(len(nets), size=2)
            nets.append(nl.add_gate(g, [nets[int(x)], nets[int(yy)]]))
        nl.mark_output(nets[-1])
        nl.mark_output(nets[-3])
        sim = Simulator(nl)
        podem = CompiledPodem(nl)
        checked = 0
        for fault in collapse_faults(nl, full_fault_universe(nl))[:40]:
            res = podem.generate(fault)
            if not res.detected:
                continue
            pi = {n: res.pattern.get(n, 0) for n in nl.primary_inputs}
            _, good, _ = sim.evaluate(pi)
            _, bad, _ = sim.evaluate(pi, fault=fault)
            assert good != bad, f"pattern fails for {fault.describe()}"
            checked += 1
        assert checked > 10

    def test_detects_through_mux(self):
        nl = Netlist()
        a = nl.add_input("a")
        b = nl.add_input("b")
        s = nl.add_input("s")
        y = nl.add_gate(GateType.MUX2, [a, b, s])
        nl.mark_output(y)
        res = CompiledPodem(nl).generate(StuckAt(net=b, value=0))
        assert res.detected
        assert res.pattern[s] == 1 and res.pattern[b] == 1

    def test_flop_pin_fault(self):
        nl = Netlist()
        a = nl.add_input("a")
        y = nl.add_gate(GateType.NOT, [a])
        f = nl.add_flop(y, name="r")
        nl.add_gate(GateType.BUF, [f.q_net])  # keep Q read
        res = CompiledPodem(nl).generate(StuckAt(net=y, value=1, flop=f.fid))
        assert res.detected
        assert res.pattern[a] == 1  # drives D to 0, opposite the stuck 1


class TestFlow:
    def test_full_coverage_on_small_circuit(self):
        nl, _ = _and_circuit()
        result = run_atpg(nl, seed=0)
        assert result.n_untestable == 0
        assert result.n_aborted == 0
        assert result.coverage == 1.0
        assert result.n_vectors >= 3  # AND needs at least 3 test vectors

    def test_redundant_fault_reported_untestable(self):
        nl, _ = _redundant_circuit()
        result = run_atpg(nl, seed=0)
        assert result.n_untestable >= 1
        assert result.coverage == 1.0  # of the testable faults

    def test_patterns_grade_back_to_full_coverage(self):
        rng = np.random.default_rng(5)
        nl = Netlist()
        nets = [nl.add_input(f"i{k}") for k in range(6)]
        for _ in range(50):
            g = [GateType.AND, GateType.OR, GateType.XOR][
                int(rng.integers(3))
            ]
            x, y = rng.choice(len(nets), size=2)
            nets.append(nl.add_gate(g, [nets[int(x)], nets[int(y)]]))
        nl.mark_output(nets[-1])
        nl.add_flop(nets[-2], name="f0")
        nl.add_flop(nets[-4], name="f1")
        result = run_atpg(nl, seed=2)
        targets = collapse_faults(nl, full_fault_universe(nl))
        grade = grade_faults(nl, targets, result.patterns)
        assert len(grade.undetected) == result.n_untestable + result.n_aborted

    def test_sequential_state_used_as_test_input(self):
        """Scan turns flop outputs into controllable inputs: logic fed only
        by a flop must still be testable."""
        nl = Netlist()
        a = nl.add_input("a")
        f = nl.add_flop(a, name="r")
        y = nl.add_gate(GateType.NOT, [f.q_net])
        nl.mark_output(y)
        result = run_atpg(nl, seed=0)
        assert result.coverage == 1.0
        assert result.n_untestable == 0
