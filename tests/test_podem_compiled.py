"""Equivalence and invariant tests for the compiled event-driven PODEM.

The compiled engine must be *verdict-equivalent* to the reference
``Podem`` oracle: with a budget generous enough that neither engine aborts,
"untestable" is a complete-search proof and "detected" means a pattern
exists, so the per-fault status must agree exactly even though the two
engines walk different search paths and return different patterns.
Patterns themselves are validated semantically — every one must detect
its target under the fault simulator.
"""

import random as pyrandom

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg import (
    CompiledPodem,
    collapse_faults,
    compute_scoap,
    full_fault_universe,
    grade_faults,
    run_atpg,
)
from repro.atpg.podem_compiled import SCOAP_INF
from repro.netlist import GateType, Netlist, PackedWordSimulator
from repro.netlist.faults import StuckAt
from repro.telemetry import TELEMETRY
from tests import oracles
from tests.oracles import Podem

_KINDS = [GateType.AND, GateType.OR, GateType.XOR, GateType.NAND,
          GateType.NOR, GateType.NOT, GateType.MUX2]


def _circuit(seed: int, n_inputs: int, n_gates: int,
             n_flops: int = 0) -> Netlist:
    rng = pyrandom.Random(seed)
    nl = Netlist(f"pc{seed}")
    nets = [nl.add_input(f"i{k}") for k in range(n_inputs)]
    for fid in range(n_flops):
        nets.append(nl.add_flop(rng.choice(nets), name=f"f{fid}").q_net)
    for _ in range(n_gates):
        kind = rng.choice(_KINDS)
        if kind is GateType.NOT:
            nets.append(nl.add_gate(kind, [rng.choice(nets)]))
        elif kind is GateType.MUX2:
            nets.append(
                nl.add_gate(kind, [rng.choice(nets) for _ in range(3)])
            )
        else:
            nets.append(
                nl.add_gate(kind, [rng.choice(nets), rng.choice(nets)])
            )
    nl.mark_output(nets[-1])
    return nl


def _pattern_row(sim, pattern, fill):
    row = np.full((1, sim.n_sources), fill, dtype=bool)
    for net, val in pattern.items():
        row[0, sim.source_col[net]] = bool(val)
    return row


class TestVerdictEquivalence:
    @given(
        seed=st.integers(0, 5000),
        n_gates=st.integers(3, 25),
        n_flops=st.integers(0, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_status_matches_legacy(self, seed, n_gates, n_flops):
        nl = _circuit(seed, 4, n_gates, n_flops)
        legacy = Podem(nl, backtrack_limit=5_000)
        compiled = CompiledPodem(nl, backtrack_limit=5_000)
        sim = PackedWordSimulator(nl)
        for fault in collapse_faults(nl, full_fault_universe(nl))[:30]:
            r_legacy = legacy.generate(fault)
            r_compiled = compiled.generate(fault)
            assert r_legacy.status == r_compiled.status, (
                f"{fault.describe()}: legacy={r_legacy.status} "
                f"compiled={r_compiled.status}"
            )
            if r_compiled.status != "detected":
                continue
            # The compiled pattern must detect its target under both
            # all-0 and all-1 X-fill (X bits are genuinely don't-care).
            for fill in (False, True):
                row = _pattern_row(sim, r_compiled.pattern, fill)
                grade = grade_faults(nl, [fault], row, sim=sim)
                assert fault in grade.detected, (
                    f"{fault.describe()} not detected by compiled "
                    f"pattern under fill={fill}"
                )

    @given(seed=st.integers(0, 5000), n_gates=st.integers(4, 30))
    @settings(max_examples=10, deadline=None)
    def test_run_atpg_statistics_match_reference_verdicts(
        self, seed, n_gates
    ):
        """With no aborts every collapsed fault is either detected or
        proven untestable, so the flow's statistics are fixed by the
        reference PODEM's per-fault verdicts, and the kept patterns
        detect exactly the testable faults."""
        nl = _circuit(seed, 5, n_gates)
        result = run_atpg(nl, seed=3, backtrack_limit=5_000)
        targets = collapse_faults(nl, full_fault_universe(nl))
        reference = Podem(nl, backtrack_limit=5_000)
        verdicts = {f: reference.generate(f).status for f in targets}
        testable = {f for f, v in verdicts.items() if v == "detected"}
        assert "aborted" not in verdicts.values()
        assert result.n_aborted == 0
        assert result.n_collapsed_faults == len(targets)
        assert result.n_detected == len(testable)
        assert result.n_untestable == len(targets) - len(testable)
        graded = oracles.grade_faults(nl, targets, result.patterns)
        assert set(graded.detected) == testable


class TestBatchedDropping:
    @given(seed=st.integers(0, 3000), n_gates=st.integers(10, 40))
    @settings(max_examples=10, deadline=None)
    def test_batched_equals_per_pattern_dropping(self, seed, n_gates):
        nl = _circuit(seed, 5, n_gates, n_flops=2)
        batched = run_atpg(
            nl, seed=7, backtrack_limit=5_000, drop_batch=64
        )
        per_pattern = run_atpg(
            nl, seed=7, backtrack_limit=5_000, drop_batch=1
        )
        assert batched.n_aborted == 0 and per_pattern.n_aborted == 0
        assert batched.n_detected == per_pattern.n_detected
        assert batched.n_untestable == per_pattern.n_untestable
        targets = collapse_faults(nl, full_fault_universe(nl))
        g_b = grade_faults(nl, targets, batched.patterns)
        g_p = grade_faults(nl, targets, per_pattern.patterns)
        assert set(g_b.detected) == set(g_p.detected)

    def test_drop_batch_one_bit_identical_to_seed_flow(self):
        """``drop_batch=1`` must reproduce the original per-pattern flow
        exactly (same RNG draws, same grading sets -> same vectors)."""
        nl = _circuit(11, 5, 30, n_flops=2)
        a = run_atpg(nl, seed=5, drop_batch=1)
        b = run_atpg(nl, seed=5, drop_batch=64)
        assert a.n_detected == b.n_detected
        assert a.n_untestable == b.n_untestable

    def test_drop_batch_must_be_positive(self):
        nl = _circuit(1, 4, 8)
        with pytest.raises(ValueError):
            run_atpg(nl, drop_batch=0)


class TestUndoTrail:
    def test_assign_undo_restores_state_exactly(self):
        nl = _circuit(23, 5, 25, n_flops=2)
        podem = CompiledPodem(nl)
        fault = collapse_faults(nl, full_fault_universe(nl))[0]
        podem._reset(fault)
        good0 = podem.good.copy()
        faulty0 = podem.faulty.copy()
        d0 = set(podem._d_nets)
        sources = sorted(podem._sources)
        marks = []
        for i, src in enumerate(sources[:4]):
            marks.append(podem._assign(src, i % 2))
        # Unwind in reverse order; the base state must come back exactly.
        for mark in reversed(marks):
            podem._undo(mark)
        assert np.array_equal(podem.good, good0)
        assert np.array_equal(podem.faulty, faulty0)
        assert podem._d_nets == d0
        assert len(podem._trail) == 0

    def test_incremental_matches_full_resimulation(self):
        """Event-driven propagation must land in the same state a fresh
        reset+replay reaches (cone walk misses nothing)."""
        nl = _circuit(31, 5, 30)
        fault = collapse_faults(nl, full_fault_universe(nl))[3]
        a = CompiledPodem(nl)
        a._reset(fault)
        sources = sorted(a._sources)
        assigns = [(src, (i * 7) % 2) for i, src in enumerate(sources)]
        for src, val in assigns:
            a._assign(src, val)
        # Reference: reset then replay on a fresh instance -> same state
        # regardless of event ordering.
        b = CompiledPodem(nl)
        b._reset(fault)
        for src, val in assigns:
            b._assign(src, val)
        assert np.array_equal(a.good, b.good)
        assert np.array_equal(a.faulty, b.faulty)
        assert a._d_nets == b._d_nets


class TestScoap:
    def test_and_chain_controllability(self):
        nl = Netlist("scoap")
        a = nl.add_input("a")
        b = nl.add_input("b")
        c = nl.add_input("c")
        t = nl.add_gate(GateType.AND, [a, b])
        y = nl.add_gate(GateType.AND, [t, c])
        nl.mark_output(y)
        s = compute_scoap(PackedWordSimulator(nl).compiled)
        assert s.cc0[a] == 1 and s.cc1[a] == 1
        assert s.cc1[t] == 3  # both inputs to 1: 1 + 1 + 1
        assert s.cc0[t] == 2  # one input to 0: min(1, 1) + 1
        assert s.cc1[y] == 5  # cc1(t) + cc1(c) + 1
        assert s.co[y] == 0  # primary output
        # Observing a: through both ANDs, side inputs at 1.
        assert s.co[a] == 0 + 1 + s.cc1[c] + 1 + s.cc1[b]

    def test_constant_nets_are_uncontrollable(self):
        nl = Netlist("const")
        a = nl.add_input("a")
        k = nl.add_gate(GateType.CONST0, [])
        y = nl.add_gate(GateType.OR, [a, k])
        nl.mark_output(y)
        s = compute_scoap(PackedWordSimulator(nl).compiled)
        assert s.cc0[k] == 0
        assert s.cc1[k] >= SCOAP_INF


class TestTelemetryCounters:
    def test_compiled_counters_emitted(self):
        nl = _circuit(3, 4, 15)
        fault = collapse_faults(nl, full_fault_universe(nl))[0]
        podem = CompiledPodem(nl)
        TELEMETRY.enable()
        try:
            with TELEMETRY.collect() as metrics:
                podem.generate(fault)
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        counters = metrics.counters
        assert counters.get("podem.targets") == 1
        assert counters.get("podem.cone_evals", 0) > 0
        assert "podem.undo_restores" in counters
        assert "podem.xpath_prunes" in counters

    def test_counters_silent_when_disabled(self):
        nl = _circuit(3, 4, 15)
        fault = collapse_faults(nl, full_fault_universe(nl))[0]
        podem = CompiledPodem(nl)
        assert not TELEMETRY.enabled
        result = podem.generate(fault)
        assert result.status in ("detected", "untestable", "aborted")


class TestCompiledPodemUnits:
    def test_detects_simple_fault(self):
        nl = Netlist("and2")
        a = nl.add_input("a")
        b = nl.add_input("b")
        y = nl.add_gate(GateType.AND, [a, b])
        nl.mark_output(y)
        res = CompiledPodem(nl).generate(StuckAt(net=y, value=0))
        assert res.detected
        assert res.pattern[a] == 1 and res.pattern[b] == 1

    def test_proves_redundant_fault_untestable(self):
        nl = Netlist("redundant")
        a = nl.add_input("a")
        b = nl.add_input("b")
        t = nl.add_gate(GateType.AND, [a, b])
        y = nl.add_gate(GateType.OR, [a, t])
        nl.mark_output(y)
        res = CompiledPodem(nl).generate(StuckAt(net=t, value=0))
        assert res.status == "untestable"

    def test_flop_pin_fault(self):
        nl = Netlist()
        a = nl.add_input("a")
        y = nl.add_gate(GateType.NOT, [a])
        f = nl.add_flop(y, name="r")
        nl.add_gate(GateType.BUF, [f.q_net])
        res = CompiledPodem(nl).generate(StuckAt(net=y, value=1, flop=f.fid))
        assert res.detected
        assert res.pattern[a] == 1

    def test_shares_prebuilt_compiled_netlist(self):
        nl = _circuit(9, 4, 12)
        sim = PackedWordSimulator(nl)
        podem = CompiledPodem(nl, compiled=sim.compiled)
        assert podem.c is sim.compiled
        fault = collapse_faults(nl, full_fault_universe(nl))[0]
        assert podem.generate(fault).status in (
            "detected", "untestable", "aborted"
        )

    def test_pattern_values_are_binary(self):
        nl = _circuit(17, 5, 20)
        podem = CompiledPodem(nl)
        for fault in collapse_faults(nl, full_fault_universe(nl))[:10]:
            res = podem.generate(fault)
            if res.detected:
                assert all(v in (0, 1) for v in res.pattern.values())
                assert all(net in podem._sources for net in res.pattern)
