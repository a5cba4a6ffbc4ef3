"""Property-based cross-checks between PODEM and the fault simulator.

The program's PODEM and the reference packed fault simulator are
independent implementations of the same fault semantics; on random
circuits their verdicts must agree:

- a PODEM-detected fault must be detected by grading its pattern;
- a PODEM-untestable fault must be undetected by exhaustive patterns.
"""

import random as pyrandom

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.atpg import (
    CompiledPodem,
    collapse_faults,
    full_fault_universe,
    grade_faults,
)
from repro.netlist import GateType, Netlist
from tests import oracles

_KINDS = [GateType.AND, GateType.OR, GateType.XOR, GateType.NAND,
          GateType.NOR, GateType.NOT, GateType.MUX2]


def _circuit(seed: int, n_inputs: int, n_gates: int) -> Netlist:
    rng = pyrandom.Random(seed)
    nl = Netlist(f"pp{seed}")
    nets = [nl.add_input(f"i{k}") for k in range(n_inputs)]
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


def _exhaustive(nl: Netlist) -> np.ndarray:
    n = len(nl.source_nets())
    rows = [[(v >> i) & 1 for i in range(n)] for v in range(1 << n)]
    return np.array(rows, dtype=bool)


class TestPodemAgreesWithGrading:
    @given(
        seed=st.integers(0, 5000),
        n_gates=st.integers(3, 25),
    )
    @settings(max_examples=20, deadline=None)
    def test_detected_patterns_really_detect(self, seed, n_gates):
        nl = _circuit(seed, 4, n_gates)
        sim = oracles.PackedSimulator(nl)
        podem = CompiledPodem(nl, backtrack_limit=128)
        faults = collapse_faults(nl, full_fault_universe(nl))[:25]
        for fault in faults:
            res = podem.generate(fault)
            if res.status != "detected":
                continue
            row = np.zeros((1, sim.n_sources), dtype=bool)
            for net, val in res.pattern.items():
                row[0, sim.source_col[net]] = bool(val)
            grade = oracles.grade_faults(nl, [fault], row, sim=sim)
            assert fault in grade.detected, (
                f"{fault.describe()} not detected by PODEM's own pattern"
            )

    @given(
        seed=st.integers(0, 5000),
        n_gates=st.integers(3, 14),
    )
    @settings(max_examples=15, deadline=None)
    def test_untestable_verdicts_hold_exhaustively(self, seed, n_gates):
        nl = _circuit(seed, 4, n_gates)
        patterns = _exhaustive(nl)
        podem = CompiledPodem(nl, backtrack_limit=10_000)
        faults = collapse_faults(nl, full_fault_universe(nl))[:20]
        grade = grade_faults(nl, faults, patterns)
        for fault in faults:
            res = podem.generate(fault)
            if res.status == "untestable":
                assert fault not in grade.detected, (
                    f"{fault.describe()} declared untestable but an "
                    "exhaustive pattern detects it"
                )
            elif res.status == "detected":
                assert fault in grade.detected
