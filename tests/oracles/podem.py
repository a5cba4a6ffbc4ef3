"""Reference PODEM: full 3-valued re-simulation after every decision.

A textbook PODEM (Goel) over the combinational full-scan test model:
decisions are made only on sources (primary inputs and scan bits), each
decision is followed by a 3-valued good/faulty forward implication of the
*whole* netlist, and the search backtracks on a dead D-frontier.  Its
backtrace follows a single path.

The program runs :class:`repro.atpg.podem_compiled.CompiledPodem`; this
engine is the oracle its verdicts are checked against.  With a budget
generous enough that neither aborts, "untestable" is a complete-search
proof and "detected" means a pattern exists, so the two must agree on
every fault.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.atpg.podem_compiled import _NONCONTROL, PodemResult, X, _eval3
from repro.netlist.faults import StuckAt
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist


class _SimState:
    __slots__ = ("good", "faulty", "frontier")

    def __init__(self, good: List[int], faulty: List[int],
                 frontier: List[int]) -> None:
        self.good = good
        self.faulty = faulty
        self.frontier = frontier


class Podem:
    """PODEM test generator bound to one netlist."""

    def __init__(self, netlist: Netlist, backtrack_limit: int = 64) -> None:
        netlist.validate()
        self.nl = netlist
        self.backtrack_limit = backtrack_limit
        self._order = netlist.topo_gate_order()
        self._sources = set(netlist.source_nets())
        self._observe = list(netlist.primary_outputs) + [
            f.d_net for f in netlist.flops
        ]

    # ------------------------------------------------------------------
    def generate(self, fault: StuckAt) -> PodemResult:
        """Find a source assignment detecting ``fault``, or prove none."""
        assign: Dict[int, int] = {}
        # decision stack entries: [source net, value, tried_other_branch]
        decisions: List[List[int]] = []
        backtracks = 0
        while True:
            state = self._simulate(assign, fault)
            if self._detected(state, fault):
                return PodemResult(
                    status="detected",
                    pattern=dict(assign),
                    backtracks=backtracks,
                )
            obj = self._objective(state, fault)
            if obj is not None:
                src, val = self._backtrace(obj[0], obj[1], state)
                if src is not None:
                    decisions.append([src, val, 0])
                    assign[src] = val
                    continue
                # Backtrace hit a wall (no X source reachable): treat as a
                # failed branch and fall through to backtracking.
            # Backtrack.
            while decisions:
                top = decisions[-1]
                if not top[2]:
                    top[2] = 1
                    top[1] = 1 - top[1]
                    assign[top[0]] = top[1]
                    backtracks += 1
                    break
                decisions.pop()
                del assign[top[0]]
            else:
                return PodemResult(status="untestable", backtracks=backtracks)
            if backtracks > self.backtrack_limit:
                return PodemResult(status="aborted", backtracks=backtracks)

    # ------------------------------------------------------------------
    def _simulate(self, assign: Dict[int, int], fault: StuckAt) -> _SimState:
        nl = self.nl
        good = [X] * nl.n_nets
        faulty = [X] * nl.n_nets
        frontier: List[int] = []
        stem_net = fault.net if fault.is_stem else -1
        for net in self._sources:
            v = assign.get(net, X)
            good[net] = v
            faulty[net] = fault.value if net == stem_net else v
        gates = nl.gates
        for gid in self._order:
            g = gates[gid]
            ins = g.inputs
            gins = [good[i] for i in ins]
            gout = _eval3(g.gtype, gins)
            good[g.output] = gout
            fins = [faulty[i] for i in ins]
            if fault.gate == gid:
                fins[fault.pin] = fault.value
            fout = _eval3(g.gtype, fins)
            if g.output == stem_net:
                fout = fault.value
            faulty[g.output] = fout
            # D-frontier: output not yet showing the fault effect, with a
            # D on some input.  For the faulted gate itself, the D sits on
            # the overridden *pin*, not the net (branch-fault semantics).
            if gout == X or fout == X:
                for pin_idx, i in enumerate(ins):
                    gv, fv = good[i], faulty[i]
                    if fault.gate == gid and pin_idx == fault.pin:
                        fv = fault.value
                    if gv != X and fv != X and gv != fv:
                        frontier.append(gid)
                        break
        return _SimState(good, faulty, frontier)

    def _detected(self, st: _SimState, fault: StuckAt) -> bool:
        if fault.flop is not None:
            g = st.good[self.nl.flops[fault.flop].d_net]
            return g != X and g != fault.value
        good, faulty = st.good, st.faulty
        for net in self._observe:
            g, f = good[net], faulty[net]
            if g != X and f != X and g != f:
                return True
        return False

    def _objective(
        self, st: _SimState, fault: StuckAt
    ) -> Optional[Tuple[int, int]]:
        """Next (net, value) goal, or None when the branch is dead."""
        # Flop D-pin faults only need the D net driven opposite the stuck
        # value; the flop itself observes it.
        if fault.flop is not None:
            net = self.nl.flops[fault.flop].d_net
            if st.good[net] == X:
                return (net, 1 - fault.value)
            return None  # value set but not opposite: dead branch
        # Activation: the fault site must carry the opposite of the stuck
        # value in the good circuit.
        site_good = st.good[fault.net]
        if site_good == X:
            return (fault.net, 1 - fault.value)
        if site_good == fault.value:
            return None  # cannot activate under current assignment
        # Propagation: pick an X input of a D-frontier gate and set it to
        # the gate's non-controlling value.
        for gid in st.frontier:
            g = self.nl.gates[gid]
            # Skip gates whose composite output settled since collection.
            if st.good[g.output] != X and st.faulty[g.output] != X:
                continue
            noncontrol = _NONCONTROL.get(g.gtype, 0)
            for pin, net in enumerate(g.inputs):
                if st.good[net] == X:
                    if g.gtype is GateType.MUX2 and pin == 2:
                        # Select toward a data input carrying the D.
                        d0g = st.good[g.inputs[0]]
                        d0f = st.faulty[g.inputs[0]]
                        want = 0 if (d0g != X and d0f != X and d0g != d0f) else 1
                        return (net, want)
                    return (net, noncontrol)
        return None  # empty D-frontier: fault effect cannot reach an output

    def _backtrace(
        self, net: int, value: int, st: _SimState
    ) -> Tuple[Optional[int], int]:
        """Walk the objective back to an unassigned source."""
        guard = 0
        good = st.good
        while net not in self._sources:
            guard += 1
            if guard > self.nl.n_nets:
                return None, 0
            gid = self.nl.driver_of(net)
            if gid is None:
                return None, 0  # floating/const net: cannot control
            g = self.nl.gates[gid]
            if g.gtype in (GateType.CONST0, GateType.CONST1):
                return None, 0
            if g.gtype is GateType.MUX2:
                sel = good[g.inputs[2]]
                if sel == X:
                    net, value = g.inputs[2], 0
                    continue
                net = g.inputs[1] if sel == 1 else g.inputs[0]
                if good[net] != X:
                    return None, 0
                continue
            x_pins = [
                (pin, n) for pin, n in enumerate(g.inputs)
                if good[n] == X
            ]
            if not x_pins:
                return None, 0
            pin, nxt = x_pins[0]
            if g.gtype in (GateType.NOT, GateType.NAND, GateType.NOR):
                value = 1 - value
            elif g.gtype in (GateType.XOR, GateType.XNOR):
                parity = 0
                for other_pin, n in enumerate(g.inputs):
                    if other_pin != pin and good[n] != X:
                        parity ^= good[n]
                value = value ^ parity
                if g.gtype is GateType.XNOR:
                    value = 1 - value
            net = nxt
        if good[net] != X:
            return None, 0
        return net, value
