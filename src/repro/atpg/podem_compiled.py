"""Event-driven PODEM on the :class:`CompiledNetlist` SoA form.

A textbook PODEM (Goel) over the combinational full-scan test model:
decisions are made only on sources (primary inputs and scan bits), each
decision is followed by a 3-valued good/faulty forward implication, and the
search backtracks on a dead D-frontier.  This is the deterministic half of
the ATPG flow; random patterns (cheap) run first in :mod:`repro.atpg.flow`.

A naive PODEM re-simulates the *entire* netlist 3-valued after every
decision, which makes hard faults with hundreds of backtracks the
wall-clock sink of the deterministic phase.  This engine applies the
three production remedies:

1. **Event-driven implication with an undo trail.**  Good and faulty
   3-valued state live in two flat numpy ``int8`` arrays; assigning a
   source re-evaluates only the gates in its fanout cone (the same
   heap-by-topological-position walk the bit-packed fault simulator
   uses, via the ``readers``/``topo_pos``/``gate_tuples`` hooks on
   :class:`~repro.netlist.compiled.CompiledNetlist`).  Every net write is
   recorded on a trail, so a backtrack restores O(touched) nets instead
   of resimulating everything.  Kleene 3-valued evaluation is monotone in
   the information order, which is what makes incremental refinement
   (X -> 0/1, never back) sound between decisions of one branch.

2. **SCOAP-guided search.**  :func:`compute_scoap` derives classic
   testability measures once per netlist — CC0/CC1 controllability in
   topological order, CO observability in reverse — and the search uses
   them to pick the D-frontier gate closest to an observation point and
   to order backtrace pins (hardest-first when *all* inputs must reach a
   non-controlling value, easiest-first when any one suffices).  Fewer
   backtracks, not just faster ones.

3. **X-path pruning.**  Before burning backtracks on a branch, every
   D-frontier gate is checked for a path of composite-X nets to an
   observation point; when none survives, the branch is provably dead
   (values never un-define under further assignments) and the search
   backtracks immediately (``podem.xpath_prunes``).

The backtrace is a depth-first walk over the fanin with a
``(net, value)`` visited set, so it fails only when *no* unassigned
source is reachable through X nets.  The test suite keeps a textbook
full-resimulation PODEM as an oracle: verdicts (detected/untestable)
must agree with it exactly; patterns differ (different, typically
shorter, search paths) but every returned pattern must detect its
target under the fault simulator.

Telemetry (all prefixed ``podem.``): ``targets``, ``backtracks``,
``detected/untestable/aborted``, plus ``cone_evals`` (event-driven gate
re-evaluations), ``undo_restores`` (trail entries rolled back), and
``xpath_prunes``.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.netlist.compiled import CompiledNetlist
from repro.netlist.faults import StuckAt
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist
from repro.telemetry import TELEMETRY

X = 2  # unknown value in the 3-valued calculus

#: Non-controlling input value per gate type (module-level so the hot
#: D-frontier loop does not rebuild a dict per gate per decision).
#: Types without a controlling value (XOR and friends) default to 0.
_NONCONTROL = {
    GateType.AND: 1,
    GateType.NAND: 1,
    GateType.OR: 0,
    GateType.NOR: 0,
}


def _eval3(gtype: GateType, ins: List[int]) -> int:
    """Kleene 3-valued (0/1/X) evaluation of one gate."""
    if gtype is GateType.AND or gtype is GateType.NAND:
        out = 1
        for v in ins:
            if v == 0:
                out = 0
                break
            if v == X:
                out = X
        if gtype is GateType.NAND and out != X:
            out = 1 - out
        return out
    if gtype is GateType.OR or gtype is GateType.NOR:
        out = 0
        for v in ins:
            if v == 1:
                out = 1
                break
            if v == X:
                out = X
        if gtype is GateType.NOR and out != X:
            out = 1 - out
        return out
    if gtype is GateType.NOT:
        return X if ins[0] == X else 1 - ins[0]
    if gtype is GateType.BUF:
        return ins[0]
    if gtype is GateType.XOR or gtype is GateType.XNOR:
        out = 0
        for v in ins:
            if v == X:
                return X
            out ^= v
        if gtype is GateType.XNOR:
            out = 1 - out
        return out
    if gtype is GateType.MUX2:
        d0, d1, s = ins
        if s == 0:
            return d0
        if s == 1:
            return d1
        if d0 == d1 and d0 != X:
            return d0
        return X
    if gtype is GateType.CONST0:
        return 0
    if gtype is GateType.CONST1:
        return 1
    raise ValueError(f"unknown gate type {gtype}")


@dataclass
class PodemResult:
    """Outcome of one PODEM run."""

    status: str  # "detected" | "untestable" | "aborted"
    pattern: Optional[Dict[int, int]] = None  # source net -> 0/1 (X left out)
    backtracks: int = 0

    @property
    def detected(self) -> bool:
        """True when a detecting pattern was found."""
        return self.status == "detected"


#: "Uncontrollable/unobservable" sentinel for the SCOAP measures.
SCOAP_INF = 1 << 30


class Scoap:
    """SCOAP-style testability measures of one netlist.

    ``cc0[net]`` / ``cc1[net]`` estimate the effort to drive ``net`` to
    0/1 from the sources; ``co[net]`` the effort to propagate a value on
    ``net`` to an observation point.  Plain Python int lists — the
    measures are only compared, never stored per pattern.
    """

    __slots__ = ("cc0", "cc1", "co")

    def __init__(self, cc0: List[int], cc1: List[int], co: List[int]):
        self.cc0 = cc0
        self.cc1 = cc1
        self.co = co


def _scoap_controllability(
    gtype: GateType, ins: Tuple[int, ...], cc0: List[int], cc1: List[int]
) -> Tuple[int, int]:
    """(CC0, CC1) of a gate output from its input controllabilities."""
    if gtype is GateType.CONST0:
        return 0, SCOAP_INF
    if gtype is GateType.CONST1:
        return SCOAP_INF, 0
    if gtype is GateType.BUF:
        return cc0[ins[0]] + 1, cc1[ins[0]] + 1
    if gtype is GateType.NOT:
        return cc1[ins[0]] + 1, cc0[ins[0]] + 1
    if gtype is GateType.AND:
        return min(cc0[i] for i in ins) + 1, sum(cc1[i] for i in ins) + 1
    if gtype is GateType.NAND:
        return sum(cc1[i] for i in ins) + 1, min(cc0[i] for i in ins) + 1
    if gtype is GateType.OR:
        return sum(cc0[i] for i in ins) + 1, min(cc1[i] for i in ins) + 1
    if gtype is GateType.NOR:
        return min(cc1[i] for i in ins) + 1, sum(cc0[i] for i in ins) + 1
    if gtype is GateType.XOR or gtype is GateType.XNOR:
        # Fold pairwise: cheapest even-parity / odd-parity assignment.
        even, odd = cc0[ins[0]], cc1[ins[0]]
        for i in ins[1:]:
            even, odd = (
                min(even + cc0[i], odd + cc1[i]),
                min(odd + cc0[i], even + cc1[i]),
            )
        if gtype is GateType.XNOR:
            even, odd = odd, even
        return even + 1, odd + 1
    if gtype is GateType.MUX2:
        d0, d1, s = ins
        return (
            min(cc0[s] + cc0[d0], cc1[s] + cc0[d1]) + 1,
            min(cc0[s] + cc1[d0], cc1[s] + cc1[d1]) + 1,
        )
    raise ValueError(f"unknown gate type {gtype}")


def _scoap_side_cost(
    gtype: GateType,
    ins: Tuple[int, ...],
    pin: int,
    cc0: List[int],
    cc1: List[int],
) -> int:
    """Cost of setting a gate's *other* inputs so ``pin`` is observed."""
    if gtype in (GateType.BUF, GateType.NOT):
        return 0
    if gtype in (GateType.AND, GateType.NAND):
        return sum(cc1[n] for p, n in enumerate(ins) if p != pin)
    if gtype in (GateType.OR, GateType.NOR):
        return sum(cc0[n] for p, n in enumerate(ins) if p != pin)
    if gtype in (GateType.XOR, GateType.XNOR):
        return sum(
            min(cc0[n], cc1[n]) for p, n in enumerate(ins) if p != pin
        )
    if gtype is GateType.MUX2:
        d0, d1, s = ins
        if pin == 0:
            return cc0[s]
        if pin == 1:
            return cc1[s]
        # Select pin: observable when the data inputs differ.
        return min(cc0[d0] + cc1[d1], cc1[d0] + cc0[d1])
    return 0


def compute_scoap(compiled: CompiledNetlist) -> Scoap:
    """Compute SCOAP measures for ``compiled`` (once per netlist).

    Controllability runs in topological order from the sources (CC = 1),
    observability in reverse from the observation points (CO = 0); a
    multi-fanout net's CO is the minimum over its reader pins.  Values
    saturate at :data:`SCOAP_INF` for unreachable goals (e.g. CC1 of a
    constant-0 net).  The measures guide the compiled PODEM's heuristics
    only — correctness never depends on them.
    """
    n = compiled.n_nets
    cc0 = [SCOAP_INF] * n
    cc1 = [SCOAP_INF] * n
    for net in compiled.source_nets:
        cc0[net] = 1
        cc1[net] = 1
    topo = compiled.netlist.topo_gate_order()
    tuples = compiled.gate_tuples
    for gid in topo:
        gtype, ins, out = tuples[gid]
        c0, c1 = _scoap_controllability(gtype, ins, cc0, cc1)
        cc0[out] = min(c0, SCOAP_INF)
        cc1[out] = min(c1, SCOAP_INF)
    co = [SCOAP_INF] * n
    for net in compiled.obs_nets:
        co[net] = 0
    for gid in reversed(topo):
        gtype, ins, out = tuples[gid]
        base = co[out]
        if base >= SCOAP_INF:
            continue
        for pin, net in enumerate(ins):
            cost = base + 1 + _scoap_side_cost(gtype, ins, pin, cc0, cc1)
            if cost < co[net]:
                co[net] = cost
    return Scoap(cc0, cc1, co)


class CompiledPodem:
    """PODEM test generator on the compiled (SoA) netlist form.

    ``generate(fault)`` returns a :class:`PodemResult`.  Pass a prebuilt
    ``compiled`` netlist (e.g. the fault simulator's) to share
    levelization and SCOAP precomputation with the grading engine.
    """

    def __init__(
        self,
        netlist: Netlist,
        backtrack_limit: int = 64,
        compiled: Optional[CompiledNetlist] = None,
    ) -> None:
        self.nl = netlist
        self.c = compiled if compiled is not None else CompiledNetlist(
            netlist
        )
        self.backtrack_limit = backtrack_limit
        self._topo = netlist.topo_gate_order()
        self._sources: Set[int] = set(self.c.source_nets)
        self._obs: Set[int] = self.c.obs_nets
        self.scoap = compute_scoap(self.c)
        n = self.c.n_nets
        self.good = np.full(n, X, dtype=np.int8)
        self.faulty = np.full(n, X, dtype=np.int8)
        self._trail: List[Tuple[int, int, int]] = []
        self._d_nets: Set[int] = set()
        # Per-generate() instrumentation (flushed to TELEMETRY).
        self._cone_evals = 0
        self._undo_restores = 0
        self._xpath_prunes = 0
        # Per-fault site registers (set by _reset).
        self._stem = -1
        self._fgate = -1
        self._fpin = 0
        self._fval = 0

    # ------------------------------------------------------------------
    def generate(self, fault: StuckAt) -> PodemResult:
        """Find a source assignment detecting ``fault``, or prove none."""
        self._cone_evals = 0
        self._undo_restores = 0
        self._xpath_prunes = 0
        result = self._generate(fault)
        t = TELEMETRY
        if t.enabled:
            t.count("podem.targets")
            t.count("podem.backtracks", result.backtracks)
            t.count(f"podem.{result.status}")
            t.count("podem.cone_evals", self._cone_evals)
            t.count("podem.undo_restores", self._undo_restores)
            t.count("podem.xpath_prunes", self._xpath_prunes)
        return result

    def _generate(self, fault: StuckAt) -> PodemResult:
        self._reset(fault)
        assign: Dict[int, int] = {}
        # decision entries: [source net, value, tried_other_branch, mark]
        decisions: List[List[int]] = []
        backtracks = 0
        while True:
            if self._detected(fault):
                return PodemResult(
                    status="detected",
                    pattern=dict(assign),
                    backtracks=backtracks,
                )
            obj = self._objective(fault)
            if obj is not None:
                src, val = self._backtrace(obj[0], obj[1])
                if src is not None:
                    mark = self._assign(src, val)
                    decisions.append([src, val, 0, mark])
                    assign[src] = val
                    continue
                # Backtrace found no reachable unassigned source: failed
                # branch; fall through to backtracking.
            # Backtrack: roll the trail back to before the last decision,
            # then either flip it or pop it for good.
            while decisions:
                top = decisions[-1]
                self._undo(top[3])
                if not top[2]:
                    top[2] = 1
                    top[1] = 1 - top[1]
                    backtracks += 1
                    top[3] = self._assign(top[0], top[1])
                    assign[top[0]] = top[1]
                    break
                decisions.pop()
                del assign[top[0]]
            else:
                return PodemResult(status="untestable", backtracks=backtracks)
            if backtracks > self.backtrack_limit:
                return PodemResult(status="aborted", backtracks=backtracks)

    # ------------------------------------------------------------------
    # State management: reset, event-driven implication, undo trail
    # ------------------------------------------------------------------
    def _reset(self, fault: StuckAt) -> None:
        """Full 3-valued pass under the all-X assignment (base state).

        Constants (and the fault's stuck value) propagate here once; all
        later refinement is event-driven from assigned sources.  The base
        state is trail-free — undo never rolls past it.
        """
        good = self.good
        faulty = self.faulty
        good.fill(X)
        faulty.fill(X)
        self._trail.clear()
        d_nets = self._d_nets
        d_nets.clear()
        stem = fault.net if fault.is_stem else -1
        self._stem = stem
        self._fgate = fault.gate if fault.gate is not None else -1
        self._fpin = fault.pin if fault.pin is not None else 0
        self._fval = fault.value
        if stem >= 0:
            faulty[stem] = fault.value
        fgate, fpin, fval = self._fgate, self._fpin, self._fval
        for gid in self._topo:
            gtype, ins, out = self.c.gate_tuples[gid]
            g = _eval3(gtype, [good[i] for i in ins])
            fins = [faulty[i] for i in ins]
            if gid == fgate:
                fins[fpin] = fval
            f = _eval3(gtype, fins)
            if out == stem:
                f = fval
            good[out] = g
            faulty[out] = f
            if g != X and f != X and g != f:
                d_nets.add(out)

    def _set(self, net: int, g: int, f: int) -> None:
        """Write one net's (good, faulty) pair, trail-recorded."""
        self._trail.append(
            (net, int(self.good[net]), int(self.faulty[net]))
        )
        self.good[net] = g
        self.faulty[net] = f
        if g != X and f != X and g != f:
            self._d_nets.add(net)
        else:
            self._d_nets.discard(net)

    def _assign(self, src: int, val: int) -> int:
        """Assign a source and propagate its fanout cone; returns the
        trail mark to undo to."""
        mark = len(self._trail)
        fval = self._fval
        self._set(src, val, fval if src == self._stem else val)
        good = self.good
        faulty = self.faulty
        c = self.c
        readers = c.readers
        pos = c.topo_pos
        tuples = c.gate_tuples
        stem, fgate, fpin = self._stem, self._fgate, self._fpin
        heap: List[Tuple[int, int]] = []
        queued: Set[int] = set()
        for gid in readers[src]:
            queued.add(gid)
            heappush(heap, (pos[gid], gid))
        evals = 0
        while heap:
            _, gid = heappop(heap)
            gtype, ins, out = tuples[gid]
            g = _eval3(gtype, [good[i] for i in ins])
            fins = [faulty[i] for i in ins]
            if gid == fgate:
                fins[fpin] = fval
            f = _eval3(gtype, fins)
            if out == stem:
                f = fval
            evals += 1
            if g != good[out] or f != faulty[out]:
                self._set(out, g, f)
                for r in readers[out]:
                    if r not in queued:
                        queued.add(r)
                        heappush(heap, (pos[r], r))
        self._cone_evals += evals
        return mark

    def _undo(self, mark: int) -> None:
        """Restore the trail back to ``mark`` (O(touched nets))."""
        trail = self._trail
        good = self.good
        faulty = self.faulty
        d_nets = self._d_nets
        self._undo_restores += len(trail) - mark
        while len(trail) > mark:
            net, g, f = trail.pop()
            good[net] = g
            faulty[net] = f
            if g != X and f != X and g != f:
                d_nets.add(net)
            else:
                d_nets.discard(net)

    # ------------------------------------------------------------------
    # Search ingredients: detection, objective, X-path, backtrace
    # ------------------------------------------------------------------
    def _detected(self, fault: StuckAt) -> bool:
        if fault.flop is not None:
            g = self.good[self.nl.flops[fault.flop].d_net]
            return g != X and g != fault.value
        return not self._d_nets.isdisjoint(self._obs)

    def _objective(self, fault: StuckAt) -> Optional[Tuple[int, int]]:
        """Next (net, value) goal, or None when the branch is dead."""
        good = self.good
        faulty = self.faulty
        if fault.flop is not None:
            net = self.nl.flops[fault.flop].d_net
            if good[net] == X:
                return (net, 1 - fault.value)
            return None  # value set but not opposite: dead branch
        site_good = good[fault.net]
        if site_good == X:
            return (fault.net, 1 - fault.value)
        if site_good == fault.value:
            return None  # cannot activate under current assignment
        # D-frontier from the live D nets (plus the faulted pin, whose D
        # never appears on a net).
        tuples = self.c.gate_tuples
        readers = self.c.readers
        frontier: Set[int] = set()
        for net in self._d_nets:
            for gid in readers[net]:
                out = tuples[gid][2]
                if good[out] == X or faulty[out] == X:
                    frontier.add(gid)
        if self._fgate >= 0:
            out = tuples[self._fgate][2]
            if good[out] == X or faulty[out] == X:
                frontier.add(self._fgate)
        if not frontier:
            return None  # fault effect cannot reach an output
        # X-path check: drop frontier gates with no composite-X route to
        # an observation point; if none survives the branch is dead.
        dead: Set[int] = set()
        co = self.scoap.co
        pos = self.c.topo_pos
        alive = [
            gid for gid in frontier if self._xpath(tuples[gid][2], dead)
        ]
        if not alive:
            self._xpath_prunes += 1
            return None
        # Try the frontier gates nearest an observation point first; a
        # gate whose good-side inputs are all defined (composite-X only
        # through the faulty side) offers no pin — fall through to the
        # next gate, like a textbook PODEM's frontier scan.
        alive.sort(key=lambda g: (co[tuples[g][2]], pos[g]))
        for gid in alive:
            gtype, ins, _out = tuples[gid]
            if gtype is GateType.MUX2 and good[ins[2]] == X:
                # Select toward a data input carrying the D.
                d0g, d0f = good[ins[0]], faulty[ins[0]]
                want = 0 if (d0g != X and d0f != X and d0g != d0f) else 1
                return (ins[2], want)
            noncontrol = _NONCONTROL.get(gtype, 0)
            cc = self.scoap.cc1 if noncontrol == 1 else self.scoap.cc0
            pick = None
            pick_cost = -1
            for net in ins:
                if good[net] == X and cc[net] > pick_cost:
                    pick_cost = cc[net]
                    pick = net
            if pick is not None:
                return (pick, noncontrol)
        return None

    def _xpath(self, start: int, dead: Set[int]) -> bool:
        """True when ``start`` reaches an observation point through nets
        whose composite value is still undefined.

        Sound prune: 3-valued refinement is monotone, so a net with both
        good and faulty values defined can never later carry a D; a fault
        effect must travel through composite-X nets only.  ``dead``
        accumulates fully-explored failed regions within one objective
        call, so sibling frontier gates do not re-walk them.
        """
        if start in dead:
            return False
        good = self.good
        faulty = self.faulty
        obs = self._obs
        readers = self.c.readers
        tuples = self.c.gate_tuples
        seen = {start}
        stack = [start]
        while stack:
            net = stack.pop()
            if net in obs:
                return True
            for gid in readers[net]:
                out = tuples[gid][2]
                if out in seen or out in dead:
                    continue
                if good[out] != X and faulty[out] != X:
                    continue
                seen.add(out)
                stack.append(out)
        dead |= seen
        return False

    def _backtrace(
        self, net: int, value: int
    ) -> Tuple[Optional[int], int]:
        """Walk the objective back to an unassigned source.

        Depth-first over the fanin with a (net, value) visited set:
        SCOAP orders the pins tried at each gate (hardest-first when all
        inputs must take the value, easiest-first when any one suffices),
        and exhausted paths fall back to siblings, so the walk fails only
        when no unassigned source is reachable through X nets at all.
        """
        good = self.good
        sources = self._sources
        tuples = self.c.gate_tuples
        driver = self.c.driver_gid
        cc0 = self.scoap.cc0
        cc1 = self.scoap.cc1
        seen: Set[Tuple[int, int]] = set()
        stack: List[Tuple[int, int]] = [(net, value)]
        while stack:
            net, value = stack.pop()
            if (net, value) in seen:
                continue
            seen.add((net, value))
            if good[net] != X:
                continue  # already justified/blocked: nothing to decide
            if net in sources:
                return net, value
            gid = driver[net]
            if gid < 0:
                continue  # floating net: cannot control
            gtype, ins, _out = tuples[gid]
            if gtype in (GateType.CONST0, GateType.CONST1):
                continue
            if gtype is GateType.MUX2:
                sel = good[ins[2]]
                if sel == X:
                    stack.append((ins[2], 0))
                else:
                    stack.append((ins[1] if sel == 1 else ins[0], value))
                continue
            if gtype is GateType.NOT:
                stack.append((ins[0], 1 - value))
                continue
            if gtype is GateType.BUF:
                stack.append((ins[0], value))
                continue
            if gtype in (GateType.XOR, GateType.XNOR):
                flip = 1 if gtype is GateType.XNOR else 0
                for pin, n2 in enumerate(ins):
                    if good[n2] != X:
                        continue
                    parity = 0
                    for other, n3 in enumerate(ins):
                        if other != pin and good[n3] != X:
                            parity ^= int(good[n3])
                    stack.append((n2, (value ^ parity) ^ flip))
                continue
            # AND / NAND / OR / NOR
            v = 1 - value if gtype in (GateType.NAND, GateType.NOR) else (
                value
            )
            if gtype in (GateType.AND, GateType.NAND):
                all_needed = v == 1
            else:
                all_needed = v == 0
            cc = cc1 if v == 1 else cc0
            xpins = [n2 for n2 in ins if good[n2] == X]
            # LIFO stack: push least-preferred first so the preferred pin
            # pops first.  All-needed goals try the hardest pin first
            # (fail fast); any-suffices goals try the easiest.
            xpins.sort(key=lambda n2: cc[n2], reverse=not all_needed)
            for n2 in xpins:
                stack.append((n2, v))
        return None, 0
