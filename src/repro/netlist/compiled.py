"""Compiled netlist and bit-parallel fault simulation on packed ints.

:class:`CompiledNetlist` flattens a :class:`~repro.netlist.netlist.Netlist`
into the flat per-gate lists the engine and the compiled PODEM walk:
``(type, inputs, output)`` tuples, reader lists, topological positions
and driver ids, plus (on first use) its fanout-free-region map.
:meth:`CompiledNetlist.extend` builds a patched copy from the base build
and the copy's :class:`~repro.netlist.delta.NetlistDelta`, and
:meth:`PackedWordSimulator.extend_values` re-simulates its good values
from the base values, starting at the delta's changed gates; the repair
oracle checks each candidate patch that way.

:class:`PackedWordSimulator` is the engine the ATPG/diagnosis stack runs
on.  Every net's values for a pattern set are one arbitrary-precision
Python int (bit p = pattern p), so one bitwise op evaluates a gate for
*all* patterns.  Good simulation evaluates every gate once in
topological order.  Fault grading is one batch pass,
:meth:`PackedWordSimulator.detections`, by critical path tracing
(Abramovici, Menon & Miller, DAC 1983): inside each fanout-free region a
backward pass over the packed ints gives every line the patterns on
which flipping it flips the region's root, and one forward flip
re-simulation per root gives the patterns on which the root is
observed; a fault's detection int is the AND of its activation, its
sensitization and its root's observability.  Single-fault re-simulation
(:meth:`PackedWordSimulator.faulty_values`, read by the scan tester) and
the root flips share one event-driven walk restricted to the changed
cone, with fault-effect death pruning.  All of it calls the same gate
evaluator, :func:`_eval_gate_int`.  Fault dropping happens one level up
(see :mod:`repro.atpg.faultsim` and the ATPG flow).  numpy appears only
where pattern and response matrices enter or leave the engine.

It is the only gate-level simulator in the program.  The test suite keeps
a dict-of-bool-arrays reference simulator and the per-fault cone-walk
detector as oracles; ``benchmarks/bench_faultsim.py --check`` asserts
they agree bit-for-bit, and ``benchmarks/perf`` measures this engine's
speed.
"""

from __future__ import annotations

import heapq
from functools import cached_property, reduce
from operator import and_, or_, xor
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.netlist.faults import StuckAt
from repro.netlist.delta import NetlistDelta
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist
from repro.telemetry import TELEMETRY

def _ints_to_bits(values: Sequence[int], n_patterns: int) -> np.ndarray:
    """Packed ints -> (P, len(values)) bool matrix, column j = values[j]."""
    k = (n_patterns + 7) // 8
    buf = b"".join(v.to_bytes(k, "little") for v in values)
    u8 = np.frombuffer(buf, dtype=np.uint8).reshape(len(values), k)
    bits = np.unpackbits(u8, axis=1, bitorder="little")
    return bits[:, :n_patterns].T.astype(bool)


class CompiledNetlist:
    """A :class:`Netlist` flattened into flat per-gate lists.

    Attributes:
        source_nets / source_col: source net ids (PIs then flop Qs) and
            net -> pattern column.
        po_cols / d_fids: observation maps net -> PO indices / flop fids.
        obs_nets: every net that is a PO or a flop D input.
        ffr_sink / ffr_root: the fanout-free-region map (built on first
            use; see :attr:`ffr_sink`).

    Cone-walk hooks (the surface the compiled PODEM and the event-driven
    faulty re-simulation share):

    - ``readers[net]``: gate ids reading ``net`` (fanout adjacency),
    - ``topo_pos[gid]``: position of gate ``gid`` in topological order
      (the heap key that makes an event-driven walk single-pass),
    - ``gate_tuples[gid]``: flat ``(gtype, inputs, output)`` triples,
    - ``driver_gid[net]``: gate driving ``net`` (-1 for sources/floating).
    """

    def __init__(self, netlist: Netlist) -> None:
        netlist.validate()
        self._map_ports(netlist)
        # (type, inputs, output) tuples are cheaper than Gate attribute
        # access in the per-gate inner loops.
        self.readers: List[List[int]] = [[] for _ in range(self.n_nets)]
        for g in netlist.gates:
            for src in set(g.inputs):
                self.readers[src].append(g.gid)
        self.topo_pos: List[int] = [0] * len(netlist.gates)
        for i, gid in enumerate(netlist.topo_gate_order()):
            self.topo_pos[gid] = i
        self.gate_tuples: List[Tuple[GateType, Tuple[int, ...], int]] = [
            (g.gtype, g.inputs, g.output) for g in netlist.gates
        ]
        self.driver_gid: List[int] = [-1] * self.n_nets
        for g in netlist.gates:
            self.driver_gid[g.output] = g.gid

    @cached_property
    def ffr_sink(self) -> Dict[int, Tuple[int, int]]:
        """Fanout-free-region lines: each non-root net -> its one reading
        ``(gate id, pin)``.

        A net is a non-root line when exactly one gate pin reads it and
        it is not an observation net.  Every other net (several reading
        pins, two pins of one gate, an observed net, no reader) is the
        root of a fanout-free region.  Built on first use.
        """
        first: Dict[int, Tuple[int, int]] = {}
        multi: Set[int] = set(self.obs_nets)
        for gid, (_, g_inputs, _) in enumerate(self.gate_tuples):
            for pin, net in enumerate(g_inputs):
                if net in first:
                    multi.add(net)
                else:
                    first[net] = (gid, pin)
        return {
            net: sink for net, sink in first.items() if net not in multi
        }

    @cached_property
    def ffr_root(self) -> List[int]:
        """Per net, the root of its fanout-free region (a root maps to
        itself).  Built on first use."""
        root = list(range(self.n_nets))
        sink = self.ffr_sink
        gate_tuples = self.gate_tuples
        # In reverse order an output line already has its root (its sink
        # gate comes later) when the gate's input lines take it over.
        for gid in reversed(self.netlist.topo_gate_order()):
            _, g_inputs, g_output = gate_tuples[gid]
            for net in g_inputs:
                if net in sink:
                    root[net] = root[g_output]
        return root

    def _map_ports(self, netlist: Netlist) -> None:
        """Set the netlist, net count, source and observation maps."""
        self.netlist = netlist
        self.n_nets = netlist.n_nets
        self.source_nets: List[int] = netlist.source_nets()
        self.source_col: Dict[int, int] = {
            net: i for i, net in enumerate(self.source_nets)
        }
        self.po_cols: Dict[int, List[int]] = {}
        for i, net in enumerate(netlist.primary_outputs):
            self.po_cols.setdefault(net, []).append(i)
        self.d_fids: Dict[int, List[int]] = {}
        for f in netlist.flops:
            self.d_fids.setdefault(f.d_net, []).append(f.fid)
        self.obs_nets: Set[int] = set(self.po_cols) | set(self.d_fids)

    @classmethod
    def extend(
        cls, base: "CompiledNetlist", delta: NetlistDelta
    ) -> "CompiledNetlist":
        """Build ``delta.netlist``, a patched copy of ``base.netlist``,
        from ``base``: the delta's reader lists, driver ids and positions
        plus the changed gates' tuples.  The base build is never
        written."""
        self = cls.__new__(cls)
        netlist = delta.netlist
        self._map_ports(netlist)
        self.readers = delta.readers
        self.driver_gid = delta.driver_gid
        self.topo_pos = delta.topo_pos
        tuples = self.gate_tuples = base.gate_tuples + [None] * (
            len(netlist.gates) - len(base.gate_tuples)
        )
        for gid in delta.changed:
            g = netlist.gates[gid]
            tuples[gid] = (g.gtype, g.inputs, g.output)
        return self


# ----------------------------------------------------------------------
# Gate evaluation on arbitrary-precision ints (bit p = pattern p)
# ----------------------------------------------------------------------
_AND, _OR, _XOR = GateType.AND, GateType.OR, GateType.XOR
_NAND, _NOR, _XNOR = GateType.NAND, GateType.NOR, GateType.XNOR
_NOT, _BUF, _MUX2 = GateType.NOT, GateType.BUF, GateType.MUX2
_CONST0, _CONST1 = GateType.CONST0, GateType.CONST1


def _eval_gate_int(gtype: GateType, ins: List[int], mask: int) -> int:
    """One gate over every pattern at once; inversion is ``mask ^ v``.

    Branches run in order of gate frequency in the generated models
    (AND, MUX2, OR, BUF are most of them), with the two-input case of
    AND/OR spelled out.
    """
    if gtype is _AND:
        return ins[0] & ins[1] if len(ins) == 2 else reduce(and_, ins)
    if gtype is _MUX2:
        sel = ins[2]
        return (ins[0] & (mask ^ sel)) | (ins[1] & sel)
    if gtype is _OR:
        return ins[0] | ins[1] if len(ins) == 2 else reduce(or_, ins)
    if gtype is _BUF:
        return ins[0]
    if gtype is _XNOR:
        return mask ^ reduce(xor, ins)
    if gtype is _NOT:
        return mask ^ ins[0]
    if gtype is _XOR:
        return reduce(xor, ins)
    if gtype is _CONST0:
        return 0
    if gtype is _CONST1:
        return mask
    if gtype is _NAND:
        return mask ^ reduce(and_, ins)
    if gtype is _NOR:
        return mask ^ reduce(or_, ins)
    raise ValueError(f"unknown gate type {gtype}")


class WordValues:
    """Net values of one pattern set as packed ints.

    ``ints[net]`` holds every pattern of ``net`` in one arbitrary-precision
    int (bit p = pattern p, no bits past ``npat``).  The values are never
    written once :meth:`PackedWordSimulator.good_values` returns them, so
    cone re-simulations of different faults share them.
    """

    __slots__ = ("ints", "npat", "mask")

    def __init__(self, ints: List[int], npat: int) -> None:
        self.ints = ints
        self.npat = npat
        self.mask = (1 << npat) - 1


class PackedWordSimulator:
    """Bit-parallel simulator on packed ints (bit p = pattern p).

    :meth:`good_values` simulates a pattern set into :class:`WordValues`;
    :meth:`detections` gives a whole fault list its packed detection
    ints in one critical-path-tracing pass (the fault grader and
    compaction read it); :meth:`faulty_values` returns one fault's
    sparse packed-int delta, :meth:`failing_observations` the
    observation points it reaches (the scan tester reads it), and
    :meth:`capture` unpacks (PO, captured-state) matrices.
    """

    def __init__(
        self, netlist: Netlist, compiled: Optional[CompiledNetlist] = None
    ) -> None:
        self.netlist = netlist
        self.compiled = (
            compiled if compiled is not None else CompiledNetlist(netlist)
        )
        self.source_nets = self.compiled.source_nets
        self.source_col = self.compiled.source_col

    @property
    def n_sources(self) -> int:
        """Number of pattern columns (primary inputs + flop state bits)."""
        return len(self.source_nets)

    # ------------------------------------------------------------------
    # Good-circuit simulation
    # ------------------------------------------------------------------
    def good_values(self, patterns: np.ndarray) -> WordValues:
        """Evaluate all nets for a (P, n_sources) bool pattern matrix."""
        patterns = np.asarray(patterns, dtype=bool)
        if patterns.ndim != 2 or patterns.shape[1] != self.n_sources:
            raise ValueError(
                f"patterns must be (P, {self.n_sources}), "
                f"got {patterns.shape}"
            )
        c = self.compiled
        npat = patterns.shape[0]
        ints = [0] * c.n_nets
        packed = np.packbits(patterns.T, axis=1, bitorder="little")
        for net, row in zip(c.source_nets, packed):
            ints[net] = int.from_bytes(row.tobytes(), "little")
        values = WordValues(ints, npat)
        mask = values.mask
        gate_tuples = c.gate_tuples
        for gid in c.netlist.topo_gate_order():
            gtype, g_inputs, g_output = gate_tuples[gid]
            ints[g_output] = _eval_gate_int(
                gtype, [ints[i] for i in g_inputs], mask
            )
        t = TELEMETRY
        if t.enabled:
            t.count("engine.good_sim.calls")
            t.count("engine.good_sim.patterns", npat)
        return values

    def extend_values(
        self,
        base: WordValues,
        patterns: np.ndarray,
        changed: Sequence[int],
    ) -> WordValues:
        """Good values of a patched netlist from its base's values.

        ``base`` holds the values of the netlist this one extends (see
        :meth:`CompiledNetlist.extend`) under the first columns of
        ``patterns``; ``changed`` is its delta's
        :attr:`~repro.netlist.delta.NetlistDelta.changed`.
        New source nets take their pattern columns, and only the changed
        gates and the gates downstream of a changed net are evaluated.
        Equal to :meth:`good_values` on ``patterns``; ``base`` is not
        written.
        """
        c = self.compiled
        n_old = len(base.ints)
        ints = base.ints + [0] * (c.n_nets - n_old)
        new_sources = [net for net in c.source_nets if net >= n_old]
        if new_sources:
            cols = [c.source_col[net] for net in new_sources]
            packed = np.packbits(
                np.asarray(patterns, dtype=bool)[:, cols].T,
                axis=1, bitorder="little",
            )
            for net, row in zip(new_sources, packed):
                ints[net] = int.from_bytes(row.tobytes(), "little")
        mask = base.mask
        readers = c.readers
        pos = c.topo_pos
        gate_tuples = c.gate_tuples
        heap = [(pos[gid], gid) for gid in changed]
        heapq.heapify(heap)
        queued: Set[int] = set(changed)
        while heap:
            _, gid = heapq.heappop(heap)
            gtype, g_inputs, g_output = gate_tuples[gid]
            out = _eval_gate_int(gtype, [ints[i] for i in g_inputs], mask)
            if out != ints[g_output]:
                ints[g_output] = out
                for r in readers[g_output]:
                    if r not in queued:
                        queued.add(r)
                        heapq.heappush(heap, (pos[r], r))
        return WordValues(ints, base.npat)

    # ------------------------------------------------------------------
    # Faulty re-simulation (cone-restricted, effect-death pruned)
    # ------------------------------------------------------------------
    def _propagate(
        self,
        good: WordValues,
        delta: Dict[int, int],
        seeds: Sequence[int],
        pin_gate: Optional[int] = None,
        pin: int = 0,
        const: int = 0,
    ) -> int:
        """Event-driven walk from the ``seeds`` gates over ``delta``.

        ``delta`` holds the nets already forced away from ``good``; the
        walk adds every net that comes to differ.  A heap ordered by
        topological position holds exactly the gates with a changed
        input, so each is evaluated once and the walk ends as soon as no
        net still differs.  Gate ``pin_gate`` sees ``const`` on input
        ``pin`` (a branch fault).  Returns the number of gates evaluated.
        """
        c = self.compiled
        mask = good.mask
        ints = good.ints
        readers = c.readers
        pos = c.topo_pos
        gate_tuples = c.gate_tuples
        heap = [(pos[gid], gid) for gid in seeds]
        heapq.heapify(heap)
        queued: Set[int] = set(seeds)
        while heap:
            _, gid = heapq.heappop(heap)
            gtype, g_inputs, g_output = gate_tuples[gid]
            ins = [
                delta[i] if i in delta else ints[i] for i in g_inputs
            ]
            if gid == pin_gate:
                ins[pin] = const
            out = _eval_gate_int(gtype, ins, mask)
            if out != ints[g_output]:
                delta[g_output] = out
                for r in readers[g_output]:
                    if r not in queued:
                        queued.add(r)
                        heapq.heappush(heap, (pos[r], r))
        # Every queued gate was popped exactly once (the queued set is
        # never drained), so len(queued) is the re-evaluation count.
        return len(queued)

    def faulty_values(
        self, good: WordValues, fault: StuckAt
    ) -> Dict[int, int]:
        """Nets whose value changes under ``fault``, as packed ints.

        Only *differing* nets appear; a missing net equals the good value.
        Propagation is the event-driven cone walk of :meth:`_propagate`,
        so dead fault effects cost nothing.
        """
        if fault.flop is not None:
            # Flop D-pin fault affects only the capture, not the logic.
            return {}
        const = good.mask if fault.value else 0
        delta: Dict[int, int] = {}
        t = TELEMETRY
        if fault.is_stem:
            if const == good.ints[fault.net]:
                if t.enabled:
                    t.count("engine.resim.calls")
                    t.count("engine.resim.dead")
                return delta  # stuck value equals good everywhere
            delta[fault.net] = const
            evals = self._propagate(
                good, delta, self.compiled.readers[fault.net]
            )
        else:
            # Branch fault: only the faulted gate sees the stuck pin.
            evals = self._propagate(
                good, delta, (fault.gate,), fault.gate, fault.pin, const
            )
        if t.enabled:
            t.count("engine.resim.calls")
            t.count("engine.resim.gate_evals", evals)
            if delta:
                t.observe("engine.resim.cone_nets", len(delta))
            else:
                t.count("engine.resim.dead")
        return delta

    # ------------------------------------------------------------------
    # Batch detection (critical path tracing)
    # ------------------------------------------------------------------
    def detections(
        self, values: WordValues, faults: Sequence[StuckAt]
    ) -> List[int]:
        """Each fault's packed mismatch int: bit p is set when pattern p
        makes any observation point differ under the fault.

        Critical path tracing over fanout-free regions (see
        :attr:`CompiledNetlist.ffr_sink`).  A fault inside a region
        changes no net outside it but the root, and the root only on the
        patterns where the fault is activated and sensitized to it, so
        its int is ``activation & sensitization & observability(root)``:

        - sensitization: a memoised backward pass, ``sens[line] =
          sens[out] & (eval(sink gate, line flipped) ^ good[out])`` with
          ``sens[root]`` all ones;
        - observability: one forward flip re-simulation per root that
          some fault still needs, over only the patterns it needs;
        - activation: ``good ^ stuck`` on a stem, ``eval(gate, pin :=
          stuck) ^ good[out]`` on a gate-pin branch; a flop D-pin fault
          is ``good[d] ^ stuck`` with nothing to trace.

        Exact per pattern, equal to each fault's own cone walk.
        """
        c = self.compiled
        ints = values.ints
        mask = values.mask
        gate_tuples = c.gate_tuples
        sink = c.ffr_sink
        root_of = c.ffr_root
        flops = self.netlist.flops
        sens: Dict[int, int] = {}
        n_evals = 0

        def sensitization(line: int) -> int:
            nonlocal n_evals
            path = []
            net = line
            while net not in sens:
                if net not in sink:
                    sens[net] = mask
                    break
                path.append(net)
                net = gate_tuples[sink[net][0]][2]
            for net in reversed(path):
                gid, pin = sink[net]
                gtype, g_inputs, g_output = gate_tuples[gid]
                s_out = sens[g_output]
                if s_out:
                    ins = [ints[i] for i in g_inputs]
                    ins[pin] ^= mask
                    s_out &= _eval_gate_int(gtype, ins, mask) ^ ints[g_output]
                    n_evals += 1
                sens[net] = s_out
            return sens[line]

        # Pass 1: activation & sensitization, and per root the patterns
        # some fault needs observed.
        result = [0] * len(faults)
        traced: List[Tuple[int, int, int]] = []
        need: Dict[int, int] = {}
        for k, fault in enumerate(faults):
            const = mask if fault.value else 0
            if fault.flop is not None:
                result[k] = ints[flops[fault.flop].d_net] ^ const
                continue
            if fault.is_stem:
                line = fault.net
                act = ints[line] ^ const
            else:
                gtype, g_inputs, line = gate_tuples[fault.gate]
                ins = [ints[i] for i in g_inputs]
                ins[fault.pin] = const
                act = _eval_gate_int(gtype, ins, mask) ^ ints[line]
                n_evals += 1
            if act:
                act &= sensitization(line)
            if act:
                root = root_of[line]
                need[root] = need.get(root, 0) | act
                traced.append((k, root, act))

        # Pass 2: one flip re-simulation per needed root.
        obs_nets = c.obs_nets
        readers = c.readers
        observed: Dict[int, int] = {}
        n_flips = 0
        for root, bits in need.items():
            if root in obs_nets:
                observed[root] = bits
                continue
            delta = {root: ints[root] ^ bits}
            n_evals += self._propagate(values, delta, readers[root])
            n_flips += 1
            seen = 0
            for net, value in delta.items():
                if net in obs_nets:
                    seen |= value ^ ints[net]
            observed[root] = seen
        for k, root, act in traced:
            result[k] = act & observed[root]
        t = TELEMETRY
        if t.enabled:
            t.count("engine.resim.calls", n_flips)
            t.count("engine.resim.gate_evals", n_evals)
            t.count("engine.ffr.roots", len(need))
            t.count("engine.ffr.faults", len(traced))
        return result

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def capture(
        self,
        values: WordValues,
        fault: Optional[StuckAt] = None,
        delta: Optional[Dict[int, int]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Extract (PO matrix, captured-state matrix) as bool arrays.

        ``delta`` (from :meth:`faulty_values`) overlays faulty-cone values;
        a flop D-pin ``fault`` forces its captured column.
        """
        ints, nl = values.ints, self.netlist
        if delta:
            ints = list(ints)
            for net, value in delta.items():
                ints[net] = value
        state_ints = [ints[f.d_net] for f in nl.flops]
        if fault is not None and fault.flop is not None:
            state_ints[fault.flop] = values.mask if fault.value else 0
        po_ints = [ints[net] for net in nl.primary_outputs]
        return (
            _ints_to_bits(po_ints, values.npat),
            _ints_to_bits(state_ints, values.npat),
        )

    def failing_observations(
        self, values: WordValues, fault: StuckAt
    ) -> Tuple[Set[int], Set[int]]:
        """(flop fids, PO indices) that mismatch on any pattern."""
        fids: Set[int] = set()
        pos: Set[int] = set()
        if fault.flop is not None:
            d_net = self.netlist.flops[fault.flop].d_net
            if values.ints[d_net] ^ (values.mask if fault.value else 0):
                fids.add(fault.flop)
            return fids, pos
        c = self.compiled
        for net, value in self.faulty_values(values, fault).items():
            if net not in c.obs_nets:
                continue
            fids.update(c.d_fids.get(net, ()))
            pos.update(c.po_cols.get(net, ()))
        return fids, pos
