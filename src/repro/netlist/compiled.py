"""Compiled netlist and bit-parallel fault simulation on packed ints.

:class:`CompiledNetlist` flattens a :class:`~repro.netlist.netlist.Netlist`
into the flat per-gate lists the engine and the compiled PODEM walk:
``(type, inputs, output)`` tuples, reader lists, topological positions
and driver ids.  :meth:`CompiledNetlist.extend` builds a patched copy
from the base build and the copy's
:class:`~repro.netlist.delta.NetlistDelta`, and
:meth:`PackedWordSimulator.extend_values` re-simulates its good values
from the base values, starting at the delta's changed gates; the repair
oracle checks each candidate patch that way.

:class:`PackedWordSimulator` is the engine the ATPG/diagnosis stack runs
on.  Every net's values for a pattern set are one arbitrary-precision
Python int (bit p = pattern p), so one bitwise op evaluates a gate for
*all* patterns — classic parallel-pattern single-fault propagation, the
technique production fault simulators use.  Good simulation evaluates
every gate once in topological order; faulty re-simulation is restricted
to the fault's fanout cone, with fault-effect death pruning: the cone
walk stops as soon as no net still differs from the good circuit.  Both
call the same gate evaluator, :func:`_eval_gate_int`.  Fault dropping
happens one level up — a fault leaves the active list at its first
detection (see :mod:`repro.atpg.faultsim` and the ATPG flow), so later
patterns never pay for it again.  numpy appears only where pattern and
response matrices enter or leave the engine.

It is the only gate-level simulator in the program.  The test suite keeps
a dict-of-bool-arrays reference simulator as an oracle;
``benchmarks/bench_faultsim.py --check`` asserts they agree bit-for-bit,
and ``benchmarks/perf`` measures this engine's speed.
"""

from __future__ import annotations

import heapq
from functools import reduce
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
    :meth:`faulty_values` returns a fault's sparse packed-int delta and
    :meth:`capture` unpacks (PO, captured-state) matrices.  The detection
    fast paths (:meth:`first_detection`, :meth:`detection_vector`,
    :meth:`failing_observations`) let the fault grader and scan tester
    skip unpacking entirely.
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
    def faulty_values(
        self, good: WordValues, fault: StuckAt
    ) -> Dict[int, int]:
        """Nets whose value changes under ``fault``, as packed ints.

        Only *differing* nets appear; a missing net equals the good value.
        Propagation is event-driven within the fault's fanout cone: a
        heap ordered by topological position holds exactly the gates with
        a changed input, so dead fault effects cost nothing — the walk
        ends the moment no net still differs from the good circuit.
        """
        if fault.flop is not None:
            # Flop D-pin fault affects only the capture, not the logic.
            return {}
        c = self.compiled
        mask = good.mask
        const = mask if fault.value else 0
        ints = good.ints
        delta: Dict[int, int] = {}
        readers = c.readers
        pos = c.topo_pos
        gate_tuples = c.gate_tuples
        heap: List[Tuple[int, int]] = []
        queued: Set[int] = set()

        def wake(net: int) -> None:
            for gid in readers[net]:
                if gid not in queued:
                    queued.add(gid)
                    heapq.heappush(heap, (pos[gid], gid))

        if fault.is_stem:
            if const == ints[fault.net]:
                if TELEMETRY.enabled:
                    TELEMETRY.count("engine.resim.calls")
                    TELEMETRY.count("engine.resim.dead")
                return delta  # stuck value equals good everywhere
            delta[fault.net] = const
            wake(fault.net)
        else:
            # Branch fault: only the faulted gate sees the stuck pin.
            queued.add(fault.gate)
            heapq.heappush(heap, (pos[fault.gate], fault.gate))
        pin_gate, pin = fault.gate, fault.pin
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
                wake(g_output)
        # Batched accounting: the walk itself stays untouched.  Every
        # queued gate was popped exactly once (the queued set is never
        # drained), so len(queued) is the event-driven re-eval count.
        t = TELEMETRY
        if t.enabled:
            t.count("engine.resim.calls")
            t.count("engine.resim.gate_evals", len(queued))
            if delta:
                t.observe("engine.resim.cone_nets", len(delta))
            else:
                t.count("engine.resim.dead")
        return delta

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

    # ------------------------------------------------------------------
    # Detection fast paths (no unpacking)
    # ------------------------------------------------------------------
    def _mismatch(self, values: WordValues, fault: StuckAt) -> int:
        """Packed int of patterns on which any observation point differs."""
        if fault.flop is not None:
            flop = self.netlist.flops[fault.flop]
            const = values.mask if fault.value else 0
            return values.ints[flop.d_net] ^ const
        obs = self.compiled.obs_nets
        mismatch = 0
        for net, value in self.faulty_values(values, fault).items():
            if net in obs:
                mismatch |= value ^ values.ints[net]
        return mismatch

    def first_detection(
        self, values: WordValues, fault: StuckAt
    ) -> Optional[int]:
        """Index of the first pattern detecting ``fault``, or None."""
        m = self._mismatch(values, fault)
        if not m:
            return None
        return (m & -m).bit_length() - 1

    def detection_vector(
        self, values: WordValues, fault: StuckAt
    ) -> np.ndarray:
        """(P,) bool: which patterns detect ``fault``."""
        m = self._mismatch(values, fault)
        return _ints_to_bits([m], values.npat)[:, 0]

    def failing_observations(
        self, values: WordValues, fault: StuckAt
    ) -> Tuple[Set[int], Set[int]]:
        """(flop fids, PO indices) that mismatch on any pattern."""
        fids: Set[int] = set()
        pos: Set[int] = set()
        if fault.flop is not None:
            if self._mismatch(values, fault):
                fids.add(fault.flop)
            return fids, pos
        c = self.compiled
        for net, value in self.faulty_values(values, fault).items():
            if net not in c.obs_nets:
                continue
            fids.update(c.d_fids.get(net, ()))
            pos.update(c.po_cols.get(net, ()))
        return fids, pos
