"""Compiled netlist and bit-packed (64 patterns/word) fault simulation.

:class:`CompiledNetlist` flattens a :class:`~repro.netlist.netlist.Netlist`
into numpy structure-of-arrays form: gates are grouped into topological
*levels* and, within each level, into buckets of identical (gate type,
fan-in) shape whose input/output net ids live in flat integer arrays.  A
whole bucket then evaluates as a handful of vectorized bitwise ops instead
of one Python dict round-trip per gate.

:class:`PackedWordSimulator` is the engine the ATPG/diagnosis stack runs
on: it holds every net's values for a pattern set in a single
``(n_nets, n_words)`` uint64 matrix with **64 bit-packed patterns per
machine word** — classic parallel-pattern single-fault propagation, the
technique production fault simulators use.  Faulty re-simulation is
restricted to the fault's fanout cone and works on arbitrary-precision
Python ints (one bitwise op covers *all* patterns), with fault-effect
death pruning: the cone walk stops as soon as no net still differs from
the good circuit.  Fault dropping happens one level up — a fault leaves
the active list at its first detection (see :mod:`repro.atpg.faultsim`
and the ATPG flow), so later patterns never pay for it again.

It is the only gate-level simulator in the program.  The test suite keeps
a dict-of-bool-arrays reference simulator as an oracle;
``benchmarks/bench_faultsim.py`` measures both and asserts they agree
bit-for-bit.
"""

from __future__ import annotations

import heapq
import sys
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.netlist.faults import StuckAt
from repro.netlist.gates import Gate, GateType
from repro.netlist.netlist import Netlist
from repro.telemetry import TELEMETRY

WORD_BITS = 64

_LITTLE = sys.byteorder == "little"


# ----------------------------------------------------------------------
# Bit packing helpers (pattern axis -> uint64 words, LSB = pattern 0)
# ----------------------------------------------------------------------
def n_words_for(n_patterns: int) -> int:
    """Words needed to hold ``n_patterns`` bits (at least one)."""
    return max(1, (n_patterns + WORD_BITS - 1) // WORD_BITS)


def pack_patterns(patterns: np.ndarray) -> np.ndarray:
    """Pack a (P, n_cols) bool matrix to (n_cols, n_words) uint64.

    Bit ``p % 64`` of word ``p // 64`` holds pattern ``p``; padding bits
    beyond P are zero.
    """
    npat, n_cols = patterns.shape
    n_words = n_words_for(npat)
    padded = np.zeros((n_words * WORD_BITS, n_cols), dtype=bool)
    padded[:npat] = patterns
    u8 = np.packbits(padded, axis=0, bitorder="little")  # (n_words*8, n_cols)
    words = np.ascontiguousarray(u8.T).view(np.uint64)  # (n_cols, n_words)
    if not _LITTLE:  # pragma: no cover - big-endian hosts only
        words = words.byteswap()
    return words


def unpack_words(words: np.ndarray, n_patterns: int) -> np.ndarray:
    """Unpack (n_rows, n_words) uint64 back to a (P, n_rows) bool matrix."""
    w = words if _LITTLE else words.byteswap()  # pragma: no branch
    u8 = np.ascontiguousarray(w).view(np.uint8)
    bits = np.unpackbits(u8, axis=1, bitorder="little")
    return bits[:, :n_patterns].T.astype(bool)


def _words_to_int(row: np.ndarray) -> int:
    """One net's word row -> arbitrary-precision int (bit p = pattern p)."""
    if _LITTLE:
        return int.from_bytes(row.tobytes(), "little")
    return int.from_bytes(row[::-1].tobytes(), "big")  # pragma: no cover


def _int_to_bits(value: int, n_patterns: int, n_words: int) -> np.ndarray:
    """Arbitrary-precision int -> (P,) bool array (bit p = pattern p)."""
    buf = value.to_bytes(n_words * 8, "little")
    bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8),
                         bitorder="little")
    return bits[:n_patterns].astype(bool)


# ----------------------------------------------------------------------
# Structure-of-arrays netlist form
# ----------------------------------------------------------------------
class _Bucket:
    """All gates of one (level, type, fan-in) shape, as flat arrays."""

    __slots__ = ("gtype", "inputs", "outputs")

    def __init__(self, gtype: GateType, gates: List[Gate]) -> None:
        self.gtype = gtype
        arity = len(gates[0].inputs)
        self.inputs = np.array(
            [g.inputs for g in gates], dtype=np.int64
        ).reshape(len(gates), arity)
        self.outputs = np.array([g.output for g in gates], dtype=np.int64)


class CompiledNetlist:
    """A :class:`Netlist` flattened for whole-level vectorized evaluation.

    Attributes:
        levels: per topological level, the list of same-shape gate buckets.
        source_idx: source net ids (PIs then flop Qs) as an index array —
            row ``source_idx[c]`` of the value matrix is pattern column c.
        po_cols / d_fids: observation maps net -> PO indices / flop fids.
        obs_nets: every net that is a PO or a flop D input.

    Cone-walk / levelization hooks (the surface the compiled PODEM and
    the event-driven faulty re-simulation share):

    - ``readers[net]``: gate ids reading ``net`` (fanout adjacency),
    - ``topo_pos[gid]``: position of gate ``gid`` in topological order
      (the heap key that makes an event-driven walk single-pass),
    - ``gate_tuples[gid]``: flat ``(gtype, inputs, output)`` triples,
    - ``driver_gid[net]``: gate driving ``net`` (-1 for sources/floating),
    - ``level_of_net[net]``: topological level of ``net`` (0 = sources).
    """

    def __init__(self, netlist: Netlist) -> None:
        netlist.validate()
        self.netlist = netlist
        self.n_nets = netlist.n_nets
        self.source_nets: List[int] = netlist.source_nets()
        self.source_col: Dict[int, int] = {
            net: i for i, net in enumerate(self.source_nets)
        }
        self.source_idx = np.array(self.source_nets, dtype=np.int64)
        self.po_nets = np.array(netlist.primary_outputs, dtype=np.int64)
        self.flop_d_nets = np.array(
            [f.d_net for f in netlist.flops], dtype=np.int64
        )
        self.po_cols: Dict[int, List[int]] = {}
        for i, net in enumerate(netlist.primary_outputs):
            self.po_cols.setdefault(net, []).append(i)
        self.d_fids: Dict[int, List[int]] = {}
        for f in netlist.flops:
            self.d_fids.setdefault(f.d_net, []).append(f.fid)
        self.obs_nets: Set[int] = set(self.po_cols) | set(self.d_fids)
        self.levels, self.level_of_net = self._levelize(netlist)
        # Flat per-gate views for the event-driven faulty re-simulation:
        # reader lists (net -> gate ids), topo position per gate, and
        # (type, inputs, output) tuples (cheaper than Gate attribute
        # access in the per-fault inner loop).
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

    @staticmethod
    def _levelize(
        netlist: Netlist,
    ) -> Tuple[List[List[_Bucket]], List[int]]:
        """Group gates into levels, then (type, arity) buckets per level.

        Returns ``(levels, level_of_net)``; the per-net level array is
        kept on the compiled netlist as a levelization hook.
        """
        level_of_net = [0] * netlist.n_nets
        by_shape: Dict[Tuple[int, GateType, int], List[Gate]] = {}
        max_level = 0
        for gid in netlist.topo_gate_order():
            g = netlist.gates[gid]
            lvl = 1 + max(
                (level_of_net[i] for i in g.inputs), default=-1
            )
            level_of_net[g.output] = lvl
            max_level = max(max_level, lvl)
            by_shape.setdefault((lvl, g.gtype, len(g.inputs)), []).append(g)
        levels: List[List[_Bucket]] = [[] for _ in range(max_level + 1)]
        for (lvl, gtype, _arity), gates in sorted(
            by_shape.items(), key=lambda kv: (kv[0][0], kv[0][1].value,
                                              kv[0][2])
        ):
            levels[lvl].append(_Bucket(gtype, gates))
        return levels, level_of_net



# ----------------------------------------------------------------------
# Gate evaluation: whole buckets on the uint64 matrix
# ----------------------------------------------------------------------
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def _eval_bucket(bucket: _Bucket, matrix: np.ndarray) -> None:
    t = bucket.gtype
    if t is GateType.CONST0:
        matrix[bucket.outputs] = 0
        return
    if t is GateType.CONST1:
        matrix[bucket.outputs] = _ALL_ONES
        return
    idx = bucket.inputs
    v = matrix[idx[:, 0]]  # fancy indexing copies; safe to mutate
    if t is GateType.NOT:
        matrix[bucket.outputs] = ~v
        return
    if t is GateType.BUF:
        matrix[bucket.outputs] = v
        return
    if t is GateType.MUX2:
        sel = matrix[idx[:, 2]]
        matrix[bucket.outputs] = (v & ~sel) | (matrix[idx[:, 1]] & sel)
        return
    if t in (GateType.AND, GateType.NAND):
        for j in range(1, idx.shape[1]):
            v &= matrix[idx[:, j]]
    elif t in (GateType.OR, GateType.NOR):
        for j in range(1, idx.shape[1]):
            v |= matrix[idx[:, j]]
    else:  # XOR / XNOR
        for j in range(1, idx.shape[1]):
            v ^= matrix[idx[:, j]]
    if t in (GateType.NAND, GateType.NOR, GateType.XNOR):
        v = ~v
    matrix[bucket.outputs] = v


# ----------------------------------------------------------------------
# Gate evaluation: single gates on arbitrary-precision ints (cone resim)
# ----------------------------------------------------------------------
def _eval_gate_int(gtype: GateType, ins: List[int], mask: int) -> int:
    if gtype is GateType.AND or gtype is GateType.NAND:
        v = ins[0]
        for x in ins[1:]:
            v &= x
        return (mask ^ v) if gtype is GateType.NAND else v
    if gtype is GateType.OR or gtype is GateType.NOR:
        v = ins[0]
        for x in ins[1:]:
            v |= x
        return (mask ^ v) if gtype is GateType.NOR else v
    if gtype is GateType.XOR or gtype is GateType.XNOR:
        v = ins[0]
        for x in ins[1:]:
            v ^= x
        return (mask ^ v) if gtype is GateType.XNOR else v
    if gtype is GateType.NOT:
        return mask ^ ins[0]
    if gtype is GateType.BUF:
        return ins[0]
    if gtype is GateType.MUX2:
        return (ins[0] & (mask ^ ins[2])) | (ins[1] & ins[2])
    if gtype is GateType.CONST0:
        return 0
    if gtype is GateType.CONST1:
        return mask
    raise ValueError(f"unknown gate type {gtype}")


class WordValues:
    """Net values of one pattern set, bit-packed 64 patterns per word.

    ``matrix[net, w]`` holds patterns ``64w .. 64w+63`` of ``net``; padding
    bits past ``npat`` are unspecified (masked out wherever observed).
    The per-net arbitrary-precision int view is materialized lazily and
    cached — cone re-simulations of different faults share it.
    """

    __slots__ = ("matrix", "npat", "n_words", "mask", "_ints")

    def __init__(self, matrix: np.ndarray, npat: int) -> None:
        self.matrix = matrix
        self.npat = npat
        self.n_words = matrix.shape[1]
        self.mask = (1 << npat) - 1
        self._ints: Dict[int, int] = {}

    def int_of(self, net: int) -> int:
        """All patterns of ``net`` as one int (bit p = pattern p)."""
        v = self._ints.get(net)
        if v is None:
            v = _words_to_int(self.matrix[net]) & self.mask
            self._ints[net] = v
        return v


class PackedWordSimulator:
    """Levelized bit-packed simulator (64 patterns per uint64 word).

    :meth:`good_values` simulates a pattern set into :class:`WordValues`;
    :meth:`faulty_values` returns a fault's sparse packed-int delta and
    :meth:`capture` unpacks (PO, captured-state) matrices.  The detection
    fast paths (:meth:`first_detection`, :meth:`detection_vector`,
    :meth:`failing_observations`) let the fault grader and scan tester
    skip unpacking entirely.
    """

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self.compiled = CompiledNetlist(netlist)
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
        packed = pack_patterns(patterns)
        matrix = np.zeros((c.n_nets, packed.shape[1]), dtype=np.uint64)
        if c.source_idx.size:
            matrix[c.source_idx] = packed
        for level in c.levels:
            for bucket in level:
                _eval_bucket(bucket, matrix)
        t = TELEMETRY
        if t.enabled:
            t.count("engine.good_sim.calls")
            t.count("engine.good_sim.patterns", npat)
            t.count(
                "engine.good_sim.net_words",
                c.n_nets * int(packed.shape[1]),
            )
        return WordValues(matrix, npat)

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
        int_of = good.int_of
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
            if const == int_of(fault.net):
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
                delta[i] if i in delta else int_of(i) for i in g_inputs
            ]
            if gid == pin_gate:
                ins[pin] = const
            out = _eval_gate_int(gtype, ins, mask)
            if out != int_of(g_output):
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
        c = self.compiled
        npat, n_words = values.npat, values.n_words
        po = (
            unpack_words(values.matrix[c.po_nets], npat)
            if c.po_nets.size
            else np.zeros((npat, 0), dtype=bool)
        )
        state = (
            unpack_words(values.matrix[c.flop_d_nets], npat)
            if c.flop_d_nets.size
            else np.zeros((npat, 0), dtype=bool)
        )
        if delta:
            for net, value in delta.items():
                cols = c.po_cols.get(net)
                if cols:
                    bits = _int_to_bits(value, npat, n_words)
                    for col in cols:
                        po[:, col] = bits
                fids = c.d_fids.get(net)
                if fids:
                    bits = _int_to_bits(value, npat, n_words)
                    for fid in fids:
                        state[:, fid] = bits
        if fault is not None and fault.flop is not None:
            state[:, fault.flop] = bool(fault.value)
        return po, state

    def unpack_net(self, values: WordValues, net: int) -> np.ndarray:
        """One net's values as a (P,) bool array."""
        return unpack_words(values.matrix[net : net + 1], values.npat)[:, 0]

    # ------------------------------------------------------------------
    # Detection fast paths (no unpacking)
    # ------------------------------------------------------------------
    def _mismatch(self, values: WordValues, fault: StuckAt) -> int:
        """Packed int of patterns on which any observation point differs."""
        if fault.flop is not None:
            flop = self.netlist.flops[fault.flop]
            const = values.mask if fault.value else 0
            return values.int_of(flop.d_net) ^ const
        obs = self.compiled.obs_nets
        mismatch = 0
        for net, value in self.faulty_values(values, fault).items():
            if net in obs:
                mismatch |= value ^ values.int_of(net)
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
        return _int_to_bits(
            self._mismatch(values, fault), values.npat, values.n_words
        )

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
