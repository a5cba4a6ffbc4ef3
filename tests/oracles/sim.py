"""Reference netlist simulators: scalar two-valued and dict-of-arrays packed.

Both evaluate the *combinational test model* of a full-scan design:
sources are primary inputs plus flop Q nets (state scanned in), sinks are
primary outputs plus flop D nets (state scanned out).  That is the
single-cycle scan test of the paper's Section 2: scan-in, one capture
cycle, scan-out.

Neither is used by the program.  The production engine is
:class:`repro.netlist.compiled.PackedWordSimulator`; these are the
oracles it is checked against:

- :class:`Simulator` evaluates one pattern at a time with plain ints
  (and runs multi-cycle functional sequences for the RTL tests);
- :class:`PackedSimulator` evaluates many patterns along a numpy bool
  axis, one dict entry per net, with cone-restricted faulty
  re-simulation;
- :func:`detection_matrix` / :func:`grade_faults` grade faults on a
  :class:`PackedSimulator` by comparing captured responses, the way the
  production grader must answer;
- :func:`fault_mismatch` is the production engine's per-fault path
  that batch critical path tracing replaced: one event-driven cone walk
  of :meth:`PackedWordSimulator.faulty_values` per fault, OR-ing the
  differences at the observation points.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.atpg.faultsim import FaultGrade
from repro.netlist.compiled import PackedWordSimulator, WordValues
from repro.netlist.faults import StuckAt
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist


def fanout_cone_gates(netlist: Netlist, net: int) -> List[int]:
    """Gate ids in the transitive combinational fanout of ``net``, in
    topological order."""
    affected_nets = {net}
    cone: List[int] = []
    for gid in netlist.topo_gate_order():
        g = netlist.gates[gid]
        if any(i in affected_nets for i in g.inputs):
            cone.append(gid)
            affected_nets.add(g.output)
    return cone


def _eval_gate_scalar(gtype: GateType, ins: Sequence[int]) -> int:
    if gtype is GateType.AND:
        return int(all(ins))
    if gtype is GateType.OR:
        return int(any(ins))
    if gtype is GateType.NAND:
        return int(not all(ins))
    if gtype is GateType.NOR:
        return int(not any(ins))
    if gtype is GateType.XOR:
        v = 0
        for x in ins:
            v ^= x
        return v
    if gtype is GateType.XNOR:
        v = 1
        for x in ins:
            v ^= x
        return v
    if gtype is GateType.NOT:
        return 1 - ins[0]
    if gtype is GateType.BUF:
        return ins[0]
    if gtype is GateType.MUX2:
        return ins[1] if ins[2] else ins[0]
    if gtype is GateType.CONST0:
        return 0
    if gtype is GateType.CONST1:
        return 1
    raise ValueError(f"unknown gate type {gtype}")


def _eval_gate_packed(gtype: GateType, ins: List[np.ndarray]) -> np.ndarray:
    if gtype is GateType.AND:
        v = ins[0]
        for x in ins[1:]:
            v = v & x
        return v
    if gtype is GateType.OR:
        v = ins[0]
        for x in ins[1:]:
            v = v | x
        return v
    if gtype is GateType.NAND:
        v = ins[0]
        for x in ins[1:]:
            v = v & x
        return ~v
    if gtype is GateType.NOR:
        v = ins[0]
        for x in ins[1:]:
            v = v | x
        return ~v
    if gtype is GateType.XOR:
        v = ins[0]
        for x in ins[1:]:
            v = v ^ x
        return v
    if gtype is GateType.XNOR:
        v = ins[0]
        for x in ins[1:]:
            v = v ^ x
        return ~v
    if gtype is GateType.NOT:
        return ~ins[0]
    if gtype is GateType.BUF:
        return ins[0]
    if gtype is GateType.MUX2:
        return np.where(ins[2], ins[1], ins[0])
    raise ValueError(f"unknown gate type {gtype}")


class Simulator:
    """Scalar (one pattern at a time) two-valued simulator."""

    def __init__(self, netlist: Netlist) -> None:
        netlist.validate()
        self.netlist = netlist
        self._order = netlist.topo_gate_order()

    def evaluate(
        self,
        pi_values: Dict[int, int],
        state: Optional[Dict[int, int]] = None,
        fault: Optional[StuckAt] = None,
    ) -> Tuple[Dict[int, int], Dict[int, int], Dict[int, int]]:
        """Evaluate one capture cycle.

        Args:
            pi_values: value per primary-input net id (missing PIs default 0).
            state: value per flop fid (missing flops default 0).
            fault: optional stuck-at override.

        Returns:
            (net value map, PO value map, next-state map by flop fid).
        """
        nl = self.netlist
        state = state or {}
        vals: Dict[int, int] = {}
        stem = fault if fault is not None and fault.is_stem else None

        def store(net: int, value: int) -> None:
            if stem is not None and net == stem.net:
                value = stem.value
            vals[net] = value

        for net in nl.primary_inputs:
            store(net, int(pi_values.get(net, 0)))
        for f in nl.flops:
            store(f.q_net, int(state.get(f.fid, 0)))
        for gid in self._order:
            g = nl.gates[gid]
            ins = [vals[i] for i in g.inputs]
            if (
                fault is not None
                and fault.gate == gid
                and fault.pin is not None
            ):
                ins[fault.pin] = fault.value
            store(g.output, _eval_gate_scalar(g.gtype, ins))
        po = {net: vals[net] for net in nl.primary_outputs}
        next_state: Dict[int, int] = {}
        for f in nl.flops:
            v = vals[f.d_net]
            if fault is not None and fault.flop == f.fid:
                v = fault.value
            next_state[f.fid] = v
        return vals, po, next_state

    def run_cycles(
        self,
        pi_sequence: Sequence[Dict[int, int]],
        state: Optional[Dict[int, int]] = None,
        fault: Optional[StuckAt] = None,
    ) -> Tuple[List[Dict[int, int]], Dict[int, int]]:
        """Run several functional clock cycles; returns (PO per cycle, state)."""
        state = dict(state or {})
        outputs: List[Dict[int, int]] = []
        for pi_values in pi_sequence:
            _, po, state = self.evaluate(pi_values, state, fault)
            outputs.append(po)
        return outputs, state


class PackedSimulator:
    """Parallel-pattern simulator: one numpy bool axis across patterns."""

    def __init__(self, netlist: Netlist) -> None:
        netlist.validate()
        self.netlist = netlist
        self._order = netlist.topo_gate_order()
        # Map source nets to their column in the packed input matrix.
        self.source_nets = netlist.source_nets()
        self.source_col = {net: i for i, net in enumerate(self.source_nets)}
        self._cone_cache: Dict[int, List[int]] = {}
        self._d_lookup: Optional[Dict[int, List[int]]] = None
        self._po_index: Optional[Dict[int, int]] = None

    @property
    def n_sources(self) -> int:
        """Number of pattern columns (primary inputs + flop state bits)."""
        return len(self.source_nets)

    @property
    def d_lookup(self) -> Dict[int, List[int]]:
        """Net -> flop fids capturing it, built once per simulator.

        Fault grading compares every changed cone net against the
        observation points; building this map per fault would cost
        O(faults x flops), so it is memoized here.
        """
        if self._d_lookup is None:
            lut: Dict[int, List[int]] = {}
            for f in self.netlist.flops:
                lut.setdefault(f.d_net, []).append(f.fid)
            self._d_lookup = lut
        return self._d_lookup

    @property
    def po_index(self) -> Dict[int, int]:
        """Net -> primary-output column, built once per simulator."""
        if self._po_index is None:
            self._po_index = {
                net: i
                for i, net in enumerate(self.netlist.primary_outputs)
            }
        return self._po_index

    def good_values(self, patterns: np.ndarray) -> Dict[int, np.ndarray]:
        """Evaluate all nets for a (P, n_sources) bool pattern matrix."""
        if patterns.ndim != 2 or patterns.shape[1] != self.n_sources:
            raise ValueError(
                f"patterns must be (P, {self.n_sources}), got {patterns.shape}"
            )
        nl = self.netlist
        vals: Dict[int, np.ndarray] = {}
        for net, col in self.source_col.items():
            vals[net] = patterns[:, col]
        npat = patterns.shape[0]
        for gid in self._order:
            g = nl.gates[gid]
            if g.gtype is GateType.CONST0:
                vals[g.output] = np.zeros(npat, dtype=bool)
                continue
            if g.gtype is GateType.CONST1:
                vals[g.output] = np.ones(npat, dtype=bool)
                continue
            ins = [vals[i] for i in g.inputs]
            vals[g.output] = _eval_gate_packed(g.gtype, ins)
        return vals

    def _cone(self, net: int) -> List[int]:
        cone = self._cone_cache.get(net)
        if cone is None:
            cone = fanout_cone_gates(self.netlist, net)
            self._cone_cache[net] = cone
        return cone

    def faulty_values(
        self,
        good: Dict[int, np.ndarray],
        fault: StuckAt,
    ) -> Dict[int, np.ndarray]:
        """Re-evaluate only the fault's fanout cone under ``fault``.

        Returns a sparse map net→faulty values for nets whose value may
        differ from ``good``; nets absent from the map equal the good value.
        """
        nl = self.netlist
        npat = next(iter(good.values())).shape[0] if good else 0
        delta: Dict[int, np.ndarray] = {}
        const = (
            np.ones(npat, dtype=bool)
            if fault.value
            else np.zeros(npat, dtype=bool)
        )
        if fault.is_stem:
            delta[fault.net] = const
            cone = self._cone(fault.net)
        elif fault.flop is not None:
            # Flop D-pin fault affects only the capture, not the logic.
            return {}
        else:
            cone = self._cone(fault.net)

        def val(net: int) -> np.ndarray:
            return delta.get(net, good[net])

        for gid in cone:
            g = nl.gates[gid]
            if g.gtype in (GateType.CONST0, GateType.CONST1):
                continue
            ins = [val(i) for i in g.inputs]
            if fault.gate == gid and fault.pin is not None:
                ins = list(ins)
                ins[fault.pin] = const
            delta[g.output] = _eval_gate_packed(g.gtype, ins)
        return delta

    def capture(
        self,
        values: Dict[int, np.ndarray],
        fault: Optional[StuckAt] = None,
        delta: Optional[Dict[int, np.ndarray]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Extract (PO matrix, captured-state matrix) from net values.

        ``delta`` overlays faulty-cone values on top of ``values``.
        """
        delta = delta or {}

        def val(net: int) -> np.ndarray:
            return delta.get(net, values[net])

        nl = self.netlist
        npat = next(iter(values.values())).shape[0] if values else 0
        po = (
            np.stack([val(net) for net in nl.primary_outputs], axis=1)
            if nl.primary_outputs
            else np.zeros((npat, 0), dtype=bool)
        )
        if nl.flops:
            cols = []
            for f in nl.flops:
                v = val(f.d_net)
                if fault is not None and fault.flop == f.fid:
                    v = (
                        np.ones_like(v)
                        if fault.value
                        else np.zeros_like(v)
                    )
                cols.append(v)
            state = np.stack(cols, axis=1)
        else:
            state = np.zeros((npat, 0), dtype=bool)
        return po, state


def _detection_vector(
    sim: PackedSimulator,
    good_vals: Dict[int, np.ndarray],
    good_po: np.ndarray,
    good_state: np.ndarray,
    fault: StuckAt,
) -> np.ndarray:
    """(P,) bool: patterns on which ``fault`` changes an observation."""
    nl = sim.netlist
    if fault.flop is not None:
        # D-pin fault: the captured bit differs wherever the good D value
        # is the opposite of the stuck value.
        return good_vals[nl.flops[fault.flop].d_net] != bool(fault.value)
    mismatch = np.zeros(good_po.shape[0], dtype=bool)
    # Only observation points inside the changed cone can differ; a stem
    # fault on an observed net is caught because faulty_values seeds
    # delta[fault.net].
    for net, vals in sim.faulty_values(good_vals, fault).items():
        col = sim.po_index.get(net)
        if col is not None:
            mismatch |= vals != good_po[:, col]
        for fid in sim.d_lookup.get(net, []):
            mismatch |= vals != good_state[:, fid]
    return mismatch


def detection_matrix(
    netlist: Netlist,
    faults: Sequence[StuckAt],
    patterns: np.ndarray,
    sim: Optional[PackedSimulator] = None,
) -> Dict[StuckAt, np.ndarray]:
    """Per-fault boolean vectors: which patterns detect the fault."""
    sim = sim if sim is not None else PackedSimulator(netlist)
    good_vals = sim.good_values(patterns)
    good_po, good_state = sim.capture(good_vals)
    return {
        fault: _detection_vector(sim, good_vals, good_po, good_state, fault)
        for fault in faults
    }


def grade_faults(
    netlist: Netlist,
    faults: Sequence[StuckAt],
    patterns: np.ndarray,
    sim: Optional[PackedSimulator] = None,
) -> FaultGrade:
    """Grade ``faults``: ``detected[f]`` is the first detecting pattern."""
    grade = FaultGrade(n_faults=len(faults))
    matrix = detection_matrix(netlist, faults, patterns, sim)
    for fault in faults:  # in list order, duplicates included
        vec = matrix[fault]
        if vec.any():
            grade.detected[fault] = int(np.argmax(vec))
        else:
            grade.undetected.append(fault)
    return grade


def fault_mismatch(
    sim: PackedWordSimulator, values: WordValues, fault: StuckAt
) -> int:
    """Packed int of the patterns on which any observation point differs
    under ``fault``, from the fault's own cone walk."""
    if fault.flop is not None:
        flop = sim.netlist.flops[fault.flop]
        return values.ints[flop.d_net] ^ (values.mask if fault.value else 0)
    obs = sim.compiled.obs_nets
    mismatch = 0
    for net, value in sim.faulty_values(values, fault).items():
        if net in obs:
            mismatch |= value ^ values.ints[net]
    return mismatch

