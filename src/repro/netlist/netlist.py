"""The :class:`Netlist` container.

A netlist is a set of nets (integer ids), combinational gates, flip-flops,
primary inputs, and primary outputs.  Flop Q nets act as additional sources
("pseudo-primary inputs" in scan-test terms) and flop D nets as additional
observation points ("pseudo-primary outputs"), which is exactly the
full-scan combinational test model the paper assumes (Section 2).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.netlist.gates import Flop, Gate, GateType


class NetlistError(Exception):
    """Raised for structural problems: undriven nets, cycles, double drive."""


class Netlist:
    """A mutable gate-level netlist with levelization and cone queries.

    The derived structure -- topological gate order, driver map, source
    set -- is cached, carried over by :meth:`copy`, and kept up to date
    by the edits that cannot invalidate it: a fresh net, a flop or a
    primary input, a flop's D input, a gate with a fresh output whose
    inputs are all sources or driven (appended to the order), and a
    gate rewired onto source nets only (it keeps its place).  Any other
    gate edit drops the order, so the next query re-derives it and
    raises on a cycle or a floating input as before.
    """

    def __init__(self, name: str = "netlist") -> None:
        self.name = name
        self.n_nets = 0
        self.net_names: Dict[int, str] = {}
        self.gates: List[Gate] = []
        self.flops: List[Flop] = []
        self.primary_inputs: List[int] = []
        self.primary_outputs: List[int] = []
        # Derived caches.  ``_topo`` is immutable (shared by copies);
        # while it is set, ``_driver`` and ``_sources`` are set too.
        self._topo: Optional[Tuple[int, ...]] = None
        self._driver: Optional[Dict[int, int]] = None
        self._sources: Optional[Set[int]] = None
        self._fanout: Optional[Dict[int, List[Tuple[int, int]]]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def new_net(self, name: str = "") -> int:
        """Allocate a fresh net id, optionally with a debug name."""
        nid = self.n_nets
        self.n_nets += 1
        if name:
            self.net_names[nid] = name
        return nid

    def add_input(self, name: str = "") -> int:
        """Create a primary input net."""
        nid = self.new_net(name)
        self.primary_inputs.append(nid)
        if self._sources is not None:
            self._sources.add(nid)
        return nid

    def mark_output(self, net: int) -> None:
        """Mark an existing net as a primary output."""
        self._check_net(net)
        self.primary_outputs.append(net)

    def add_gate(
        self,
        gtype: GateType,
        inputs: Sequence[int],
        output: Optional[int] = None,
        component: str = "",
    ) -> int:
        """Add a gate; returns its output net (allocated when not given)."""
        for net in inputs:
            self._check_net(net)
        fresh = output is None
        if fresh:
            output = self.new_net()
        else:
            self._check_net(output)
        gate = Gate(
            gid=len(self.gates),
            gtype=gtype,
            inputs=tuple(inputs),
            output=output,
            component=component,
        )
        self.gates.append(gate)
        if not fresh:
            # May double-drive a net or close a cycle: re-derive.
            self._invalidate()
            return output
        self._fanout = None
        if self._topo is not None and all(
            net in self._driver or net in self._sources for net in inputs
        ):
            self._topo += (gate.gid,)
        else:
            self._topo = None
        if self._driver is not None:
            self._driver[output] = gate.gid
        return output

    def add_flop(
        self, d_net: int, name: str = "", component: str = ""
    ) -> Flop:
        """Add a D flip-flop capturing ``d_net``; returns the flop (Q is new)."""
        self._check_net(d_net)
        q_net = self.new_net(f"{name}.q" if name else "")
        flop = Flop(
            fid=len(self.flops),
            d_net=d_net,
            q_net=q_net,
            name=name or f"ff{len(self.flops)}",
            component=component,
        )
        self.flops.append(flop)
        if self._sources is not None:
            self._sources.add(q_net)
        return flop

    # ------------------------------------------------------------------
    # Surgical edits (the repair subsystem's patch primitives)
    # ------------------------------------------------------------------
    def rewire_gate(self, gid: int, inputs: Sequence[int]) -> None:
        """Re-point gate ``gid``'s input pins; type and output stay."""
        g = self.gates[gid]
        for net in inputs:
            self._check_net(net)
        self.gates[gid] = Gate(
            gid=g.gid,
            gtype=g.gtype,
            inputs=tuple(inputs),
            output=g.output,
            component=g.component,
        )
        # The driver map survives (same output).  With every newly read
        # net a source, the gate keeps a valid place in the order; a newly
        # read driven net may come later or close a cycle.
        self._fanout = None
        if self._topo is not None and not all(
            net in g.inputs
            or (net in self._sources and net not in self._driver)
            for net in inputs
        ):
            self._topo = None

    def set_flop_d(self, fid: int, d_net: int) -> None:
        """Re-point flop ``fid``'s D input to ``d_net``."""
        self._check_net(d_net)
        self.flops[fid].d_net = d_net

    def copy(self, name: Optional[str] = None) -> "Netlist":
        """Independent copy; edits to either netlist leave the other alone.

        Gates are immutable and shared; flops (mutable) are duplicated.
        The cached order (immutable) is shared; the driver map and
        source set are copied.
        """
        out = Netlist(name or self.name)
        out._topo = self._topo
        if self._driver is not None:
            out._driver = dict(self._driver)
        if self._sources is not None:
            out._sources = set(self._sources)
        out.n_nets = self.n_nets
        out.net_names = dict(self.net_names)
        out.gates = list(self.gates)
        out.flops = [
            Flop(
                fid=f.fid,
                d_net=f.d_net,
                q_net=f.q_net,
                name=f.name,
                component=f.component,
                scan=f.scan,
                scan_index=f.scan_index,
            )
            for f in self.flops
        ]
        out.primary_inputs = list(self.primary_inputs)
        out.primary_outputs = list(self.primary_outputs)
        return out

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def driver_of(self, net: int) -> Optional[int]:
        """Gate id driving ``net``; None for PIs, flop Qs, and floating nets."""
        return self._driver_map().get(net)

    def fanout_of(self, net: int) -> List[Tuple[int, int]]:
        """List of (gate id, pin index) pairs reading ``net``."""
        if self._fanout is None:
            fan: Dict[int, List[Tuple[int, int]]] = {}
            for g in self.gates:
                for pin, src in enumerate(g.inputs):
                    fan.setdefault(src, []).append((g.gid, pin))
            self._fanout = fan
        return self._fanout.get(net, [])

    def source_nets(self) -> List[int]:
        """All combinational sources: primary inputs plus flop Q nets."""
        return list(self.primary_inputs) + [f.q_net for f in self.flops]

    def observe_nets(self) -> List[int]:
        """All observation points: primary outputs plus flop D nets."""
        return list(self.primary_outputs) + [f.d_net for f in self.flops]

    def topo_gate_order(self) -> Tuple[int, ...]:
        """Gate ids in topological (source-to-sink) order.

        The tuple is the cache itself, shared with every copy, hence
        immutable.  Edits that keep it valid append to it (see the class
        docstring), so a patched copy's order is the original's plus its
        new gates, not necessarily the order a fresh derivation gives.

        Raises :class:`NetlistError` if the combinational logic contains a
        cycle — combinational cycles break both simulation and the
        single-cycle scan-test model.
        """
        if self._topo is not None:
            return self._topo
        seen_net: Set[int] = set(self._source_set())
        fan_by_net: Dict[int, List[int]] = {}
        for g in self.gates:
            for src in set(g.inputs):
                fan_by_net.setdefault(src, []).append(g.gid)
        order: List[int] = []
        queued: Set[int] = set()
        frontier = [
            g.gid
            for g in self.gates
            if all(i in seen_net for i in g.inputs)
        ]
        queued.update(frontier)
        while frontier:
            gid = frontier.pop()
            order.append(gid)
            out = self.gates[gid].output
            if out in seen_net:
                continue
            seen_net.add(out)
            for reader in fan_by_net.get(out, []):
                if reader in queued:
                    continue
                g = self.gates[reader]
                if all(i in seen_net for i in g.inputs):
                    queued.add(reader)
                    frontier.append(reader)
        # Gates never scheduled either read floating nets or sit on a cycle.
        if len(order) != len(self.gates):
            unscheduled = [g.gid for g in self.gates if g.gid not in queued]
            raise NetlistError(
                f"{self.name}: {len(self.gates) - len(order)} gates not "
                f"levelizable (cycle or floating input); first few: "
                f"{unscheduled[:5]}"
            )
        self._driver_map()
        self._topo = tuple(order)
        return self._topo

    def validate(self) -> None:
        """Check double-driven nets and levelizability; raise on failure."""
        drivers: Dict[int, int] = {}
        for g in self.gates:
            if g.output in drivers:
                raise NetlistError(
                    f"net {g.output} driven by gates {drivers[g.output]} "
                    f"and {g.gid}"
                )
            drivers[g.output] = g.gid
        for net in self.primary_inputs:
            if net in drivers:
                raise NetlistError(f"primary input net {net} is also driven")
        for f in self.flops:
            if f.q_net in drivers:
                raise NetlistError(f"flop {f.name} Q net {f.q_net} is driven")
        self.topo_gate_order()

    # ------------------------------------------------------------------
    # Cone queries (used by fault simulation and ICI checking)
    # ------------------------------------------------------------------
    def fanout_cone_gates(self, net: int) -> List[int]:
        """Gate ids in the transitive combinational fanout of ``net``,
        returned in topological order."""
        affected_nets: Set[int] = {net}
        cone: Set[int] = set()
        for gid in self.topo_gate_order():
            g = self.gates[gid]
            if any(i in affected_nets for i in g.inputs):
                cone.add(gid)
                affected_nets.add(g.output)
        order = [gid for gid in self.topo_gate_order() if gid in cone]
        return order

    def fanin_cone_sources(self, net: int) -> Set[int]:
        """Source nets (PIs and flop Qs) feeding ``net`` combinationally."""
        sources = set(self.source_nets())
        result: Set[int] = set()
        stack = [net]
        seen: Set[int] = set()
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            if cur in sources:
                result.add(cur)
                continue
            gid = self.driver_of(cur)
            if gid is not None:
                stack.extend(self.gates[gid].inputs)
        return result

    def observers_of_cone(self, net: int) -> Tuple[List[int], List[int]]:
        """(flop fids, PO nets) reachable from ``net`` combinationally."""
        affected: Set[int] = {net}
        for gid in self.fanout_cone_gates(net):
            affected.add(self.gates[gid].output)
        flops = [f.fid for f in self.flops if f.d_net in affected]
        pos = [p for p in self.primary_outputs if p in affected]
        return flops, pos

    # ------------------------------------------------------------------
    def prune_unobservable(self) -> int:
        """Remove gates that reach no primary output or flop D input.

        Synthesis tools sweep such dead logic away; doing the same here
        keeps fault universes (and untestable-fault counts) realistic.
        Returns the number of gates removed.  Gate ids are renumbered.
        """
        observed: Set[int] = set(self.observe_nets())
        keep_net: Set[int] = set(observed)
        # Walk backwards from observation points through drivers.
        stack = list(observed)
        driver = {g.output: g for g in self.gates}
        while stack:
            net = stack.pop()
            gate = driver.get(net)
            if gate is None:
                continue
            for src in gate.inputs:
                if src not in keep_net:
                    keep_net.add(src)
                    stack.append(src)
        kept = [g for g in self.gates if g.output in keep_net]
        removed = len(self.gates) - len(kept)
        if removed:
            self.gates = [
                Gate(
                    gid=i,
                    gtype=g.gtype,
                    inputs=g.inputs,
                    output=g.output,
                    component=g.component,
                )
                for i, g in enumerate(kept)
            ]
            self._invalidate()
        return removed

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Size summary used by the Table 3 reproduction."""
        return {
            "nets": self.n_nets,
            "gates": len(self.gates),
            "flops": len(self.flops),
            "primary_inputs": len(self.primary_inputs),
            "primary_outputs": len(self.primary_outputs),
        }

    def components(self) -> Set[str]:
        """All distinct ICI component labels on gates and flops."""
        labels = {g.component for g in self.gates if g.component}
        labels |= {f.component for f in self.flops if f.component}
        return labels

    # ------------------------------------------------------------------
    def _check_net(self, net: int) -> None:
        if not (0 <= net < self.n_nets):
            raise NetlistError(f"unknown net id {net}")

    def _driver_map(self) -> Dict[int, int]:
        if self._driver is None:
            self._driver = {g.output: g.gid for g in self.gates}
        return self._driver

    def _source_set(self) -> Set[int]:
        if self._sources is None:
            self._sources = set(self.source_nets())
        return self._sources

    def _invalidate(self) -> None:
        """Drop the caches a gate edit can break (sources survive)."""
        self._topo = None
        self._driver = None
        self._fanout = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        s = self.stats()
        return (
            f"<Netlist {self.name}: {s['gates']} gates, {s['flops']} flops, "
            f"{s['nets']} nets>"
        )
