"""What a patched copy of a netlist changed, checked once.

A repair candidate edits a :meth:`~repro.netlist.netlist.Netlist.copy`
of the base netlist.  :meth:`NetlistDelta.of` diffs the copy against the
base's :class:`~repro.netlist.compiled.CompiledNetlist` and checks the
structure of what changed; its readers are the extended build
(:meth:`CompiledNetlist.extend`), the good-value re-simulation
(:meth:`PackedWordSimulator.extend_values`) and the incremental ICI
re-check (:func:`repro.core.netcheck.check_netlist_ici`'s ``base``).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import compress
from operator import is_not
from typing import TYPE_CHECKING, List, Optional, Set

from repro.netlist.netlist import Netlist, NetlistError

if TYPE_CHECKING:
    from repro.netlist.compiled import CompiledNetlist


@dataclass(frozen=True)
class NetlistDelta:
    """A patched copy that only rewires and appends to its base.

    The per-net lists are the copy's, built copy-on-write from the
    base build's: a list the patch does not touch is the base's own
    object, so nobody may write them.
    """

    #: The patched copy.
    netlist: Netlist
    #: Rewired gate ids (same type, output and label), then appended ids.
    changed: List[int]
    #: Re-pointed or relabeled flop ids (same Q), then appended ids.
    changed_flops: List[int]
    #: Per net, the gates reading it, in gate-id order.
    readers: List[List[int]]
    #: Per net, the gate driving it (-1 for sources and floating nets).
    driver_gid: List[int]
    #: Per gate id, its position in the copy's topological order.
    topo_pos: List[int]

    @classmethod
    def of(
        cls, base: "CompiledNetlist", netlist: Netlist
    ) -> Optional["NetlistDelta"]:
        """The delta from ``base.netlist`` to ``netlist``, or None when
        the patch is not one.

        A delta rewires gates (same type, output and label), re-points
        or relabels flops (same Q) and appends gates with fresh outputs,
        nets and flops; the primary inputs and outputs stay, and the
        topological order is the base order plus the appended gates.
        Gates and flops are diffed by identity (copies share the
        unchanged ones).  Raises :class:`NetlistError` where
        :meth:`Netlist.validate` would: a cycle, a floating input, or an
        appended gate driving a driven net, a source or a new flop's Q.
        """
        old_nl = base.netlist
        gates, old_gates = netlist.gates, old_nl.gates
        flops, old_flops = netlist.flops, old_nl.flops
        n_old, n_old_flops = len(old_gates), len(old_flops)
        n_old_nets = old_nl.n_nets
        if (
            len(gates) < n_old
            or len(flops) < n_old_flops
            or netlist.n_nets < n_old_nets
            or netlist.primary_inputs != old_nl.primary_inputs
            or netlist.primary_outputs != old_nl.primary_outputs
        ):
            return None
        rewired = list(compress(range(n_old), map(is_not, gates, old_gates)))
        changed_flops = list(
            compress(range(n_old_flops), map(is_not, flops, old_flops))
        )
        for gid in rewired:
            g, o = gates[gid], old_gates[gid]
            if (
                g.gtype is not o.gtype
                or g.output != o.output
                or g.component != o.component
            ):
                return None
        if any(flops[f].q_net != old_flops[f].q_net for f in changed_flops):
            return None
        order = netlist.topo_gate_order()
        if (
            len(order) != len(gates)
            or order[:n_old] != old_nl.topo_gate_order()
        ):
            return None

        # Appended gates drive fresh, distinct nets; new flop Qs are
        # fresh and undriven.
        sources = base.source_col
        driver = base.driver_gid + [-1] * (netlist.n_nets - n_old_nets)
        for g in gates[n_old:]:
            out = g.output
            if driver[out] >= 0 or out in sources:
                raise NetlistError(
                    f"net {out} driven by gate {g.gid} is already driven "
                    "or a source"
                )
            if out < n_old_nets:
                return None  # a net of the base left floating
            driver[out] = g.gid
        new_qs: Set[int] = set()
        for f in flops[n_old_flops:]:
            if driver[f.q_net] >= 0:
                raise NetlistError(f"flop {f.name} Q net {f.q_net} is driven")
            if f.q_net < n_old_nets:
                return None
            new_qs.add(f.q_net)

        # Every input of a changed gate is a source or driven earlier.
        pos = base.topo_pos + list(range(n_old, len(gates)))
        for i in range(n_old, len(order)):
            pos[order[i]] = i
        changed = rewired + list(range(n_old, len(gates)))
        for gid in changed:
            for net in gates[gid].inputs:
                d = driver[net]
                if (
                    pos[d] >= pos[gid] if d >= 0
                    else net not in sources and net not in new_qs
                ):
                    return None

        # Reader lists: a list the patch edits is copied first, so the
        # base build's lists are never written.
        readers = base.readers + [
            [] for _ in range(netlist.n_nets - n_old_nets)
        ]
        copied: Set[int] = set()

        def own(net: int) -> List[int]:
            if net < n_old_nets and net not in copied:
                copied.add(net)
                readers[net] = list(readers[net])
            return readers[net]

        for gid in changed:
            ins = set(gates[gid].inputs)
            if gid < n_old:
                old_ins = set(old_gates[gid].inputs)
                for net in old_ins - ins:
                    own(net).remove(gid)
                ins -= old_ins
            for net in ins:
                bisect.insort(own(net), gid)
        return cls(
            netlist=netlist,
            changed=changed,
            changed_flops=changed_flops
            + list(range(n_old_flops, len(flops))),
            readers=readers,
            driver_gid=driver,
            topo_pos=pos,
        )
