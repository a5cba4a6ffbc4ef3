"""Gate-level ICI verification — a lint for testable-by-construction RTL.

The component-graph checker (:mod:`repro.core.checker`) reasons about a
design's *intended* structure; this module verifies the property on the
actual gates: a netlist satisfies ICI at block granularity iff every
observation point (flop D input or primary output) has a combinational
fan-in cone whose labeled gates all belong to one map-out block.

When that holds, a failing scan bit implicates exactly its writer block —
the invariant the isolation table relies on.  Violations are reported
per observation point with the offending blocks and example gates, which
is what a designer needs to decide between cycle splitting, privatization,
or rotation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import chain, compress
from operator import attrgetter, is_not
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.netlist.netlist import Netlist


def _default_block(component: str) -> str:
    return component.split("/", 1)[0] if component else ""


@dataclass
class ConeViolation:
    """One observation point whose cone spans several blocks."""

    observer: str  # flop name or "po[i]"
    observer_block: str
    blocks: Tuple[str, ...]
    example_gates: Tuple[int, ...]

    @property
    def vid(self) -> str:
        """Stable violation id: a hash of (observer, cone blocks).

        Independent of gate numbering and violation ordering, so reruns
        of the checker — and the repair subsystem's plans — refer to the
        same violation by the same id.
        """
        text = f"{self.observer}|{self.observer_block}|" + ",".join(
            sorted(self.blocks)
        )
        return "ici-" + hashlib.sha1(text.encode()).hexdigest()[:10]

    def describe(self) -> str:
        return (
            f"{self.observer} (block {self.observer_block or '?'}) reads "
            f"in-cycle from blocks {', '.join(self.blocks)}; e.g. gates "
            f"{list(self.example_gates)}"
        )

    def to_json(self) -> Dict[str, Any]:
        return {
            "id": self.vid,
            "observer": self.observer,
            "observer_block": self.observer_block,
            "blocks": list(self.blocks),
            "example_gates": list(self.example_gates),
        }

    @classmethod
    def from_json(cls, d: Mapping[str, Any]) -> "ConeViolation":
        return cls(
            observer=d["observer"],
            observer_block=d["observer_block"],
            blocks=tuple(d["blocks"]),
            example_gates=tuple(d["example_gates"]),
        )


@dataclass
class IciSweep:
    """What one check derived, kept so a patched copy can be re-checked
    incrementally (see :func:`check_netlist_ici`'s ``base``)."""

    #: The netlist as checked (its observers name ``cone_blocks``).
    netlist: Netlist
    #: Per net, the non-exempt blocks whose gates feed it combinationally.
    net_blocks: Dict[int, FrozenSet[str]]
    #: Per block, its first gate in topological order (the example gate).
    examples: Dict[str, int]
    #: Per net id, the gates reading it.  After an incremental check a
    #: superset: a gate rewired away from a net keeps its entry.  The
    #: lists are never written; a re-check replaces the ones it extends.
    readers: List[List[int]]
    #: Per observation point (flops, then primary outputs), its violation.
    verdicts: List[Optional[ConeViolation]]
    exempt: FrozenSet[str]
    block_of: Optional[Callable[[str], str]]
    #: Gates this check swept and observers it judged.
    swept: int
    judged: int


@dataclass
class NetIciReport:
    """Result of gate-level ICI verification."""

    satisfied: bool
    violations: List[ConeViolation] = field(default_factory=list)
    checked_observers: int = 0
    #: Set by :func:`check_netlist_ici`; None on a report read from JSON.
    sweep: Optional[IciSweep] = field(
        default=None, compare=False, repr=False
    )

    @property
    def cone_blocks(self) -> Dict[str, Set[str]]:
        """Per observer name, the non-exempt blocks feeding it (empty on
        a report read from JSON)."""
        if self.sweep is None:
            return {}
        nl, net_blocks = self.sweep.netlist, self.sweep.net_blocks
        empty: FrozenSet[str] = frozenset()
        out = {f.name: set(net_blocks.get(f.d_net, empty)) for f in nl.flops}
        for i, net in enumerate(nl.primary_outputs):
            out[f"po[{i}]"] = set(net_blocks.get(net, empty))
        return out

    def describe(self) -> str:
        if self.satisfied:
            return (
                f"gate-level ICI holds: {self.checked_observers} "
                "observation points, each fed by a single block"
            )
        lines = [
            f"gate-level ICI violated at {len(self.violations)} of "
            f"{self.checked_observers} observation points:"
        ]
        for v in self.violations[:8]:
            lines.append("  " + v.describe())
        if len(self.violations) > 8:
            lines.append(f"  ... and {len(self.violations) - 8} more")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        """Machine-readable report (the format ``repro repair`` consumes).

        ``cone_blocks`` is omitted — it scales with the flop count and is
        derivable by rerunning the checker; the violation list with
        stable ids is the contract.
        """
        return {
            "satisfied": self.satisfied,
            "checked_observers": self.checked_observers,
            "violations": [v.to_json() for v in self.violations],
        }

    @classmethod
    def from_json(cls, d: Mapping[str, Any]) -> "NetIciReport":
        return cls(
            satisfied=bool(d["satisfied"]),
            violations=[
                ConeViolation.from_json(v) for v in d["violations"]
            ],
            checked_observers=int(d["checked_observers"]),
        )


def check_netlist_ici(
    netlist: Netlist,
    block_of: Optional[Callable[[str], str]] = None,
    exempt_blocks: Sequence[str] = (),
    base: Optional[Tuple[Netlist, NetIciReport]] = None,
) -> NetIciReport:
    """Verify the gate-level ICI property of a netlist.

    Args:
        netlist: the design (validated; labels on gates/flops).
        block_of: component-label → block mapping (default: outermost
            ``/`` segment, matching :class:`IsolationTable`).
        exempt_blocks: blocks allowed to feed anyone (e.g. ``chipkill`` —
            a fault there scraps the core regardless, so cross-block
            cones ending in chipkill logic do not break isolation of the
            *disableable* blocks; pass what your fault-map treats as
            non-isolatable).
        base: ``(original, its report)`` when ``netlist`` is a patched
            :meth:`~repro.netlist.netlist.Netlist.copy` of ``original``
            (gates only rewired or appended, flops only relabeled,
            re-pointed or appended).  Gates and flops are diffed by
            identity; the structural check covers only the changed
            gates and the new sources, the re-sweep walks only the
            changed gates' forward cone, and only the observers whose
            flop, D net or cone changed are re-judged.  The result
            equals the full check's; anything the diff cannot follow
            falls back to the full check.

    Returns:
        A :class:`NetIciReport`; ``violations`` lists every observation
        point whose cone mixes two or more non-exempt blocks (or a
        non-exempt block different from its own).
    """
    resolve = block_of or _default_block
    exempt = frozenset(exempt_blocks)
    if base is not None:
        old_nl, old_report = base
        old = old_report.sweep
        if (
            old is not None
            and old.exempt == exempt
            and old.block_of is block_of
        ):
            sweep = _recheck(netlist, old_nl, old, resolve)
            if sweep is not None:
                return _report(sweep)
    netlist.validate()
    return _report(_full_check(netlist, resolve, exempt, block_of))


def _report(sweep: IciSweep) -> NetIciReport:
    violations = [v for v in sweep.verdicts if v is not None]
    return NetIciReport(
        satisfied=not violations,
        violations=violations,
        checked_observers=len(sweep.verdicts),
        sweep=sweep,
    )


def _verdict(
    name: str,
    own: str,
    cone: FrozenSet[str],
    examples: Dict[str, int],
    exempt: FrozenSet[str],
) -> Optional[ConeViolation]:
    """The violation of one observer of block ``own``, or None."""
    offending = sorted(b for b in cone if b != own)
    if own in exempt or not offending:
        return None
    return ConeViolation(
        observer=name,
        observer_block=own,
        blocks=tuple(sorted(cone)),
        example_gates=tuple(examples.get(b, -1) for b in offending)[:4],
    )


def _full_check(
    netlist: Netlist,
    resolve: Callable[[str], str],
    exempt: FrozenSet[str],
    block_of: Optional[Callable[[str], str]],
) -> IciSweep:
    """One topological sweep, then every observation point judged."""
    empty: FrozenSet[str] = frozenset()
    net_blocks: Dict[int, FrozenSet[str]] = {
        net: empty for net in netlist.source_nets()
    }
    examples: Dict[str, int] = {}
    readers: List[List[int]] = [[] for _ in range(netlist.n_nets)]
    gates = netlist.gates
    order = netlist.topo_gate_order()
    for gid in order:
        g = gates[gid]
        acc: Set[str] = set()
        for src in g.inputs:
            acc |= net_blocks.get(src, empty)
            readers[src].append(gid)
        b = resolve(g.component)
        if b:
            examples.setdefault(b, gid)
            if b not in exempt:
                acc.add(b)
        net_blocks[g.output] = frozenset(acc)
    verdicts = [
        _verdict(f.name, resolve(f.component),
                 net_blocks.get(f.d_net, empty), examples, exempt)
        for f in netlist.flops
    ]
    verdicts += [
        _verdict(f"po[{i}]", "", net_blocks.get(net, empty), examples,
                 exempt)
        for i, net in enumerate(netlist.primary_outputs)
    ]
    return IciSweep(
        netlist=netlist,
        net_blocks=net_blocks,
        examples=examples,
        readers=readers,
        verdicts=verdicts,
        exempt=exempt,
        block_of=block_of,
        swept=len(order),
        judged=len(verdicts),
    )


def _recheck(
    netlist: Netlist,
    old_nl: Netlist,
    old: IciSweep,
    resolve: Callable[[str], str],
) -> Optional[IciSweep]:
    """Re-check a patched copy of ``old_nl`` inside the patch's forward
    cone; None when the patch is not a delta the diff can follow."""
    gates, old_gates = netlist.gates, old_nl.gates
    flops, old_flops = netlist.flops, old_nl.flops
    n_old, n_old_flops = len(old_gates), len(old_flops)
    n_old_nets = old_nl.n_nets
    old_pis = old_nl.primary_inputs
    if (
        len(gates) < n_old
        or len(flops) < n_old_flops
        or netlist.primary_inputs[:len(old_pis)] != old_pis
    ):
        return None
    # Identity diffs, at C speed: the unchanged entries are shared.
    changed = list(compress(range(n_old), map(is_not, gates, old_gates)))
    changed_flops = list(
        compress(range(n_old_flops), map(is_not, flops, old_flops))
    )
    if any(
        gates[gid].output != old_gates[gid].output
        or gates[gid].component != old_gates[gid].component
        for gid in changed
    ) or any(flops[f].q_net != old_flops[f].q_net for f in changed_flops):
        return None
    # The original order must be a prefix, so the old gates keep their
    # positions and example gates.
    order = netlist.topo_gate_order()
    if order[:n_old] != old_nl.topo_gate_order():
        return None
    pos = netlist.topo_positions()
    changed += range(n_old, len(gates))

    # The structural check validate() would make, on the delta only:
    # new sources and new gate outputs are fresh nets driven at most
    # once, and every input of a changed gate is a source or driven
    # earlier in the order.
    empty: FrozenSet[str] = frozenset()
    net_blocks = dict(old.net_blocks)
    driver_of = netlist.driver_of
    new_sources = chain(
        (f.q_net for f in flops[n_old_flops:]),
        netlist.primary_inputs[len(old_pis):],
    )
    for net in new_sources:
        if net < n_old_nets or driver_of(net) is not None:
            return None
        net_blocks[net] = empty
    for gid in changed:
        g = gates[gid]
        if gid >= n_old and (
            g.output < n_old_nets or driver_of(g.output) != gid
        ):
            return None
        for net in g.inputs:
            d = driver_of(net)
            if pos[d] >= pos[gid] if d is not None else (
                net not in net_blocks
            ):
                return None

    # Reader lists of this netlist: the old ones plus the changed
    # gates' edges (fresh lists; the old ones are shared, never written).
    readers = old.readers + [
        [] for _ in range(netlist.n_nets - len(old.readers))
    ]
    for gid in changed:
        for net in set(gates[gid].inputs):
            if gid not in readers[net]:
                readers[net] = readers[net] + [gid]

    # Re-sweep the forward cone of the changed gates in topological
    # position; a gate whose block set does not move stops the walk.
    exempt = old.exempt
    heap = [(pos[gid], gid) for gid in changed]
    heapify(heap)
    queued = set(changed)
    moved: Set[int] = set()  # nets whose block set differs from old
    while heap:
        _, gid = heappop(heap)
        g = gates[gid]
        acc: Set[str] = set()
        for src in g.inputs:
            acc |= net_blocks[src]
        b = resolve(g.component)
        if b and b not in exempt:
            acc.add(b)
        value = frozenset(acc)
        if net_blocks.get(g.output) != value:
            net_blocks[g.output] = value
            moved.add(g.output)
            for r in readers[g.output]:
                if r not in queued:
                    queued.add(r)
                    heappush(heap, (pos[r], r))

    # Only appended gates can introduce a block.  Any cone holding a
    # new block has moved, so the old verdicts' example gates stand.
    examples = dict(old.examples)
    for gid in order[n_old:]:
        b = resolve(gates[gid].component)
        if b:
            examples.setdefault(b, gid)

    # Re-judge the changed and new flops and those whose D net moved;
    # every other observer keeps its verdict.
    verdicts = old.verdicts[:n_old_flops] + [None] * (
        len(flops) - n_old_flops
    )
    rejudge = set(changed_flops)
    rejudge.update(range(n_old_flops, len(flops)))
    if moved:
        rejudge.update(compress(
            range(len(flops)),
            map(moved.__contains__, map(attrgetter("d_net"), flops)),
        ))
    for fid in rejudge:
        f = flops[fid]
        verdicts[fid] = _verdict(
            f.name, resolve(f.component), net_blocks.get(f.d_net, empty),
            examples, exempt,
        )
    judged = len(rejudge)
    old_pos = old_nl.primary_outputs
    for i, net in enumerate(netlist.primary_outputs):
        if i < len(old_pos) and old_pos[i] == net and net not in moved:
            verdicts.append(old.verdicts[n_old_flops + i])
            continue
        judged += 1
        verdicts.append(_verdict(
            f"po[{i}]", "", net_blocks.get(net, empty), examples, exempt
        ))
    return IciSweep(
        netlist=netlist,
        net_blocks=net_blocks,
        examples=examples,
        readers=readers,
        verdicts=verdicts,
        exempt=exempt,
        block_of=old.block_of,
        swept=len(queued),
        judged=judged,
    )
