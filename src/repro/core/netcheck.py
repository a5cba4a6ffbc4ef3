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
from itertools import compress
from operator import attrgetter
from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.netlist.delta import NetlistDelta
from repro.netlist.gates import block_of
from repro.netlist.netlist import Netlist


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
    #: Per observation point (flops, then primary outputs), its violation.
    verdicts: List[Optional[ConeViolation]]
    exempt: FrozenSet[str]
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
    exempt_blocks: Sequence[str] = (),
    base: Optional[Tuple[NetIciReport, Optional[NetlistDelta]]] = None,
) -> NetIciReport:
    """Verify the gate-level ICI property of a netlist.

    Args:
        netlist: the design (validated; labels on gates/flops, each
            mapped to its block by :func:`~repro.netlist.gates.block_of`,
            matching :class:`IsolationTable`).
        exempt_blocks: blocks allowed to feed anyone (e.g. ``chipkill`` —
            a fault there scraps the core regardless, so cross-block
            cones ending in chipkill logic do not break isolation of the
            *disableable* blocks; pass what your fault-map treats as
            non-isolatable).
        base: ``(report, delta)`` when ``netlist`` is ``delta.netlist``,
            a patched copy of the netlist ``report`` checked, and
            ``delta`` its :meth:`NetlistDelta.of` (already structurally
            checked).  The re-sweep walks only the delta's changed gates'
            forward cone over the delta's reader lists, and only the
            observers whose flop, D net or cone changed are re-judged.
            The result equals the full check's.  A None delta (the patch
            is not one) or a report read from JSON takes the full check.

    Returns:
        A :class:`NetIciReport`; ``violations`` lists every observation
        point whose cone mixes two or more non-exempt blocks (or a
        non-exempt block different from its own).
    """
    exempt = frozenset(exempt_blocks)
    if base is not None:
        old_report, delta = base
        old = old_report.sweep
        if delta is not None and old is not None and old.exempt == exempt:
            return _report(_recheck(old, delta))
    netlist.validate()
    return _report(_full_check(netlist, exempt))


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


def _full_check(netlist: Netlist, exempt: FrozenSet[str]) -> IciSweep:
    """One topological sweep, then every observation point judged."""
    empty: FrozenSet[str] = frozenset()
    net_blocks: Dict[int, FrozenSet[str]] = {
        net: empty for net in netlist.source_nets()
    }
    examples: Dict[str, int] = {}
    gates = netlist.gates
    order = netlist.topo_gate_order()
    for gid in order:
        g = gates[gid]
        acc: Set[str] = set()
        for src in g.inputs:
            acc |= net_blocks.get(src, empty)
        b = block_of(g.component)
        if b:
            examples.setdefault(b, gid)
            if b not in exempt:
                acc.add(b)
        net_blocks[g.output] = frozenset(acc)
    verdicts = [
        _verdict(f.name, block_of(f.component),
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
        verdicts=verdicts,
        exempt=exempt,
        swept=len(order),
        judged=len(verdicts),
    )


def _recheck(old: IciSweep, delta: NetlistDelta) -> IciSweep:
    """Re-check ``delta.netlist`` inside the delta's forward cone."""
    netlist = delta.netlist
    gates, flops = netlist.gates, netlist.flops
    n_old, n_old_flops = len(old.netlist.gates), len(old.netlist.flops)
    pos, readers = delta.topo_pos, delta.readers
    empty: FrozenSet[str] = frozenset()
    net_blocks = dict(old.net_blocks)
    for f in flops[n_old_flops:]:
        net_blocks[f.q_net] = empty

    # Re-sweep the forward cone of the changed gates in topological
    # position; a gate whose block set does not move stops the walk.
    exempt = old.exempt
    heap = [(pos[gid], gid) for gid in delta.changed]
    heapify(heap)
    queued = set(delta.changed)
    moved: Set[int] = set()  # nets whose block set differs from old
    while heap:
        _, gid = heappop(heap)
        g = gates[gid]
        acc: Set[str] = set()
        for src in g.inputs:
            acc |= net_blocks[src]
        b = block_of(g.component)
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
    for gid in netlist.topo_gate_order()[n_old:]:
        b = block_of(gates[gid].component)
        if b:
            examples.setdefault(b, gid)

    # Re-judge the changed and new flops and those whose D net moved;
    # every other observer (the primary outputs stay) keeps its verdict.
    verdicts = old.verdicts[:n_old_flops] + [None] * (
        len(flops) - n_old_flops
    )
    rejudge = set(delta.changed_flops)
    if moved:
        rejudge.update(compress(
            range(len(flops)),
            map(moved.__contains__, map(attrgetter("d_net"), flops)),
        ))
    for fid in rejudge:
        f = flops[fid]
        verdicts[fid] = _verdict(
            f.name, block_of(f.component), net_blocks.get(f.d_net, empty),
            examples, exempt,
        )
    judged = len(rejudge)
    for i, net in enumerate(netlist.primary_outputs):
        if net not in moved:
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
        verdicts=verdicts,
        exempt=exempt,
        swept=len(queued),
        judged=judged,
    )
