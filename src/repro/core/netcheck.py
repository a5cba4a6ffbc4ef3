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

from repro.netlist.gates import Flop
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

    #: Per net, the non-exempt blocks whose gates feed it combinationally.
    net_blocks: Dict[int, FrozenSet[str]]
    #: Per block, its first gate in topological order (the example gate).
    examples: Dict[str, int]
    #: Per observation point (flops, then primary outputs), its violation.
    verdicts: List[Optional[ConeViolation]]
    exempt: FrozenSet[str]
    block_of: Optional[Callable[[str], str]]


@dataclass
class NetIciReport:
    """Result of gate-level ICI verification."""

    satisfied: bool
    violations: List[ConeViolation] = field(default_factory=list)
    checked_observers: int = 0
    cone_blocks: Dict[str, Set[str]] = field(default_factory=dict)
    #: Set by :func:`check_netlist_ici`; None on a report read from JSON.
    sweep: Optional[IciSweep] = field(
        default=None, compare=False, repr=False
    )

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
            re-pointed or appended).  Gates are diffed by identity;
            only the changed gates and the gates reading a net whose
            blocks moved are re-swept, and only observers whose D net,
            label or cone blocks changed are re-judged.  The result
            equals the full check's; anything the diff cannot follow
            falls back to the full sweep.

    Returns:
        A :class:`NetIciReport`; ``violations`` lists every observation
        point whose cone mixes two or more non-exempt blocks (or a
        non-exempt block different from its own).
    """
    netlist.validate()
    resolve = block_of or _default_block
    exempt = frozenset(exempt_blocks)
    prior = None
    if base is not None:
        old_nl, old_report = base
        old = old_report.sweep
        if (
            old is not None
            and old.exempt == exempt
            and old.block_of is block_of
        ):
            prior = _resweep(netlist, old_nl, old, resolve, exempt)
    if prior is None:
        net_blocks, examples = _full_sweep(netlist, resolve, exempt)
        prior = (net_blocks, examples, None)
    return _judge(netlist, *prior, resolve, exempt, block_of)


def _full_sweep(
    netlist: Netlist, resolve: Callable[[str], str], exempt: FrozenSet[str]
) -> Tuple[Dict[int, FrozenSet[str]], Dict[str, int]]:
    """One topological sweep: per-net cone blocks and example gates."""
    empty: FrozenSet[str] = frozenset()
    net_blocks: Dict[int, FrozenSet[str]] = {
        net: empty for net in netlist.source_nets()
    }
    examples: Dict[str, int] = {}
    gates = netlist.gates
    for gid in netlist.topo_gate_order():
        g = gates[gid]
        acc: Set[str] = set()
        for src in g.inputs:
            acc |= net_blocks.get(src, empty)
        b = resolve(g.component)
        if b:
            examples.setdefault(b, gid)
            if b not in exempt:
                acc.add(b)
        net_blocks[g.output] = frozenset(acc)
    return net_blocks, examples


def _resweep(
    netlist: Netlist,
    old_nl: Netlist,
    old: IciSweep,
    resolve: Callable[[str], str],
    exempt: FrozenSet[str],
) -> Optional[tuple]:
    """Re-sweep what differs from ``old_nl``; None when the diff cannot
    be followed (gates removed or re-targeted, sources removed)."""
    new_gates, old_gates = netlist.gates, old_nl.gates
    n_old = len(old_gates)
    if (
        len(new_gates) < n_old
        or len(netlist.flops) < len(old_nl.flops)
        or len(netlist.primary_inputs) < len(old_nl.primary_inputs)
    ):
        return None
    changed = [
        gid for gid, (a, b) in enumerate(zip(new_gates, old_gates))
        if a is not b
    ]
    if any(new_gates[g].output != old_gates[g].output for g in changed):
        return None
    relabeled = any(
        new_gates[g].component != old_gates[g].component for g in changed
    )
    changed += range(n_old, len(new_gates))
    order = netlist.topo_gate_order()
    old_order = old_nl.topo_gate_order()

    # Example gates: the first gate of each block in this order.  With
    # the original order as a prefix and no gate relabeled, only the
    # appended gates can introduce a block.
    if not relabeled and order[:len(old_order)] == old_order:
        examples, tail = dict(old.examples), order[len(old_order):]
    else:
        examples, tail = {}, order
    for gid in tail:
        b = resolve(new_gates[gid].component)
        if b:
            examples.setdefault(b, gid)
    stale = {
        b for b in examples.keys() | old.examples.keys()
        if examples.get(b) != old.examples.get(b)
    }

    empty: FrozenSet[str] = frozenset()
    net_blocks = dict(old.net_blocks)
    for f in netlist.flops[len(old_nl.flops):]:
        net_blocks[f.q_net] = empty
    for net in netlist.primary_inputs[len(old_nl.primary_inputs):]:
        net_blocks[net] = empty

    # Re-sweep the changed gates and every gate reading a net whose
    # blocks moved; any other gate keeps its inputs' old block sets.
    seeds = set(changed)
    moved: Set[int] = set()  # nets whose block set differs from old
    for gid in order:
        g = new_gates[gid]
        if gid not in seeds and moved.isdisjoint(g.inputs):
            continue
        acc: Set[str] = set()
        for src in g.inputs:
            acc |= net_blocks.get(src, empty)
        b = resolve(g.component)
        if b and b not in exempt:
            acc.add(b)
        value = frozenset(acc)
        if net_blocks.get(g.output) != value:
            net_blocks[g.output] = value
            moved.add(g.output)
    return net_blocks, examples, (old_nl, old.verdicts, moved, stale)


def _judge(
    netlist: Netlist,
    net_blocks: Dict[int, FrozenSet[str]],
    examples: Dict[str, int],
    reuse,
    resolve: Callable[[str], str],
    exempt: FrozenSet[str],
    block_of: Optional[Callable[[str], str]],
) -> NetIciReport:
    """Judge every observation point from the swept cone blocks.

    ``reuse`` is ``(original, its verdicts, moved nets, stale example
    blocks)`` from :func:`_resweep`, or None: an observer whose name,
    label and D net match the original's, whose net did not move and
    whose cone holds no stale example block keeps its old verdict.
    """
    empty: FrozenSet[str] = frozenset()
    old_flops: List[Flop] = []
    old_pos: List[int] = []
    old_verdicts: List[Optional[ConeViolation]] = []
    moved: Set[int] = set()
    stale: Set[str] = set()
    if reuse is not None:
        old_nl, old_verdicts, moved, stale = reuse
        old_flops, old_pos = old_nl.flops, old_nl.primary_outputs
    # (name, own block or None to resolve from the flop, net, index,
    # whether the original had the same observer at that index)
    observers = [
        (f.name, None, f.d_net, f.fid,
         f.fid < len(old_flops) and _same_flop(f, old_flops[f.fid]))
        for f in netlist.flops
    ]
    observers += [
        (f"po[{i}]", "", net, len(old_flops) + i,
         i < len(old_pos) and old_pos[i] == net)
        for i, net in enumerate(netlist.primary_outputs)
    ]
    report = NetIciReport(satisfied=True)
    verdicts: List[Optional[ConeViolation]] = []
    for name, own, net, i, same in observers:
        cone = net_blocks.get(net, empty)
        report.cone_blocks[name] = set(cone)
        if same and net not in moved and stale.isdisjoint(cone):
            verdicts.append(old_verdicts[i])
            continue
        if own is None:
            own = resolve(netlist.flops[i].component)
        offending = sorted(b for b in cone if b != own)
        if own in exempt or not offending:
            verdicts.append(None)
            continue
        verdicts.append(
            ConeViolation(
                observer=name,
                observer_block=own,
                blocks=tuple(sorted(cone)),
                example_gates=tuple(
                    examples.get(b, -1) for b in offending
                )[:4],
            )
        )
    report.checked_observers = len(verdicts)
    report.violations = [v for v in verdicts if v is not None]
    report.satisfied = not report.violations
    report.sweep = IciSweep(
        net_blocks=net_blocks,
        examples=examples,
        verdicts=verdicts,
        exempt=exempt,
        block_of=block_of,
    )
    return report


def _same_flop(a: Flop, b: Flop) -> bool:
    return (a.name, a.component, a.d_net) == (b.name, b.component, b.d_net)
