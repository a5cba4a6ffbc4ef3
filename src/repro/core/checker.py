"""The ICI rule: super-components and granularity checking (Section 3).

The ICI rule states that a scan-detected fault is attributable to one and
only one element of a component set iff there is no intra-cycle
communication among the set.  Components connected by combinational edges
therefore merge into *super-components* — a fault observed downstream can
only be pinned to the super-component, not a member.  A design meets an
isolation granularity when every super-component lies inside a single
map-out group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Set

from repro.core.component import ComponentGraph, Edge


def super_components(graph: ComponentGraph) -> List[FrozenSet[str]]:
    """Partition isolatable components into super-components.

    Two components belong to the same super-component when they are
    connected (in either direction) by a chain of intra-cycle edges: a
    fault in one can corrupt the other's outputs within the observation
    cycle, so scan-bit lookup cannot tell them apart (Figure 3c's shaded
    ovals).  Ports and BIST-covered memories never participate.
    """
    isolatable = set(graph.logic_components())
    parent: Dict[str, str] = {n: n for n in isolatable}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for e in graph.comb_edges():
        if e.src in isolatable and e.dst in isolatable:
            union(e.src, e.dst)
    groups: Dict[str, Set[str]] = {}
    for n in isolatable:
        groups.setdefault(find(n), set()).add(n)
    return sorted(
        (frozenset(g) for g in groups.values()),
        key=lambda s: sorted(s)[0],
    )


def ici_violations(
    graph: ComponentGraph, partition: Optional[Mapping[str, str]] = None
) -> List[Edge]:
    """Intra-cycle edges that break isolation at the given granularity.

    Args:
        graph: the design.
        partition: component → group map; defaults to each component's own
            ``group`` attribute.  An intra-cycle edge is a violation when
            its endpoints sit in different groups.

    Returns:
        The violating edges (empty when the design obeys ICI at this
        granularity).
    """
    part = _resolve_partition(graph, partition)
    bad = []
    for e in graph.comb_edges():
        if e.src not in part or e.dst not in part:
            continue  # ports and memories are boundary, never violations
        if part[e.src] != part[e.dst]:
            bad.append(e)
    return sorted(bad, key=lambda e: (e.src, e.dst))


@dataclass
class IciReport:
    """Result of a granularity check."""

    satisfied: bool
    super_components: List[FrozenSet[str]]
    violations: List[Edge]
    spanning: List[FrozenSet[str]] = field(default_factory=list)

    def describe(self) -> str:
        if self.satisfied:
            return (
                f"ICI satisfied: {len(self.super_components)} "
                "super-components, each within one map-out group"
            )
        lines = [
            f"ICI violated: {len(self.violations)} intra-cycle edges cross "
            f"group boundaries; {len(self.spanning)} super-components span "
            "groups"
        ]
        for e in self.violations[:10]:
            lines.append(f"  {e.src} -> {e.dst}")
        return "\n".join(lines)


def check_granularity(
    graph: ComponentGraph, partition: Optional[Mapping[str, str]] = None
) -> IciReport:
    """Check that faults isolate to single map-out groups.

    The paper's requirement 2 (Section 1): it must be possible to isolate
    faults to the precision of microarchitectural blocks.  Formally: every
    super-component must be a subset of one group, so that disabling the
    group containing *any* member removes the fault.
    """
    part = _resolve_partition(graph, partition)
    supers = super_components(graph)
    spanning = [
        s
        for s in supers
        if len({part[m] for m in s if m in part}) > 1
    ]
    violations = ici_violations(graph, partition)
    return IciReport(
        satisfied=not spanning,
        super_components=supers,
        violations=violations,
        spanning=spanning,
    )


def _resolve_partition(
    graph: ComponentGraph, partition: Optional[Mapping[str, str]]
) -> Dict[str, str]:
    if partition is not None:
        return dict(partition)
    out: Dict[str, str] = {}
    for name in graph.logic_components():
        comp = graph.components[name]
        out[name] = comp.group or comp.name
    return out
