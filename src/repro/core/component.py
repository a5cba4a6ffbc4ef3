"""Logic-component graphs (the abstraction of the paper's Figures 2-4).

A :class:`ComponentGraph` captures the only structural property ICI cares
about: which logic component reads which other component *within a cycle*
(a combinational edge) versus *across a latch* (an inter-cycle edge).
Primary inputs and outputs are modeled as components of kind ``port`` —
they are controlled/observed by the tester and never merge into
super-components.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Set, Tuple


class EdgeKind(enum.Enum):
    """How a value travels between components."""

    COMB = "comb"  # within a cycle — the communication ICI forbids
    LATCH = "latch"  # through a pipeline latch — always ICI-safe


@dataclass(frozen=True)
class LogicComponent:
    """A unit of logic at the isolation granularity.

    Attributes:
        name: unique id within the graph.
        area: relative area (feeds the yield model and transform costs).
        kind: ``logic`` (isolatable), ``memory`` (covered by BIST/ECC, e.g.
            caches), ``chipkill`` (non-redundant; a fault kills the core),
            or ``port`` (tester-controlled boundary).
        group: map-out group the component belongs to ("" = ungrouped).
    """

    name: str
    area: float = 1.0
    kind: str = "logic"
    group: str = ""


@dataclass(frozen=True)
class Edge:
    """A directed communication edge ``src -> dst``."""

    src: str
    dst: str
    kind: EdgeKind


class ComponentGraph:
    """Mutable component graph with copy-on-transform semantics."""

    def __init__(self, name: str = "design") -> None:
        self.name = name
        self.components: Dict[str, LogicComponent] = {}
        self.edges: Set[Edge] = set()
        # Latency bookkeeping: pipeline stages added by transformations.
        self.extra_latency: Dict[str, int] = {}
        self.transform_log: List[str] = []

    # ------------------------------------------------------------------
    def add(
        self,
        name: str,
        area: float = 1.0,
        kind: str = "logic",
        group: str = "",
    ) -> LogicComponent:
        """Add a component; names must be unique."""
        if name in self.components:
            raise ValueError(f"duplicate component {name!r}")
        comp = LogicComponent(name=name, area=area, kind=kind, group=group)
        self.components[name] = comp
        return comp

    def connect(
        self, src: str, dst: str, kind: EdgeKind = EdgeKind.COMB
    ) -> None:
        """Add an edge; both endpoints must exist."""
        for end in (src, dst):
            if end not in self.components:
                raise KeyError(f"unknown component {end!r}")
        self.edges.add(Edge(src, dst, kind))

    def connect_latched(self, src: str, dst: str) -> None:
        """Add an inter-cycle (through-a-latch) edge."""
        self.connect(src, dst, EdgeKind.LATCH)

    # ------------------------------------------------------------------
    def comb_edges(self) -> List[Edge]:
        """All intra-cycle edges (the ones ICI constrains)."""
        return [e for e in self.edges if e.kind is EdgeKind.COMB]

    def latch_edges(self) -> List[Edge]:
        """All inter-cycle edges."""
        return [e for e in self.edges if e.kind is EdgeKind.LATCH]

    def readers_of(self, name: str, kind: Optional[EdgeKind] = None) -> List[str]:
        """Components reading ``name``, optionally filtered by edge kind."""
        return sorted(
            e.dst
            for e in self.edges
            if e.src == name and (kind is None or e.kind is kind)
        )

    def logic_components(self) -> List[str]:
        """Names of isolatable (non-port, non-memory) components."""
        return sorted(
            c.name
            for c in self.components.values()
            if c.kind in ("logic", "chipkill")
        )

    def total_area(self, kinds: Iterable[str] = ("logic", "chipkill", "memory")) -> float:
        """Summed area of components of the given kinds."""
        wanted = set(kinds)
        return sum(
            c.area for c in self.components.values() if c.kind in wanted
        )

    # ------------------------------------------------------------------
    def set_group(self, name: str, group: str) -> None:
        """Assign a component to a map-out group."""
        self.components[name] = replace(self.components[name], group=group)

    def groups(self) -> Dict[str, List[str]]:
        """Map-out groups and their member components."""
        out: Dict[str, List[str]] = {}
        for c in self.components.values():
            out.setdefault(c.group, []).append(c.name)
        return {g: sorted(v) for g, v in out.items()}

    # ------------------------------------------------------------------
    def comb_is_acyclic(self) -> bool:
        """True when intra-cycle edges form a DAG (no combinational loop)."""
        adj: Dict[str, List[str]] = {}
        indeg: Dict[str, int] = {n: 0 for n in self.components}
        for e in self.comb_edges():
            adj.setdefault(e.src, []).append(e.dst)
            indeg[e.dst] += 1
        frontier = [n for n, d in indeg.items() if d == 0]
        seen = 0
        while frontier:
            n = frontier.pop()
            seen += 1
            for m in adj.get(n, []):
                indeg[m] -= 1
                if indeg[m] == 0:
                    frontier.append(m)
        return seen == len(self.components)

    def copy(self, name: Optional[str] = None) -> "ComponentGraph":
        """Deep-enough copy for copy-on-transform semantics."""
        g = ComponentGraph(name or self.name)
        g.components = dict(self.components)
        g.edges = set(self.edges)
        g.extra_latency = dict(self.extra_latency)
        g.transform_log = list(self.transform_log)
        return g

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ComponentGraph {self.name}: {len(self.components)} components,"
            f" {len(self.comb_edges())} comb / {len(self.latch_edges())} "
            f"latch edges>"
        )
