"""The ICI transformations (paper Section 3.2).

Each transformation takes a :class:`ComponentGraph` and returns a new graph
plus a :class:`TransformRecord` carrying its cost:

- :func:`cycle_split` — turn an intra-cycle edge into a latched one at the
  price of a pipeline stage (Figure 3a→3b),
- :func:`privatize` — duplicate a component so reader groups stop sharing
  it, at the price of area (Figure 3a→3c; partial privatization is the
  multi-reader-per-copy case of the same call),
- :func:`dependence_rotation` — rotate the pipeline latch around a
  single-stage loop so the hard violation moves somewhere privatization
  can fix, at no latency/area price (Figure 4a→4b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.component import (
    ComponentGraph,
    Edge,
    EdgeKind,
    LogicComponent,
)


@dataclass
class TransformRecord:
    """Cost and bookkeeping of one applied transformation."""

    kind: str
    target: str
    extra_latency: int = 0
    extra_area: float = 0.0
    new_components: List[str] = field(default_factory=list)
    note: str = ""


def cycle_split(
    graph: ComponentGraph,
    src: str,
    dst: str,
    adds_pipeline_stage: bool = True,
) -> Tuple[ComponentGraph, TransformRecord]:
    """Split the intra-cycle edge ``src -> dst`` across a pipeline latch.

    Args:
        graph: input design (not mutated).
        src, dst: endpoints of an existing COMB edge.
        adds_pipeline_stage: False when the split rides an existing latch
            boundary and costs no depth (e.g. the paper's inter-segment
            compaction, which "does not increase the pipeline depth").

    Returns:
        (new graph, record).  The record charges one stage of latency on
        the ``dst`` path when a stage is added.
    """
    edge = Edge(src, dst, EdgeKind.COMB)
    if edge not in graph.edges:
        raise ValueError(f"no intra-cycle edge {src} -> {dst}")
    g = graph.copy()
    g.edges.discard(edge)
    g.edges.add(Edge(src, dst, EdgeKind.LATCH))
    latency = 1 if adds_pipeline_stage else 0
    if latency:
        g.extra_latency[dst] = g.extra_latency.get(dst, 0) + 1
    rec = TransformRecord(
        kind="cycle_split",
        target=f"{src}->{dst}",
        extra_latency=latency,
    )
    g.transform_log.append(f"cycle_split {src}->{dst} (+{latency} stage)")
    return g, rec


def privatize(
    graph: ComponentGraph,
    target: str,
    reader_groups: Sequence[Sequence[str]],
    copy_area_factor: float = 1.0,
) -> Tuple[ComponentGraph, TransformRecord]:
    """Replicate ``target`` so each reader group reads a private copy.

    Full privatization passes one reader per group; *partial* privatization
    (Section 3.2.2's LCA/LCB example) passes several readers per group,
    trading isolation granularity for area.

    Args:
        graph: input design (not mutated).
        target: the shared component to replicate.
        reader_groups: disjoint groups covering every intra-cycle reader of
            ``target``; group *i* reads copy *i*.
        copy_area_factor: area of each copy relative to the original (the
            paper's half-ported rename-table copies cost 0.75 each, i.e.
            "50% more area" total for two copies).

    Returns:
        (new graph, record).  Copies are named ``{target}#i`` and inherit
        the original's inbound edges; the original is removed.
    """
    if target not in graph.components:
        raise KeyError(f"unknown component {target!r}")
    comb_readers = set(graph.readers_of(target, EdgeKind.COMB))
    listed = [r for grp in reader_groups for r in grp]
    if len(set(listed)) != len(listed):
        raise ValueError("reader groups overlap")
    if set(listed) != comb_readers:
        raise ValueError(
            f"reader groups {sorted(listed)} must cover exactly the "
            f"intra-cycle readers {sorted(comb_readers)}"
        )
    orig = graph.components[target]
    g = graph.copy()
    del g.components[target]
    inbound = [e for e in graph.edges if e.dst == target]
    outbound = [e for e in graph.edges if e.src == target]
    for e in inbound + outbound:
        g.edges.discard(e)

    copies: List[str] = []
    for i, grp in enumerate(reader_groups):
        cname = f"{target}#{i}"
        g.components[cname] = LogicComponent(
            name=cname,
            area=orig.area * copy_area_factor,
            kind=orig.kind,
            group=orig.group,
        )
        copies.append(cname)
        for e in inbound:
            g.edges.add(Edge(e.src, cname, e.kind))
        for reader in grp:
            g.edges.add(Edge(cname, reader, EdgeKind.COMB))
    # Latched readers keep working off copy 0 (any copy is equivalent
    # across a latch; isolation is unaffected).
    for e in outbound:
        if e.kind is EdgeKind.LATCH:
            g.edges.add(Edge(copies[0], e.dst, EdgeKind.LATCH))
    extra_area = orig.area * (copy_area_factor * len(reader_groups) - 1.0)
    rec = TransformRecord(
        kind="privatize",
        target=target,
        extra_area=extra_area,
        new_components=copies,
        note=f"{len(reader_groups)} copies, factor {copy_area_factor}",
    )
    g.transform_log.append(
        f"privatize {target} into {len(copies)} copies "
        f"(+{extra_area:.2f} area)"
    )
    return g, rec


def dependence_rotation(
    graph: ComponentGraph,
    around: Sequence[str],
    loop: Optional[Sequence[str]] = None,
) -> Tuple[ComponentGraph, TransformRecord]:
    """Rotate the pipeline latch around the components in ``around``.

    For every component C in ``around``: intra-cycle edges *into* C become
    latched (C now reads those signals from the pipeline latch) and latched
    edges *out of* C become intra-cycle (its former latch is gone; readers
    see it combinationally).  This is Figure 4a→4b with ``around=[LCC]``.

    Args:
        graph: input design (not mutated).
        around: components the latch rotates around.
        loop: when given, only edges whose other endpoint lies in ``loop``
            participate — the rotation is local to that single-stage loop
            and edges leaving the loop (e.g. issued instructions heading to
            the backend) keep their latches.

    Rotation adds no logic and no latency — it only moves the latch — but
    it must not create a combinational loop; that is validated here.
    """
    for name in around:
        if name not in graph.components:
            raise KeyError(f"unknown component {name!r}")
    targets = set(around)
    members = set(loop) if loop is not None else None
    g = graph.copy()

    def in_loop(other: str) -> bool:
        return members is None or other in members

    for e in list(g.edges):
        if (
            e.dst in targets
            and e.kind is EdgeKind.COMB
            and e.src not in targets
            and in_loop(e.src)
        ):
            g.edges.discard(e)
            g.edges.add(Edge(e.src, e.dst, EdgeKind.LATCH))
        elif (
            e.src in targets
            and e.kind is EdgeKind.LATCH
            and e.dst not in targets
            and in_loop(e.dst)
        ):
            g.edges.discard(e)
            g.edges.add(Edge(e.src, e.dst, EdgeKind.COMB))
    if not g.comb_is_acyclic():
        raise ValueError(
            f"rotating latch around {sorted(targets)} creates a "
            "combinational loop"
        )
    rec = TransformRecord(
        kind="dependence_rotation", target=",".join(sorted(targets))
    )
    g.transform_log.append(f"dependence_rotation around {sorted(targets)}")
    return g, rec
