"""Deterministic Pareto machinery: fronts, crowding, knee, total order.

DAVOS-style decision support needs a *reproducible* ranking, so every
step here is deterministic by construction:

- **Dominance** is evaluated on objective vectors normalized to
  "higher is better" (minimized objectives are negated before entry);
  ``a`` dominates ``b`` iff ``a`` is no worse in every objective and
  strictly better in at least one.
- **Non-dominated sorting** (NSGA-II's fast variant) peels fronts in
  input order; within a front, members keep the caller's item order.
- **Crowding distance** sorts each objective with the item *key* as the
  tie-break, so equal objective values cannot make the result depend on
  dict iteration or sort instability.  Boundary members get ``inf``.
- **Knee point** = the front-0 member with the largest *finite*
  crowding distance (the classic "best trade-off away from the
  extremes" heuristic); ties and the all-boundary case fall back to the
  smallest key.
- **Total ranking** sorts by ``(front index, -crowding distance, key)``
  — a strict total order over all items for any input permutation.

Keys can be any ordered, hashable values (the decide campaign uses
``CoreCounts.key()`` tuples).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import Dict, List, Mapping, Sequence, Tuple

Key = Tuple[int, ...]
Vector = Tuple[float, ...]


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True iff ``a`` Pareto-dominates ``b`` (all >=, at least one >).

    Vectors must already be oriented "higher is better" in every
    component (negate minimized objectives before calling).
    """
    if len(a) != len(b):
        raise ValueError("objective vectors differ in length")
    better = False
    for x, y in zip(a, b):
        if x < y:
            return False
        if x > y:
            better = True
    return better


def non_dominated_fronts(
    items: Sequence[Tuple[Key, Vector]]
) -> List[List[Key]]:
    """Peel ``items`` into Pareto fronts (front 0 = non-dominated).

    Deterministic: fronts and the order of keys inside each front
    depend only on the *set* of (key, vector) pairs — internally items
    are processed in sorted-key order, so any input permutation yields
    the same output.
    """
    ordered = sorted(items, key=lambda kv: kv[0])
    n = len(ordered)
    dominated_by = [0] * n  # how many items dominate item i
    dominating: List[List[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if dominates(ordered[i][1], ordered[j][1]):
                dominating[i].append(j)
                dominated_by[j] += 1
            elif dominates(ordered[j][1], ordered[i][1]):
                dominating[j].append(i)
                dominated_by[i] += 1
    fronts: List[List[Key]] = []
    current = [i for i in range(n) if dominated_by[i] == 0]
    while current:
        fronts.append([ordered[i][0] for i in current])
        nxt = []
        for i in current:
            for j in dominating[i]:
                dominated_by[j] -= 1
                if dominated_by[j] == 0:
                    nxt.append(j)
        current = sorted(nxt)
    return fronts


def crowding_distances(
    members: Sequence[Key], vectors: Mapping[Key, Vector]
) -> Dict[Key, float]:
    """NSGA-II crowding distance of each member within one front.

    Each objective's contribution is the normalized gap between a
    member's neighbours in that objective's sorted order; the extreme
    members of every objective get ``inf``.  Sorting ties break on the
    member key, never on input order.
    """
    out: Dict[Key, float] = {k: 0.0 for k in members}
    if not members:
        return out
    n_obj = len(next(iter(vectors.values())))
    if len(members) <= 2:
        return {k: inf for k in members}
    for obj in range(n_obj):
        ranked = sorted(members, key=lambda k: (vectors[k][obj], k))
        lo = vectors[ranked[0]][obj]
        hi = vectors[ranked[-1]][obj]
        out[ranked[0]] = out[ranked[-1]] = inf
        span = hi - lo
        if span <= 0.0:
            continue
        for idx in range(1, len(ranked) - 1):
            k = ranked[idx]
            if out[k] == inf:
                continue
            gap = (
                vectors[ranked[idx + 1]][obj]
                - vectors[ranked[idx - 1]][obj]
            )
            out[k] += gap / span
    return out


@dataclass
class ParetoRanking:
    """The full decision-support ordering over a set of keyed vectors."""

    fronts: List[List[Key]] = field(default_factory=list)
    crowding: Dict[Key, float] = field(default_factory=dict)
    order: List[Key] = field(default_factory=list)  # strict total order
    knee: Key = ()

    @property
    def front(self) -> List[Key]:
        """The Pareto-optimal set, in total-ranking order."""
        if not self.fronts:
            return []
        first = set(self.fronts[0])
        return [k for k in self.order if k in first]


def rank(items: Mapping[Key, Vector]) -> ParetoRanking:
    """Rank every item: fronts, crowding, knee, and a stable total order.

    Input vectors must be oriented "higher is better".  The result is
    bit-identical for any iteration order of ``items`` — the decide
    campaign's worker-count-invariance rests on this plus the merged
    objective values themselves being deterministic.
    """
    pairs = sorted(items.items())
    fronts = non_dominated_fronts(pairs)
    crowding: Dict[Key, float] = {}
    for members in fronts:
        crowding.update(crowding_distances(members, items))
    order: List[Key] = []
    for members in fronts:
        order.extend(
            sorted(members, key=lambda k: (-crowding[k], k))
        )
    knee: Key = ()
    if fronts:
        interior = [
            k for k in fronts[0] if crowding[k] != inf
        ]
        if interior:
            knee = min(
                interior, key=lambda k: (-crowding[k], k)
            )
        else:
            knee = min(fronts[0])
    return ParetoRanking(
        fronts=fronts, crowding=crowding, order=order, knee=knee
    )
