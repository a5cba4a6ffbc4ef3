"""Hypothesis properties for the ICI transformations (Section 3.2).

The Rescue component graph (:func:`repro.core.build_rescue_graph`) is
built by applying these transformations, which trusts that each one is
*safe*: it discharges (or at least never worsens) the targeted
violation, keeps every other component's connectivity intact, and
accounts its own cost honestly.  These properties pin that contract
down over randomized grouped graphs rather than hand-picked examples:

- ``cycle_split`` discharges exactly the split edge and never
  introduces a new ICI violation;
- ``privatize`` preserves reader coverage, group labels, and charges
  exactly the copy area it reports;
- ``dependence_rotation`` moves latches without creating or destroying
  components or changing total area.
"""

import random as pyrandom

from hypothesis import given, settings, strategies as st

from repro.core import (
    ComponentGraph,
    EdgeKind,
    cycle_split,
    dependence_rotation,
    privatize,
)
from repro.core.checker import ici_violations


def _grouped_graph(seed: int, n: int, n_edges: int) -> ComponentGraph:
    """Random acyclic graph whose components carry map-out groups."""
    rng = pyrandom.Random(seed)
    g = ComponentGraph(f"prop{seed}")
    names = [f"c{i}" for i in range(n)]
    for i, name in enumerate(names):
        g.add(name, area=1.0 + (i % 3), group=f"g{rng.randrange(3)}")
    # Forward edges only (i < j): acyclic by construction.
    for _ in range(n_edges):
        i, j = sorted(rng.sample(range(n), 2))
        kind = rng.choice([EdgeKind.COMB, EdgeKind.LATCH])
        g.connect(names[i], names[j], kind)
    return g


def _vset(graph):
    return {(e.src, e.dst) for e in ici_violations(graph)}


graph_args = dict(
    seed=st.integers(0, 5000),
    n=st.integers(3, 8),
    n_edges=st.integers(1, 14),
)


class TestCycleSplitProperties:
    @given(data=st.data(), **graph_args)
    @settings(max_examples=50, deadline=None)
    def test_discharges_target_and_adds_no_violation(
        self, data, seed, n, n_edges
    ):
        g = _grouped_graph(seed, n, n_edges)
        violations = ici_violations(g)
        if not violations:
            return
        edge = data.draw(st.sampled_from(violations))
        before = _vset(g)
        g2, rec = cycle_split(g, edge.src, edge.dst)
        after = _vset(g2)
        assert (edge.src, edge.dst) not in after
        assert after <= before - {(edge.src, edge.dst)}
        # Cost accounting: no area, exactly the claimed latency, and
        # the component set is untouched.
        assert rec.extra_area == 0.0
        assert g2.total_area() == g.total_area()
        assert set(g2.components) == set(g.components)
        assert g2.comb_is_acyclic()

    @given(data=st.data(), **graph_args)
    @settings(max_examples=50, deadline=None)
    def test_split_is_idempotent_on_violation_count(
        self, data, seed, n, n_edges
    ):
        # Splitting every violation one by one always terminates clean:
        # each step strictly shrinks the violation set.
        g = _grouped_graph(seed, n, n_edges)
        guard = 0
        while True:
            violations = ici_violations(g)
            if not violations:
                break
            count = len(violations)
            edge = data.draw(st.sampled_from(violations))
            g, _ = cycle_split(g, edge.src, edge.dst)
            assert len(ici_violations(g)) < count
            guard += 1
            assert guard <= 14 * 2  # n_edges bound: must terminate


class TestPrivatizeProperties:
    @given(data=st.data(), **graph_args)
    @settings(max_examples=50, deadline=None)
    def test_reader_coverage_and_area_accounting(
        self, data, seed, n, n_edges
    ):
        g = _grouped_graph(seed, n, n_edges)
        shared = [
            name for name in g.logic_components()
            if len(g.readers_of(name, EdgeKind.COMB)) >= 2
        ]
        if not shared:
            return
        target = data.draw(st.sampled_from(sorted(shared)))
        readers = g.readers_of(target, EdgeKind.COMB)
        factor = data.draw(
            st.floats(0.5, 1.5, allow_nan=False, allow_infinity=False)
        )
        g2, rec = privatize(
            g, target, [[r] for r in readers], copy_area_factor=factor
        )
        # The original is gone; each reader has a private copy carrying
        # the original's group.
        assert target not in g2.components
        orig_group = g.components[target].group
        for i, reader in enumerate(readers):
            copy = f"{target}#{i}"
            assert copy in g2.components
            assert g2.components[copy].group == orig_group
            assert reader in g2.readers_of(copy, EdgeKind.COMB)
        # Area delta equals the record's claim exactly.
        delta = g2.total_area() - g.total_area()
        assert abs(delta - rec.extra_area) < 1e-9
        assert rec.extra_latency == 0

    @given(data=st.data(), **graph_args)
    @settings(max_examples=30, deadline=None)
    def test_privatize_never_adds_cross_group_violations(
        self, data, seed, n, n_edges
    ):
        # Copies inherit the original's group, so privatization alone
        # (before re-homing) cannot create a violation pair that was
        # not already present between the original and that reader.
        g = _grouped_graph(seed, n, n_edges)
        shared = [
            name for name in g.logic_components()
            if len(g.readers_of(name, EdgeKind.COMB)) >= 2
        ]
        if not shared:
            return
        target = data.draw(st.sampled_from(sorted(shared)))
        readers = g.readers_of(target, EdgeKind.COMB)
        before_pairs = {
            (g.components[e.src].group, g.components[e.dst].group)
            for e in ici_violations(g)
        }
        g2, _ = privatize(g, target, [[r] for r in readers])
        after_pairs = {
            (g2.components[e.src].group, g2.components[e.dst].group)
            for e in ici_violations(g2)
        }
        assert after_pairs <= before_pairs


class TestDependenceRotationProperties:
    @given(data=st.data(), **graph_args)
    @settings(max_examples=50, deadline=None)
    def test_rotation_moves_latches_only(self, data, seed, n, n_edges):
        g = _grouped_graph(seed, n, n_edges)
        candidates = sorted(
            {e.dst for e in g.comb_edges()}
        )
        if not candidates:
            return
        around = data.draw(st.sampled_from(candidates))
        try:
            g2, rec = dependence_rotation(g, [around])
        except ValueError:
            return  # rotation would create a comb loop: legal refusal
        # No component appears or disappears; no area, no latency.
        assert set(g2.components) == set(g.components)
        assert g2.total_area() == g.total_area()
        assert rec.extra_area == 0.0 and rec.extra_latency == 0
        # Edge multiset is preserved up to kind flips around the target.
        assert {(e.src, e.dst) for e in g2.edges} == {
            (e.src, e.dst) for e in g.edges
        }
        # Every comb edge into the target became latched.
        assert not [
            e for e in g2.comb_edges() if e.dst == around
        ]
        assert g2.comb_is_acyclic()
