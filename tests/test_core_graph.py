"""Unit tests for component graphs, the ICI checker, and transformations.

The small graphs here mirror the paper's Figures 2, 3, and 4 so the
expected super-components are the ones the text describes.
"""

import pytest

from repro.core import (
    ComponentGraph,
    EdgeKind,
    check_granularity,
    cycle_split,
    dependence_rotation,
    ici_violations,
    privatize,
    super_components,
)


def figure_2b():
    """LCM -> latch -> {LCX, LCY} -> latch -> LCN (ICI-compliant)."""
    g = ComponentGraph("fig2b")
    for n in ("LCM", "LCX", "LCY", "LCN"):
        g.add(n)
    g.connect_latched("LCM", "LCX")
    g.connect_latched("LCM", "LCY")
    g.connect_latched("LCX", "LCN")
    g.connect_latched("LCY", "LCN")
    return g


def figure_3a():
    """LCX feeds LCY and LCZ in-cycle; LCW independent."""
    g = ComponentGraph("fig3a")
    for n in ("LCW", "LCX", "LCY", "LCZ"):
        g.add(n)
    g.connect("LCX", "LCY", EdgeKind.COMB)
    g.connect("LCX", "LCZ", EdgeKind.COMB)
    return g


def figure_4a():
    """Single-stage loop: LCA,LCB -> LCC (comb); LCC -> latch -> LCA,LCB."""
    g = ComponentGraph("fig4a")
    for n in ("LCA", "LCB", "LCC"):
        g.add(n)
    g.connect("LCA", "LCC", EdgeKind.COMB)
    g.connect("LCB", "LCC", EdgeKind.COMB)
    g.connect_latched("LCC", "LCA")
    g.connect_latched("LCC", "LCB")
    return g


class TestGraphBasics:
    def test_duplicate_component_rejected(self):
        g = ComponentGraph()
        g.add("a")
        with pytest.raises(ValueError):
            g.add("a")

    def test_unknown_edge_endpoint_rejected(self):
        g = ComponentGraph()
        g.add("a")
        with pytest.raises(KeyError):
            g.connect("a", "ghost")

    def test_comb_acyclicity(self):
        g = figure_4a()
        assert g.comb_is_acyclic()
        g.connect("LCC", "LCA", EdgeKind.COMB)
        assert not g.comb_is_acyclic()

    def test_copy_is_independent(self):
        g = figure_3a()
        h = g.copy()
        h.add("extra")
        assert "extra" not in g.components


class TestSuperComponents:
    def test_fully_latched_design_is_fully_isolated(self):
        supers = super_components(figure_2b())
        assert all(len(s) == 1 for s in supers)
        assert len(supers) == 4

    def test_figure_3a_supers(self):
        # LCX, LCY, LCZ merge; LCW stands alone.
        supers = super_components(figure_3a())
        assert frozenset({"LCX", "LCY", "LCZ"}) in supers
        assert frozenset({"LCW"}) in supers

    def test_figure_2b_violation_merges(self):
        """Paper's example: LCY reading LCX's output in-cycle makes the
        two indistinguishable."""
        g = figure_2b()
        g.connect("LCX", "LCY", EdgeKind.COMB)
        assert frozenset({"LCX", "LCY"}) in super_components(g)

    def test_ports_and_memories_do_not_merge(self):
        g = ComponentGraph()
        g.add("ram", kind="memory")
        g.add("a")
        g.add("b")
        g.connect("ram", "a", EdgeKind.COMB)
        g.connect("ram", "b", EdgeKind.COMB)
        supers = super_components(g)
        assert frozenset({"a"}) in supers and frozenset({"b"}) in supers


class TestChecker:
    def test_granularity_pass_and_fail(self):
        g = figure_3a()
        part_ok = {"LCX": "g1", "LCY": "g1", "LCZ": "g1", "LCW": "g2"}
        assert check_granularity(g, part_ok).satisfied
        part_bad = {"LCX": "g1", "LCY": "g1", "LCZ": "g2", "LCW": "g2"}
        report = check_granularity(g, part_bad)
        assert not report.satisfied
        assert len(report.spanning) == 1
        assert any("LCX" in e.src for e in report.violations)

    def test_violations_list_cross_group_comb_edges(self):
        g = figure_3a()
        part = {"LCX": "g1", "LCY": "g2", "LCZ": "g1", "LCW": "g1"}
        bad = ici_violations(g, part)
        assert [(e.src, e.dst) for e in bad] == [("LCX", "LCY")]

    def test_report_describe_mentions_edges(self):
        g = figure_3a()
        part = {"LCX": "g1", "LCY": "g2", "LCZ": "g3", "LCW": "g1"}
        text = check_granularity(g, part).describe()
        assert "violated" in text and "LCX" in text


class TestCycleSplit:
    def test_split_restores_ici(self):
        g = figure_3a()
        g2, rec = cycle_split(g, "LCX", "LCY")
        g3, _ = cycle_split(g2, "LCX", "LCZ")
        supers = super_components(g3)
        assert all(len(s) == 1 for s in supers)
        assert rec.extra_latency == 1

    def test_split_without_stage_costs_nothing(self):
        g = figure_3a()
        g2, rec = cycle_split(g, "LCX", "LCY", adds_pipeline_stage=False)
        assert rec.extra_latency == 0
        assert g2.extra_latency == {}

    def test_missing_edge_rejected(self):
        with pytest.raises(ValueError):
            cycle_split(figure_3a(), "LCY", "LCX")

    def test_original_graph_untouched(self):
        g = figure_3a()
        cycle_split(g, "LCX", "LCY")
        assert len(g.comb_edges()) == 2


class TestPrivatize:
    def test_full_privatization_figure_3c(self):
        g = figure_3a()
        g2, rec = privatize(g, "LCX", [["LCY"], ["LCZ"]])
        supers = super_components(g2)
        assert frozenset({"LCX#0", "LCY"}) in supers
        assert frozenset({"LCX#1", "LCZ"}) in supers
        assert rec.extra_area == pytest.approx(1.0)

    def test_partial_privatization(self):
        """Section 3.2.2: four readers, two copies, two super-components."""
        g = ComponentGraph()
        g.add("LCA")
        for n in ("LCC", "LCD", "LCE", "LCF"):
            g.add(n)
            g.connect("LCA", n, EdgeKind.COMB)
        g2, _ = privatize(g, "LCA", [["LCC", "LCD"], ["LCE", "LCF"]])
        supers = super_components(g2)
        assert frozenset({"LCA#0", "LCC", "LCD"}) in supers
        assert frozenset({"LCA#1", "LCE", "LCF"}) in supers

    def test_reader_groups_must_cover(self):
        g = figure_3a()
        with pytest.raises(ValueError, match="cover"):
            privatize(g, "LCX", [["LCY"]])

    def test_overlapping_groups_rejected(self):
        g = figure_3a()
        with pytest.raises(ValueError, match="overlap"):
            privatize(g, "LCX", [["LCY"], ["LCY", "LCZ"]])

    def test_copy_area_factor(self):
        g = figure_3a()
        g2, rec = privatize(g, "LCX", [["LCY"], ["LCZ"]],
                            copy_area_factor=0.75)
        assert rec.extra_area == pytest.approx(0.5)
        assert g2.components["LCX#0"].area == pytest.approx(0.75)

    def test_inbound_edges_inherited(self):
        g = figure_3a()
        g.add("up")
        g.connect_latched("up", "LCX")
        g2, _ = privatize(g, "LCX", [["LCY"], ["LCZ"]])
        assert "LCX#0" in g2.readers_of("up")
        assert "LCX#1" in g2.readers_of("up")


class TestDependenceRotation:
    def test_figure_4a_to_4b(self):
        g = figure_4a()
        g2, _ = dependence_rotation(g, ["LCC"])
        # LCC now reads LCA/LCB from a latch and drives them in-cycle.
        latched_in = sorted(e.src for e in g2.latch_edges() if e.dst == "LCC")
        assert latched_in == ["LCA", "LCB"]
        assert sorted(g2.readers_of("LCC", EdgeKind.COMB)) == ["LCA", "LCB"]

    def test_rotation_plus_privatization_restores_ici(self):
        g, _ = dependence_rotation(figure_4a(), ["LCC"])
        g2, _ = privatize(g, "LCC", [["LCA"], ["LCB"]])
        supers = super_components(g2)
        assert frozenset({"LCA", "LCC#0"}) in supers
        assert frozenset({"LCB", "LCC#1"}) in supers

    def test_loop_scoping_preserves_external_latches(self):
        g = figure_4a()
        g.add("backend")
        g.connect_latched("LCC", "backend")
        g2, _ = dependence_rotation(g, ["LCC"], loop=["LCA", "LCB"])
        # The latch toward the backend must survive the rotation.
        assert "backend" in g2.readers_of("LCC", EdgeKind.LATCH)
        assert "backend" not in g2.readers_of("LCC", EdgeKind.COMB)

    def test_rotation_rejects_combinational_loop(self):
        """A loop-scoped rotation that leaves an external comb reader in
        place can close a combinational cycle; it must be rejected."""
        g = ComponentGraph()
        for n in ("c", "x", "z"):
            g.add(n)
        g.connect_latched("c", "x")
        g.connect("x", "z", EdgeKind.COMB)
        g.connect("z", "c", EdgeKind.COMB)
        # Scoped to {x}: c->x becomes comb, but z->c stays comb (z is
        # outside the loop) giving c->x->z->c combinationally.
        with pytest.raises(ValueError, match="loop"):
            dependence_rotation(g, ["c"], loop=["x"])

    def test_rotation_costs_nothing(self):
        _, rec = dependence_rotation(figure_4a(), ["LCC"])
        assert rec.extra_latency == 0 and rec.extra_area == 0.0
