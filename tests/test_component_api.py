"""Coverage for the ComponentGraph query API and MachineConfig knobs."""

import pytest

from repro.core import ComponentGraph, EdgeKind
from repro.cpu import MachineConfig
from repro.yieldmodel.configs import CoreCounts


class TestGraphQueries:
    def _graph(self):
        g = ComponentGraph("q")
        g.add("a", area=2.0, group="g1")
        g.add("b", area=3.0, group="g1")
        g.add("ram", area=10.0, kind="memory")
        g.add("pc", area=1.0, kind="chipkill", group="ck")
        g.connect("a", "b", EdgeKind.COMB)
        g.connect_latched("b", "a")
        g.connect("ram", "a", EdgeKind.COMB)
        return g

    def test_readers_and_sources(self):
        g = self._graph()
        assert g.readers_of("a") == ["b"]
        assert g.readers_of("a", EdgeKind.COMB) == ["b"]
        assert g.readers_of("b", EdgeKind.LATCH) == ["a"]
        assert [e.src for e in g.comb_edges() if e.dst == "a"] == ["ram"]

    def test_logic_components_exclude_memory(self):
        g = self._graph()
        assert g.logic_components() == ["a", "b", "pc"]

    def test_total_area_by_kind(self):
        g = self._graph()
        assert g.total_area() == pytest.approx(16.0)
        assert g.total_area(kinds=("memory",)) == pytest.approx(10.0)
        assert g.total_area(kinds=("logic",)) == pytest.approx(5.0)

    def test_groups_listing(self):
        g = self._graph()
        groups = g.groups()
        assert groups["g1"] == ["a", "b"]
        assert groups["ck"] == ["pc"]

    def test_set_group(self):
        g = self._graph()
        g.set_group("a", "other")
        assert g.components["a"].group == "other"

    def test_kind_validation_on_counts(self):
        g = ComponentGraph()
        g.add("x")
        with pytest.raises(ValueError):
            g.add("x")


class TestMachineConfigKnobs:
    def test_full_machine_resources(self):
        cfg = MachineConfig()
        assert cfg.fetch_width == 4
        assert cfg.int_issue_limit == 4
        assert cfg.fp_issue_limit == 4
        assert cfg.int_alus == 4
        assert cfg.mem_ports == 2
        assert cfg.iq_int_size == 36
        assert cfg.lsq_size == 32

    def test_degraded_resources_halve(self):
        cfg = MachineConfig(
            rescue=True,
            counts=CoreCounts(int_backend=1, fp_backend=1, iq_fp=1, lsq=1),
        )
        assert cfg.int_alus == 2
        assert cfg.int_muls == 1
        assert cfg.fp_adds == 1
        assert cfg.iq_fp_size == 18
        assert cfg.lsq_size == 16

    def test_tech_scaling_knobs(self):
        near = MachineConfig()
        far = MachineConfig(tech_generations=2)
        assert far.mispredict_penalty == near.mispredict_penalty + 4
        assert far.mem_latency > near.mem_latency

    def test_issue_to_free_difference(self):
        assert MachineConfig(rescue=False).issue_to_free == 2
        assert MachineConfig(rescue=True).issue_to_free == 3

    def test_replay_policy_validation(self):
        with pytest.raises(ValueError):
            MachineConfig(replay_policy="magic")

    def test_compaction_buffer_validation(self):
        with pytest.raises(ValueError):
            MachineConfig(compaction_buffer=0)
