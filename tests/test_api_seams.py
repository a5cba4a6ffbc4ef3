"""Final API-seam coverage: multi-chain timing, anchors, and exports."""

import pytest

from repro.netlist import GateType, NetBuilder
from repro.scan import insert_scan
from repro.yieldmodel import cores_per_chip
from repro.yieldmodel.pwp import FaultDensityModel


class TestMultiChainTiming:
    def _chain(self, n_flops=8):
        bld = NetBuilder()
        a = bld.nl.add_input("a")
        with bld.component("blk"):
            bld.register([bld.gate(GateType.BUF, a)] * n_flops, "r")
        return insert_scan(bld.nl)

    def test_more_chains_cut_test_time(self):
        chain = self._chain(8)
        one = chain.test_cycles(10, n_chains=1)
        four = chain.test_cycles(10, n_chains=4)
        assert four < one / 3

    def test_ceiling_division(self):
        chain = self._chain(7)
        # 7 cells across 4 chains: longest chain holds 2.
        assert chain.test_cycles(1, n_chains=4) == (1 + 1) * 2 + 1

    def test_invalid_chain_count(self):
        chain = self._chain(4)
        with pytest.raises(ValueError):
            chain.test_cycles(5, n_chains=0)


class TestScenarioAnchors:
    def test_65nm_scenario_counts(self):
        """The 65nm-stagnation scenario anchors two cores at 65nm."""
        assert cores_per_chip(65, 0.3, anchor_node_nm=65, anchor_cores=2) == 2
        far = cores_per_chip(18, 0.2, anchor_node_nm=65, anchor_cores=2)
        assert far > 2

    def test_the_scenario_sets_the_anchor(self):
        # The rule every caller used before it moved onto the scenario:
        # (90nm, 1 core) at 90nm stagnation, (65nm, 2 cores) otherwise.
        assert FaultDensityModel().anchor == (90.0, 1)
        assert FaultDensityModel(stagnation_node_nm=90).anchor == (90.0, 1)
        assert FaultDensityModel(stagnation_node_nm=65).anchor == (65.0, 2)
        for node in (90, 65, 45, 32, 22, 18):
            for growth in (0.2, 0.3, 0.4, 0.5):
                assert cores_per_chip(node, growth) == cores_per_chip(
                    node, growth, *FaultDensityModel().anchor
                )

    @pytest.mark.parametrize("stagnation,cores", [
        (90, [1, 1, 2, 4, 6, 7]),
        (65, [1, 2, 3, 5, 8, 10]),
    ])
    def test_campaign_model_and_cli_agree_on_cores(
        self, stagnation, cores, capsys
    ):
        """The ``montecarlo`` campaign, ``YatModel`` and ``repro yat``
        put the same number of cores on a chip (30% growth)."""
        from repro.cli import main
        from repro.runner.campaigns import (
            MonteCarloSpec,
            _montecarlo_state,
            analytic_penalty_table,
        )
        from repro.yieldmodel import YatModel

        nodes = (90, 65, 45, 32, 22, 18)
        model = YatModel(
            FaultDensityModel(stagnation_node_nm=stagnation), 0.3, 2.05,
            analytic_penalty_table(2.0),
        )
        assert [model.evaluate(n).cores for n in nodes] == cores
        assert [
            _montecarlo_state(MonteCarloSpec(
                node_nm=n, stagnation_node_nm=stagnation,
            ))["cores"]
            for n in nodes
        ] == cores
        assert main(["yat", "--stagnation", str(stagnation)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [int(row.split()[1]) for row in rows] == cores

    def test_density_scenarios_agree_before_divergence(self):
        a = FaultDensityModel(stagnation_node_nm=90)
        b = FaultDensityModel(stagnation_node_nm=65)
        assert a.density(90) == b.density(90)
        assert a.density(45) > b.density(45)


class TestBaselineVerilog:
    def test_baseline_model_exports_without_config_ports(self):
        from repro.netlist.verilog import to_verilog
        from repro.rtl import RtlParams, build_baseline_rtl
        from repro.scan import insert_scan as insert

        model = build_baseline_rtl(RtlParams.tiny())
        insert(model.netlist)
        text = to_verilog(model.netlist, module_name="baseline_core")
        assert "module baseline_core (" in text
        assert "fe_ok0" not in text  # fuses exist only in Rescue
