"""Tests for the gate-level pipeline models and the isolation experiment.

The module-scoped fixtures run a random-only ATPG pass (PODEM capped) on
the tiny models once; individual tests share the setup.
"""

import pytest

from tests.oracles import Simulator
from repro.rtl import RtlParams, build_baseline_rtl, build_rescue_rtl
from repro.rtl.experiment import (
    generate_tests,
    isolation_experiment,
    scan_chain_table,
)


@pytest.fixture(scope="module")
def rescue_setup():
    model = build_rescue_rtl(RtlParams.tiny())
    return generate_tests(model, seed=0, max_deterministic=0)


@pytest.fixture(scope="module")
def baseline_setup():
    model = build_baseline_rtl(RtlParams.tiny())
    return generate_tests(model, seed=0, max_deterministic=0)


class TestModelStructure:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            RtlParams(issue_width=4)
        with pytest.raises(ValueError):
            RtlParams(xlen=0)

    def test_rescue_is_larger(self):
        base = build_baseline_rtl(RtlParams.tiny()).netlist.stats()
        resc = build_rescue_rtl(RtlParams.tiny()).netlist.stats()
        # Cycle splitting adds pipeline registers (paper Table 3 point 1).
        assert resc["flops"] > base["flops"]
        assert resc["gates"] > base["gates"]

    def test_blocks_present(self):
        model = build_rescue_rtl(RtlParams.tiny())
        blocks = set(model.blocks())
        assert {
            "chipkill", "frontend0", "frontend1", "iq_old", "iq_new",
            "backend0", "backend1", "lsq0", "lsq1",
        } <= blocks

    def test_baseline_has_shared_blocks(self):
        model = build_baseline_rtl(RtlParams.tiny())
        blocks = set(model.blocks())
        assert "rename_table" in blocks
        assert "lsq_insert" in blocks
        assert "iq_root" in blocks

    def test_netlists_validate(self):
        build_rescue_rtl(RtlParams.tiny()).netlist.validate()
        build_baseline_rtl(RtlParams.tiny()).netlist.validate()


class TestFunctionalSanity:
    """The models must behave like pipelines, not random logic."""

    def _run(self, model, cycles=25):
        sim = Simulator(model.netlist)
        # An ALU instruction (opcode 0): dest=1, src1=2, src2=3.
        instr = 0b0 | (1 << 3) | (2 << 5) | (3 << 7)
        pi = {}
        p = model.params
        for w, word in enumerate(model.instr_in):
            for i, net in enumerate(word):
                pi[net] = (instr >> i) & 1
        for v in model.valid_in:
            pi[v] = 1
        for net in model.config_in.values():
            pi[net] = 1  # all blocks healthy
        outs, state = sim.run_cycles([pi] * cycles)
        return model, sim, outs, state

    def test_rescue_commits_instructions(self):
        model, sim, outs, state = self._run(build_rescue_rtl(RtlParams.tiny()))
        # The commit head counter must have advanced from zero.
        head_flops = [
            f for f in model.netlist.flops if f.name.startswith("commit_head")
        ]
        head = sum(state[f.fid] << i for i, f in enumerate(head_flops))
        assert head > 0

    def test_baseline_commits_instructions(self):
        model, sim, outs, state = self._run(
            build_baseline_rtl(RtlParams.tiny())
        )
        head_flops = [
            f for f in model.netlist.flops if f.name.startswith("commit_head")
        ]
        head = sum(state[f.fid] << i for i, f in enumerate(head_flops))
        assert head > 0

    def test_rescue_degraded_frontend_still_commits(self):
        """With frontend way 0 mapped out, instructions route through
        way 1 and the machine still retires work."""
        model = build_rescue_rtl(RtlParams.tiny())
        sim = Simulator(model.netlist)
        instr = 0b0 | (1 << 3) | (2 << 5) | (3 << 7)
        pi = {}
        for word in model.instr_in:
            for i, net in enumerate(word):
                pi[net] = (instr >> i) & 1
        for v in model.valid_in:
            pi[v] = 1
        for name, net in model.config_in.items():
            pi[net] = 0 if name == "fe_ok0" else 1
        _, state = sim.run_cycles([pi] * 30)
        head_flops = [
            f for f in model.netlist.flops if f.name.startswith("commit_head")
        ]
        head = sum(state[f.fid] << i for i, f in enumerate(head_flops))
        assert head > 0

    def test_rescue_dead_frontends_commit_nothing(self):
        model = build_rescue_rtl(RtlParams.tiny())
        sim = Simulator(model.netlist)
        pi = {}
        instr = 0b0 | (1 << 3) | (2 << 5) | (3 << 7)
        for word in model.instr_in:
            for i, net in enumerate(word):
                pi[net] = (instr >> i) & 1
        for v in model.valid_in:
            pi[v] = 1
        for name, net in model.config_in.items():
            pi[net] = 0 if name.startswith("fe_ok") else 1
        _, state = sim.run_cycles([pi] * 30)
        head_flops = [
            f for f in model.netlist.flops if f.name.startswith("commit_head")
        ]
        head = sum(state[f.fid] << i for i, f in enumerate(head_flops))
        assert head == 0


class TestScanAndAtpg:
    def test_scan_chain_covers_all_flops(self, rescue_setup):
        assert len(rescue_setup.chain) == len(
            rescue_setup.model.netlist.flops
        )

    def test_random_patterns_detect_most_faults(self, rescue_setup):
        # Random-only coverage on datapath logic should already be high.
        assert rescue_setup.atpg.n_detected > (
            0.8 * rescue_setup.atpg.n_collapsed_faults
        )

    def test_table3_fields(self, rescue_setup):
        row = scan_chain_table(rescue_setup)
        assert set(row) == {
            "faults", "collapsed_faults", "cells", "vectors", "cycles",
            "coverage_pct",
        }
        assert row["cycles"] > row["vectors"] * row["cells"]

    def test_rescue_chain_longer_than_baseline(
        self, rescue_setup, baseline_setup
    ):
        assert len(rescue_setup.chain) > len(baseline_setup.chain)


class TestIsolation:
    def test_rescue_isolates_all_detected_faults(self, rescue_setup):
        stats = isolation_experiment(rescue_setup, n_faults=150, seed=3)
        assert stats.detected > 100
        assert stats.ambiguous == 0
        assert stats.wrong == 0
        assert stats.correct_rate == 1.0

    def test_baseline_shows_ambiguity(self, baseline_setup):
        stats = isolation_experiment(baseline_setup, n_faults=150, seed=3)
        assert stats.detected > 100
        # The whole point: without ICI, scan-bit lookup misattributes.
        assert stats.ambiguous + stats.wrong > 0

    def test_isolation_covers_multiple_blocks(self, rescue_setup):
        stats = isolation_experiment(rescue_setup, n_faults=200, seed=4)
        assert len(stats.by_block) >= 5

    def test_summary_text(self, rescue_setup):
        stats = isolation_experiment(rescue_setup, n_faults=50, seed=5)
        assert "isolated to the correct block" in stats.summary()
