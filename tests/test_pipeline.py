"""Integration tests for the cycle-level core model."""

import pytest

from repro.cpu import Core, MachineConfig
from repro.cpu.isa import Instr, OpClass
from repro.workloads import generate_trace, profile
from repro.yieldmodel.configs import CoreCounts


def _alu_trace(n, deps=()):
    return [
        Instr(seq=i, op=OpClass.IALU, pc=0x1000 + 4 * i, deps=deps)
        for i in range(n)
    ]


class TestBasicExecution:
    def test_independent_alu_reaches_width(self):
        trace = _alu_trace(4000)
        r = Core(MachineConfig(), iter(trace)).run(4000)
        assert r.instructions == 4000
        assert r.ipc > 3.0  # 4-wide machine, no hazards

    def test_serial_chain_limits_ipc_to_one(self):
        trace = _alu_trace(3000, deps=(1,))
        r = Core(MachineConfig(), iter(trace)).run(3000)
        assert 0.8 < r.ipc <= 1.05

    def test_all_instructions_commit(self):
        trace = generate_trace(profile("gzip"), 3000)
        r = Core(MachineConfig(), iter(trace)).run(3000)
        assert r.instructions == 3000

    def test_trace_exhaustion_drains(self):
        trace = _alu_trace(100)
        r = Core(MachineConfig(), iter(trace)).run(10_000)
        assert r.instructions == 100

    def test_load_latency_visible(self):
        """A chain through loads runs slower than an ALU chain."""
        alu = _alu_trace(2000, deps=(1,))
        loads = [
            Instr(seq=i, op=OpClass.LOAD, pc=0x1000, deps=(1,), addr=0x40)
            for i in range(2000)
        ]
        r_alu = Core(MachineConfig(), iter(alu)).run(2000)
        r_ld = Core(MachineConfig(), iter(loads)).run(2000)
        assert r_ld.ipc < r_alu.ipc / 1.5

    def test_mispredict_penalty_costs_cycles(self):
        def trace(n):
            out = []
            import random
            rng = random.Random(0)
            for i in range(n):
                if i % 8 == 7:
                    out.append(Instr(seq=i, op=OpClass.BRANCH, pc=0x1000,
                                     taken=rng.random() < 0.5,
                                     target=0x2000))
                else:
                    out.append(Instr(seq=i, op=OpClass.IALU,
                                     pc=0x1000 + 4 * i))
            return out
        short = Core(MachineConfig(), iter(trace(4000))).run(4000)
        import dataclasses
        from repro.cpu.params import CoreParams
        slow_cfg = MachineConfig(
            core=CoreParams(mispredict_penalty=40)
        )
        long_pen = Core(slow_cfg, iter(trace(4000))).run(4000)
        assert long_pen.ipc < short.ipc

    def test_identical_runs_are_deterministic(self):
        trace = generate_trace(profile("vpr"), 4000)
        a = Core(MachineConfig(), iter(trace)).run(4000)
        b = Core(MachineConfig(), iter(trace)).run(4000)
        assert a.cycles == b.cycles and a.ipc == b.ipc


class TestRescueVsBaseline:
    def test_rescue_close_to_baseline(self):
        """The ICI transformations cost a few percent, not tens."""
        trace = generate_trace(profile("crafty"), 12_000)
        base = Core(MachineConfig(rescue=False), iter(trace)).run(12_000)
        resc = Core(MachineConfig(rescue=True), iter(trace)).run(12_000)
        assert resc.ipc > 0.8 * base.ipc
        assert resc.ipc < 1.1 * base.ipc

    def test_rescue_uses_segmented_queue(self):
        from repro.cpu.queues import SegmentedIssueQueue

        core = Core(MachineConfig(rescue=True), iter([]))
        assert isinstance(core.iq_int, SegmentedIssueQueue)

    def test_rescue_mispredict_penalty_is_plus_two(self):
        assert (
            MachineConfig(rescue=True).mispredict_penalty
            == MachineConfig(rescue=False).mispredict_penalty + 2
        )


class TestDegradedConfigs:
    def _ipc(self, **degr):
        """IPC on a width-bound workload (independent ALU ops), where
        losing pipeline ways must show directly."""
        trace = _alu_trace(8_000)
        cfg = MachineConfig(rescue=True, counts=CoreCounts(**degr))
        return Core(cfg, iter(trace)).run(8_000, warmup=1_000).ipc

    def test_half_frontend_halves_throughput(self):
        full = self._ipc()
        half = self._ipc(frontend=1)
        assert half < 0.7 * full
        assert half > 1.5  # still a 2-wide machine

    def test_half_int_backend_hurts(self):
        assert self._ipc(int_backend=1) < 0.8 * self._ipc()

    def test_half_iq_hurts_little(self):
        """Issue-queue halving costs far less than losing ways — the
        asymmetry Rescue's YAT advantage rides on."""
        full = self._ipc()
        half = self._ipc(iq_int=1)
        assert half > 0.7 * full

    def test_fp_degradation_ignored_by_int_code(self):
        full = self._ipc()
        no_fp = self._ipc(fp_backend=1, iq_fp=1)
        assert no_fp > 0.95 * full

    def test_invalid_group_count_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(rescue=True, counts=CoreCounts(frontend=0))

    def test_width_scales_with_groups(self):
        cfg = MachineConfig(
            rescue=True, counts=CoreCounts(frontend=1, int_backend=1)
        )
        assert cfg.fetch_width == 2
        assert cfg.int_issue_limit == 2
        assert cfg.mem_ports == 1
