"""Tests for the pipeline's occupancy/issue instrumentation."""

from repro.cpu import Core, MachineConfig
from repro.cpu.isa import Instr, OpClass
from repro.workloads import generate_trace, profile


def _alu_trace(n, deps=()):
    return [
        Instr(seq=i, op=OpClass.IALU, pc=0x1000 + 4 * i, deps=deps)
        for i in range(n)
    ]


class TestInstrumentation:
    def test_issue_rate_at_least_ipc(self):
        trace = generate_trace(profile("gzip"), 8_000)
        r = Core(MachineConfig(rescue=True), iter(trace)).run(8_000)
        # Replays issue an instruction more than once; nothing commits
        # without issuing.
        assert r.issued >= r.instructions

    def test_occupancy_bounded_by_capacity(self):
        cfg = MachineConfig(rescue=True)
        trace = generate_trace(profile("bzip2"), 6_000)
        r = Core(cfg, iter(trace)).run(6_000)
        cap = cfg.core.iq_int_size + cfg.core.iq_fp_size
        assert 0 <= r.iq_occupancy_sum <= cap * r.cycles

    def test_serial_chain_fills_queue(self):
        """A fully serial workload backs up the queue far more than an
        independent one at the same length."""
        serial = Core(
            MachineConfig(), iter(_alu_trace(5_000, deps=(1,)))
        ).run(5_000)
        parallel = Core(MachineConfig(), iter(_alu_trace(5_000))).run(5_000)
        assert (serial.iq_occupancy_sum / serial.cycles
                > parallel.iq_occupancy_sum / parallel.cycles)

    def test_issued_counts_commits_without_replay(self):
        r = Core(MachineConfig(), iter(_alu_trace(3_000))).run(3_000)
        # No replays or squashes on an independent ALU stream: every
        # instruction issues exactly once.
        assert r.replays == 0 and r.load_squashes == 0
        assert r.issued == r.instructions
