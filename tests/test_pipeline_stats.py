"""Tests for the pipeline's issue/replay statistics."""

from repro.cpu import Core, MachineConfig
from repro.cpu.isa import Instr, OpClass
from repro.workloads import generate_trace, profile


def _alu_trace(n):
    return [Instr(seq=i, op=OpClass.IALU, pc=0x1000 + 4 * i) for i in range(n)]


class TestInstrumentation:
    def test_issue_rate_at_least_ipc(self):
        trace = generate_trace(profile("gzip"), 8_000)
        r = Core(MachineConfig(rescue=True), iter(trace)).run(8_000)
        # Replays issue an instruction more than once; nothing commits
        # without issuing.
        assert r.issued >= r.instructions

    def test_issued_counts_commits_without_replay(self):
        r = Core(MachineConfig(), iter(_alu_trace(3_000))).run(3_000)
        # No replays or squashes on an independent ALU stream: every
        # instruction issues exactly once.
        assert r.replays == 0 and r.load_squashes == 0
        assert r.issued == r.instructions
