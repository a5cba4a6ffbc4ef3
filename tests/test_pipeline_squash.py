"""Adversarial squash/replay coverage for the pipeline.

The injection harness replays faulty executions through the speculative
load-wakeup squash path, the Rescue per-half replay path, and fetch
redirects — often in the same cycle.  These tests pin that behaviour:
completion, determinism, and (crucially for injection) that the
architectural value layer commits the identical value stream no matter
how often instructions are squashed and replayed on the way.
"""

from __future__ import annotations

import random

from repro.cpu import ArchState, Core, MachineConfig
from repro.cpu.isa import Instr, OpClass
from repro.yieldmodel.configs import CoreCounts


def _miss_chain(n, stride=0x400):
    """Loads with cache-hostile strides feeding dependent ALU ops:
    optimistic wakeups that turn out to be misses → load squashes."""
    out = []
    for i in range(n):
        if i % 2 == 0:
            out.append(
                Instr(seq=i, op=OpClass.LOAD, pc=0x1000 + 4 * i,
                      addr=(i * stride) % (1 << 22))
            )
        else:
            out.append(
                Instr(seq=i, op=OpClass.IALU, pc=0x1000 + 4 * i, deps=(1,))
            )
    return out


def _squash_and_redirect(n, seed=0):
    """Missing loads + dependents + poorly-predictable branches: load
    squashes and fetch redirects interleave in the same cycles."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        m = i % 4
        pc = 0x1000 + 4 * i
        if m == 0:
            out.append(
                Instr(seq=i, op=OpClass.LOAD, pc=pc,
                      addr=(i * 0x800) % (1 << 22))
            )
        elif m == 1:
            out.append(Instr(seq=i, op=OpClass.IALU, pc=pc, deps=(1,)))
        elif m == 2:
            out.append(
                Instr(seq=i, op=OpClass.BRANCH, pc=pc,
                      taken=rng.random() < 0.5, target=0x9000 + 8 * i)
            )
        else:
            out.append(Instr(seq=i, op=OpClass.IALU, pc=pc, deps=(2, 1)))
    return out


class TestLoadSquash:
    def test_miss_chain_squashes_and_completes(self):
        trace = _miss_chain(1200)
        r = Core(MachineConfig(rescue=True), iter(trace)).run(1200)
        assert r.instructions == 1200
        assert r.load_squashes > 0
        # Every squashed instruction eventually re-issues and commits.
        assert r.issued == r.instructions

    def test_squash_behaviour_identical_across_runs(self):
        trace = _miss_chain(1200)
        a = Core(MachineConfig(rescue=True), iter(trace)).run(1200)
        b = Core(MachineConfig(rescue=True), iter(trace)).run(1200)
        assert a == b

    def test_baseline_also_squashes(self):
        trace = _miss_chain(1200)
        r = Core(MachineConfig(rescue=False), iter(trace)).run(1200)
        assert r.instructions == 1200
        assert r.load_squashes > 0


class TestSquashPlusRedirect:
    def test_same_cycle_squash_and_redirect_completes(self):
        trace = _squash_and_redirect(1600)
        cfg = MachineConfig(rescue=True)
        r = Core(cfg, iter(trace)).run(1600)
        assert r.instructions == 1600
        assert r.load_squashes > 0
        assert r.bpred_accuracy < 1.0  # redirects actually happened

    def test_rescue_replay_path_exercised(self):
        # Bursty wakeups after cache misses fill both halves with ready
        # entries whose combined selection oversubscribes the backend,
        # forcing the paper's half-replay rule.
        from repro.workloads import generate_trace, profile

        trace = generate_trace(profile("gzip"), 1500, seed=7)
        r = Core(MachineConfig(rescue=True), iter(trace)).run(1500)
        assert r.instructions == 1500
        assert r.replays > 0

    def test_observation_contract_under_adversarial_trace(self):
        # The value layer must not perturb timing even when squash,
        # replay, and redirect paths all fire.
        trace = _squash_and_redirect(1600)
        cfg = MachineConfig(rescue=True)
        plain = Core(cfg, iter(trace)).run(1600)
        arch = ArchState(cfg)
        observed = Core(cfg, iter(trace), arch=arch).run(1600)
        assert plain == observed
        assert arch.commits == 1600

    def test_values_survive_squash_and_replay(self):
        # Committed values are a pure function of the trace: replaying
        # and squashing instructions must never double-apply or skip a
        # value computation.
        trace = _squash_and_redirect(1600, seed=3)
        logs = []
        for cfg in (
            MachineConfig(rescue=True),
            MachineConfig(rescue=False),
        ):
            arch = ArchState(cfg)
            r = Core(cfg, iter(trace), arch=arch).run(1600)
            assert r.instructions == 1600
            assert len(arch.log) == 1600
            logs.append(arch.log)
        assert logs[0] == logs[1]

    def test_store_forward_values_timing_independent(self):
        # Store→load forwarding in the LSQ vs reading the committed
        # memory image must produce the same loaded value.  Interleave
        # stores and loads to the same blocks at varying distances so
        # both paths are taken depending on machine timing.
        out = []
        for i in range(1200):
            m = i % 3
            pc = 0x1000 + 4 * i
            blk_addr = 0x100 * ((i // 3) % 7)
            if m == 0:
                out.append(
                    Instr(seq=i, op=OpClass.STORE, pc=pc, addr=blk_addr)
                )
            elif m == 1:
                out.append(
                    Instr(seq=i, op=OpClass.LOAD, pc=pc, addr=blk_addr)
                )
            else:
                out.append(Instr(seq=i, op=OpClass.IALU, pc=pc, deps=(1,)))
        logs = []
        for cfg in (
            MachineConfig(rescue=True),
            MachineConfig(rescue=True, counts=CoreCounts(lsq=1)),
            MachineConfig(rescue=False),
        ):
            arch = ArchState(cfg)
            Core(cfg, iter(out), arch=arch).run(1200)
            assert arch.commits == 1200
            logs.append(arch.log)
        assert logs[0] == logs[1] == logs[2]
