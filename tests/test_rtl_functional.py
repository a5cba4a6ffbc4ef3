"""Functional cross-validation of the gate-level pipelines.

The baseline and Rescue netlists implement the same architectural
behaviour on different microarchitectures; under a common instruction
stream both must make steady forward progress, and Rescue's extra
pipeline stages shift — but never stop — its commit stream.
"""

import random

import pytest

from tests.oracles import Simulator
from repro.rtl import RtlParams, build_baseline_rtl, build_rescue_rtl


def _drive(model, cycles, seed=9, valid_prob=0.9):
    """Feed a random but per-seed identical instruction stream."""
    rng = random.Random(seed)
    sim = Simulator(model.netlist)
    state = {}
    heads = []
    head_flops = [
        f for f in model.netlist.flops if f.name.startswith("commit_head")
    ]
    for _ in range(cycles):
        pi = {}
        for word in model.instr_in:
            instr = (
                rng.randrange(4)            # ALU opcodes only
                | (rng.randrange(4) << 3)   # dest
                | (rng.randrange(4) << 5)   # src1
                | (rng.randrange(4) << 7)   # src2
            )
            for i, net in enumerate(word):
                pi[net] = (instr >> i) & 1
        for v in model.valid_in:
            pi[v] = int(rng.random() < valid_prob)
        for net in model.config_in.values():
            pi[net] = 1
        _, _, state = sim.evaluate(pi, state)
        heads.append(
            sum(state[f.fid] << i for i, f in enumerate(head_flops))
        )
    return heads


class TestFunctionalCrossValidation:
    def test_both_models_make_steady_progress(self):
        cycles = 60
        base = _drive(build_baseline_rtl(RtlParams.tiny()), cycles)
        resc = _drive(build_rescue_rtl(RtlParams.tiny()), cycles)
        modulus = 1 << RtlParams.tiny().xlen

        def total(heads):
            # Unwrap the modular counter.
            commits = 0
            prev = 0
            for h in heads:
                commits += (h - prev) % modulus
                prev = h
            return commits

        base_total = total(base)
        resc_total = total(resc)
        assert base_total > cycles // 4
        assert resc_total > cycles // 4
        # Same stream, same machine width: totals in the same ballpark.
        assert resc_total == pytest.approx(base_total, rel=0.5)

    def test_rescue_pipeline_is_deeper(self):
        """First commit happens later on Rescue (extra route/rename
        stages)."""
        base = _drive(build_baseline_rtl(RtlParams.tiny()), 40)
        resc = _drive(build_rescue_rtl(RtlParams.tiny()), 40)

        def first_commit(heads):
            for i, h in enumerate(heads):
                if h:
                    return i
            return len(heads)

        assert first_commit(resc) > first_commit(base)

    def test_invalid_stream_commits_nothing(self):
        model = build_rescue_rtl(RtlParams.tiny())
        heads = _drive(model, 30, valid_prob=0.0)
        assert heads[-1] == 0
