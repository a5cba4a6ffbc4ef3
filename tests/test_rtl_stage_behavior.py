"""Gate-level behavioural tests of individual Rescue pipeline stages.

These drive the netlist with the scalar simulator and check the
*microarchitectural semantics* of the transformed stages — the rename
table really maps registers, the compaction request really latches for a
cycle, the fault-map fuses really mask state updates — i.e. that the ICI
transformations preserved function, not just structure.
"""

import pytest

from tests.oracles import Simulator
from repro.rtl import RtlParams, build_rescue_rtl


@pytest.fixture(scope="module")
def model():
    return build_rescue_rtl(RtlParams.tiny())


def _pi(model, instrs=(None, None), valids=(0, 0), cfg_overrides=()):
    """Build a primary-input assignment for one cycle."""
    pi = {}
    for way, word in enumerate(model.instr_in):
        instr = instrs[way] or 0
        for i, net in enumerate(word):
            pi[net] = (instr >> i) & 1
    for way, v in enumerate(model.valid_in):
        pi[v] = valids[way]
    overrides = dict(cfg_overrides)
    for name, net in model.config_in.items():
        pi[net] = overrides.get(name, 1)
    return pi


def _encode(opcode, dest, src1, src2, areg_bits=2):
    return (
        opcode
        | (dest << 3)
        | (src1 << (3 + areg_bits))
        | (src2 << (3 + 2 * areg_bits))
    )


def _flops_named(model, prefix):
    return [
        f for f in model.netlist.flops if f.name.startswith(prefix)
    ]


def _word_value(state, flops):
    return sum(state[f.fid] << i for i, f in enumerate(flops))


class TestRenameStage:
    def test_table_copy_updates_on_valid_instruction(self, model):
        """A renamed destination must eventually rewrite its map entry in
        both table copies (kept coherent through the latched write
        ports)."""
        sim = Simulator(model.netlist)
        instr = _encode(0, dest=1, src1=2, src2=3)
        state = {}
        snapshots = []
        map_flops = [
            _flops_named(model, "map0_1["),
            _flops_named(model, "map1_1["),
        ]
        for cycle in range(14):
            pi = _pi(model, instrs=(instr, None), valids=(1, 0))
            _, _, state = sim.evaluate(pi, state)
            snapshots.append(
                tuple(_word_value(state, mf) for mf in map_flops)
            )
        # Entry 1's mapping changed from reset in both copies at some
        # point (tags cycle through 0, so check across the run), and the
        # two copies always agree (latched write ports keep coherence).
        assert any(s[0] != 0 for s in snapshots)
        assert any(s[1] != 0 for s in snapshots)
        assert all(s[0] == s[1] for s in snapshots)

    def test_disabled_way_cannot_write_tables(self, model):
        """With fe_ok1 = 0 and the instruction arriving on fetch slot 1
        (which only way 1 can serve), the rename must be dropped and the
        map tables stay clean (Section 4.4's selective write-port
        disable + Section 4.2 routing)."""
        sim = Simulator(model.netlist)
        instr = _encode(0, dest=2, src1=1, src2=1)
        state = {}
        map_flops = _flops_named(model, "map0_2[") + _flops_named(
            model, "map1_2["
        )
        for cycle in range(14):
            pi = _pi(
                model, instrs=(None, instr), valids=(0, 1),
                cfg_overrides={"fe_ok1": 0},
            )
            _, _, state = sim.evaluate(pi, state)
        assert all(state[f.fid] == 0 for f in map_flops)

    def test_routing_salvages_slot0_through_way1(self, model):
        """With fe_ok0 = 0 the fetch router steers slot 0's instruction
        through way 1: its rename must still reach the tables."""
        sim = Simulator(model.netlist)
        instr = _encode(0, dest=2, src1=1, src2=1)
        state = {}
        map_flops = [
            _flops_named(model, "map0_2["),
            _flops_named(model, "map1_2["),
        ]
        wrote = False
        for cycle in range(14):
            pi = _pi(
                model, instrs=(instr, None), valids=(1, 0),
                cfg_overrides={"fe_ok0": 0},
            )
            _, _, state = sim.evaluate(pi, state)
            if any(_word_value(state, mf) for mf in map_flops):
                wrote = True
        assert wrote


class TestIssueStage:
    def test_compaction_request_latches_for_one_cycle(self, model):
        """The old half's room request is visible to the new half exactly
        one cycle later — the cycle-split compaction of Section 4.1.2."""
        sim = Simulator(model.netlist)
        req_flop = _flops_named(model, "iq_request")[0]
        state = {}
        pi = _pi(model)  # empty machine: old half has room every cycle
        _, _, state = sim.evaluate(pi, state)
        # With an empty old half the request must be raised already.
        assert state[req_flop.fid] == 1

    def test_entries_flow_into_old_half(self, model):
        """Dependent instructions (src = own dest) wait in the queue and
        must migrate new -> temporary latch -> old half."""
        sim = Simulator(model.netlist)
        # Chain on register 1 so dispatched entries stay un-issued long
        # enough to be compacted toward the old half.
        instr = _encode(0, dest=1, src1=1, src2=1)
        state = {}
        old_valids = _flops_named(model, "iq_old_v")
        seen = False
        for cycle in range(20):
            pi = _pi(model, instrs=(instr, instr), valids=(1, 1))
            _, _, state = sim.evaluate(pi, state)
            if any(state[f.fid] for f in old_valids):
                seen = True
        assert seen


class TestWritebackStage:
    def test_results_reach_register_file(self, model):
        """ALU results write back into the per-way register file copies."""
        sim = Simulator(model.netlist)
        # Data values stay zero (XOR of zero registers), so writeback
        # activity is observed through the result-latch valid bits.
        instr = _encode(0, dest=1, src1=2, src2=3)
        state = {}
        res_valid = _flops_named(model, "res_v")
        seen_valid = False
        for cycle in range(16):
            pi = _pi(model, instrs=(instr, instr), valids=(1, 1))
            _, _, state = sim.evaluate(pi, state)
            if any(state[f.fid] for f in res_valid):
                seen_valid = True
        assert seen_valid

    def test_faulty_backend_blocks_writeback(self, model):
        """With be_ok1 = 0, backend way 1 must never produce a valid
        result (routing masks it)."""
        sim = Simulator(model.netlist)
        instr = _encode(0, dest=1, src1=2, src2=3)
        state = {}
        res1_valid = _flops_named(model, "res_v1")
        for cycle in range(20):
            pi = _pi(
                model, instrs=(instr, instr), valids=(1, 1),
                cfg_overrides={"be_ok1": 0},
            )
            _, _, state = sim.evaluate(pi, state)
            assert all(state[f.fid] == 0 for f in res1_valid)


class TestLsqStage:
    def test_memory_ops_enter_lsq(self, model):
        """Opcode 4 (memory) instructions allocate LSQ entries."""
        sim = Simulator(model.netlist)
        instr = _encode(4, dest=1, src1=2, src2=3)
        state = {}
        lsq_valids = _flops_named(model, "lsq0_v") + _flops_named(
            model, "lsq1_v"
        )
        for cycle in range(20):
            pi = _pi(model, instrs=(instr, instr), valids=(1, 1))
            _, _, state = sim.evaluate(pi, state)
        assert any(state[f.fid] for f in lsq_valids)

    def test_alu_ops_do_not_enter_lsq(self, model):
        sim = Simulator(model.netlist)
        instr = _encode(0, dest=1, src1=2, src2=3)
        state = {}
        lsq_valids = _flops_named(model, "lsq0_v") + _flops_named(
            model, "lsq1_v"
        )
        for cycle in range(20):
            pi = _pi(model, instrs=(instr, instr), valids=(1, 1))
            _, _, state = sim.evaluate(pi, state)
        assert not any(state[f.fid] for f in lsq_valids)
