"""Unit tests for the issue queues and LSQ."""

import pytest

from repro.cpu.isa import Instr, OpClass
from repro.cpu.queues import (
    CompactingIssueQueue,
    LoadStoreQueue,
    SegmentedIssueQueue,
    combined_violates,
    replay_entries,
    resource_of,
)

ALWAYS = lambda instr, cycle: True
NEVER = lambda instr, cycle: False
LIMITS = {"slots": 4, "alu": 4, "mul": 2, "mem": 2}


def _ins(seq, op=OpClass.IALU):
    return Instr(seq=seq, op=op, pc=seq * 4)


class TestCompactingQueue:
    def test_insert_and_capacity(self):
        q = CompactingIssueQueue(size=2)
        q.insert(_ins(0), 0)
        q.insert(_ins(1), 0)
        assert not q.can_insert()
        with pytest.raises(RuntimeError):
            q.insert(_ins(2), 0)

    def test_select_oldest_first(self):
        q = CompactingIssueQueue(size=8)
        for s in range(6):
            q.insert(_ins(s), 0)
        sel = q.select(0, ALWAYS, LIMITS)
        assert [e.instr.seq for e in sel] == [0, 1, 2, 3]

    def test_resource_limit_skips_but_continues(self):
        q = CompactingIssueQueue(size=8)
        q.insert(_ins(0, OpClass.LOAD), 0)
        q.insert(_ins(1, OpClass.LOAD), 0)
        q.insert(_ins(2, OpClass.LOAD), 0)  # third load: no port
        q.insert(_ins(3, OpClass.IALU), 0)
        sel = q.select(0, ALWAYS, LIMITS)
        assert [e.instr.seq for e in sel] == [0, 1, 3]

    def test_slot_freed_after_issue_to_free(self):
        q = CompactingIssueQueue(size=1, issue_to_free=2)
        q.insert(_ins(0), 0)
        q.select(0, ALWAYS, LIMITS)
        q.tick(1)
        assert not q.can_insert()  # still held at issue+1
        q.tick(2)
        assert q.can_insert()

    def test_replay_unissues(self):
        q = CompactingIssueQueue(size=4)
        q.insert(_ins(0), 0)
        sel = q.select(0, ALWAYS, LIMITS)
        q.replay(sel)
        assert q.select(1, ALWAYS, LIMITS)  # selectable again

    def test_not_ready_not_selected(self):
        q = CompactingIssueQueue(size=4)
        q.insert(_ins(0), 0)
        assert q.select(0, NEVER, LIMITS) == []


class TestSegmentedQueue:
    def test_capacity_split(self):
        q = SegmentedIssueQueue(size=36, compaction_buffer=4)
        assert q.half_cap == 16
        assert q.buffer_cap == 4

    def test_insert_goes_to_new_half(self):
        q = SegmentedIssueQueue(size=12, compaction_buffer=2)
        q.insert(_ins(0), 0)
        assert q.new and not q.old

    def test_compaction_is_cycle_split(self):
        """New entries reach the old half only after the request latch and
        the temporary buffer: three ticks, not one."""
        q = SegmentedIssueQueue(size=12, compaction_buffer=2)
        q.insert(_ins(0), 0)
        q.tick(1)  # old half empty -> request latched; nothing moves yet
        assert q.new
        q.tick(2)  # request seen: entry moves new -> buffer
        assert q.buf
        q.tick(3)  # buffer -> old after a full cycle in the latch
        assert q.old

    def test_buffer_entries_not_selectable(self):
        q = SegmentedIssueQueue(size=12, compaction_buffer=2)
        q.insert(_ins(0), 0)
        q.tick(1)
        q.tick(2)  # entry now in buffer
        old_sel, new_sel = q.select_halves(2, ALWAYS, LIMITS)
        assert old_sel == [] and new_sel == []

    def test_both_halves_select_independently(self):
        q = SegmentedIssueQueue(size=12, compaction_buffer=2)
        q.insert(_ins(0), 0)
        for t in (1, 2, 3):
            q.tick(t)  # move seq 0 into the old half
        q.insert(_ins(1), 3)
        old_sel, new_sel = q.select_halves(3, ALWAYS, LIMITS)
        assert [e.instr.seq for e in old_sel] == [0]
        assert [e.instr.seq for e in new_sel] == [1]

    def test_degraded_single_half(self):
        q = SegmentedIssueQueue(size=12, compaction_buffer=2, halves=1)
        assert q.half_cap == 6  # half the original size (Section 4.1.3)
        q.insert(_ins(0), 0)
        old_sel, new_sel = q.select_halves(0, ALWAYS, LIMITS)
        assert [e.instr.seq for e in old_sel] == [0]
        assert new_sel == []

    def test_replay_blocks_reselection(self):
        q = SegmentedIssueQueue(size=12, compaction_buffer=2)
        q.insert(_ins(0), 0)
        _, new_sel = q.select_halves(0, ALWAYS, LIMITS)
        replay_entries(new_sel, 0, 2)
        _, again = q.select_halves(1, ALWAYS, LIMITS)
        assert again == []  # blocked at cycle 1
        _, later = q.select_halves(2, ALWAYS, LIMITS)
        assert [e.instr.seq for e in later] == [0]

    def test_invalid_halves_rejected(self):
        with pytest.raises(ValueError):
            SegmentedIssueQueue(size=12, halves=3)


class TestCombinedViolation:
    def test_detects_slot_oversubscription(self):
        a = [type("E", (), {"instr": _ins(i)})() for i in range(3)]
        b = [type("E", (), {"instr": _ins(10 + i)})() for i in range(2)]
        assert combined_violates(a, b, LIMITS)
        assert not combined_violates(a[:2], b, LIMITS)

    def test_detects_port_oversubscription(self):
        loads_a = [type("E", (), {"instr": _ins(0, OpClass.LOAD)})()]
        loads_b = [
            type("E", (), {"instr": _ins(1, OpClass.LOAD)})(),
            type("E", (), {"instr": _ins(2, OpClass.LOAD)})(),
        ]
        assert combined_violates(loads_a, loads_b, LIMITS)


class TestLsq:
    def test_capacity_and_halving(self):
        full = LoadStoreQueue(size=32, halves=2)
        half = LoadStoreQueue(size=32, halves=1)
        assert full.size == 32 and half.size == 16

    def test_forwarding_from_older_store(self):
        lsq = LoadStoreQueue(size=8, block=32)
        lsq.insert(1, True, 0x100)
        lsq.insert(2, False, 0x104)  # same 32B block, younger load
        assert lsq.forwards(2, 0x104)
        assert not lsq.forwards(2, 0x200)

    def test_no_forwarding_from_younger_store(self):
        lsq = LoadStoreQueue(size=8, block=32)
        lsq.insert(5, True, 0x100)
        assert not lsq.forwards(3, 0x100)

    def test_retire_drops_old_entries(self):
        lsq = LoadStoreQueue(size=4)
        lsq.insert(1, True, 0)
        lsq.insert(2, False, 64)
        lsq.retire_upto(1)
        assert len(lsq.entries) == 1

    def test_overflow_raises(self):
        lsq = LoadStoreQueue(size=2, halves=1)  # capacity 1
        lsq.insert(1, True, 0)
        with pytest.raises(RuntimeError):
            lsq.insert(2, False, 0)


class TestResourceMap:
    def test_all_ops_mapped(self):
        for op in OpClass:
            assert resource_of(op) in ("alu", "mul", "fadd", "fmul", "mem")
