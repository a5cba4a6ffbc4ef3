"""Property tests for the Rescue segmented issue queue."""

from hypothesis import given, settings, strategies as st

from repro.cpu.isa import Instr, OpClass
from repro.cpu.queues import SegmentedIssueQueue, replay_entries

LIMITS = {"slots": 2, "alu": 2, "mul": 1, "mem": 1}


@given(
    size=st.integers(6, 20),
    buf=st.integers(1, 4),
    ops=st.lists(st.integers(0, 2), max_size=80),
)
@settings(max_examples=50, deadline=None)
def test_segment_capacities_respected(size, buf, ops):
    """Under arbitrary insert/select/tick interleavings: the old half,
    buffer, and new half never exceed their capacities, and total entries
    never exceed the queue's resources."""
    if size - buf < 2:
        return
    q = SegmentedIssueQueue(size=size, compaction_buffer=buf)
    cycle = 0
    inserted = 0
    for op in ops:
        if op == 0 and q.can_insert():
            q.insert(Instr(seq=inserted, op=OpClass.IALU, pc=0), cycle)
            inserted += 1
        elif op == 1:
            q.select_halves(cycle, lambda i, c: True, LIMITS)
        else:
            cycle += 1
            q.tick(cycle)
        assert len(q.old) <= q.half_cap
        assert len(q.buf) <= q.buffer_cap
        assert len(q.new) <= q.half_cap
        assert len(q.entries) <= q.size


@given(
    n_insert=st.integers(1, 10),
    ticks=st.integers(0, 30),
)
@settings(max_examples=50, deadline=None)
def test_age_order_preserved_through_compaction(n_insert, ticks):
    """Entries drain new→buffer→old strictly oldest-first: at any time
    every old-half entry is older than every buffer entry, which is older
    than every new-half entry."""
    q = SegmentedIssueQueue(size=12, compaction_buffer=2)
    for s in range(n_insert):
        if q.can_insert():
            q.insert(Instr(seq=s, op=OpClass.IALU, pc=0), 0)
    for t in range(1, ticks + 1):
        q.tick(t)
        old = [e.instr.seq for e in q.old]
        buf = [e.instr.seq for e in q.buf]
        new = [e.instr.seq for e in q.new]
        if old and buf:
            assert max(old) < min(buf)
        if buf and new:
            assert max(buf) < min(new)
        if old and new and not buf:
            assert max(old) < min(new)


@given(ticks=st.integers(3, 40))
@settings(max_examples=30, deadline=None)
def test_everything_eventually_reaches_old_half(ticks):
    """With no selection pressure, compaction drains all entries into the
    old half within a bounded number of cycles."""
    q = SegmentedIssueQueue(size=12, compaction_buffer=2)
    n = 5
    for s in range(n):
        q.insert(Instr(seq=s, op=OpClass.IALU, pc=0), 0)
    for t in range(1, ticks + 1):
        q.tick(t)
    # Each entry needs at most 3 cycles per buffer batch of 2.
    if ticks >= 3 * n:
        assert len(q.old) == n


@given(
    halves=st.sampled_from([1, 2]),
    issue_to_free=st.integers(1, 4),
    ops=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=120
    ),
)
@settings(max_examples=60, deadline=None)
def test_tick_reports_exactly_the_state_changes(halves, issue_to_free, ops):
    """``tick()`` returns True exactly when it changed ``snapshot()``.

    The pipeline's dead-cycle skip trusts this signal, so a tick that
    changes nothing must say so and one that releases a slot, moves an
    entry, or flips the request latch must not hide it.  Op codes: 0
    insert, 1 select (op arg picks the ready pattern), 2 tick, 3 replay
    the last selection (arg = penalty).
    """
    q = SegmentedIssueQueue(
        size=12, compaction_buffer=2, issue_to_free=issue_to_free,
        halves=halves,
    )
    cycle = 0
    inserted = 0
    last: list = []
    for op, arg in ops:
        if op == 0 and q.can_insert():
            q.insert(Instr(seq=inserted, op=OpClass.IALU, pc=0), cycle)
            inserted += 1
        elif op == 1:
            old_sel, new_sel = q.select_halves(
                cycle, lambda i, c: (i.seq + arg) % 3 != 0, LIMITS
            )
            last = old_sel + new_sel
        elif op == 3:
            replay_entries(last, cycle, arg)
            last = []
        else:
            cycle += 1
            before = q.snapshot()
            changed = q.tick(cycle)
            assert changed == (q.snapshot() != before)
