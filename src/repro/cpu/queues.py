"""Issue queues and the load/store queue.

Two issue-queue models:

- :class:`CompactingIssueQueue` — the baseline: one compacting window,
  oldest-first global selection, freed slots reusable the next cycle.
- :class:`SegmentedIssueQueue` — Rescue's ICI-transformed queue: an old
  half, a new half, and a small temporary compaction buffer between them.
  Entries move new→buffer only after the old half *requested* room in a
  previous cycle (the cycle-split inter-segment compaction), sit in the
  buffer for a cycle (selectable never, wakeable always — wakeup is
  implicit in the readiness predicate), and each half selects
  independently; the pipeline applies the paper's replay rule when the
  combined selection oversubscribes the backend.

Both queues release an issued entry's slot ``issue_to_free`` cycles after
issue (2 baseline, 3 Rescue — the extra shift stage), and un-issue entries
on replay.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.cpu.isa import Instr, OpClass

#: Resource names used in selection limits.
RESOURCES = ("slots", "alu", "mul", "fadd", "fmul", "mem")


_RESOURCE = {
    OpClass.IALU: "alu",
    OpClass.BRANCH: "alu",
    OpClass.IMUL: "mul",
    OpClass.FADD: "fadd",
    OpClass.FMUL: "fmul",
    OpClass.LOAD: "mem",
    OpClass.STORE: "mem",
}


def resource_of(op: OpClass) -> str:
    """Execution resource class an operation consumes."""
    return _RESOURCE[op]


class IqEntry:
    """One issue-queue entry (its segment is the list that holds it)."""

    __slots__ = ("instr", "issued_at", "entered_segment_at", "blocked_until")

    def __init__(self, instr: Instr, cycle: int) -> None:
        self.instr = instr
        self.issued_at: Optional[int] = None
        self.entered_segment_at = cycle
        # Earliest cycle this entry may be selected again after a replay
        # (the replay is discovered from latched counts a cycle later).
        self.blocked_until = 0


def _entry_tuple(e: IqEntry, segment: str) -> tuple:
    """Plain-data form of an entry (the instr is keyed by seq + pc)."""
    return (
        e.instr.seq, e.instr.pc, segment, e.issued_at,
        e.entered_segment_at, e.blocked_until,
    )


def _entry_from_tuple(t: tuple, resolve) -> IqEntry:
    """Rebuild an entry; ``resolve(seq, pc)`` supplies the Instr."""
    seq, pc, _segment, issued_at, entered_at, blocked = t
    e = IqEntry(resolve(seq, pc), entered_at)
    e.issued_at = issued_at
    e.blocked_until = blocked
    return e


def _release(
    entries: List[IqEntry], cycle: int, issue_to_free: int
) -> List[IqEntry]:
    """``entries`` without the slots due for release at ``cycle``; the
    same list object when none is due (the common case: nothing is
    built)."""
    for e in entries:
        t = e.issued_at
        if t is not None and cycle >= t + issue_to_free:
            return [
                e
                for e in entries
                if e.issued_at is None or cycle < e.issued_at + issue_to_free
            ]
    return entries


def _select_from(
    entries: List[IqEntry],
    cycle: int,
    ready: Callable[[Instr, int], bool],
    limits: Dict[str, int],
) -> List[IqEntry]:
    """Oldest-first selection under resource limits."""
    slots = limits["slots"]
    used: Dict[str, int] = {}
    picked: List[IqEntry] = []
    for e in entries:
        if e.issued_at is not None or e.blocked_until > cycle:
            continue
        instr = e.instr
        if not ready(instr, cycle):
            continue
        if len(picked) >= slots:
            break
        res = _RESOURCE[instr.op]
        n = used.get(res, 0)
        if n >= limits.get(res, 0):
            continue
        used[res] = n + 1
        picked.append(e)
    for e in picked:
        e.issued_at = cycle
    return picked


def combined_violates(
    sel_a: List[IqEntry], sel_b: List[IqEntry], limits: Dict[str, int]
) -> bool:
    """True when the union of two selections oversubscribes a resource."""
    used = {r: 0 for r in limits}
    for e in sel_a + sel_b:
        used["slots"] += 1
        res = resource_of(e.instr.op)
        used[res] = used.get(res, 0) + 1
    return any(used[r] > limits[r] for r in used)


def replay_entries(entries: List[IqEntry], cycle: int, penalty: int) -> None:
    """Un-issue ``entries`` and hold them out of selection for
    ``penalty`` cycles (replay discovery is one cycle late, so the
    earliest legal re-selection is ``cycle + 2`` for the paper's rule)."""
    for e in entries:
        e.issued_at = None
        e.blocked_until = max(e.blocked_until, cycle + penalty)


class CompactingIssueQueue:
    """Baseline single-window compacting queue."""

    def __init__(self, size: int, issue_to_free: int = 2) -> None:
        self.size = size
        self.issue_to_free = issue_to_free
        self.entries: List[IqEntry] = []

    def tick(self, cycle: int) -> bool:
        """Release the slots of entries issued long enough ago; True
        when a slot was released."""
        kept = _release(self.entries, cycle, self.issue_to_free)
        changed = kept is not self.entries
        self.entries = kept
        return changed

    def can_insert(self) -> bool:
        return len(self.entries) < self.size

    def insert(self, instr: Instr, cycle: int) -> None:
        if not self.can_insert():
            raise RuntimeError("issue queue overflow")
        self.entries.append(IqEntry(instr, cycle))

    def select(
        self,
        cycle: int,
        ready: Callable[[Instr, int], bool],
        limits: Dict[str, int],
    ) -> List[IqEntry]:
        return _select_from(self.entries, cycle, ready, limits)

    def replay(self, entries: List[IqEntry]) -> None:
        for e in entries:
            e.issued_at = None

    def occupancy(self) -> int:
        return len(self.entries)

    def snapshot(self) -> dict:
        """Entries in age order as plain tuples."""
        return {
            "entries": tuple(_entry_tuple(e, "old") for e in self.entries)
        }

    def restore(self, snap: dict, resolve) -> None:
        """Rebuild entries; ``resolve(seq, pc)`` maps back to Instrs."""
        self.entries = [
            _entry_from_tuple(t, resolve) for t in snap["entries"]
        ]


class SegmentedIssueQueue:
    """Rescue's two-half queue with the temporary compaction latch.

    The segments are three live lists, each in age order: ``old`` (the
    old half), ``buf`` (the compaction latch) and ``new`` (the new half).
    Entries only ever move new→buf→old, oldest first, so the global age
    order is always ``old + buf + new`` (:attr:`entries`).

    When ``halves == 1`` (one half mapped out), the queue degrades to a
    single window of half the size fed directly from rename (Section
    4.1.3) and behaves like the baseline policy at that size; every
    entry then lives in ``old``.
    """

    def __init__(
        self,
        size: int,
        compaction_buffer: int = 4,
        issue_to_free: int = 3,
        halves: int = 2,
    ) -> None:
        if halves not in (1, 2):
            raise ValueError("halves must be 1 or 2")
        self.halves = halves
        self.issue_to_free = issue_to_free
        if halves == 1:
            self.size = size // 2
            self.half_cap = self.size
            self.buffer_cap = 0
        else:
            self.buffer_cap = compaction_buffer
            self.half_cap = (size - compaction_buffer) // 2
            self.size = size
        self.old: List[IqEntry] = []
        self.buf: List[IqEntry] = []
        self.new: List[IqEntry] = []
        self._request_pending = False

    @property
    def entries(self) -> List[IqEntry]:
        """All entries in global age order."""
        return self.old + self.buf + self.new

    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> bool:
        """Release issued slots, then run the cycle-split compaction.

        Returns True when anything changed: a slot was released, an
        entry moved, or the request latch flipped.
        """
        itf = self.issue_to_free
        old = _release(self.old, cycle, itf)
        buf = _release(self.buf, cycle, itf)
        new = _release(self.new, cycle, itf)
        changed = (
            old is not self.old or buf is not self.buf or new is not self.new
        )
        self.old, self.buf, self.new = old, buf, new
        if self.halves == 1:
            return changed
        # Buffer -> old: entries that spent a full cycle in the latch.
        # Entries reach the latch oldest first, so the eligible ones are
        # a prefix of it.
        holes = self.half_cap - len(old)
        moved = 0
        while (
            moved < holes
            and moved < len(buf)
            and buf[moved].entered_segment_at < cycle
        ):
            buf[moved].entered_segment_at = cycle
            moved += 1
        if moved:
            old.extend(buf[:moved])
            del buf[:moved]
            changed = True
        # New -> buffer, only if the old half asked last cycle.
        if self._request_pending:
            moved = min(self.buffer_cap - len(buf), len(new))
            if moved > 0:
                for e in new[:moved]:
                    e.entered_segment_at = cycle
                buf.extend(new[:moved])
                del new[:moved]
                changed = True
        # Latch this cycle's request for the next one (cycle splitting).
        request = len(old) < self.half_cap
        if request != self._request_pending:
            self._request_pending = request
            changed = True
        return changed

    # ------------------------------------------------------------------
    def can_insert(self) -> bool:
        if self.halves == 1:
            return len(self.old) < self.half_cap
        return len(self.new) < self.half_cap

    def insert(self, instr: Instr, cycle: int) -> None:
        if not self.can_insert():
            raise RuntimeError("issue queue overflow")
        seg = self.old if self.halves == 1 else self.new
        seg.append(IqEntry(instr, cycle))

    # ------------------------------------------------------------------
    def select_halves(
        self,
        cycle: int,
        ready: Callable[[Instr, int], bool],
        limits: Dict[str, int],
    ):
        """(old selection, new selection); buffer entries never issue."""
        old_sel = _select_from(self.old, cycle, ready, limits)
        if self.halves == 1:
            return old_sel, []
        new_sel = _select_from(self.new, cycle, ready, limits)
        return old_sel, new_sel

    def replay(self, entries: List[IqEntry]) -> None:
        for e in entries:
            e.issued_at = None

    def occupancy(self) -> int:
        return len(self.old) + len(self.buf) + len(self.new)

    def snapshot(self) -> dict:
        """Entries in global age order plus the compaction-request latch."""
        return {
            "entries": tuple(
                _entry_tuple(e, name)
                for name in ("old", "buf", "new")
                for e in getattr(self, name)
            ),
            "request_pending": self._request_pending,
        }

    def restore(self, snap: dict, resolve) -> None:
        """Rebuild the segments (age order preserved) and the latch."""
        segs = {"old": [], "buf": [], "new": []}
        for t in snap["entries"]:
            segs[t[2]].append(_entry_from_tuple(t, resolve))
        self.old, self.buf, self.new = segs["old"], segs["buf"], segs["new"]
        self._request_pending = snap["request_pending"]


class LoadStoreQueue:
    """Capacity + store-to-load forwarding model of the LSQ.

    Entries are (seq, is_store, block address); they retire with commit.
    A load whose address matches an older in-flight store forwards at L1
    latency.  Degraded mode halves the capacity (Section 4.7).
    """

    def __init__(self, size: int, halves: int = 2, block: int = 32) -> None:
        if halves not in (1, 2):
            raise ValueError("halves must be 1 or 2")
        self.size = size * halves // 2
        self.block = block
        self.entries: List[tuple] = []  # (seq, is_store, blk)

    def can_insert(self) -> bool:
        return len(self.entries) < self.size

    def insert(self, seq: int, is_store: bool, addr: int) -> None:
        if not self.can_insert():
            raise RuntimeError("LSQ overflow")
        self.entries.append((seq, is_store, addr // self.block))

    def forwards(self, seq: int, addr: int) -> bool:
        """True when an older store to the same block is still queued."""
        return self.forward_from(seq, addr) is not None

    def forward_from(self, seq: int, addr: int) -> Optional[int]:
        """Sequence number of the *youngest* older queued store to the
        same block (the one a load actually forwards from), or None."""
        blk = addr // self.block
        found: Optional[int] = None
        for s, is_store, b in self.entries:
            if s >= seq:
                break
            if is_store and b == blk:
                found = s
        return found

    def retire_upto(self, seq: int) -> None:
        """Drop entries at or below the committed sequence number."""
        self.entries = [e for e in self.entries if e[0] > seq]

    def occupancy(self) -> int:
        return len(self.entries)

    def snapshot(self) -> dict:
        """Entries are already plain tuples; copy them in order."""
        return {"entries": tuple(self.entries)}

    def restore(self, snap: dict) -> None:
        """Load a :meth:`snapshot` back in order."""
        self.entries = list(snap["entries"])
