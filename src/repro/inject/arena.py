"""Compressed checkpoint arena for golden-run snapshots.

A golden run at a fine ``checkpoint_interval`` produces hundreds of
:meth:`~repro.cpu.pipeline.Core.snapshot` dicts.  Each pickles to about
40 KB of plain data on the reference workloads, dominated by flat
tables: the register file, the cache tag sets, the predictor's ``bytes``
tables.  The commit log is not part of a snapshot (see
:meth:`~repro.cpu.archstate.ArchState.capture`), so the size of one
entry does not grow with trace length.  Holding the entries raw would
still make RSS proportional to ``cycles / interval``; the arena instead
stores each *distinct* payload once, as a standalone zlib-compressed
pickle, so any entry decodes with one decompression.

A payload is everything in a snapshot but the entry's own ``cycle``:
the core keeps no statistic that ticks on a cycle that changes nothing
else.  :meth:`SnapshotArena.append` compares the new snapshot with the
previous one under that rule; when they are equal (a memory-bound core
stalls through whole intervals, and the event-driven core jumps them)
the new entry points at the previous entry's blob object and keeps only
its own ``cycle``.  :meth:`get` decodes the blob and patches the cycle
back in, so ``get(i)`` still equals the dict passed to ``append``.  No
decode goes through another entry: a shared entry's blob *is* the
earlier entry's payload, not a delta against it.  :meth:`shares` tells
a reader whether two entries hold the same payload, so one that already
decoded one of them need not decode the other.

Every :meth:`get` decodes afresh (one decompression plus one unpickle,
counted as ``inject.arena_decompressions``); a caller that restores the
same checkpoint repeatedly keeps its own decoded copy, as
:class:`~repro.inject.harness.ReplaySession` does, and the early-exit
check decodes the golden checkpoint it compares against unless it
shares the payload of the fork snapshot the run already holds.  Decoded
dicts are safe to restore from more than once: every ``restore``/
``load`` path in the core copies container state rather than aliasing
it.  The arena is written only by the golden run, which ends the write
side with :meth:`seal` (dropping the snapshot held for the equality
test); a campaign's workers only read it, so the counter depends on the
chunking, never on the worker count.

An uncompressed metadata sidecar of ``(cycle, committed, fetched)``
triples supports the harness's cheap reconvergence precheck and fork
lookups without touching the compressed payload.
"""

from __future__ import annotations

import pickle
import zlib
from bisect import bisect_right
from typing import Iterator, List, Optional, Tuple

from repro.telemetry import TELEMETRY

#: zlib level 1 compresses the ``inject-mcf`` golden's 650 checkpoints
#: in half the time level 6 takes, for an arena 6% larger.
_LEVEL = 1

#: Snapshot fields each entry keeps for itself; the rest is the payload.
_OWN = ("cycle",)


def _same_payload(a: dict, b: dict) -> bool:
    """Whether two snapshots are equal in every field but :data:`_OWN`."""
    return len(a) == len(b) and all(
        k in _OWN or (k in b and v == b[k]) for k, v in a.items()
    )


class SnapshotArena:
    """Compressed store of checkpoint snapshots.

    Entries are appended in ascending cycle order (the golden run's
    ``on_cycle`` hook) and read back by index or by fork lookup
    (:meth:`find`).  ``_blobs`` holds one ``bytes`` reference per entry;
    entries that share a payload reference the same object, which a
    pickle of the arena stores once.
    """

    def __init__(self) -> None:
        self.raw_bytes = 0  # pickled size of the stored payloads
        self.compressed_bytes = 0
        self.payloads = 0  # distinct blobs stored
        self._cycles: List[int] = []
        self._meta: List[Tuple[int, int, int]] = []
        self._blobs: List[bytes] = []
        # The last appended snapshot, for the equality test; write side
        # only, dropped by :meth:`seal`.
        self._last: Optional[dict] = None

    # ---- write side ---------------------------------------------------
    def append(self, cycle: int, snap: dict) -> None:
        """Store one checkpoint (cycles must be strictly ascending).

        ``snap`` is held, not copied, for the next append's equality
        test until :meth:`seal`: the caller must not change it.
        """
        if self._cycles and cycle <= self._cycles[-1]:
            raise ValueError("checkpoint cycles must ascend")
        last = self._last
        if last is not None and _same_payload(snap, last):
            blob = self._blobs[-1]
        else:
            raw = pickle.dumps(snap, protocol=pickle.HIGHEST_PROTOCOL)
            blob = zlib.compress(raw, _LEVEL)
            self.raw_bytes += len(raw)
            self.compressed_bytes += len(blob)
            self.payloads += 1
        self._last = snap
        self._cycles.append(cycle)
        self._meta.append((cycle, snap["committed"], snap["fetched"]))
        self._blobs.append(blob)

    def seal(self) -> None:
        """End the write side: drop the snapshot held for the equality
        test, so it neither outlives the golden run nor is pickled.  A
        later :meth:`append` stores its payload afresh."""
        self._last = None

    # ---- read side ----------------------------------------------------
    def __len__(self) -> int:
        return len(self._blobs)

    def cycle_of(self, i: int) -> int:
        """Checkpoint cycle of entry ``i``."""
        return self._cycles[i]

    def meta_of(self, i: int) -> Tuple[int, int, int]:
        """``(cycle, committed, fetched)`` of entry ``i`` (no decode)."""
        return self._meta[i]

    def shares(self, i: int, j: int) -> bool:
        """Whether entries ``i`` and ``j`` hold the same payload."""
        return self._blobs[i] is self._blobs[j]

    def find(self, cycle: int) -> Optional[int]:
        """Index of the newest checkpoint at or before ``cycle``."""
        i = bisect_right(self._cycles, cycle) - 1
        return i if i >= 0 else None

    def get(self, i: int) -> dict:
        """Decoded snapshot dict of entry ``i``."""
        if TELEMETRY.enabled:
            TELEMETRY.count("inject.arena_decompressions")
        snap = pickle.loads(zlib.decompress(self._blobs[i]))
        snap["cycle"] = self._cycles[i]
        return snap

    def items(self) -> Iterator[Tuple[int, dict]]:
        """All ``(cycle, snapshot)`` pairs, decoded, ascending."""
        for i in range(len(self._blobs)):
            yield self._cycles[i], self.get(i)

    def stats(self) -> dict:
        """Footprint summary (for benchmarks and reports); the byte
        counts cover the stored payloads, each once."""
        return {
            "checkpoints": len(self._blobs),
            "payloads": self.payloads,
            "raw_bytes": self.raw_bytes,
            "compressed_bytes": self.compressed_bytes,
            "ratio": (
                self.raw_bytes / self.compressed_bytes
                if self.compressed_bytes
                else 0.0
            ),
        }
