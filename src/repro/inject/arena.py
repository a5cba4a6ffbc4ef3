"""Compressed checkpoint arena for golden-run snapshots.

A golden run at a fine ``checkpoint_interval`` produces hundreds of
:meth:`~repro.cpu.pipeline.Core.snapshot` dicts.  Each pickles to about
40 KB of plain data on the reference workloads, dominated by flat
tables: the register file, the cache tag sets, the predictor's ``bytes``
tables.  The commit log is not part of a snapshot (see
:meth:`~repro.cpu.archstate.ArchState.capture`), so the size of one
entry does not grow with trace length.  Holding the entries raw would
still make RSS proportional to ``cycles / interval``; the arena instead
stores each checkpoint as a standalone zlib-compressed pickle, so any
entry decodes with one decompression.

Every :meth:`SnapshotArena.get` decodes afresh (one decompression plus
one unpickle, counted as ``inject.arena_decompressions``); a caller that
restores the same checkpoint repeatedly keeps its own decoded copy, as
:class:`~repro.inject.harness.ReplaySession` does, and the early-exit
check decodes the golden checkpoint it compares against each time.
Decoded dicts are safe to restore from more than once: every
``restore``/``load`` path in the core copies container state rather
than aliasing it.  The arena is written only by the golden run; a
campaign's workers only read it, so the counter depends on the
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


class SnapshotArena:
    """Compressed store of checkpoint snapshots.

    Entries are appended in ascending cycle order (the golden run's
    ``on_cycle`` hook) and read back by index or by fork lookup
    (:meth:`find`).
    """

    def __init__(self) -> None:
        self.raw_bytes = 0  # pickled size of the stored entries
        self.compressed_bytes = 0
        self._cycles: List[int] = []
        self._meta: List[Tuple[int, int, int]] = []
        self._blobs: List[bytes] = []

    # ---- write side ---------------------------------------------------
    def append(self, cycle: int, snap: dict) -> None:
        """Store one checkpoint (cycles must be strictly ascending)."""
        if self._cycles and cycle <= self._cycles[-1]:
            raise ValueError("checkpoint cycles must ascend")
        raw = pickle.dumps(snap, protocol=pickle.HIGHEST_PROTOCOL)
        blob = zlib.compress(raw, _LEVEL)
        self._cycles.append(cycle)
        self._meta.append((cycle, snap["committed"], snap["fetched"]))
        self._blobs.append(blob)
        self.raw_bytes += len(raw)
        self.compressed_bytes += len(blob)

    # ---- read side ----------------------------------------------------
    def __len__(self) -> int:
        return len(self._blobs)

    def cycle_of(self, i: int) -> int:
        """Checkpoint cycle of entry ``i``."""
        return self._cycles[i]

    def meta_of(self, i: int) -> Tuple[int, int, int]:
        """``(cycle, committed, fetched)`` of entry ``i`` (no decode)."""
        return self._meta[i]

    def find(self, cycle: int) -> Optional[int]:
        """Index of the newest checkpoint at or before ``cycle``."""
        i = bisect_right(self._cycles, cycle) - 1
        return i if i >= 0 else None

    def get(self, i: int) -> dict:
        """Decoded snapshot dict of entry ``i``."""
        if TELEMETRY.enabled:
            TELEMETRY.count("inject.arena_decompressions")
        return pickle.loads(zlib.decompress(self._blobs[i]))

    def items(self) -> Iterator[Tuple[int, dict]]:
        """All ``(cycle, snapshot)`` pairs, decoded, ascending."""
        for i in range(len(self._blobs)):
            yield self._cycles[i], self.get(i)

    def stats(self) -> dict:
        """Footprint summary (for benchmarks and reports)."""
        return {
            "checkpoints": len(self._blobs),
            "raw_bytes": self.raw_bytes,
            "compressed_bytes": self.compressed_bytes,
            "ratio": (
                self.raw_bytes / self.compressed_bytes
                if self.compressed_bytes
                else 0.0
            ),
        }
