"""Set-associative cache hierarchy.

Real LRU set-associative caches with a two-level hierarchy and a flat
memory latency behind them.  Only timing matters to the simulator (data
values never flow through traces), so a cache access returns the total
load-to-use latency.  The paper assumes the data arrays carry their own
BIST + row/column spares, so caches are never a map-out target — they
exist here because load latency drives the issue-queue behaviour the
Rescue transformations perturb.
"""

from __future__ import annotations

from typing import List, Tuple


class Cache:
    """One set-associative LRU cache level (timing only).

    Each set is an immutable tuple of tags in MRU order (front = most
    recently used); an access replaces the set's tuple rather than
    editing it.  The tag table is therefore a flat list of immutable
    values, so :meth:`snapshot` and :meth:`restore` are one C-level
    copy each, and a restored table can never alias its snapshot.
    """

    def __init__(self, size_kb: int, assoc: int, block: int, latency: int,
                 name: str = "cache") -> None:
        size = size_kb * 1024
        if size % (assoc * block):
            raise ValueError(f"{name}: size not divisible by assoc*block")
        self.sets = size // (assoc * block)
        self.assoc = assoc
        self.block = block
        self.latency = latency
        self.name = name
        self.tags: List[Tuple[int, ...]] = [()] * self.sets
        self.hits = 0
        self.misses = 0

    def access(self, addr: int) -> bool:
        """Touch ``addr``; returns True on hit.  Misses allocate."""
        line = addr // self.block
        idx = line % self.sets
        tag = line // self.sets
        tags = self.tags
        ways = tags[idx]
        if tag in ways:
            i = ways.index(tag)
            if i:
                tags[idx] = (tag,) + ways[:i] + ways[i + 1:]
            self.hits += 1
            return True
        self.misses += 1
        tags[idx] = (tag,) + ways[:self.assoc - 1]
        return False

    def touch_silent(self, addr: int) -> bool:
        """Allocate ``addr`` without counting demand stats (prefetches).
        Returns True when the block was already resident."""
        line = addr // self.block
        idx = line % self.sets
        tag = line // self.sets
        tags = self.tags
        ways = tags[idx]
        if tag in ways:
            i = ways.index(tag)
            if i:
                tags[idx] = (tag,) + ways[:i] + ways[i + 1:]
            return True
        tags[idx] = (tag,) + ways[:self.assoc - 1]
        return False

    @property
    def miss_rate(self) -> float:
        """Demand miss fraction (prefetches excluded)."""
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    def snapshot(self) -> dict:
        """Plain-data copy: per-set MRU tag order plus demand counters."""
        return {
            "tags": tuple(self.tags),
            "hits": self.hits,
            "misses": self.misses,
        }

    def restore(self, snap: dict) -> None:
        """Load a :meth:`snapshot` back (LRU order preserved)."""
        self.tags = list(snap["tags"])
        self.hits = snap["hits"]
        self.misses = snap["misses"]


class MemoryHierarchy:
    """L1D → L2 → memory; returns load-to-use latency per access."""

    def __init__(self, config, prefetch: bool = True) -> None:
        core = config.core
        self.l1d = Cache(
            core.l1d_kb, core.l1d_assoc, core.l1d_block, core.l1d_latency,
            name="L1D",
        )
        self.l2 = Cache(
            core.l2_kb, core.l2_assoc, core.l2_block, core.l2_latency,
            name="L2",
        )
        self.mem_latency = config.mem_latency
        self.prefetch = prefetch

    def load_latency(self, addr: int) -> int:
        """Total latency of a load to ``addr`` (allocating on miss)."""
        if self.l1d.access(addr):
            return self.l1d.latency
        # Sequential prefetch (degree 4) hides most of a stride stream's
        # compulsory misses — both levels allocate the following blocks.
        if self.prefetch:
            for k in range(1, 5):
                nxt = addr + k * self.l1d.block
                if not self.l1d.touch_silent(nxt):
                    self.l2.touch_silent(nxt)
        if self.l2.access(addr):
            return self.l1d.latency + self.l2.latency
        return self.l1d.latency + self.l2.latency + self.mem_latency

    def store_touch(self, addr: int) -> None:
        """Stores allocate on retire; latency is hidden by the LSQ."""
        if not self.l1d.access(addr):
            self.l2.access(addr)

    def snapshot(self) -> dict:
        """Plain-data copy of both cache levels."""
        return {"l1d": self.l1d.snapshot(), "l2": self.l2.snapshot()}

    def restore(self, snap: dict) -> None:
        """Load a :meth:`snapshot` back into both levels."""
        self.l1d.restore(snap["l1d"])
        self.l2.restore(snap["l2"])
