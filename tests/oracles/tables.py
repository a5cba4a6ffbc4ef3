"""Reference cache, BTB and direction-predictor tables.

The program keeps every table the core checkpoints as one flat
structure: a cache or BTB set is an immutable tuple in MRU order that an
access replaces, and the predictor's counter tables are ``bytearray``\\ s.
That makes a snapshot or a restore one C-level copy per table.  The
straightforward versions they replaced live here: each set a mutable
list reordered in place, each counter table a list of ints.  The
property tests in ``tests/test_table_oracles.py`` drive both with the
same random streams and require the same hits, misses, latencies,
predictions and per-set LRU order.  Nothing under ``src/`` imports this
module.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.cpu.bpred import TwoBitCounter


class Cache:
    """One set-associative LRU cache level, sets as mutable lists."""

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
        self.tags: List[List[int]] = [[] for _ in range(self.sets)]
        self.hits = 0
        self.misses = 0

    def access(self, addr: int) -> bool:
        """Touch ``addr``; returns True on hit.  Misses allocate."""
        line = addr // self.block
        idx = line % self.sets
        tag = line // self.sets
        ways = self.tags[idx]
        for i, t in enumerate(ways):
            if t == tag:
                ways.insert(0, ways.pop(i))
                self.hits += 1
                return True
        self.misses += 1
        ways.insert(0, tag)
        del ways[self.assoc:]
        return False

    def touch_silent(self, addr: int) -> bool:
        """Allocate ``addr`` without counting demand stats."""
        line = addr // self.block
        idx = line % self.sets
        tag = line // self.sets
        ways = self.tags[idx]
        for i, t in enumerate(ways):
            if t == tag:
                ways.insert(0, ways.pop(i))
                return True
        ways.insert(0, tag)
        del ways[self.assoc:]
        return False


class HybridPredictor:
    """Bimodal + gshare with a chooser, counter tables as int lists."""

    def __init__(
        self,
        bimodal_bits: int = 12,
        gshare_bits: int = 12,
        chooser_bits: int = 12,
    ) -> None:
        self.bimodal = [2] * (1 << bimodal_bits)
        self.gshare = [2] * (1 << gshare_bits)
        self.chooser = [2] * (1 << chooser_bits)
        self.bim_mask = (1 << bimodal_bits) - 1
        self.gsh_mask = (1 << gshare_bits) - 1
        self.cho_mask = (1 << chooser_bits) - 1
        self.history = 0

    def predict(self, pc: int) -> bool:
        """Chooser-selected direction prediction for ``pc``."""
        bi = TwoBitCounter.taken(self.bimodal[(pc >> 2) & self.bim_mask])
        gi = TwoBitCounter.taken(
            self.gshare[((pc >> 2) ^ self.history) & self.gsh_mask]
        )
        use_gshare = TwoBitCounter.taken(
            self.chooser[(pc >> 2) & self.cho_mask]
        )
        return gi if use_gshare else bi

    def update(self, pc: int, taken: bool) -> None:
        """Train all three tables and shift the global history."""
        bidx = (pc >> 2) & self.bim_mask
        gidx = ((pc >> 2) ^ self.history) & self.gsh_mask
        cidx = (pc >> 2) & self.cho_mask
        bi_ok = TwoBitCounter.taken(self.bimodal[bidx]) == taken
        gi_ok = TwoBitCounter.taken(self.gshare[gidx]) == taken
        if bi_ok != gi_ok:
            self.chooser[cidx] = TwoBitCounter.update(
                self.chooser[cidx], gi_ok
            )
        self.bimodal[bidx] = TwoBitCounter.update(self.bimodal[bidx], taken)
        self.gshare[gidx] = TwoBitCounter.update(self.gshare[gidx], taken)
        self.history = ((self.history << 1) | int(taken)) & self.gsh_mask


class Btb:
    """Set-associative BTB with LRU, sets as mutable lists of pairs."""

    def __init__(self, entries: int = 1024, assoc: int = 4) -> None:
        if entries % assoc:
            raise ValueError("entries must be a multiple of associativity")
        self.sets = entries // assoc
        self.assoc = assoc
        self.table: List[List[Tuple[int, int]]] = [
            [] for _ in range(self.sets)
        ]

    def _index(self, pc: int) -> Tuple[int, int]:
        line = pc >> 2
        return line % self.sets, line // self.sets

    def lookup(self, pc: int):
        """Predicted target of ``pc``, or None on a BTB miss."""
        idx, tag = self._index(pc)
        ways = self.table[idx]
        for i, (t, target) in enumerate(ways):
            if t == tag:
                ways.insert(0, ways.pop(i))
                return target
        return None

    def insert(self, pc: int, target: int) -> None:
        """Install/update the target for ``pc`` (LRU within the set)."""
        idx, tag = self._index(pc)
        ways = self.table[idx]
        for i, (t, _) in enumerate(ways):
            if t == tag:
                ways.pop(i)
                break
        ways.insert(0, (tag, target))
        del ways[self.assoc:]
