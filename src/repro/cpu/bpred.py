"""Branch prediction substrate: hybrid predictor, BTB, return stack.

An 8KB-class hybrid: a bimodal table and a gshare table of 2-bit counters
with a chooser (McFarling).  The BTB is set-associative with LRU; the RAS
is a small circular stack.  The paper treats these structures as chipkill
(no redundancy), so the simulator only needs their *timing* behaviour —
which this model provides faithfully.
"""

from __future__ import annotations

from typing import List, Tuple


class TwoBitCounter:
    """Classic saturating 2-bit counter semantics on an int table."""

    @staticmethod
    def taken(state: int) -> bool:
        """Counter's current prediction (weakly/strongly taken)."""
        return state >= 2

    @staticmethod
    def update(state: int, taken: bool) -> int:
        """Saturating update toward the outcome."""
        if taken:
            return min(3, state + 1)
        return max(0, state - 1)


class HybridPredictor:
    """Bimodal + gshare with a chooser, all 2-bit counters.

    Sizes default to 4K entries each (= 8KB of 2-bit state in aggregate,
    the Table 1 budget).  Each table is a ``bytearray`` of counter
    states, so a snapshot is one ``bytes`` copy per table.
    """

    def __init__(
        self,
        bimodal_bits: int = 12,
        gshare_bits: int = 12,
        chooser_bits: int = 12,
    ) -> None:
        self.bimodal = bytearray(b"\x02") * (1 << bimodal_bits)
        self.gshare = bytearray(b"\x02") * (1 << gshare_bits)
        self.chooser = bytearray(b"\x02") * (1 << chooser_bits)
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
    """Set-associative branch target buffer with LRU replacement.

    Each set is an immutable tuple of ``(tag, target)`` pairs in MRU
    order (front = most recently used), replaced rather than edited, so
    the table snapshots and restores as one flat copy.
    """

    def __init__(self, entries: int = 1024, assoc: int = 4) -> None:
        if entries % assoc:
            raise ValueError("entries must be a multiple of associativity")
        self.sets = entries // assoc
        self.assoc = assoc
        self.table: List[Tuple[Tuple[int, int], ...]] = [()] * self.sets

    def _index(self, pc: int) -> Tuple[int, int]:
        line = pc >> 2
        return line % self.sets, line // self.sets

    def lookup(self, pc: int):
        """Predicted target of ``pc``, or None on a BTB miss."""
        idx, tag = self._index(pc)
        ways = self.table[idx]
        for i, way in enumerate(ways):
            if way[0] == tag:
                if i:
                    self.table[idx] = (way,) + ways[:i] + ways[i + 1:]
                return way[1]
        return None

    def insert(self, pc: int, target: int) -> None:
        """Install/update the target for ``pc`` (LRU within the set)."""
        idx, tag = self._index(pc)
        ways = self.table[idx]
        for i, way in enumerate(ways):
            if way[0] == tag:
                ways = ways[:i] + ways[i + 1:]
                break
        self.table[idx] = ((tag, target),) + ways[:self.assoc - 1]


class ReturnAddressStack:
    """Circular return-address stack."""

    def __init__(self, entries: int = 16) -> None:
        self.stack: List[int] = []
        self.entries = entries

    def push(self, addr: int) -> None:
        """Push a return address (oldest entry drops on overflow)."""
        self.stack.append(addr)
        if len(self.stack) > self.entries:
            self.stack.pop(0)

    def pop(self) -> int:
        """Pop the predicted return address (0 when empty)."""
        return self.stack.pop() if self.stack else 0


class FrontendPredictor:
    """Bundles the predictor, BTB, and RAS; reports mispredictions.

    ``predict_and_update(instr)`` returns True when the fetch redirect was
    wrong — a taken branch missing in the BTB also counts (no target).
    """

    def __init__(self, params) -> None:
        self.hybrid = HybridPredictor()
        self.btb = Btb(params.btb_entries, params.btb_assoc)
        self.ras = ReturnAddressStack(params.ras_entries)
        self.lookups = 0
        self.mispredicts = 0

    def predict_and_update(self, pc: int, taken: bool, target: int) -> bool:
        """One fetch-time prediction + training step; True = mispredicted."""
        self.lookups += 1
        pred_taken = self.hybrid.predict(pc)
        pred_target = self.btb.lookup(pc)
        wrong = pred_taken != taken
        if taken and not wrong and (
            pred_target is None or pred_target != target
        ):
            wrong = True  # direction right, target unknown/stale
        self.hybrid.update(pc, taken)
        if taken:
            self.btb.insert(pc, target)
        if wrong:
            self.mispredicts += 1
        return wrong

    @property
    def accuracy(self) -> float:
        """Fraction of branch fetches redirected correctly."""
        if not self.lookups:
            return 1.0
        return 1.0 - self.mispredicts / self.lookups

    # ---- snapshot / restore ------------------------------------------
    def snapshot(self) -> dict:
        """Plain-data copy of all predictor state (tables, history, RAS).

        Every table is one flat copy: ``bytes`` of the counter tables,
        a tuple of the BTB's immutable sets.  The counters
        (``lookups``/``mispredicts``) ride along so a restored run
        reproduces the uninterrupted run's statistics too.
        """
        h = self.hybrid
        return {
            "bimodal": bytes(h.bimodal),
            "gshare": bytes(h.gshare),
            "chooser": bytes(h.chooser),
            "history": h.history,
            "btb": tuple(self.btb.table),
            "ras": tuple(self.ras.stack),
            "lookups": self.lookups,
            "mispredicts": self.mispredicts,
        }

    def restore(self, snap: dict) -> None:
        """Load a :meth:`snapshot` back into the live structures."""
        h = self.hybrid
        h.bimodal = bytearray(snap["bimodal"])
        h.gshare = bytearray(snap["gshare"])
        h.chooser = bytearray(snap["chooser"])
        h.history = snap["history"]
        self.btb.table = list(snap["btb"])
        self.ras.stack = list(snap["ras"])
        self.lookups = snap["lookups"]
        self.mispredicts = snap["mispredicts"]
