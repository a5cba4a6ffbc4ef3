"""Fault dictionaries — the classic alternative to ICI isolation.

A *fault dictionary* precomputes, for every modeled fault, the signature
of failing observation bits its presence would produce under the test set;
at test time the observed signature is matched against the dictionary.
Dictionaries locate faults without ICI, but (a) they only know modeled
faults — an unmodeled defect matches nothing or the wrong entry — and
(b) they cost storage proportional to faults × vectors, which is why
production flows avoid them for full designs.  ICI replaces all of this
with a bit→block table whose size is one entry per scan cell.

The module exists to quantify that comparison (tests and
``benchmarks/bench_diagnosis.py``'s companion narrative), and doubles as a
verification cross-check of the fault simulator.

Signatures are produced by :meth:`ScanTester.failing_bits`, which reads
mismatching observation points straight off packed fault deltas —
building a dictionary over thousands of faults rides entirely on that
fast path (the tester simulates its pattern set's good response once,
when it is built).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.netlist.faults import StuckAt
from repro.scan.tester import ScanTester

#: A signature: the set of (pattern index, scan bit) failing pairs,
#: compressed to the per-bit union when ``per_pattern`` is off.
Signature = FrozenSet[int]


@dataclass
class DictionaryMatch:
    """Result of a signature lookup."""

    exact: List[StuckAt]
    nearest: Optional[StuckAt]
    nearest_distance: int

    @property
    def matched(self) -> bool:
        """True when the signature matched a dictionary entry exactly."""
        return bool(self.exact)


class FaultDictionary:
    """Pass/fail fault dictionary over the tester's pattern set."""

    def __init__(
        self, tester: ScanTester, faults: Sequence[StuckAt]
    ) -> None:
        self.tester = tester
        self._by_signature: Dict[Signature, List[StuckAt]] = {}
        self._entries: List[Tuple[StuckAt, Signature]] = []
        for fault in faults:
            sig = self.signature_of(fault)
            if not sig:
                continue  # undetected faults have no dictionary entry
            self._by_signature.setdefault(sig, []).append(fault)
            self._entries.append((fault, sig))

    # ------------------------------------------------------------------
    def signature_of(self, fault: StuckAt) -> Signature:
        """Failing-bit signature of a fault under the pattern set."""
        bits, pos = self.tester.failing_bits(fault)
        return frozenset(bits) | frozenset(-1 - p for p in pos)

    @property
    def n_entries(self) -> int:
        """Number of detected faults in the dictionary."""
        return len(self._entries)

    @property
    def n_signatures(self) -> int:
        """Number of distinct failure signatures."""
        return len(self._by_signature)

    def storage_bits(self) -> int:
        """Approximate dictionary size: one bit per (fault, scan cell)."""
        width = len(self.tester.chain) + len(
            self.tester.netlist.primary_outputs
        )
        return self.n_entries * width

    def ambiguity(self) -> float:
        """Average number of faults sharing a signature (1.0 = unique)."""
        if not self._by_signature:
            return 0.0
        return self.n_entries / self.n_signatures

    # ------------------------------------------------------------------
    def lookup(self, signature: Signature) -> DictionaryMatch:
        """Match an observed signature, exactly or by Hamming distance."""
        exact = list(self._by_signature.get(signature, []))
        nearest: Optional[StuckAt] = None
        nearest_distance = 1 << 30
        if not exact:
            for fault, sig in self._entries:
                d = len(sig ^ signature)
                if d < nearest_distance:
                    nearest, nearest_distance = fault, d
        else:
            nearest, nearest_distance = exact[0], 0
        return DictionaryMatch(
            exact=exact, nearest=nearest, nearest_distance=nearest_distance
        )

    def locate(self, fault: StuckAt) -> DictionaryMatch:
        """Convenience: simulate ``fault`` then look its signature up."""
        return self.lookup(self.signature_of(fault))
