"""Scan test application: scan-in / capture / scan-out / compare.

:class:`ScanTester` drives the combinational test model of a full-scan
design with packed pattern matrices.  A *pattern* assigns every source
(primary input and scan bit); the *response* is every observation point
(primary output and captured scan bit).  Comparing a faulty response to the
gold response yields the failing scan-bit positions — the raw material of
the paper's fault isolation (Section 3.1).  The gold response itself is
``tester.sim.capture(tester.values)``.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.netlist.compiled import PackedWordSimulator, WordValues
from repro.netlist.faults import StuckAt
from repro.netlist.netlist import Netlist
from repro.scan.chain import ScanChain
from repro.telemetry import TELEMETRY


class ScanTester:
    """Applies one packed scan test set and reports failing bits.

    The tester is bound to its pattern set: the fault-free net values
    are simulated once, at construction, and only read afterwards.
    """

    def __init__(
        self, netlist: Netlist, chain: ScanChain, patterns: np.ndarray
    ) -> None:
        self.netlist = netlist
        self.chain = chain
        self.sim = PackedWordSimulator(netlist)
        if TELEMETRY.enabled:
            TELEMETRY.count("scan.patterns_applied", int(patterns.shape[0]))
        self.values: WordValues = self.sim.good_values(patterns)

    def failing_bits(self, fault: StuckAt) -> Tuple[List[int], List[int]]:
        """Failing (scan-bit positions, PO indices) across the pattern set.

        Scan-bit positions are chain indices — exactly what a tester reads
        off the scan-out pin and what the isolation table consumes.  They
        come straight from the packed fault delta, with no unpacking.
        """
        if TELEMETRY.enabled:
            TELEMETRY.count("scan.failing_bits_queries")
        fids, po_cols = self.sim.failing_observations(self.values, fault)
        return (
            sorted(self.chain.bit_of_flop[fid] for fid in fids),
            sorted(po_cols),
        )

    def test_cycles(self, n_vectors: int) -> int:
        """Tester cycle count for ``n_vectors`` (chain fill/drain overlap)."""
        return self.chain.test_cycles(n_vectors)
