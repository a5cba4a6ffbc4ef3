"""Scan/DFT substrate (paper Section 2).

Implements muxed-flip-flop scan insertion, scan-chain bookkeeping, and the
single-cycle scan test application flow: scan-in state, apply primary
inputs, capture one cycle, scan-out and compare against the gold response.
"""

from repro.scan.chain import ScanChain
from repro.scan.insertion import insert_scan
from repro.scan.tester import ScanTester

__all__ = ["ScanChain", "ScanTester", "insert_scan"]
