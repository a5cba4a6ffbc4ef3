"""Scan insertion: replace every flop with its muxed-scan equivalent.

We model full scan (every memory element scannable), matching the paper's
assumption.  At the netlist level the scan mux is recorded as a flag on the
flop — the functional logic is unchanged — and the area cost of scan cells
is charged by the yield model (Section 5 counts scan-cell area as chipkill).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from repro.netlist.netlist import Netlist
from repro.scan.chain import ScanChain

# Pre-layout area multiplier of a muxed-scan flop over a plain flop, a
# conventional figure for the extra mux and scan-enable routing.
SCAN_CELL_AREA_OVERHEAD = 1.15


def insert_scan(
    netlist: Netlist, order: Optional[Sequence[int]] = None
) -> ScanChain:
    """Convert all flops to scan flops and stitch them into one chain.

    Args:
        netlist: the design; its flops are replaced by scan flops
            (flags only, the logic is unchanged).
        order: optional flop-id ordering; defaults to declaration order,
            which keeps same-component bits contiguous the way a
            placement-aware stitcher would.

    Returns:
        The resulting :class:`ScanChain`.
    """
    if order is None:
        order = [f.fid for f in netlist.flops]
    chain = ScanChain(netlist, order)
    if len(chain) != len(netlist.flops):
        raise ValueError(
            "full scan requires every flop on the chain: "
            f"{len(chain)} on chain, {len(netlist.flops)} in design"
        )
    flops = netlist.flops
    for bit, fid in enumerate(order):
        flops[fid] = replace(flops[fid], scan=True, scan_index=bit)
    return chain
