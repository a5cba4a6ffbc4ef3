"""Deterministic ICI break seeding for repair exercises.

The repair acceptance story needs models with *known* violations: the
baseline RTL supplies genuine ones (shared rename write port, in-cycle
compaction, shared LSQ tail), and this module supplies a hand-broken
Rescue variant — a lint-clean netlist with a few injected latch-bypass
edits, the classic timing-fix-gone-wrong: a reader gate's input is
re-pointed from a flop's Q output to that flop's D input, so the reader
block consumes a foreign block's value *before* the latch.  That is
exactly the edit a designer makes chasing a cycle of latency, and
exactly what the gate-level lint exists to catch.

Break selection is deterministic: candidate (gate, pin, flop) sites are
enumerated in sorted order, shuffled by a seeded RNG, and applied
one-by-one, skipping any edit that would create a combinational cycle.
The repair contract for a broken model is equivalence **to the broken
netlist** — repair restores ICI without changing what the design (now)
computes; it does not guess the pre-break intent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.netlist.gates import block_of
from repro.netlist.netlist import Netlist, NetlistError


@dataclass(frozen=True)
class SeededBreak:
    """One applied latch-bypass edit."""

    gid: int
    pin: int
    flop: str  # bypassed flop's name
    reader_block: str
    writer_block: str

    def describe(self) -> str:
        return (
            f"gate {self.gid} pin {self.pin} ({self.reader_block}) "
            f"bypasses latch {self.flop} ({self.writer_block})"
        )


def _bypass_sites(
    netlist: Netlist, exempt: Sequence[str]
) -> List[Tuple[int, int, int]]:
    """(gid, pin, fid) triples where a cross-block latch can be bypassed."""
    ex = set(exempt)
    by_q = {f.q_net: f for f in netlist.flops}
    sites: List[Tuple[int, int, int]] = []
    for g in netlist.gates:
        rb = block_of(g.component)
        if not rb or rb in ex:
            continue
        for pin, net in enumerate(g.inputs):
            f = by_q.get(net)
            if f is None:
                continue
            wb = block_of(f.component)
            if not wb or wb in ex or wb == rb:
                continue
            sites.append((g.gid, pin, f.fid))
    return sorted(sites)


def seed_breaks(
    netlist: Netlist,
    n_breaks: int,
    seed: int,
    exempt: Sequence[str] = (),
) -> List[SeededBreak]:
    """Apply up to ``n_breaks`` latch bypasses in place; returns them.

    Each break re-points one reader pin from a flop's Q to its D net.
    Edits that would break levelization (combinational cycles) are
    rolled back and skipped, so the result always validates.
    """
    sites = _bypass_sites(netlist, exempt)
    rng = random.Random(seed)
    rng.shuffle(sites)
    applied: List[SeededBreak] = []
    for gid, pin, fid in sites:
        if len(applied) >= n_breaks:
            break
        gate = netlist.gates[gid]
        flop = netlist.flops[fid]
        old_inputs = gate.inputs
        new_inputs = list(old_inputs)
        new_inputs[pin] = flop.d_net
        netlist.rewire_gate(gid, new_inputs)
        try:
            netlist.topo_gate_order()
        except NetlistError:
            netlist.rewire_gate(gid, old_inputs)
            continue
        applied.append(
            SeededBreak(
                gid=gid,
                pin=pin,
                flop=flop.name,
                reader_block=block_of(gate.component),
                writer_block=block_of(flop.component),
            )
        )
    return applied
