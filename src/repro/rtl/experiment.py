"""Drivers for the paper's testability experiments (Section 6.1, Table 3).

- :func:`generate_tests` runs the ATPG flow over a pipeline model and
  wraps the result with the scan chain and tester.
- :func:`isolation_experiment` re-creates the 6000-random-fault insertion
  experiment: each inserted fault is fault-simulated against the generated
  vectors, the failing scan bits are looked up in the isolation table, and
  the blamed map-out block is compared with the block that physically
  contains the fault.
- :func:`scan_chain_table` collects the Table 3 row for one design:
  fault-universe size, scan cells, vectors, and tester cycles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.atpg import run_atpg
from repro.atpg.faults import component_of_fault
from repro.atpg.flow import AtpgResult
from repro.core.isolation import IsolationTable
from repro.netlist.faults import StuckAt
from repro.netlist.gates import block_of
from repro.netlist.netlist import Netlist
from repro.rtl.model import RtlModel
from repro.scan import ScanChain, ScanTester, insert_scan


def po_component_labels(nl: Netlist) -> List[str]:
    """Component label of each primary output's driver, in PO order.

    A PO driven by a gate takes that gate's label; a PO that is a flop's
    Q net (the flop-driven branch) takes the flop's label; an undriven PO
    gets "".  Flop lookups go through a precomputed q_net → component
    dict rather than a per-PO scan of the flop list.
    """
    flop_component = {f.q_net: f.component for f in nl.flops}
    labels: List[str] = []
    for po in nl.primary_outputs:
        gid = nl.driver_of(po)
        if gid is not None:
            labels.append(nl.gates[gid].component)
        else:
            labels.append(flop_component.get(po, ""))
    return labels


@dataclass
class TestSetup:
    """A model with its scan chain, vectors, and isolation table."""

    __test__ = False  # not a pytest class, despite the name

    model: RtlModel
    chain: ScanChain
    tester: ScanTester
    atpg: AtpgResult
    table: IsolationTable


#: ATPG budget of :func:`generate_tests`: random patterns per batch,
#: random batches, and PODEM backtracks per fault.
ATPG_BATCH_SIZE = 128
ATPG_RANDOM_BATCHES = 8
ATPG_BACKTRACK_LIMIT = 48


def generate_tests(
    model: RtlModel,
    seed: int = 0,
    max_deterministic: Optional[int] = None,
) -> TestSetup:
    """Insert scan, run ATPG, and build the isolation table."""
    nl = model.netlist
    chain = insert_scan(nl)
    atpg = run_atpg(
        nl,
        seed=seed,
        batch_size=ATPG_BATCH_SIZE,
        max_random_batches=ATPG_RANDOM_BATCHES,
        backtrack_limit=ATPG_BACKTRACK_LIMIT,
        max_deterministic=max_deterministic,
    )
    tester = ScanTester(nl, chain, atpg.patterns)
    table = IsolationTable(chain, po_components=po_component_labels(nl))
    return TestSetup(
        model=model, chain=chain, tester=tester, atpg=atpg, table=table
    )


@dataclass
class IsolationStats:
    """Outcome of the random-fault isolation experiment."""

    inserted: int = 0
    undetected: int = 0
    correct: int = 0  # blamed exactly the faulty block
    ambiguous: int = 0  # failing bits span several blocks
    wrong: int = 0  # blamed a single but different block
    by_block: Dict[str, int] = field(default_factory=dict)

    @property
    def detected(self) -> int:
        """Faults whose injection produced failing bits."""
        return self.inserted - self.undetected

    @property
    def correct_rate(self) -> float:
        """Correctly isolated fraction of detected faults."""
        return self.correct / self.detected if self.detected else 1.0

    def summary(self) -> str:
        """One-line experiment report."""
        return (
            f"{self.inserted} faults inserted, {self.detected} detected; "
            f"{self.correct} isolated to the correct block "
            f"({self.correct_rate:.1%}), {self.ambiguous} ambiguous, "
            f"{self.wrong} misattributed"
        )

    def merge(self, other: "IsolationStats") -> "IsolationStats":
        """Combine two disjoint fault subsets' stats (exact: all counts).

        Every field is an integer count over the faults each side saw, so
        merging shard results in any order reproduces the single-run
        stats bit-for-bit — the property the parallel runner rests on.
        """
        by_block = dict(self.by_block)
        for block, count in other.by_block.items():
            by_block[block] = by_block.get(block, 0) + count
        return IsolationStats(
            inserted=self.inserted + other.inserted,
            undetected=self.undetected + other.undetected,
            correct=self.correct + other.correct,
            ambiguous=self.ambiguous + other.ambiguous,
            wrong=self.wrong + other.wrong,
            by_block=by_block,
        )

    def to_json(self) -> Dict:
        """JSON-serializable form (checkpoint payload)."""
        return {
            "inserted": self.inserted,
            "undetected": self.undetected,
            "correct": self.correct,
            "ambiguous": self.ambiguous,
            "wrong": self.wrong,
            "by_block": dict(self.by_block),
        }

    @classmethod
    def from_json(cls, payload: Dict) -> "IsolationStats":
        """Inverse of :meth:`to_json`."""
        return cls(
            inserted=int(payload["inserted"]),
            undetected=int(payload["undetected"]),
            correct=int(payload["correct"]),
            ambiguous=int(payload["ambiguous"]),
            wrong=int(payload["wrong"]),
            by_block={
                str(k): int(v) for k, v in payload["by_block"].items()
            },
        )


def sample_isolation_faults(
    nl: Netlist, n_faults: int, seed: int
) -> List[StuckAt]:
    """The Section 6.1 fault sample: uniform over the labeled stage logic.

    Stem faults on flop Q nets are scan-cell output faults; the paper
    budgets scan cells as chipkill (they break the chain and are caught
    by the chain-integrity test), so the block-isolation experiment draws
    from the stage logic only.  Deterministic in ``(netlist, seed)`` —
    the parallel runner shards this exact list, so any partition of it
    reproduces the serial experiment.
    """
    from repro.atpg.faults import full_fault_universe

    q_nets = {f.q_net for f in nl.flops}
    universe = [
        f
        for f in full_fault_universe(nl)
        if not (f.is_stem and f.net in q_nets)
        and block_of(component_of_fault(nl, f))
    ]
    rng = random.Random(seed)
    return rng.sample(universe, min(n_faults, len(universe)))


def isolation_experiment(
    setup: TestSetup,
    n_faults: int = 600,
    seed: int = 1,
    faults: Optional[List[StuckAt]] = None,
) -> IsolationStats:
    """Insert random faults and verify scan-bit isolation (Section 6.1).

    Faults are drawn uniformly from the labeled (in-stage) fault universe;
    faults on tester-controlled pins carry no block and are excluded, as
    the paper's per-stage insertion implies.
    """
    nl = setup.model.netlist
    if faults is None:
        faults = sample_isolation_faults(nl, n_faults, seed)
    stats = IsolationStats(inserted=len(faults))
    for fault in faults:
        expected = block_of(component_of_fault(nl, fault))
        bits, pos = setup.tester.failing_bits(fault)
        if not bits and not pos:
            stats.undetected += 1
            continue
        result = setup.table.isolate(bits, pos)
        if result.isolated and result.block == expected:
            stats.correct += 1
            stats.by_block[expected] = stats.by_block.get(expected, 0) + 1
        elif result.isolated:
            stats.wrong += 1
        else:
            stats.ambiguous += 1
    return stats


def scan_chain_table(setup: TestSetup) -> Dict[str, int]:
    """One design's row of Table 3."""
    return {
        "faults": setup.atpg.n_total_faults,
        "collapsed_faults": setup.atpg.n_collapsed_faults,
        "cells": len(setup.chain),
        "vectors": setup.atpg.n_vectors,
        "cycles": setup.tester.test_cycles(setup.atpg.n_vectors),
        "coverage_pct": round(100 * setup.atpg.coverage, 2),
    }
