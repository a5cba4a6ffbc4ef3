"""The combined ATPG flow: random patterns, then deterministic PODEM.

This is the conventional production flow the paper leans on: cheap random
patterns detect the easy majority of faults; PODEM targets the survivors;
every generated pattern is immediately fault-simulated against the
remaining list so detected faults are dropped (reducing the vector count —
the quantity Table 3 reports).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.atpg.collapse import collapse_faults
from repro.atpg.faults import full_fault_universe
from repro.atpg.faultsim import grade_faults
from repro.atpg.podem_compiled import CompiledPodem
from repro.netlist.compiled import PackedWordSimulator
from repro.netlist.faults import StuckAt
from repro.netlist.netlist import Netlist
from repro.telemetry import TELEMETRY


@dataclass
class AtpgResult:
    """Output of :func:`run_atpg`.

    ``patterns`` rows are full source assignments (PIs + scan bits) in the
    simulator's ``source_col`` column order.
    """

    patterns: np.ndarray
    n_total_faults: int
    n_collapsed_faults: int
    n_detected: int
    n_untestable: int
    n_aborted: int

    @property
    def n_vectors(self) -> int:
        """Number of scan vectors in the final set."""
        return int(self.patterns.shape[0])

    @property
    def coverage(self) -> float:
        """Detected / (collapsed − proven-untestable)."""
        testable = self.n_collapsed_faults - self.n_untestable
        return self.n_detected / testable if testable else 1.0

    def summary(self) -> str:
        """One-line result report."""
        return (
            f"{self.n_vectors} vectors, "
            f"{self.n_detected}/{self.n_collapsed_faults} collapsed faults "
            f"detected ({self.coverage:.1%} of testable), "
            f"{self.n_untestable} untestable, {self.n_aborted} aborted"
        )


def run_atpg(
    netlist: Netlist,
    faults: Optional[Sequence[StuckAt]] = None,
    seed: int = 0,
    batch_size: int = 64,
    max_random_batches: int = 16,
    backtrack_limit: int = 512,
    max_deterministic: Optional[int] = None,
    compact: bool = True,
    drop_batch: int = 64,
) -> AtpgResult:
    """Generate a compact scan vector set for ``netlist``.

    Args:
        netlist: design under test (validated, full scan assumed).
        faults: target list; defaults to the collapsed full universe.
        seed: RNG seed for random patterns and X-fill.
        batch_size: random patterns graded per batch.
        max_random_batches: random-phase budget; the phase also stops after
            a batch detects nothing new.
        backtrack_limit: PODEM backtrack budget per fault.
        max_deterministic: cap on PODEM targets (remaining faults beyond
            the cap count as aborted); None means no cap.
        compact: run reverse-order static compaction on the final set
            (coverage-preserving; production flows always do).
        drop_batch: deterministic-phase patterns accumulated before each
            fault-dropping ``grade_faults`` call (fills whole 64-bit
            packed words instead of grading 1-row matrices).  ``1``
            reproduces per-pattern dropping exactly.

    Returns:
        An :class:`AtpgResult` with the kept patterns and statistics.
    """
    if drop_batch < 1:
        raise ValueError(f"drop_batch must be >= 1, got {drop_batch}")
    rng = np.random.default_rng(seed)
    universe = full_fault_universe(netlist)
    targets = list(faults) if faults is not None else collapse_faults(
        netlist, universe
    )
    sim = PackedWordSimulator(netlist)
    n_src = sim.n_sources
    remaining: List[StuckAt] = list(targets)
    kept_rows: List[np.ndarray] = []
    n_detected = 0

    # ---- Random phase -------------------------------------------------
    with TELEMETRY.span("atpg/random"):
        for _ in range(max_random_batches):
            if not remaining:
                break
            batch = rng.integers(0, 2, size=(batch_size, n_src)).astype(bool)
            grade = grade_faults(netlist, remaining, batch, sim=sim)
            if not grade.detected:
                break  # diminishing returns: go deterministic
            useful = sorted({idx for idx in grade.detected.values()})
            for idx in useful:
                kept_rows.append(batch[idx])
            n_detected += len(grade.detected)
            remaining = grade.undetected
    n_random_detected = n_detected

    # ---- Deterministic phase ------------------------------------------
    podem = CompiledPodem(
        netlist, backtrack_limit=backtrack_limit, compiled=sim.compiled
    )
    n_untestable = 0
    n_aborted = 0
    n_targeted = 0
    # Cursor bookkeeping: ``idx`` walks ``remaining`` in place (no
    # per-fault list copies); detected-target patterns accumulate in
    # ``pending`` and are graded ``drop_batch`` at a time so dropping
    # fills whole packed words.
    idx = 0
    pending_rows: List[np.ndarray] = []
    pending_targets: List[StuckAt] = []

    def _flush() -> None:
        """Grade pending patterns against every live fault and drop hits."""
        nonlocal remaining, idx, n_detected
        if not pending_rows:
            return
        live = pending_targets + remaining[idx:]
        grade = grade_faults(
            netlist, live, np.stack(pending_rows, axis=0), sim=sim
        )
        for f in pending_targets:
            if f not in grade.detected:
                # X-fill changed nothing about the targeted detection;
                # PODEM guarantees the assigned bits detect the fault, so
                # any miss here indicates an inconsistency worth
                # surfacing loudly.
                raise AssertionError(
                    f"PODEM pattern failed to detect {f.describe()}"
                )
        n_detected += len(grade.detected)
        remaining = grade.undetected
        idx = 0
        pending_rows.clear()
        pending_targets.clear()

    with TELEMETRY.span("atpg/deterministic"):
        while idx < len(remaining):
            if (
                max_deterministic is not None
                and n_targeted >= max_deterministic
            ):
                _flush()
                n_aborted += len(remaining) - idx
                remaining = []
                break
            n_targeted += 1
            fault = remaining[idx]
            result = podem.generate(fault)
            if result.status == "untestable":
                n_untestable += 1
                idx += 1
                continue
            if result.status == "aborted":
                n_aborted += 1
                idx += 1
                continue
            row = rng.integers(0, 2, size=n_src).astype(bool)
            assert result.pattern is not None
            for net, val in result.pattern.items():
                row[sim.source_col[net]] = bool(val)
            kept_rows.append(row)
            pending_rows.append(row)
            pending_targets.append(fault)
            idx += 1
            if len(pending_rows) >= drop_batch:
                _flush()
        _flush()

    patterns = (
        np.stack(kept_rows, axis=0)
        if kept_rows
        else np.zeros((0, n_src), dtype=bool)
    )
    if compact and patterns.shape[0] > 1:
        from repro.atpg.compaction import reverse_order_compaction

        with TELEMETRY.span("atpg/compaction"):
            patterns = reverse_order_compaction(
                netlist, patterns, targets, sim=sim
            )
    t = TELEMETRY
    if t.enabled:
        t.count("atpg.runs")
        t.count("atpg.vectors", int(patterns.shape[0]))
        t.count("atpg.detected.random", n_random_detected)
        t.count("atpg.detected.deterministic",
                n_detected - n_random_detected)
        t.count("atpg.untestable", n_untestable)
        t.count("atpg.aborted", n_aborted)
    return AtpgResult(
        patterns=patterns,
        n_total_faults=len(universe),
        n_collapsed_faults=len(targets),
        n_detected=n_detected,
        n_untestable=n_untestable,
        n_aborted=n_aborted,
    )
