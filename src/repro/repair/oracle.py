"""The repair check oracle: netcheck, equivalence screen, isolation sample.

A candidate patch is *verified* only when three independent checks pass,
in increasing order of cost:

1. **netcheck** — rerun :func:`~repro.core.netcheck.check_netlist_ici`
   on the patched netlist: the target violation must be discharged and
   no observation point may regress (the patched violation set must be a
   strict subset of the base set).
2. **equivalence** — a functional-equivalence screen through the packed
   :class:`~repro.netlist.compiled.PackedWordSimulator` (64 patterns per
   uint64 word): on a shared random pattern batch, every primary output
   and every *original* flop's captured next-state bit must match the
   base netlist exactly.  Candidates that add state (the latch shape)
   extend the pattern matrix with fresh columns for the new flops; their
   captured bits are not compared — they are new state — but everything
   the base design observes must be bit-identical.  A random column
   rarely exposes a low-observability staged net, so a patch with new
   flops that passes the screen must also pass a proof: PODEM shows
   that no new flop's Q can reach any observation point (stuck-at-0 on
   each Q is untestable).  A found test or an aborted search rejects.
3. **isolation sample** — stuck-at faults sampled on the patch's gates
   must be detected only by observers of the faulted gate's block (or by
   primary outputs, which are tester pins, not scan-isolation points).
   This dynamically confirms what netcheck proved structurally: the
   patch did not open a new cross-block detection path.

The screen is sound for rejection (a mismatch is a real functional
change) and sampling-complete for acceptance, which is the standard
fast-equivalence contract; candidates that survive are additionally
exact by construction for the redrive/relabel shapes, and proven for
shapes that add state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Set, Tuple

import numpy as np

from repro.atpg.podem_compiled import CompiledPodem
from repro.core.netcheck import NetIciReport, _default_block, check_netlist_ici
from repro.netlist.compiled import PackedWordSimulator, WordValues
from repro.netlist.faults import StuckAt
from repro.netlist.netlist import Netlist
from repro.telemetry import TELEMETRY


@dataclass(frozen=True)
class OracleVerdict:
    """Outcome of verifying one candidate."""

    ok: bool
    stage: str  # "netcheck" | "equivalence" | "isolation" | "verified"
    reason: str = ""


def random_patterns(
    n_patterns: int, n_sources: int, seed: int
) -> np.ndarray:
    """The shared (P, n_sources) bool pattern batch for a repair run."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(n_patterns, n_sources), dtype=np.uint8
                        ).astype(bool)


@dataclass
class BaseState:
    """Base-netlist simulation state shared by every candidate check."""

    netlist: Netlist
    report: NetIciReport
    sim: PackedWordSimulator
    patterns: np.ndarray
    values: WordValues
    po: np.ndarray
    state: np.ndarray

    @classmethod
    def build(
        cls,
        netlist: Netlist,
        report: NetIciReport,
        n_patterns: int,
        seed: int,
    ) -> "BaseState":
        sim = PackedWordSimulator(netlist)
        patterns = random_patterns(n_patterns, sim.n_sources, seed)
        values = sim.good_values(patterns)
        po, state = sim.capture(values)
        return cls(
            netlist=netlist,
            report=report,
            sim=sim,
            patterns=patterns,
            values=values,
            po=po,
            state=state,
        )


def _netcheck_stage(
    base: BaseState,
    patched: Netlist,
    observer: str,
    exempt: Sequence[str],
    block_of,
) -> Tuple[Optional[OracleVerdict], NetIciReport]:
    report = check_netlist_ici(patched, block_of=block_of,
                               exempt_blocks=exempt)
    after = {v.observer for v in report.violations}
    if observer in after:
        return OracleVerdict(False, "netcheck", "violation survives"), report
    before = {v.observer for v in base.report.violations}
    fresh = after - before
    if fresh:
        return (
            OracleVerdict(
                False, "netcheck",
                f"introduces {len(fresh)} new violations",
            ),
            report,
        )
    return None, report


def _equivalence_stage(
    base: BaseState, patched: Netlist, seed: int
) -> Tuple[Optional[OracleVerdict], PackedWordSimulator, WordValues]:
    sim = PackedWordSimulator(patched)
    patterns = base.patterns
    extra = sim.n_sources - patterns.shape[1]
    if extra:
        # New flops appended fresh state columns; drive them randomly so
        # a patch that *reads* new state cannot hide behind a constant.
        patterns = np.concatenate(
            [patterns,
             random_patterns(patterns.shape[0], extra, seed + 1)],
            axis=1,
        )
    values = sim.good_values(patterns)
    po, state = sim.capture(values)
    if TELEMETRY.enabled:
        TELEMETRY.count("repair.oracle_cycles", patterns.shape[0])
    n_flops = base.state.shape[1]
    if not np.array_equal(po, base.po):
        return (
            OracleVerdict(False, "equivalence", "primary outputs differ"),
            sim, values,
        )
    if not np.array_equal(state[:, :n_flops], base.state):
        return (
            OracleVerdict(False, "equivalence", "captured state differs"),
            sim, values,
        )
    if extra:
        podem = CompiledPodem(patched, compiled=sim.compiled)
        for flop in patched.flops[n_flops:]:
            result = podem.generate(StuckAt(net=flop.q_net, value=0))
            if result.status != "untestable":
                return (
                    OracleVerdict(
                        False, "equivalence",
                        f"new state {flop.name} observable "
                        f"(PODEM: {result.status})",
                    ),
                    sim, values,
                )
    return None, sim, values


def _isolation_stage(
    patched: Netlist,
    sim: PackedWordSimulator,
    values: WordValues,
    sample_gates: Sequence[int],
    n_faults: int,
    seed: int,
    exempt: Sequence[str],
    block_of,
) -> Optional[OracleVerdict]:
    resolve = block_of or _default_block
    ex = set(exempt)
    sites = [
        gid for gid in sorted(sample_gates)
        if resolve(patched.gates[gid].component)
        and resolve(patched.gates[gid].component) not in ex
    ]
    if not sites:
        return None
    rng = random.Random(seed)
    chosen = (
        sites if len(sites) <= n_faults
        else sorted(rng.sample(sites, n_faults))
    )
    for gid in chosen:
        gate = patched.gates[gid]
        block = resolve(gate.component)
        for value in (0, 1):
            fault = StuckAt(net=gate.output, value=value)
            fids, _pos = sim.failing_observations(values, fault)
            if TELEMETRY.enabled:
                TELEMETRY.count("repair.isolation_faults")
            for fid in fids:
                fb = resolve(patched.flops[fid].component)
                if fb != block and fb not in ex:
                    return OracleVerdict(
                        False, "isolation",
                        f"{fault.describe()} in {block} detected by "
                        f"{patched.flops[fid].name} ({fb})",
                    )
    return None


def verify_candidate(
    base: BaseState,
    patched: Netlist,
    observer: str,
    sample_gates: Sequence[int] = (),
    *,
    exempt: Sequence[str] = (),
    n_isolation_faults: int = 6,
    seed: int = 0,
    block_of: Optional[Callable[[str], str]] = None,
) -> OracleVerdict:
    """Run the full three-stage oracle on one candidate patch."""
    with TELEMETRY.span("repair.oracle"):
        verdict, _report = _netcheck_stage(
            base, patched, observer, exempt, block_of
        )
        if verdict is not None:
            return verdict
        verdict, sim, values = _equivalence_stage(base, patched, seed)
        if verdict is not None:
            return verdict
        verdict = _isolation_stage(
            patched, sim, values, sample_gates,
            n_isolation_faults, seed, exempt, block_of,
        )
        if verdict is not None:
            return verdict
    return OracleVerdict(True, "verified")
