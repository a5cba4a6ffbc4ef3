"""The repair check oracle: netcheck, equivalence screen, isolation sample.

A candidate patch is *verified* only when three independent checks pass,
in increasing order of cost.  The first two read one
:class:`~repro.netlist.delta.NetlistDelta`, computed once per candidate
against the base build: which gates the patch rewired or appended, which
flops it changed or appended, and the patched copy's reader lists,
driver ids and topological positions, structurally checked in place of
:meth:`~repro.netlist.netlist.Netlist.validate`.  A patch that is not a
delta (a moved output, a changed gate type or label, changed primary
inputs or outputs, a changed flop Q, a reordered base order) takes the
full path in both stages and is counted as ``repair.full_builds``; the
candidate shapes never are (``repair.extended_builds``).

1. **netcheck** — rerun :func:`~repro.core.netcheck.check_netlist_ici`
   on the patched netlist: the target violation must be discharged and
   no observation point may regress (the patched violation set must be a
   strict subset of the base set).  The re-check re-sweeps the delta's
   forward cone over the base report's per-net block sets, and re-judges
   only the observers whose flop, D net or cone changed
   (``repair.ici_resweep_gates`` and ``repair.ici_rejudged`` count that
   work).  The full sweep stays for the base lint and the composed plan,
   and the tests hold the two equal.
2. **equivalence** — a functional-equivalence screen through the packed
   :class:`~repro.netlist.compiled.PackedWordSimulator` (every pattern
   of a net in one packed int): on a shared random pattern batch, every
   primary output and every *original* flop's captured next-state bit
   must match the base netlist exactly; the screen compares the packed
   ints of those nets.  The delta's build extends the base build, and
   its good values are the base values re-simulated from the changed
   gates onward.  Candidates that add state (the latch shape) extend
   the pattern matrix with fresh columns for the new flops; their
   captured bits are not compared — they are new state — but
   everything the base design observes must be bit-identical.  A
   random column rarely exposes a low-observability staged net, so a
   patch with new flops that passes the screen must also pass a proof:
   PODEM shows that no new flop's Q can reach any observation point
   (stuck-at-0 on each Q is untestable).  A found test or an aborted
   search rejects.
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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.atpg.podem_compiled import CompiledPodem
from repro.core.netcheck import NetIciReport, check_netlist_ici
from repro.netlist.compiled import (
    CompiledNetlist,
    PackedWordSimulator,
    WordValues,
)
from repro.netlist.delta import NetlistDelta
from repro.netlist.faults import StuckAt
from repro.netlist.gates import block_of
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
    """Base-netlist simulation state shared by every candidate check.

    ``po_ints`` / ``d_ints`` are the packed good values of the primary
    outputs and of each flop's D net, the observations the equivalence
    screen compares.  Nothing here is written after :meth:`build`.
    """

    netlist: Netlist
    report: NetIciReport
    sim: PackedWordSimulator
    patterns: np.ndarray
    values: WordValues
    po_ints: List[int]
    d_ints: List[int]

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
        po_ints, d_ints = _observed_ints(netlist, values)
        return cls(
            netlist=netlist,
            report=report,
            sim=sim,
            patterns=patterns,
            values=values,
            po_ints=po_ints,
            d_ints=d_ints,
        )


def _observed_ints(
    netlist: Netlist, values: WordValues
) -> Tuple[List[int], List[int]]:
    """Packed good values of the primary outputs and the flop D nets."""
    ints = values.ints
    return (
        [ints[net] for net in netlist.primary_outputs],
        [ints[f.d_net] for f in netlist.flops],
    )


def _netcheck_stage(
    base: BaseState,
    patched: Netlist,
    observer: str,
    exempt: Sequence[str],
    delta: Optional[NetlistDelta],
) -> Tuple[Optional[OracleVerdict], NetIciReport]:
    report = check_netlist_ici(patched, exempt_blocks=exempt,
                               base=(base.report, delta))
    if TELEMETRY.enabled:
        TELEMETRY.count("repair.ici_resweep_gates", report.sweep.swept)
        TELEMETRY.count("repair.ici_rejudged", report.sweep.judged)
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
    base: BaseState,
    patched: Netlist,
    seed: int,
    delta: Optional[NetlistDelta],
) -> Tuple[Optional[OracleVerdict], PackedWordSimulator, WordValues]:
    """The screen on ``patched``, built and simulated from the base when
    ``delta`` (its :meth:`NetlistDelta.of` the base build) is given."""
    if delta is None:
        sim = PackedWordSimulator(patched)
    else:
        sim = PackedWordSimulator(
            patched, CompiledNetlist.extend(base.sim.compiled, delta)
        )
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
    if delta is None:
        values = sim.good_values(patterns)
    else:
        values = sim.extend_values(base.values, patterns, delta.changed)
    if TELEMETRY.enabled:
        TELEMETRY.count("repair.oracle_cycles", patterns.shape[0])
    n_flops = len(base.d_ints)
    po_ints, d_ints = _observed_ints(patched, values)
    if po_ints != base.po_ints:
        return (
            OracleVerdict(False, "equivalence", "primary outputs differ"),
            sim, values,
        )
    if d_ints[:n_flops] != base.d_ints:
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
) -> Optional[OracleVerdict]:
    ex = set(exempt)
    sites = [
        gid for gid in sorted(sample_gates)
        if block_of(patched.gates[gid].component)
        and block_of(patched.gates[gid].component) not in ex
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
        block = block_of(gate.component)
        for value in (0, 1):
            fault = StuckAt(net=gate.output, value=value)
            fids, _pos = sim.failing_observations(values, fault)
            if TELEMETRY.enabled:
                TELEMETRY.count("repair.isolation_faults")
            for fid in fids:
                fb = block_of(patched.flops[fid].component)
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
) -> OracleVerdict:
    """Run the full three-stage oracle on one candidate patch.

    The patch's :class:`NetlistDelta` is computed once, against the base
    build, and read by the netcheck and the equivalence screen; a patch
    that is not a delta takes the full path in both
    (``repair.full_builds``).
    """
    with TELEMETRY.span("repair.oracle"):
        delta = NetlistDelta.of(base.sim.compiled, patched)
        if TELEMETRY.enabled:
            TELEMETRY.count("repair.extended_builds", int(delta is not None))
            TELEMETRY.count("repair.full_builds", int(delta is None))
        verdict, _report = _netcheck_stage(
            base, patched, observer, exempt, delta
        )
        if verdict is not None:
            return verdict
        verdict, sim, values = _equivalence_stage(
            base, patched, seed, delta
        )
        if verdict is not None:
            return verdict
        verdict = _isolation_stage(
            patched, sim, values, sample_gates,
            n_isolation_faults, seed, exempt,
        )
        if verdict is not None:
            return verdict
    return OracleVerdict(True, "verified")
