"""The sharded ``repair`` campaign: lint, search, verify, compose.

The sixth registered campaign closes the lint→patch loop.  One run:

1. builds the target model — the baseline RTL (genuine ICI violations)
   or a hand-broken Rescue variant (:mod:`repro.repair.seedbreak`) —
   and lints it with :func:`~repro.core.netcheck.check_netlist_ici`;
2. shards the violation list through
   :func:`~repro.runner.executor.run_shards`: each shard searches the
   candidate space (:mod:`repro.repair.candidates`) for its violations
   and verifies every candidate with the three-stage check oracle
   (:mod:`repro.repair.oracle`);
3. merges shard payloads in shard-index order, picks the area-minimal
   verified candidate per violation (ties broken by candidate kind),
   composes the plan onto a fresh copy of the model, and re-verifies
   the *composed* patch end to end — netcheck plus the bit-exact packed
   equivalence screen.

Every shard's payload is a pure function of ``(spec, shard range)`` —
model construction, break seeding, pattern generation, and the search
order are all seeded — so the emitted plan is bit-identical for any
worker count, chunking, or resume history, and the campaign registers
in the runner registry like any other: ``repro run repair`` and the
HTTP campaign service drive it with zero new server code.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.netcheck import check_netlist_ici
from repro.netlist.area import area_breakdown
from repro.netlist.delta import NetlistDelta
from repro.netlist.netlist import Netlist
from repro.repair.candidates import (
    CANDIDATE_KINDS,
    AlreadySingleBlock,
    NotApplicable,
    apply_candidate,
)
from repro.repair.oracle import BaseState, _equivalence_stage, verify_candidate
from repro.repair.seedbreak import SeededBreak, seed_breaks
from repro.runner.executor import run_shards
from repro.runner.registry import at_least_one, check_spec, choice
from repro.runner.seeding import shard_ranges
from repro.telemetry import TELEMETRY

#: Model variants the campaign can repair.
REPAIR_MODELS = ("baseline", "rescue", "rescue-broken")


@dataclass(frozen=True)
class RepairSpec:
    """Everything that determines the repair campaign's outcome."""

    model: str = choice("baseline", REPAIR_MODELS)
    tiny: bool = True
    # Break seeding for the "rescue-broken" variant.
    n_breaks: int = 2
    break_seed: int = 5
    # Blocks the fault map treats as non-isolatable (lint exemptions).
    exempt: Tuple[str, ...] = ("chipkill",)
    # Oracle budget: equivalence patterns and isolation faults sampled
    # per candidate.
    n_patterns: int = at_least_one(192)
    n_isolation_faults: int = 6
    seed: int = 0
    # Violations per shard.
    chunk_size: int = at_least_one(2)

    def __post_init__(self) -> None:
        check_spec(self)


def build_model(spec: RepairSpec) -> Tuple[Netlist, List[SeededBreak]]:
    """The campaign's target netlist plus any seeded breaks."""
    from repro.rtl import RtlParams, build_baseline_rtl, build_rescue_rtl

    params = RtlParams.tiny() if spec.tiny else RtlParams()
    if spec.model == "baseline":
        return build_baseline_rtl(params).netlist, []
    netlist = build_rescue_rtl(params).netlist
    breaks: List[SeededBreak] = []
    if spec.model == "rescue-broken":
        breaks = seed_breaks(
            netlist, spec.n_breaks, spec.break_seed, exempt=spec.exempt
        )
    return netlist, breaks


@functools.lru_cache(maxsize=1)
def prepare_repair(spec: RepairSpec) -> Tuple[BaseState, List[SeededBreak]]:
    """The campaign state: the linted model's base simulation and breaks.

    Built once per spec; :func:`run_repair` reuses a prepared state, and
    forked workers inherit it.
    """
    netlist, breaks = build_model(spec)
    report = check_netlist_ici(netlist, exempt_blocks=spec.exempt)
    return BaseState.build(netlist, report, spec.n_patterns, spec.seed), breaks


def repair_items(spec: RepairSpec) -> List[Tuple[int, int]]:
    """The shard list: contiguous index spans over the violation list."""
    base, _breaks = prepare_repair(spec)
    return shard_ranges(len(base.report.violations), spec.chunk_size)


def _search_violation(spec: RepairSpec, base: BaseState, v) -> Dict[str, Any]:
    """Generate and verify every candidate for one violation."""
    t = TELEMETRY
    entry: Dict[str, Any] = {
        "id": v.vid,
        "observer": v.observer,
        "observer_block": v.observer_block,
        "blocks": list(v.blocks),
        "candidates": [],
    }
    if v.observer.startswith("po["):
        # Primary outputs are tester pins, not flops — nothing to patch.
        return entry
    with t.span("repair.search"):
        for kind in CANDIDATE_KINDS:
            patched = base.netlist.copy()
            try:
                info = apply_candidate(
                    patched, kind, v.observer, exempt=spec.exempt
                )
            except NotApplicable:
                continue
            if t.enabled:
                t.count("repair.candidates_generated")
            verdict = verify_candidate(
                base,
                patched,
                v.observer,
                info.sample_gates,
                exempt=spec.exempt,
                n_isolation_faults=spec.n_isolation_faults,
                seed=spec.seed,
            )
            if t.enabled:
                t.count(
                    "repair.candidates_verified"
                    if verdict.ok
                    else "repair.candidates_rejected"
                )
            entry["candidates"].append(
                {
                    "kind": kind,
                    "verified": verdict.ok,
                    "stage": verdict.stage,
                    "reason": verdict.reason,
                    "extra_area": info.extra_area,
                    "note": info.note,
                }
            )
    return entry


def _repair_worker(state, span: Tuple[int, int]) -> Dict[str, Any]:
    """Search one contiguous violation span; returns shard JSON."""
    start, stop = span
    spec, base = state
    return {
        "violations": [
            _search_violation(spec, base, v)
            for v in base.report.violations[start:stop]
        ]
    }


@dataclass
class RepairAction:
    """One chosen repair in the emitted plan."""

    vid: str
    observer: str
    observer_block: str
    kind: str
    extra_area: float
    note: str = ""

    def to_json(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_json(cls, d: Mapping[str, Any]) -> "RepairAction":
        return cls(**d)


def choose_actions(
    entries: List[Dict[str, Any]],
) -> Tuple[List[RepairAction], List[str]]:
    """Area-minimal verified candidate per violation (ties by kind)."""
    actions: List[RepairAction] = []
    unrepaired: List[str] = []
    for e in entries:
        verified = [c for c in e["candidates"] if c["verified"]]
        if not verified:
            unrepaired.append(e["id"])
            continue
        best = min(verified, key=lambda c: (c["extra_area"], c["kind"]))
        actions.append(
            RepairAction(
                vid=e["id"],
                observer=e["observer"],
                observer_block=e["observer_block"],
                kind=best["kind"],
                extra_area=best["extra_area"],
                note=best["note"],
            )
        )
    return actions, unrepaired


def apply_plan(
    netlist: Netlist,
    actions: List[RepairAction],
    exempt: Tuple[str, ...] = ("chipkill",),
) -> Tuple[List[str], List[RepairAction]]:
    """Apply a plan's actions in order, in place.

    Returns the patch log (one line per action) and the actions actually
    applied.  Actions are symbolic (observer + kind), so re-application
    on any equal netlist reproduces the workers' patches gate for gate.
    Each action was verified alone; an earlier action of the plan may
    already have cleared a later observer's cone, and that later action
    is then logged as subsumed and skipped.
    """
    log: List[str] = []
    applied: List[RepairAction] = []
    for a in actions:
        try:
            info = apply_candidate(
                netlist, a.kind, a.observer, exempt=exempt
            )
        except AlreadySingleBlock as exc:
            log.append(f"subsumed {a.kind} {a.observer}: {exc}")
            continue
        log.append(info.log_line())
        applied.append(a)
    return log, applied


@dataclass
class RepairResult:
    """Merged repair output: the verified plan plus its own audit."""

    model: str
    n_observers: int
    violations: List[Dict[str, Any]] = field(default_factory=list)
    actions: List[RepairAction] = field(default_factory=list)
    unrepaired: List[str] = field(default_factory=list)
    breaks: List[str] = field(default_factory=list)
    base_area: float = 0.0
    extra_area: float = 0.0
    patched_satisfied: bool = True
    equivalent: bool = True
    n_patterns: int = 0

    @property
    def n_violations(self) -> int:
        return len(self.violations)

    @property
    def n_repaired(self) -> int:
        return len(self.actions)

    def candidate_counts(self) -> Dict[str, int]:
        """Generated / verified / rejected totals across the search."""
        generated = verified = 0
        for e in self.violations:
            for c in e["candidates"]:
                generated += 1
                verified += bool(c["verified"])
        return {
            "generated": generated,
            "verified": verified,
            "rejected": generated - verified,
        }

    def to_json(self) -> Dict[str, Any]:
        return {
            "model": self.model,
            "n_observers": self.n_observers,
            "violations": self.violations,
            "actions": [a.to_json() for a in self.actions],
            "unrepaired": list(self.unrepaired),
            "breaks": list(self.breaks),
            "base_area": self.base_area,
            "extra_area": self.extra_area,
            "patched_satisfied": self.patched_satisfied,
            "equivalent": self.equivalent,
            "n_patterns": self.n_patterns,
        }

    @classmethod
    def from_json(cls, d: Mapping[str, Any]) -> "RepairResult":
        return cls(
            model=d["model"],
            n_observers=int(d["n_observers"]),
            violations=list(d["violations"]),
            actions=[RepairAction.from_json(a) for a in d["actions"]],
            unrepaired=list(d["unrepaired"]),
            breaks=list(d["breaks"]),
            base_area=float(d["base_area"]),
            extra_area=float(d["extra_area"]),
            patched_satisfied=bool(d["patched_satisfied"]),
            equivalent=bool(d["equivalent"]),
            n_patterns=int(d["n_patterns"]),
        )

    def summary(self) -> str:
        counts = self.candidate_counts()
        pct = (
            100.0 * self.extra_area / self.base_area
            if self.base_area
            else 0.0
        )
        lines = [
            f"repair: {self.model} model, {self.n_violations} violations "
            f"across {self.n_observers} observation points",
            f"  plan: {self.n_repaired} repaired, "
            f"{len(self.unrepaired)} unrepairable; candidates "
            f"{counts['generated']} generated / {counts['verified']} "
            f"verified / {counts['rejected']} rejected",
            f"  area: +{self.extra_area:.1f} on {self.base_area:.1f} "
            f"NAND2-equivalents ({pct:+.2f}%)",
            f"  verification: netcheck "
            f"{'PASS' if self.patched_satisfied else 'FAIL'}, "
            f"equivalence "
            f"{'bit-exact' if self.equivalent else 'MISMATCH'} "
            f"({self.n_patterns} patterns)",
        ]
        for b in self.breaks:
            lines.append(f"  seeded break: {b}")
        for a in self.actions:
            lines.append(
                f"  {a.vid}  {a.observer:24s} {a.kind:8s} "
                f"+{a.extra_area:8.2f}  {a.note}"
            )
        for vid in self.unrepaired:
            lines.append(f"  {vid}  UNREPAIRED")
        return "\n".join(lines)


def run_repair(spec: RepairSpec, **runner) -> RepairResult:
    """Run the sharded repair campaign; returns the verified plan.

    Bit-identical for any ``workers``/chunking/resume history: shards
    are independent deterministic searches over index spans of the
    (deterministic) violation list, payloads merge in shard-index
    order, and plan selection plus final verification are pure
    functions of the merged data.  ``runner`` options go to
    :func:`~repro.runner.executor.run_shards`.
    """
    base, breaks = prepare_repair(spec)
    with TELEMETRY.span("repair.campaign"):
        payloads = run_shards(
            "repair", spec, repair_items(spec), _repair_worker,
            state=(spec, base), **runner,
        )
        entries = [v for p in payloads for v in p["violations"]]
        actions, unrepaired = choose_actions(entries)
        return _compose_and_verify(
            spec, base, breaks, entries, actions, unrepaired
        )


def _compose_and_verify(
    spec: RepairSpec,
    base: BaseState,
    breaks: List[SeededBreak],
    entries: List[Dict[str, Any]],
    actions: List[RepairAction],
    unrepaired: List[str],
) -> RepairResult:
    """Compose the chosen plan and re-verify the patched model whole."""
    netlist, report = base.netlist, base.report
    patched = netlist.copy()
    _log, applied = apply_plan(patched, actions, exempt=spec.exempt)
    satisfied = check_netlist_ici(
        patched, exempt_blocks=spec.exempt
    ).satisfied
    verdict, _sim, _values = _equivalence_stage(
        base, patched, spec.seed,
        NetlistDelta.of(base.sim.compiled, patched),
    )
    base_area = area_breakdown(netlist).total
    if TELEMETRY.enabled:
        TELEMETRY.count("repair.plan_actions", len(actions))
    return RepairResult(
        model=spec.model,
        n_observers=report.checked_observers,
        violations=entries,
        actions=actions,
        unrepaired=unrepaired,
        breaks=[b.describe() for b in breaks],
        base_area=base_area,
        extra_area=sum(a.extra_area for a in applied),
        patched_satisfied=satisfied,
        equivalent=verdict is None,
        n_patterns=spec.n_patterns,
    )


def patch_model(
    spec: RepairSpec,
    actions: List[RepairAction],
    netlist: Optional[Netlist] = None,
) -> Tuple[Netlist, List[str]]:
    """The patched netlist for a plan, plus its transform log.

    Rebuilds the spec's model (breaks included) unless ``netlist`` is
    given, then applies the actions to a copy — the ``--apply`` path.
    """
    if netlist is None:
        netlist, _breaks = build_model(spec)
    patched = netlist.copy()
    log, _applied = apply_plan(patched, actions, exempt=spec.exempt)
    return patched, log
