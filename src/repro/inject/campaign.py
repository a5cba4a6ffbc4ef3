"""Sharded fault-injection campaigns with worker-invariant statistics.

Follows the runner's campaign recipe: a frozen :class:`InjectionSpec`
captures every parameter that affects the result and is hashed into the
checkpoint key; :func:`prepare_injection` builds the campaign state
(golden run, fault sample, first-effect scan) once in the calling
process and :func:`~repro.runner.executor.run_shards` hands it to every
worker; shards are contiguous fault-index spans whose JSON payloads
merge in shard order into an :class:`InjectionStats` that is
bit-identical for any worker count, chunk size, or checkpoint/resume
history.

:func:`masking_validation` runs the paper's headline experiment: the
same fault sample restricted to mapped-out ICI blocks, once on the
fully-degraded configuration (where every fault must be masked) and
once on the full configuration (where the same blocks are live and the
sample produces a nonzero SDC rate).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.inject.models import KINDS
from repro.runner.executor import run_shards
from repro.runner.registry import at_least_one, check_spec, choice
from repro.runner.seeding import shard_ranges
from repro.telemetry import TELEMETRY
from repro.yieldmodel.configs import DIMENSIONS

OUTCOMES = ("masked", "sdc", "detected", "hang")

#: Values of :attr:`InjectionSpec.model`.
FAULT_MODELS = KINDS + ("both",)


@dataclass(frozen=True)
class InjectionSpec:
    """Everything that determines an injection campaign's outcome."""

    benchmark: str = "gzip"
    n_instructions: int = 2000
    trace_seed: int = 7
    counts: Tuple[int, ...] = (2, 2, 2, 2, 2, 2)  # DIMENSIONS order
    model: str = choice("both", FAULT_MODELS)
    n_faults: int = 64
    seed: int = 0
    blocks: Optional[Tuple[str, ...]] = None  # restrict sites to blocks
    chunk_size: int = at_least_one(8)
    # Golden checkpoint spacing in cycles for suffix replay (0: every
    # fault replays from cycle 0).
    checkpoint_interval: int = 128
    # Summary-only mode: drop per-fault records, keep outcome counts,
    # exact latency/distance aggregates, and a bounded exemplar set.
    keep_records: bool = True
    exemplar_cap: int = 8
    # Site sampling: "uniform" | "weighted" (residency-proportional,
    # profiled during the golden run).
    sampling: str = choice("uniform", ("uniform", "weighted"))
    profile_stride: int = 16
    # Persistent golden-prefix cache under REPRO_CACHE_DIR: warm
    # campaigns skip golden simulation entirely.
    golden_cache: bool = False

    def __post_init__(self) -> None:
        check_spec(self)


@dataclass
class InjectionStats:
    """Merged campaign result: outcome counts + per-fault records.

    With ``keep_records=False`` (summary-only campaigns) the full record
    list stays empty; instead each outcome keeps its first
    ``exemplar_cap`` records and the latency/distance aggregates stay
    exact.  Merge semantics remain worker-count-invariant: shards merge
    in shard-index order, so "first N exemplars" means the same faults
    as a serial run.
    """

    outcomes: Dict[str, int] = field(
        default_factory=lambda: {k: 0 for k in OUTCOMES}
    )
    records: List[Dict[str, Any]] = field(default_factory=list)
    keep_records: bool = True
    exemplar_cap: int = 8
    exemplars: Dict[str, List[Dict[str, Any]]] = field(
        default_factory=dict
    )
    latency_n: int = 0
    latency_sum: int = 0
    distance_n: int = 0
    distance_sum: int = 0
    #: Per-ICI-block outcome counts, kept even in summary-only mode —
    #: the per-block SDC rates `repro.decide` folds into its
    #: vulnerability scores.  {block: {outcome: count}}.
    by_block: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return sum(self.outcomes.values())

    def rate(self, outcome: str) -> float:
        return self.outcomes.get(outcome, 0) / self.n if self.n else 0.0

    def add(self, fault, result) -> None:
        self.outcomes[result.outcome] += 1
        block = self.by_block.setdefault(
            fault.site.block, {k: 0 for k in OUTCOMES}
        )
        block[result.outcome] += 1
        if result.detect_latency is not None:
            self.latency_n += 1
            self.latency_sum += result.detect_latency
        if result.commit_distance is not None:
            self.distance_n += 1
            self.distance_sum += result.commit_distance
        rec = {
            "fault": fault.to_json(),
            "block": fault.site.block,
            "outcome": result.outcome,
            "cycles": result.cycles,
            "commits": result.commits,
            "armed": result.armed,
            "detect_reason": result.detect_reason,
            "detect_latency": result.detect_latency,
            "commit_distance": result.commit_distance,
        }
        if self.keep_records:
            self.records.append(rec)
        else:
            ex = self.exemplars.setdefault(result.outcome, [])
            if len(ex) < self.exemplar_cap:
                ex.append(rec)

    def merge(self, other: "InjectionStats") -> "InjectionStats":
        """Combine two shard results (records concatenate in shard
        order, so the merged list is the serial campaign's list).  In
        summary-only mode exemplars concatenate the same way and re-cap,
        which reproduces the serial first-``exemplar_cap`` set."""
        keep = self.keep_records if self.n else other.keep_records
        cap = self.exemplar_cap if self.n else other.exemplar_cap
        outcomes = {
            k: self.outcomes.get(k, 0) + other.outcomes.get(k, 0)
            for k in OUTCOMES
        }
        merged = InjectionStats(
            outcomes,
            self.records + other.records,
            keep_records=keep,
            exemplar_cap=cap,
        )
        for k in set(self.exemplars) | set(other.exemplars):
            ex = self.exemplars.get(k, []) + other.exemplars.get(k, [])
            merged.exemplars[k] = ex[:cap]
        # Blocks appear in first-shard-touched order; counts are plain
        # integer sums, so the merged map is worker-count-invariant.
        for by in (self.by_block, other.by_block):
            for blk, counts in by.items():
                acc = merged.by_block.setdefault(
                    blk, {k: 0 for k in OUTCOMES}
                )
                for k, v in counts.items():
                    acc[k] = acc.get(k, 0) + v
        merged.latency_n = self.latency_n + other.latency_n
        merged.latency_sum = self.latency_sum + other.latency_sum
        merged.distance_n = self.distance_n + other.distance_n
        merged.distance_sum = self.distance_sum + other.distance_sum
        return merged

    def to_json(self) -> Dict[str, Any]:
        return {
            "outcomes": self.outcomes,
            "records": self.records,
            "keep_records": self.keep_records,
            "exemplar_cap": self.exemplar_cap,
            "exemplars": self.exemplars,
            "latency": [self.latency_n, self.latency_sum],
            "distance": [self.distance_n, self.distance_sum],
            "by_block": {
                blk: self.by_block[blk] for blk in sorted(self.by_block)
            },
        }

    @classmethod
    def from_json(cls, d: Dict[str, Any]) -> "InjectionStats":
        outcomes = {k: 0 for k in OUTCOMES}
        outcomes.update({k: int(v) for k, v in d["outcomes"].items()})
        stats = cls(
            outcomes,
            list(d["records"]),
            keep_records=bool(d.get("keep_records", True)),
            exemplar_cap=int(d.get("exemplar_cap", 8)),
            exemplars={
                k: list(v) for k, v in d.get("exemplars", {}).items()
            },
        )
        stats.latency_n, stats.latency_sum = (
            int(x) for x in d.get("latency", (0, 0))
        )
        stats.distance_n, stats.distance_sum = (
            int(x) for x in d.get("distance", (0, 0))
        )
        stats.by_block = {
            blk: {k: int(v) for k, v in counts.items()}
            for blk, counts in d.get("by_block", {}).items()
        }
        return stats

    def summary(self) -> str:
        lines = [f"injections: {self.n}"]
        for k in OUTCOMES:
            c = self.outcomes.get(k, 0)
            lines.append(f"  {k:9s} {c:6d}  ({self.rate(k):6.1%})")
        if self.latency_n:
            lines.append(
                f"  detection latency: mean "
                f"{self.latency_sum / self.latency_n:.1f} cycles"
            )
        if self.distance_n:
            lines.append(
                f"  corruption distance: mean "
                f"{self.distance_sum / self.distance_n:.1f} commits"
            )
        return "\n".join(lines)


def machine_config(spec: InjectionSpec):
    """The Rescue core with ``spec.counts`` applied as its fault map."""
    from repro.cpu.params import MachineConfig
    from repro.yieldmodel.configs import CoreCounts

    counts = CoreCounts(**dict(zip(DIMENSIONS, spec.counts)))
    return MachineConfig(rescue=True, counts=counts)


@functools.lru_cache(maxsize=1)
def prepare_injection(
    spec: InjectionSpec, cache_root: Optional[str] = None
) -> Dict[str, Any]:
    """The campaign state: ``{"spec", "golden", "faults", "first_effect"}``.

    Simulates (or, with ``spec.golden_cache``, loads from ``cache_root``)
    the golden run, samples the faults and runs the first-effect scan,
    once per ``(spec, cache_root)``: :func:`run_injection` reuses a
    prepared state, and forked workers inherit it instead of
    re-simulating.
    """
    from repro.inject.goldencache import (
        golden_key, load_golden, load_scan, scan_key, store_golden,
        store_scan,
    )
    from repro.inject.harness import first_effect_scan, run_golden
    from repro.inject.models import sample_faults
    from repro.inject.sites import enumerate_sites, sites_in_blocks
    from repro.workloads.generator import generate_trace
    from repro.workloads.profiles import profile

    config = machine_config(spec)
    trace = generate_trace(
        profile(spec.benchmark), spec.n_instructions, seed=spec.trace_seed
    )
    stride = spec.profile_stride if spec.sampling == "weighted" else 0
    golden = None
    key = None
    if spec.golden_cache:
        key = golden_key(
            spec.benchmark, spec.n_instructions, spec.trace_seed,
            spec.counts, spec.checkpoint_interval, stride,
        )
        golden = load_golden(
            config, trace, spec.n_instructions, key, root=cache_root
        )
        if golden is not None:
            TELEMETRY.count("inject.golden_cache_hits")
    if golden is None:
        golden = run_golden(
            config,
            trace,
            spec.n_instructions,
            checkpoint_interval=spec.checkpoint_interval,
            profile_stride=stride,
        )
        if spec.golden_cache:
            store_golden(golden, key, root=cache_root)
    sites = enumerate_sites(config)
    if spec.blocks is not None:
        sites = sites_in_blocks(sites, spec.blocks)
    faults = sample_faults(
        sites, spec.n_faults, spec.seed, spec.model, config,
        golden.cycles, mode=spec.sampling, profile=golden.profile,
    )
    skey = None
    first_effect = None
    if spec.golden_cache:
        skey = scan_key(
            key, len(faults), spec.seed, spec.model, spec.blocks,
            spec.sampling,
        )
        first_effect = load_scan(skey, len(faults), root=cache_root)
    if first_effect is not None:
        TELEMETRY.count("inject.scan_cache_hits")
    else:
        first_effect = first_effect_scan(golden, faults)
        if skey is not None:
            store_scan(first_effect, skey, len(faults), root=cache_root)
    return dict(
        spec=spec, golden=golden, faults=faults, first_effect=first_effect
    )


def _inject_worker(state: Dict[str, Any], span: Tuple[int, int]) -> Dict:
    """Classify one contiguous fault span; returns shard JSON.

    Each fault's fork point comes from a shared plan: transients fork at
    the newest checkpoint at or before their activation cycle, sticky
    faults at the checkpoint licensed by the first-effect scan — or are
    synthesized outright (:func:`~repro.inject.harness.
    synth_never_result`) when the scan proved their forcing never
    bites.  The remaining faults are grouped by fork checkpoint — a
    stable sort, so original order is preserved within each group — and
    every multi-fault group runs on one warm
    :class:`~repro.inject.harness.ReplaySession` core, restored in full
    from the session's pinned snapshot before each fault.  Singleton
    groups and from-cycle-0 faults go through
    :func:`~repro.inject.harness.run_with_fault`, where a session would
    save nothing; that is also the path most ``inject-mcf`` faults take,
    and the benchmark's span check needs it to fire on every inject
    workload.  Results are then folded into the stats in
    the original fault order, so shard payloads (records, exemplars,
    per-block counts) are bit-identical to from-scratch replay in fault
    order for any worker count or chunking.  The worker only reads
    ``state``, so its telemetry is the same inline or in a pool process.
    The grouping telemetry (``inject.restore_reuses`` /
    ``inject.group_sizes``) and the arena's decode counter
    (``inject.arena_decompressions``) follow the chunking, which is part
    of the spec.
    """
    from repro.inject.harness import (
        ReplaySession, run_with_fault, synth_never_result,
    )

    start, stop = span
    spec = state["spec"]
    golden = state["golden"]
    faults = state["faults"][start:stop]
    scan = state["first_effect"]
    stats = InjectionStats(
        keep_records=spec.keep_records, exemplar_cap=spec.exemplar_cap
    )
    t = TELEMETRY
    results: List = [None] * len(faults)
    # Per-fault fork plan: fork_idx = arena index (None: from cycle 0),
    # prearm = sticky arming bookkeeping to restore on the forked core;
    # never-biting sticky faults get a synthesized masked verdict.
    fork_idx: List[Optional[int]] = [None] * len(faults)
    prearm: List[Optional[tuple]] = [None] * len(faults)
    todo: List[int] = []
    for i, fault in enumerate(faults):
        fe = scan.get(start + i)
        if fe is None:
            fork_idx[i] = golden.fork_index(fault.cycle)
        elif fe.first is None:
            results[i] = synth_never_result(golden, fe)
            if t.enabled:
                t.count("inject.scan_skips")
                t.count("inject.cycles_saved", golden.cycles)
            continue
        else:
            k = golden.fork_index(fe.first)
            fork_idx[i] = k
            if k is not None:
                prearm[i] = fe.prearm(golden.arena.cycle_of(k))
        todo.append(i)
    group_n: Dict[Optional[int], int] = {}
    for i in todo:
        group_n[fork_idx[i]] = group_n.get(fork_idx[i], 0) + 1
    if t.enabled:
        for k in sorted(k for k in group_n if k is not None):
            t.observe("inject.group_sizes", group_n[k])
    session: Optional[ReplaySession] = None
    for i in sorted(
        todo, key=lambda i: -1 if fork_idx[i] is None else fork_idx[i]
    ):
        fault = faults[i]
        k = fork_idx[i]
        with t.span("inject.run"):
            if k is None or group_n[k] == 1:
                # No checkpoint (plain from-cycle-0 run) or a singleton
                # group: nothing for a session to reuse.
                results[i] = run_with_fault(
                    golden, fault, fork_index=k, prearm=prearm[i]
                )
            else:
                if session is None or session.index != k:
                    session = ReplaySession(golden, k)
                results[i] = session.run(fault, prearm=prearm[i])
    for fault, result in zip(faults, results):
        stats.add(fault, result)
        if t.enabled:
            t.count("inject.runs")
            t.count(f"inject.outcome.{result.outcome}")
            t.count("inject.faulty_cycles", result.cycles)
            if result.detect_latency is not None:
                t.observe("inject.detect_latency", result.detect_latency)
            if result.commit_distance is not None:
                t.observe(
                    "inject.commit_distance", result.commit_distance
                )
    return stats.to_json()


def _injection_state(
    spec: InjectionSpec, cache_root: Optional[str]
) -> Dict[str, Any]:
    """:func:`prepare_injection`, keyed as a caller without a root keys it.

    ``lru_cache`` keys ``f(spec)`` and ``f(spec, None)`` apart, so a run
    with no ``cache_root`` must hit the state ``prepare_injection(spec)``
    built.
    """
    if cache_root is None:
        return prepare_injection(spec)
    return prepare_injection(spec, cache_root)


def run_injection(spec: InjectionSpec, **runner) -> InjectionStats:
    """Run the sharded injection campaign; returns merged stats.

    Bit-identical for any ``workers``/``chunk_size``/resume history:
    faults are sampled from per-index seed streams, each injection is an
    independent deterministic simulation, and shard payloads merge in
    shard-index order.  ``runner`` options go to
    :func:`~repro.runner.executor.run_shards`; ``cache_root`` is also
    where the golden-prefix and scan caches live.
    """
    state = _injection_state(spec, runner.get("cache_root"))
    spans = shard_ranges(len(state["faults"]), spec.chunk_size)
    payloads = run_shards(
        "inject", spec, spans, _inject_worker, state=state, **runner
    )
    merged = InjectionStats()
    for payload in payloads:
        merged = merged.merge(InjectionStats.from_json(payload))
    return merged


def masking_validation(
    base_spec: Optional[InjectionSpec] = None, **runner
) -> Dict[str, InjectionStats]:
    """The degraded-mode masking experiment (paper's headline property).

    Samples faults only from the six half-1 ICI blocks, then runs the
    sample on (a) the fully-degraded configuration, where those blocks
    are mapped out — every fault must classify ``masked`` — and (b) the
    full configuration, where the same blocks are live and the sample
    produces SDCs/hangs/detections.  Returns ``{"degraded": stats,
    "full": stats}``.  ``runner`` options go to both runs; each run
    checkpoints to its own spec's store, so pass no ``store``.
    """
    from repro.inject.sites import mapped_out_blocks
    from repro.yieldmodel.configs import CoreCounts

    spec = base_spec if base_spec is not None else InjectionSpec()
    shadow = mapped_out_blocks(CoreCounts(**{d: 1 for d in DIMENSIONS}))
    degraded = run_injection(
        replace(spec, counts=(1,) * 6, blocks=shadow), **runner
    )
    full = run_injection(
        replace(spec, counts=(2,) * 6, blocks=shadow), **runner
    )
    return {"degraded": degraded, "full": full}
