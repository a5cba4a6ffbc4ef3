"""The sharded ``decide`` campaign: measure, fold, rank.

One campaign answers the paper's end question — *which block should a
million-chip fleet map out first, and at what cost?* — by sweeping all
64 map-out configurations across four objectives:

1. an **injection** phase measures per-block outcome rates on the full
   core (``InjectionStats.by_block``), sharded by contiguous fault
   spans exactly like ``repro.inject``;
2. an **IPC** phase measures the full configuration plus the six
   single-degradation configurations per benchmark, sharded exactly
   like the Figure-9 sweep: its shards *are* the ``ipc`` campaign's
   shards for :func:`ipc_spec`, run by that campaign's worker and
   merged by ``IpcSweepResult.merge``;
3. a deterministic **fold** (no shards) composes the 64-entry IPC
   table (:func:`repro.cpu.degraded.ipc_tables`), evaluates YAT
   contributions / IPC ratios / residual SDC / area saved, and runs
   non-dominated sorting with crowding-distance knee selection into a
   stable total ranking.

Both measurement phases ride one shard list through
:func:`~repro.runner.executor.run_shards` with one spec-hash
checkpoint store; its campaign state is the injection phase's, built
once in the calling process by
:func:`~repro.inject.campaign.prepare_injection`.  So the campaign
registers in the runner registry like any other and the HTTP service
serves decision jobs with **zero new server code**.  Shard payloads
merge in shard-index order and the fold is pure arithmetic on the merged
data, so the Pareto front and total ranking are bit-identical for any
worker count, chunking, or resume history (gated by
``benchmarks/bench_decide.py --check``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.decide.objectives import ConfigScore, evaluate_objectives
from repro.decide.pareto import ParetoRanking, rank
from repro.inject.campaign import (
    FAULT_MODELS, InjectionSpec, InjectionStats, _injection_state,
    _inject_worker,
)
from repro.runner.campaigns import (
    IpcSweepResult, IpcSweepSpec, _ipc_worker, ipc_sweep_shards,
)
from repro.runner.executor import run_shards
from repro.runner.registry import check_spec, choice
from repro.runner.seeding import shard_ranges
from repro.telemetry import TELEMETRY
from repro.yieldmodel.configs import CoreCounts, DIMENSIONS

Key = Tuple[int, ...]


def key_label(key: Key) -> str:
    """Compact config label: surviving counts in DIMENSIONS order."""
    return "".join(str(v) for v in key)


def label_key(label: str) -> Key:
    """Inverse of :func:`key_label`."""
    return tuple(int(c) for c in label)


@dataclass(frozen=True)
class DecideSpec:
    """Everything that determines the decision campaign's outcome."""

    # IPC measurement phase (full + six single-degradation configs per
    # benchmark; multi-degradation entries compose multiplicatively).
    benchmarks: Tuple[str, ...] = ("gzip", "mcf")
    n_instructions: int = 3000
    warmup: int = 1500
    ipc_seed: int = 12345
    # Injection phase (full core, every block live, summary-only).
    inject_benchmark: str = "gzip"
    inject_instructions: int = 1500
    inject_trace_seed: int = 7
    inject_model: str = choice("both", FAULT_MODELS)
    n_faults: int = 64
    inject_seed: int = 0
    inject_chunk: int = 8
    checkpoint_interval: int = 128
    # Persistent golden-prefix cache for the embedded injection phase:
    # every decide run re-runs injection, so a warm cache skips its
    # golden simulation in every worker.
    golden_cache: bool = False
    # Yield scenario for the YAT and area objectives.
    node_nm: float = 32.0
    growth: float = 0.3
    stagnation_node_nm: float = 90.0
    baseline_ipc: float = 2.05
    # IPC items per shard.
    chunk_size: int = 1

    def __post_init__(self) -> None:
        check_spec(self)


def injection_spec(spec: DecideSpec) -> InjectionSpec:
    """The full-core, summary-only injection campaign decide embeds."""
    return InjectionSpec(
        benchmark=spec.inject_benchmark,
        n_instructions=spec.inject_instructions,
        trace_seed=spec.inject_trace_seed,
        counts=(2,) * len(DIMENSIONS),
        model=spec.inject_model,
        n_faults=spec.n_faults,
        seed=spec.inject_seed,
        blocks=None,
        chunk_size=spec.inject_chunk,
        checkpoint_interval=spec.checkpoint_interval,
        keep_records=False,
        golden_cache=spec.golden_cache,
    )


def ipc_spec(spec: DecideSpec) -> IpcSweepSpec:
    """The composed IPC sweep campaign decide embeds."""
    return IpcSweepSpec(
        benchmarks=tuple(spec.benchmarks),
        n_instructions=spec.n_instructions,
        warmup=spec.warmup,
        seed=spec.ipc_seed,
        compose=True,
        chunk_size=spec.chunk_size,
    )


def decide_items(spec: DecideSpec) -> List[Tuple]:
    """The campaign's shard list: injection spans, then IPC chunks.

    Every shard spec is ``("inject", start, stop)`` — a fault span of
    the injection state — or ``("ipc", chunk)`` with one of the ``ipc``
    campaign's own shards, so shard ``i``'s payload is a function of the
    state and ``shards[i]`` alone: the runner determinism contract.
    """
    items: List[Tuple] = [
        ("inject", start, stop)
        for start, stop in shard_ranges(spec.n_faults, spec.inject_chunk)
    ]
    items.extend(
        ("ipc", chunk) for chunk in ipc_sweep_shards(ipc_spec(spec))
    )
    return items


def _decide_worker(state: Dict[str, Any], item: Tuple) -> Dict[str, Any]:
    """One shard; ``state`` is the injection phase's campaign state."""
    t = TELEMETRY
    if item[0] == "inject":
        _, start, stop = item
        with t.span("decide.inject_shard"):
            payload = _inject_worker(state, (start, stop))
        if t.enabled:
            t.count("decide.inject_faults", stop - start)
        return {"kind": "inject", "stats": payload}
    with t.span("decide.ipc_shard"):
        out = _ipc_worker(None, item[1])
    if t.enabled:
        t.count("decide.ipc_points", len(out))
    return {"kind": "ipc", "measurements": out}


@dataclass
class DecideResult:
    """Merged decision-support output: scores, fronts, total ranking."""

    objectives: Dict[Key, ConfigScore] = field(default_factory=dict)
    fronts: List[List[Key]] = field(default_factory=list)
    crowding: Dict[Key, float] = field(default_factory=dict)
    ranking: List[Key] = field(default_factory=list)
    knee: Key = ()
    n_injections: int = 0
    block_sdc: Dict[str, Dict[str, int]] = field(default_factory=dict)
    benchmarks: Tuple[str, ...] = ()

    @property
    def front(self) -> List[Key]:
        """Pareto-optimal configurations in total-ranking order."""
        if not self.fronts:
            return []
        first = set(self.fronts[0])
        return [k for k in self.ranking if k in first]

    def first_map_out(self) -> Optional[Key]:
        """The highest-ranked configuration that maps anything out."""
        full = CoreCounts().key()
        for key in self.ranking:
            if key != full:
                return key
        return None

    def to_json(self) -> Dict[str, Any]:
        return {
            "objectives": {
                key_label(k): self.objectives[k].to_json()
                for k in sorted(self.objectives)
            },
            "fronts": [
                [key_label(k) for k in front] for front in self.fronts
            ],
            "crowding": {
                key_label(k): self.crowding[k]
                for k in sorted(self.crowding)
            },
            "ranking": [key_label(k) for k in self.ranking],
            "knee": key_label(self.knee) if self.knee else "",
            "n_injections": self.n_injections,
            "block_sdc": {
                blk: self.block_sdc[blk]
                for blk in sorted(self.block_sdc)
            },
            "benchmarks": list(self.benchmarks),
        }

    @classmethod
    def from_json(cls, d: Mapping[str, Any]) -> "DecideResult":
        return cls(
            objectives={
                label_key(lbl): ConfigScore.from_json(
                    label_key(lbl), score
                )
                for lbl, score in d["objectives"].items()
            },
            fronts=[
                [label_key(lbl) for lbl in front]
                for front in d["fronts"]
            ],
            crowding={
                label_key(lbl): float(v)
                for lbl, v in d["crowding"].items()
            },
            ranking=[label_key(lbl) for lbl in d["ranking"]],
            knee=label_key(d["knee"]) if d["knee"] else (),
            n_injections=int(d["n_injections"]),
            block_sdc={
                blk: {k: int(v) for k, v in counts.items()}
                for blk, counts in d.get("block_sdc", {}).items()
            },
            benchmarks=tuple(d.get("benchmarks", ())),
        )

    def summary(self, top: int = 10) -> str:
        """The ranked map-out table (``top <= 0`` prints all 64 rows)."""
        front = set(self.fronts[0]) if self.fronts else set()
        lines = [
            f"decision ranking: {len(self.ranking)} configurations, "
            f"{self.n_injections} injections, "
            f"benchmarks: {', '.join(self.benchmarks)}",
            f"pareto front: {len(front)} configurations; "
            f"knee: {key_label(self.knee) if self.knee else '-'}",
            f"{'rank':>4s} {'config':>7s} {'yat':>7s} "
            f"{'ipc_ratio':>9s} {'sdc':>7s} {'area_saved':>10s}  flags",
        ]
        shown = self.ranking if top <= 0 else self.ranking[:top]
        for i, key in enumerate(shown):
            s = self.objectives[key]
            flags = []
            if key in front:
                flags.append("front")
            if key == self.knee:
                flags.append("knee")
            if key == CoreCounts().key():
                flags.append("full")
            lines.append(
                f"{i:4d} {key_label(key):>7s} {s.yat:7.4f} "
                f"{s.ipc_ratio:9.4f} {s.sdc:7.4f} {s.area_saved:10.4f}"
                f"  {','.join(flags)}"
            )
        if 0 < top < len(self.ranking):
            lines.append(
                f"  ... {len(self.ranking) - top} more "
                f"(rerun with top<=0 for the full table)"
            )
        return "\n".join(lines)


def evaluate(
    spec: DecideSpec,
    measured: Mapping[Tuple[str, Key], float],
    stats: InjectionStats,
) -> DecideResult:
    """Fold merged measurements into the ranked result (pure, exact)."""
    scores = evaluate_objectives(
        measured,
        stats,
        node_nm=spec.node_nm,
        growth=spec.growth,
        stagnation_node_nm=spec.stagnation_node_nm,
        baseline_ipc=spec.baseline_ipc,
    )
    ranking: ParetoRanking = rank(
        {key: score.vector() for key, score in scores.items()}
    )
    if TELEMETRY.enabled:
        TELEMETRY.count("decide.configs", len(scores))
        TELEMETRY.count("decide.front_size", len(ranking.fronts[0]))
        TELEMETRY.count("decide.fronts", len(ranking.fronts))
    return DecideResult(
        objectives=scores,
        fronts=ranking.fronts,
        crowding=ranking.crowding,
        ranking=ranking.order,
        knee=ranking.knee,
        n_injections=stats.n,
        block_sdc={
            blk: dict(stats.by_block[blk])
            for blk in sorted(stats.by_block)
        },
        benchmarks=tuple(spec.benchmarks),
    )


def merge_payloads(
    payloads: List[Dict[str, Any]],
) -> Tuple[InjectionStats, Dict[Tuple[str, Key], float]]:
    """Merge shard payloads in shard-index order (worker-invariant)."""
    stats = InjectionStats()
    ipc = IpcSweepResult({})
    for payload in payloads:
        if payload["kind"] == "inject":
            stats = stats.merge(
                InjectionStats.from_json(payload["stats"])
            )
        else:
            points = IpcSweepResult.from_json(payload["measurements"])
            ipc = ipc.merge(points)
    return stats, ipc.measured


def run_decide(spec: DecideSpec, **runner) -> DecideResult:
    """Run the sharded decision campaign; returns the ranked result.

    Bit-identical for any ``workers``/chunking/resume history: each
    shard is an independent deterministic computation, payloads merge
    in shard-index order, and the fold is pure arithmetic on the merged
    data.  ``runner`` options go to
    :func:`~repro.runner.executor.run_shards`.
    """
    if spec.n_faults <= 0:
        raise ValueError("n_faults must be positive")
    if not spec.benchmarks:
        raise ValueError("at least one benchmark required")
    with TELEMETRY.span("decide.campaign"):
        state = _injection_state(
            injection_spec(spec), runner.get("cache_root")
        )
        payloads = run_shards(
            "decide", spec, decide_items(spec), _decide_worker,
            state=state, **runner,
        )
        stats, measured = merge_payloads(payloads)
        return evaluate(spec, measured, stats)
