"""The three paper campaigns, sharded through the runner.

Each campaign follows the same recipe:

1. a frozen *spec* dataclass captures every parameter that affects the
   result (model, seeds, sizes, chunking) — its ``asdict`` is hashed into
   the checkpoint key, so a resumed run can only ever continue the
   identical campaign;
2. a module-level ``_*_init`` installs heavy shared state in a worker
   global (once per worker process; skipped when the parent pre-built it
   and the pool forked), and a module-level ``_*_worker`` computes one
   shard from its spec alone;
3. shard payloads are JSON-serializable and merge through explicit,
   order-insensitive ``merge()`` methods, so the final result is
   bit-identical for any worker count and chunk size.

Campaigns:

- **isolation** — the Section 6.1 random-fault insertion experiment,
  sharded by contiguous fault chunks of the deterministic sample;
- **montecarlo** — the Section 6.3 chip-sampling YAT check, sharded by
  chip index ranges (each chip has its own derived RNG stream);
- **ipc** — the degraded-configuration IPC sweep behind Figure 9,
  sharded by (benchmark, configuration) simulation items.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.runner.executor import ProgressFn, run_shards
from repro.runner.seeding import shard_ranges
from repro.runner.store import CheckpointStore, config_hash


def _campaign_store(
    campaign: str,
    spec: Any,
    checkpoint: bool,
    cache_root: Optional[str],
) -> Optional[CheckpointStore]:
    if not checkpoint:
        return None
    return CheckpointStore(
        campaign, config_hash(asdict(spec)), root=cache_root
    )


# ----------------------------------------------------------------------
# Campaign 1: random-fault isolation (Section 6.1)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class IsolationSpec:
    """Everything that determines the isolation campaign's outcome."""

    tiny: bool = True
    baseline: bool = False
    atpg_seed: int = 0
    fault_seed: int = 1
    n_faults: int = 600
    max_deterministic: Optional[int] = None
    chunk_size: int = 50


# Worker-global test setup: {"spec": IsolationSpec, "setup": TestSetup,
# "faults": List[StuckAt]}.  Built once per worker by _isolation_init;
# under the POSIX fork start method a parent that called
# prepare_isolation() shares it with every worker copy-free.
_ISOLATION: Dict[str, Any] = {}


def _isolation_init(spec: IsolationSpec) -> None:
    if _ISOLATION.get("spec") == spec and "setup" in _ISOLATION:
        return
    from repro.rtl import RtlParams, build_baseline_rtl, build_rescue_rtl
    from repro.rtl.experiment import generate_tests, sample_isolation_faults

    params = RtlParams.tiny() if spec.tiny else RtlParams()
    builder = build_baseline_rtl if spec.baseline else build_rescue_rtl
    model = builder(params)
    setup = generate_tests(
        model,
        seed=spec.atpg_seed,
        max_deterministic=spec.max_deterministic,
    )
    faults = sample_isolation_faults(
        model.netlist, spec.n_faults, spec.fault_seed
    )
    # Warm the tester's gold-response cache here, not in the first shard:
    # every process (inline, forked, or spawn-initialized) then enters
    # its shards with identical cache state, which keeps per-shard
    # telemetry counters independent of worker count.
    setup.tester.good_response(setup.atpg.patterns)
    _ISOLATION.clear()
    _ISOLATION.update(spec=spec, setup=setup, faults=faults)


def _isolation_worker(span: Tuple[int, int]) -> Dict:
    from repro.rtl.experiment import isolation_experiment

    start, stop = span
    stats = isolation_experiment(
        _ISOLATION["setup"], faults=_ISOLATION["faults"][start:stop]
    )
    return stats.to_json()


def prepare_isolation(spec: IsolationSpec):
    """Build the test setup in the calling process and return it.

    Call before :func:`run_isolation` so that (a) the netlist, ATPG
    vectors, and fault sample are built exactly once, and (b) forked
    workers inherit them instead of rebuilding — the compiled netlist is
    never pickled per fault.  (Under a ``spawn`` start method workers
    cannot inherit; the initializer rebuilds there.)
    """
    _isolation_init(spec)
    return _ISOLATION["setup"]


def run_isolation(
    spec: IsolationSpec,
    *,
    workers: int = 1,
    resume: bool = False,
    checkpoint: bool = True,
    cache_root: Optional[str] = None,
    store: Optional[CheckpointStore] = None,
    progress: Optional[ProgressFn] = None,
):
    """Run the sharded Section 6.1 campaign; returns ``IsolationStats``.

    Bit-identical to the serial ``isolation_experiment`` for any
    ``workers``/``chunk_size`` (all stats are integer counts over a
    deterministic fault sample partitioned by contiguous chunks).
    An explicit ``store`` overrides the default checkpoint store (the
    campaign service injects instrumented stores through this seam).
    """
    from repro.rtl.experiment import IsolationStats

    prepare_isolation(spec)
    n = len(_ISOLATION["faults"])
    spans = shard_ranges(n, spec.chunk_size)
    if store is None:
        store = _campaign_store("isolation", spec, checkpoint, cache_root)
    payloads = run_shards(
        spans,
        _isolation_worker,
        workers=workers,
        initializer=_isolation_init,
        initargs=(spec,),
        store=store,
        resume=resume,
        progress=progress,
    )
    merged = IsolationStats()
    for payload in payloads:
        merged = merged.merge(IsolationStats.from_json(payload))
    return merged


# ----------------------------------------------------------------------
# Campaign 2: Monte Carlo YAT sampling (Section 6.3)
# ----------------------------------------------------------------------

def analytic_penalty_table(full_ipc: float = 2.0):
    """The analytic degraded-IPC table used by the CLI's quick YAT mode."""
    from repro.yieldmodel.yat import flat_rescue_ipc

    def penalty(cfg) -> float:
        factor = 1.0
        for dim, cost in (("frontend", 0.82), ("int_backend", 0.78),
                          ("fp_backend", 0.96), ("iq_int", 0.93),
                          ("iq_fp", 0.98), ("lsq", 0.94)):
            if getattr(cfg, dim) == 1:
                factor *= cost
        return factor

    return flat_rescue_ipc(full_ipc, penalty)


@dataclass(frozen=True)
class MonteCarloSpec:
    """Everything that determines the chip-sampling campaign's outcome."""

    node_nm: float = 32.0
    growth: float = 0.3
    stagnation_node_nm: float = 90.0
    baseline_ipc: float = 2.05
    full_ipc: float = 2.0
    n_chips: int = 2000
    seed: int = 0
    anchor_node_nm: float = 90.0
    anchor_cores: int = 1
    chunk_size: int = 250


_MONTECARLO: Dict[str, Any] = {}


def _montecarlo_init(spec: MonteCarloSpec) -> None:
    if _MONTECARLO.get("spec") == spec and "cores" in _MONTECARLO:
        return
    from repro.yieldmodel.montecarlo import campaign_params
    from repro.yieldmodel.pwp import FaultDensityModel

    density = FaultDensityModel(
        stagnation_node_nm=spec.stagnation_node_nm
    )
    k, alpha, theta, groups = campaign_params(
        density,
        spec.node_nm,
        spec.growth,
        (spec.anchor_node_nm, spec.anchor_cores),
    )
    _MONTECARLO.clear()
    _MONTECARLO.update(
        spec=spec,
        cores=k,
        alpha=alpha,
        theta=theta,
        groups=groups,
        ipc=analytic_penalty_table(spec.full_ipc),
    )


def _montecarlo_worker(span: Tuple[int, int]) -> Dict:
    from repro.yieldmodel.montecarlo import sample_chip_span

    start, stop = span
    spec: MonteCarloSpec = _MONTECARLO["spec"]
    result = sample_chip_span(
        start,
        stop,
        spec.seed,
        _MONTECARLO["cores"],
        _MONTECARLO["alpha"],
        _MONTECARLO["theta"],
        _MONTECARLO["groups"],
        _MONTECARLO["ipc"],
        spec.baseline_ipc,
    )
    return result.to_json()


def run_montecarlo(
    spec: MonteCarloSpec,
    *,
    workers: int = 1,
    resume: bool = False,
    checkpoint: bool = True,
    cache_root: Optional[str] = None,
    store: Optional[CheckpointStore] = None,
    progress: Optional[ProgressFn] = None,
):
    """Run the sharded chip-sampling campaign; returns ``MonteCarloResult``.

    Bit-identical to ``simulate_chips`` with the same parameters: chips
    carry index-derived RNG streams, spans merge by concatenation, and
    the single final reduction uses exactly-rounded summation.
    An explicit ``store`` overrides the default checkpoint store.
    """
    from repro.yieldmodel.montecarlo import ChipSpan, MonteCarloResult

    _montecarlo_init(spec)
    spans = shard_ranges(spec.n_chips, spec.chunk_size)
    if store is None:
        store = _campaign_store("montecarlo", spec, checkpoint, cache_root)
    payloads = run_shards(
        spans,
        _montecarlo_worker,
        workers=workers,
        initializer=_montecarlo_init,
        initargs=(spec,),
        store=store,
        resume=resume,
        progress=progress,
    )
    if not payloads:
        return MonteCarloResult(0, 0.0, 0.0, 0.0, 0.0)
    merged = ChipSpan.from_json(payloads[0])
    for payload in payloads[1:]:
        merged = merged.merge(ChipSpan.from_json(payload))
    return MonteCarloResult.from_span(merged, _MONTECARLO["cores"])


# ----------------------------------------------------------------------
# Campaign 3: degraded-configuration IPC sweep (Figure 9 inputs)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class IpcSweepSpec:
    """Everything that determines the IPC-sweep campaign's outcome."""

    benchmarks: Tuple[str, ...]
    n_instructions: int = 20_000
    warmup: int = 12_000
    seed: int = 12345
    compose: bool = True
    chunk_size: int = 1


@dataclass
class IpcSweepResult:
    """Measured IPC per (benchmark, configuration key)."""

    measured: Dict[Tuple[str, Tuple[int, ...]], float]

    def merge(self, other: "IpcSweepResult") -> "IpcSweepResult":
        """Union of two disjoint measurement sets (exact)."""
        merged = dict(self.measured)
        for item, ipc in other.measured.items():
            if item in merged and merged[item] != ipc:
                raise ValueError(
                    f"conflicting IPC for {item}: "
                    f"{merged[item]} vs {ipc}"
                )
            merged[item] = ipc
        return IpcSweepResult(merged)

    def tables(
        self, compose: bool = True
    ) -> Dict[str, Dict[Tuple[int, ...], float]]:
        """Per-benchmark 64-entry IPC tables (the ``YatModel`` input).

        With ``compose=True`` the 57 multi-degradation entries are
        composed multiplicatively from the measured single-degradation
        ratios (clamped at 1, as in ``rescue_ipc_table``); otherwise
        every measured entry is used directly.
        """
        from repro.cpu.degraded import compose_ipc_table
        from repro.yieldmodel.configs import DIMENSIONS, CoreCounts

        full_key = CoreCounts().key()
        by_bench: Dict[str, Dict[Tuple[int, ...], float]] = {}
        benches = sorted({bench for bench, _ in self.measured})
        for bench in benches:
            full = self.measured[(bench, full_key)]
            if compose:
                ratios = {}
                for dim in DIMENSIONS:
                    key = CoreCounts(**{dim: 1}).key()
                    measured = (
                        self.measured[(bench, key)] / full if full else 0.0
                    )
                    ratios[dim] = min(1.0, measured)
                by_bench[bench] = compose_ipc_table(full, ratios)
            else:
                by_bench[bench] = {
                    key: min(full, ipc) if key != full_key else full
                    for (b, key), ipc in self.measured.items()
                    if b == bench
                }
        return by_bench


def ipc_sweep_items(
    spec: IpcSweepSpec,
) -> List[Tuple[str, Tuple[int, ...]]]:
    """The campaign's work list: (benchmark, configuration key) pairs.

    Compose mode simulates the full configuration plus the six
    single-degradation points per benchmark; full mode all 64.
    """
    from repro.yieldmodel.configs import CoreCounts, enumerate_configs

    if spec.compose:
        configs = [CoreCounts()] + [
            CoreCounts(**{dim: 1})
            for dim in ("frontend", "int_backend", "fp_backend",
                        "iq_int", "iq_fp", "lsq")
        ]
    else:
        configs = list(enumerate_configs())
    return [
        (bench, cfg.key())
        for bench in spec.benchmarks
        for cfg in configs
    ]


def _ipc_worker(chunk: List) -> List[Dict]:
    from repro.cpu.degraded import degraded_params, simulate_config
    from repro.cpu.params import MachineConfig
    from repro.yieldmodel.configs import DIMENSIONS, CoreCounts

    out = []
    for bench, key, n_instructions, seed, warmup in chunk:
        counts = CoreCounts(**dict(zip(DIMENSIONS, key)))
        config = degraded_params(MachineConfig(rescue=True), counts)
        ipc = simulate_config(
            bench, config, n_instructions=n_instructions, seed=seed,
            warmup=warmup,
        )
        out.append({"benchmark": bench, "key": list(key), "ipc": ipc})
    return out


def run_ipc_sweep(
    spec: IpcSweepSpec,
    *,
    workers: int = 1,
    resume: bool = False,
    checkpoint: bool = True,
    cache_root: Optional[str] = None,
    store: Optional[CheckpointStore] = None,
    progress: Optional[ProgressFn] = None,
) -> IpcSweepResult:
    """Run the sharded degraded-IPC sweep.

    Each item is an independent deterministic simulation (trace seeded,
    machine config derived from the key), so results are trivially
    bit-identical across worker counts; shards are self-contained (no
    worker initializer needed).  An explicit ``store`` overrides the
    default checkpoint store.
    """
    items = ipc_sweep_items(spec)
    chunks: List[List] = [
        [
            (bench, key, spec.n_instructions, spec.seed, spec.warmup)
            for bench, key in items[start:stop]
        ]
        for start, stop in shard_ranges(len(items), spec.chunk_size)
    ]
    if store is None:
        store = _campaign_store("ipc", spec, checkpoint, cache_root)
    payloads = run_shards(
        chunks,
        _ipc_worker,
        workers=workers,
        store=store,
        resume=resume,
        progress=progress,
    )
    result = IpcSweepResult({})
    for payload in payloads:
        result = result.merge(
            IpcSweepResult(
                {
                    (rec["benchmark"], tuple(rec["key"])): rec["ipc"]
                    for rec in payload
                }
            )
        )
    return result
