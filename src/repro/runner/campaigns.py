"""The three paper campaigns, sharded through the runner.

Each campaign follows the same recipe:

1. a frozen *spec* dataclass captures every parameter that affects the
   result (model, seeds, sizes, chunking) — its ``asdict`` is hashed into
   the checkpoint key, so a resumed run can only ever continue the
   identical campaign;
2. a ``prepare_*`` function makes the campaign's shared *state* (a
   one-slot ``functools.lru_cache``, so a prepared state is reused), and
   a module-level ``_*_worker(state, shard)`` computes one shard from
   that state and its shard spec alone;
3. shard payloads are JSON-serializable and merge through explicit,
   order-insensitive ``merge()`` methods, so the final result is
   bit-identical for any worker count and chunk size;
4. the ``run_*(spec, **runner)`` entry point is only the state, the
   shard list, one :func:`~repro.runner.executor.run_shards` call (which
   owns the runner options and the checkpoint store, and hands the state
   to every worker) and the fold.

Campaigns:

- **isolation** — the Section 6.1 random-fault insertion experiment,
  sharded by contiguous fault chunks of the deterministic sample;
- **montecarlo** — the Section 6.3 chip-sampling YAT check, sharded by
  chip index ranges (each chip has its own derived RNG stream);
- **ipc** — the degraded-configuration IPC sweep behind Figures 8 and 9,
  sharded by (benchmark, configuration) simulation items;
  :func:`figure_ipcs` adds the baseline IPCs, and :class:`IpcCost` and
  :func:`~repro.yieldmodel.yat.yat_grid` fold them into the figures.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.runner.executor import run_shards
from repro.runner.registry import at_least_one, check_spec
from repro.runner.seeding import shard_ranges


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
    chunk_size: int = at_least_one(50)

    def __post_init__(self) -> None:
        check_spec(self)


@functools.lru_cache(maxsize=1)
def prepare_isolation(spec: IsolationSpec):
    """The campaign state: ``(TestSetup, fault sample)``.

    Builds the netlist, ATPG vectors and fault sample once per spec;
    :func:`run_isolation` reuses a prepared state, and forked workers
    inherit it — the compiled netlist is never pickled per fault.
    """
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
    return setup, faults


def _isolation_worker(state, span: Tuple[int, int]) -> Dict:
    from repro.rtl.experiment import isolation_experiment

    setup, faults = state
    start, stop = span
    stats = isolation_experiment(setup, faults=faults[start:stop])
    return stats.to_json()


def run_isolation(spec: IsolationSpec, **runner):
    """Run the sharded Section 6.1 campaign; returns ``IsolationStats``.

    Bit-identical to the serial ``isolation_experiment`` for any
    ``workers``/``chunk_size`` (all stats are integer counts over a
    deterministic fault sample partitioned by contiguous chunks).
    ``runner`` options go to :func:`~repro.runner.executor.run_shards`.
    """
    from repro.rtl.experiment import IsolationStats

    state = prepare_isolation(spec)
    _setup, faults = state
    spans = shard_ranges(len(faults), spec.chunk_size)
    payloads = run_shards(
        "isolation", spec, spans, _isolation_worker, state=state, **runner
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
    chunk_size: int = at_least_one(250)

    def __post_init__(self) -> None:
        check_spec(self)


def _montecarlo_state(spec: MonteCarloSpec) -> Dict[str, Any]:
    """The sampler's inputs: core count, density mix and IPC table."""
    from repro.yieldmodel.montecarlo import campaign_params
    from repro.yieldmodel.pwp import FaultDensityModel

    density = FaultDensityModel(
        stagnation_node_nm=spec.stagnation_node_nm
    )
    k, alpha, theta, groups = campaign_params(
        density, spec.node_nm, spec.growth
    )
    return dict(
        spec=spec,
        cores=k,
        alpha=alpha,
        theta=theta,
        groups=groups,
        ipc=analytic_penalty_table(spec.full_ipc),
    )


def _montecarlo_worker(state: Dict[str, Any], span: Tuple[int, int]) -> Dict:
    from repro.yieldmodel.montecarlo import sample_chip_span

    start, stop = span
    spec: MonteCarloSpec = state["spec"]
    result = sample_chip_span(
        start,
        stop,
        spec.seed,
        state["cores"],
        state["alpha"],
        state["theta"],
        state["groups"],
        state["ipc"],
        spec.baseline_ipc,
    )
    return result.to_json()


def run_montecarlo(spec: MonteCarloSpec, **runner):
    """Run the sharded chip-sampling campaign; returns ``MonteCarloResult``.

    Bit-identical to ``simulate_chips`` with the same parameters: chips
    carry index-derived RNG streams, spans merge by concatenation, and
    the single final reduction uses exactly-rounded summation.
    ``runner`` options go to :func:`~repro.runner.executor.run_shards`.
    """
    from repro.yieldmodel.montecarlo import ChipSpan, MonteCarloResult

    state = _montecarlo_state(spec)
    payloads = run_shards(
        "montecarlo", spec, shard_ranges(spec.n_chips, spec.chunk_size),
        _montecarlo_worker, state=state, **runner,
    )
    if not payloads:
        return MonteCarloResult(0, 0.0, 0.0, 0.0, 0.0)
    merged = ChipSpan.from_json(payloads[0])
    for payload in payloads[1:]:
        merged = merged.merge(ChipSpan.from_json(payload))
    return MonteCarloResult.from_span(merged, state["cores"])


# ----------------------------------------------------------------------
# Campaign 3: degraded-configuration IPC sweep (Figures 8 and 9 inputs)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class IpcSweepSpec:
    """Everything that determines the IPC-sweep campaign's outcome."""

    benchmarks: Tuple[str, ...]
    n_instructions: int = 20_000
    warmup: int = 12_000
    seed: int = 12345
    compose: bool = True
    chunk_size: int = at_least_one(1)

    def __post_init__(self) -> None:
        check_spec(self)


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

    def to_json(self) -> List[Dict[str, Any]]:
        """One ``{"benchmark", "key", "ipc"}`` record per measurement."""
        return [
            {"benchmark": bench, "key": list(key), "ipc": ipc}
            for (bench, key), ipc in sorted(self.measured.items())
        ]

    @classmethod
    def from_json(cls, records: List[Dict[str, Any]]) -> "IpcSweepResult":
        return cls(
            {(r["benchmark"], tuple(r["key"])): r["ipc"] for r in records}
        )

    def summary(self) -> str:
        """Best and worst measured IPC per benchmark."""
        benches = sorted({bench for bench, _ in self.measured})
        lines = [f"ipc sweep: {len(self.measured)} measurements"]
        for bench in benches:
            ipcs = [
                ipc for (b, _), ipc in self.measured.items() if b == bench
            ]
            lines.append(
                f"  {bench:10s} best {max(ipcs):.3f}  "
                f"worst {min(ipcs):.3f}"
            )
        return "\n".join(lines)

    def tables(self) -> Dict[str, Dict[Tuple[int, ...], float]]:
        """Per-benchmark 64-entry IPC tables (the ``YatModel`` input)."""
        from repro.cpu.degraded import ipc_tables

        return ipc_tables(self.measured)


def ipc_sweep_items(
    spec: IpcSweepSpec,
) -> List[Tuple[str, Tuple[int, ...]]]:
    """The campaign's work list: (benchmark, configuration key) pairs.

    Per benchmark, the configurations
    :func:`~repro.cpu.degraded.measured_configs` names.
    """
    from repro.cpu.degraded import measured_configs

    configs = measured_configs(spec.compose)
    return [
        (bench, cfg.key())
        for bench in spec.benchmarks
        for cfg in configs
    ]


def ipc_sweep_shards(spec: IpcSweepSpec) -> List[List[Tuple]]:
    """The campaign's shard specs, ``chunk_size`` items each.

    Every item carries its run shape ``(benchmark, key, n_instructions,
    seed, warmup)``, so :func:`_ipc_worker` needs no campaign state.
    """
    items = ipc_sweep_items(spec)
    return [
        [
            (bench, key, spec.n_instructions, spec.seed, spec.warmup)
            for bench, key in items[start:stop]
        ]
        for start, stop in shard_ranges(len(items), spec.chunk_size)
    ]


def _ipc_worker(_state: None, chunk: List) -> List[Dict]:
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


def run_ipc_sweep(spec: IpcSweepSpec, **runner) -> IpcSweepResult:
    """Run the sharded degraded-IPC sweep.

    Each item is an independent deterministic simulation (trace seeded,
    machine config derived from the key), so results are trivially
    bit-identical across worker counts; shards are self-contained (no
    campaign state).  ``runner`` options go to
    :func:`~repro.runner.executor.run_shards`.
    """
    payloads = run_shards(
        "ipc", spec, ipc_sweep_shards(spec), _ipc_worker, **runner
    )
    result = IpcSweepResult({})
    for payload in payloads:
        result = result.merge(IpcSweepResult.from_json(payload))
    return result


def figure_ipcs(
    spec: IpcSweepSpec, **runner
) -> Dict[str, Tuple[float, Dict[Tuple[int, ...], float]]]:
    """Per benchmark, (baseline IPC, Rescue IPC table): Figures 8 and 9.

    The tables are :func:`run_ipc_sweep`'s (``runner`` options go there,
    so its checkpoint store is the cache); their full configuration is
    Figure 8's Rescue machine.  Baselines are the conventional machine
    with the spec's run shape, in ``spec.benchmarks`` order.
    """
    from repro.cpu.degraded import simulate_config
    from repro.cpu.params import MachineConfig

    tables = run_ipc_sweep(spec, **runner).tables()
    base = MachineConfig(rescue=False)
    return {
        bench: (
            simulate_config(bench, base, spec.n_instructions, spec.seed,
                            spec.warmup),
            tables[bench],
        )
        for bench in spec.benchmarks
    }


class IpcCost:
    """Figure 8: the IPC cost of the ICI transformations, in percent.

    The one fold behind every printer of the figure: :meth:`add` takes
    one benchmark's baseline and Rescue IPC and returns its cost at once
    (so a printer can stream rows), :meth:`mean` averages the costs.
    """

    def __init__(self) -> None:
        self.costs: List[Tuple[str, float]] = []

    def add(self, benchmark: str, base: float, rescue: float) -> float:
        """Record and return ``benchmark``'s cost, 100 (1 - rescue/base)."""
        cost = 100 * (1 - rescue / base) if base else 0.0
        self.costs.append((benchmark, cost))
        return cost

    def mean(self, benchmarks: Optional[Iterable[str]] = None) -> float:
        """Average cost over ``benchmarks`` (default: every one added)."""
        pick = None if benchmarks is None else set(benchmarks)
        costs = [c for b, c in self.costs if pick is None or b in pick]
        return sum(costs) / len(costs)
