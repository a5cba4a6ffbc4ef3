"""Degraded-configuration simulation for the YAT experiments.

Bridges the fault-map configuration space (:class:`CoreCounts`) to the
performance simulator, with an on-disk cache (:class:`IpcCache`, which
the ablation scripts use).  It is the one place that decides which
configurations are simulated (:func:`measured_configs`) and how measured
points become the 64-entry IPC tables (:func:`ipc_tables`); the ``ipc``
and ``decide`` campaigns go through both.  Figures 8 and 9 read the ``ipc`` campaign's tables
through :func:`repro.runner.campaigns.figure_ipcs`: the full
configuration is Figure 8's Rescue machine.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple

from repro.cpu.params import MachineConfig
from repro.cpu.pipeline import Core
from repro.runner.store import Blobs, config_hash
from repro.yieldmodel.configs import DIMENSIONS, CoreCounts, enumerate_configs

Key = Tuple[int, ...]


def degraded_params(
    base: MachineConfig, counts: CoreCounts
) -> MachineConfig:
    """A Rescue machine configuration with ``counts`` surviving groups."""
    if not base.rescue:
        raise ValueError("degraded operation applies to the Rescue machine")
    return base.with_degradation(
        frontend_groups=counts.frontend,
        int_backend_groups=counts.int_backend,
        fp_backend_groups=counts.fp_backend,
        iq_int_halves=counts.iq_int,
        iq_fp_halves=counts.iq_fp,
        lsq_halves=counts.lsq,
    )


def simulate_config(
    benchmark: str,
    config: MachineConfig,
    n_instructions: int = 20_000,
    seed: int = 12345,
    warmup: int = 12_000,
) -> float:
    """IPC of one benchmark on one machine configuration.

    ``warmup`` instructions prime the caches and branch predictor before
    the measured window (matching the paper's SimPoint methodology of
    measuring a representative region, not a cold start).
    """
    # Imported here: repro.workloads depends on repro.cpu.isa, so a
    # top-level import would be circular.
    from repro.workloads import generate_trace, profile

    prof = profile(benchmark)
    trace = generate_trace(prof, n_instructions + warmup, seed=seed)
    core = Core(config, trace)
    return core.run(n_instructions, warmup=warmup).ipc


class IpcCache:
    """On-disk memo of (benchmark, machine, run shape) → IPC.

    One :class:`~repro.runner.store.Blobs` entry (``ipc-<key>.blob``)
    per point, stamped with the code that simulated it, so an IPC from
    older simulator code is a stale miss and re-simulated.
    """

    def __init__(self, root: Optional[Path] = None) -> None:
        self.blobs = Blobs("ipc", root)

    @staticmethod
    def key(
        benchmark: str,
        config: MachineConfig,
        n_instructions: int,
        seed: int,
        warmup: int = 12_000,
    ) -> str:
        """Hash of the full machine configuration and the run shape."""
        return config_hash(
            {
                "benchmark": benchmark,
                "n_instructions": n_instructions,
                "warmup": warmup,
                "seed": seed,
                "config": repr(config),
            }
        )

    def get_or_run(
        self,
        benchmark: str,
        config: MachineConfig,
        n_instructions: int = 20_000,
        seed: int = 12345,
        warmup: int = 12_000,
    ) -> float:
        k = self.key(benchmark, config, n_instructions, seed, warmup)
        ipc = self.blobs.get(k)
        if ipc is None:
            ipc = simulate_config(
                benchmark, config, n_instructions, seed, warmup
            )
            self.blobs.put(k, ipc)
        return ipc


def measured_configs(compose: bool = True) -> Tuple[CoreCounts, ...]:
    """The configurations simulated to build a benchmark's IPC table.

    Compose mode: the full configuration, then the six single-degradation
    configurations in DIMENSIONS order.  Full mode: all 64.
    """
    if not compose:
        return tuple(enumerate_configs())
    return (CoreCounts(),) + tuple(
        CoreCounts(**{dim: 1}) for dim in DIMENSIONS
    )


def compose_ipc_table(
    full_ipc: float, ratios: Dict[str, float]
) -> Dict[Key, float]:
    """Multiplicatively compose the 64-entry IPC table.

    ``ratios`` maps each dimension to its single-degradation IPC ratio
    (degraded / full, already clamped by the caller); a multi-degraded
    configuration's IPC is the full IPC times the product of its degraded
    dimensions' ratios.  :func:`ipc_tables` computes and clamps them.
    """
    table: Dict[Key, float] = {CoreCounts().key(): full_ipc}
    for cfg in enumerate_configs():
        if cfg.key() in table:
            continue
        ipc = full_ipc
        for dim in DIMENSIONS:
            if getattr(cfg, dim) == 1:
                ipc *= ratios[dim]
        table[cfg.key()] = ipc
    return table


def ipc_tables(
    points: Mapping[Tuple[str, Key], float],
) -> Dict[str, Dict[Key, float]]:
    """Per-benchmark 64-entry IPC tables, in sorted-benchmark order.

    ``points`` maps (benchmark, configuration key) to measured IPC.  A
    benchmark with all 64 configurations measured gets its measured
    table; otherwise its 57 multi-degradation entries are composed from
    the single-degradation ratios of its seven :func:`measured_configs`.
    Degradation never *helps* in the paper's model, but our degraded
    single-half queue occasionally beats the full segmented policy by a
    percent or two (the simpler selection has no replay), so every entry
    is clamped at the full configuration's IPC to keep YAT conservative.
    """
    full_key = CoreCounts().key()
    every = [cfg.key() for cfg in enumerate_configs()]
    tables: Dict[str, Dict[Key, float]] = {}
    for bench in sorted({bench for bench, _ in points}):
        full = points[(bench, full_key)]
        if all((bench, key) in points for key in every):
            tables[bench] = {
                key: min(full, points[(bench, key)]) for key in every
            }
            continue
        ratios = {}
        for dim, cfg in zip(DIMENSIONS, measured_configs()[1:]):
            ipc = points[(bench, cfg.key())]
            ratios[dim] = min(1.0, ipc / full) if full else 0.0
        tables[bench] = compose_ipc_table(full, ratios)
    return tables
