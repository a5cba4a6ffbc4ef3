"""Degraded-configuration simulation for the YAT experiments.

Bridges the fault-map configuration space (:class:`CoreCounts`) to the
performance simulator, with an on-disk JSON cache — the Figure 9 grid
needs 64 configurations × 23 benchmarks and the cache keeps re-runs
instant.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.cpu.params import MachineConfig
from repro.cpu.pipeline import Core
from repro.yieldmodel.configs import CoreCounts


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


@functools.lru_cache(maxsize=None)
def sim_fingerprint() -> str:
    """sha256 over the source of ``repro.cpu`` and ``repro.workloads``.

    Any edit to the code that produces an IPC (the core, the trace
    generators, :func:`simulate_config`) changes it, so cached IPCs from
    older code stop matching instead of being served stale.
    """
    src = Path(__file__).parent.parent
    files = sorted(src.glob("cpu/*.py")) + sorted(src.glob("workloads/*.py"))
    h = hashlib.sha256()
    for f in files:
        h.update(f"{f.parent.name}/{f.name}\0".encode())
        h.update(f.read_bytes())
    return h.hexdigest()


class IpcCache:
    """JSON-backed memo of (benchmark, machine, code fingerprint) → IPC."""

    def __init__(self, path: Optional[Path] = None) -> None:
        if path is None:
            # Same root as the runner's checkpoint store; honours
            # REPRO_CACHE_DIR (RESCUE_CACHE_DIR as deprecated fallback).
            from repro.runner.store import default_cache_root

            path = default_cache_root() / "ipc_cache.json"
        self.path = Path(path)
        self._data: Dict[str, float] = {}
        if self.path.exists():
            try:
                self._data = json.loads(self.path.read_text())
            except (json.JSONDecodeError, OSError):
                self._data = {}

    @staticmethod
    def key(
        benchmark: str,
        config: MachineConfig,
        n_instructions: int,
        seed: int,
        warmup: int = 12_000,
    ) -> str:
        """The full machine configuration, the run shape, and the
        :func:`sim_fingerprint` of the code that simulates it."""
        return (
            f"{benchmark}:n{n_instructions}:w{warmup}:s{seed}:"
            f"{sim_fingerprint()[:16]}:{config!r}"
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
        if k not in self._data:
            self._data[k] = simulate_config(
                benchmark, config, n_instructions, seed, warmup
            )
            self._save()
        return self._data[k]

    def _save(self) -> None:
        """Persist the memo without losing concurrent writers' entries.

        Parallel sweep shards share one cache path, so a plain
        ``write_text`` races two ways: interleaved writes corrupt the
        JSON, and last-writer-wins drops the other worker's entries.
        Merge-on-save (re-read the file, union our entries over it)
        keeps every key either worker wrote, and the temp-file +
        ``os.replace`` dance makes the update atomic — readers only
        ever see a complete JSON document.
        """
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            merged: Dict[str, float] = {}
            if self.path.exists():
                try:
                    on_disk = json.loads(self.path.read_text())
                    if isinstance(on_disk, dict):
                        merged = on_disk
                except (json.JSONDecodeError, OSError):
                    merged = {}
            merged.update(self._data)
            self._data = merged
            tmp = self.path.with_name(
                f"{self.path.name}.tmp.{os.getpid()}"
            )
            tmp.write_text(json.dumps(merged, indent=0))
            os.replace(tmp, self.path)
        except OSError:  # pragma: no cover - cache is best-effort
            pass


def single_degradation_counts() -> Tuple[CoreCounts, ...]:
    """The six one-dimension-degraded configurations, in DIMENSIONS order."""
    from repro.yieldmodel.configs import DIMENSIONS

    return tuple(CoreCounts(**{dim: 1}) for dim in DIMENSIONS)


def compose_ipc_table(
    full_ipc: float, ratios: Dict[str, float]
) -> Dict[Tuple[int, ...], float]:
    """Multiplicatively compose the 64-entry IPC table.

    ``ratios`` maps each dimension to its single-degradation IPC ratio
    (degraded / full, already clamped by the caller); a multi-degraded
    configuration's IPC is the full IPC times the product of its degraded
    dimensions' ratios.  Shared by :func:`rescue_ipc_table` and the
    parallel sweep campaign so both compose identically.
    """
    from repro.yieldmodel.configs import DIMENSIONS, enumerate_configs

    table: Dict[Tuple[int, ...], float] = {CoreCounts().key(): full_ipc}
    for cfg in enumerate_configs():
        if cfg.key() in table:
            continue
        ipc = full_ipc
        for dim in DIMENSIONS:
            if getattr(cfg, dim) == 1:
                ipc *= ratios[dim]
        table[cfg.key()] = ipc
    return table


def rescue_ipc_table(
    benchmark: str,
    base: MachineConfig,
    cache: Optional[IpcCache] = None,
    n_instructions: int = 20_000,
    seed: int = 12345,
    warmup: int = 12_000,
    compose: bool = True,
) -> Dict[Tuple[int, ...], float]:
    """IPC per degraded configuration for one benchmark.

    With ``compose=True`` (the quick mode), only the full configuration
    and the six single-degradation configurations are simulated; the
    remaining 57 multi-degradation IPCs are composed multiplicatively from
    the single-degradation ratios.  ``compose=False`` simulates all 64.
    """
    from repro.yieldmodel.configs import DIMENSIONS, enumerate_configs

    cache = cache or IpcCache()

    def ipc_of(counts: CoreCounts) -> float:
        return cache.get_or_run(
            benchmark, degraded_params(base, counts), n_instructions, seed,
            warmup,
        )

    full = ipc_of(CoreCounts())
    table: Dict[Tuple[int, ...], float] = {CoreCounts().key(): full}
    if compose:
        ratios = {}
        for dim in DIMENSIONS:
            counts = CoreCounts(**{dim: 1})
            measured = ipc_of(counts) / full if full else 0.0
            # Degradation never *helps* in the paper's model; our degraded
            # single-half queue occasionally beats the full segmented
            # policy by a percent or two (the simpler selection has no
            # replay), so clamp to keep the YAT composition conservative.
            ratios[dim] = min(1.0, measured)
        table = compose_ipc_table(full, ratios)
    else:
        for cfg in enumerate_configs():
            if cfg.key() not in table:
                table[cfg.key()] = min(full, ipc_of(cfg))
    return table
