"""Shared infrastructure for the experiment-regeneration benchmarks.

Each ``bench_*.py`` file regenerates one of the paper's tables or figures
(see DESIGN.md's per-experiment index).  Heavy results are cached as
``bench-<name>.blob`` under ``.repro_cache`` (or ``REPRO_CACHE_DIR``),
stamped with the code that computed them — ``src/repro`` and every
``benchmarks/*.py`` — so repeated runs are fast and any edit to either
recomputes; delete the directory to force it.  The stamp covers all the
scripts, not only the one that writes a table, because tables cross
scripts: ``bench_escapes.py`` reads ``table3``, which
``bench_table3_scan.py`` writes.

Environment knobs:

- ``RESCUE_BENCH_INSTRUCTIONS`` — measured instructions per simulation
  (default 40000),
- ``RESCUE_BENCH_WARMUP`` — cache/predictor warmup instructions
  (default 12000),
- ``RESCUE_FULL`` — set to 1 to simulate all 64 degraded configurations
  instead of composing multi-degradation IPCs from the single-degradation
  ratios,
- ``RESCUE_FAULTS`` — faults inserted in the isolation experiment
  (default 600; the paper's full experiment used 6000).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.runner.store import Blobs, default_cache_root, files_fingerprint


def env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        return default


BENCH_INSTRUCTIONS = env_int("RESCUE_BENCH_INSTRUCTIONS", 40_000)
BENCH_WARMUP = env_int("RESCUE_BENCH_WARMUP", 12_000)
FULL_SWEEP = os.environ.get("RESCUE_FULL", "") not in ("", "0")
N_FAULTS = env_int("RESCUE_FAULTS", 600)

CACHE_DIR = default_cache_root()
_HERE = Path(__file__).resolve().parent
_RESULTS = Blobs(
    "bench", CACHE_DIR, extra=files_fingerprint(_HERE.glob("*.py"), _HERE)
)


def cache_json(name: str):
    """The result cached under ``name`` by this code, or None."""
    return _RESULTS.get(name)


def save_json(name: str, payload) -> None:
    _RESULTS.put(name, payload)


def print_table(title: str, headers, rows) -> None:
    """Fixed-width table printer for the paper-style outputs."""
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    print(f"\n=== {title} ===")
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    print("  ".join("-" * w for w in widths))
    for r in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))


@pytest.fixture(scope="session")
def ipc_cache():
    from repro.cpu.degraded import IpcCache

    return IpcCache(CACHE_DIR)


@pytest.fixture(scope="session")
def figure_ipcs():
    """Figures 8 and 9's (baseline IPC, Rescue IPC table) per benchmark.

    The Rescue tables come from the ``ipc`` campaign, resumed from its
    checkpoint store under the cache root.
    """
    from repro.runner import campaigns
    from repro.workloads import PROFILES

    spec = campaigns.IpcSweepSpec(
        benchmarks=tuple(p.name for p in PROFILES),
        n_instructions=BENCH_INSTRUCTIONS,
        warmup=BENCH_WARMUP,
        compose=not FULL_SWEEP,
    )
    return campaigns.figure_ipcs(spec, cache_root=CACHE_DIR, resume=True)
