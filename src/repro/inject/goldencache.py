"""Persistent golden-prefix and first-effect scan caches.

Every injection campaign begins with the same expensive step: simulate
the fault-free run to produce the commit log, checkpoint arena, and
cycle/commit totals.  That result is a pure function of (workload,
instruction count, machine configuration, checkpoint interval, profile
stride) — so repeated campaigns over the same golden
inputs (every ``repro decide`` run re-runs injection; every cold worker
process of an un-``prepare``-d campaign re-simulates) can skip golden
simulation entirely by memoizing it on disk.

Both caches are :class:`~repro.runner.store.Blobs` kinds under the
cache root: ``golden-<key>.blob`` keyed by :func:`golden_key`, and
``scan-<key>.blob`` keyed by :func:`scan_key`, which extends the golden
key with everything that determines the fault sample.  Every blob is
stamped with the code that wrote it, so an entry from other simulator
code is a stale miss and never served.

The golden payload stores only what the caller cannot rebuild: the
commit log, totals, digest, the compressed :class:`SnapshotArena`, and
the site profile.  The arena pickles as it sits in memory: one zlib
blob per distinct payload (entries that share a payload reference the
same ``bytes`` object, which pickle stores once), and no decoded
snapshot, since the golden run seals it before it is stored.  Config and trace are cheap to reconstruct and are
re-attached on load; a payload whose totals do not match the requesting
campaign is a miss.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro.runner.store import Blobs, config_hash

#: The :class:`~repro.inject.harness.GoldenRun` fields a golden blob holds.
_GOLDEN_FIELDS = (
    "log", "cycles", "commits", "digest", "arena", "checkpoint_interval",
    "profile",
)


def golden_key(
    benchmark: str,
    n_instructions: int,
    trace_seed: int,
    counts,
    checkpoint_interval: int,
    profile_stride: int,
) -> str:
    """Cache key over everything that determines the golden result."""
    return config_hash(
        {
            "benchmark": benchmark,
            "n_instructions": n_instructions,
            "trace_seed": trace_seed,
            "counts": list(counts),
            "checkpoint_interval": checkpoint_interval,
            "profile_stride": profile_stride,
        }
    )


def load_golden(
    config, trace, n_instructions: int, key: str,
    root: Optional[Path] = None,
):
    """Cached :class:`~repro.inject.harness.GoldenRun` or None."""
    from repro.inject.harness import GoldenRun

    payload = Blobs("golden", root).get(key)
    if payload is None or payload["commits"] != n_instructions:
        return None
    return GoldenRun(
        config=config, trace=trace, n_instructions=n_instructions,
        **payload,
    )


def store_golden(golden, key: str, root: Optional[Path] = None) -> None:
    """Persist one golden run under ``key``."""
    Blobs("golden", root).put(
        key, {name: getattr(golden, name) for name in _GOLDEN_FIELDS}
    )


def scan_key(
    golden: str,
    n_faults: int,
    seed: int,
    model: str,
    blocks,
    sampling: str,
) -> str:
    """Cache key over everything that determines the first-effect scan.

    ``golden`` is the :func:`golden_key` string — the scan is a pure
    function of the golden run plus the fault sample.
    """
    return config_hash(
        {
            "golden": golden,
            "n_faults": n_faults,
            "seed": seed,
            "model": model,
            "blocks": None if blocks is None else list(blocks),
            "sampling": sampling,
        }
    )


def load_scan(key: str, n_faults: int, root: Optional[Path] = None):
    """Cached first-effect dict (fault index -> FirstEffect) or None."""
    payload = Blobs("scan", root).get(key)
    if payload is None or payload["n_faults"] != n_faults:
        return None
    return payload["scan"]


def store_scan(
    scan, key: str, n_faults: int, root: Optional[Path] = None
) -> None:
    """Persist one first-effect scan under ``key``."""
    Blobs("scan", root).put(key, {"n_faults": n_faults, "scan": scan})
