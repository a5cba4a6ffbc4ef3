"""Decision-support benchmark — Pareto determinism + masking-fold gate.

Runs a small ``decide`` campaign (injection phase + composed IPC sweep
+ Pareto fold over all 64 map-out configurations) and asserts the
subsystem's two headline properties:

1. **Worker-count invariance** — the Pareto front and the total ranking
   are bit-identical between serial and multi-worker execution, across
   different chunkings of both measurement phases, and across a
   checkpoint/resume cycle.
2. **Zero mapped-out SDC** — for every configuration on the Pareto
   front, the blocks it maps out contribute exactly ``0.0`` to its
   residual-SDC score (the PR-5 masking property carried through the
   decision fold), and the fold conserves the measured SDC mass.

Command line:

```
python benchmarks/bench_decide.py --check   # CI gate
```

``--check`` exits nonzero on any violation.  The ranked front in
EXPERIMENTS.md is reprinted by ``repro decide``.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parents[1]
if "repro" not in sys.modules:  # script mode: make src/ importable
    sys.path.insert(0, str(_REPO_ROOT / "src"))


def _assert_invariance(spec, workers: int):
    """Serial, multi-worker, re-chunked, and resumed runs must agree."""
    from dataclasses import replace

    from repro.decide import run_decide

    serial = run_decide(spec, workers=1, checkpoint=False)
    parallel = run_decide(spec, workers=workers, checkpoint=False)
    if serial != parallel:
        raise AssertionError(
            f"{workers}-worker DecideResult differs from serial"
        )
    rechunked = run_decide(
        replace(
            spec,
            chunk_size=spec.chunk_size + 2,
            inject_chunk=max(1, spec.inject_chunk // 2),
        ),
        workers=workers,
        checkpoint=False,
    )
    if rechunked != serial:
        raise AssertionError("re-chunked DecideResult differs from serial")
    with tempfile.TemporaryDirectory() as cache:
        fresh = run_decide(spec, workers=workers, cache_root=cache)
        resumed = run_decide(
            spec, workers=1, cache_root=cache, resume=True
        )
    if fresh != resumed or fresh != serial:
        raise AssertionError("checkpoint/resume changed the ranking")
    return serial


def _assert_front_masking(result) -> None:
    """Every front member's mapped-out blocks contribute zero SDC, and
    the fold conserves the measured SDC mass."""
    from repro.decide import masked_sdc, sdc_contributions
    from repro.decide.campaign import key_label
    from repro.inject import InjectionStats, mapped_out_blocks
    from repro.yieldmodel.configs import CoreCounts, DIMENSIONS

    stats = InjectionStats()
    stats.by_block = {
        blk: dict(counts) for blk, counts in result.block_sdc.items()
    }
    stats.outcomes = {
        k: sum(c.get(k, 0) for c in stats.by_block.values())
        for k in ("masked", "sdc", "detected", "hang")
    }
    if stats.n != result.n_injections:
        raise AssertionError(
            f"block counts sum to {stats.n}, campaign ran "
            f"{result.n_injections} injections"
        )
    total_sdc = stats.rate("sdc")
    for key in result.front:
        counts = CoreCounts(**dict(zip(DIMENSIONS, key)))
        contrib = sdc_contributions(stats, counts)
        shadow = set(mapped_out_blocks(counts))
        leaked = {
            blk: v for blk, v in contrib.items()
            if blk in shadow and v != 0.0
        }
        if leaked:
            raise AssertionError(
                f"front config {key_label(key)} keeps SDC mass in "
                f"mapped-out blocks: {leaked}"
            )
        score = result.objectives[key].sdc
        if abs(score + masked_sdc(stats, counts) - total_sdc) > 1e-12:
            raise AssertionError(
                f"SDC mass not conserved for {key_label(key)}: "
                f"residual {score} + masked "
                f"{masked_sdc(stats, counts)} != {total_sdc}"
            )


def check(workers: int = 2) -> None:
    """CI gate: Pareto determinism + masking fold on a small campaign."""
    from repro.decide import DecideSpec

    spec = DecideSpec(
        benchmarks=("gzip",),
        n_instructions=800,
        warmup=400,
        inject_instructions=600,
        n_faults=16,
        inject_chunk=4,
        chunk_size=2,
    )
    result = _assert_invariance(spec, workers)
    _assert_front_masking(result)
    print(
        "decide check OK: "
        f"{len(result.ranking)} configs ranked, "
        f"front {len(result.front)}, knee "
        f"{''.join(str(v) for v in result.knee)}, "
        f"{workers}-worker/re-chunked/resume runs bit-identical to "
        f"serial, zero mapped-out SDC on every front member"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true", required=True,
                        help="run the determinism/masking gate")
    parser.parse_args(argv)
    check(workers=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
