"""Parallel-runner equivalence gate — serial vs N-worker isolation campaign.

Runs a small Section 6.1 random-fault isolation campaign on the tiny
Rescue core through ``repro.runner`` at 1 worker (in-process, no pool)
and at ``--workers`` processes, and asserts the two produce
bit-identical ``IsolationStats``.  The test setup (netlist + ATPG
vectors + fault sample) is prepared once in the parent; under the POSIX
``fork`` start method the workers inherit it copy-free.

Command line:

```
python benchmarks/bench_runner.py --check --workers 2   # CI gate
```

``--check`` exits nonzero on any mismatch.  Runner overhead is measured
by ``benchmarks/perf`` (``runner.*`` layers); EXPERIMENTS.md keeps the
one-off serial-vs-parallel record as a dated figure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parents[1]
if "repro" not in sys.modules:  # script mode: make src/ importable
    sys.path.insert(0, str(_REPO_ROOT / "src"))


def _run(spec, workers: int):
    from repro.runner import run_isolation

    return run_isolation(spec, workers=workers, checkpoint=False)


def check(workers: int = 4) -> None:
    """Quick serial-vs-parallel equivalence gate (no JSON output)."""
    from repro.runner import IsolationSpec, prepare_isolation

    spec = IsolationSpec(
        tiny=True, n_faults=120, max_deterministic=0, chunk_size=17
    )
    prepare_isolation(spec)
    serial_stats = _run(spec, workers=1)
    parallel_stats = _run(spec, workers=workers)
    assert serial_stats == parallel_stats, (
        f"parallel != serial: {parallel_stats} vs {serial_stats}"
    )
    assert serial_stats.inserted == 120
    print(
        f"runner check OK: {workers}-worker campaign bit-identical to "
        f"serial ({serial_stats.summary()})"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true", required=True,
                        help="run the serial-vs-parallel equivalence gate")
    parser.add_argument("--workers", type=int, default=4)
    args = parser.parse_args(argv)
    check(workers=args.workers)
    return 0


if __name__ == "__main__":
    sys.exit(main())
