"""Telemetry invariance gate — grading with telemetry on vs off.

The telemetry subsystem promises two things this gate holds it to:

1. **Nothing recorded when off.**  Fault grading with telemetry
   disabled leaves the registry empty — the instrumentation points
   compile down to one attribute test each.

2. **Observe, never perturb.**  Grading with counters/histograms/spans
   enabled produces bit-exact the same detection maps, at an overhead
   under a loose CI-noise bound.

The run also exercises the campaign-metrics contract: a sharded
isolation campaign and a sharded injection campaign, each at
``--workers 1`` and ``--workers 2``, must produce bit-identical
deterministic metric views (counters + histograms), the same invariance
the campaign results themselves obey.

Command line:

```
python benchmarks/bench_telemetry.py --check   # pre-merge gate (<30 s)
```

``--check`` exits nonzero on any violation.  The tracing overhead of a
whole campaign is measured by ``benchmarks/perf`` (its
``trace.overhead_pct``); EXPERIMENTS.md keeps the one-off grading
overhead as a dated figure.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

_REPO_ROOT = Path(__file__).resolve().parents[1]
if "repro" not in sys.modules:  # script mode: make src/ importable
    sys.path.insert(0, str(_REPO_ROOT / "src"))


def _grading_setup(n_patterns: int, seed: int):
    from repro.atpg.collapse import collapse_faults
    from repro.atpg.faults import full_fault_universe
    from repro.netlist.compiled import PackedWordSimulator
    from repro.rtl import RtlParams, build_rescue_rtl
    from repro.scan import insert_scan

    model = build_rescue_rtl(RtlParams.tiny())
    netlist = model.netlist
    insert_scan(netlist)
    faults = collapse_faults(netlist, full_fault_universe(netlist))
    sim = PackedWordSimulator(netlist)
    rng = np.random.default_rng(seed)
    patterns = rng.integers(
        0, 2, size=(n_patterns, sim.n_sources)
    ).astype(bool)
    return netlist, faults, sim, patterns


def _time_grading(netlist, faults, sim, patterns, reps: int):
    """Best-of-``reps`` grading times with telemetry off and on.

    The off and on repetitions alternate, so a slow spell on the host
    slows both sides instead of only the block that happened to run
    during it.  Returns ``(t_off, t_on, grade_off, grade_on)``; every
    off run must record nothing and every on run something.
    """
    from repro.atpg.faultsim import grade_faults
    from repro.telemetry import TELEMETRY

    best = {False: float("inf"), True: float("inf")}
    grades = {}
    try:
        for _ in range(reps):
            for on in (False, True):
                TELEMETRY.reset()
                if on:
                    TELEMETRY.enable()
                else:
                    TELEMETRY.disable()
                t0 = time.perf_counter()
                grades[on] = grade_faults(netlist, faults, patterns, sim=sim)
                best[on] = min(best[on], time.perf_counter() - t0)
                if on:
                    assert not TELEMETRY.metrics.is_empty(), (
                        "enabled telemetry recorded nothing"
                    )
                else:
                    assert TELEMETRY.metrics.is_empty(), (
                        "disabled telemetry recorded metrics"
                    )
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()
    return best[False], best[True], grades[False], grades[True]


def _assert_same_grade(g_off, g_on) -> None:
    if g_off.detected != g_on.detected:
        raise AssertionError("telemetry changed detection maps")
    if g_off.undetected != g_on.undetected:
        raise AssertionError("telemetry changed undetected lists")


def _campaign_metric_views(prepare, run, spec, workers):
    """Deterministic metric views of one campaign per worker count
    (results asserted identical along the way)."""
    from repro.telemetry import TELEMETRY

    # Prepare once, outside every collect scope: the first run must not
    # absorb one-time setup work (ATPG, golden run) the others skip.
    prepare(spec)
    TELEMETRY.enable()
    views = {}
    payload = None
    try:
        for w in workers:
            with TELEMETRY.collect() as m:
                result = run(spec, workers=w, checkpoint=False).to_json()
            if payload is None:
                payload = result
            elif result != payload:
                raise AssertionError(
                    f"{spec!r}: workers={w} result differs from serial"
                )
            views[w] = m.deterministic()
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()
    return views


def check(seed: int = 0) -> None:
    """Pre-merge gate: invariance + a loose overhead bound (<30 s).

    The 50% overhead ceiling is deliberately loose — CI boxes are noisy
    and the sample is small; ``trace.overhead_pct`` in the
    ``benchmarks/perf`` records is where the overhead claim is held.
    """
    netlist, faults, sim, patterns = _grading_setup(
        n_patterns=128, seed=seed
    )
    t_off, t_on, g_off, g_on = _time_grading(
        netlist, faults, sim, patterns, reps=5
    )
    _assert_same_grade(g_off, g_on)
    overhead_pct = 100.0 * (t_on - t_off) / t_off
    assert overhead_pct < 50.0, (
        f"enabled overhead {overhead_pct:.1f}% exceeds the loose CI bound"
    )

    from repro.inject import InjectionSpec, prepare_injection, run_injection
    from repro.runner import IsolationSpec, prepare_isolation, run_isolation

    campaigns = (
        (prepare_isolation, run_isolation, IsolationSpec(
            tiny=True, n_faults=60, max_deterministic=0, chunk_size=13,
        )),
        # Transients with checkpoints: the early-exit hook reads the
        # golden run in every shard.
        (prepare_injection, run_injection, InjectionSpec(
            n_instructions=600, n_faults=16, chunk_size=2,
        )),
    )
    for prepare, run, spec in campaigns:
        views = _campaign_metric_views(prepare, run, spec, workers=(1, 2))
        assert views[1] == views[2], (
            f"{type(spec).__name__} metrics differ between --workers 1 "
            f"and --workers 2"
        )
        assert views[1]["counters"], "campaign collected no counters"

    print(
        f"telemetry check OK: {len(faults)} faults x "
        f"{patterns.shape[0]} patterns bit-exact on/off "
        f"(overhead {overhead_pct:+.1f}%), campaign metrics "
        f"bit-identical across worker counts"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true", required=True,
                        help="run the telemetry invariance gate")
    parser.parse_args(argv)
    check()
    return 0


if __name__ == "__main__":
    sys.exit(main())
