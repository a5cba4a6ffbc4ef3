"""Auto-repair benchmark — verified-patch and plan-determinism gate.

Runs the ``repair`` campaign on the baseline RTL and on a hand-broken
Rescue variant and asserts the subsystem's headline properties:

1. **Every repair verifies** — the composed patched model passes the
   gate-level ICI netcheck and is bit-exact through the packed
   equivalence screen, with no unrepaired violations on either model.
2. **Plan determinism** — the emitted plan is bit-identical between
   serial and multi-worker execution, across a different chunking, and
   across a checkpoint/resume cycle.
3. **Oracle equivalence** — every candidate of the search is re-checked
   by the from-scratch oracle :func:`tests.oracles.scratch_verify`
   (full ICI sweep, fresh build, full good simulation); the verdict,
   stage and reason must equal the incremental oracle's.
4. **No silent fallback** — every searched candidate is a delta of the
   base (``repair.extended_builds`` equals
   ``repair.candidates_generated``, ``repair.full_builds`` is 0), so a
   delta rule that starts rejecting a real candidate shape fails here
   instead of quietly checking it at full cost.

Command line:

```
python benchmarks/bench_repair.py --check   # CI gate
```

``--check`` exits nonzero on any violation.  The repair oracle's speed
is measured by ``benchmarks/perf`` (the ``repair.*`` layers of
``gate-tiny``); ``repro repair`` reprints the plans in EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parents[1]
if "repro" not in sys.modules:  # script mode: make src/ importable
    sys.path.insert(0, str(_REPO_ROOT / "src"))
if str(_REPO_ROOT) not in sys.path:  # the from-scratch oracle is in tests/
    sys.path.insert(0, str(_REPO_ROOT))


def _assert_invariance(spec, workers: int):
    """Serial, multi-worker, re-chunked, and resumed runs must agree."""
    from dataclasses import replace

    from repro.repair import run_repair

    serial = run_repair(spec, workers=1, checkpoint=False)
    parallel = run_repair(spec, workers=workers, checkpoint=False)
    if serial.to_json() != parallel.to_json():
        raise AssertionError(
            f"{workers}-worker repair plan differs from serial "
            f"({spec.model})"
        )
    rechunked = run_repair(
        replace(spec, chunk_size=spec.chunk_size + 3),
        workers=workers,
        checkpoint=False,
    )
    r, s = rechunked.to_json(), serial.to_json()
    for key in ("violations", "actions", "unrepaired", "extra_area",
                "patched_satisfied", "equivalent"):
        if r[key] != s[key]:
            raise AssertionError(
                f"re-chunked repair plan differs from serial on "
                f"{key!r} ({spec.model})"
            )
    with tempfile.TemporaryDirectory() as cache:
        fresh = run_repair(spec, workers=workers, cache_root=cache)
        resumed = run_repair(
            spec, workers=1, cache_root=cache, resume=True
        )
    if (fresh.to_json() != resumed.to_json()
            or fresh.to_json() != serial.to_json()):
        raise AssertionError(
            f"checkpoint/resume changed the repair plan ({spec.model})"
        )
    return serial


def _assert_no_fallback(spec) -> int:
    """Every candidate of the search is checked as a base delta."""
    from repro.repair import run_repair
    from repro.telemetry import TELEMETRY

    TELEMETRY.enable()
    try:
        with TELEMETRY.collect() as m:
            run_repair(spec, workers=1, checkpoint=False)
    finally:
        TELEMETRY.disable()
    c = m.counters
    n = c.get("repair.candidates_generated", 0)
    full = c.get("repair.full_builds", 0)
    extended = c.get("repair.extended_builds", 0)
    if n == 0 or full != 0 or extended != n:
        raise AssertionError(
            f"{spec.model}: {n} candidates, {extended} checked as a base "
            f"delta, {full} from scratch (want all {n} as a delta)"
        )
    return n


def _assert_verified(result, spec) -> None:
    """Every violation repaired; the composed patch re-verifies."""
    from repro.core.netcheck import check_netlist_ici
    from repro.repair import BaseState, build_model, patch_model
    from repro.repair.oracle import _equivalence_stage

    if result.unrepaired:
        raise AssertionError(
            f"{spec.model}: {len(result.unrepaired)} violations "
            f"unrepaired: {result.unrepaired}"
        )
    if not result.patched_satisfied:
        raise AssertionError(
            f"{spec.model}: patched model still violates ICI"
        )
    if not result.equivalent:
        raise AssertionError(
            f"{spec.model}: patched model not bit-exact vs base"
        )
    # Independent re-derivation from the plan alone.
    netlist, _breaks = build_model(spec)
    report = check_netlist_ici(netlist, exempt_blocks=spec.exempt)
    patched, _log = patch_model(spec, result.actions)
    if not check_netlist_ici(
        patched, exempt_blocks=spec.exempt
    ).satisfied:
        raise AssertionError(
            f"{spec.model}: re-applied plan fails netcheck"
        )
    base = BaseState.build(netlist, report, spec.n_patterns, spec.seed)
    # No delta: the re-applied plan is built and simulated from scratch.
    verdict, _sim, _values = _equivalence_stage(
        base, patched, spec.seed, None
    )
    if verdict is not None:
        raise AssertionError(
            f"{spec.model}: re-applied plan fails equivalence: "
            f"{verdict.reason}"
        )


def _assert_scratch_verdicts(result, spec) -> int:
    """Every searched candidate gets the same verdict from scratch."""
    from repro.repair import apply_candidate, prepare_repair
    from repro.repair.candidates import CANDIDATE_KINDS, NotApplicable
    from tests.oracles import scratch_verify

    base, _breaks = prepare_repair(spec)
    if len(result.violations) != len(base.report.violations):
        raise AssertionError(f"{spec.model}: searched violations differ")
    n = 0
    for v, entry in zip(base.report.violations, result.violations):
        if entry["id"] != v.vid:
            raise AssertionError(f"{spec.model}: entry {entry['id']} "
                                 f"is not violation {v.vid}")
        recorded = {c["kind"]: c for c in entry["candidates"]}
        seen = set()
        # Primary outputs are tester pins: the search tries nothing.
        kinds = () if v.observer.startswith("po[") else CANDIDATE_KINDS
        for kind in kinds:
            patched = base.netlist.copy()
            try:
                info = apply_candidate(
                    patched, kind, v.observer, exempt=spec.exempt
                )
            except NotApplicable:
                continue
            seen.add(kind)
            verdict = scratch_verify(
                base, patched, v.observer, info.sample_gates,
                exempt=spec.exempt,
                n_isolation_faults=spec.n_isolation_faults,
                seed=spec.seed,
            )
            c = recorded.get(kind)
            if c is None or (c["verified"], c["stage"], c["reason"]) != (
                verdict.ok, verdict.stage, verdict.reason
            ):
                raise AssertionError(
                    f"{spec.model} {v.vid} {kind}: incremental oracle "
                    f"says {c and (c['stage'], c['reason'])}, from-scratch "
                    f"oracle says {(verdict.stage, verdict.reason)}"
                )
            n += 1
        if seen != set(recorded):
            raise AssertionError(
                f"{spec.model} {v.vid}: candidates {sorted(recorded)} "
                f"searched, {sorted(seen)} applicable"
            )
    return n


def check(workers: int = 2) -> None:
    """CI gate: verified repair + plan determinism on small specs."""
    from repro.repair import RepairSpec

    summaries = []
    for model in ("baseline", "rescue-broken"):
        spec = RepairSpec(
            model=model, tiny=True, n_patterns=96, chunk_size=4
        )
        result = _assert_invariance(spec, workers)
        _assert_verified(result, spec)
        n = _assert_scratch_verdicts(result, spec)
        n_delta = _assert_no_fallback(spec)
        summaries.append(
            f"{model}: {result.n_repaired}/{result.n_violations} repaired, "
            f"{n} candidate verdicts equal from scratch, "
            f"{n_delta} checked as base deltas"
        )
    print(
        "repair check OK: "
        + "; ".join(summaries)
        + f"; {workers}-worker/re-chunked/resume plans bit-identical "
        "to serial, composed patches pass netcheck + bit-exact "
        "equivalence"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true", required=True,
                        help="run the verified-repair/determinism gate")
    parser.parse_args(argv)
    check(workers=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
