"""The benchmark's four workloads: campaign specs from a seed, one run, checks.

Every workload drives registered campaigns from outside the program:
specs come from ``REGISTRY[name].make_spec``, set-up from the public
``prepare_*`` functions, and the work from ``REGISTRY[name].run`` at
``workers=1``.  A workload returns its outputs keyed by campaign leg.
Each leg lists one value per operation (a classified fault, an IPC
point, a repaired violation) or one aggregate value, together with the
operation count and the indices its own checks failed.  The parent
process adds the comparison with ``reference.json``.

The seed drives only inputs whose cost does not depend on it, because
the benchmark must read the same on every seed.  A full-core fault
sample's cost depends on its outcome mix: two to five hang verdicts at
about twice the golden length swing a 48-fault campaign by about 30%
between samples.  A trace seed changes a trace's simulated cycles by
17-27% (coefficient of variation over 8 seeds, 1200 instructions).  So
full-core samples and traces stay at their campaign defaults.  Legs
whose inputs the seed does not touch must match ``reference.json`` at
every seed.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Any, Callable, Dict, List, Optional

#: Operation values of one leg: per-operation values, or one aggregate.
Leg = Dict[str, Any]


class Tally:
    """Outputs, operation counts and failures of one repetition."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.legs: Dict[str, Leg] = {}
        self.errors: List[str] = []
        self.dropped: Dict[str, List[str]] = {}

    def spec(self, campaign: str, params: Dict[str, Any]):
        """Build a spec through the registry, dropping unknown keys.

        A later change that deletes a spec field must not break the
        benchmark: the key is dropped and listed in the record.
        """
        from repro.runner.registry import REGISTRY

        entry = REGISTRY[campaign]
        known = {f.name for f in dataclasses.fields(entry.spec_cls)}
        dropped = sorted(set(params) - known)
        if dropped:
            seen = self.dropped.setdefault(campaign, [])
            seen.extend(k for k in dropped if k not in seen)
        return entry.make_spec({k: params[k] for k in params if k in known})

    def campaign(self, leg: str, planned: int, fn: Callable[[], Any]):
        """Run one campaign; a raise fails its ``planned`` operations."""
        try:
            return fn()
        except Exception as exc:  # a failing campaign must not stop the run
            self.legs[leg] = {"values": None, "ops": planned, "bad": "all"}
            self.errors.append(f"{leg}: {type(exc).__name__}: {exc}")
            return None

    def record(
        self, leg: str, values: List[Any], bad: List[int], ops: int = -1,
        why: str = "", fixed: bool = False,
    ) -> None:
        """Store one leg.  ``ops < 0`` means one operation per value.

        ``fixed`` marks a leg whose inputs do not depend on the seed: it
        must match ``reference.json`` at every seed, not only at seed 0.
        """
        n = len(values) if ops < 0 else ops
        self.legs[leg] = {"values": values, "ops": n, "bad": sorted(bad),
                          "fixed": fixed}
        if bad:
            self.errors.append(f"{leg}: {len(bad)} of {n} failed: {why}")


def _shadow_blocks() -> List[str]:
    """The six half-1 ICI blocks a fully degraded core maps out."""
    from repro.inject.campaign import DIMENSIONS
    from repro.inject.sites import mapped_out_blocks
    from repro.yieldmodel.configs import CoreCounts

    return list(mapped_out_blocks(CoreCounts(**{d: 1 for d in DIMENSIONS})))


def _inject(tally: Tally, params: Dict[str, Any], leg: str):
    """One injection campaign; returns ``[outcome, cycles, commits]``s."""
    from repro.inject.campaign import prepare_injection
    from repro.runner.registry import REGISTRY

    spec = tally.spec("inject", params)

    def go():
        tally.clock.setup(prepare_injection, spec)
        return REGISTRY["inject"].run(spec, workers=1)

    stats = tally.campaign(leg, params["n_faults"], go)
    if stats is None:
        return None
    return [[r["outcome"], r["cycles"], r["commits"]] for r in stats.records]


def _all_masked(records: List[List[Any]]) -> List[int]:
    return [i for i, r in enumerate(records) if r[0] != "masked"]


def inject_gzip(tally: Tally, seed: int, toy: bool) -> None:
    """Short golden, stuck-at and transient faults, cold then warm cache.

    Pass 1 runs against an empty golden-prefix and scan cache and fills
    it; pass 2 repeats the three campaigns against the warm cache and
    must reproduce every fault's outcome, cycles and commits.
    """
    shadow = _shadow_blocks()
    n_leg, n_full = (4, 8) if toy else (24, 48)
    base = dict(
        benchmark="gzip", n_instructions=600 if toy else 2000,
        model="both", golden_cache=True,
    )
    legs = {
        # The seed draws the degraded-leg sample: every fault there is
        # masked, so its cost does not depend on the draw.  Transients
        # only: a sampled stuck-at's first-effect scan can end early or
        # run to the end of the golden, which moved set-up time by 15%
        # between seeds.
        "degraded": dict(base, counts=[1] * 6, blocks=shadow,
                         model="transient", n_faults=n_leg, seed=seed),
        "shadow-full": dict(base, counts=[2] * 6, blocks=shadow,
                            n_faults=n_leg),
        "full": dict(base, counts=[2] * 6, n_faults=n_full),
    }
    first: Dict[str, Optional[list]] = {}
    for p in (1, 2):
        for name, params in legs.items():
            leg = f"pass{p}.{name}"
            records = _inject(tally, params, leg)
            if records is None:
                continue
            bad = set(_all_masked(records)) if name == "degraded" else set()
            if p == 1:
                first[name] = records
            elif first.get(name) is not None:
                bad |= {
                    i for i, (a, b) in enumerate(zip(records, first[name]))
                    if a != b
                }
            tally.record(
                leg, records, sorted(bad),
                why="degraded fault not masked, or warm-cache result "
                    "differs from the cold pass",
                fixed=name != "degraded",
            )


def inject_mcf(tally: Tally, seed: int, toy: bool) -> None:
    """Long memory-bound golden with fine checkpoints; transient faults.

    Faults sit in the blocks the degraded core maps out, so every one is
    masked and forks, restores and exits early at the next checkpoint:
    the run is checkpoint capture, decode and restore.  The seed draws
    the sample.
    """
    params = dict(
        benchmark="mcf", n_instructions=400 if toy else 2000,
        counts=[1] * 6, blocks=_shadow_blocks(),
        model="transient", n_faults=8 if toy else 384, seed=seed,
        checkpoint_interval=48, golden_cache=False,
    )
    records = _inject(tally, params, "degraded")
    if records is not None:
        tally.record("degraded", records, _all_masked(records),
                     why="fault in a mapped-out block not masked")


def ipc_sweep(tally: Tally, seed: int, toy: bool) -> None:
    """Compose-mode IPC sweep: 3 benchmarks x 7 configurations.

    The seed permutes the order the sweep visits the benchmarks.  The
    measured IPCs must not depend on that order, so every seed must
    reproduce the reference values.

    The campaign has no ``prepare_*`` step, so its set-up is a warm-up
    sweep at toy size: it builds whatever the first simulation builds
    lazily, and work a change moves there shows as set-up time.
    """
    from repro.runner.registry import REGISTRY

    benchmarks = ["gzip", "mcf", "swim"]
    random.Random(seed).shuffle(benchmarks)
    warm = tally.spec("ipc", dict(
        benchmarks=benchmarks, n_instructions=100, warmup=50, compose=True,
    ))
    tally.campaign("ipc.warmup", 21, lambda: tally.clock.setup(
        lambda: REGISTRY["ipc"].run(warm, workers=1)))
    spec = tally.spec("ipc", dict(
        benchmarks=benchmarks,
        n_instructions=150 if toy else 800, warmup=50 if toy else 400,
        compose=True,
    ))
    result = tally.campaign(
        "ipc", 21, lambda: REGISTRY["ipc"].run(spec, workers=1)
    )
    if result is None:
        return
    points = [
        [bench, list(key), ipc]
        for (bench, key), ipc in sorted(result.measured.items())
    ]
    bad = [
        i for i, p in enumerate(points)
        if not (math.isfinite(p[2]) and p[2] > 0)
    ]
    if len(points) != 21:
        tally.errors.append(f"ipc: {len(points)} points, expected 21")
        bad = list(range(len(points)))
    tally.record("ipc", points, bad, why="IPC not finite and positive",
                 fixed=True)


def gate_tiny(tally: Tally, seed: int, toy: bool) -> None:
    """Isolation with ATPG on the tiny Rescue netlist, then two repairs.

    The seed draws the ATPG patterns and the isolation fault sample.
    PODEM is capped at a fixed number of targets, so its work does not
    depend on the draw.  The repairs keep their default oracle seed:
    with oracle seeds 2, 3, 5, 8 or 9 composing the rescue-broken plan
    raises ``NotApplicable`` ("cone already single-block"), a program
    defect this benchmark does not work around.
    """
    from repro.repair.campaign import prepare_repair
    from repro.runner.campaigns import prepare_isolation
    from repro.runner.registry import REGISTRY

    spec = tally.spec("isolation", dict(
        tiny=True, n_faults=60 if toy else 600, atpg_seed=seed,
        fault_seed=1 + seed, max_deterministic=10 if toy else 100,
    ))

    def isolate():
        tally.clock.setup(prepare_isolation, spec)
        return REGISTRY["isolation"].run(spec, workers=1)

    stats = tally.campaign("isolation", spec.n_faults, isolate)
    if stats is not None:
        missed = stats.detected - stats.correct
        tally.record(
            "isolation", [stats.to_json()],
            list(range(missed)), ops=stats.detected,
            why="fault blamed on the wrong block or ambiguous",
        )
    for model in (("rescue-broken",) if toy else ("baseline", "rescue-broken")):
        rspec = tally.spec("repair", dict(model=model))

        def repair():
            tally.clock.setup(prepare_repair, rspec)
            return REGISTRY["repair"].run(rspec, workers=1)

        result = tally.campaign(f"repair.{model}", 1, repair)
        if result is None:
            continue
        plan = {a.vid: [a.kind, a.extra_area] for a in result.actions}
        values = [
            [e["id"], plan.get(e["id"])] for e in result.violations
        ]
        bad = [i for i, v in enumerate(values) if v[1] is None]
        if not (result.equivalent and result.patched_satisfied):
            bad = list(range(len(values)))
        tally.record(
            f"repair.{model}", values, bad,
            why="violation unrepaired, or the composed patch is not "
                "equivalent or not ICI-clean",
            fixed=True,
        )


#: Workload name -> the function that runs it once.
WORKLOADS: Dict[str, Callable[[Tally, int, bool], None]] = {
    "inject-gzip": inject_gzip,
    "inject-mcf": inject_mcf,
    "ipc-sweep": ipc_sweep,
    "gate-tiny": gate_tiny,
}
