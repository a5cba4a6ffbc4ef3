"""Fault-injection gate — masking validation + determinism.

Runs the degraded-mode masking experiment (the paper's headline
defect-tolerance property): faults sampled only from mapped-out ICI
blocks must classify 100% ``masked`` on the fully-degraded core, while
the identical fault sites on the full core (where those blocks are
live) produce a nonzero SDC/hang/detection rate.  Also verifies that
campaign results are bit-identical between serial and multi-worker
execution, across a checkpoint/resume cycle, and to the from-scratch
oracle (:func:`tests.oracles.scratch_campaign`) at two checkpoint
intervals; that the campaign's checkpoint-forked replay simulates at
least 3x fewer faulty cycles than the oracle; and that a warm
golden-prefix cache simulates zero golden cycles.

Command line:

```
python benchmarks/bench_inject.py --check   # CI gate
```

``--check`` exits nonzero on any violation.  Injection speed is
measured by ``benchmarks/perf`` (``inject-gzip``, ``inject-mcf``);
``repro inject --config degraded --blocks mapped-out`` reprints the
masking table in EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parents[1]
if "repro" not in sys.modules:  # script mode: make src/ importable
    sys.path.insert(0, str(_REPO_ROOT / "src"))
if str(_REPO_ROOT) not in sys.path:  # the scratch oracle is in tests/
    sys.path.insert(0, str(_REPO_ROOT))


def _masking(spec, workers: int):
    from repro.inject import masking_validation

    return masking_validation(spec, workers=workers, checkpoint=False)


def _assert_masking(val) -> None:
    deg, full = val["degraded"], val["full"]
    if deg.outcomes["masked"] != deg.n:
        escaped = {
            k: v for k, v in deg.outcomes.items()
            if k != "masked" and v
        }
        raise AssertionError(
            f"faults escaped mapped-out blocks on the degraded core: "
            f"{escaped}"
        )
    if full.outcomes["masked"] >= full.n:
        raise AssertionError(
            "the same fault sites produced no visible outcome on the "
            "full core — the sample is not exercising live state"
        )


def _assert_invariance(spec, workers: int) -> None:
    from repro.inject import run_injection

    serial = run_injection(spec, workers=1, checkpoint=False)
    parallel = run_injection(spec, workers=workers, checkpoint=False)
    if serial != parallel:
        raise AssertionError(
            f"{workers}-worker InjectionStats differ from serial"
        )
    with tempfile.TemporaryDirectory() as cache:
        fresh = run_injection(spec, workers=workers, cache_root=cache)
        resumed = run_injection(
            spec, workers=1, cache_root=cache, resume=True
        )
    if fresh != resumed or fresh != serial:
        raise AssertionError("checkpoint/resume changed the result")


def _masking_specs(spec):
    """The masking-validation spec pair (degraded + full core)."""
    from dataclasses import replace

    from repro.inject import mapped_out_blocks
    from repro.inject.campaign import DIMENSIONS
    from repro.yieldmodel.configs import CoreCounts

    shadow = mapped_out_blocks(CoreCounts(**{d: 1 for d in DIMENSIONS}))
    return {
        "degraded": replace(spec, counts=(1,) * 6, blocks=shadow),
        "full": replace(spec, counts=(2,) * 6, blocks=shadow),
    }


def _assert_fork_equivalence(spec) -> None:
    """The campaign must reproduce the from-scratch oracle's stats
    bit-exactly on the masking-validation fault list, at the spec's
    checkpoint interval, at an odd one, and at a fine one whose
    neighbouring checkpoints share arena payloads."""
    from dataclasses import replace

    from repro.inject import run_injection
    from tests.oracles import scratch_campaign

    for name, s in _masking_specs(spec).items():
        scratch = scratch_campaign(s)
        for interval in (s.checkpoint_interval, 97, 48):
            forked = run_injection(
                replace(s, checkpoint_interval=interval), workers=1,
                checkpoint=False,
            )
            if forked != scratch:
                raise AssertionError(
                    f"InjectionStats (checkpoint interval {interval}) "
                    f"differ from from-scratch on the {name} core"
                )


def _measure_suffix_replay(spec, workers: int) -> dict:
    """Run the masking campaign forked and from-scratch (the oracle,
    serial) under telemetry and compare total simulated cycles."""
    from repro.inject import run_injection
    from repro.telemetry import TELEMETRY
    from tests.oracles import scratch_campaign

    specs = _masking_specs(spec)
    TELEMETRY.enable()
    try:
        with TELEMETRY.collect() as m_fork:
            for s in specs.values():
                run_injection(s, workers=workers, checkpoint=False)
        with TELEMETRY.collect() as m_scratch:
            for s in specs.values():
                scratch_campaign(s)
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()

    forked = m_fork.counters.get("inject.sim_cycles", 0)
    scratch = m_scratch.counters.get("inject.sim_cycles", 0)
    if not forked or not scratch:
        raise AssertionError("inject.sim_cycles telemetry missing")
    ratio = scratch / forked
    if ratio < 3.0:
        raise AssertionError(
            f"suffix replay simulated-cycle reduction {ratio:.2f}x "
            f"is below the 3x gate"
        )
    return {
        "checkpoint_interval": spec.checkpoint_interval,
        "cycles_simulated": {
            "forked": forked,
            "scratch": scratch,
            "ratio": round(ratio, 2),
        },
        "fork_restores": m_fork.counters.get("inject.fork_restores", 0),
        "early_exits": m_fork.counters.get("inject.early_exits", 0),
        "cycles_saved": m_fork.counters.get("inject.cycles_saved", 0),
        "note": (
            "faulty-run cycles only; the golden run is simulated once "
            "per configuration in both modes"
        ),
    }


def _golden_cache_probe(spec, workers: int = 1) -> dict:
    """Cold-then-warm campaign against a fresh golden-prefix cache.

    The cold run must simulate and store the golden prefix; the warm
    run must load it — zero golden cycles simulated — and reproduce the
    cold stats bit-exactly.
    """
    from dataclasses import replace

    from repro.inject import run_injection
    from repro.inject import campaign as campaign_mod
    from repro.telemetry import TELEMETRY

    s = replace(spec, golden_cache=True)
    saved = os.environ.get("REPRO_CACHE_DIR")
    with tempfile.TemporaryDirectory() as cache:
        os.environ["REPRO_CACHE_DIR"] = cache
        TELEMETRY.enable()
        try:
            campaign_mod.prepare_injection.cache_clear()
            with TELEMETRY.collect() as cold:
                cold_stats = run_injection(
                    s, workers=workers, checkpoint=False
                )
            campaign_mod.prepare_injection.cache_clear()
            with TELEMETRY.collect() as warm:
                warm_stats = run_injection(
                    s, workers=workers, checkpoint=False
                )
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
            campaign_mod.prepare_injection.cache_clear()
            if saved is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = saved
    if warm_stats != cold_stats:
        raise AssertionError(
            "warm golden-cache campaign stats differ from cold"
        )
    cold_golden = cold.counters.get("inject.golden_sim_cycles", 0)
    warm_golden = warm.counters.get("inject.golden_sim_cycles", 0)
    hits = warm.counters.get("inject.golden_cache_hits", 0)
    if not cold_golden:
        raise AssertionError("cold run did not simulate a golden prefix")
    if cold.counters.get("inject.golden_cache_hits", 0):
        raise AssertionError("cold run hit a supposedly empty cache")
    if warm_golden:
        raise AssertionError(
            f"warm golden-cache run simulated {warm_golden} golden "
            f"cycles (expected 0)"
        )
    if not hits:
        raise AssertionError("warm run did not hit the golden cache")
    return {
        "cold_golden_cycles": cold_golden,
        "warm_golden_cycles": warm_golden,
        "warm_cache_hits": hits,
        "agreement": "warm stats bit-identical to cold",
    }


def check(workers: int = 2) -> None:
    """CI gate: masking + determinism on a small sample (no JSON)."""
    from repro.inject import InjectionSpec

    spec = InjectionSpec(n_instructions=1200, n_faults=24, chunk_size=6)
    val = _masking(spec, workers)
    _assert_masking(val)
    _assert_invariance(spec, workers)
    _assert_fork_equivalence(spec)
    suffix = _measure_suffix_replay(spec, workers=1)
    cache = _golden_cache_probe(spec)
    deg, full = val["degraded"], val["full"]
    print(
        "inject check OK: "
        f"degraded {deg.outcomes['masked']}/{deg.n} masked, "
        f"full core outcomes {full.outcomes}, "
        f"{workers}-worker/resume runs bit-identical to serial, "
        f"campaign == from-scratch oracle at 3 checkpoint intervals, "
        f"{suffix['cycles_simulated']['ratio']}x fewer simulated cycles "
        f"({suffix['early_exits']} early exits), "
        f"warm golden cache: {cache['warm_cache_hits']} hits / "
        f"{cache['warm_golden_cycles']} golden cycles simulated"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true", required=True,
                        help="run the masking/determinism gate")
    parser.parse_args(argv)
    check(workers=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
