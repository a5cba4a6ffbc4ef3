"""ATPG benchmark — PODEM engines head to head, then the `run_atpg` flow.

Runs the Table-3 scan workload (tiny Rescue core, full-scan, collapsed
stuck-at universe):

- the deterministic phase's targets (the faults the random phase leaves)
  go through both PODEM engines standalone: ``word`` — the program's
  :class:`repro.atpg.podem_compiled.CompiledPodem` (undo trail, SCOAP
  guidance, X-path pruning) — and ``legacy`` — the reference
  :class:`tests.oracles.Podem` (full 3-valued resimulation per
  decision), kept as a test oracle;
- the program's ATPG flow (:func:`repro.atpg.flow.run_atpg`: bit-packed
  fault simulation, compiled PODEM, batched fault dropping) then runs end
  to end.

**Hard-tail exclusion.**  A handful of faults need >10^5 backtracks to
resolve under *any* PODEM (redundancy proofs are exponential in the
worst case), so no finite backtrack budget yields an abort-free run of
the raw universe.  The standalone screen excludes any fault either
engine aborts on — an engine-neutral filter, recorded in the JSON
(``n_excluded_hard``).  On the filtered workload the two engines'
verdicts must be identical, and since an untestable fault can never be
dropped collaterally, the flow's untestable count must equal the
reference's and every other fault must be detected.  That is asserted
before any number is reported.

Results go to ``BENCH_atpg.json`` at the repo root: per-engine screen
time and backtracks, their speedup, and the flow's wall time,
vectors/sec and statistics.

Command line:

```
python benchmarks/bench_atpg.py           # measure + write JSON (minutes:
                                          # the reference screen dominates)
python benchmarks/bench_atpg.py --check   # fast equivalence gate (CI)
```

``--check`` asserts reference/compiled verdict agreement on random
circuits and a sampled slice of the Rescue workload, that `run_atpg`
statistics follow from the reference verdicts, plus
batched-vs-per-pattern dropping equivalence, and exits nonzero on any
mismatch without touching the JSON.
"""

from __future__ import annotations

import argparse
import json
import random as pyrandom
import sys
import time
from pathlib import Path

import numpy as np

_REPO_ROOT = Path(__file__).resolve().parents[1]
if "repro" not in sys.modules:  # script mode: make src/ importable
    sys.path.insert(0, str(_REPO_ROOT / "src"))
if str(_REPO_ROOT) not in sys.path:  # the reference PODEM is in tests/
    sys.path.insert(0, str(_REPO_ROOT))

RESULT_PATH = _REPO_ROOT / "BENCH_atpg.json"

BACKTRACK_LIMIT = 512
SEED = 0


def _build_netlist():
    from repro.rtl import RtlParams, build_rescue_rtl
    from repro.scan import insert_scan

    model = build_rescue_rtl(RtlParams.tiny())
    return insert_scan(model.netlist).netlist


def _fault_list(netlist):
    from repro.atpg.collapse import collapse_faults
    from repro.atpg.faults import full_fault_universe

    return collapse_faults(netlist, full_fault_universe(netlist))


def _random_survivors(netlist, faults, seed, batch_size=64,
                      max_random_batches=16):
    """Faults the flow's random phase leaves for PODEM (replicates the
    random phase of :func:`run_atpg` with its default knobs)."""
    from repro.atpg.faultsim import grade_faults
    from repro.netlist.compiled import PackedWordSimulator

    sim = PackedWordSimulator(netlist)
    rng = np.random.default_rng(seed)
    remaining = list(faults)
    for _ in range(max_random_batches):
        if not remaining:
            break
        batch = rng.integers(
            0, 2, size=(batch_size, sim.n_sources)
        ).astype(bool)
        grade = grade_faults(netlist, remaining, batch, sim=sim)
        if not grade.detected:
            break
        remaining = grade.undetected
    return remaining


def _flow_stats(result):
    return {
        "n_vectors": result.n_vectors,
        "n_detected": result.n_detected,
        "n_untestable": result.n_untestable,
        "n_aborted": result.n_aborted,
        "coverage": round(result.coverage, 6),
    }


def measure(seed: int = SEED,
            backtrack_limit: int = BACKTRACK_LIMIT) -> dict:
    """Screen both PODEM engines, then time the flow end to end."""
    from repro.atpg.flow import run_atpg
    from repro.atpg.podem_compiled import CompiledPodem
    from repro.telemetry import TELEMETRY
    from tests.oracles import Podem

    netlist = _build_netlist()
    faults = _fault_list(netlist)
    survivors = _random_survivors(netlist, faults, seed)
    print(f"{len(faults)} collapsed faults, {len(survivors)} survive the "
          f"random phase; screening with both PODEM engines...", flush=True)

    # Engine-neutral hard-tail screen: standalone PODEM per survivor
    # under both engines; exclude faults either engine aborts on.
    engines = {}
    verdicts = {}
    for name, engine in (
        ("word", CompiledPodem(netlist, backtrack_limit=backtrack_limit)),
        ("legacy", Podem(netlist, backtrack_limit=backtrack_limit)),
    ):
        backtracks = 0
        t0 = time.perf_counter()
        for fault in survivors:
            result = engine.generate(fault)
            verdicts.setdefault(fault, {})[name] = result.status
            backtracks += result.backtracks
        elapsed = time.perf_counter() - t0
        engines[name] = {"screen_seconds": round(elapsed, 2),
                         "backtracks": backtracks}
        print(f"  screened with {name} in {elapsed:.1f}s", flush=True)
    aborted = {f for f, v in verdicts.items() if "aborted" in v.values()}
    for fault, v in verdicts.items():
        if fault not in aborted:
            assert v["word"] == v["legacy"], (
                f"{fault.describe()}: word={v['word']} "
                f"legacy={v['legacy']}"
            )
    n_untestable = sum(
        v["legacy"] == "untestable"
        for f, v in verdicts.items() if f not in aborted
    )
    bench_faults = [f for f in faults if f not in aborted]

    TELEMETRY.enable()
    try:
        with TELEMETRY.collect() as metrics:
            t0 = time.perf_counter()
            result = run_atpg(
                netlist,
                faults=bench_faults,
                seed=seed,
                backtrack_limit=backtrack_limit,
            )
            elapsed = time.perf_counter() - t0
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()
    print(f"  run_atpg: {elapsed:.1f}s, {result.summary()}", flush=True)
    assert result.n_aborted == 0, "hard-tail screen missed an aborting fault"
    assert result.n_untestable == n_untestable, (
        f"flow proved {result.n_untestable} untestable, the reference "
        f"{n_untestable}"
    )
    assert result.n_detected == len(bench_faults) - n_untestable

    counters = metrics.counters
    return {
        "workload": "table3-tiny-rescue-scan",
        "netlist": netlist.stats(),
        "backtrack_limit": backtrack_limit,
        "n_collapsed_faults": len(faults),
        "n_random_survivors": len(survivors),
        "n_excluded_hard": len(aborted),
        "n_bench_faults": len(bench_faults),
        "podem_screen": engines,
        "speedup_word_over_legacy": round(
            engines["legacy"]["screen_seconds"]
            / engines["word"]["screen_seconds"], 2
        ),
        "run_atpg": {
            "run_seconds": round(elapsed, 2),
            "vectors_per_sec": round(result.n_vectors / elapsed, 2),
            "podem_targets": counters.get("podem.targets", 0),
            "podem_backtracks": counters.get("podem.backtracks", 0),
            "podem_cone_evals": counters.get("podem.cone_evals", 0),
            "podem_xpath_prunes": counters.get("podem.xpath_prunes", 0),
            **_flow_stats(result),
        },
        "agreement": "identical standalone verdicts; flow untestable "
                     "count equals the reference's",
    }


def check(seed: int = SEED) -> None:
    """Pre-merge gate: reference/compiled PODEM equivalence, fast.

    1. Random circuits: per-fault verdicts agree at a no-abort budget,
       every compiled pattern detects its target, and `run_atpg`
       statistics equal the counts of the reference verdicts.
    2. Batched (`drop_batch=64`) vs per-pattern (`drop_batch=1`)
       dropping covers the same fault set.
    3. Rescue workload slice: standalone verdicts agree on a fault
       sample wherever neither engine aborts (an abort makes no claim).
    """
    from repro.atpg.collapse import collapse_faults
    from repro.atpg.faults import full_fault_universe
    from repro.atpg.faultsim import grade_faults
    from repro.atpg.flow import run_atpg
    from repro.atpg.podem_compiled import CompiledPodem
    from repro.netlist import GateType, Netlist
    from repro.netlist.compiled import PackedWordSimulator
    from tests.oracles import Podem

    kinds = [GateType.AND, GateType.OR, GateType.XOR, GateType.NAND,
             GateType.NOR, GateType.NOT, GateType.MUX2]

    def circuit(cseed, n_inputs=5, n_gates=22):
        rng = pyrandom.Random(cseed)
        nl = Netlist(f"bench{cseed}")
        nets = [nl.add_input(f"i{k}") for k in range(n_inputs)]
        for _ in range(n_gates):
            kind = rng.choice(kinds)
            n_pins = {GateType.NOT: 1, GateType.MUX2: 3}.get(kind, 2)
            nets.append(
                nl.add_gate(kind, [rng.choice(nets) for _ in range(n_pins)])
            )
        nl.mark_output(nets[-1])
        return nl

    n_verdicts = 0
    for cseed in range(8):
        nl = circuit(cseed)
        sim = PackedWordSimulator(nl)
        legacy = Podem(nl, backtrack_limit=5_000)
        compiled = CompiledPodem(nl, backtrack_limit=5_000)
        targets = collapse_faults(nl, full_fault_universe(nl))
        n_untestable = 0
        for fault in targets:
            r_l = legacy.generate(fault)
            r_c = compiled.generate(fault)
            assert r_l.status == r_c.status, (
                f"seed {cseed} {fault.describe()}: "
                f"legacy={r_l.status} compiled={r_c.status}"
            )
            n_verdicts += 1
            n_untestable += r_l.status == "untestable"
            if r_c.status == "detected":
                row = np.zeros((1, sim.n_sources), dtype=bool)
                for net, val in r_c.pattern.items():
                    row[0, sim.source_col[net]] = bool(val)
                assert fault in grade_faults(nl, [fault], row,
                                             sim=sim).detected, (
                    f"seed {cseed}: compiled pattern misses "
                    f"{fault.describe()}"
                )
        res = run_atpg(nl, seed=3, backtrack_limit=5_000)
        assert res.n_aborted == 0
        assert res.n_untestable == n_untestable, (
            f"seed {cseed}: flow untestable count differs from reference"
        )
        assert res.n_detected == len(targets) - n_untestable
        res_b = run_atpg(nl, seed=3, backtrack_limit=5_000, drop_batch=64)
        res_p = run_atpg(nl, seed=3, backtrack_limit=5_000, drop_batch=1)
        g_b = grade_faults(nl, targets, res_b.patterns)
        g_p = grade_faults(nl, targets, res_p.patterns)
        assert set(g_b.detected) == set(g_p.detected), (
            f"seed {cseed}: batched dropping changed the covered set"
        )

    netlist = _build_netlist()
    faults = _fault_list(netlist)
    sample = faults[:: max(1, len(faults) // 40)]
    legacy = Podem(netlist, backtrack_limit=128)
    compiled = CompiledPodem(netlist, backtrack_limit=128)
    agreed = skipped = 0
    for fault in sample:
        s_l = legacy.generate(fault).status
        s_c = compiled.generate(fault).status
        if "aborted" in (s_l, s_c):
            skipped += 1  # an abort is a non-verdict, not a disagreement
            continue
        assert s_l == s_c, (
            f"Rescue {fault.describe()}: legacy={s_l} compiled={s_c}"
        )
        agreed += 1
    print(
        f"check OK: {n_verdicts} random-circuit verdicts, 8 flow stat "
        f"comparisons and batched-dropping checks, {agreed} Rescue "
        f"verdicts identical to the reference PODEM ({skipped} abort-"
        f"budget skips)"
    )


def _print_result(data: dict) -> None:
    print(f"\n=== ATPG: {data['workload']} "
          f"({data['netlist']['gates']} gates, "
          f"{data['netlist']['flops']} flops) ===")
    print(f"{data['n_random_survivors']} PODEM targets screened "
          f"({data['n_excluded_hard']} hard-tail excluded), backtrack "
          f"limit {data['backtrack_limit']}")
    for name, row in data["podem_screen"].items():
        print(f"  {name:>7}: {row['screen_seconds']:8.2f} s   "
              f"{row['backtracks']} backtracks")
    print(f"  speedup: {data['speedup_word_over_legacy']}x "
          f"({data['agreement']})")
    row = data["run_atpg"]
    print(f"run_atpg on {data['n_bench_faults']} bench faults: "
          f"{row['run_seconds']:.2f} s, {row['n_vectors']} vectors "
          f"({row['vectors_per_sec']:.2f}/s), coverage "
          f"{100 * row['coverage']:.2f}%")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--check", action="store_true",
        help="equivalence gate only (no JSON written)",
    )
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--backtrack-limit", type=int,
                        default=BACKTRACK_LIMIT)
    args = parser.parse_args(argv)
    if args.check:
        check(seed=args.seed)
        return 0
    data = measure(seed=args.seed, backtrack_limit=args.backtrack_limit)
    _print_result(data)
    RESULT_PATH.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {RESULT_PATH}")
    return 0


# ----------------------------------------------------------------------
# pytest entry point (pre-merge gate; cheap equivalence + kernel timing)
# ----------------------------------------------------------------------
def test_atpg_engine_equivalence(benchmark):
    check()

    from repro.atpg.podem_compiled import CompiledPodem

    netlist = _build_netlist()
    faults = _fault_list(netlist)
    sample = faults[:: max(1, len(faults) // 30)]
    podem = CompiledPodem(netlist, backtrack_limit=64)
    benchmark(lambda: [podem.generate(f) for f in sample])


if __name__ == "__main__":
    sys.exit(main())
