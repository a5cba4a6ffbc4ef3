"""Section 6.1 — the random-fault isolation experiment.

Inserts ``RESCUE_FAULTS`` random stuck-at faults (default 600; the paper
used 6000) into the Rescue gate-level model, fault-simulates each against
the generated scan vectors, maps the failing scan bits through the
isolation table, and checks the blamed map-out block is the one physically
containing the fault.  The paper's result: all inserted faults isolate
correctly.  The same experiment on the baseline shows why ICI is needed:
a large fraction of faults are ambiguous or misattributed.

Fault simulation rides the bit-packed simulator: failing scan bits are
read straight off packed fault deltas, which is what makes the full
6000-fault run practical — see ``bench_faultsim.py`` for its comparison
with the reference simulator.
"""

import time

from conftest import N_FAULTS, cache_json, print_table, save_json

from repro.rtl import RtlParams, build_baseline_rtl, build_rescue_rtl
from repro.rtl.experiment import generate_tests, isolation_experiment

_CACHE = f"isolation_{N_FAULTS}"


def _compute():
    cached = cache_json(_CACHE)
    if cached is not None:
        return cached
    out = {}
    for name, builder in (("rescue", build_rescue_rtl),
                          ("base", build_baseline_rtl)):
        t0 = time.time()
        setup = generate_tests(builder(RtlParams()), seed=0)
        stats = isolation_experiment(setup, n_faults=N_FAULTS, seed=1)
        out[name] = {
            "inserted": stats.inserted,
            "detected": stats.detected,
            "correct": stats.correct,
            "ambiguous": stats.ambiguous,
            "wrong": stats.wrong,
            "correct_rate": round(stats.correct_rate, 4),
            "by_block": stats.by_block,
            "seconds": round(time.time() - t0, 1),
        }
    save_json(_CACHE, out)
    return out


def test_isolation_experiment(benchmark):
    data = _compute()
    rows = []
    for name in ("base", "rescue"):
        d = data[name]
        rows.append((
            name, d["inserted"], d["detected"], d["correct"],
            d["ambiguous"], d["wrong"], f"{100 * d['correct_rate']:.1f}%",
        ))
    print_table(
        f"Section 6.1: isolation of {N_FAULTS} random faults "
        "(paper: 6000/6000 correct on Rescue)",
        ("design", "inserted", "detected", "correct", "ambiguous",
         "wrong", "correct rate"),
        rows,
    )
    per_block = sorted(data["rescue"]["by_block"].items())
    print_table(
        "Rescue: correctly isolated faults by map-out block",
        ("block", "faults"),
        per_block,
    )

    # The paper's claim: every detected fault isolates correctly on
    # Rescue, while the baseline misattributes a substantial fraction.
    assert data["rescue"]["correct_rate"] == 1.0
    assert data["base"]["correct_rate"] < 0.9

    # Benchmark one fault's isolation lookup (a single table access plus
    # the fault simulation that produces the failing bits).
    model = build_rescue_rtl(RtlParams.tiny())
    setup = generate_tests(model, seed=0, max_deterministic=0)

    from repro.atpg.faults import full_fault_universe

    fault = full_fault_universe(model.netlist)[20]

    def isolate_one():
        bits, pos = setup.tester.failing_bits(fault)
        return setup.table.isolate(bits, pos)

    benchmark(isolate_one)
