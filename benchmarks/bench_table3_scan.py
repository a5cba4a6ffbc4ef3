"""Table 3 — scan chain data: faults, cells, vectors, test cycles.

Builds the gate-level baseline and Rescue pipelines, runs the full ATPG
flow on both (bit-packed ``"word"`` fault-sim backend), and prints the
paper's Table 3 rows plus the headline ratio (Rescue's fault-isolation
time over the baseline's fault-detection time; the paper reports +13%).

The ATPG runs take a couple of minutes the first time; results are
cached.
"""

import time

from conftest import cache_json, print_table, save_json

from repro.rtl import RtlParams, build_baseline_rtl, build_rescue_rtl
from repro.rtl.experiment import generate_tests, scan_chain_table

_CACHE = "table3"


def _compute():
    cached = cache_json(_CACHE)
    if cached is not None:
        return cached
    out = {}
    for name, builder in (("base", build_baseline_rtl),
                          ("rescue", build_rescue_rtl)):
        t0 = time.time()
        setup = generate_tests(builder(RtlParams()), seed=0)
        row = scan_chain_table(setup)
        row["atpg_seconds"] = round(time.time() - t0, 1)
        out[name] = row
    save_json(_CACHE, out)
    return out


def test_table3_scan_chain_data(benchmark):
    data = _compute()
    headers = ("", "Base", "Rescue")
    keys = ("faults", "collapsed_faults", "cells", "vectors", "cycles",
            "coverage_pct")
    rows = [(k, data["base"][k], data["rescue"][k]) for k in keys]
    ratio = data["rescue"]["cycles"] / data["base"]["cycles"]
    rows.append(("cycles ratio (paper: 1.13)", "1.00", f"{ratio:.2f}"))
    print_table("Table 3: scan chain data", headers, rows)

    # Shape checks against the paper's observations.
    assert data["rescue"]["cells"] > data["base"]["cells"], (
        "cycle splitting must add pipeline registers"
    )
    assert data["rescue"]["coverage_pct"] > 95
    assert data["base"]["coverage_pct"] > 95

    # Benchmark: application of one 64-vector batch (one 64-bit int per
    # net) through the bit-packed simulator — the tester's
    # inner loop.  ``benchmarks/bench_faultsim.py`` compares it with the
    # reference simulator.
    import numpy as np

    from repro.netlist.compiled import PackedWordSimulator

    model = build_rescue_rtl(RtlParams.tiny())
    sim = PackedWordSimulator(model.netlist)
    rng = np.random.default_rng(0)
    patterns = rng.integers(0, 2, size=(64, sim.n_sources)).astype(bool)
    benchmark(lambda: sim.good_values(patterns))
