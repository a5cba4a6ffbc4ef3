"""Diagnosis comparison — what ICI's single lookup replaces (Section 2).

For faults detected in the *baseline* (non-ICI) pipeline, classical
cone-intersection diagnosis produces a candidate set of gates spanning
several components; the same failures in the Rescue pipeline resolve to
one map-out block by a table lookup.  This benchmark measures the
candidate-set sizes on both designs.

Per-fault failing bits come from :meth:`ScanTester.failing_bits` on the
bit-packed simulator, so the per-design loop over ``N_FAULTS`` random
faults is fault-simulation-bound no longer — cone intersection itself
dominates.
"""

import random

from conftest import cache_json, print_table, save_json

from repro.atpg.diagnosis import ConeDiagnoser
from repro.atpg.faults import component_of_fault, full_fault_universe
from repro.rtl import RtlParams, build_baseline_rtl, build_rescue_rtl
from repro.rtl.experiment import generate_tests

_CACHE = "diagnosis"
N_FAULTS = 120


def _diagnose_design(builder, seed: int):
    model = builder(RtlParams.tiny())
    setup = generate_tests(model, seed=0, max_deterministic=0)
    diagnoser = ConeDiagnoser(model.netlist)
    rng = random.Random(seed)
    q_nets = {f.q_net for f in model.netlist.flops}
    faults = [
        f for f in full_fault_universe(model.netlist)
        if component_of_fault(model.netlist, f)
        and not (f.is_stem and f.net in q_nets)
    ]
    gate_counts = []
    comp_counts = []
    resolved = 0
    tried = 0
    while tried < N_FAULTS:
        fault = rng.choice(faults)
        bits, pos = setup.tester.failing_bits(setup.atpg.patterns, fault)
        if not bits and not pos:
            continue
        tried += 1
        failing_flops = [setup.chain.flop_at(b) for b in bits]
        result = diagnoser.diagnose(failing_flops, pos)
        gate_counts.append(len(result.candidate_gates))
        comp_counts.append(len(result.candidate_components))
        resolved += int(result.resolved)
    return {
        "mean_gates": sum(gate_counts) / len(gate_counts),
        "max_gates": max(gate_counts),
        "mean_components": sum(comp_counts) / len(comp_counts),
        "resolved_pct": 100 * resolved / tried,
    }


def _compute():
    cached = cache_json(_CACHE)
    if cached is not None:
        return cached
    out = {
        "base": _diagnose_design(build_baseline_rtl, seed=5),
        "rescue": _diagnose_design(build_rescue_rtl, seed=5),
    }
    save_json(_CACHE, out)
    return out


def test_diagnosis_vs_ici(benchmark):
    data = _compute()
    rows = [
        (
            name,
            f"{d['mean_gates']:.0f}",
            d["max_gates"],
            f"{d['mean_components']:.2f}",
            f"{d['resolved_pct']:.0f}%",
        )
        for name, d in data.items()
    ]
    print_table(
        "Cone diagnosis: candidate sets per detected fault "
        "(ICI needs one table lookup instead)",
        ("design", "mean candidate gates", "max", "mean components",
         "single-component"),
        rows,
    )
    # ICI narrows diagnosis: the Rescue design resolves to a single
    # component far more often than the baseline.
    assert (
        data["rescue"]["resolved_pct"] > data["base"]["resolved_pct"]
    )

    model = build_rescue_rtl(RtlParams.tiny())
    diagnoser = ConeDiagnoser(model.netlist)
    flop = model.netlist.flops[len(model.netlist.flops) // 2]
    benchmark(lambda: diagnoser.diagnose([flop.fid]))
