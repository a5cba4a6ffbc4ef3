#!/usr/bin/env python3
"""Diagnosis without ICI vs isolation with ICI, side by side.

Injects the same faults into the conventional and the Rescue pipeline and
locates them two ways:

- classical cone-intersection diagnosis (what a failure analyst runs when
  scan bits don't identify a block) — returns a candidate *set* of gates;
- ICI scan-bit lookup — returns one block, by one table access.

The paper's Section 2 argues diagnosis is too slow for production fault
isolation; this demo shows the size of the haystack diagnosis leaves
behind on a non-ICI design.

Run:  python examples/diagnosis_vs_ici.py [n_faults]
"""

import random
import sys

from repro.atpg.diagnosis import ConeDiagnoser
from repro.atpg.faults import component_of_fault, full_fault_universe
from repro.rtl import RtlParams, build_baseline_rtl, build_rescue_rtl
from repro.rtl.experiment import generate_tests


def run_design(name, builder, n_faults, seed=11):
    print(f"--- {name} ---")
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
    shown = 0
    gate_sizes = []
    while shown < n_faults:
        fault = rng.choice(faults)
        bits, pos = setup.tester.failing_bits(fault)
        if not bits and not pos:
            continue
        shown += 1
        failing_flops = [setup.chain.flop_at(b) for b in bits]
        diag = diagnoser.diagnose(failing_flops, pos)
        iso = setup.table.isolate(bits, pos)
        gate_sizes.append(len(diag.candidate_gates))
        ici = (
            f"block '{iso.block}'" if iso.isolated
            else f"AMBIGUOUS {sorted(iso.blocks)}"
        )
        print(f"  {fault.describe():18s}  diagnosis: "
              f"{len(diag.candidate_gates):4d} candidate gates in "
              f"{len(diag.candidate_components)} components | ICI: {ici}")
    avg = sum(gate_sizes) / len(gate_sizes)
    print(f"  mean candidate set: {avg:.0f} gates\n")
    return avg


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    base_avg = run_design("conventional pipeline", build_baseline_rtl, n)
    resc_avg = run_design("Rescue (ICI) pipeline", build_rescue_rtl, n)
    print("On the ICI design every failure resolves to one disableable")
    print("block by a table lookup; the conventional design leaves a")
    print(f"~{base_avg:.0f}-gate haystack for physical failure analysis.")


if __name__ == "__main__":
    main()
