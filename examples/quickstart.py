#!/usr/bin/env python3
"""Quickstart: the Rescue pipeline end to end, in about a minute.

1. Build the ICI component graph of a conventional superscalar, apply the
   paper's transformations, and check fault isolation granularity.
2. Build the gate-level Rescue pipeline, insert scan, generate vectors,
   inject a random fault, and isolate it to its map-out block by scan-bit
   lookup alone.
3. Program the fault-map register, derive the degraded configuration, and
   compare its simulated performance with the healthy machine.

Run:  python examples/quickstart.py
"""

import random

from repro.atpg.faults import component_of_fault, full_fault_universe
from repro.core import (
    FaultMapRegister,
    build_baseline_graph,
    build_rescue_graph,
    check_granularity,
    rescue_map_out_groups,
)
from repro.cpu import Core, MachineConfig
from repro.rtl import RtlParams, build_rescue_rtl
from repro.rtl.experiment import generate_tests
from repro.workloads import generate_trace, profile
from repro.yieldmodel.configs import CoreCounts


def step1_component_graphs() -> None:
    print("=" * 64)
    print("Step 1: ICI at the component level")
    print("=" * 64)
    baseline = build_baseline_graph()
    report = check_granularity(baseline, rescue_map_out_groups())
    print(f"baseline superscalar: {report.describe()}")

    rescue, records = build_rescue_graph()
    report = check_granularity(rescue)
    print(f"after ICI transformations: {report.describe()}")
    extra_area = sum(r.extra_area for r in records)
    extra_stages = sum(rescue.extra_latency.values())
    print(f"cost: +{extra_area:.2f} relative area, "
          f"+{extra_stages} pipeline stages "
          "(2 frontend, 1 issue-to-execute)\n")


def step2_fault_isolation() -> None:
    print("=" * 64)
    print("Step 2: gate-level fault isolation by scan-bit lookup")
    print("=" * 64)
    model = build_rescue_rtl(RtlParams.tiny())
    stats = model.netlist.stats()
    print(f"Rescue netlist: {stats['gates']} gates, {stats['flops']} "
          "scan flops")
    setup = generate_tests(model, seed=0, max_deterministic=0)
    print(f"ATPG: {setup.atpg.summary()}")

    rng = random.Random(42)
    q_nets = {f.q_net for f in model.netlist.flops}
    candidates = [
        f for f in full_fault_universe(model.netlist)
        if component_of_fault(model.netlist, f)
        and not (f.is_stem and f.net in q_nets)
    ]
    shown = 0
    while shown < 5:
        fault = rng.choice(candidates)
        expected = component_of_fault(model.netlist, fault).split("/")[0]
        bits, pos = setup.tester.failing_bits(fault)
        if not bits and not pos:
            continue  # this fault needs the deterministic vectors
        result = setup.table.isolate(bits, pos)
        verdict = "OK" if result.isolated and result.block == expected else "??"
        print(f"  fault {fault.describe():18s} -> failing bits "
              f"{bits[:4]}{'...' if len(bits) > 4 else ''} -> block "
              f"{sorted(result.blocks)} (expected {expected}) {verdict}")
        shown += 1
    print()


def step3_degraded_operation() -> None:
    print("=" * 64)
    print("Step 3: map out the faulty block and keep running")
    print("=" * 64)
    reg = FaultMapRegister(width=4)
    reg.mark_faulty("backend2")
    reg.mark_faulty("backend3")
    reg.mark_faulty("iq_new")
    cfg_counts = reg.degraded_config()
    print(f"fault map: {reg.to_bits()} -> {cfg_counts.describe()}")

    trace = generate_trace(profile("gzip"), 20_000)
    healthy = Core(MachineConfig(rescue=True), iter(trace)).run(
        12_000, warmup=8_000
    )
    degraded_cfg = MachineConfig(
        rescue=True,
        counts=CoreCounts(int_backend=1, fp_backend=1, iq_int=1),
    )
    degraded = Core(degraded_cfg, iter(trace)).run(12_000, warmup=8_000)
    print(f"healthy Rescue core:  IPC = {healthy.ipc:.2f}")
    print(f"degraded (half backend, half int IQ): IPC = {degraded.ipc:.2f}")
    print(f"-> the core still delivers "
          f"{100 * degraded.ipc / healthy.ipc:.0f}% of its throughput; "
          "core sparing would have discarded it entirely.")


if __name__ == "__main__":
    step1_component_graphs()
    step2_fault_isolation()
    step3_degraded_operation()
