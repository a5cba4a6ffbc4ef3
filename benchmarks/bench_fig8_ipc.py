"""Figure 8 — IPC degradation of the ICI transformations.

Runs every SPEC2000 benchmark on the baseline and Rescue machines (same
trace) and prints the per-benchmark IPC pair plus the degradation.  The
paper reports 0% (swim) to 10% (bzip) with a 4% average; the shape to
check is *which* benchmarks degrade: issue-pressure integer codes at the
top, memory-bound and FP loop codes near zero.

The Rescue IPC is the full configuration of the ``ipc`` campaign's sweep
(the ``figure_ipcs`` fixture), which Figure 9 reads too.
"""

from conftest import print_table

from repro.cpu import Core, MachineConfig
from repro.runner.campaigns import IpcCost
from repro.workloads import PROFILES, generate_trace
from repro.yieldmodel import FULL_CONFIG


def test_figure8_ipc_degradation(benchmark, figure_ipcs):
    cost = IpcCost()
    rows = []
    for name, (base, table) in figure_ipcs.items():
        resc = table[FULL_CONFIG.key()]
        rows.append((
            name, f"{base:.2f}", f"{resc:.2f}",
            f"{cost.add(name, base, resc):+.1f}%",
        ))
    avg = cost.mean()
    rows.append(("average", "", "", f"{avg:+.1f}%"))
    print_table(
        "Figure 8: IPC, baseline vs Rescue (paper avg: 4%, range 0-10%)",
        ("benchmark", "baseline IPC", "Rescue IPC", "degradation"),
        rows,
    )

    # Shape assertions: degradation is small on average, integer codes
    # dominate the top, and the memory-bound benchmarks sit near zero.
    assert -1.0 < avg < 8.0
    by_name = dict(cost.costs)
    assert by_name["mcf"] < 1.5
    assert by_name["art"] < 1.5
    int_avg = cost.mean(p.name for p in PROFILES if not p.is_fp)
    fp_avg = cost.mean(p.name for p in PROFILES if p.is_fp)
    assert int_avg > fp_avg

    # Benchmark the simulator itself on one representative workload.
    trace = generate_trace(PROFILES[0], 4_000)
    benchmark(
        lambda: Core(MachineConfig(rescue=True), iter(trace)).run(4_000)
    )
