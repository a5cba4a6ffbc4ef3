"""Figure 8 — IPC degradation of the ICI transformations.

Runs every SPEC2000 benchmark on the baseline and Rescue machines (same
trace) and prints the per-benchmark IPC pair plus the degradation.  The
paper reports 0% (swim) to 10% (bzip) with a 4% average; the shape to
check is *which* benchmarks degrade: issue-pressure integer codes at the
top, memory-bound and FP loop codes near zero.
"""

from conftest import BENCH_INSTRUCTIONS, BENCH_WARMUP, print_table

from repro.cpu import Core, MachineConfig
from repro.workloads import PROFILES, generate_trace


def _ipc_pair(prof, cache):
    n, warmup = BENCH_INSTRUCTIONS, BENCH_WARMUP
    base = cache.get_or_run(
        prof.name, MachineConfig(rescue=False), n_instructions=n,
        warmup=warmup,
    )
    resc = cache.get_or_run(
        prof.name, MachineConfig(rescue=True), n_instructions=n,
        warmup=warmup,
    )
    return base, resc


def test_figure8_ipc_degradation(benchmark, ipc_cache):
    rows = []
    deltas = []
    for prof in PROFILES:
        base, resc = _ipc_pair(prof, ipc_cache)
        delta = 100 * (1 - resc / base) if base else 0.0
        deltas.append(delta)
        rows.append((
            prof.name, f"{base:.2f}", f"{resc:.2f}", f"{delta:+.1f}%",
        ))
    avg = sum(deltas) / len(deltas)
    rows.append(("average", "", "", f"{avg:+.1f}%"))
    print_table(
        "Figure 8: IPC, baseline vs Rescue (paper avg: 4%, range 0-10%)",
        ("benchmark", "baseline IPC", "Rescue IPC", "degradation"),
        rows,
    )

    # Shape assertions: degradation is small on average, integer codes
    # dominate the top, and the memory-bound benchmarks sit near zero.
    assert -1.0 < avg < 8.0
    by_name = {r[0]: d for r, d in zip(rows, deltas)}
    assert by_name["mcf"] < 1.5
    assert by_name["art"] < 1.5
    int_avg = sum(
        d for p, d in zip(PROFILES, deltas) if not p.is_fp
    ) / sum(1 for p in PROFILES if not p.is_fp)
    fp_avg = sum(
        d for p, d in zip(PROFILES, deltas) if p.is_fp
    ) / sum(1 for p in PROFILES if p.is_fp)
    assert int_avg > fp_avg

    # Benchmark the simulator itself on one representative workload.
    trace = generate_trace(PROFILES[0], 4_000)
    benchmark(
        lambda: Core(MachineConfig(rescue=True), iter(trace)).run(4_000)
    )


def _run_one(name, n):
    from repro.workloads import profile

    trace = generate_trace(profile(name), n + BENCH_WARMUP)
    return Core(MachineConfig(), iter(trace)).run(n, warmup=BENCH_WARMUP)
