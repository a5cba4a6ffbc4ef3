"""Ablation — issue-queue size sensitivity (DESIGN.md §5.4).

The Figure 9 YAT gap between Rescue and core sparing hinges on degraded
configurations keeping most of their throughput; a halved issue queue is
the most common degradation.  This sweep measures per-benchmark IPC with
a halved integer queue so the cheap-degradation claim is visible directly.
"""

from conftest import BENCH_INSTRUCTIONS, BENCH_WARMUP, print_table

from repro.cpu import MachineConfig
from repro.yieldmodel.configs import CoreCounts

BENCHES = ("gzip", "gcc", "mcf", "crafty", "bzip2", "swim", "art", "apsi")
HALF_IQ = CoreCounts(iq_int=1)


def test_iq_size_sensitivity(benchmark, ipc_cache):
    rows = []
    losses = []
    for name in BENCHES:
        full = ipc_cache.get_or_run(
            name, MachineConfig(rescue=True),
            n_instructions=BENCH_INSTRUCTIONS,
            warmup=BENCH_WARMUP,
        )
        half = ipc_cache.get_or_run(
            name, MachineConfig(rescue=True, counts=HALF_IQ),
            n_instructions=BENCH_INSTRUCTIONS,
            warmup=BENCH_WARMUP,
        )
        loss = 100 * (1 - half / full) if full else 0.0
        losses.append(loss)
        rows.append((name, f"{full:.3f}", f"{half:.3f}", f"{loss:+.1f}%"))
    avg = sum(losses) / len(losses)
    rows.append(("average", "", "", f"{avg:+.1f}%"))
    print_table(
        "Ablation: IPC with a halved integer issue queue",
        ("benchmark", "full IQ", "half IQ", "loss"),
        rows,
    )
    # Losing half the queue must cost far less than losing half the
    # machine — the asymmetry behind Rescue's YAT advantage.
    assert avg < 25.0

    benchmark(
        lambda: ipc_cache.get_or_run(
            "bzip2", MachineConfig(rescue=True, counts=HALF_IQ),
            n_instructions=BENCH_INSTRUCTIONS,
            warmup=BENCH_WARMUP,
        )
    )
