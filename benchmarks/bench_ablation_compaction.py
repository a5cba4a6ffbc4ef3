"""Ablation — compaction buffer size (DESIGN.md §5.1).

The paper fixes the temporary compaction latch at four entries per queue.
This sweep varies it (2/4/8) on the issue-pressure benchmarks to show the
choice is not critical — the buffer only bounds how fast the old half
refills, which back-to-back selection in the new half mostly hides.
"""

from conftest import BENCH_INSTRUCTIONS, BENCH_WARMUP, print_table

from repro.cpu import MachineConfig

BENCHES = ("gzip", "crafty", "eon", "bzip2")
SIZES = (2, 4, 8)


def test_compaction_buffer_sweep(benchmark, ipc_cache):
    rows = []
    spreads = []
    for name in BENCHES:
        ipcs = []
        for size in SIZES:
            cfg = MachineConfig(rescue=True, compaction_buffer=size)
            ipcs.append(
                ipc_cache.get_or_run(
                    name, cfg, n_instructions=BENCH_INSTRUCTIONS,
                    warmup=BENCH_WARMUP,
                )
            )
        spread = 100 * (max(ipcs) - min(ipcs)) / max(ipcs)
        spreads.append(spread)
        rows.append(
            (name, *(f"{v:.3f}" for v in ipcs), f"{spread:.1f}%")
        )
    print_table(
        "Ablation: compaction buffer size (IPC)",
        ("benchmark", *(f"{s} entries" for s in SIZES), "spread"),
        rows,
    )
    # The paper's 4-entry choice should be robust: small spread.
    assert max(spreads) < 10.0

    cfg = MachineConfig(rescue=True, compaction_buffer=4)
    benchmark(
        lambda: ipc_cache.get_or_run(
            "gzip", cfg, n_instructions=BENCH_INSTRUCTIONS,
            warmup=BENCH_WARMUP,
        )
    )
