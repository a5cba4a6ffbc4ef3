"""Ablation — decomposing Rescue's IPC cost (DESIGN.md §5.3).

Separates the two sources of the Figure 8 degradation:

- the +2-cycle branch misprediction penalty from the routing/rename shift
  stages (isolated by running the *baseline* queue with the longer
  penalty), and
- the ICI issue-queue policy — segmented compaction, per-half selection
  and replay, the extra issue-to-free cycle (isolated by running Rescue
  with the baseline's penalty).
"""

import dataclasses

from conftest import BENCH_INSTRUCTIONS, BENCH_WARMUP, print_table

from repro.cpu import CoreParams, MachineConfig

BENCHES = ("gzip", "gcc", "crafty", "bzip2", "twolf", "swim", "mgrid")


def test_penalty_decomposition(benchmark, ipc_cache):
    base_core = CoreParams()
    long_core = dataclasses.replace(base_core, mispredict_penalty=17)
    short_core = dataclasses.replace(base_core, mispredict_penalty=13)

    rows = []
    for name in BENCHES:
        base = ipc_cache.get_or_run(
            name, MachineConfig(core=base_core, rescue=False),
            n_instructions=BENCH_INSTRUCTIONS,
            warmup=BENCH_WARMUP,
        )
        # Baseline queue, Rescue's frontend penalty (15 + 2).
        mispredict_only = ipc_cache.get_or_run(
            name, MachineConfig(core=long_core, rescue=False),
            n_instructions=BENCH_INSTRUCTIONS,
            warmup=BENCH_WARMUP,
        )
        # Rescue queue, baseline's frontend penalty (13 + 2 = 15).
        policy_only = ipc_cache.get_or_run(
            name, MachineConfig(core=short_core, rescue=True),
            n_instructions=BENCH_INSTRUCTIONS,
            warmup=BENCH_WARMUP,
        )
        full = ipc_cache.get_or_run(
            name, MachineConfig(core=base_core, rescue=True),
            n_instructions=BENCH_INSTRUCTIONS,
            warmup=BENCH_WARMUP,
        )

        def pct(x):
            return 100 * (1 - x / base) if base else 0.0

        rows.append((
            name, f"{base:.3f}", f"{pct(mispredict_only):+.1f}%",
            f"{pct(policy_only):+.1f}%", f"{pct(full):+.1f}%",
        ))
    print_table(
        "Ablation: Rescue IPC cost split "
        "(+2 mispredict vs ICI issue policy vs both)",
        ("benchmark", "base IPC", "mispredict only", "policy only", "full"),
        rows,
    )

    benchmark(
        lambda: ipc_cache.get_or_run(
            "gzip", MachineConfig(core=short_core, rescue=True),
            n_instructions=BENCH_INSTRUCTIONS,
            warmup=BENCH_WARMUP,
        )
    )
