"""Ablation — replay policy (DESIGN.md §5.2).

The paper replays *all* instructions of the half that selected fewer,
"for simplicity".  The 'trim' comparator drops only the youngest excess
selections — an oracle that would require exactly the intra-cycle
cross-half communication ICI forbids.  The gap between the two bounds what
the simple policy costs.
"""

from conftest import BENCH_INSTRUCTIONS, BENCH_WARMUP, print_table

from repro.cpu import MachineConfig

BENCHES = ("gzip", "crafty", "eon", "bzip2", "vortex")


def test_replay_policy_ablation(benchmark, ipc_cache):
    rows = []
    costs = []
    for name in BENCHES:
        paper = ipc_cache.get_or_run(
            name, MachineConfig(rescue=True, replay_policy="paper"),
            n_instructions=BENCH_INSTRUCTIONS,
            warmup=BENCH_WARMUP,
        )
        trim = ipc_cache.get_or_run(
            name, MachineConfig(rescue=True, replay_policy="trim"),
            n_instructions=BENCH_INSTRUCTIONS,
            warmup=BENCH_WARMUP,
        )
        cost = 100 * (1 - paper / trim) if trim else 0.0
        costs.append(cost)
        rows.append((name, f"{paper:.3f}", f"{trim:.3f}", f"{cost:+.1f}%"))
    print_table(
        "Ablation: replay-whole-half (paper) vs trim-youngest (oracle)",
        ("benchmark", "paper IPC", "oracle IPC", "policy cost"),
        rows,
    )
    # The simple policy must not be disastrous — the paper relies on
    # replays being rare.
    assert max(costs) < 8.0

    benchmark(
        lambda: ipc_cache.get_or_run(
            "eon", MachineConfig(rescue=True, replay_policy="trim"),
            n_instructions=BENCH_INSTRUCTIONS,
            warmup=BENCH_WARMUP,
        )
    )
