#!/usr/bin/env python3
"""Explore yield-adjusted throughput across technology scenarios.

A fast, simulation-free tour of the Figure 9 machinery: pick a fault
density scenario and a core growth rate, and see how relative YAT of
no-redundancy / core-sparing / Rescue chips evolves with scaling, as
ASCII bars.  Uses an analytic IPC-penalty model so it runs in seconds;
the full measured version is ``benchmarks/bench_fig9_yat.py``.

Run:  python examples/yield_explorer.py [growth%] [stagnation-node]
e.g.  python examples/yield_explorer.py 50 90
"""

import sys

from repro.runner.campaigns import analytic_penalty_table
from repro.yieldmodel.yat import yat_grid

NODES = (90, 65, 45, 32, 22, 18)


def bar(value: float, scale: int = 48) -> str:
    return "#" * max(0, round(value * scale))


def main() -> None:
    growth = (int(sys.argv[1]) if len(sys.argv) > 1 else 30) / 100
    stagnation = int(sys.argv[2]) if len(sys.argv) > 2 else 90
    # Representative degraded-IPC penalties per lost group, close to the
    # simulator's single-degradation ratios (~2.4% ICI cost at full).
    grid = yat_grid(
        {"analytic": (2.05, analytic_penalty_table(2.0))},
        (stagnation,), (growth,), NODES,
    )
    print(f"Core growth {growth:.0%}/generation, PWP stagnating at "
          f"{stagnation}nm  (relative YAT, 1.0 = every chip perfect)\n")
    for node in NODES:
        r = grid[(stagnation, growth, node)]
        print(f"{node:>3}nm  ({r.cores:>2} cores/chip)   "
              f"Rescue/CS {100 * r.rescue_over_cs:+5.1f}%")
        print(f"   none   {r.no_redundancy:5.3f} {bar(r.no_redundancy)}")
        print(f"   CS     {r.core_sparing:5.3f} {bar(r.core_sparing)}")
        print(f"   Rescue {r.rescue:5.3f} {bar(r.rescue)}")
    print("\nTakeaways (Section 6.3): the no-redundancy chip collapses as "
          "density grows;\ncore sparing recovers part; Rescue's gain over "
          "CS widens with scaling and growth.")


if __name__ == "__main__":
    main()
