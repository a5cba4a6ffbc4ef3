#!/usr/bin/env python3
"""Test-floor demo: one chip's journey from tester to shipping bin.

Plays the paper's deployment story for a batch of chips:

1. the tester applies the scan vectors once per chip (conventional flow);
2. chips with failing bits get those bits looked up in the isolation
   table — no diagnosis, one table access;
3. if every failure pins to disableable blocks, the fault-map register is
   blown and the chip ships degraded; otherwise (chipkill hit or ambiguous)
   the chip is scrapped;
4. the bin report shows what Rescue salvages that core sparing would not.

Faults per chip are drawn from the clustered (negative binomial) model at
a scaled technology node, so the batch statistics echo Figure 9's regime.

Run:  python examples/test_floor_demo.py [n_chips]
"""

import random
import sys

from repro.atpg.faults import component_of_fault, full_fault_universe
from repro.core import FaultMapRegister
from repro.rtl import RtlParams, build_rescue_rtl
from repro.rtl.experiment import generate_tests

#: Map the RTL model's blocks onto fault-map register fields (the RTL
#: model is 2-wide: one frontend/backend way per register way).
BLOCK_TO_REGISTER = {
    "frontend0": "frontend0",
    "frontend1": "frontend1",
    "backend0": "backend0",
    "backend1": "backend1",
    "iq_old": "iq_old",
    "iq_new": "iq_new",
    "lsq0": "lsq0",
    "lsq1": "lsq1",
}


def main() -> None:
    n_chips = int(sys.argv[1]) if len(sys.argv) > 1 else 40
    rng = random.Random(2025)

    print("Preparing design: scan insertion + ATPG (one-time cost)...")
    model = build_rescue_rtl(RtlParams.tiny())
    setup = generate_tests(model, seed=0, max_deterministic=0)
    print(f"  {setup.atpg.summary()}")
    print(f"  scan chain: {len(setup.chain)} cells, "
          f"{setup.tester.test_cycles(setup.atpg.n_vectors)} tester cycles "
          "per chip\n")

    q_nets = {f.q_net for f in model.netlist.flops}
    universe = [
        f for f in full_fault_universe(model.netlist)
        if not (f.is_stem and f.net in q_nets)
    ]

    bins = {"perfect": 0, "degraded": 0, "scrap": 0}
    salvaged_blocks = []
    mean_faults = 0.9  # a far-node regime: most chips carry a fault

    for chip in range(n_chips):
        # Clustered fault count: gamma-mixed Poisson (alpha = 2).
        lam = rng.gammavariate(2.0, mean_faults / 2.0)
        n_faults = min(len(universe), _poisson(rng, lam))
        faults = rng.sample(universe, n_faults) if n_faults else []
        if not faults:
            bins["perfect"] += 1
            continue
        reg = FaultMapRegister(width=2)
        scrap = False
        hit_blocks = set()
        for fault in faults:
            bits, pos = setup.tester.failing_bits(fault)
            if not bits and not pos:
                continue  # escaped: not detected by this vector set
            result = setup.table.isolate(bits, pos)
            blocks = result.blocks
            for block in blocks:
                field = BLOCK_TO_REGISTER.get(block)
                if field is None:  # chipkill or table block
                    scrap = True
                    break
                reg.mark_faulty(field)
                hit_blocks.add(block)
            if scrap:
                break
        cfg = reg.degraded_config()
        if scrap or not cfg.ok:
            bins["scrap"] += 1
        elif cfg.is_full:
            bins["perfect"] += 1  # faults escaped or masked
        else:
            bins["degraded"] += 1
            salvaged_blocks.append(sorted(hit_blocks))

    print(f"Batch of {n_chips} chips at a high-fault-density node "
          f"(mean {mean_faults} faults/chip):")
    for name in ("perfect", "degraded", "scrap"):
        print(f"  {name:9s} {bins[name]:3d}  "
              f"{'#' * bins[name]}")
    good = bins["perfect"] + bins["degraded"]
    print(f"\nRescue ships {good}/{n_chips} chips; core sparing at this "
          f"scale (single-core dies) would ship only {bins['perfect']}.")
    if salvaged_blocks:
        example = ", ".join(salvaged_blocks[0])
        print(f"Example salvage: disabled blocks [{example}] -> core runs "
              "degraded instead of being discarded.")


def _poisson(rng: random.Random, lam: float) -> int:
    """Knuth's algorithm; fine for the small means used here."""
    import math

    level = math.exp(-lam)
    k, p = 0, 1.0
    while True:
        p *= rng.random()
        if p <= level:
            return k
        k += 1


if __name__ == "__main__":
    main()
