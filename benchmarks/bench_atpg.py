"""ATPG equivalence gate — compiled PODEM against the reference oracle.

Checks the program's :class:`repro.atpg.podem_compiled.CompiledPodem`
(undo trail, SCOAP guidance, X-path pruning) against the reference
:class:`tests.oracles.Podem` (full 3-valued resimulation per decision),
kept as a test oracle, and the ATPG flow
(:func:`repro.atpg.flow.run_atpg`: bit-packed fault simulation, compiled
PODEM, batched fault dropping) against the reference verdicts.

Command line:

```
python benchmarks/bench_atpg.py --check   # fast equivalence gate (CI)
```

``--check`` asserts reference/compiled verdict agreement on random
circuits and a sampled slice of the Table-3 Rescue workload, that
`run_atpg` statistics follow from the reference verdicts, plus
batched-vs-per-pattern dropping equivalence, and exits nonzero on any
mismatch.  PODEM's speed is measured by ``benchmarks/perf`` (the
``atpg.*`` layers of ``gate-tiny``); EXPERIMENTS.md keeps the one-off
speedup over the reference as a dated figure.
"""

from __future__ import annotations

import argparse
import random as pyrandom
import sys
from pathlib import Path

import numpy as np

_REPO_ROOT = Path(__file__).resolve().parents[1]
if "repro" not in sys.modules:  # script mode: make src/ importable
    sys.path.insert(0, str(_REPO_ROOT / "src"))
if str(_REPO_ROOT) not in sys.path:  # the reference PODEM is in tests/
    sys.path.insert(0, str(_REPO_ROOT))

SEED = 0


def _build_netlist():
    from repro.rtl import RtlParams, build_rescue_rtl
    from repro.scan import insert_scan

    model = build_rescue_rtl(RtlParams.tiny())
    return insert_scan(model.netlist).netlist


def _fault_list(netlist):
    from repro.atpg.collapse import collapse_faults
    from repro.atpg.faults import full_fault_universe

    return collapse_faults(netlist, full_fault_universe(netlist))


def check(seed: int = SEED) -> None:
    """Pre-merge gate: reference/compiled PODEM equivalence, fast.

    1. Random circuits: per-fault verdicts agree at a no-abort budget,
       every compiled pattern detects its target, and `run_atpg`
       statistics equal the counts of the reference verdicts.
    2. Batched (`drop_batch=64`) vs per-pattern (`drop_batch=1`)
       dropping covers the same fault set.
    3. Rescue workload slice: standalone verdicts agree on a fault
       sample wherever neither engine aborts (an abort makes no claim).
    """
    from repro.atpg.collapse import collapse_faults
    from repro.atpg.faults import full_fault_universe
    from repro.atpg.faultsim import grade_faults
    from repro.atpg.flow import run_atpg
    from repro.atpg.podem_compiled import CompiledPodem
    from repro.netlist import GateType, Netlist
    from repro.netlist.compiled import PackedWordSimulator
    from tests.oracles import Podem

    kinds = [GateType.AND, GateType.OR, GateType.XOR, GateType.NAND,
             GateType.NOR, GateType.NOT, GateType.MUX2]

    def circuit(cseed, n_inputs=5, n_gates=22):
        rng = pyrandom.Random(cseed)
        nl = Netlist(f"bench{cseed}")
        nets = [nl.add_input(f"i{k}") for k in range(n_inputs)]
        for _ in range(n_gates):
            kind = rng.choice(kinds)
            n_pins = {GateType.NOT: 1, GateType.MUX2: 3}.get(kind, 2)
            nets.append(
                nl.add_gate(kind, [rng.choice(nets) for _ in range(n_pins)])
            )
        nl.mark_output(nets[-1])
        return nl

    n_verdicts = 0
    for cseed in range(8):
        nl = circuit(cseed)
        sim = PackedWordSimulator(nl)
        legacy = Podem(nl, backtrack_limit=5_000)
        compiled = CompiledPodem(nl, backtrack_limit=5_000)
        targets = collapse_faults(nl, full_fault_universe(nl))
        n_untestable = 0
        for fault in targets:
            r_l = legacy.generate(fault)
            r_c = compiled.generate(fault)
            assert r_l.status == r_c.status, (
                f"seed {cseed} {fault.describe()}: "
                f"legacy={r_l.status} compiled={r_c.status}"
            )
            n_verdicts += 1
            n_untestable += r_l.status == "untestable"
            if r_c.status == "detected":
                row = np.zeros((1, sim.n_sources), dtype=bool)
                for net, val in r_c.pattern.items():
                    row[0, sim.source_col[net]] = bool(val)
                assert sim.detections(sim.good_values(row), [fault]) == [1], (
                    f"seed {cseed}: compiled pattern misses "
                    f"{fault.describe()}"
                )
        res = run_atpg(nl, seed=3, backtrack_limit=5_000)
        assert res.n_aborted == 0
        assert res.n_untestable == n_untestable, (
            f"seed {cseed}: flow untestable count differs from reference"
        )
        assert res.n_detected == len(targets) - n_untestable
        res_b = run_atpg(nl, seed=3, backtrack_limit=5_000, drop_batch=64)
        res_p = run_atpg(nl, seed=3, backtrack_limit=5_000, drop_batch=1)
        g_b = grade_faults(nl, targets, res_b.patterns)
        g_p = grade_faults(nl, targets, res_p.patterns)
        assert set(g_b.detected) == set(g_p.detected), (
            f"seed {cseed}: batched dropping changed the covered set"
        )

    netlist = _build_netlist()
    faults = _fault_list(netlist)
    sample = faults[:: max(1, len(faults) // 40)]
    legacy = Podem(netlist, backtrack_limit=128)
    compiled = CompiledPodem(netlist, backtrack_limit=128)
    agreed = skipped = 0
    for fault in sample:
        s_l = legacy.generate(fault).status
        s_c = compiled.generate(fault).status
        if "aborted" in (s_l, s_c):
            skipped += 1  # an abort is a non-verdict, not a disagreement
            continue
        assert s_l == s_c, (
            f"Rescue {fault.describe()}: legacy={s_l} compiled={s_c}"
        )
        agreed += 1
    print(
        f"check OK: {n_verdicts} random-circuit verdicts, 8 flow stat "
        f"comparisons and batched-dropping checks, {agreed} Rescue "
        f"verdicts identical to the reference PODEM ({skipped} abort-"
        f"budget skips)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true", required=True,
                        help="run the PODEM equivalence gate")
    parser.parse_args(argv)
    check()
    return 0


# ----------------------------------------------------------------------
# pytest entry point (pre-merge gate; cheap equivalence + kernel timing)
# ----------------------------------------------------------------------
def test_atpg_engine_equivalence(benchmark):
    check()

    from repro.atpg.podem_compiled import CompiledPodem

    netlist = _build_netlist()
    faults = _fault_list(netlist)
    sample = faults[:: max(1, len(faults) // 30)]
    podem = CompiledPodem(netlist, backtrack_limit=64)
    benchmark(lambda: [podem.generate(f) for f in sample])


if __name__ == "__main__":
    sys.exit(main())
