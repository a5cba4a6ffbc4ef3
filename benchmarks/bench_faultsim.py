"""Fault-simulation engine equivalence gate.

Grades the collapsed fault universe of the tiny Rescue core netlist
against a random pattern set with two engines and asserts they agree:

- ``word``   — :class:`repro.netlist.compiled.PackedWordSimulator`
  (every net's patterns packed into one Python int, one gate evaluator
  for good and event-driven re-simulation, batch detection by critical
  path tracing over fanout-free regions), the program's only engine,
- ``legacy`` — :class:`tests.oracles.PackedSimulator` (dict of per-net
  numpy bool arrays), the reference kept as a test oracle.

It also holds the batch detector, ``PackedWordSimulator.detections``,
equal to the per-fault cone-walk oracle
(:func:`tests.oracles.fault_mismatch`) on every collapsed fault.

Command line:

```
python benchmarks/bench_faultsim.py --check   # <30 s equivalence gate
```

``--check`` is the pre-merge gate (see benchmarks/README.md): it
asserts engine equivalence (detection verdicts + first-detection
indices + every fault's packed detection int + captured responses) on
a small netlist and exits nonzero on any mismatch.  The engine's speed
is measured by ``benchmarks/perf`` (the ``gate-tiny`` workload);
EXPERIMENTS.md keeps the one-off speedup over the reference as a dated
figure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

_REPO_ROOT = Path(__file__).resolve().parents[1]
if "repro" not in sys.modules:  # script mode: make src/ importable
    sys.path.insert(0, str(_REPO_ROOT / "src"))
if str(_REPO_ROOT) not in sys.path:  # the reference engine is in tests/
    sys.path.insert(0, str(_REPO_ROOT))


def _build_netlist(full: bool):
    from repro.rtl import RtlParams, build_rescue_rtl
    from repro.scan import insert_scan

    params = RtlParams() if full else RtlParams.tiny()
    model = build_rescue_rtl(params)
    insert_scan(model.netlist)
    return model.netlist


def _fault_list(netlist):
    from repro.atpg.collapse import collapse_faults
    from repro.atpg.faults import full_fault_universe

    return collapse_faults(netlist, full_fault_universe(netlist))


def _assert_equivalent(grade_a, grade_b, label: str) -> None:
    if grade_a.detected != grade_b.detected:
        raise AssertionError(f"{label}: detection maps differ")
    if grade_a.undetected != grade_b.undetected:
        raise AssertionError(f"{label}: undetected lists differ")


def check(seed: int = 0) -> None:
    """Pre-merge smoke gate: engine equivalence on a small netlist.

    Covers grading (verdicts + first-detection indices), each collapsed
    fault's packed detection int against the per-fault oracle,
    per-pattern detection vectors on a sample, and faulty captured
    responses, at a pattern count that straddles the word boundary.
    Runs in well under 30 s.
    """
    from repro.atpg.compaction import detection_matrix
    from repro.atpg.faultsim import grade_faults
    from repro.netlist.compiled import PackedWordSimulator
    from tests import oracles

    netlist = _build_netlist(full=False)
    faults = _fault_list(netlist)
    rng = np.random.default_rng(seed)
    word = PackedWordSimulator(netlist)
    legacy = oracles.PackedSimulator(netlist)
    patterns = rng.integers(0, 2, size=(96, word.n_sources)).astype(bool)

    g_word = grade_faults(netlist, faults, patterns, sim=word)
    g_legacy = oracles.grade_faults(netlist, faults, patterns, sim=legacy)
    _assert_equivalent(g_legacy, g_word, "check")

    wv = word.good_values(patterns)
    for fault, hits in zip(faults, word.detections(wv, faults)):
        assert hits == oracles.fault_mismatch(word, wv, fault), (
            f"detections int differs for {fault.describe()}"
        )

    sample = faults[:: max(1, len(faults) // 200)]
    m_word = detection_matrix(netlist, sample, patterns, sim=word)
    m_legacy = oracles.detection_matrix(netlist, sample, patterns,
                                        sim=legacy)
    for fault in sample:
        assert (m_word[fault] == m_legacy[fault]).all(), (
            f"detection vector differs for {fault.describe()}"
        )
    lv = legacy.good_values(patterns)
    for fault in sample[:60]:
        dl = legacy.faulty_values(lv, fault)
        dw = word.faulty_values(wv, fault)
        po_l, st_l = legacy.capture(lv, fault=fault, delta=dl)
        po_w, st_w = word.capture(wv, fault=fault, delta=dw)
        assert (po_l == po_w).all() and (st_l == st_w).all(), (
            f"faulty capture differs for {fault.describe()}"
        )
    print(
        f"check OK: {len(faults)} faults x {patterns.shape[0]} patterns "
        f"(every detection int against the per-fault oracle), "
        f"{len(sample)} detection vectors and {min(60, len(sample))} "
        f"faulty captures bit-exact against the reference engine"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true", required=True,
                        help="run the engine equivalence gate")
    parser.parse_args(argv)
    check()
    return 0


# ----------------------------------------------------------------------
# pytest entry point (pre-merge gate; cheap equivalence + kernel timing)
# ----------------------------------------------------------------------
def test_faultsim_engine_equivalence(benchmark):
    check()

    from repro.atpg.faultsim import grade_faults
    from repro.netlist.compiled import PackedWordSimulator

    netlist = _build_netlist(full=False)
    faults = _fault_list(netlist)[:500]
    sim = PackedWordSimulator(netlist)
    rng = np.random.default_rng(0)
    patterns = rng.integers(0, 2, size=(512, sim.n_sources)).astype(bool)
    benchmark(lambda: grade_faults(netlist, faults, patterns, sim=sim))


if __name__ == "__main__":
    sys.exit(main())
