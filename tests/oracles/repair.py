"""Reference repair oracle: every candidate checked from scratch.

:func:`repro.repair.oracle.verify_candidate` re-checks a patch
incrementally: the netcheck re-sweeps only what the patch changed, and
the equivalence screen extends the base build and its good values
instead of rebuilding and re-simulating the patched netlist.
:func:`scratch_verify` runs the same three stages the plain way — a full
ICI sweep, a from-scratch :class:`PackedWordSimulator` with a full good
simulation, and captured response matrices compared against the base's.
The two must give the same verdict, stage and reason on every candidate.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.atpg.podem_compiled import CompiledPodem
from repro.core.netcheck import check_netlist_ici
from repro.netlist.compiled import PackedWordSimulator
from repro.netlist.faults import StuckAt
from repro.netlist.netlist import Netlist
from repro.repair.oracle import (
    BaseState,
    OracleVerdict,
    _isolation_stage,
    random_patterns,
)


def scratch_verify(
    base: BaseState,
    patched: Netlist,
    observer: str,
    sample_gates: Sequence[int] = (),
    *,
    exempt: Sequence[str] = (),
    n_isolation_faults: int = 6,
    seed: int = 0,
) -> OracleVerdict:
    """The three-stage candidate check with nothing reused from the base
    but its report, its patterns and its captured responses."""
    report = check_netlist_ici(patched, exempt_blocks=exempt)
    after = {v.observer for v in report.violations}
    if observer in after:
        return OracleVerdict(False, "netcheck", "violation survives")
    fresh = after - {v.observer for v in base.report.violations}
    if fresh:
        return OracleVerdict(
            False, "netcheck", f"introduces {len(fresh)} new violations"
        )

    sim = PackedWordSimulator(patched)
    patterns = base.patterns
    extra = sim.n_sources - patterns.shape[1]
    if extra:
        patterns = np.concatenate(
            [patterns,
             random_patterns(patterns.shape[0], extra, seed + 1)],
            axis=1,
        )
    values = sim.good_values(patterns)
    po, state = sim.capture(values)
    base_po, base_state = base.sim.capture(base.values)
    n_flops = base_state.shape[1]
    if not np.array_equal(po, base_po):
        return OracleVerdict(False, "equivalence", "primary outputs differ")
    if not np.array_equal(state[:, :n_flops], base_state):
        return OracleVerdict(False, "equivalence", "captured state differs")
    if extra:
        podem = CompiledPodem(patched, compiled=sim.compiled)
        for flop in patched.flops[n_flops:]:
            result = podem.generate(StuckAt(net=flop.q_net, value=0))
            if result.status != "untestable":
                return OracleVerdict(
                    False, "equivalence",
                    f"new state {flop.name} observable "
                    f"(PODEM: {result.status})",
                )

    verdict = _isolation_stage(
        patched, sim, values, sample_gates,
        n_isolation_faults, seed, exempt,
    )
    return verdict if verdict is not None else OracleVerdict(True, "verified")
