"""Decision support: Pareto-rank the 64 map-out configurations.

The paper's end question — *which defective block should a Rescue chip
map out, and at what cost?* — is answered by combining three measured
subsystems into one ranking:

- :mod:`repro.decide.vulnerability` folds per-block injection outcome
  rates (``repro.inject``) into a residual-SDC score per
  configuration, using the PR-5 headline property that faults in
  mapped-out blocks are masked;
- :mod:`repro.decide.objectives` scores every configuration on
  (YAT contribution, IPC ratio, residual SDC, area saved) from the
  yield model, the measured IPC table, and the Table-2 area model;
- :mod:`repro.decide.pareto` runs deterministic non-dominated sorting
  with crowding-distance knee selection into a stable total ranking;
- :mod:`repro.decide.campaign` shards the measurement phases through
  ``repro.runner`` as the fifth registered campaign (``decide``), so
  ``repro run decide`` and the HTTP campaign service drive it like any
  other — bit-identical for any worker count, chunking, or resume.

Modeled on DAVOS's DecisionSupport/Pareto package; ITHICA motivates
SDC vulnerability as a first-class metric next to performance.
"""

from repro.decide.campaign import (
    DecideResult,
    DecideSpec,
    decide_items,
    evaluate,
    injection_spec,
    ipc_spec,
    key_label,
    label_key,
    prepare_decide,
    run_decide,
)
from repro.decide.objectives import (
    OBJECTIVES,
    ConfigScore,
    evaluate_objectives,
    mean_ipc_table,
    yat_contributions,
)
from repro.decide.pareto import (
    ParetoRanking,
    crowding_distances,
    dominates,
    non_dominated_fronts,
    rank,
)
from repro.decide.vulnerability import (
    block_sdc_counts,
    masked_sdc,
    residual_sdc,
    sdc_contributions,
    vulnerability_table,
)

__all__ = [
    "DecideResult",
    "DecideSpec",
    "OBJECTIVES",
    "ConfigScore",
    "ParetoRanking",
    "block_sdc_counts",
    "crowding_distances",
    "decide_items",
    "dominates",
    "evaluate",
    "evaluate_objectives",
    "injection_spec",
    "ipc_spec",
    "key_label",
    "label_key",
    "masked_sdc",
    "mean_ipc_table",
    "non_dominated_fronts",
    "prepare_decide",
    "rank",
    "residual_sdc",
    "run_decide",
    "sdc_contributions",
    "vulnerability_table",
    "yat_contributions",
]
