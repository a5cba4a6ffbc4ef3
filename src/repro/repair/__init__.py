"""``repro.repair`` — ICI auto-repair: from lint report to verified patch.

The subsystem closes the loop the lint opened: given a
:func:`~repro.core.netcheck.check_netlist_ici` violation report, it
searches candidate netlist patches (:mod:`repro.repair.candidates`:
relabel / cone redrive / latch staging), verifies every candidate with
a three-stage check oracle (:mod:`repro.repair.oracle`: netcheck,
bit-exact packed equivalence screen, stuck-at isolation sample), and
emits the area-minimal verified plan through the sharded ``repair``
campaign (:mod:`repro.repair.campaign`), the sixth entry in the runner
registry.
"""

from repro.repair.campaign import (
    REPAIR_MODELS,
    RepairAction,
    RepairResult,
    RepairSpec,
    apply_plan,
    build_model,
    choose_actions,
    patch_model,
    prepare_repair,
    repair_items,
    run_repair,
)
from repro.repair.candidates import (
    CANDIDATE_KINDS,
    NotApplicable,
    PatchInfo,
    apply_candidate,
)
from repro.repair.oracle import (
    BaseState,
    OracleVerdict,
    random_patterns,
    verify_candidate,
)
from repro.repair.seedbreak import SeededBreak, seed_breaks

__all__ = [
    "BaseState",
    "CANDIDATE_KINDS",
    "NotApplicable",
    "OracleVerdict",
    "PatchInfo",
    "REPAIR_MODELS",
    "RepairAction",
    "RepairResult",
    "RepairSpec",
    "SeededBreak",
    "apply_candidate",
    "apply_plan",
    "build_model",
    "choose_actions",
    "patch_model",
    "prepare_repair",
    "random_patterns",
    "repair_items",
    "run_repair",
    "seed_breaks",
    "verify_candidate",
]
