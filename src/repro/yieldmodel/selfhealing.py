"""Self-healing array extension (paper Section 7, building on Bower et
al. [2]).

The paper's related-work section notes that *self-healing arrays* — RAM
structures that detect and map out defective entries at run time — could
ride along with Rescue to cover the BTB and active list (today part of the
chipkill area) and to tolerate faults inside a rename-table or register
file copy without disabling the whole copy.

This module models that extension analytically:

- a fraction of the chipkill area (the array-structured part: BTB, active
  list, TLBs) becomes *protected* — faults there no longer kill the core;
- optionally, a fraction of each table-copy group becomes protected too,
  shrinking the fault target of the frontend/backend groups.

Protected area is treated as fault-tolerant (the arrays lose an entry,
not the structure), matching how the paper treats BIST-plus-spares caches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.yieldmodel.area import AreaModel
from repro.yieldmodel.configs import DIMENSIONS

#: Fraction of the paper's 40% chipkill budget that is array-structured
#: (branch predictor tables, BTB, active list, TLBs — Section 5 lists
#: exactly these as the chipkill members that are RAM-like).
ARRAY_FRACTION_OF_CHIPKILL = 0.45


@dataclass(frozen=True)
class SelfHealingModel:
    """Area re-budgeting under self-healing arrays.

    Attributes:
        array_coverage: fraction of the array-structured chipkill area
            protected by self-healing (0 = plain Rescue, 1 = every
            chipkill array protected).
        copy_coverage: fraction of each redundant group's area protected
            (rename-table/register-file cells inside the group).
    """

    array_coverage: float = 1.0
    copy_coverage: float = 0.0

    def __post_init__(self) -> None:
        for name in ("array_coverage", "copy_coverage"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be in [0, 1]")

    def protected_group_areas(
        self, base: AreaModel, node_nm: float
    ) -> Dict[str, float]:
        """Group fault-target areas with the protected portions removed.

        The returned mapping plugs straight into
        :func:`repro.yieldmodel.configs.config_probabilities` — protected
        area simply stops being a fault target, which is how the paper
        treats BIST-covered cache data arrays.
        """
        groups = dict(base.group_areas(node_nm))
        protected_ck = (
            groups["chipkill"]
            * ARRAY_FRACTION_OF_CHIPKILL
            * self.array_coverage
        )
        groups["chipkill"] = groups["chipkill"] - protected_ck
        if self.copy_coverage:
            for name in DIMENSIONS:
                groups[name] = groups[name] * (1.0 - self.copy_coverage * 0.5)
        return groups


def yat_with_self_healing(
    yat_model,
    node_nm: float,
    healing: SelfHealingModel,
):
    """Evaluate a :class:`~repro.yieldmodel.yat.YatModel` node with the
    self-healing area re-budgeting applied to the Rescue chip.

    Returns (plain YatResult, rescue+self-healing relative YAT).
    """
    import numpy as np

    from repro.yieldmodel.configs import config_probabilities
    from repro.yieldmodel.negbin import GammaMixing

    base_result = yat_model.evaluate(node_nm)
    areas = AreaModel(growth=yat_model.growth)
    groups = healing.protected_group_areas(areas, node_nm)
    k = base_result.cores
    d = yat_model.density.density(node_nm)
    mixing = GammaMixing(density=d, alpha=yat_model.density.alpha)

    def rescue_core(lam):
        probs = config_probabilities(lam, groups)
        acc = np.zeros_like(np.asarray(lam, dtype=float))
        for key, p in probs.items():
            acc = acc + p * yat_model.rescue_ipc[key]
        return acc

    healed = k * mixing.expect(rescue_core) / (k * yat_model.baseline_ipc)
    return base_result, healed
