"""Fault-density scaling (paper EQ 1).

ITRS budgets particles-per-wafer-pass (PWP) so that random-defect-limited
yield stays at 83% for a 140mm² die.  The paper's scenario: PWP stops
improving at some *stagnation node*; from then on, faults per chip area
scale as 1/s² — doubling per area-halving generation, because defects that
used to be smaller than the critical size become faults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

#: Technology nodes (nm) spanning the paper's Figure 9.
TECH_NODES: Tuple[int, ...] = (90, 65, 45, 32, 22, 18)

#: ITRS reference: random-defect-limited yield at constant die area.
ITRS_TARGET_YIELD = 0.83
#: ITRS reference die area (mm²) — also the per-chip core-area budget.
ITRS_DIE_AREA = 140.0
#: ITRS clustering parameter for the negative binomial model.
ITRS_ALPHA = 2.0


def generations(node_nm: float, reference_nm: float = 90.0) -> float:
    """Area-halving generations between ``reference_nm`` and ``node_nm``.

    One generation = device area halves = feature size scales by 1/√2.
    90 → 18 nm is (90/18)² = 25× area, about 4.64 generations.
    """
    if node_nm <= 0 or reference_nm <= 0:
        raise ValueError("feature sizes must be positive")
    return math.log2((reference_nm / node_nm) ** 2)


@dataclass(frozen=True)
class FaultDensityModel:
    """Fault density per technology node for one stagnation scenario.

    Attributes:
        stagnation_node_nm: last node at which PWP improvements keep the
            ITRS target yield; beyond it, density doubles per generation.
        alpha: clustering parameter (ITRS projects 2).
    """

    stagnation_node_nm: float = 90.0
    alpha: float = ITRS_ALPHA

    @property
    def anchor(self) -> Tuple[float, int]:
        """``(node_nm, cores)`` the scenario pins its CMP core count at.

        One core at 90nm when PWP stagnates there; otherwise two cores at
        65nm, the paper's 65nm-stagnation scenario.  This is the only
        statement of the rule: :class:`~repro.yieldmodel.yat.YatModel`
        and the Monte Carlo sampler both scale
        :func:`~repro.yieldmodel.growth.cores_per_chip` from it.
        """
        return (90.0, 1) if self.stagnation_node_nm == 90 else (65.0, 2)

    @property
    def base_density(self) -> float:
        """Fault density (faults/mm²) that yields 83% on a 140mm² die
        under the negative binomial model: (1 + A·D/α)^-α = 0.83."""
        a_d = self.alpha * (ITRS_TARGET_YIELD ** (-1.0 / self.alpha) - 1.0)
        return a_d / ITRS_DIE_AREA

    def density(self, node_nm: float) -> float:
        """Faults/mm² at ``node_nm``.

        Constant (process keeps up) down to the stagnation node; then
        ×2 per area-halving generation (EQ 1 run in reverse with PWP
        held constant).
        """
        extra = generations(node_nm, self.stagnation_node_nm)
        return self.base_density * (2.0 ** max(0.0, extra))

    def required_pwp_improvement(self, node_nm: float) -> float:
        """EQ 1 run forward: the factor by which particles-per-wafer-pass
        must improve from the 90nm node for fault density to stay at the
        ITRS target at ``node_nm`` (the square of the scaling factor —
        the improvement the paper doubts will stay economical)."""
        return 2.0 ** generations(node_nm)
