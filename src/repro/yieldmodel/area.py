"""The Table 2 area model.

Relative component areas of the Rescue core (including the ICI transform
overheads, the shift stages, and the scan-cell area folded into chipkill,
exactly as Section 5 accounts them):

==============  =====  =========================================
Component       Share  Redundancy
==============  =====  =========================================
frontend        12%    two groups of two ways each
int backend     15%    two groups (2 ALUs + mul + mem port each)
fp backend      21%    two groups (FP add + FP mul each)
int issue queue  3%    two halves
fp issue queue   2%    two halves
load/store queue 7%    two halves
chipkill        40%    none — any fault kills the core
==============  =====  =========================================

A handful of Table 2 cells are illegible in the source scan; the shares
above keep every legible cell (chipkill 40%, int backend 15%, fp backend
21%, LSQ 7%) and distribute the remainder over the frontend and the two
issue queues consistent with the text (see DESIGN.md).  Totals: Rescue
107mm², baseline core with scan only 96mm², at the 90nm node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from repro.yieldmodel.configs import DIMENSIONS
from repro.yieldmodel.pwp import generations

#: Relative areas of the Rescue core's fault-equivalent components.
TABLE2_FRACTIONS: Mapping[str, float] = {
    "frontend": 0.12,
    "int_backend": 0.15,
    "fp_backend": 0.21,
    "iq_int": 0.03,
    "iq_fp": 0.02,
    "lsq": 0.07,
    "chipkill": 0.40,
}

RESCUE_CORE_AREA_90NM = 107.0
BASELINE_CORE_AREA_90NM = 96.0


@dataclass(frozen=True)
class AreaModel:
    """Core areas at a technology node under microarchitectural growth.

    Core device count grows by ``(1 + growth)`` per area-halving
    generation while devices shrink 2× — so physical core area scales by
    ``((1 + growth) / 2) ** G`` from the 90nm anchor.
    """

    growth: float = 0.3
    fractions: Mapping[str, float] = field(
        default_factory=lambda: dict(TABLE2_FRACTIONS)
    )

    def __post_init__(self) -> None:
        total = sum(self.fractions.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"component fractions sum to {total}, not 1")
        if not (0.0 <= self.growth <= 1.0):
            raise ValueError("growth must be in [0, 1]")

    def scale(self, node_nm: float) -> float:
        """Physical area scale factor vs the 90nm anchor."""
        g = generations(node_nm)
        return ((1.0 + self.growth) / 2.0) ** g

    def rescue_core_area(self, node_nm: float) -> float:
        """Physical area (mm²) of one Rescue core at ``node_nm``."""
        return RESCUE_CORE_AREA_90NM * self.scale(node_nm)

    def baseline_core_area(self, node_nm: float) -> float:
        """Physical area of one conventional (scan-only) core."""
        return BASELINE_CORE_AREA_90NM * self.scale(node_nm)

    def group_areas(self, node_nm: float) -> Dict[str, float]:
        """Area per *group* (half a redundant component) plus chipkill.

        Keys: ``<component>`` → area of one of its two groups, and
        ``chipkill`` → the whole non-redundant block.
        """
        total = self.rescue_core_area(node_nm)
        out: Dict[str, float] = {}
        for name, frac in self.fractions.items():
            if name in DIMENSIONS:
                out[name] = frac * total / 2.0
            else:
                out[name] = frac * total
        return out
