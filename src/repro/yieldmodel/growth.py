"""CMP core counts under technology scaling and core growth (Section 6.3).

The paper anchors one core per chip at the 90nm node (two at 65nm for the
65nm-stagnation scenario) and grows the core by a fixed fraction per
area-halving generation while the per-chip core-area budget stays at
140mm².  Scaling from 1 core at 90nm, the paper reaches 11, 7, 5, and 4
cores at 18nm for 20/30/40/50% growth — this module reproduces those
counts exactly (see tests).

The scenario decides the anchor: it is
:attr:`repro.yieldmodel.pwp.FaultDensityModel.anchor`, which the YAT
model and the Monte Carlo sampler pass here as
``cores_per_chip(node, growth, *density.anchor)``.
"""

from __future__ import annotations

from repro.yieldmodel.pwp import generations


def cores_per_chip(
    node_nm: float,
    growth: float,
    anchor_node_nm: float = 90.0,
    anchor_cores: int = 1,
) -> int:
    """Number of cores fabricated per chip at ``node_nm``.

    Args:
        node_nm: target technology node.
        growth: per-generation device-count growth of one core (0.2-0.5
            in the paper).
        anchor_node_nm: node where the core count is pinned.
        anchor_cores: cores per chip at the anchor node.
    """
    if growth < 0:
        raise ValueError("growth must be non-negative")
    g = generations(node_nm, anchor_node_nm)
    raw = anchor_cores * (2.0 ** g) / ((1.0 + growth) ** g)
    return max(1, round(raw))
