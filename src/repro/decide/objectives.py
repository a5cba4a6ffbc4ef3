"""The four decision objectives, evaluated per map-out configuration.

For each of the 64 :class:`~repro.yieldmodel.configs.CoreCounts`
configurations the decide campaign scores:

``yat`` (maximize)
    The configuration's contribution to relative yield-adjusted
    throughput: ``E_λ[P(config | λ)] · IPC(config) / baseline_ipc``
    with the same gamma mixing, group areas, and probability model as
    :class:`~repro.yieldmodel.yat.YatModel` (EQ 2/3) — the summand of
    the Rescue YAT sum, isolated per configuration.  High-YAT configs
    are both *likely* under the fault-density scenario and *fast*.
``ipc_ratio`` (maximize)
    Mean IPC of the configuration across the campaign's benchmarks,
    relative to the full configuration — the fleet's per-chip
    throughput cost of the map-out.
``sdc`` (minimize)
    Residual SDC vulnerability from
    :func:`repro.decide.vulnerability.residual_sdc`.
``area_saved`` (maximize)
    Fraction of the Rescue core's area whose defects the map-out
    tolerates — the summed group areas of the mapped-out halves over
    the core area (Table 2 via
    :meth:`~repro.yieldmodel.area.AreaModel.group_areas`).

Every value is a deterministic function of the merged campaign data
(measured IPCs + merged injection counts) and the frozen spec scalars,
so the objective table inherits the runner's worker-count invariance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

import numpy as np

from repro.inject.campaign import InjectionStats
from repro.inject.sites import mapped_out_blocks
from repro.decide.vulnerability import vulnerability_table
from repro.yieldmodel.area import AreaModel
from repro.yieldmodel.configs import (
    CoreCounts,
    config_probabilities,
    enumerate_configs,
)
from repro.yieldmodel.negbin import GammaMixing
from repro.yieldmodel.pwp import FaultDensityModel

Key = Tuple[int, ...]

#: Canonical objective order and orientation (True = maximize).
OBJECTIVES: Tuple[Tuple[str, bool], ...] = (
    ("yat", True),
    ("ipc_ratio", True),
    ("sdc", False),
    ("area_saved", True),
)


@dataclass(frozen=True)
class ConfigScore:
    """One configuration's objective values."""

    key: Key
    yat: float
    ipc_ratio: float
    sdc: float
    area_saved: float
    ipc: float  # mean absolute IPC (reporting only, not an objective)

    def vector(self) -> Tuple[float, ...]:
        """Objective vector oriented "higher is better" for Pareto."""
        out = []
        for name, maximize in OBJECTIVES:
            v = getattr(self, name)
            out.append(v if maximize else -v)
        return tuple(out)

    def to_json(self) -> Dict[str, float]:
        return {
            "yat": self.yat,
            "ipc_ratio": self.ipc_ratio,
            "sdc": self.sdc,
            "area_saved": self.area_saved,
            "ipc": self.ipc,
        }

    @classmethod
    def from_json(cls, key: Key, d: Mapping[str, float]) -> "ConfigScore":
        return cls(
            key=key,
            yat=float(d["yat"]),
            ipc_ratio=float(d["ipc_ratio"]),
            sdc=float(d["sdc"]),
            area_saved=float(d["area_saved"]),
            ipc=float(d["ipc"]),
        )


def mean_ipc_table(
    measured: Mapping[Tuple[str, Key], float]
) -> Dict[Key, float]:
    """Mean composed IPC per configuration across benchmarks.

    ``measured`` holds the campaign's (benchmark, config key) → IPC
    points; :func:`repro.cpu.degraded.ipc_tables` composes each
    benchmark's 64-entry table, and the tables are averaged in
    sorted-benchmark order so the result never depends on measurement
    arrival order.
    """
    from repro.cpu.degraded import ipc_tables

    tables = list(ipc_tables(measured).values())
    if not tables:
        raise ValueError("no IPC measurements")
    return {
        cfg.key(): sum(t[cfg.key()] for t in tables) / len(tables)
        for cfg in enumerate_configs()
    }


def yat_contributions(
    ipc_table: Mapping[Key, float],
    *,
    node_nm: float,
    growth: float,
    stagnation_node_nm: float,
    baseline_ipc: float,
) -> Dict[Key, float]:
    """Per-configuration summand of the Rescue relative-YAT sum.

    Summing the returned values over all 64 keys reproduces
    ``YatModel.evaluate(node).rescue`` for a single-core chip with the
    same IPC table (asserted in tests).
    """
    density = FaultDensityModel(stagnation_node_nm=stagnation_node_nm)
    areas = AreaModel(growth=growth)
    mixing = GammaMixing(
        density=density.density(node_nm), alpha=density.alpha
    )
    group_areas = areas.group_areas(node_nm)
    out: Dict[Key, float] = {}
    for key in sorted(ipc_table):
        ipc = ipc_table[key]

        def summand(lam: np.ndarray, key=key) -> np.ndarray:
            return config_probabilities(lam, group_areas)[key]

        out[key] = mixing.expect(summand) * ipc / baseline_ipc
    return out


def area_saved_fractions(
    *, node_nm: float, growth: float
) -> Dict[Key, float]:
    """Fraction of core area a configuration's map-out tolerates."""
    areas = AreaModel(growth=growth)
    group_areas = areas.group_areas(node_nm)
    core = areas.rescue_core_area(node_nm)
    out: Dict[Key, float] = {}
    for cfg in enumerate_configs():
        saved = 0.0
        for block in mapped_out_blocks(cfg):
            dim = block.split(".")[0]
            saved += group_areas[dim]
        out[cfg.key()] = saved / core
    return out


def evaluate_objectives(
    measured: Mapping[Tuple[str, Key], float],
    stats: InjectionStats,
    *,
    node_nm: float,
    growth: float,
    stagnation_node_nm: float,
    baseline_ipc: float,
) -> Dict[Key, ConfigScore]:
    """Score all 64 configurations on the four objectives."""
    ipc_table = mean_ipc_table(measured)
    full_ipc = ipc_table[CoreCounts().key()]
    yat = yat_contributions(
        ipc_table,
        node_nm=node_nm,
        growth=growth,
        stagnation_node_nm=stagnation_node_nm,
        baseline_ipc=baseline_ipc,
    )
    sdc = vulnerability_table(stats)
    area = area_saved_fractions(node_nm=node_nm, growth=growth)
    out: Dict[Key, ConfigScore] = {}
    for cfg in enumerate_configs():
        key = cfg.key()
        out[key] = ConfigScore(
            key=key,
            yat=yat[key],
            ipc_ratio=(
                ipc_table[key] / full_ipc if full_ipc else 0.0
            ),
            sdc=sdc[key],
            area_saved=area[key],
            ipc=ipc_table[key],
        )
    return out
