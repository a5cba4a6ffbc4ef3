"""Yield-adjusted throughput (EQ 2 / EQ 3) for the three chip styles.

``YatModel`` evaluates, for one benchmark at one technology node:

- **no redundancy**: a single fault anywhere kills the whole chip;
- **core sparing (CS)**: each faulty core is disabled, fault-free cores
  run at full baseline IPC;
- **Rescue**: per-core degraded configurations weighted by probability
  (EQ 3), on top of core sparing for cores whose chipkill block is hit.

All cores of a chip share one λ draw (clustering correlates faults on a
die), so the expected chip throughput conditional on λ is K·E[core | λ]
and the gamma mixing integrates over λ (EQ 2).

Results are *relative YAT*: expected chip IPC divided by the chip's IPC
at 100% yield with no degradation (K × baseline full IPC), matching the
normalization of Figure 9.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.yieldmodel.area import AreaModel
from repro.yieldmodel.configs import CoreCounts, config_probabilities
from repro.yieldmodel.growth import cores_per_chip
from repro.yieldmodel.negbin import GammaMixing
from repro.yieldmodel.pwp import FaultDensityModel

#: IPC per configuration: maps a CoreCounts key to instructions/cycle.
IpcTable = Mapping[Tuple[int, ...], float]


@dataclass(frozen=True)
class YatResult:
    """Relative YAT of the three chip styles at one node."""

    node_nm: float
    growth: float
    cores: int
    no_redundancy: float
    core_sparing: float
    rescue: float

    @property
    def rescue_over_cs(self) -> float:
        """Fractional improvement of Rescue over core sparing."""
        if self.core_sparing == 0:
            return float("inf") if self.rescue > 0 else 0.0
        return self.rescue / self.core_sparing - 1.0


@dataclass
class YatModel:
    """Evaluator for one (scenario, growth) pair.

    Args:
        density: fault-density scenario (stagnation node); its
            ``anchor`` pins the CMP core count.
        growth: per-generation core growth (0.2-0.5).
        baseline_ipc: full-machine IPC of the conventional core.
        rescue_ipc: IPC per Rescue configuration (64 entries); the full
            configuration carries the ICI transformation cost (~4% below
            ``baseline_ipc`` on average).
    """

    density: FaultDensityModel
    growth: float
    baseline_ipc: float
    rescue_ipc: IpcTable

    def __post_init__(self) -> None:
        full = CoreCounts().key()
        if full not in self.rescue_ipc:
            raise ValueError("rescue_ipc must include the full configuration")
        if self.baseline_ipc <= 0:
            raise ValueError("baseline IPC must be positive")

    # ------------------------------------------------------------------
    def evaluate(self, node_nm: float) -> YatResult:
        """Relative YAT of the three chip styles at ``node_nm``."""
        areas = AreaModel(growth=self.growth)
        k = cores_per_chip(node_nm, self.growth, *self.density.anchor)
        d = self.density.density(node_nm)
        mixing = GammaMixing(density=d, alpha=self.density.alpha)

        base_core_area = areas.baseline_core_area(node_nm)
        group_areas = areas.group_areas(node_nm)

        # Normalization: K cores at full baseline IPC.
        denom = k * self.baseline_ipc

        # No redundancy: the whole chip (all K cores) is one fault target.
        chip_area = k * base_core_area
        no_red = self.baseline_ipc * k * mixing.expect(
            lambda lam: np.exp(-lam * chip_area)
        )

        # Core sparing: cores fail independently given λ.
        cs = self.baseline_ipc * k * mixing.expect(
            lambda lam: np.exp(-lam * base_core_area)
        )

        # Rescue: per-core expected IPC over degraded configurations.
        def rescue_core(lam: np.ndarray) -> np.ndarray:
            probs = config_probabilities(lam, group_areas)
            acc = np.zeros_like(np.asarray(lam, dtype=float))
            for key, p in probs.items():
                acc = acc + p * self.rescue_ipc[key]
            return acc

        rescue = k * mixing.expect(rescue_core)

        return YatResult(
            node_nm=node_nm,
            growth=self.growth,
            cores=k,
            no_redundancy=no_red / denom,
            core_sparing=cs / denom,
            rescue=rescue / denom,
        )

    def sweep(self, nodes) -> Dict[float, YatResult]:
        """Evaluate several nodes (the Figure 9 x-axis)."""
        return {n: self.evaluate(n) for n in nodes}


def yat_grid(
    ipcs: Mapping[str, Tuple[float, IpcTable]],
    stagnations: Sequence[float],
    growths: Sequence[float],
    nodes: Sequence[float],
) -> Dict[Tuple[float, float, float], YatResult]:
    """Figure 9: relative YAT averaged over benchmarks.

    ``ipcs`` maps each benchmark to its (baseline IPC, Rescue IPC table).
    Returns one :class:`YatResult` per (stagnation node, growth, node):
    each chip style's relative YAT summed in ``ipcs`` order and divided
    by the benchmark count.  Every printer of the figure and its CI gate
    read this grid.
    """
    grid: Dict[Tuple[float, float, float], YatResult] = {}
    for stag in stagnations:
        density = FaultDensityModel(stagnation_node_nm=stag)
        for growth in growths:
            models = [
                YatModel(density, growth, base, table)
                for base, table in ipcs.values()
            ]
            for node in nodes:
                rs = [m.evaluate(node) for m in models]
                grid[(stag, growth, node)] = YatResult(
                    node_nm=node,
                    growth=growth,
                    cores=rs[0].cores,
                    no_redundancy=sum(r.no_redundancy for r in rs) / len(rs),
                    core_sparing=sum(r.core_sparing for r in rs) / len(rs),
                    rescue=sum(r.rescue for r in rs) / len(rs),
                )
    return grid


def flat_rescue_ipc(
    full_ipc: float,
    penalty: Callable[[CoreCounts], float],
) -> Dict[Tuple[int, ...], float]:
    """Build an IPC table from a full-config IPC and a penalty function.

    Convenience for tests and quick models; the benchmarks use measured
    IPCs from the performance simulator instead.
    """
    from repro.yieldmodel.configs import enumerate_configs

    return {
        cfg.key(): full_ipc * penalty(cfg) for cfg in enumerate_configs()
    }
