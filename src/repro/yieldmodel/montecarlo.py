"""Monte Carlo chip sampling — an independent check on the analytic YAT.

EQ 2/3 compute expected throughput analytically (per-configuration
probabilities under gamma-mixed Poisson faults).  This module samples
actual chips instead: draw a per-chip fault density from the gamma mixing
distribution, throw faults at the component areas, derive each core's
degraded configuration, and average the chips' throughput.  Agreement
between the two (see tests and ``examples/test_floor_demo.py``) validates
the probability bookkeeping the headline Figure 9 numbers rest on.

Sharding contract: chip ``i`` consumes its own RNG stream seeded by
:func:`repro.runner.seeding.derive_seed`\\ ``(seed, i, "mc-chip")``, so a
chip's outcome depends only on ``(seed, i)`` — never on which worker
samples it or how the campaign is chunked.  Aggregation goes through
:class:`ChipSpan` (per-chip values, merged by concatenation) and
``math.fsum`` (exactly-rounded, order-invariant), which together make the
merged :class:`MonteCarloResult` bit-identical for any worker count and
chunk size (asserted in ``tests/test_runner_determinism.py``).
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping, Tuple

from repro.runner.seeding import derive_seed
from repro.telemetry import TELEMETRY
from repro.yieldmodel.area import AreaModel
from repro.yieldmodel.configs import DIMENSIONS, CoreCounts
from repro.yieldmodel.growth import cores_per_chip
from repro.yieldmodel.pwp import FaultDensityModel
from repro.yieldmodel.yat import IpcTable


@dataclass
class MonteCarloResult:
    """Sampled chip statistics."""

    chips: int
    mean_relative_yat: float
    dead_core_fraction: float
    degraded_core_fraction: float
    # Standard error of mean_relative_yat (sample stdev / sqrt(chips));
    # 0.0 when fewer than two chips.  Gives tests a principled tolerance:
    # analytic-vs-MC agreement is asserted within 3 standard errors.
    std_error: float = 0.0

    def to_json(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_json(cls, d: Dict[str, Any]) -> "MonteCarloResult":
        return cls(**d)

    def summary(self) -> str:
        """One-line batch report."""
        return (
            f"{self.chips} chips: relative YAT "
            f"{self.mean_relative_yat:.3f} "
            f"(±{self.std_error:.4f} s.e.), "
            f"{100 * self.dead_core_fraction:.1f}% cores dead, "
            f"{100 * self.degraded_core_fraction:.1f}% degraded"
        )

    @classmethod
    def from_span(
        cls, span: "ChipSpan", cores_per_chip: int
    ) -> "MonteCarloResult":
        """Reduce per-chip samples to summary statistics.

        Uses ``math.fsum`` (exactly rounded) for the mean and the
        squared deviations, so the result depends only on the multiset
        of per-chip values — not on how shards were grouped or merged.
        """
        n = span.chips
        if n == 0:
            return cls(0, 0.0, 0.0, 0.0, 0.0)
        mean = math.fsum(span.relative_yat) / n
        if n > 1:
            var = math.fsum(
                (x - mean) ** 2 for x in span.relative_yat
            ) / (n - 1)
            se = math.sqrt(var / n)
        else:
            se = 0.0
        n_cores = n * cores_per_chip
        return cls(
            chips=n,
            mean_relative_yat=mean,
            dead_core_fraction=span.dead / n_cores,
            degraded_core_fraction=span.degraded / n_cores,
            std_error=se,
        )


@dataclass
class ChipSpan:
    """Per-chip outcomes of a contiguous chunk of a sampling campaign.

    The exact merge unit of the parallel runner: spans concatenate their
    per-chip value lists (keyed by absolute chip index), so merging in
    any grouping preserves the full multiset of samples and the final
    :meth:`MonteCarloResult.from_span` reduction is invariant.
    """

    start: int
    stop: int
    relative_yat: List[float] = field(default_factory=list)
    dead: int = 0
    degraded: int = 0

    @property
    def chips(self) -> int:
        """Number of chips sampled in this span."""
        return len(self.relative_yat)

    def merge(self, other: "ChipSpan") -> "ChipSpan":
        """Concatenate two disjoint spans (lower start first; exact)."""
        a, b = (self, other) if self.start <= other.start else (other, self)
        return ChipSpan(
            start=a.start,
            stop=max(a.stop, b.stop),
            relative_yat=a.relative_yat + b.relative_yat,
            dead=a.dead + b.dead,
            degraded=a.degraded + b.degraded,
        )

    def to_json(self) -> Dict:
        """JSON-serializable form (checkpoint payload)."""
        return {
            "start": self.start,
            "stop": self.stop,
            "relative_yat": list(self.relative_yat),
            "dead": self.dead,
            "degraded": self.degraded,
        }

    @classmethod
    def from_json(cls, payload: Dict) -> "ChipSpan":
        """Inverse of :meth:`to_json`."""
        return cls(
            start=int(payload["start"]),
            stop=int(payload["stop"]),
            relative_yat=[float(x) for x in payload["relative_yat"]],
            dead=int(payload["dead"]),
            degraded=int(payload["degraded"]),
        )


def _poisson(rng: random.Random, lam: float) -> int:
    """Poisson draw via Knuth's product method, normal above λ=30.

    The rounded-normal approximation keeps huge densities cheap.  Bias
    bound: the normal matches the Poisson mean exactly and its variance
    to O(1) rounding; by the Berry-Esseen bound the CDF error is below
    0.41/sqrt(λ) < 7.5% at the λ=30 switch-over and shrinks as λ^-1/2.
    The ``max(0, ...)`` clamp adds P(N < -0.5) < 2e-8 of mass at zero.
    Both regimes' mean/variance are pinned by a statistical test in
    ``tests/test_montecarlo.py``.
    """
    if lam <= 0:
        return 0
    if lam > 30:
        return max(0, round(rng.gauss(lam, math.sqrt(lam))))
    level = math.exp(-lam)
    k, p = 0, 1.0
    while True:
        p *= rng.random()
        if p <= level:
            return k
        k += 1


def sample_core(
    rng: random.Random,
    lam: float,
    group_areas: Mapping[str, float],
) -> CoreCounts | None:
    """One core's degraded configuration under fault density ``lam``.

    Returns None for a dead core (chipkill hit or a dimension lost
    entirely).
    """
    if _poisson(rng, lam * group_areas["chipkill"]):
        return None
    counts: Dict[str, int] = {}
    for dim in DIMENSIONS:
        area = group_areas[dim]
        ok = sum(
            1 for _ in range(2) if _poisson(rng, lam * area) == 0
        )
        if ok == 0:
            return None
        counts[dim] = ok
    return CoreCounts(**counts)


def sample_chip(
    seed: int,
    chip_idx: int,
    cores: int,
    alpha: float,
    theta: float,
    group_areas: Mapping[str, float],
    rescue_ipc: IpcTable,
    baseline_ipc: float,
) -> Tuple[float, int, int]:
    """One chip's (relative YAT, dead cores, degraded cores).

    All cores of a chip share one λ draw — the clustering correlation the
    gamma mixing encodes.  The chip's RNG stream is derived from
    ``(seed, chip_idx)`` alone, making the draw independent of campaign
    chunking.
    """
    rng = random.Random(derive_seed(seed, chip_idx, "mc-chip"))
    lam = rng.gammavariate(alpha, theta)
    chip_ipc = 0.0
    dead = 0
    degraded = 0
    for _core in range(cores):
        counts = sample_core(rng, lam, group_areas)
        if counts is None:
            dead += 1
            continue
        if not counts.is_full:
            degraded += 1
        chip_ipc += rescue_ipc[counts.key()]
    return chip_ipc / (cores * baseline_ipc), dead, degraded


def sample_chip_span(
    start: int,
    stop: int,
    seed: int,
    cores: int,
    alpha: float,
    theta: float,
    group_areas: Mapping[str, float],
    rescue_ipc: IpcTable,
    baseline_ipc: float,
) -> ChipSpan:
    """Sample chips ``start <= i < stop`` into one mergeable span."""
    span = ChipSpan(start=start, stop=stop)
    with TELEMETRY.span("montecarlo/sample_span"):
        for chip_idx in range(start, stop):
            rel, dead, degraded = sample_chip(
                seed, chip_idx, cores, alpha, theta, group_areas,
                rescue_ipc, baseline_ipc,
            )
            span.relative_yat.append(rel)
            span.dead += dead
            span.degraded += degraded
    t = TELEMETRY
    if t.enabled:
        t.count("montecarlo.chips", stop - start)
        t.count("montecarlo.dead_cores", span.dead)
        t.count("montecarlo.degraded_cores", span.degraded)
    return span


def campaign_params(
    density_model: FaultDensityModel,
    node_nm: float,
    growth: float,
) -> Tuple[int, float, float, Dict[str, float]]:
    """Derived sampling inputs: (cores/chip, alpha, theta, group areas).

    Shared by :func:`simulate_chips` and the parallel campaign driver so
    both sample from the identical chip distribution.  The core count
    scales from the scenario's anchor, as in ``YatModel``.
    """
    areas = AreaModel(growth=growth)
    groups = areas.group_areas(node_nm)
    k = cores_per_chip(node_nm, growth, *density_model.anchor)
    d = density_model.density(node_nm)
    alpha = density_model.alpha
    theta = d / alpha
    return k, alpha, theta, groups


def simulate_chips(
    density_model: FaultDensityModel,
    node_nm: float,
    growth: float,
    baseline_ipc: float,
    rescue_ipc: IpcTable,
    n_chips: int = 2000,
    seed: int = 0,
) -> MonteCarloResult:
    """Sample ``n_chips`` Rescue chips and average their throughput.

    Serial reference path of the campaign: one span covering every chip,
    reduced exactly as the sharded runner reduces its merged spans — so
    ``repro run montecarlo --workers N`` reproduces this bit-for-bit.
    """
    k, alpha, theta, groups = campaign_params(
        density_model, node_nm, growth
    )
    span = sample_chip_span(
        0, n_chips, seed, k, alpha, theta, groups, rescue_ipc,
        baseline_ipc,
    )
    return MonteCarloResult.from_span(span, k)
