"""Figures 8 and 9 from simulated IPCs: the paper's shape claims, pinned.

One ``ipc`` campaign sweep over all 23 profiles plus their 23 baseline
runs (:func:`~repro.runner.campaigns.figure_ipcs`, 5,000 measured and
2,000 warmup instructions each) feeds both figures through the folds
every printer of them uses: :class:`~repro.runner.campaigns.IpcCost`
for Figure 8 and :func:`~repro.yieldmodel.yat.yat_grid` for Figure 9.
The checks are ``bench_fig8_ipc.py``'s and ``bench_fig9_yat.py``'s shape
assertions, the headline readings at this size as the tables print them,
and a sha256 of each table, so a change that claims identical simulation
shows it here.  About 50 s on one core; CI runs it as its own step
(``pytest -m slow tests/test_figure_shapes.py``).
"""

import hashlib
import json

import pytest

from repro.runner.campaigns import IpcCost, IpcSweepSpec, figure_ipcs
from repro.workloads import PROFILES
from repro.yieldmodel import FULL_CONFIG
from repro.yieldmodel.yat import yat_grid

pytestmark = pytest.mark.slow

N_INSTRUCTIONS, WARMUP = 5_000, 2_000
INTEGER = [p.name for p in PROFILES if not p.is_fp]
FP = [p.name for p in PROFILES if p.is_fp]


def _sha(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _pct(x: float) -> str:
    return f"{x:+.1f}%"


@pytest.fixture(scope="module")
def ipcs():
    spec = IpcSweepSpec(
        benchmarks=tuple(p.name for p in PROFILES),
        n_instructions=N_INSTRUCTIONS,
        warmup=WARMUP,
    )
    return figure_ipcs(spec, checkpoint=False)


@pytest.fixture(scope="module")
def figure8(ipcs):
    """The fold and its (benchmark, baseline IPC, Rescue IPC, cost %)
    rows."""
    cost = IpcCost()
    out = []
    for name, (base, table) in ipcs.items():
        rescue = table[FULL_CONFIG.key()]
        out.append([name, base, rescue, cost.add(name, base, rescue)])
    return cost, out


@pytest.fixture(scope="module")
def grid(ipcs):
    return yat_grid(ipcs, (90, 65), (0.2, 0.3, 0.4, 0.5), (90, 65, 32, 18))


class TestFigure8:
    def test_cost_is_small_on_average(self, figure8):
        cost, _ = figure8
        assert -1.0 < cost.mean() < 8.0
        assert _pct(cost.mean()) == "+1.1%"

    def test_integer_codes_pay_most(self, figure8):
        cost, _ = figure8
        assert cost.mean(INTEGER) > cost.mean(FP)
        assert (_pct(cost.mean(INTEGER)), _pct(cost.mean(FP))) == (
            "+2.0%", "+0.2%"
        )
        top = sorted(cost.costs, key=lambda bc: bc[1], reverse=True)[:5]
        assert all(bench in INTEGER for bench, _ in top)

    def test_memory_bound_codes_near_zero(self, figure8):
        by_name = dict(figure8[0].costs)
        assert by_name["mcf"] < 1.5
        assert by_name["art"] < 1.5
        assert (_pct(by_name["mcf"]), _pct(by_name["art"])) == (
            "+0.7%", "+0.2%"
        )

    def test_table_digest(self, figure8):
        assert _sha(figure8[1]) == (
            "9f69170017c4db18b4cd43b03413af2bed354dab8e1a360e8ff535aacd925f55"
        )


class TestFigure9:
    def _gain(self, grid, stag, growth, node):
        return grid[(stag, growth, node)].rescue_over_cs

    def test_core_sparing_never_loses_to_no_redundancy(self, grid):
        for r in grid.values():
            assert r.core_sparing >= r.no_redundancy - 1e-9

    def test_gain_grows_toward_18nm(self, grid):
        g32 = self._gain(grid, 90, 0.3, 32)
        g18 = self._gain(grid, 90, 0.3, 18)
        assert g18 > g32 > 0
        assert 0.05 < g18 < 0.6
        assert (_pct(100 * g32), _pct(100 * g18)) == ("+13.9%", "+21.4%")

    def test_growth_widens_the_gain(self, grid):
        g50 = self._gain(grid, 90, 0.5, 18)
        g20 = self._gain(grid, 90, 0.2, 18)
        assert g50 > g20
        assert (_pct(100 * g50), _pct(100 * g20)) == ("+39.5%", "+14.8%")

    def test_later_stagnation_shrinks_the_gain(self, grid):
        late = self._gain(grid, 65, 0.3, 18)
        assert self._gain(grid, 90, 0.3, 18) > late
        assert 0.02 < late < 0.3
        assert _pct(100 * late) == "+11.1%"

    def test_grid_digest(self, grid):
        # The grid goes through numpy's quadrature, whose last bits may
        # differ between BLAS builds: hash it at ten decimals.
        table = [
            [*key, r.cores]
            + [f"{v:.10f}" for v in (r.no_redundancy, r.core_sparing,
                                     r.rescue)]
            for key, r in grid.items()
        ]
        assert _sha(table) == (
            "f473749efabb677e11e50ae2b889180885c413b68deea5e25b51afbac21e61ad"
        )
