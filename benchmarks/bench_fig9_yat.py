"""Figure 9 — YAT improvement from redundancy.

For both fault-density scenarios (PWP stagnating at 90nm and at 65nm),
four core-growth rates, and the nodes 90/65/32/18nm, computes the average
(over the 23 benchmarks) relative YAT of:

- a chip with no redundancy,
- core sparing (CS),
- Rescue on top of core sparing,

plus the cores-per-chip table under the bars and the Rescue/CS improvement
percentages the paper quotes (+12%/+22% at 32/18nm for the headline
scenario; +25%/+40% at 50% growth; +8%/+14% for 65nm stagnation).

First run simulates 23 benchmarks × (1 baseline + 7 Rescue configurations)
— several minutes.  The Rescue IPCs are the ``ipc`` campaign's sweep (the
``figure_ipcs`` fixture, shared with Figure 8), resumed from its checkpoint
store on later runs; the grid is :func:`repro.yieldmodel.yat.yat_grid`.
Set ``RESCUE_FULL=1`` to simulate all 64 degraded configurations instead
of composing.
"""

from conftest import print_table

from repro.yieldmodel import FaultDensityModel, YatModel
from repro.yieldmodel.yat import yat_grid

NODES = (90, 65, 32, 18)
GROWTHS = (0.2, 0.3, 0.4, 0.5)


def test_figure9_yat(benchmark, figure_ipcs):
    grid = yat_grid(figure_ipcs, (90, 65), GROWTHS, NODES)

    for stag in (90, 65):
        rows = []
        for growth in GROWTHS:
            for node in NODES:
                r = grid[(stag, growth, node)]
                rows.append((
                    f"{int(growth*100)}%", f"{node}nm", r.cores,
                    f"{r.no_redundancy:.3f}", f"{r.core_sparing:.3f}",
                    f"{r.rescue:.3f}", f"{100 * r.rescue_over_cs:+.1f}%",
                ))
        print_table(
            f"Figure 9{'a' if stag == 90 else 'b'}: relative YAT, "
            f"PWP stagnating at {stag}nm",
            ("growth", "node", "cores", "no-redundancy", "+core sparing",
             "+Rescue", "Rescue/CS"),
            rows,
        )

    # Shape assertions drawn from Section 6.3.
    def gain(stag, growth, node):
        return grid[(stag, growth, node)].rescue_over_cs

    # CS >= no redundancy everywhere; Rescue > CS at the far nodes.
    for r in grid.values():
        assert r.core_sparing >= r.no_redundancy - 1e-9
    assert gain(90, 0.3, 18) > gain(90, 0.3, 32) > 0
    # Larger growth -> larger Rescue advantage.
    assert gain(90, 0.5, 18) > gain(90, 0.2, 18)
    # Later PWP stagnation -> smaller opportunity.
    assert gain(90, 0.3, 18) > gain(65, 0.3, 18)
    # Headline magnitudes in the paper's neighbourhood.
    assert 0.05 < gain(90, 0.3, 18) < 0.6
    assert 0.02 < gain(65, 0.3, 18) < 0.3

    # Benchmark the analytic YAT evaluation (no simulation inside).
    from repro.yieldmodel.yat import flat_rescue_ipc

    model = YatModel(
        density=FaultDensityModel(stagnation_node_nm=90),
        growth=0.3,
        baseline_ipc=2.0,
        rescue_ipc=flat_rescue_ipc(1.95, lambda cfg: 0.9),
    )
    benchmark(lambda: model.evaluate(18))
