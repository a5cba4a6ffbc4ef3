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
— several minutes; all IPCs are cached.  Set ``RESCUE_FULL=1`` to simulate
all 64 degraded configurations instead of composing.
"""

from conftest import (
    BENCH_INSTRUCTIONS,
    BENCH_WARMUP,
    FULL_SWEEP,
    cache_json,
    print_table,
    save_json,
)

from repro.cpu import MachineConfig
from repro.cpu.degraded import degraded_params, ipc_tables, measured_configs
from repro.workloads import PROFILES
from repro.yieldmodel import FaultDensityModel, YatModel, cores_per_chip

NODES = (90, 65, 32, 18)
GROWTHS = (0.2, 0.3, 0.4, 0.5)
_CACHE = (
    f"fig9_{BENCH_INSTRUCTIONS}_{BENCH_WARMUP}_"
    f"{'full' if FULL_SWEEP else 'compose'}"
)


def _collect_ipcs(ipc_cache):
    """(baseline IPC, Rescue config→IPC table) per benchmark."""
    compose = not FULL_SWEEP
    base_cfg = MachineConfig(rescue=False)
    resc_cfg = MachineConfig(rescue=True)
    bases, points = {}, {}
    for prof in PROFILES:
        bases[prof.name] = ipc_cache.get_or_run(
            prof.name, base_cfg, n_instructions=BENCH_INSTRUCTIONS,
            warmup=BENCH_WARMUP,
        )
        for counts in measured_configs(compose):
            points[(prof.name, counts.key())] = ipc_cache.get_or_run(
                prof.name, degraded_params(resc_cfg, counts),
                n_instructions=BENCH_INSTRUCTIONS, warmup=BENCH_WARMUP,
            )
    tables = ipc_tables(points)
    return {name: (base, tables[name]) for name, base in bases.items()}


def _grid(ipcs):
    """scenario → growth → node → averaged YatResult triple."""
    grid = {}
    for stag in (90, 65):
        anchor = (90.0, 1) if stag == 90 else (65.0, 2)
        density = FaultDensityModel(stagnation_node_nm=stag)
        for growth in GROWTHS:
            for node in NODES:
                nr = cs = rs = 0.0
                for name, (base_ipc, table) in ipcs.items():
                    model = YatModel(
                        density=density,
                        growth=growth,
                        baseline_ipc=base_ipc,
                        rescue_ipc=table,
                        anchor=anchor,
                    )
                    r = model.evaluate(node)
                    nr += r.no_redundancy
                    cs += r.core_sparing
                    rs += r.rescue
                n = len(ipcs)
                grid[(stag, growth, node)] = (nr / n, cs / n, rs / n)
    return grid


def _compute(ipc_cache):
    cached = cache_json(_CACHE)
    if cached is not None:
        return {
            tuple(map(float, k.split("|"))): v for k, v in cached.items()
        }
    ipcs = _collect_ipcs(ipc_cache)
    grid = _grid(ipcs)
    save_json(
        _CACHE,
        {"|".join(map(str, k)): v for k, v in grid.items()},
    )
    return grid


def test_figure9_yat(benchmark, ipc_cache):
    grid = _compute(ipc_cache)

    for stag in (90, 65):
        rows = []
        for growth in GROWTHS:
            for node in NODES:
                nr, cs, rs = grid[(stag, growth, node)]
                anchor = (90.0, 1) if stag == 90 else (65.0, 2)
                k = cores_per_chip(
                    node, growth, anchor_node_nm=anchor[0],
                    anchor_cores=anchor[1],
                )
                gain = 100 * (rs / cs - 1) if cs else 0.0
                rows.append((
                    f"{int(growth*100)}%", f"{node}nm", k,
                    f"{nr:.3f}", f"{cs:.3f}", f"{rs:.3f}", f"{gain:+.1f}%",
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
        nr, cs, rs = grid[(stag, growth, node)]
        return rs / cs - 1

    # CS >= no redundancy everywhere; Rescue > CS at the far nodes.
    for key, (nr, cs, rs) in grid.items():
        assert cs >= nr - 1e-9
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
