"""The repro.telemetry contract: off by default, observation only,
order-insensitive merge, worker-count-invariant campaign metrics.

Four guarantees under test:

1. **Disabled by default, zero side effects.**  The singleton ships
   disabled; instrumented code records nothing, writes no files, and —
   critically — produces bit-identical engine outputs with telemetry on
   or off (instrumentation observes, never perturbs).
2. **Exact merge algebra.**  Counter and histogram merges are
   associative and (on the deterministic view) commutative, so any
   grouping of shard metrics yields the same totals.
3. **Scoped collection.**  ``TELEMETRY.collect()`` captures exactly the
   metrics recorded inside the scope, suppresses trace streaming, and
   restores the enclosing scope untouched.
4. **Runner determinism.**  A sharded campaign's aggregated metrics are
   bit-identical for --workers 1/2/4, and per-shard metrics survive
   checkpoint round-trips.
"""

import dataclasses
import json
import random as pyrandom

import numpy as np
import pytest

from repro.netlist import GateType, Netlist
from repro.netlist.compiled import PackedWordSimulator
from repro.netlist.faults import StuckAt
from repro.telemetry import (
    TELEMETRY,
    Hist,
    Metrics,
    SpanStat,
    TraceSink,
    read_trace,
    summarize,
)


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Every test starts and ends with a pristine disabled registry."""
    TELEMETRY.disable()
    TELEMETRY.sink = None
    TELEMETRY.reset()
    yield
    TELEMETRY.disable()
    TELEMETRY.sink = None
    TELEMETRY.reset()


def _small_netlist(seed: int = 3, n_inputs: int = 6, n_gates: int = 40):
    rng = pyrandom.Random(seed)
    nl = Netlist(f"tele{seed}")
    nets = [nl.add_input(f"i{k}") for k in range(n_inputs)]
    for _ in range(n_gates):
        kind = rng.choice(
            [GateType.AND, GateType.OR, GateType.XOR, GateType.NAND,
             GateType.NOR, GateType.NOT]
        )
        n_in = 1 if kind is GateType.NOT else 2
        nets.append(
            nl.add_gate(kind, [rng.choice(nets) for _ in range(n_in)])
        )
    for net in rng.sample(nets, 3):
        nl.mark_output(net)
    for i in range(2):
        nl.add_flop(rng.choice(nets), name=f"f{i}")
    return nl


class TestDisabledByDefault:
    def test_singleton_ships_disabled(self):
        assert TELEMETRY.enabled is False

    def test_primitives_record_nothing_when_disabled(self):
        TELEMETRY.count("x")
        TELEMETRY.observe("y", 3.0)
        with TELEMETRY.span("z"):
            pass
        assert TELEMETRY.metrics.is_empty()

    def test_disabled_span_is_shared_noop(self):
        a = TELEMETRY.span("a")
        b = TELEMETRY.span("b")
        assert a is b  # no per-call allocation on the disabled path

    def test_engine_outputs_identical_on_and_off(self):
        nl = _small_netlist()
        sim_a = PackedWordSimulator(nl)
        rng = np.random.default_rng(0)
        patterns = rng.integers(
            0, 2, size=(70, sim_a.n_sources)
        ).astype(bool)
        fault = StuckAt(net=nl.gates[10].output, value=0)

        values_off = sim_a.good_values(patterns)
        delta_off = sim_a.faulty_values(values_off, fault)
        po_off, st_off = sim_a.capture(
            values_off, fault=fault, delta=delta_off
        )

        TELEMETRY.enable()
        sim_b = PackedWordSimulator(nl)
        values_on = sim_b.good_values(patterns)
        delta_on = sim_b.faulty_values(values_on, fault)
        po_on, st_on = sim_b.capture(
            values_on, fault=fault, delta=delta_on
        )
        TELEMETRY.disable()

        assert (po_off == po_on).all()
        assert (st_off == st_on).all()
        assert set(delta_off) == set(delta_on)
        # ... and the enabled run did record engine counters.
        assert TELEMETRY.metrics.counters["engine.resim.calls"] == 1

    def test_no_trace_file_without_sink(self, tmp_path):
        TELEMETRY.enable()
        with TELEMETRY.span("s"):
            TELEMETRY.count("c")
        TELEMETRY.disable()
        assert list(tmp_path.iterdir()) == []


class TestMergeAlgebra:
    def _metrics(self, seed: int) -> Metrics:
        rng = pyrandom.Random(seed)
        m = Metrics()
        for name in ("a", "b", "c"):
            m.counters[name] = rng.randrange(100)
        h = m.hists["h"] = Hist()
        for _ in range(rng.randrange(1, 6)):
            h.observe(rng.randrange(50))
        m.spans["s"] = SpanStat(rng.randrange(1, 4), rng.random())
        return m

    def test_counter_sums_exact(self):
        a, b = self._metrics(1), self._metrics(2)
        merged = a.merge(b)
        for name in ("a", "b", "c"):
            assert merged.counters[name] == (
                a.counters[name] + b.counters[name]
            )

    def test_associative(self):
        a, b, c = (self._metrics(s) for s in (1, 2, 3))
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left.to_json() == right.to_json()

    def test_deterministic_view_commutative(self):
        a, b = self._metrics(4), self._metrics(5)
        assert a.merge(b).deterministic() == b.merge(a).deterministic()

    def test_merge_with_empty_is_identity(self):
        a = self._metrics(6)
        assert a.merge(Metrics()).to_json() == a.to_json()
        assert Metrics().merge(a).to_json() == a.to_json()

    def test_hist_integer_series_stays_int(self):
        h = Hist()
        for v in (3, 5, 11):
            h.observe(v)
        assert isinstance(h.total, int)
        merged = h.merge(Hist(2, 7, 2, 5))
        assert merged.total == 26 and isinstance(merged.total, int)
        assert (merged.n, merged.min, merged.max) == (5, 2, 11)

    def test_json_roundtrip(self):
        a = self._metrics(7)
        assert Metrics.from_json(a.to_json()).to_json() == a.to_json()


class TestCollectScoping:
    def test_captures_inner_restores_outer(self):
        TELEMETRY.enable()
        TELEMETRY.count("outer")
        with TELEMETRY.collect() as inner:
            TELEMETRY.count("inner", 5)
        assert inner.counters == {"inner": 5}
        assert TELEMETRY.metrics.counters == {"outer": 1}

    def test_suppresses_sink(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = TraceSink(path, meta={"command": "test"})
        TELEMETRY.enable(sink)
        with TELEMETRY.collect():
            with TELEMETRY.span("hidden"):
                pass
        with TELEMETRY.span("visible"):
            pass
        TELEMETRY.sink = None
        sink.close(TELEMETRY.metrics)
        names = [ev["name"] for ev in read_trace(path)["spans"]]
        assert names == ["visible"]

    def test_merge_metrics_mutates_in_place(self):
        TELEMETRY.enable()
        with TELEMETRY.collect() as outer:
            shard = Metrics(counters={"n": 2})
            TELEMETRY.merge_json(shard.to_json())
        # The held reference sees the merge (a rebinding bug here would
        # silently drop every shard's metrics).
        assert outer.counters == {"n": 2}


class TestSpansAndTrace:
    def test_nested_span_paths(self):
        TELEMETRY.enable()
        with TELEMETRY.span("atpg"):
            with TELEMETRY.span("random"):
                pass
            with TELEMETRY.span("random"):
                pass
        spans = TELEMETRY.metrics.spans
        assert spans["atpg"].n == 1
        assert spans["atpg/random"].n == 2
        assert spans["atpg/random"].total_s <= spans["atpg"].total_s

    def test_trace_roundtrip_and_summary(self, tmp_path):
        path = tmp_path / "run.jsonl"
        sink = TraceSink(path, meta={"command": "x", "argv": ["x"]})
        TELEMETRY.enable(sink)
        with TELEMETRY.span("work"):
            TELEMETRY.count("items", 3)
            TELEMETRY.observe("size", 7)
        TELEMETRY.disable()
        TELEMETRY.sink = None
        sink.close(TELEMETRY.metrics)

        trace = read_trace(path)
        assert trace["meta"]["command"] == "x"
        assert [ev["name"] for ev in trace["spans"]] == ["work"]
        assert trace["summary"].counters == {"items": 3}
        report = summarize(path)
        assert "items" in report and "work" in report

    def test_truncated_trace_falls_back_to_events(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        sink = TraceSink(path, meta={"command": "x"})
        TELEMETRY.enable(sink)
        with TELEMETRY.span("done"):
            pass
        TELEMETRY.disable()
        sink._f.close()  # killed before the summary record
        with open(path, "a") as f:
            f.write('{"ev":"span","na')  # torn mid-write
        trace = read_trace(path)
        assert trace["summary"] is None
        report = summarize(path)
        assert "done" in report and "truncated" in report

    def test_replay_rows_in_summary_and_dashboard(self):
        from repro.service import DASHBOARD_HTML
        from repro.telemetry import render_metrics
        from repro.telemetry.report import REPLAY_ROWS

        counters = {name: 1000 + i for i, (name, _) in enumerate(REPLAY_ROWS)}
        report = render_metrics(Metrics(counters=counters))
        head, _, table = report.partition("counters:")
        assert "injection replay:" in head
        for name, label in REPLAY_ROWS:
            assert label in head and name in table
            assert json.dumps(name) in DASHBOARD_HTML
        assert "inject.skipped_cycles" in dict(REPLAY_ROWS)
        assert "injection replay:" not in render_metrics(Metrics())


ISO_SPEC = None  # initialized lazily; the tiny model build is ~1 s


def _iso_spec():
    from repro.runner import IsolationSpec

    global ISO_SPEC
    if ISO_SPEC is None:
        ISO_SPEC = IsolationSpec(
            tiny=True, n_faults=60, max_deterministic=0, chunk_size=13
        )
    return ISO_SPEC


class TestRunnerMetrics:
    def _views(self, workers_list, **run_kwargs):
        from repro.runner import prepare_isolation, run_isolation

        spec = _iso_spec()
        prepare_isolation(spec)
        TELEMETRY.enable()
        views, stats = {}, {}
        for w in workers_list:
            with TELEMETRY.collect() as m:
                stats[w] = run_isolation(
                    spec, workers=w, checkpoint=False, **run_kwargs
                )
            views[w] = m.deterministic()
        TELEMETRY.disable()
        return views, stats

    def test_metrics_invariant_across_worker_counts(self):
        views, stats = self._views([1, 2, 4])
        assert stats[1] == stats[2] == stats[4]
        assert views[1] == views[2] == views[4]
        counters = views[1]["counters"]
        assert counters["scan.failing_bits_queries"] == 60
        assert counters["runner.shards.computed"] == 5

    def test_metrics_ride_in_checkpoints(self, tmp_path):
        from repro.runner import (
            CheckpointStore,
            prepare_isolation,
            run_isolation,
        )

        spec = _iso_spec()
        prepare_isolation(spec)
        TELEMETRY.enable()
        with TELEMETRY.collect():
            run_isolation(spec, workers=2, cache_root=tmp_path)
        TELEMETRY.disable()
        store = CheckpointStore.for_spec("isolation", spec, tmp_path)
        recs = store.load()
        assert len(recs) == 5
        for rec in recs.values():
            assert set(rec) == {"result", "metrics"}
            assert rec["metrics"]["counters"]["scan.failing_bits_queries"] > 0

    def test_disabled_campaign_checkpoints_no_metrics(self, tmp_path):
        from repro.runner import (
            CheckpointStore,
            prepare_isolation,
            run_isolation,
        )

        spec = _iso_spec()
        prepare_isolation(spec)
        run_isolation(spec, workers=2, cache_root=tmp_path)
        assert TELEMETRY.metrics.is_empty()
        store = CheckpointStore.for_spec("isolation", spec, tmp_path)
        for rec in store.load().values():
            assert rec["metrics"] is None

    def test_resume_reuses_shard_metrics(self, tmp_path):
        from repro.runner import (
            CheckpointStore,
            config_hash,
            prepare_isolation,
            run_isolation,
        )

        spec = _iso_spec()
        prepare_isolation(spec)
        TELEMETRY.enable()
        with TELEMETRY.collect() as fresh:
            run_isolation(spec, workers=2, cache_root=tmp_path)
        store = CheckpointStore(
            "isolation",
            config_hash(dataclasses.asdict(spec)),
            root=tmp_path,
        )
        store.drop([0, 1])
        with TELEMETRY.collect() as resumed:
            run_isolation(
                spec, workers=2, resume=True, cache_root=tmp_path
            )
        TELEMETRY.disable()
        # Cached shards contribute their stored metrics, so the resumed
        # aggregate equals the fresh one except for the cached/computed
        # split.
        fv, rv = fresh.deterministic(), resumed.deterministic()
        assert rv["counters"].pop("runner.shards.cached") == 3
        assert rv["counters"].pop("runner.shards.computed") == 2
        assert fv["counters"].pop("runner.shards.cached") == 0
        assert fv["counters"].pop("runner.shards.computed") == 5
        assert fv == rv


class TestCampaignState:
    """Campaign state is built once, in the calling process."""

    def test_decide_metrics_invariant_across_worker_counts(self):
        from repro.decide import DecideSpec, injection_spec, run_decide
        from repro.inject.campaign import prepare_injection

        spec = DecideSpec(
            benchmarks=("gzip",), n_instructions=300, warmup=100,
            inject_instructions=300, n_faults=8, inject_chunk=4,
        )
        TELEMETRY.enable()
        views, results = {}, {}
        for w in (1, 2):
            prepare_injection.cache_clear()  # each run builds its state
            with TELEMETRY.collect() as m:
                results[w] = run_decide(spec, workers=w, checkpoint=False)
            views[w] = m.deterministic()
        TELEMETRY.disable()
        assert results[1].to_json() == results[2].to_json()
        for view in views.values():
            # A scheduling metric (see ``_inject_worker``): inline shards
            # share the golden run's lazily filled convergence views,
            # each pool process fills its own.
            view["counters"].pop("inject.arena_decompressions")
        assert views[1] == views[2]
        golden = prepare_injection(injection_spec(spec))["golden"]
        assert (
            views[1]["counters"]["inject.golden_sim_cycles"]
            == golden.cycles
        )

    def test_prepared_injection_state_is_reused(self):
        from repro.inject import InjectionSpec, run_injection
        from repro.inject.campaign import prepare_injection

        spec = InjectionSpec(
            n_instructions=300, n_faults=4, chunk_size=2, seed=11
        )
        prepare_injection.cache_clear()
        TELEMETRY.enable()
        with TELEMETRY.collect() as m:
            golden = prepare_injection(spec)["golden"]
            run_injection(spec, checkpoint=False)
        TELEMETRY.disable()
        assert m.counters["inject.golden_sim_cycles"] == golden.cycles


class TestCliTrace:
    def test_run_with_trace_flag(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "mc.jsonl"
        code = main([
            "run", "montecarlo", "--n-chips", "40", "--chunk-size", "10",
            "--workers", "2", "--no-checkpoint", "--trace", str(path),
        ])
        assert code == 0
        assert TELEMETRY.enabled is False  # CLI cleans up after itself
        trace = read_trace(path)
        assert trace["meta"]["command"] == "run"
        summary = trace["summary"]
        assert summary.counters["montecarlo.chips"] == 40
        assert summary.counters["runner.shards.computed"] == 4
        assert any(name.startswith("cli/run") for name in summary.spans)
        err = capsys.readouterr().err
        assert "shard" in err and str(path) in err

    def test_trace_summarize_command(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "mc.jsonl"
        main([
            "run", "montecarlo", "--n-chips", "20", "--chunk-size", "10",
            "--no-checkpoint", "--trace", str(path),
        ])
        capsys.readouterr()
        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "montecarlo.chips" in out
        assert "counters:" in out

    def test_progress_goes_to_stderr_not_stdout(self, capsys):
        from repro.cli import main

        code = main([
            "run", "montecarlo", "--n-chips", "20", "--chunk-size", "10",
            "--no-checkpoint",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "shard" in captured.err
        assert "shard" not in captured.out
        assert "chips" in captured.out  # the result summary
