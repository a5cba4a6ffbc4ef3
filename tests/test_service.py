"""Campaign service: API contract, idempotency, backpressure, metrics.

Fault-injection and crash-recovery coverage lives in
``test_service_faults.py`` (in-process, deterministic) and
``test_service_recovery.py`` (real SIGKILL against a subprocess).
"""

import dataclasses
import json
import threading

import pytest

from repro.runner import (
    REGISTRY,
    CheckpointStore,
    MonteCarloSpec,
    get_campaign,
    run_montecarlo,
)
from repro.runner.store import config_hash
from repro.service import QueueFullError, ServiceError
from repro.service.jobs import JobJournal
from repro.service.testing import service_fixture
from repro.telemetry import TELEMETRY

#: Small, fast campaign used throughout: 4 shards, ~50ms total.
MC_PARAMS = {"n_chips": 400, "chunk_size": 100}
MC_SPEC = MonteCarloSpec(**MC_PARAMS)


@pytest.fixture(scope="module")
def mc_direct():
    """The direct-runner reference result for MC_PARAMS."""
    return dataclasses.asdict(run_montecarlo(MC_SPEC, checkpoint=False))


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

class TestRegistry:
    def test_all_six_campaigns_registered(self):
        assert tuple(REGISTRY) == ("isolation", "montecarlo", "ipc",
                                   "inject", "decide", "repair")

    def test_make_spec_fills_defaults_and_coerces_tuples(self):
        entry = get_campaign("inject")
        spec = entry.make_spec({"counts": [1, 1, 1, 1, 1, 1],
                                "blocks": ["rob.half1"]})
        assert spec.counts == (1, 1, 1, 1, 1, 1)
        assert spec.blocks == ("rob.half1",)
        assert spec.benchmark == "gzip"  # default filled

    def test_make_spec_rejects_unknown_params(self):
        with pytest.raises(TypeError):
            get_campaign("montecarlo").make_spec({"n_chops": 5})

    @pytest.mark.parametrize("engine", ["word", "legacy"])
    def test_isolation_rejects_retired_backend_param(self, engine):
        """A job spec from before the single-engine change fails loudly
        instead of silently running on a different engine."""
        with pytest.raises(TypeError):
            get_campaign("isolation").make_spec({"backend": engine})

    def test_job_key_is_canonical(self):
        entry = get_campaign("montecarlo")
        # Explicitly passing a default produces the same job identity.
        a = entry.job_key(entry.make_spec({"n_chips": 400}))
        b = entry.job_key(
            entry.make_spec({"n_chips": 400, "seed": 0})
        )
        assert a == b

    def test_store_for_matches_campaign_internal_store(self):
        entry = get_campaign("montecarlo")
        spec = entry.make_spec(MC_PARAMS)
        expected = CheckpointStore(
            "montecarlo",
            config_hash(dataclasses.asdict(spec)),
            root="/tmp/x",
        )
        assert entry.store_for(spec, "/tmp/x").path == expected.path

    @pytest.mark.parametrize("name", list(REGISTRY))
    def test_result_codec_roundtrip(self, name):
        entry = get_campaign(name)
        if name == "isolation":
            from repro.rtl.experiment import IsolationStats

            result = IsolationStats(
                inserted=5, undetected=1, correct=4,
                by_block={"iq": 4},
            )
        elif name == "montecarlo":
            from repro.yieldmodel.montecarlo import MonteCarloResult

            result = MonteCarloResult(10, 0.5, 0.1, 0.2, 0.01)
        elif name == "ipc":
            from repro.runner.campaigns import IpcSweepResult

            result = IpcSweepResult(
                {("gzip", (2, 2, 2, 2, 2, 2)): 1.5,
                 ("mcf", (1, 2, 2, 2, 2, 2)): 1.2}
            )
        elif name == "decide":
            from repro.decide import DecideSpec, evaluate
            from repro.inject.campaign import InjectionStats
            from repro.yieldmodel.configs import CoreCounts, DIMENSIONS

            measured = {("gzip", CoreCounts().key()): 1.5}
            for dim in DIMENSIONS:
                measured[("gzip", CoreCounts(**{dim: 1}).key())] = 1.2
            result = evaluate(
                DecideSpec(benchmarks=("gzip",)),
                measured,
                InjectionStats(),
            )
        elif name == "repair":
            from repro.repair import RepairAction, RepairResult

            result = RepairResult(
                model="baseline",
                n_observers=10,
                violations=[{
                    "id": "ici-0011223344", "observer": "f[0]",
                    "observer_block": "iq", "blocks": ["iq", "lsq"],
                    "candidates": [{
                        "kind": "redrive", "verified": True,
                        "stage": "verified", "reason": "",
                        "extra_area": 4.0, "note": "",
                    }],
                }],
                actions=[RepairAction(
                    vid="ici-0011223344", observer="f[0]",
                    observer_block="iq", kind="redrive", extra_area=4.0,
                )],
                base_area=100.0,
                extra_area=4.0,
                n_patterns=64,
            )
        else:
            from repro.inject.campaign import InjectionStats

            result = InjectionStats()
            result.outcomes["masked"] = 3
        payload = entry.result_to_json(result)
        json.dumps(payload)  # must be JSON-clean
        restored = entry.result_from_json(payload)
        assert entry.result_to_json(restored) == payload
        assert isinstance(entry.summarize(restored), str)


# ----------------------------------------------------------------------
# Store hardening
# ----------------------------------------------------------------------

class TestStoreTornTail:
    def test_append_seals_torn_tail(self, tmp_path):
        store = CheckpointStore("c", "k", root=tmp_path)
        store.append(0, {"a": 1})
        with open(store.path, "a") as f:
            f.write('{"shard": 1, "payl')  # torn mid-write
        assert store.load() == {0: {"a": 1}}
        store.append(1, {"b": 2})  # must not glue onto the torn line
        assert store.load() == {0: {"a": 1}, 1: {"b": 2}}

    def test_append_to_clean_file_adds_no_blank_lines(self, tmp_path):
        store = CheckpointStore("c", "k", root=tmp_path)
        store.append(0, 1)
        store.append(1, 2)
        assert "" not in store.path.read_text().strip().splitlines()


# ----------------------------------------------------------------------
# HTTP API
# ----------------------------------------------------------------------

class TestServiceApi:
    def test_submit_wait_result_bit_identical(self, tmp_path, mc_direct):
        with service_fixture(tmp_path, service_workers=1) as (client, _):
            snap = client.submit("montecarlo", MC_PARAMS)
            assert snap["created"] is True
            payload = client.wait(snap["job"], timeout=60)
            assert payload["result"] == mc_direct

    def test_resubmit_after_completion_is_idempotent(self, tmp_path):
        with service_fixture(tmp_path, service_workers=1) as (client, _):
            snap = client.submit("montecarlo", MC_PARAMS)
            client.wait(snap["job"], timeout=60)
            again = client.submit("montecarlo", MC_PARAMS)
            assert again["job"] == snap["job"]
            assert again["created"] is False
            assert again["state"] == "done"
            assert again["run_count"] == 1  # exactly one computation

    def test_unknown_campaign_and_bad_params_are_400(self, tmp_path):
        with service_fixture(tmp_path, service_workers=0) as (client, _):
            with pytest.raises(ServiceError) as err:
                client.submit("frobnicate", {})
            assert err.value.status == 400
            with pytest.raises(ServiceError) as err:
                client.submit("montecarlo", {"n_chops": 5})
            assert err.value.status == 400
            with pytest.raises(ServiceError) as err:
                client.status("nonexistent-job")
            assert err.value.status == 404

    def test_status_streams_shard_events(self, tmp_path):
        with service_fixture(tmp_path, service_workers=1) as (client, _):
            snap = client.submit("montecarlo", MC_PARAMS)
            client.wait(snap["job"], timeout=60)
            st = client.status(snap["job"], events_since=0)
            assert st["progress"]["total"] == 4
            assert st["progress"]["done"] == 4
            shards = [ev["shard"] for ev in st["events"]]
            assert sorted(shards) == [0, 1, 2, 3]
            # Tail from an offset: a live monitor's incremental poll.
            tail = client.status(snap["job"], events_since=2)
            assert tail["events"] == st["events"][2:]

    def test_health_and_campaigns(self, tmp_path):
        with service_fixture(tmp_path, service_workers=0) as (client, _):
            assert client.health()["ok"] is True
            assert client.campaigns() == list(REGISTRY)

    def test_jobs_listing_contract(self, tmp_path):
        # GET /jobs is the dashboard's data source: every snapshot must
        # carry the fields the page renders (job, campaign, state,
        # progress.done/total, error).
        with service_fixture(tmp_path, service_workers=1) as (client, _):
            assert client.jobs() == []
            snap = client.submit("montecarlo", MC_PARAMS)
            client.wait(snap["job"], timeout=60)
            jobs = client.jobs()
            assert len(jobs) == 1
            (job,) = jobs
            assert job["job"] == snap["job"]
            assert job["campaign"] == "montecarlo"
            assert job["state"] == "done"
            assert job["error"] is None
            assert job["progress"]["done"] == job["progress"]["total"]

    def test_dashboard_served_at_root(self, tmp_path):
        import urllib.request

        with service_fixture(tmp_path, service_workers=0) as (client, svc):
            with urllib.request.urlopen(svc.url + "/", timeout=10) as resp:
                assert resp.status == 200
                ctype = resp.headers.get("Content-Type", "")
                assert ctype.startswith("text/html")
                html = resp.read().decode("utf-8")
            assert html == client.dashboard()
            # The page only polls routes the server actually exposes.
            assert 'fetch("/jobs")' in html
            assert 'fetch("/metrics")' in html
            # The injection-replay panel surfaces the suffix-replay
            # economics from the telemetry counters.
            assert "inject.restore_reuses" in html
            assert "inject.cycles_saved" in html
            # Unknown paths still 404 as JSON, not the dashboard.
            with pytest.raises(ServiceError) as err:
                client._request("GET", "/nonesuch")
            assert err.value.status == 404


# ----------------------------------------------------------------------
# Backpressure + concurrency
# ----------------------------------------------------------------------

class TestBackpressure:
    def test_queue_full_returns_429_with_retry_after(self, tmp_path):
        with service_fixture(
            tmp_path, service_workers=0, queue_size=2, retry_after=3.0
        ) as (client, svc):
            client.submit("montecarlo", {"n_chips": 100, "seed": 1})
            client.submit("montecarlo", {"n_chips": 100, "seed": 2})
            with pytest.raises(QueueFullError) as err:
                client.submit("montecarlo", {"n_chips": 100, "seed": 3})
            assert err.value.retry_after == 3.0
            # No duplicate was enqueued by the rejected submission.
            assert len(client.jobs()) == 2
            assert svc.queue.queued_count() == 2

    def test_duplicate_submit_coalesces_even_when_full(self, tmp_path):
        with service_fixture(
            tmp_path, service_workers=0, queue_size=2
        ) as (client, _):
            first = client.submit(
                "montecarlo", {"n_chips": 100, "seed": 1}
            )
            client.submit("montecarlo", {"n_chips": 100, "seed": 2})
            # Same spec as a queued job: dedup wins over capacity.
            again = client.submit(
                "montecarlo", {"n_chips": 100, "seed": 1}
            )
            assert again["job"] == first["job"]
            assert again["created"] is False
            assert len(client.jobs()) == 2

    def test_concurrent_duplicate_submits_one_run(
        self, tmp_path, mc_direct
    ):
        with service_fixture(tmp_path, service_workers=1) as (client, _):
            results = [None, None]
            barrier = threading.Barrier(2)

            def submit(i):
                barrier.wait()
                results[i] = client.submit("montecarlo", MC_PARAMS)

            threads = [
                threading.Thread(target=submit, args=(i,))
                for i in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert results[0]["job"] == results[1]["job"]
            assert sum(1 for r in results if r["created"]) == 1
            payload = client.wait(results[0]["job"], timeout=60)
            assert payload["result"] == mc_direct
            st = client.status(results[0]["job"])
            assert st["run_count"] == 1  # one underlying run
            assert len(client.jobs()) == 1


# ----------------------------------------------------------------------
# Journal replay (restart serves cached results)
# ----------------------------------------------------------------------

class TestJournal:
    def test_restart_serves_completed_result_without_recompute(
        self, tmp_path, mc_direct
    ):
        with service_fixture(tmp_path, service_workers=1) as (client, _):
            job = client.submit("montecarlo", MC_PARAMS)["job"]
            client.wait(job, timeout=60)
        with service_fixture(tmp_path, service_workers=1) as (client, svc):
            st = client.status(job)
            assert st["state"] == "done"
            assert st["run_count"] == 0  # never re-executed here
            assert client.result(job)["result"] == mc_direct
            # Resubmission coalesces onto the journaled result.
            again = client.submit("montecarlo", MC_PARAMS)
            assert again["created"] is False
            assert svc.queue.queued_count() == 0

    def test_journal_replay_tolerates_torn_tail(self, tmp_path):
        journal = JobJournal(tmp_path)
        with service_fixture(tmp_path, service_workers=1) as (client, _):
            job = client.submit("montecarlo", MC_PARAMS)["job"]
            client.wait(job, timeout=60)
        with open(journal.path, "a") as f:
            f.write('{"ev": "done", "job": "xyz"')  # torn final line
        replayed = journal.replay()
        assert replayed[job]["state"] == "done"
        assert "xyz" not in replayed


# ----------------------------------------------------------------------
# /metrics
# ----------------------------------------------------------------------

def _campaign_view(det):
    """Deterministic view minus service-layer keys (job timing etc.)."""
    return {
        "counters": {
            k: v for k, v in det["counters"].items()
            if not k.startswith("service.")
        },
        "hists": {
            k: v for k, v in det["hists"].items()
            if not k.startswith("service.")
        },
    }


class TestMetricsEndpoint:
    def test_zero_cost_when_telemetry_off(self, tmp_path):
        assert not TELEMETRY.enabled
        TELEMETRY.reset()
        with service_fixture(tmp_path, service_workers=1) as (client, _):
            job = client.submit("montecarlo", MC_PARAMS)["job"]
            client.wait(job, timeout=60)
            payload = client.metrics()
            assert payload["enabled"] is False
            assert payload["metrics"] is None
            assert payload["service"]["jobs"] == {"done": 1}
        assert TELEMETRY.metrics.is_empty()  # nothing was recorded

    def test_metrics_match_direct_run_and_are_worker_invariant(
        self, tmp_path
    ):
        # Reference: the same campaign under a direct collect() scope.
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            with TELEMETRY.collect() as m:
                run_montecarlo(MC_SPEC, checkpoint=False)
            direct = _campaign_view(m.deterministic())

            views = {}
            for shard_workers in (1, 2):
                TELEMETRY.reset()
                root = tmp_path / f"w{shard_workers}"
                with service_fixture(
                    root,
                    service_workers=1,
                    shard_workers=shard_workers,
                ) as (client, _):
                    job = client.submit("montecarlo", MC_PARAMS)["job"]
                    client.wait(job, timeout=60)
                    payload = client.metrics()
                    assert payload["enabled"] is True
                    views[shard_workers] = _campaign_view(
                        payload["deterministic"]
                    )
            # Worker-count-invariant, and identical to merge_metrics'
            # aggregation of the direct run.
            assert views[1] == views[2] == direct
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
