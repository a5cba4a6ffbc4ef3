"""Fault-injected service runs: recovery must be bit-identical.

The harness (``repro.service.testing``) simulates worker loss two ways —
a kill between shards (checkpoint durable, run dies) and a kill
mid-checkpoint-append (torn blob write) — and the service must resume
each time from the checkpoint store and merge to exactly the result a
direct, uninterrupted runner call produces.  The Hypothesis test drives
arbitrary interleavings of submit / kill / torn-write / restart /
resubmit against a stepped (``service_workers=0``) service, which makes
every schedule deterministic and shrinkable.
"""

import dataclasses
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.runner import (
    CheckpointStore,
    MonteCarloSpec,
    get_campaign,
    run_montecarlo,
)
from repro.service import JobFailedError
from repro.service.testing import (
    FaultInjector,
    FaultPlan,
    service_fixture,
)

MC_PARAMS = {"n_chips": 400, "chunk_size": 50}  # 8 shards

_DIRECT_CACHE = {}


def mc_direct(params=None):
    """Memoized direct-runner reference result."""
    key = tuple(sorted((params or MC_PARAMS).items()))
    if key not in _DIRECT_CACHE:
        _DIRECT_CACHE[key] = dataclasses.asdict(
            run_montecarlo(
                MonteCarloSpec(**dict(key)), checkpoint=False
            )
        )
    return _DIRECT_CACHE[key]


class TestKillRecovery:
    def test_kill_mid_campaign_resumes_from_checkpoints(self, tmp_path):
        faults = FaultInjector()
        faults.push(FaultPlan(kill_after_shards=2))
        with service_fixture(
            tmp_path, service_workers=0, faults=faults, max_retries=5
        ) as (client, svc):
            job = client.submit("montecarlo", MC_PARAMS)["job"]
            assert svc.run_once()  # dies after 2 computed shards
            st = client.status(job)
            assert st["state"] == "queued"  # auto-requeued for resume
            assert st["progress"]["done"] == 2
            assert faults.kills == 1
            assert svc.run_once()  # clean resume
            st = client.status(job)
            assert st["state"] == "done"
            assert st["progress"]["cached"] == 2  # checkpoints reused
            assert st["progress"]["done"] == 8
            assert client.result(job)["result"] == mc_direct()

    def test_torn_checkpoint_append_recovers_bit_identically(
        self, tmp_path
    ):
        faults = FaultInjector()
        faults.push(FaultPlan(torn_append_at=3))
        with service_fixture(
            tmp_path, service_workers=0, faults=faults, max_retries=5
        ) as (client, svc):
            job = client.submit("montecarlo", MC_PARAMS)["job"]
            assert svc.run_once()  # dies mid-write of shard 3's blob
            store = CheckpointStore.for_spec(
                "montecarlo", svc.queue.get(job).spec, svc.cache_root
            )
            # The torn shard is absent; its two predecessors survived.
            assert sorted(store.load()) == [0, 1]
            assert svc.run_once()
            assert client.status(job)["state"] == "done"
            assert client.result(job)["result"] == mc_direct()

    def test_retries_exhausted_fails_then_resubmit_revives(
        self, tmp_path
    ):
        faults = FaultInjector()
        for _ in range(3):
            faults.push(FaultPlan(kill_after_shards=1))
        with service_fixture(
            tmp_path, service_workers=0, faults=faults, max_retries=1
        ) as (client, svc):
            job = client.submit("montecarlo", MC_PARAMS)["job"]
            assert svc.run_once()  # attempt 1: killed, retried
            assert svc.run_once()  # attempt 2: killed, retries exhausted
            st = client.status(job)
            assert st["state"] == "failed"
            assert "WorkerKilled" in st["error"]
            with pytest.raises(JobFailedError):
                client.wait(job, timeout=5)
            # Explicit resubmission revives the job with resume=True.
            again = client.submit("montecarlo", MC_PARAMS)
            assert again["job"] == job
            assert again["state"] == "queued"
            assert svc.run_once()  # third planned kill fires
            assert svc.run_once()  # plans empty: clean resume
            assert client.status(job)["state"] == "done"
            assert client.result(job)["result"] == mc_direct()

    def test_kill_restart_resume_across_service_instances(
        self, tmp_path
    ):
        faults = FaultInjector()
        faults.push(FaultPlan(kill_after_shards=3))
        with service_fixture(
            tmp_path, service_workers=0, faults=faults, max_retries=5
        ) as (client, svc):
            job = client.submit("montecarlo", MC_PARAMS)["job"]
            assert svc.run_once()
        # New service process-equivalent on the same root: the journal
        # replays the unfinished job, checkpoints carry the 3 shards.
        with service_fixture(
            tmp_path, service_workers=0
        ) as (client, svc):
            st = client.status(job)
            assert st["state"] == "queued"
            assert svc.run_once()
            st = client.status(job)
            assert st["state"] == "done"
            assert st["progress"]["cached"] == 3
            assert client.result(job)["result"] == mc_direct()


#: Campaign params sized so every campaign runs in a few seconds with
#: shared worker-global state reused between the direct and service run.
ALL_CAMPAIGN_CASES = [
    ("montecarlo", MC_PARAMS),
    ("ipc", {"benchmarks": ["gzip"], "n_instructions": 400,
             "warmup": 200, "chunk_size": 2}),
    ("inject", {"benchmark": "gzip", "n_instructions": 300,
                "n_faults": 6, "chunk_size": 2}),
    ("isolation", {"n_faults": 12, "chunk_size": 3}),
]


@pytest.mark.parametrize(
    "campaign,params",
    ALL_CAMPAIGN_CASES,
    ids=[c for c, _ in ALL_CAMPAIGN_CASES],
)
def test_all_campaigns_service_equals_direct_under_kill(
    campaign, params, tmp_path
):
    """The acceptance property: for every registered campaign, the
    service's result under worker-kill/restart fault injection is
    bit-identical to a direct runner call."""
    entry = get_campaign(campaign)
    spec = entry.make_spec(params)
    direct = entry.run(
        spec, workers=1, resume=False, checkpoint=False
    ).to_json()
    faults = FaultInjector()
    faults.push(FaultPlan(kill_after_shards=1))
    with service_fixture(
        tmp_path, service_workers=0, faults=faults, max_retries=5
    ) as (client, svc):
        job = client.submit(campaign, params)["job"]
        assert svc.run_once()  # killed after one shard
        assert client.status(job)["state"] == "queued"
    # Service restart on the same root (journal + checkpoints).
    with service_fixture(tmp_path, service_workers=0) as (client, svc):
        assert svc.run_once()
        st = client.status(job)
        assert st["state"] == "done"
        assert st["progress"]["cached"] >= 1
        assert client.result(job)["result"] == direct


# ----------------------------------------------------------------------
# Property test: arbitrary submit/kill/restart/resubmit interleavings
# ----------------------------------------------------------------------

_PROP_PARAMS = {"n_chips": 120, "chunk_size": 30}  # 4 shards


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    ops=st.lists(
        st.sampled_from(
            ["submit", "run", "kill1", "kill2", "torn1", "torn2",
             "restart"]
        ),
        max_size=6,
    )
)
def test_any_interleaving_is_bit_identical_to_direct(ops):
    """For any schedule of submit / kill-after-k / torn-append /
    restart / resubmit on one spec hash, the job converges to exactly
    the direct runner result and never computes more than one logical
    run (all retries resume the same checkpoint lineage)."""
    direct = mc_direct(_PROP_PARAMS)
    faults = FaultInjector()
    root = tempfile.mkdtemp(prefix="repro-svc-prop-")
    kw = dict(
        service_workers=0, faults=faults, max_retries=100
    )
    svc_ctx = service_fixture(root, **kw)
    client, svc = svc_ctx.__enter__()
    try:
        client.submit("montecarlo", _PROP_PARAMS)
        for op in ops:
            if op == "submit":
                client.submit("montecarlo", _PROP_PARAMS)
            elif op == "run":
                svc.run_once()
            elif op.startswith("kill"):
                faults.push(
                    FaultPlan(kill_after_shards=int(op[-1]))
                )
                svc.run_once()
            elif op.startswith("torn"):
                faults.push(FaultPlan(torn_append_at=int(op[-1])))
                svc.run_once()
            elif op == "restart":
                svc_ctx.__exit__(None, None, None)
                svc_ctx = service_fixture(root, **kw)
                client, svc = svc_ctx.__enter__()
        # Drive to completion: no more faults, drain the queue.
        faults.clear()
        snap = client.submit("montecarlo", _PROP_PARAMS)
        while svc.run_once():
            pass
        st = client.status(snap["job"])
        assert st["state"] == "done"
        assert client.result(snap["job"])["result"] == direct
        # One job identity throughout, however chaotic the schedule.
        assert len(client.jobs()) == 1
    finally:
        svc_ctx.__exit__(None, None, None)
