"""First-class test harness for the campaign service.

Ships with the package (not buried in ``tests/``) so downstream users
can harden their own deployments the same way the repo's test suite
does.  Two pieces:

- :func:`service_fixture` — an in-process service on an ephemeral port
  plus a bound :class:`~repro.service.client.ServiceClient`, torn down
  cleanly on exit.  ``service_workers=0`` yields a *stepped* service:
  nothing runs until the test calls
  :meth:`~repro.service.server.CampaignService.run_once`, which makes
  submit/kill/restart/resubmit interleavings fully deterministic.

- :class:`FaultInjector` — the service's ``faults`` hook.  Each queued
  :class:`FaultPlan` arms the *next* job execution with an injected
  failure: ``kill_after_shards=k`` raises
  :class:`~repro.service.jobs.WorkerKilled` out of the progress stream
  after the k-th freshly computed shard (the shard's checkpoint is
  already durable — a worker dying between shards), and
  ``torn_append_at=n`` crashes the n-th checkpoint append midway through
  its write, leaving half a blob in its tmp file (a worker dying
  *mid-shard*, mid-``write(2)``; see :func:`torn_write`).  Both model
  real SIGKILL timings; the recovery contract under test is that a
  resumed job skips completed shards, reruns the torn one, and merges to
  a bit-identical result.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Deque, Optional, Tuple

from repro.runner.store import Blobs, CheckpointStore, encode, tmp_path
from repro.service.client import ServiceClient
from repro.service.jobs import WorkerKilled
from repro.service.server import CampaignService


@dataclass(frozen=True)
class FaultPlan:
    """Failure schedule for one job execution.

    ``kill_after_shards``: raise after that many *computed* (non-cached)
    shards have landed and checkpointed.  ``torn_append_at``: on the
    n-th checkpoint append (1-based), write only half of the blob and
    die before it is renamed into place.
    """

    kill_after_shards: Optional[int] = None
    torn_append_at: Optional[int] = None


def torn_write(blobs: Blobs, key: str, value: Any) -> None:
    """Leave what a writer killed mid-``write(2)`` leaves behind.

    That is half of the blob in its tmp file; the rename onto
    ``blobs.path(key)`` never happens.
    """
    data = encode(value, blobs.extra)
    tmp = tmp_path(blobs.path(key))
    tmp.parent.mkdir(parents=True, exist_ok=True)
    tmp.write_bytes(data[: len(data) // 2])


class TornStore(CheckpointStore):
    """Checkpoint store that dies partway through a scheduled append."""

    def __init__(
        self,
        inner: CheckpointStore,
        torn_at: int,
        on_fire: Optional[Callable[[], None]] = None,
    ) -> None:
        self.blobs, self.prefix = inner.blobs, inner.prefix
        self._torn_at = torn_at
        self._appends = 0
        self._on_fire = on_fire

    def append(self, shard: int, payload: Any) -> None:
        self._appends += 1
        if self._appends == self._torn_at:
            torn_write(self.blobs, f"{self.prefix}{shard}", payload)
            if self._on_fire is not None:
                self._on_fire()
            raise WorkerKilled(
                f"torn append #{self._appends} (shard {shard})"
            )
        CheckpointStore.append(self, shard, payload)


class FaultInjector:
    """Queue of :class:`FaultPlan`\\ s applied to successive executions.

    Thread-safe; each call to :meth:`arm` (one per job execution) pops
    the next plan, so a test schedules exactly which run dies and how.
    With the queue empty, executions run clean.
    """

    def __init__(self) -> None:
        self._plans: Deque[FaultPlan] = deque()
        self._lock = threading.Lock()
        self.kills = 0  # injected failures actually fired

    def push(self, plan: FaultPlan) -> None:
        with self._lock:
            self._plans.append(plan)

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()

    def pending(self) -> int:
        with self._lock:
            return len(self._plans)

    def _count_kill(self) -> None:
        self.kills += 1

    # -- service hook ---------------------------------------------------
    def arm(
        self,
        job: Any,
        store: CheckpointStore,
        progress: Callable,
    ) -> Tuple[CheckpointStore, Callable]:
        """Wrap one execution's store and progress stream per the next plan."""
        with self._lock:
            plan = self._plans.popleft() if self._plans else None
        if plan is None:
            return store, progress
        if plan.torn_append_at is not None:
            inner_store = TornStore(
                store, plan.torn_append_at, on_fire=self._count_kill
            )
        else:
            inner_store = store
        if plan.kill_after_shards is None:
            return inner_store, progress

        state = {"computed": 0}
        limit = plan.kill_after_shards

        def killing_progress(ev) -> None:
            progress(ev)
            if not ev.cached:
                state["computed"] += 1
                if state["computed"] >= limit:
                    self._count_kill()
                    raise WorkerKilled(
                        f"injected kill after {limit} computed shard(s)"
                    )

        return inner_store, killing_progress


@contextmanager
def service_fixture(
    cache_root,
    *,
    client_timeout: float = 30.0,
    **service_kwargs,
):
    """Start an in-process service, yield ``(client, service)``, tear down.

    ``cache_root`` should be a per-test temporary directory: it holds
    the job journal and every shard checkpoint, and restarting a second
    fixture on the same root is exactly the service-restart recovery
    path.
    """
    service = CampaignService(
        cache_root=str(cache_root), **service_kwargs
    )
    service.start()
    try:
        yield ServiceClient(service.url, timeout=client_timeout), service
    finally:
        service.stop()
