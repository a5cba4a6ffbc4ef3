"""The campaign service: HTTP job submission over the sharded runner.

``CampaignService`` turns the CLI-only campaigns into a long-lived
system: clients POST a campaign spec, a bounded queue with backpressure
feeds a small pool of worker threads, and each job fans its shards out
through the existing :func:`~repro.runner.executor.run_shards` machinery
(process-pool sharding, checkpoint stores, telemetry).  The one store
the service builds itself is the job's
:meth:`~repro.runner.store.CheckpointStore.for_spec` — the store
``run_shards`` would build for the same campaign and spec — so it can
hand it to the test-only fault injector; the campaign then receives it
through the ``store`` runner option, and the service's root as
``cache_root`` (where the golden-prefix and scan caches live too).  The
interesting properties all follow from reusing the runner's determinism
contract:

- **Idempotency.**  Jobs are keyed by the spec hash; submitting the same
  spec twice — concurrently or after completion — addresses one job and
  at most one computation.  Duplicate submissions coalesce under the
  queue lock; completed jobs serve their persisted result.
- **Backpressure.**  The queued backlog is bounded; when full, new specs
  are rejected with HTTP 429 and a ``Retry-After`` hint.  Recovery
  requeues (crash retries, journal replay) bypass the bound.
- **Crash recovery.**  Every admission and terminal state is journaled
  (:class:`~repro.service.jobs.JobJournal`); shard results persist
  through the campaign's own :class:`~repro.runner.store.CheckpointStore`.
  A killed service replays the journal on restart and unfinished jobs
  resume from their checkpoints — completed shards are never recomputed,
  and the merged result is bit-identical to an uninterrupted run.
- **Live monitoring.**  The runner's progress callback streams
  shard-level events into the job record (``/jobs/<id>/status``), and
  ``/metrics`` exposes the telemetry registry's export snapshot.

Concurrency model: worker threads execute jobs; a per-campaign lock
serializes jobs of the same campaign (each campaign keeps one prepared
heavy state, which its shards only read, so one job's state is built
and held at a time), and an additional
global lock serializes all job execution while telemetry is enabled (the
registry is process-global and single-writer by design).  Shard-level
parallelism inside one job uses worker *processes* via the executor,
exactly as the CLI does.

HTTP endpoints::

    POST /jobs                  {"campaign": name, "params": {...}}
    GET  /jobs                  all job snapshots
    GET  /jobs/<id>/status      snapshot (+ ?events_since=N event tail)
    GET  /jobs/<id>/result      merged result JSON once done
    GET  /metrics               telemetry export snapshot + queue stats
    GET  /campaigns             registered campaign names
    GET  /healthz               liveness + job-state counts
    GET  /                      static HTML dashboard (polls /jobs,
                                /metrics)
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.runner.registry import REGISTRY, CampaignEntry, get_campaign
from repro.runner.store import CheckpointStore, default_cache_root
from repro.service.dashboard import DASHBOARD_HTML
from repro.service.jobs import (
    Job,
    JobJournal,
    JobQueue,
    QueueFull,
    WorkerKilled,
)
from repro.telemetry import TELEMETRY


class CampaignService:
    """Long-lived campaign server; see the module docstring for contract.

    ``service_workers=0`` starts no worker threads — jobs queue up and
    run only through :meth:`run_once`, which the deterministic test
    harness uses to step interleavings by hand.  ``faults`` accepts a
    :class:`~repro.service.testing.FaultInjector` (test-only) whose
    hooks wrap each job's checkpoint store and progress stream.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_root: Optional[str] = None,
        queue_size: int = 16,
        service_workers: int = 2,
        shard_workers: int = 1,
        retry_after: float = 1.0,
        max_retries: int = 2,
        verbose: bool = False,
        faults: Optional[Any] = None,
    ) -> None:
        self.registry: Dict[str, CampaignEntry] = REGISTRY
        self.cache_root = (
            Path(cache_root) if cache_root is not None
            else default_cache_root()
        )
        self.queue = JobQueue(queue_size, retry_after=retry_after)
        self.journal = JobJournal(self.cache_root)
        self.service_workers = service_workers
        self.shard_workers = shard_workers
        self.max_retries = max_retries
        self.verbose = verbose
        self.faults = faults
        self._campaign_locks: Dict[str, threading.Lock] = {}
        self._locks_guard = threading.Lock()
        self._telemetry_lock = threading.Lock()
        self._stopping = threading.Event()
        self._threads: list = []
        self._httpd = _ServiceHTTPServer((host, port), _Handler)
        self._httpd.service = self
        self._http_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host = self._httpd.server_address[0]
        return f"http://{host}:{self.port}"

    def start(self) -> "CampaignService":
        """Replay the journal, start workers, and serve HTTP."""
        self._replay_journal()
        for i in range(self.service_workers):
            t = threading.Thread(
                target=self._worker_loop,
                name=f"campaign-worker-{i}",
                daemon=True,
            )
            t.start()
            self._threads.append(t)
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="campaign-http",
            daemon=True,
        )
        self._http_thread.start()
        return self

    def stop(self, wait: bool = True, timeout: float = 30.0) -> None:
        """Stop serving; with ``wait``, let running jobs finish first."""
        self._stopping.set()
        self.queue.wake_all()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._http_thread is not None:
            self._http_thread.join(timeout=timeout)
        if wait:
            for t in self._threads:
                t.join(timeout=timeout)

    def _replay_journal(self) -> None:
        """Restore jobs from the journal: done/failed as terminal records,
        unfinished submissions back onto the queue with resume-from-
        checkpoint semantics."""
        for job_id, rec in self.journal.replay().items():
            entry = self.registry.get(rec.get("campaign", ""))
            if entry is None:
                continue  # journal from a newer/older registry; skip
            try:
                spec = entry.make_spec(rec.get("params", {}))
            except (TypeError, ValueError):
                continue
            job = Job(
                id=job_id,
                campaign=entry.name,
                params=entry.canonical_params(spec),
                spec=spec,
            )
            state = rec.get("state")
            if state == "done":
                job.state = "done"
                job.result_json = rec.get("result")
                self.queue.restore(job)
            elif state == "failed":
                job.state = "failed"
                job.error = rec.get("error")
                self.queue.restore(job)
            else:
                self.queue.requeue(job, resume=True)

    # ------------------------------------------------------------------
    # Submission (shared by HTTP handler and in-process clients)
    # ------------------------------------------------------------------
    def submit_params(
        self, campaign: str, params: Optional[Mapping[str, Any]] = None
    ) -> Tuple[Job, bool]:
        """Admit (or coalesce) a job for ``(campaign, params)``.

        Returns ``(job, created)``.  Raises ``KeyError`` for an unknown
        campaign, ``TypeError`` / ``ValueError`` for bad params,
        ``QueueFull`` when the backlog is at capacity.
        """
        entry = get_campaign(campaign)
        spec = entry.make_spec(params)
        job = Job(
            id=entry.job_key(spec),
            campaign=campaign,
            params=entry.canonical_params(spec),
            spec=spec,
        )
        was_failed = (
            (prior := self.queue.get(job.id)) is not None
            and prior.state == "failed"
        )
        admitted, created = self.queue.submit(job)
        if TELEMETRY.enabled:
            TELEMETRY.count(
                "service.submit.created" if created
                else "service.submit.coalesced"
            )
        # Journal fresh admissions *and* revivals of failed jobs — a
        # crash after either must replay the job as unfinished work.
        revived = was_failed and admitted.state == "queued"
        if created or revived:
            self.journal.record_submit(admitted)
        return admitted, created

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _campaign_lock(self, name: str) -> threading.Lock:
        with self._locks_guard:
            lock = self._campaign_locks.get(name)
            if lock is None:
                lock = self._campaign_locks[name] = threading.Lock()
            return lock

    def _worker_loop(self) -> None:
        while not self._stopping.is_set():
            job = self.queue.take(timeout=0.2)
            if job is None:
                continue
            self._execute(job)

    def run_once(self) -> bool:
        """Synchronously execute the next queued job, if any.

        The deterministic stepping primitive for the test harness (used
        with ``service_workers=0``); production traffic runs through the
        worker threads instead.
        """
        job = self.queue.take()
        if job is None:
            return False
        self._execute(job)
        return True

    def _execute(self, job: Job) -> None:
        entry = self.registry[job.campaign]
        with self.queue.locked():
            job.run_count += 1
            job.shards_done = 0
            job.shards_cached = 0
        resume = job.resume
        store = CheckpointStore.for_spec(
            entry.name, job.spec, self.cache_root
        )
        if TELEMETRY.enabled:
            TELEMETRY.count("service.jobs.started")

        def progress(ev) -> None:
            with self.queue.locked():
                job.record_progress(
                    ev.shard, ev.done, ev.total, ev.cached, ev.seconds
                )

        if self.faults is not None:
            store, progress = self.faults.arm(job, store, progress)

        lock = self._campaign_lock(job.campaign)
        tele_lock = (
            self._telemetry_lock if TELEMETRY.enabled else None
        )
        t0 = time.perf_counter()
        try:
            with lock:
                if tele_lock is not None:
                    tele_lock.acquire()
                try:
                    result = entry.run(
                        job.spec,
                        workers=self.shard_workers,
                        resume=resume,
                        cache_root=self.cache_root,
                        store=store,
                        progress=progress,
                    )
                finally:
                    if tele_lock is not None:
                        tele_lock.release()
        except WorkerKilled as exc:
            self._on_killed(job, exc)
            return
        except Exception as exc:  # campaign bug or bad spec: terminal
            self._finish(job, error=f"{type(exc).__name__}: {exc}")
            return
        payload = result.to_json()
        if TELEMETRY.enabled:
            TELEMETRY.count("service.jobs.completed")
            TELEMETRY.observe(
                "service.job_seconds", time.perf_counter() - t0
            )
        self._finish(job, result_json=payload)

    def _on_killed(self, job: Job, exc: WorkerKilled) -> None:
        """Retriable worker loss: resume from checkpoints, up to the cap."""
        if TELEMETRY.enabled:
            TELEMETRY.count("service.jobs.killed")
        if job.attempts <= self.max_retries:
            if TELEMETRY.enabled:
                TELEMETRY.count("service.jobs.retried")
            self.queue.requeue(job, resume=True)
            return
        self._finish(job, error=f"WorkerKilled: {exc} (retries exhausted)")

    def _finish(
        self,
        job: Job,
        *,
        result_json: Any = None,
        error: Optional[str] = None,
    ) -> None:
        with self.queue.locked():
            job.finished_t = time.time()
            if error is None:
                job.state = "done"
                job.result_json = result_json
                job.error = None
            else:
                job.state = "failed"
                job.error = error
                if TELEMETRY.enabled:
                    TELEMETRY.count("service.jobs.failed")
        if error is None:
            self.journal.record_done(job)
        else:
            self.journal.record_failed(job)

    # ------------------------------------------------------------------
    # Read-side views
    # ------------------------------------------------------------------
    def state_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for snap in self.queue.snapshot_all():
            counts[snap["state"]] = counts.get(snap["state"], 0) + 1
        return counts

    def metrics_payload(self) -> Dict[str, Any]:
        payload = TELEMETRY.export()
        payload["service"] = {
            "queued": self.queue.queued_count(),
            "queue_capacity": self.queue.capacity,
            "jobs": self.state_counts(),
        }
        return payload


class _ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that knows its owning service."""

    daemon_threads = True
    allow_reuse_address = True
    service: CampaignService


class _Handler(BaseHTTPRequestHandler):
    """Route table for the JSON API (see module docstring)."""

    protocol_version = "HTTP/1.1"
    server: _ServiceHTTPServer

    # -- plumbing -------------------------------------------------------
    def log_message(self, fmt: str, *args: Any) -> None:
        if self.server.service.verbose:  # pragma: no cover - debug aid
            BaseHTTPRequestHandler.log_message(self, fmt, *args)

    def _json(
        self,
        code: int,
        payload: Any,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _html(self, code: int, text: str) -> None:
        body = text.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    # -- routes ---------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        service = self.server.service
        parsed = urlparse(self.path)
        if parsed.path.rstrip("/") != "/jobs":
            self._json(404, {"error": f"no such route {parsed.path}"})
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
            body = json.loads(self.rfile.read(length) or b"{}")
            campaign = body["campaign"]
            params = body.get("params") or {}
        except (ValueError, KeyError, TypeError) as exc:
            self._json(400, {"error": f"bad request body: {exc}"})
            return
        try:
            job, created = service.submit_params(campaign, params)
        except QueueFull as exc:
            if TELEMETRY.enabled:
                TELEMETRY.count("service.submit.rejected")
            self._json(
                429,
                {"error": str(exc), "retry_after": exc.retry_after},
                headers={
                    "Retry-After": str(max(1, math.ceil(exc.retry_after)))
                },
            )
            return
        except KeyError as exc:
            self._json(400, {"error": str(exc)})
            return
        except (TypeError, ValueError) as exc:
            self._json(400, {"error": f"bad params: {exc}"})
            return
        with service.queue.locked():
            snap = job.snapshot()
        snap["created"] = created
        self._json(201 if created else 200, snap)

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        service = self.server.service
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        if not parts:
            self._html(200, DASHBOARD_HTML)
            return
        if parts == ["healthz"]:
            self._json(
                200, {"ok": True, "jobs": service.state_counts()}
            )
            return
        if parts == ["campaigns"]:
            self._json(200, {"campaigns": list(service.registry)})
            return
        if parts == ["metrics"]:
            self._json(200, service.metrics_payload())
            return
        if parts == ["jobs"]:
            self._json(200, {"jobs": service.queue.snapshot_all()})
            return
        if len(parts) == 3 and parts[0] == "jobs":
            job = service.queue.get(parts[1])
            if job is None:
                self._json(404, {"error": f"unknown job {parts[1]!r}"})
                return
            if parts[2] == "status":
                query = parse_qs(parsed.query)
                since = query.get("events_since")
                with service.queue.locked():
                    snap = job.snapshot(
                        events_since=int(since[0]) if since else 0
                    )
                self._json(200, snap)
                return
            if parts[2] == "result":
                with service.queue.locked():
                    state = job.state
                    payload = {
                        "job": job.id,
                        "campaign": job.campaign,
                        "state": state,
                        "result": job.result_json,
                        "error": job.error,
                    }
                if state == "done":
                    self._json(200, payload)
                else:
                    self._json(409, payload)
                return
        self._json(404, {"error": f"no such route {parsed.path}"})
