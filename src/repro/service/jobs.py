"""Job model, bounded dedup queue, and the persistent job journal.

A *job* is one submitted :class:`CampaignSpec` instance — campaign name
plus canonical params — identified by the spec hash
(:meth:`~repro.runner.registry.CampaignEntry.job_key`).  The identity is
the idempotency contract: resubmitting the same spec (concurrently or
after completion) addresses the same job, so the service performs at
most one computation per spec hash.

:class:`JobQueue` is the admission path: a bounded FIFO of queued job
ids plus the full id → :class:`Job` table.  Submission under the queue
lock either coalesces onto an existing job (queued/running/done — no new
work), revives a failed one (explicit resubmission retries with
resume-from-checkpoint semantics), or admits a new job — unless the
backlog is at capacity, in which case :class:`QueueFull` carries the
retry hint the HTTP layer turns into ``429 Retry-After``.

:class:`JobJournal` is the service's durable memory: one record per job
under the cache root, rewritten on submission and on each terminal
state.  On restart the service replays it — completed jobs come back
served-from-cache, unfinished ones re-enter the queue with
``resume=True`` and continue from their shard checkpoints.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.runner.store import Blobs

#: Job lifecycle states.
JOB_STATES = ("queued", "running", "done", "failed")

#: Progress events kept per job for the status endpoint's event stream.
MAX_EVENTS = 512


class QueueFull(Exception):
    """Raised when a new job cannot be admitted; carries the retry hint."""

    def __init__(self, retry_after: float) -> None:
        super().__init__(
            f"job queue full; retry after {retry_after:g}s"
        )
        self.retry_after = retry_after


class WorkerKilled(RuntimeError):
    """A campaign run died mid-flight (real crash or injected fault).

    The service treats this as *retriable*: the job re-enters the queue
    with ``resume=True`` and continues from its shard checkpoints, up to
    the retry cap.  The fault-injecting test harness raises it to
    simulate worker loss without killing the process.
    """


@dataclass
class Job:
    """One submitted campaign spec and everything known about its run."""

    id: str
    campaign: str
    params: Dict[str, Any]  # canonical (defaults filled, JSON-clean)
    spec: Any  # the frozen spec dataclass instance
    state: str = "queued"
    resume: bool = False  # continue from shard checkpoints on next run
    attempts: int = 0  # runs started for the current submission
    run_count: int = 0  # campaign executions started, ever
    error: Optional[str] = None
    result_json: Any = None
    submitted_t: float = field(default_factory=time.time)
    started_t: Optional[float] = None
    finished_t: Optional[float] = None
    # Shard-level progress, updated by the runner's progress callback.
    shards_done: int = 0
    shards_total: Optional[int] = None
    shards_cached: int = 0
    events: List[Dict[str, Any]] = field(default_factory=list)
    events_dropped: int = 0

    def record_progress(
        self, shard: int, done: int, total: int, cached: bool,
        seconds: float,
    ) -> None:
        """Fold one runner progress event into the job (caller locks)."""
        self.shards_done = done
        self.shards_total = total
        if cached:
            self.shards_cached += 1
        if len(self.events) >= MAX_EVENTS:
            self.events_dropped += 1
            return
        self.events.append(
            {
                "shard": shard,
                "done": done,
                "total": total,
                "cached": cached,
                "seconds": round(seconds, 6),
            }
        )

    def snapshot(self, events_since: Optional[int] = None) -> Dict[str, Any]:
        """JSON status view; ``events_since`` tails the event stream."""
        snap: Dict[str, Any] = {
            "job": self.id,
            "campaign": self.campaign,
            "params": self.params,
            "state": self.state,
            "attempts": self.attempts,
            "run_count": self.run_count,
            "error": self.error,
            "submitted_t": self.submitted_t,
            "started_t": self.started_t,
            "finished_t": self.finished_t,
            "progress": {
                "done": self.shards_done,
                "total": self.shards_total,
                "cached": self.shards_cached,
            },
            "n_events": len(self.events),
            "events_dropped": self.events_dropped,
        }
        if events_since is not None:
            snap["events"] = list(self.events[events_since:])
            snap["events_from"] = events_since
        return snap


class JobQueue:
    """Bounded FIFO admission queue with spec-hash deduplication.

    Capacity bounds the *queued* backlog only: running and finished jobs
    never block new admissions, and requeues of already-admitted jobs
    (crash retries, journal replay) bypass the bound — backpressure
    applies to new work, not to recovery.
    """

    def __init__(self, capacity: int, retry_after: float = 1.0) -> None:
        self.capacity = capacity
        self.retry_after = retry_after
        self.jobs: Dict[str, Job] = {}
        self._queued: Deque[str] = deque()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)

    # -- admission ------------------------------------------------------
    def submit(self, job: Job) -> tuple:
        """Admit ``job`` (or coalesce onto its twin); returns (job, created).

        Under one lock so two racing submissions of the same spec hash
        see each other: the loser coalesces onto the winner's job and no
        second computation is ever scheduled.  A failed job is revived
        instead of duplicated — explicit resubmission is the retry path —
        and revival, like a new admission, respects the capacity bound.
        """
        with self._cond:
            existing = self.jobs.get(job.id)
            if existing is not None:
                if existing.state == "failed":
                    if len(self._queued) >= self.capacity:
                        raise QueueFull(self.retry_after)
                    existing.state = "queued"
                    existing.resume = True
                    existing.error = None
                    existing.attempts = 0
                    self._queued.append(existing.id)
                    self._cond.notify()
                return existing, False
            if len(self._queued) >= self.capacity:
                raise QueueFull(self.retry_after)
            self.jobs[job.id] = job
            self._queued.append(job.id)
            self._cond.notify()
            return job, True

    def requeue(self, job: Job, *, resume: bool = True) -> None:
        """Re-admit an already-known job (crash retry / journal replay).

        Bypasses the capacity bound: the job was admitted once and
        recovery must not be droppable.
        """
        with self._cond:
            self.jobs.setdefault(job.id, job)
            job.state = "queued"
            job.resume = resume
            self._queued.append(job.id)
            self._cond.notify()

    def restore(self, job: Job) -> None:
        """Install a terminal job (journal replay of done/failed)."""
        with self._lock:
            self.jobs[job.id] = job

    # -- worker side ----------------------------------------------------
    def take(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Pop the next queued job (marking it running), or ``None``."""
        with self._cond:
            if not self._queued and timeout:
                self._cond.wait(timeout)
            if not self._queued:
                return None
            job = self.jobs[self._queued.popleft()]
            job.state = "running"
            job.started_t = time.time()
            job.attempts += 1
            return job

    def wake_all(self) -> None:
        """Wake blocked workers (shutdown path)."""
        with self._cond:
            self._cond.notify_all()

    # -- views ----------------------------------------------------------
    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self.jobs.get(job_id)

    def queued_count(self) -> int:
        with self._lock:
            return len(self._queued)

    def snapshot_all(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [
                job.snapshot()
                for job in sorted(
                    self.jobs.values(), key=lambda j: j.submitted_t
                )
            ]

    def locked(self):
        """The queue's lock, for callers mutating job fields in place."""
        return self._lock


class JobJournal:
    """The service's durable job records: one blob per job.

    Each job's record (``job-<id>.blob``) is rewritten whole on submit,
    done and failed, so a writer killed mid-write loses only that one
    transition, never another job's.  A record written by other code is
    a stale miss: a service restarted on different code forgets the old
    jobs, and resubmitting them recomputes.
    """

    def __init__(self, root: Optional[Path] = None) -> None:
        self.blobs = Blobs("job", root)

    def _write(self, job: Job, state: str, **extra: Any) -> None:
        self.blobs.put(
            job.id,
            {
                "campaign": job.campaign,
                "params": job.params,
                "t": job.submitted_t,
                "state": state,
                **extra,
            },
        )

    def record_submit(self, job: Job) -> None:
        """Record a newly admitted (or revived) job as unfinished."""
        self._write(job, "queued")

    def record_done(self, job: Job) -> None:
        """Record completion with the merged result payload."""
        self._write(job, "done", result=job.result_json)

    def record_failed(self, job: Job) -> None:
        """Record a terminal failure."""
        self._write(job, "failed", error=job.error)

    def replay(self) -> Dict[str, Dict[str, Any]]:
        """``{job_id: record}`` in submission order.

        Each record carries ``campaign``/``params``, the submit time
        ``t`` and the latest ``state``: ``queued`` (unfinished), ``done``
        with ``result``, or ``failed`` with ``error``.
        """
        records = {}
        for job_id in self.blobs.keys():
            rec = self.blobs.get(job_id)
            if rec is not None:
                records[job_id] = rec
        return dict(sorted(records.items(), key=lambda kv: kv[1]["t"]))
