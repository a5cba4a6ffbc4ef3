"""The one campaign driver: sharded execution with checkpoint/resume.

Every campaign's ``run_*`` is its state, its shard list, one
:func:`run_shards` call and its fold.  The runner options (``workers``,
``resume``, ``checkpoint``, ``cache_root``, ``store``, ``progress``) are
declared and documented here only; a campaign takes them as
``**runner`` and passes them through.  :func:`run_shards` builds the
campaign's :class:`~repro.runner.store.CheckpointStore` from its name
and spec, runs the shards inline (``workers <= 1``) or across a
``concurrent.futures.ProcessPoolExecutor``, checkpoints each completed
shard, and returns the payloads in shard order.

Determinism contract: the worker must compute shard ``i``'s payload
from the campaign ``state`` and ``shards[i]`` alone — never from
completion order or worker identity.  Under that contract the merged
result is identical for any worker count and any scheduling, which is
what ``tests/test_runner_determinism.py`` asserts.

Campaign state (a compiled netlist with its ATPG vectors, a golden run
with its fault sample) is an argument: the campaign builds it once in
the calling process — its ``prepare_*`` function, a one-slot
``functools.lru_cache``, so a prepared state is reused — and passes it
as ``state``.  The inline path hands it to the worker directly; pool
processes receive it once each through the pool initializer, never
with a task.  On POSIX the default ``fork`` start method lets them
inherit it, so it is never pickled at all.

Telemetry: when the parent's :data:`~repro.telemetry.TELEMETRY` is
enabled, each shard runs inside a fresh
:meth:`~repro.telemetry.core.Telemetry.collect` scope — in the worker
process or inline — and its metrics ride home next to the payload in the
checkpoint record (``{"result": ..., "metrics": ...}``).  After all
shards land, the parent folds the shard metrics back into its own
registry **in shard-index order**, so the aggregated deterministic view
(integer counters, histograms) is bit-identical for any worker count,
chunking, or resume history — the campaign determinism contract extended
to the metrics.  Workers never stream trace events (a trace file has one
writer: the parent); their spans aggregate into the shard metrics
instead.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.runner.store import CheckpointStore
from repro.telemetry import TELEMETRY


@dataclass(frozen=True)
class ShardProgress:
    """One progress event, emitted as each shard lands."""

    shard: int  # shard index within the campaign
    done: int  # shards finished so far (including this one)
    total: int  # total shards in the campaign
    cached: bool  # satisfied from the checkpoint store, not recomputed
    seconds: float  # wall-clock of this shard (0.0 when cached)


ProgressFn = Callable[[ShardProgress], None]
WorkerFn = Callable[[Any, Any], Any]


def _emit(
    progress: Optional[ProgressFn],
    shard: int,
    done: int,
    total: int,
    cached: bool,
    seconds: float,
) -> None:
    if progress is not None:
        progress(ShardProgress(shard, done, total, cached, seconds))


def _metered(worker: WorkerFn, state: Any, shard: Any) -> Dict[str, Any]:
    """One shard's checkpoint record: payload + its telemetry metrics."""
    if not TELEMETRY.enabled:
        return {"result": worker(state, shard), "metrics": None}
    with TELEMETRY.collect() as metrics:
        payload = worker(state, shard)
    return {"result": payload, "metrics": metrics.to_json()}


# In a pool process: the (worker, state) pair _pool_init received.
_POOL_WORKER: Tuple[Optional[WorkerFn], Any] = (None, None)


def _pool_init(tele_enabled: bool, worker: WorkerFn, state: Any) -> None:
    """Per-worker-process setup: telemetry state, then worker and state.

    Runs in the child.  The sink is always detached — a forked worker
    inherits the parent's open trace file and must never write to it —
    and the enabled flag is made explicit so ``spawn`` start methods
    (which inherit nothing) still collect.
    """
    global _POOL_WORKER
    TELEMETRY.sink = None
    TELEMETRY.enabled = tele_enabled
    _POOL_WORKER = (worker, state)


def _pool_task(shard: Any) -> Dict[str, Any]:
    worker, state = _POOL_WORKER
    return _metered(worker, state, shard)


def _unwrap(rec: Any) -> Tuple[Any, Optional[Dict[str, Any]]]:
    """Split a checkpoint record into (payload, metrics).

    Records written by this version are ``{"result":..., "metrics":...}``;
    anything else (hand-written stores, pre-telemetry payloads) is
    treated as a bare payload with no metrics.
    """
    if (
        isinstance(rec, dict)
        and set(rec) == {"result", "metrics"}
    ):
        return rec["result"], rec["metrics"]
    return rec, None


def run_shards(
    campaign: str,
    spec: Any,
    shards: Sequence[Any],
    worker: WorkerFn,
    *,
    state: Any = None,
    workers: int = 1,
    resume: bool = False,
    checkpoint: bool = True,
    cache_root: Optional[str] = None,
    store: Optional[CheckpointStore] = None,
    progress: Optional[ProgressFn] = None,
) -> List[Any]:
    """Run every shard of ``campaign``; return payloads by shard index.

    ``worker(state, shards[i])`` computes shard ``i``.  ``state`` is
    the campaign's shared input; pool processes get it once each
    through the pool initializer, never with a task.  The runner
    options:

    - ``workers``: processes (``<= 1`` runs in this process, no pool);
    - ``checkpoint``: write each completed shard to the campaign's store,
      ``CheckpointStore.for_spec(campaign, spec, cache_root)``;
    - ``cache_root``: that store's root (None: ``REPRO_CACHE_DIR`` or
      ``.repro_cache``);
    - ``store``: an explicit store instead (the campaign service's seam);
      it is used even when ``checkpoint`` is false;
    - ``resume``: reuse the shards already in the store, reported as
      cached; without it the store is cleared first so a fresh run never
      merges stale partials.  ``ValueError`` when there is no store to
      resume from;
    - ``progress``: called with a :class:`ShardProgress` as each shard
      lands.

    Payloads must be picklable when a store is used; ``worker`` and
    ``state`` only under a ``spawn`` start method.
    """
    if store is None and checkpoint:
        store = CheckpointStore.for_spec(campaign, spec, cache_root)
    if resume and store is None:
        raise ValueError(
            f"{campaign}: resume needs a checkpoint store "
            f"(checkpoint is off)"
        )
    n = len(shards)
    tele_enabled = TELEMETRY.enabled
    completed: Dict[int, Any] = {}
    if store is not None:
        if resume:
            completed = {
                s: p for s, p in store.load().items() if 0 <= s < n
            }
        else:
            store.clear()

    results = dict(completed)
    done = 0
    for shard in sorted(completed):
        done += 1
        _emit(progress, shard, done, n, cached=True, seconds=0.0)

    pending = [i for i in range(n) if i not in completed]

    def _record(shard: int, rec: Any, seconds: float) -> None:
        nonlocal done
        results[shard] = rec
        if store is not None:
            store.append(shard, rec)
        done += 1
        _emit(progress, shard, done, n, cached=False, seconds=seconds)

    if pending:
        if workers <= 1:
            for shard in pending:
                t0 = time.perf_counter()
                rec = _metered(worker, state, shards[shard])
                _record(shard, rec, time.perf_counter() - t0)
        else:
            pool_size = min(workers, len(pending))
            with ProcessPoolExecutor(
                max_workers=pool_size,
                initializer=_pool_init,
                initargs=(tele_enabled, worker, state),
            ) as pool:
                t_start = {}
                futures = {}
                for shard in pending:
                    t_start[shard] = time.perf_counter()
                    futures[pool.submit(_pool_task, shards[shard])] = shard
                for fut in as_completed(futures):
                    shard = futures[fut]
                    rec = fut.result()  # propagate worker exceptions
                    _record(
                        shard, rec, time.perf_counter() - t_start[shard]
                    )

    payloads: List[Any] = []
    n_cached = len(completed)
    for shard in range(n):
        payload, metrics = _unwrap(results[shard])
        payloads.append(payload)
        if tele_enabled and metrics:
            # Shard-index order: fixed regardless of completion order or
            # worker count, keeping even float-valued histogram sums
            # deterministic.
            TELEMETRY.merge_json(metrics)
    if tele_enabled:
        TELEMETRY.count("runner.shards.computed", n - n_cached)
        TELEMETRY.count("runner.shards.cached", n_cached)
    return payloads
