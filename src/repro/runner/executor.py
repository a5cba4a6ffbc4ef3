"""The one campaign driver: sharded execution with checkpoint/resume.

Every campaign's ``run_*`` is its shard list, one :func:`run_shards`
call and its fold.  The runner options (``workers``, ``resume``,
``checkpoint``, ``cache_root``, ``store``, ``progress``) are declared
and documented here only; a campaign takes them as ``**runner`` and
passes them through.  :func:`run_shards` builds the campaign's
:class:`~repro.runner.store.CheckpointStore` from its name and spec,
runs the campaign's ``init(spec)`` inline or as the pool initializer,
runs the shards inline (``workers <= 1``) or across a
``concurrent.futures.ProcessPoolExecutor``, checkpoints each completed
shard, and returns the payloads in shard order.

Determinism contract: the worker must compute shard ``i``'s payload from
``shards[i]`` (plus worker-global state installed by ``init``) alone —
never from completion order or worker identity.  Under that contract the
merged result is identical for any worker count and any scheduling,
which is what ``tests/test_runner_determinism.py`` asserts.

Heavy shared state (a compiled netlist with its ATPG vectors) is *not*
pickled per shard: ``init`` runs once per worker process and parks the
state in a module global.  On POSIX the default ``fork`` start method
lets workers inherit state already built in the parent, so the init's
rebuild is skipped entirely (see ``campaigns.prepare_isolation``).

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
InitFn = Callable[[Any], Any]


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


class _MeteredWorker:
    """Wraps the campaign worker: payload + per-shard telemetry metrics.

    Picklable (the wrapped worker is a module-level function), so the
    same object serves the inline path and the process pool.  With
    telemetry off the wrapper adds one attribute test per shard.
    """

    __slots__ = ("fn", "enabled")

    def __init__(self, fn: Callable[[Any], Any], enabled: bool) -> None:
        self.fn = fn
        self.enabled = enabled

    def __call__(self, spec: Any) -> Dict[str, Any]:
        if not self.enabled:
            return {"result": self.fn(spec), "metrics": None}
        with TELEMETRY.collect() as metrics:
            payload = self.fn(spec)
        return {"result": payload, "metrics": metrics.to_json()}


def _pool_init(
    tele_enabled: bool, init: Optional[InitFn], spec: Any
) -> None:
    """Per-worker-process setup: telemetry state, then the campaign's own.

    Runs in the child.  The sink is always detached — a forked worker
    inherits the parent's open trace file and must never write to it —
    and the enabled flag is made explicit so ``spawn`` start methods
    (which inherit nothing) still collect.
    """
    TELEMETRY.sink = None
    TELEMETRY.enabled = tele_enabled
    if init is not None:
        init(spec)


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
    worker: Callable[[Any], Any],
    *,
    init: Optional[InitFn] = None,
    workers: int = 1,
    resume: bool = False,
    checkpoint: bool = True,
    cache_root: Optional[str] = None,
    store: Optional[CheckpointStore] = None,
    progress: Optional[ProgressFn] = None,
) -> List[Any]:
    """Run every shard of ``campaign``; return payloads by shard index.

    ``worker(shards[i])`` computes shard ``i``; ``init(spec)``, when
    given, installs the worker-global state it reads, once per process
    (inline before the first pending shard, or as the pool initializer).
    The runner options:

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

    Payloads must be picklable when a store is used.
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
    metered = _MeteredWorker(worker, tele_enabled)
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
            if init is not None:
                init(spec)
            for shard in pending:
                t0 = time.perf_counter()
                rec = metered(shards[shard])
                _record(shard, rec, time.perf_counter() - t0)
        else:
            pool_size = min(workers, len(pending))
            with ProcessPoolExecutor(
                max_workers=pool_size,
                initializer=_pool_init,
                initargs=(tele_enabled, init, spec),
            ) as pool:
                t_start = {}
                futures = {}
                for shard in pending:
                    t_start[shard] = time.perf_counter()
                    futures[pool.submit(metered, shards[shard])] = shard
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
