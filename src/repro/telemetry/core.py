"""Process-global telemetry registry: counters, histograms, spans.

Design constraints, in priority order:

1. **Zero cost when off.**  Telemetry ships disabled; every
   instrumentation primitive begins with a single ``self.enabled``
   attribute test and returns immediately.  Hot loops additionally guard
   with ``if TELEMETRY.enabled:`` at the call site so disabled runs never
   even compute the values they would have recorded, and the engine
   batches its counts at natural boundaries (once per cone walk, once per
   grading call) instead of per gate.  ``benchmarks/bench_telemetry.py
   --check`` asserts a disabled run records nothing; the traced
   ``benchmarks/perf`` runs measure the enabled overhead
   (``trace.overhead_pct``).

2. **Observation only.**  Instrumentation never changes engine results:
   the same detection maps, patterns, and samples fall out with telemetry
   on or off (asserted bit-for-bit by the benchmark gate and
   ``tests/test_telemetry.py``).

3. **Mergeable, order-insensitively.**  Worker processes collect their
   own :class:`Metrics` (see :meth:`Telemetry.collect`); the runner
   serializes them into shard checkpoints and merges them in shard-index
   order.  Counters are exact integers and histogram sums of integer
   series stay integers, so the merged *deterministic view*
   (:meth:`Metrics.deterministic`) is bit-identical for any worker count
   and chunking — the same contract the campaign results obey.  Wall-clock
   spans are inherently run-dependent and are excluded from that view.

The registry is a process singleton (:data:`TELEMETRY`); it is not
thread-safe, matching the engine's single-threaded-per-process model —
parallelism happens across processes, each with its own registry.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional


class Hist:
    """Streaming summary (n, total, min, max) of one numeric series.

    Integer observations keep ``total`` an exact integer (Python ints do
    not overflow), so histograms of counts merge bit-identically in any
    order; float series are summed in merge order (the runner fixes that
    order to shard index).
    """

    __slots__ = ("n", "total", "min", "max")

    def __init__(
        self,
        n: int = 0,
        total: float = 0,
        vmin: Optional[float] = None,
        vmax: Optional[float] = None,
    ) -> None:
        self.n = n
        self.total = total
        self.min = vmin
        self.max = vmax

    def observe(self, value: float) -> None:
        """Fold one observation into the summary."""
        self.n += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Average observation (0.0 when empty)."""
        return self.total / self.n if self.n else 0.0

    def merge(self, other: "Hist") -> "Hist":
        """Combined summary of both series (commutative on the counts)."""
        if other.n == 0:
            return Hist(self.n, self.total, self.min, self.max)
        if self.n == 0:
            return Hist(other.n, other.total, other.min, other.max)
        return Hist(
            self.n + other.n,
            self.total + other.total,
            min(self.min, other.min),
            max(self.max, other.max),
        )

    def to_json(self) -> Dict[str, Any]:
        """JSON-serializable form."""
        return {"n": self.n, "total": self.total, "min": self.min,
                "max": self.max}

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "Hist":
        """Inverse of :meth:`to_json`."""
        return cls(payload["n"], payload["total"], payload["min"],
                   payload["max"])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hist):
            return NotImplemented
        return (self.n, self.total, self.min, self.max) == (
            other.n, other.total, other.min, other.max
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Hist(n={self.n}, total={self.total}, "
                f"min={self.min}, max={self.max})")


class SpanStat:
    """Aggregated wall-clock of one span name: call count and total."""

    __slots__ = ("n", "total_s")

    def __init__(self, n: int = 0, total_s: float = 0.0) -> None:
        self.n = n
        self.total_s = total_s

    def merge(self, other: "SpanStat") -> "SpanStat":
        """Sum of both aggregates."""
        return SpanStat(self.n + other.n, self.total_s + other.total_s)

    def to_json(self) -> Dict[str, Any]:
        """JSON-serializable form."""
        return {"n": self.n, "total_s": self.total_s}

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "SpanStat":
        """Inverse of :meth:`to_json`."""
        return cls(payload["n"], payload["total_s"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpanStat(n={self.n}, total_s={self.total_s})"


class Metrics:
    """One collection of counters, histograms, and span aggregates.

    The unit of serialization and merging: each runner worker fills a
    fresh ``Metrics`` per shard, ships it home inside the shard's
    checkpoint payload, and the parent folds the shards together with
    :meth:`merge` in shard-index order.
    """

    __slots__ = ("counters", "hists", "spans")

    def __init__(
        self,
        counters: Optional[Dict[str, int]] = None,
        hists: Optional[Dict[str, Hist]] = None,
        spans: Optional[Dict[str, SpanStat]] = None,
    ) -> None:
        self.counters: Dict[str, int] = counters if counters is not None else {}
        self.hists: Dict[str, Hist] = hists if hists is not None else {}
        self.spans: Dict[str, SpanStat] = spans if spans is not None else {}

    def is_empty(self) -> bool:
        """True when nothing has been recorded."""
        return not (self.counters or self.hists or self.spans)

    def merge(self, other: "Metrics") -> "Metrics":
        """New ``Metrics`` combining both sides (exact on integers)."""
        out = Metrics(dict(self.counters), dict(self.hists), dict(self.spans))
        out.fold(other)
        return out

    def fold(self, other: "Metrics") -> None:
        """Add ``other`` into this object in place.

        Histograms and spans are replaced by merged copies, never
        mutated, so a shallow copy of this object is left unchanged.
        """
        counters, hists, spans = self.counters, self.hists, self.spans
        for name, n in other.counters.items():
            counters[name] = counters.get(name, 0) + n
        for name, h in other.hists.items():
            mine = hists.get(name)
            hists[name] = h.merge(Hist()) if mine is None else mine.merge(h)
        for name, s in other.spans.items():
            mine = spans.get(name)
            spans[name] = (
                s.merge(SpanStat()) if mine is None else mine.merge(s)
            )

    def deterministic(self) -> Dict[str, Any]:
        """The run-invariant subset: every counter and histogram, sorted.

        Excludes span timings (wall clock is never reproducible).  Two
        runs of one campaign spec — at any worker count, or resumed from
        any checkpoint history — produce equal deterministic views;
        ``tests/test_telemetry.py`` and ``bench_telemetry.py --check``
        assert exactly this.  A different ``chunk_size`` is a different
        spec: it moves counters that follow the shard split (replay
        grouping, arena decodes, shard counts) and the grouping of float
        histogram sums.
        """
        return {
            "counters": dict(sorted(self.counters.items())),
            "hists": {
                name: self.hists[name].to_json()
                for name in sorted(self.hists)
            },
        }

    def to_json(self) -> Dict[str, Any]:
        """JSON-serializable form (checkpoint / trace-summary payload)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "hists": {
                name: self.hists[name].to_json()
                for name in sorted(self.hists)
            },
            "spans": {
                name: self.spans[name].to_json()
                for name in sorted(self.spans)
            },
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "Metrics":
        """Inverse of :meth:`to_json`."""
        return cls(
            counters={
                str(k): int(v)
                for k, v in payload.get("counters", {}).items()
            },
            hists={
                str(k): Hist.from_json(v)
                for k, v in payload.get("hists", {}).items()
            },
            spans={
                str(k): SpanStat.from_json(v)
                for k, v in payload.get("spans", {}).items()
            },
        )


class _NullSpan:
    """The disabled-path span: enter/exit do nothing, one shared instance."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """An enabled nested wall-clock span (context manager).

    The span's metrics key is its slash-joined ancestry
    (``"atpg/random"`` inside ``span("atpg")``), so the report shows
    where time went without a separate call graph.
    """

    __slots__ = ("tele", "name", "path", "depth", "t0")

    def __init__(self, tele: "Telemetry", name: str) -> None:
        stack = tele._stack
        self.name = name
        self.path = "/".join(stack) + "/" + name if stack else name
        self.tele = tele
        self.depth = len(stack)
        self.t0 = 0.0

    def __enter__(self) -> "_Span":
        self.tele._stack.append(self.name)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> bool:
        dur = time.perf_counter() - self.t0
        tele = self.tele
        tele._stack.pop()
        stat = tele.metrics.spans.get(self.path)
        if stat is None:
            stat = tele.metrics.spans[self.path] = SpanStat()
        stat.n += 1
        stat.total_s += dur
        sink = tele.sink
        if sink is not None:
            sink.event(
                {
                    "ev": "span",
                    "name": self.path,
                    "t": round(self.t0 - sink.epoch, 6),
                    "dur": round(dur, 6),
                    "depth": self.depth,
                }
            )
        return False


class _Collect:
    """Context manager swapping in a fresh, sink-less ``Metrics`` scope."""

    __slots__ = ("tele", "metrics", "_saved")

    def __init__(self, tele: "Telemetry") -> None:
        self.tele = tele
        self.metrics = Metrics()
        self._saved: Optional[tuple] = None

    def __enter__(self) -> Metrics:
        tele = self.tele
        self._saved = (tele.metrics, tele.sink)
        tele.metrics = self.metrics
        tele.sink = None  # shard spans aggregate; they never stream
        return self.metrics

    def __exit__(self, *exc: Any) -> bool:
        assert self._saved is not None
        self.tele.metrics, self.tele.sink = self._saved
        return False


class Telemetry:
    """The process-global registry instrumentation points talk to.

    Disabled (the default), every primitive is a no-op after one
    attribute check; nothing is allocated, recorded, or written.
    Enabled, counts and histograms accumulate in :attr:`metrics` and
    spans additionally stream one JSONL event each to :attr:`sink` when
    one is attached (see :mod:`repro.telemetry.trace`).
    """

    __slots__ = ("enabled", "metrics", "sink", "_stack")

    def __init__(self) -> None:
        self.enabled = False
        self.metrics = Metrics()
        self.sink: Optional[Any] = None
        self._stack: List[str] = []

    # ------------------------------------------------------------------
    # Instrumentation primitives (hot; disabled path = one attr test)
    # ------------------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (no-op when disabled)."""
        if not self.enabled:
            return
        counters = self.metrics.counters
        counters[name] = counters.get(name, 0) + n

    def observe(self, name: str, value: float) -> None:
        """Fold ``value`` into histogram ``name`` (no-op when disabled)."""
        if not self.enabled:
            return
        hist = self.metrics.hists.get(name)
        if hist is None:
            hist = self.metrics.hists[name] = Hist()
        hist.observe(value)

    def span(self, name: str):
        """Nested wall-clock span context; a shared no-op when disabled."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def enable(self, sink: Optional[Any] = None) -> None:
        """Turn collection on, optionally attaching a trace sink."""
        self.enabled = True
        if sink is not None:
            self.sink = sink

    def disable(self) -> None:
        """Turn collection off (recorded metrics are kept)."""
        self.enabled = False

    def reset(self) -> None:
        """Drop all recorded metrics and any open span state."""
        self.metrics = Metrics()
        self._stack = []

    def collect(self) -> _Collect:
        """Scope that redirects recording into a fresh ``Metrics``.

        ``with TELEMETRY.collect() as m:`` captures exactly the metrics
        recorded inside the block — the runner wraps each shard in one so
        per-shard metrics serialize independently and merge exactly once.
        The previous metrics object and sink are restored on exit; the
        captured metrics are *not* folded into the outer scope (the
        caller decides where they go).
        """
        return _Collect(self)

    def merge_metrics(self, metrics: Metrics) -> None:
        """Fold an external ``Metrics`` (e.g. a shard's) into this scope.

        Mutates the current metrics object in place — callers holding a
        reference to it (a ``collect()`` scope, the CLI's final summary)
        see the merged totals.
        """
        self.metrics.fold(metrics)

    def merge_json(self, payload: Dict[str, Any]) -> None:
        """Fold serialized metrics (a checkpoint payload) into this scope."""
        self.merge_metrics(Metrics.from_json(payload))

    def export(self) -> Dict[str, Any]:
        """Snapshot-for-export view (the service's ``/metrics`` payload).

        Disabled, this is one attribute test returning a constant-shaped
        stub — the monitoring endpoint stays zero-cost when telemetry is
        off.  Enabled, it returns a detached JSON copy of the live
        metrics plus the run-invariant ``deterministic`` subset (the view
        that worker-count-invariance guarantees apply to).

        The registry is single-threaded by design, but the campaign
        service reads this snapshot from an HTTP thread while a worker
        thread may be folding shard metrics in; the short copy loop is
        retried on the (rare) ``RuntimeError`` a mid-iteration mutation
        raises, so a live read never crashes the server.
        """
        if not self.enabled:
            return {"enabled": False, "metrics": None, "deterministic": None}
        for _ in range(8):
            try:
                snap = self.metrics.to_json()
            except RuntimeError:  # dict mutated mid-copy; retry
                continue
            return {
                "enabled": True,
                "metrics": snap,
                "deterministic": {
                    "counters": snap["counters"],
                    "hists": snap["hists"],
                },
            }
        return {"enabled": True, "metrics": None, "deterministic": None}


#: The singleton every instrumentation point uses.
TELEMETRY = Telemetry()
