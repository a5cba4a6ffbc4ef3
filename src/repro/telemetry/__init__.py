"""Zero-cost-when-off tracing, counters, and per-campaign metrics.

The observability layer for the whole stack: the fault-sim engine, the
ATPG flow, the scan tester, the cycle-level CPU model, the Monte Carlo
sampler, and the campaign runner all report into one process-global
:data:`TELEMETRY` registry.  Disabled (the default) every primitive is a
no-op after a single attribute check and engine outputs are bit-identical
to an uninstrumented build; enabled, counters/histograms/nested spans
accumulate and can stream to a JSONL :class:`TraceSink` (the CLI's
``--trace PATH`` flag), summarized by ``repro trace summarize``.

Worker processes collect per-shard :class:`Metrics` that the runner
serializes into shard checkpoints and merges order-insensitively — the
deterministic view (counters + histograms) of a campaign is bit-identical
for any ``--workers`` count, extending the PR-2 determinism contract to
the metrics themselves.

See DESIGN.md §"Telemetry" for the subsystem contract and
``benchmarks/bench_telemetry.py --check`` for the invariance gate
(``benchmarks/perf`` measures the tracing overhead).
"""

from repro.telemetry.core import (
    TELEMETRY,
    Hist,
    Metrics,
    SpanStat,
    Telemetry,
)
from repro.telemetry.report import render_metrics, summarize
from repro.telemetry.trace import TraceSink, read_trace

__all__ = [
    "TELEMETRY",
    "Hist",
    "Metrics",
    "SpanStat",
    "Telemetry",
    "TraceSink",
    "read_trace",
    "render_metrics",
    "summarize",
]
