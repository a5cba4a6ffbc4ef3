"""Aggregation and rendering of telemetry metrics and trace files.

Backs ``repro trace summarize``: per-span totals (sorted by time), the
fault-sim engine, injection-replay and repair-oracle rows, counter
tables, histogram summaries, and the top-N hottest individual span
events from the stream.  :func:`render_metrics` is also used directly
by commands that print a telemetry recap without a trace file.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.telemetry.core import Metrics, SpanStat
from repro.telemetry.trace import read_trace


#: The gate-level fault-sim engine's work: faults that critical path
#: tracing carried to a region root (activated and sensitized there),
#: the fanout-free-region roots they needed, and the
#: re-simulations (root flips and single-fault cone walks) with every
#: gate they evaluated.
ENGINE_ROWS = (
    ("engine.ffr.faults", "faults traced to a region root"),
    ("engine.ffr.roots", "fanout-free-region roots traced"),
    ("engine.resim.calls", "root flips and fault cone walks"),
    ("engine.resim.gate_evals", "re-simulation gate evaluations"),
)

#: The injection-replay economics, one labelled row per counter, shown
#: ahead of the counter table by ``repro trace summarize`` and by the
#: service dashboard's replay panel.
REPLAY_ROWS = (
    ("inject.restore_reuses", "warm-core restore reuses"),
    ("inject.cycles_saved", "simulated cycles saved"),
    ("inject.scan_skips", "scan-synthesized verdicts"),
    ("inject.early_exits", "reconvergence early exits"),
    ("inject.fork_restores", "checkpoint fork restores"),
    ("inject.arena_decompressions", "checkpoint arena decompressions"),
    ("inject.arena_shared", "checkpoints sharing a stored payload"),
    ("inject.sim_cycles", "faulty cycles simulated"),
    ("inject.skipped_cycles", "faulty dead cycles jumped"),
    ("inject.golden_cache_hits", "golden-prefix cache hits"),
)

#: The repair oracle's per-candidate work, shown after the replay rows:
#: the incremental ICI re-check's re-swept gates and re-judged
#: observers, and whether each candidate was checked as a delta of the
#: base or from scratch.
REPAIR_ROWS = (
    ("repair.candidates_generated", "repair candidates checked"),
    ("repair.ici_resweep_gates", "ICI gates re-swept"),
    ("repair.ici_rejudged", "ICI observers re-judged"),
    ("repair.extended_builds", "candidates checked as a base delta"),
    ("repair.full_builds", "candidates checked from scratch"),
)


def _fmt_seconds(s: float) -> str:
    if s >= 1.0:
        return f"{s:8.3f}s"
    return f"{s * 1e3:7.2f}ms"


def render_spans(spans: Dict[str, SpanStat]) -> List[str]:
    """Span aggregate table, widest totals first."""
    if not spans:
        return ["  (no spans recorded)"]
    # Share is relative to the longest aggregate (the root span in a
    # traced CLI run); nested spans overlap, so summing them would
    # double-count.
    total = max(s.total_s for s in spans.values())
    lines = [
        f"  {'span':<40} {'calls':>8} {'total':>10} {'mean':>10} {'share':>6}"
    ]
    for name, stat in sorted(
        spans.items(), key=lambda kv: -kv[1].total_s
    ):
        share = stat.total_s / total if total else 0.0
        mean = stat.total_s / stat.n if stat.n else 0.0
        lines.append(
            f"  {name:<40} {stat.n:>8} {_fmt_seconds(stat.total_s):>10} "
            f"{_fmt_seconds(mean):>10} {share:>5.1%}"
        )
    return lines


def render_counters(counters: Dict[str, int]) -> List[str]:
    """Counter table, alphabetical (the deterministic ordering)."""
    if not counters:
        return ["  (no counters recorded)"]
    lines = [f"  {'counter':<44} {'value':>14}"]
    for name in sorted(counters):
        lines.append(f"  {name:<44} {counters[name]:>14,}")
    return lines


def render_rows(
    counters: Dict[str, int], rows: Tuple[Tuple[str, str], ...]
) -> List[str]:
    """The labelled ``rows`` (e.g. :data:`REPLAY_ROWS`) present in
    ``counters``."""
    return [
        f"  {label:<44} {counters[name]:>14,}"
        for name, label in rows
        if name in counters
    ]


def render_hists(hists: Dict[str, Any]) -> List[str]:
    """Histogram summary table (n / mean / min / max)."""
    if not hists:
        return []
    lines = [
        f"  {'histogram':<36} {'n':>8} {'mean':>10} {'min':>8} {'max':>8}"
    ]
    for name in sorted(hists):
        h = hists[name]
        lines.append(
            f"  {name:<36} {h.n:>8} {h.mean:>10.2f} "
            f"{h.min if h.min is not None else '-':>8} "
            f"{h.max if h.max is not None else '-':>8}"
        )
    return lines


def render_metrics(metrics: Metrics) -> str:
    """Full text report of one ``Metrics`` collection."""
    out = ["spans:"]
    out += render_spans(metrics.spans)
    for title, rows in (
        ("fault-sim engine:", ENGINE_ROWS),
        ("injection replay:", REPLAY_ROWS),
        ("repair oracle:", REPAIR_ROWS),
    ):
        lines = render_rows(metrics.counters, rows)
        if lines:
            out.append("")
            out.append(title)
            out += lines
    out.append("")
    out.append("counters:")
    out += render_counters(metrics.counters)
    hist_lines = render_hists(metrics.hists)
    if hist_lines:
        out.append("")
        out.append("histograms:")
        out += hist_lines
    return "\n".join(out)


def hot_spans(span_events: List[Dict[str, Any]], top: int) -> List[str]:
    """The ``top`` longest individual span events from the stream."""
    if not span_events:
        return ["  (no span events streamed)"]
    ranked = sorted(span_events, key=lambda e: -e.get("dur", 0.0))[:top]
    lines = [f"  {'t+':>10} {'dur':>10}  span"]
    for ev in ranked:
        lines.append(
            f"  {ev.get('t', 0.0):>9.3f}s {_fmt_seconds(ev.get('dur', 0.0)):>10}"
            f"  {'. ' * ev.get('depth', 0)}{ev.get('name', '?')}"
        )
    return lines


def summarize(path, top: int = 10) -> str:
    """Render a trace file: meta, aggregates, and the hottest events.

    Prefers the trailing summary record (which includes worker-collected
    metrics the event stream never saw); a truncated trace without one
    falls back to aggregating the streamed span events.
    """
    trace = read_trace(path)
    meta = trace["meta"]
    metrics = trace["summary"]
    out = []
    head = f"trace {path}"
    argv = meta.get("argv")
    cmd = meta.get("command")
    if argv:
        head += f" — repro {' '.join(str(a) for a in argv)}"
    elif cmd:
        head += f" — repro {cmd}"
    out.append(head)
    out.append(
        f"{len(trace['spans'])} span events"
        + ("" if metrics is not None else " (no summary record: "
           "trace truncated; aggregating the event stream)")
    )
    out.append("")
    if metrics is None:
        metrics = Metrics()
        for ev in trace["spans"]:
            stat = metrics.spans.setdefault(ev["name"], SpanStat())
            stat.n += 1
            stat.total_s += ev.get("dur", 0.0)
    out.append(render_metrics(metrics))
    out.append("")
    out.append(f"top {top} hottest span events:")
    out += hot_spans(trace["spans"], top)
    return "\n".join(out)
