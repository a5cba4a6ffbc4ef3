"""Summaries, tables and the before/after comparison of benchmark records.

The comparison reports both medians and quartiles and the share of
pairs the change wins.  A gain needs nine tenths of the pairs won and a
median difference larger than the base's own quartile spread; with
fewer than ``MIN_GAIN_PAIRS`` pairs such a result is ``unresolved``.  A
regression is a median worse by more than the metric's bound.  Where
the base's spread is wider than the bound the verdict is
``unresolved``, unless every new run beats every base run.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(p25, median, p75)``, as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def load_records(path: Path) -> List[dict]:
    """Every well-formed JSON line of a records file (torn lines skipped)."""
    out = []
    for line in Path(path).read_text().splitlines():
        try:
            out.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return out


def _by_workload(records: Iterable[dict]) -> Dict[str, List[dict]]:
    """Untraced records per workload; toy-size ones under their own name."""
    groups: Dict[str, List[dict]] = {}
    for rec in records:
        if rec.get("traced"):
            continue
        name = rec["workload"] + ("/toy" if rec.get("toy") else "")
        groups.setdefault(name, []).append(rec)
    return groups


#: Fewer pairs than this never count as a gain: with three pairs a change
#: that does nothing still wins all of them one time in eight.
MIN_GAIN_PAIRS = 10


def verdict(
    base: Sequence[float], new: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    """``(verdict, share of pairs the change wins)`` for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0) / len(pairs)
    b25, bmed, b75 = quartiles(base)
    _, nmed, _ = quartiles(new)
    gain = sign * (nmed - bmed)
    all_better = all(sign * (n - b) > 0 for n in new for b in base)
    wide = bmed and (b75 - b25) / abs(bmed) > bound
    if wide and not all_better:
        return "unresolved", wins
    if bmed and -gain / abs(bmed) > bound:
        return "worse", wins
    if (wide and all_better) or (wins >= 0.9 and gain > b75 - b25):
        enough = len(pairs) >= MIN_GAIN_PAIRS
        return ("better" if enough else "unresolved"), wins
    return "same", wins


def compare(
    base_path: Path, new_path: Path, metrics: List[dict]
) -> Tuple[List[str], bool]:
    """Table lines comparing two records files; True if any is worse."""
    base, new = (_by_workload(load_records(p)) for p in (base_path, new_path))
    lines = [
        f"{'workload':16s} {'metric':12s} {'base p25/med/p75':>28s} "
        f"{'new p25/med/p75':>28s} {'wins':>5s}  verdict"
    ]
    any_worse = False
    for workload in sorted(set(base) & set(new)):
        for m in metrics:
            b = [r["metrics"][m["name"]] for r in base[workload]
                 if m["name"] in r.get("metrics", {})]
            n = [r["metrics"][m["name"]] for r in new[workload]
                 if m["name"] in r.get("metrics", {})]
            if not b or not n:
                continue
            v, wins = verdict(b, n, m["better"], m["bound"])
            any_worse |= v == "worse"
            fmt = "{:8.4g} {:8.4g} {:8.4g}".format
            lines.append(
                f"{workload:16s} {m['name']:12s} {fmt(*quartiles(b)):>28s} "
                f"{fmt(*quartiles(n)):>28s} {wins:5.0%}  {v}"
                f"  (n={len(b)}/{len(n)}, bound {m['bound']:.0%})"
            )
    return lines, any_worse


def metric_table(
    workload: str, reps: Dict[str, List[float]], units: Dict[str, str]
) -> List[str]:
    """Median, quartiles and run count of every metric of one workload."""
    lines = [f"{workload}:"]
    for name, values in reps.items():
        p25, med, p75 = quartiles(values)
        lines.append(
            f"  {name:28s} {med:12.5g} {units[name]:6s} "
            f"p25 {p25:.5g}  p75 {p75:.5g}  n={len(values)}"
        )
    return lines


def layer_table(workload: str, layers: Dict[str, Dict[str, float]]) -> List[str]:
    """Calls, total and self seconds per span, heaviest self time first."""
    lines = [
        f"{workload} per-layer spans:",
        f"  {'span':22s} {'calls':>8s} {'total s':>10s} {'self s':>10s}",
    ]
    for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"  {name:22s} {row['calls']:8d} {row['total_s']:10.4f} "
            f"{row['self_s']:10.4f}"
        )
    return lines
