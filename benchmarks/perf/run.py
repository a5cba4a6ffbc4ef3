"""The repository's benchmark: four campaign workloads, one command.

    python3 benchmarks/perf/run.py [--workloads W ...] [--runs N | --seconds S]
        [--seed S] [--trace [0|1]] [--out F] [--compare BASE NEW] [--smoke]

Every repetition runs in a fresh process (``child.py``) with a fresh,
empty ``REPRO_CACHE_DIR`` inside the checkout.  Repetitions go
round-robin across the selected workloads.  The command prints every
metric by name with its unit, then one JSON object as its last line.
It appends one record per repetition to ``--out``, checks every output,
and exits nonzero if any check fails.  ``README.md`` documents the
workloads, metrics and bounds.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import uuid
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import calib
import report

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
REFERENCE = HERE / "reference.json"
DEFAULT_OUT = ROOT / ".repro_cache" / "perf" / "runs.jsonl"

#: A repetition that runs longer than this has hung.
CHILD_TIMEOUT_S = 100
DEFAULT_RUNS = 5


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _fingerprint() -> Dict[str, Optional[str]]:
    """Commit (when the checkout is a git repository) and a source hash."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            )
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def _failures(
    legs: dict, reference: Optional[dict], seed: int
) -> Tuple[int, List[str]]:
    """Failed operations: the child's own checks plus the reference.

    Legs the seed does not touch are compared at every seed, the others
    at seed 0, the seed ``reference.json`` was taken at.  Returns the
    count and one note per leg that differs from the reference.
    """
    failed, notes = 0, []
    for key, leg in legs.items():
        n = leg["ops"]
        if leg["bad"] == "all":
            failed += n
            continue
        bad = set(leg["bad"])
        if reference is not None and (leg["fixed"] or seed == 0):
            want, got = reference.get(key), leg["values"]
            if want is not None and len(want) == len(got) == n:
                differ = {i for i, (a, b) in enumerate(zip(got, want))
                          if a != b}
            else:
                differ = set(range(n)) if want != got else set()
            if differ:
                notes.append(f"{key}: {len(differ)} of {n} operations "
                             f"differ from reference.json")
            bad |= differ
        failed += min(len(bad), n)
    return failed, notes


class Bench:
    """One invocation: host fingerprint, records file, repetitions."""

    def __init__(self, out: Path, check_reference: bool = True) -> None:
        self.out = out
        self.tmp_root = out.parent / "tmp"
        self.host = {
            **_fingerprint(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
        }
        self.reference = (
            json.loads(REFERENCE.read_text())
            if check_reference and REFERENCE.exists() else None
        )

    def rep(
        self, workload: str, seed: int, toy: bool, traced: bool
    ) -> dict:
        """Run one repetition in a fresh process and record it."""
        self.tmp_root.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix="rep-", dir=self.tmp_root))
        run_id = uuid.uuid4().hex[:12]
        env = dict(os.environ, REPRO_CACHE_DIR=str(tmp), TMPDIR=str(tmp),
                   PYTHONHASHSEED="0")
        env.pop("RESCUE_CACHE_DIR", None)
        cmd = [sys.executable, str(HERE / "child.py"), "--workload",
               workload, "--seed", str(seed), "--run-id", run_id,
               "--result", str(tmp / "result.json")]
        if toy:
            cmd.append("--toy")
        if traced:
            cmd += ["--spans", str(self.trace_path(workload))]
        calib_s = calib.calibration_time()
        result, error = None, None
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
            if proc.returncode == 0:
                result = json.loads((tmp / "result.json").read_text())
            else:
                error = (f"child exited {proc.returncode}: "
                         + proc.stderr.strip()[-2000:])
        except subprocess.TimeoutExpired:
            error = f"child timed out after {CHILD_TIMEOUT_S} s"
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        rec = {
            "schema": 1,
            "time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "run_id": run_id, "workload": workload, "seed": seed,
            "toy": toy, "traced": traced, **self.host, "calib_s": calib_s,
        }
        if result is None:
            rec.update(ops=1, failed=1, errors=[error], metrics={})
        else:
            rec.update(self._summarize(workload, seed, toy, result))
        self.out.parent.mkdir(parents=True, exist_ok=True)
        with open(self.out, "a") as f:
            kept = {k: v for k, v in rec.items() if k != "legs"}
            f.write(json.dumps(kept) + "\n")
        return rec

    def _summarize(self, workload, seed, toy, result) -> dict:
        phases = result["phases"]
        setup = phases["setup"]["scaled_s"]
        run = phases["run"]["scaled_s"]
        legs = result["legs"]
        ops = sum(leg["ops"] for leg in legs.values())
        reference = None
        if self.reference is not None and not toy:
            reference = self.reference.get(workload, {})
        failed, notes = _failures(legs, reference, seed)
        out = {
            "numpy": result["numpy"],
            "dropped_params": result["dropped_params"],
            "ops": ops,
            "failed": failed,
            "errors": result["errors"] + notes,
            "metrics": {
                "wall_s": setup + run,
                "setup_s": setup,
                "peak_rss_mb": result["peak_rss_mb"],
                "ops_per_s": ops / run if run else 0.0,
            },
            "raw": {"wall_s": result["wall_raw_s"],
                    "setup_s": phases["setup"]["raw_s"]},
            "phases": phases,
            "legs": legs,
        }
        if "per_layer" in result:
            out["per_layer"] = {
                k: v[0] for k, v in result["per_layer"].items()
            }
            out["layers"] = result["layers"]
        return out

    def trace_path(self, workload: str) -> Path:
        return self.out.parent / f"trace-{workload}.jsonl"

    def measure(
        self, workloads: List[str], seed: int, toy: bool, traced: bool,
        runs: Optional[int], seconds: Optional[float],
    ) -> Dict[str, List[dict]]:
        """Round-robin repetitions; each round runs every workload once.

        In traced mode every untraced repetition is followed by a traced
        one, so the tracing overhead is measured on interleaved pairs.
        With ``seconds`` (and no ``runs``) the first round always runs;
        after it, no round starts that would end after ``seconds`` if it
        took as long as the longest round so far.
        """
        if traced:
            for w in workloads:
                self.trace_path(w).parent.mkdir(parents=True, exist_ok=True)
                self.trace_path(w).write_text("")
        reps: Dict[str, List[dict]] = {w: [] for w in workloads}
        t0 = time.perf_counter()
        longest = 0.0
        k = 0
        while True:
            if runs is not None and k >= runs:
                break
            if (runs is None and k > 0 and
                    time.perf_counter() - t0 + longest > seconds):
                break
            r0 = time.perf_counter()
            for w in workloads:
                for tr in (False, True) if traced else (False,):
                    rec = self.rep(w, seed, toy, tr)
                    reps[w].append(rec)
                    print(f"{w} rep {k + 1}{' traced' if tr else ''}: "
                          f"{rec['metrics'].get('wall_s', float('nan')):.3f}"
                          f" s, {rec['failed']}/{rec['ops']} failed",
                          file=sys.stderr, flush=True)
            longest = max(longest, time.perf_counter() - r0)
            k += 1
        return reps


def _values(
    reps: Dict[str, List[dict]], bench: dict, traced: bool
) -> Dict[str, Dict[str, List[float]]]:
    """Per workload, per metric: the values of every repetition."""
    out: Dict[str, Dict[str, List[float]]] = {}
    for w, recs in reps.items():
        plain = [r for r in recs if not r["traced"] and r["metrics"]]
        tr = [r for r in recs if r["traced"] and "per_layer" in r]
        values: Dict[str, List[float]] = {}
        if not traced:
            for m in bench["end_to_end"]:
                values[m["name"]] = [r["metrics"][m["name"]] for r in plain]
        else:
            for m in bench["per_layer"]:
                if m["name"] == "trace.overhead_pct":
                    if plain and tr:
                        base = report.quartiles(
                            [r["metrics"]["wall_s"] for r in plain])[1]
                        walls = [r["metrics"]["wall_s"] for r in tr]
                        values[m["name"]] = [
                            100.0 * (w_ / base - 1.0) for w_ in walls]
                    continue
                values[m["name"]] = [r["per_layer"][m["name"]] for r in tr]
        out[w] = {k: v for k, v in values.items() if v}
    return out


def run_benchmark(args, bench: dict) -> int:
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    runs = args.runs
    if runs is None and args.seconds is None:
        runs = DEFAULT_RUNS
    b = Bench(args.out)
    reps = b.measure(workloads, args.seed, False, bool(args.trace),
                     runs, args.seconds)
    return _finish(reps, bench, bool(args.trace), b)


def _finish(reps, bench, traced: bool, b: Bench) -> int:
    """Print the tables and the final JSON line; exit code."""
    metric_defs = bench["per_layer"] if traced else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in metric_defs}
    values = _values(reps, bench, traced)
    attempted = sum(r["ops"] for recs in reps.values() for r in recs)
    failed = sum(r["failed"] for recs in reps.values() for r in recs)
    errors = [f"{r['workload']}: {e}" for recs in reps.values()
              for r in recs for e in r["errors"]]
    metrics = {}
    for w, per_metric in values.items():
        for line in report.metric_table(w, per_metric, units):
            print(line)
        if traced:
            traced_recs = [r for r in reps[w] if "layers" in r]
            if traced_recs:
                traced_recs.sort(key=lambda r: r["metrics"]["wall_s"])
                mid = traced_recs[len(traced_recs) // 2]
                for line in report.layer_table(w, mid["layers"]):
                    print(line)
                print(f"  spans: {b.trace_path(w)}")
        for name, vals in per_metric.items():
            key = name if len(values) == 1 else f"{w}:{name}"
            metrics[key] = {"value": report.quartiles(vals)[1],
                            "unit": units[name]}
    for e in errors:
        print(f"ERROR {e}", file=sys.stderr)
    correct = failed == 0 and not errors
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_smoke(bench: dict) -> int:
    """Toy-size pass through the checks, records, compare and trace."""
    out = DEFAULT_OUT.parent / "smoke" / "runs.jsonl"
    shutil.rmtree(out.parent, ignore_errors=True)
    b = Bench(out)
    names = [w["name"] for w in bench["workloads"]]
    t0 = time.perf_counter()
    reps = b.measure(names, 0, True, True, 1, None)
    lines, worse = report.compare(out, out, bench["end_to_end"])
    for line in lines:
        print(line)
    code = _finish(reps, bench, True, b)
    print(f"smoke: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return 1 if worse or code else 0


def update_reference(bench: dict) -> int:
    """Rewrite reference.json from one seed-0 repetition per workload."""
    b = Bench(DEFAULT_OUT, check_reference=False)
    ref = {}
    for w in (x["name"] for x in bench["workloads"]):
        rec = b.rep(w, 0, False, False)
        if rec["failed"] or rec["errors"]:
            print(f"{w}: checks failed, reference not written: "
                  f"{rec['errors']}", file=sys.stderr)
            return 1
        ref[w] = {k: leg["values"] for k, leg in rec["legs"].items()}
    # One operation per line, so a changed result shows as a one-line diff.
    workloads = []
    for w, legs in sorted(ref.items()):
        body = ",\n".join(
            f"  {json.dumps(k)}: [\n"
            + ",\n".join(f"   {json.dumps(v, sort_keys=True)}" for v in vals)
            + "\n  ]"
            for k, vals in sorted(legs.items())
        )
        workloads.append(f" {json.dumps(w)}: {{\n{body}\n }}")
    REFERENCE.write_text("{\n" + ",\n".join(workloads) + "\n}\n")
    return 0


def main(argv=None) -> int:
    bench = _benchmark()
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    p.add_argument("--workloads", "--workload", nargs="+", choices=names,
                   help="workloads to run (default: all)")
    p.add_argument("--seed", type=int, default=0,
                   help="input seed; 0 reproduces the campaign defaults")
    p.add_argument("--runs", type=int,
                   help=f"rounds of repetitions (default {DEFAULT_RUNS})")
    p.add_argument("--seconds", type=float,
                   help="measure for this long instead of --runs rounds")
    p.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                   choices=(0, 1), help="traced run: per-layer metrics")
    p.add_argument("--out", type=Path, default=DEFAULT_OUT,
                   help="JSONL records file (appended to)")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"),
                   help="compare two records files and exit")
    p.add_argument("--smoke", action="store_true",
                   help="every workload at toy size, traced, compared")
    p.add_argument("--update-reference", action="store_true",
                   help="rewrite reference.json from seed 0")
    args = p.parse_args(argv)
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the
    # running child and the finally blocks remove its cache directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    if args.compare:
        lines, worse = report.compare(*args.compare, bench["end_to_end"])
        for line in lines:
            print(line)
        return 1 if worse else 0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if args.smoke:
        return run_smoke(bench)
    if args.update_reference:
        return update_reference(bench)
    return run_benchmark(args, bench)


if __name__ == "__main__":
    sys.exit(main())
