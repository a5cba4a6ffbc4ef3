"""One repetition of one workload, in a fresh process.

``run.py`` starts this script once per repetition, with a fresh empty
``REPRO_CACHE_DIR``, and reads the JSON it writes to ``--result``.  The
program is imported from the checkout's ``src/`` and nowhere else.

Timing: the wall clock starts after the program is imported, when the
workload builds its first spec, and stops at its checked result.  The
import is not timed: in fresh processes on the reference host it took
0.06 s in one ten-minute stretch and 0.12-0.19 s in others, with the
calibration slices reading the same speed throughout.  Set-up is every
``prepare_*`` call (and ``ipc-sweep``'s warm-up sweep).  Both phases
are sampled by the calibration ticker (see ``calib.py``) and reported
in raw seconds and in seconds at the reference speed.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import calib

ROOT = Path(__file__).resolve().parent.parent.parent

#: Timed slices on each side of a chunk that estimate its host speed.
WINDOW = 4


class Ticker:
    """Splits a repetition into set-up and run phases and samples speed.

    Every ``calib.PERIOD_S`` a ``SIGALRM`` handler runs two calibration
    slices and times the second.  The first refills the caches the
    workload evicted; timed cold, a slice reads up to 60% slower under a
    numpy-heavy workload than under a pure-Python one.  Each timed slice
    is filed under the phase that was running, and the handler's time
    is excluded from that phase's seconds.
    """

    def __init__(self) -> None:
        self.phase = "run"
        self.mark = time.perf_counter()
        #: (phase, workload seconds, timed slice seconds or None)
        self.chunks: list = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        self.mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, calib.PERIOD_S, calib.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._switch(self.phase)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        calib.calibration_slice()
        t1 = time.perf_counter()
        calib.calibration_slice()
        t2 = time.perf_counter()
        self.chunks.append((self.phase, t0 - self.mark, t2 - t1))
        self.mark = t2

    def _switch(self, phase: str) -> None:
        now = time.perf_counter()
        self.chunks.append((self.phase, now - self.mark, None))
        self.phase, self.mark = phase, now

    def setup(self, fn, *args):
        """Call ``fn`` as set-up work inside the run phase."""
        prev = self.phase
        self._switch("setup")
        try:
            return fn(*args)
        finally:
            self._switch(prev)

    def summary(self) -> dict:
        """Per phase: raw and scaled seconds, slice count and median.

        Each chunk of workload time is scaled by ``calib.scale`` of the
        median of the ``2 * WINDOW + 1`` timed slices nearest to it.
        Host speed changes within seconds, so a local estimate tracks
        it; one median per phase gave up to four times the run-to-run
        spread in a ten-seed test.
        """
        slices = [s for _, _, s in self.chunks if s is not None]
        out = {p: {"raw_s": 0.0, "scaled_s": 0.0, "slices": []}
               for p in ("setup", "run")}
        k = 0  # timed slices seen before this chunk
        for phase, work, s in self.chunks:
            o = out[phase]
            window = slices[max(0, k - WINDOW):k + WINDOW + 1]
            scale = calib.scale(statistics.median(window)) if window else 1.0
            o["raw_s"] += work
            o["scaled_s"] += work * scale
            if s is not None:
                o["slices"].append(s)
                k += 1
        for o in out.values():
            taken = o.pop("slices")
            o["slices"] = len(taken)
            o["slice_median_s"] = statistics.median(taken) if taken else None
        return out


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    where = Path(repro.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"repro imported from {where}, not {ROOT / 'src'}")
    import numpy

    return numpy.__version__


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--toy", action="store_true")
    p.add_argument("--spans", help="append traced spans to this file")
    p.add_argument("--run-id", default="")
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    numpy_version = _import_program()
    import suite

    tracer = None
    if args.spans:
        import spans
        from repro.telemetry import TELEMETRY

        tracer = spans.Tracer()
        tracer.install()
        TELEMETRY.enable()

    ticker = Ticker()
    tally = suite.Tally(ticker)
    ticker.start()
    t0 = time.perf_counter()
    suite.WORKLOADS[args.workload](tally, args.seed, args.toy)
    wall = time.perf_counter() - t0
    ticker.stop()

    result = {
        "phases": ticker.summary(),
        "wall_raw_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "numpy": numpy_version,
        "legs": tally.legs,
        "errors": tally.errors,
        "dropped_params": tally.dropped,
    }
    if tracer is not None:
        from repro.telemetry import TELEMETRY

        layers = tracer.layers()
        result["layers"] = layers
        result["per_layer"] = spans.per_layer(
            tracer, TELEMETRY.metrics.counters, wall
        )
        missing = spans.guard(layers, args.workload)
        if missing:
            result["errors"].append(
                "span guard: declared spans never fired: "
                + ", ".join(missing)
            )
        tracer.write(args.spans, args.run_id)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
