"""End-to-end smoke test for the campaign service (CI gate).

Starts a real ``repro serve`` subprocess on an ephemeral port and a
fresh cache root, submits a tiny isolation campaign over HTTP, polls it
to completion, and asserts the golden stats: every injected fault is
correctly isolated (the paper's §5 claim for the ATPG-backed flow) and
the service's merged result is bit-identical to a direct in-process
``run_isolation`` call.  It then restarts the service on the same cache
root and asserts the job is served from its persisted record without
running again.  Exits nonzero on any mismatch.

Usage: python benchmarks/smoke_service.py [--n-faults N] [--chunk-size C]
"""

import argparse
import dataclasses
import os
import select
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.runner import get_campaign  # noqa: E402
from repro.service import ServiceClient  # noqa: E402

PARAMS = {"n_faults": 12, "chunk_size": 3}


def spawn_service(cache_root):
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(cache_root)
    env["PYTHONPATH"] = str(
        Path(__file__).resolve().parents[1] / "src"
    ) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", "0", "--service-workers", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        ready, _, _ = select.select([proc.stdout], [], [], 1.0)
        if not ready:
            if proc.poll() is not None:
                break
            continue
        line = proc.stdout.readline()
        if line.startswith("serving on "):
            return proc, line.split("serving on ", 1)[1].strip()
        if not line:
            break
    proc.kill()
    raise SystemExit("FAIL: service did not start")


def stop(proc):
    if proc.poll() is None:
        proc.kill()
        proc.wait(timeout=10)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-faults", type=int, default=PARAMS["n_faults"])
    ap.add_argument("--chunk-size", type=int,
                    default=PARAMS["chunk_size"])
    args = ap.parse_args()
    params = {"n_faults": args.n_faults, "chunk_size": args.chunk_size}

    entry = get_campaign("isolation")
    t0 = time.perf_counter()
    direct = entry.run(entry.make_spec(params), checkpoint=False)
    t_direct = time.perf_counter() - t0
    golden = direct.to_json()

    root = tempfile.mkdtemp(prefix="repro-svc-smoke-")
    proc, url = spawn_service(root)
    try:
        client = ServiceClient(url)
        t0 = time.perf_counter()
        job = client.submit("isolation", params)["job"]
        result = client.wait(job, timeout=300)["result"]
        t_service = time.perf_counter() - t0
        status = client.status(job)
    finally:
        stop(proc)
    # A restart on the same cache root serves the job from its record.
    proc, url = spawn_service(root)
    try:
        client = ServiceClient(url)
        restarted = client.status(job)
        replayed = client.result(job)["result"]
    finally:
        stop(proc)

    stats = entry.result_cls.from_json(result)
    failures = []
    if result != golden:
        failures.append("service result differs from direct run")
    if stats.correct_rate != 1.0:
        failures.append(
            f"correct_rate {stats.correct_rate} != 1.0"
        )
    if status["state"] != "done" or status["run_count"] != 1:
        failures.append(f"unexpected job status: {status}")
    if restarted["state"] != "done" or restarted["run_count"] != 0:
        failures.append(f"unexpected status after restart: {restarted}")
    if replayed != result:
        failures.append("restarted service serves a different result")

    print(f"smoke_service: {params['n_faults']} faults | "
          f"direct {t_direct:.1f}s, via service {t_service:.1f}s | "
          f"correct_rate={stats.correct_rate:.3f}")
    print(f"  {stats.summary()}")
    if failures:
        for msg in failures:
            print(f"FAIL: {msg}")
        return 1
    print("OK: service result bit-identical to direct run, "
          "and served from its record after a restart")
    return 0


if __name__ == "__main__":
    sys.exit(main())
