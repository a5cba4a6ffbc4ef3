"""Out-of-process crash recovery: SIGKILL the real service mid-campaign.

Unlike ``test_service_faults.py`` (in-process, simulated kills), this
test runs ``repro serve`` as a real subprocess, SIGKILLs it while shards
are streaming into the checkpoint store, leaves a shard write torn as a
kill mid-write would, and restarts the service on the same cache root.
The journal must requeue the unfinished job, the torn write must leave
no trace, and the resumed run must reuse the surviving checkpoints and
merge to the exact direct-runner result.
"""

import dataclasses
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.runner import CheckpointStore, MonteCarloSpec, run_montecarlo
from repro.service import ServiceClient
from repro.service.testing import torn_write

PARAMS = {"n_chips": 12000, "chunk_size": 80}  # 150 shards


def _spawn_service(cache_root: Path) -> "tuple[subprocess.Popen, str]":
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
    line = ""
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
    pytest.fail(f"service did not start (last output: {line!r})")


def _kill(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
        proc.wait(timeout=10)


def test_sigkill_mid_campaign_then_restart_resumes(tmp_path):
    direct = dataclasses.asdict(
        run_montecarlo(MonteCarloSpec(**PARAMS), checkpoint=False)
    )

    proc, url = _spawn_service(tmp_path)
    try:
        client = ServiceClient(url)
        job = client.submit("montecarlo", PARAMS)["job"]
        # Let checkpoints accumulate, then pull the plug uncleanly.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if client.status(job)["progress"]["done"] >= 5:
                break
            time.sleep(0.02)
        else:
            pytest.fail("no shard progress before deadline")
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)
    finally:
        _kill(proc)

    # Simulate the kill having landed mid-write of the next shard.
    store = CheckpointStore.for_spec(
        "montecarlo", MonteCarloSpec(**PARAMS), tmp_path
    )
    done = store.load()
    assert done, "checkpoint store missing after kill"
    nxt = min(set(range(150)) - set(done))
    torn_write(store.blobs, f"{store.prefix}{nxt}", done[min(done)])

    proc, url = _spawn_service(tmp_path)
    try:
        client = ServiceClient(url)
        # The journal replays the unfinished job; no resubmit needed.
        result = client.wait(job, timeout=120)
        st = client.status(job)
        assert st["progress"]["cached"] >= 5
        assert st["run_count"] <= 1  # resumed, not recomputed
        assert result["result"] == direct
    finally:
        _kill(proc)
