"""Damaged persisted state is a counted miss, never a served result.

One matrix over every persisted kind (shard checkpoints, service job
records, golden prefix, first-effect scan, IPC memo) and every kind of
damage (a truncated body, one flipped body byte, a blob written by other
code, a leftover tmp file from a killed writer).  Each case must count
the miss and recompute to a result equal to the cold run, after which
the entry on disk is whole again.  A benchmark table also goes stale
when a benchmark script changes.
"""

import importlib.util
import pickle
import shutil
from pathlib import Path

import pytest

import repro.inject.campaign as inject_campaign
from repro.cpu import MachineConfig
from repro.cpu.degraded import IpcCache
from repro.inject import InjectionSpec, run_injection
from repro.runner import MonteCarloSpec, get_campaign, run_montecarlo
from repro.runner import store
from repro.service.testing import service_fixture
from repro.telemetry import TELEMETRY

MC_PARAMS = {"n_chips": 400, "chunk_size": 100}
MC_SPEC = MonteCarloSpec(**MC_PARAMS)
INJECT_SPEC = InjectionSpec(
    n_instructions=300, n_faults=6, chunk_size=6, checkpoint_interval=32,
    golden_cache=True,
)
IPC_POINT = ("gzip", MachineConfig(rescue=True), 800, 1, 400)
BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _shard_run(root, resume):
    return run_montecarlo(MC_SPEC, resume=resume, cache_root=root)


def _job_run(root, resume):
    """The job's result as a service on ``root`` serves it."""
    job = get_campaign("montecarlo").job_key(MC_SPEC)
    with service_fixture(root, service_workers=0) as (client, svc):
        if resume and svc.queue.get(job) is not None:
            return client.result(job)["result"]
        client.submit("montecarlo", MC_PARAMS)
        assert svc.run_once()
        return client.result(job)["result"]


def _inject_run(root, resume):
    inject_campaign.prepare_injection.cache_clear()
    try:
        return run_injection(INJECT_SPEC, checkpoint=False).to_json()
    finally:
        inject_campaign.prepare_injection.cache_clear()


def _ipc_run(root, resume):
    return IpcCache(root).get_or_run(*IPC_POINT)


#: kind -> (run(root, resume), the miss counter of an absent entry)
KINDS = {
    "shard": (_shard_run, "runner.shards.computed"),
    "job": (_job_run, None),  # an unwritten job is simply unknown
    "golden": (_inject_run, "cache.golden.miss"),
    "scan": (_inject_run, "cache.scan.miss"),
    "ipc": (_ipc_run, "cache.ipc.miss"),
}


def _target(root, kind):
    """The blob of ``kind`` the damage lands on."""
    blobs = sorted(root.glob(f"{kind}-*.blob"))
    assert blobs, f"cold run wrote no {kind} blob"
    return blobs[len(blobs) // 2]


def _flip(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


def _damage(path, damage):
    data = path.read_bytes()
    body = data.index(b"\n") + 1  # the header is one line
    if damage == "truncate":
        path.write_bytes(data[: body + (len(data) - body) // 2])
    elif damage == "flip":
        _flip(path, body + (len(data) - body) // 2)
    elif damage == "flip-log":
        # The commit log is pickled first, right after its key.
        _flip(path, data.index(b"log", body) + 64)
    elif damage == "flip-arena":
        arena = pickle.loads(data[body:])["arena"]
        chunk = arena._blobs[-1]
        _flip(path, data.index(chunk) + len(chunk) // 2)
    elif damage == "tmp":
        store.tmp_path(path).write_bytes(data[: len(data) // 2])
        path.unlink()
    else:
        raise AssertionError(damage)


CASES = [
    (kind, damage)
    for kind in KINDS
    for damage in ("truncate", "flip", "stale", "tmp")
] + [("golden", "flip-log"), ("golden", "flip-arena")]


@pytest.mark.parametrize("kind,damage", CASES)
def test_damage_is_a_counted_miss_then_recomputes(
    kind, damage, tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    run, miss_counter = KINDS[kind]
    cold = run(tmp_path, resume=False)
    if damage == "stale":
        # Rewrite the cache as other code would have written it.
        for path in tmp_path.glob("*.blob"):
            _, value = store.decode(path.read_bytes())
            with monkeypatch.context() as m:
                m.setattr(store, "code_fingerprint", lambda: "0" * 64)
                path.write_bytes(store.encode(value))
        path = _target(tmp_path, kind)
    else:
        path = _target(tmp_path, kind)
        _damage(path, damage)

    TELEMETRY.reset()
    TELEMETRY.enable()
    try:
        with TELEMETRY.collect() as metrics:
            warm = run(tmp_path, resume=True)
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()

    counter = {
        "stale": f"cache.{kind}.stale", "tmp": miss_counter,
    }.get(damage, f"cache.{kind}.corrupt")
    if counter is not None:
        assert metrics.counters.get(counter, 0) >= 1, metrics.counters
    assert warm == cold
    outcome, _ = store.decode(path.read_bytes())
    assert outcome == store.HIT  # the recomputation overwrote the entry


def _bench_conftest(scripts, name):
    """``benchmarks/conftest.py`` loaded from the copy in ``scripts``."""
    spec = importlib.util.spec_from_file_location(
        name, scripts / "conftest.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_bench_table_goes_stale_when_a_script_changes(tmp_path, monkeypatch):
    """A cached ``bench-*.blob`` table is stamped with every benchmark
    script: editing one (here the reader of another script's table)
    turns it into a counted stale miss, and the next save is a hit."""
    scripts = tmp_path / "benchmarks"
    scripts.mkdir()
    for name in ("conftest.py", "bench_escapes.py"):
        shutil.copy(BENCHMARKS / name, scripts / name)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    table = {"rescue": {"coverage_pct": 97.5}}
    _bench_conftest(scripts, "bench_conftest_a").save_json("table3", table)
    assert _bench_conftest(scripts, "bench_conftest_b").cache_json(
        "table3"
    ) == table

    with open(scripts / "bench_escapes.py", "a") as f:
        f.write("\n# edited\n")
    edited = _bench_conftest(scripts, "bench_conftest_c")
    TELEMETRY.reset()
    TELEMETRY.enable()
    try:
        with TELEMETRY.collect() as metrics:
            assert edited.cache_json("table3") is None
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()
    assert metrics.counters == {"cache.bench.stale": 1}
    edited.save_json("table3", table)
    assert edited.cache_json("table3") == table
