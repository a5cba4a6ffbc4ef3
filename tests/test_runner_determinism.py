"""Determinism guarantees of the parallel campaign runner.

The contract under test: for a fixed spec, the merged result of every
campaign is bit-identical for any worker count and any chunk size, equals
the serial reference implementation, and a run resumed from a partial
checkpoint (half the shards dropped, as after a kill) equals a fresh run
while recomputing only the missing shards.
"""

import dataclasses

import pytest

from repro.runner import (
    CheckpointStore,
    IpcSweepSpec,
    IsolationSpec,
    MonteCarloSpec,
    config_hash,
    derive_seed,
    run_ipc_sweep,
    run_isolation,
    run_montecarlo,
    run_shards,
    shard_ranges,
)
from repro.runner.campaigns import analytic_penalty_table


class TestSeeding:
    def test_golden_values(self):
        # Pinned: the sha256-based construction must never drift, or
        # checkpoints and published numbers silently change meaning.
        assert derive_seed(0, 0) == 209235298690995087
        assert derive_seed(1, 2, "mc-chip") == 14849605422600723987

    def test_independent_of_process_salt(self):
        # Unlike hash(), the derivation uses no per-process salt: two
        # fresh computations agree.
        assert derive_seed(42, 7, "x") == derive_seed(42, 7, "x")

    def test_label_and_index_separate_streams(self):
        seeds = {
            derive_seed(5, i, label)
            for i in range(50)
            for label in ("a", "b", "")
        }
        assert len(seeds) == 150

    def test_shard_ranges_cover_exactly(self):
        for n in (0, 1, 7, 64, 65):
            for chunk in (1, 3, 64, 100):
                spans = shard_ranges(n, chunk)
                flat = [i for a, b in spans for i in range(a, b)]
                assert flat == list(range(n))

    def test_shard_ranges_rejects_bad_chunk(self):
        with pytest.raises(ValueError):
            shard_ranges(10, 0)


class TestCheckpointStore:
    def test_roundtrip_and_drop(self, tmp_path):
        store = CheckpointStore("c", "k", root=tmp_path)
        store.append(0, {"x": 1})
        store.append(2, {"x": 3})
        assert store.load() == {0: {"x": 1}, 2: {"x": 3}}
        store.drop([0])
        assert store.load() == {2: {"x": 3}}
        store.clear()
        assert store.load() == {}

    def test_truncated_blob_skipped(self, tmp_path):
        # A shard blob cut short (a crash before the data reached disk)
        # fails its checksum; load must drop it (the shard reruns)
        # rather than fail.
        store = CheckpointStore("c", "k", root=tmp_path)
        store.append(0, {"x": 1})
        store.append(1, {"x": 2})
        data = store.path(1).read_bytes()
        store.path(1).write_bytes(data[:-3])
        assert store.load() == {0: {"x": 1}}

    def test_config_hash_sensitivity(self):
        spec = IsolationSpec(n_faults=60)
        other = dataclasses.replace(spec, fault_seed=2)
        assert config_hash(dataclasses.asdict(spec)) != config_hash(
            dataclasses.asdict(other)
        )


class TestRunShards:
    def test_resume_without_store_fails_loudly(self):
        # Resuming with checkpoints off would silently recompute every
        # shard; it must raise before any shard runs.
        ran = []
        with pytest.raises(ValueError, match="resume"):
            run_shards(
                "probe", MC_SPEC, [0, 1], ran.append, init=ran.append,
                resume=True, checkpoint=False,
            )
        assert ran == []


# One small campaign spec shared by the isolation tests: the tiny Rescue
# model with random-pattern vectors (deterministic PODEM adds nothing to
# the sharding question and much to the runtime).
ISO_SPEC = IsolationSpec(
    tiny=True, n_faults=60, max_deterministic=0, chunk_size=13
)


@pytest.fixture(scope="module")
def iso_serial():
    """Serial reference result via the original experiment driver."""
    from repro.rtl import RtlParams, build_rescue_rtl
    from repro.rtl.experiment import generate_tests, isolation_experiment

    setup = generate_tests(
        build_rescue_rtl(RtlParams.tiny()),
        seed=ISO_SPEC.atpg_seed,
        max_deterministic=0,
    )
    return isolation_experiment(
        setup, n_faults=ISO_SPEC.n_faults, seed=ISO_SPEC.fault_seed
    )


class TestIsolationDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_workers_match_serial(self, iso_serial, workers):
        stats = run_isolation(
            ISO_SPEC, workers=workers, checkpoint=False
        )
        assert stats == iso_serial

    @pytest.mark.parametrize("chunk_size", [7, 25, 60])
    def test_chunk_size_invariant(self, iso_serial, chunk_size):
        spec = dataclasses.replace(ISO_SPEC, chunk_size=chunk_size)
        stats = run_isolation(spec, workers=2, checkpoint=False)
        assert stats == iso_serial

    def test_resume_after_kill(self, iso_serial, tmp_path):
        # Fresh checkpointed run, then drop half the shards (as a kill
        # mid-campaign would) and resume: identical result, and only the
        # dropped shards recompute.
        events = []
        stats = run_isolation(
            ISO_SPEC,
            workers=2,
            cache_root=tmp_path,
            progress=events.append,
        )
        assert stats == iso_serial
        n_shards = len(shard_ranges(ISO_SPEC.n_faults, ISO_SPEC.chunk_size))
        assert len(events) == n_shards

        store = CheckpointStore.for_spec("isolation", ISO_SPEC, tmp_path)
        survivors = sorted(store.load())
        assert survivors == list(range(n_shards))
        dropped = survivors[: n_shards // 2]
        store.drop(dropped)

        events = []
        resumed = run_isolation(
            ISO_SPEC,
            workers=2,
            resume=True,
            cache_root=tmp_path,
            progress=events.append,
        )
        assert resumed == iso_serial
        cached = {e.shard for e in events if e.cached}
        recomputed = {e.shard for e in events if not e.cached}
        assert recomputed == set(dropped)
        assert cached == set(survivors[n_shards // 2:])

    def test_fresh_run_clears_stale_checkpoint(self, tmp_path):
        # Without --resume a checkpointed run must not merge stale
        # shards: poison the store, rerun fresh, compare to clean.
        clean = run_isolation(ISO_SPEC, workers=1, checkpoint=False)
        store = CheckpointStore.for_spec("isolation", ISO_SPEC, tmp_path)
        store.append(0, {"inserted": 999, "undetected": 0, "correct": 999,
                         "ambiguous": 0, "wrong": 0, "by_block": {}})
        fresh = run_isolation(
            ISO_SPEC, workers=1, cache_root=tmp_path
        )
        assert fresh == clean


MC_SPEC = MonteCarloSpec(
    node_nm=32.0, n_chips=300, seed=7, chunk_size=47
)


@pytest.fixture(scope="module")
def mc_serial():
    """Serial reference via simulate_chips (the pre-runner API)."""
    from repro.yieldmodel import FaultDensityModel
    from repro.yieldmodel.montecarlo import simulate_chips

    return simulate_chips(
        FaultDensityModel(stagnation_node_nm=MC_SPEC.stagnation_node_nm),
        MC_SPEC.node_nm,
        MC_SPEC.growth,
        MC_SPEC.baseline_ipc,
        analytic_penalty_table(MC_SPEC.full_ipc),
        n_chips=MC_SPEC.n_chips,
        seed=MC_SPEC.seed,
    )


class TestMonteCarloDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_workers_match_serial(self, mc_serial, workers):
        mc = run_montecarlo(MC_SPEC, workers=workers, checkpoint=False)
        assert mc == mc_serial  # exact float equality, all fields

    @pytest.mark.parametrize("chunk_size", [29, 100, 300])
    def test_chunk_size_invariant(self, mc_serial, chunk_size):
        spec = dataclasses.replace(MC_SPEC, chunk_size=chunk_size)
        mc = run_montecarlo(spec, workers=2, checkpoint=False)
        assert mc == mc_serial

    def test_resume_equals_fresh(self, mc_serial, tmp_path):
        run_montecarlo(MC_SPEC, workers=2, cache_root=tmp_path)
        store = CheckpointStore.for_spec("montecarlo", MC_SPEC, tmp_path)
        shards = sorted(store.load())
        store.drop(shards[: len(shards) // 2])
        resumed = run_montecarlo(
            MC_SPEC, workers=2, resume=True, cache_root=tmp_path
        )
        assert resumed == mc_serial

    def test_std_error_populated(self, mc_serial):
        assert mc_serial.std_error > 0.0


IPC_SPEC = IpcSweepSpec(
    benchmarks=("swim",), n_instructions=1500, warmup=500
)


class TestIpcSweepDeterminism:
    @pytest.fixture(scope="class")
    def serial(self):
        return run_ipc_sweep(IPC_SPEC, workers=1, checkpoint=False)

    def test_parallel_matches_serial(self, serial):
        parallel = run_ipc_sweep(IPC_SPEC, workers=2, checkpoint=False)
        assert parallel.measured == serial.measured

    def test_matches_rescue_ipc_table(self, serial):
        # The composed table equals the original single-process
        # composition path in degraded.py given the same measurements.
        from repro.cpu.degraded import compose_ipc_table
        from repro.yieldmodel.configs import DIMENSIONS, CoreCounts

        full_key = CoreCounts().key()
        full = serial.measured[("swim", full_key)]
        ratios = {
            dim: min(
                1.0,
                serial.measured[("swim", CoreCounts(**{dim: 1}).key())]
                / full,
            )
            for dim in DIMENSIONS
        }
        assert serial.tables()["swim"] == compose_ipc_table(full, ratios)

    def test_resume_equals_fresh(self, serial, tmp_path):
        run_ipc_sweep(IPC_SPEC, workers=2, cache_root=tmp_path)
        store = CheckpointStore.for_spec("ipc", IPC_SPEC, tmp_path)
        shards = sorted(store.load())
        store.drop(shards[::2])
        resumed = run_ipc_sweep(
            IPC_SPEC, workers=2, resume=True, cache_root=tmp_path
        )
        assert resumed.measured == serial.measured

    def test_merge_rejects_conflicts(self):
        from repro.runner import IpcSweepResult

        a = IpcSweepResult({("swim", (2,) * 6): 1.0})
        b = IpcSweepResult({("swim", (2,) * 6): 2.0})
        with pytest.raises(ValueError):
            a.merge(b)
