"""Tests for the degraded-configuration bridge and the IPC cache."""

import dataclasses

import pytest

from repro.cpu import MachineConfig
from repro.cpu.degraded import (
    IpcCache,
    ipc_tables,
    measured_configs,
    simulate_config,
)
from repro.yieldmodel.configs import CoreCounts, enumerate_configs


class TestDegradedParams:
    def test_counts_map_to_knobs(self):
        cfg = MachineConfig(
            rescue=True, counts=CoreCounts(frontend=1, iq_int=1, lsq=1)
        )
        assert cfg.fetch_width == 2
        assert cfg.iq_int_size == 18
        assert cfg.lsq_size == 16
        assert cfg.int_issue_limit == 4
        assert cfg.int_alus == 4

    def test_baseline_machine_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(rescue=False, counts=CoreCounts(lsq=1))


class TestIpcCache:
    def test_key_distinguishes_configs(self):
        a = IpcCache.key("gzip", MachineConfig(rescue=True), 1000, 1)
        b = IpcCache.key(
            "gzip", MachineConfig(rescue=True, counts=CoreCounts(lsq=1)),
            1000, 1,
        )
        c = IpcCache.key("gzip", MachineConfig(rescue=True), 1000, 2)
        assert len({a, b, c}) == 3

    def test_cache_roundtrip(self, tmp_path, monkeypatch):
        import repro.cpu.degraded as degraded

        cache = IpcCache(tmp_path)
        cfg = MachineConfig(rescue=True)
        v1 = cache.get_or_run("gzip", cfg, n_instructions=800, warmup=400)
        # A second instance must read the persisted value, not re-simulate.
        monkeypatch.setattr(degraded, "simulate_config", None)
        cache2 = IpcCache(tmp_path)
        assert cache2.get_or_run("gzip", cfg, 800, 12345, 400) == v1

    def test_key_covers_every_config_field(self):
        """Fields outside the old hand-picked list still split keys."""
        base = MachineConfig(rescue=True)
        wider = dataclasses.replace(
            base, core=dataclasses.replace(base.core, l2_latency=20)
        )
        assert IpcCache.key("gzip", base, 1000, 1) != IpcCache.key(
            "gzip", wider, 1000, 1
        )

    def test_changed_code_fingerprint_misses(self, tmp_path, monkeypatch):
        """An entry written by other simulator code is re-simulated."""
        import repro.cpu.degraded as degraded
        import repro.runner.store as store

        calls = []

        def fake_simulate(*args):
            calls.append(args)
            return 0.5 + len(calls)

        monkeypatch.setattr(degraded, "simulate_config", fake_simulate)
        cfg = MachineConfig(rescue=True)
        assert IpcCache(tmp_path).get_or_run("gzip", cfg, 800, 1, 400) == 1.5
        assert IpcCache(tmp_path).get_or_run("gzip", cfg, 800, 1, 400) == 1.5
        assert len(calls) == 1  # same code: a hit
        monkeypatch.setattr(store, "code_fingerprint", lambda: "0" * 64)
        assert IpcCache(tmp_path).get_or_run("gzip", cfg, 800, 1, 400) == 2.5
        assert len(calls) == 2  # other code: the old entry is not served

    def test_racing_caches_lose_no_entries(self, tmp_path, monkeypatch):
        # Two cache instances on the same root, storing alternately:
        # each point is its own blob, so neither clobbers the other.
        import repro.cpu.degraded as degraded

        monkeypatch.setattr(degraded, "simulate_config", lambda b, *a: b)
        cfg = MachineConfig(rescue=True)
        a, b = IpcCache(tmp_path), IpcCache(tmp_path)
        a.get_or_run("ka", cfg)
        b.get_or_run("kb", cfg)
        a.get_or_run("ka2", cfg)
        monkeypatch.setattr(degraded, "simulate_config", None)
        fresh = IpcCache(tmp_path)
        assert [fresh.get_or_run(k, cfg) for k in ("ka", "kb", "ka2")] == [
            "ka", "kb", "ka2"
        ]
        # Storing leaves no temp droppings behind.
        assert all(p.suffix == ".blob" for p in tmp_path.iterdir())

    def test_save_is_atomic_over_corrupt_file(self, tmp_path, monkeypatch):
        # A half-written (corrupt) entry must not poison the next save.
        import repro.cpu.degraded as degraded

        cfg = MachineConfig(rescue=True)
        cache = IpcCache(tmp_path)
        path = cache.blobs.path(IpcCache.key("gzip", cfg, 20_000, 12345))
        path.write_bytes(b"torn")
        monkeypatch.setattr(degraded, "simulate_config", lambda *a: 1.5)
        assert cache.get_or_run("gzip", cfg) == 1.5
        monkeypatch.setattr(degraded, "simulate_config", None)
        assert IpcCache(tmp_path).get_or_run("gzip", cfg) == 1.5

    def test_default_path_uses_repro_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "unified"))
        cache = IpcCache()
        assert cache.blobs.root == tmp_path / "unified"

    def test_default_matches_runner_store_root(self, monkeypatch):
        from repro.runner.store import default_cache_root

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert IpcCache().blobs.root == default_cache_root()
        assert default_cache_root().name == ".repro_cache"

    def test_simulate_config_returns_positive_ipc(self):
        ipc = simulate_config(
            "eon", MachineConfig(rescue=True),
            n_instructions=1500, warmup=500,
        )
        assert ipc > 0


def _rescue_table(benchmark, n_instructions, warmup):
    """One benchmark's composed table from its measured points."""
    points = {
        (benchmark, counts.key()): simulate_config(
            benchmark,
            MachineConfig(rescue=True, counts=counts),
            n_instructions=n_instructions,
            warmup=warmup,
        )
        for counts in measured_configs()
    }
    return ipc_tables(points)[benchmark]


class TestRescueIpcTable:
    """The Rescue machine's 64-entry table through ``ipc_tables``."""

    def test_compose_covers_all_64(self):
        table = _rescue_table("gzip", 1200, 400)
        assert len(table) == 64
        assert all(v >= 0 for v in table.values())

    def test_composed_values_multiply(self):
        table = _rescue_table("gzip", 1200, 400)
        full = table[CoreCounts().key()]
        fe = table[CoreCounts(frontend=1).key()]
        lsq = table[CoreCounts(lsq=1).key()]
        both = table[CoreCounts(frontend=1, lsq=1).key()]
        if full > 0:
            # Ratios are clamped at 1 (degradation never helps), so the
            # composition multiplies the clamped single-dim ratios.
            expected = full * (fe / full) * (lsq / full)
            assert both == pytest.approx(expected, rel=1e-9)
            assert fe <= full + 1e-12 and lsq <= full + 1e-12

    def test_full_config_present(self):
        table = _rescue_table("mcf", 800, 200)
        assert CoreCounts().key() in table
        # Degraded configurations never beat full: ratios are clamped.
        full = table[CoreCounts().key()]
        for cfg in enumerate_configs():
            assert table[cfg.key()] <= full + 1e-9

    def test_measured_configs(self):
        composed = measured_configs()
        assert composed[0] == CoreCounts()
        assert [c.key().count(1) for c in composed] == [0] + [1] * 6
        assert measured_configs(compose=False) == tuple(enumerate_configs())

    def test_full_mode_clamps_every_entry(self):
        # Every degraded point beats the full one; all clamp to it.
        points = {("b", cfg.key()): 1.0 + cfg.key().count(1) / 100
                  for cfg in enumerate_configs()}
        table = ipc_tables(points)["b"]
        assert len(table) == 64
        assert set(table.values()) == {1.0}
