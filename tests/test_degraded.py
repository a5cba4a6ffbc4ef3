"""Tests for the degraded-configuration bridge and the IPC cache."""

import dataclasses
import json

import pytest

from repro.cpu import MachineConfig
from repro.cpu.degraded import (
    IpcCache,
    degraded_params,
    rescue_ipc_table,
    simulate_config,
)
from repro.yieldmodel.configs import CoreCounts, enumerate_configs


class TestDegradedParams:
    def test_counts_map_to_knobs(self):
        base = MachineConfig(rescue=True)
        cfg = degraded_params(
            base, CoreCounts(frontend=1, iq_int=1, lsq=1)
        )
        assert cfg.frontend_groups == 1
        assert cfg.iq_int_halves == 1
        assert cfg.lsq_halves == 1
        assert cfg.int_backend_groups == 2

    def test_baseline_machine_rejected(self):
        with pytest.raises(ValueError):
            degraded_params(MachineConfig(rescue=False), CoreCounts())


class TestIpcCache:
    def test_key_distinguishes_configs(self):
        a = IpcCache.key("gzip", MachineConfig(rescue=True), 1000, 1)
        b = IpcCache.key(
            "gzip", MachineConfig(rescue=True, lsq_halves=1), 1000, 1
        )
        c = IpcCache.key("gzip", MachineConfig(rescue=True), 1000, 2)
        assert len({a, b, c}) == 3

    def test_cache_roundtrip(self, tmp_path):
        cache = IpcCache(tmp_path / "ipc.json")
        cfg = MachineConfig(rescue=True)
        v1 = cache.get_or_run("gzip", cfg, n_instructions=800, warmup=400)
        # Second instance must read the persisted value, not re-simulate.
        cache2 = IpcCache(tmp_path / "ipc.json")
        key = IpcCache.key("gzip", cfg, 800, 12345, 400)
        assert cache2._data[key] == v1

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

        calls = []

        def fake_simulate(*args):
            calls.append(args)
            return 0.5 + len(calls)

        monkeypatch.setattr(degraded, "simulate_config", fake_simulate)
        cfg = MachineConfig(rescue=True)
        path = tmp_path / "ipc.json"
        assert IpcCache(path).get_or_run("gzip", cfg, 800, 1, 400) == 1.5
        assert IpcCache(path).get_or_run("gzip", cfg, 800, 1, 400) == 1.5
        assert len(calls) == 1  # same code: a hit
        monkeypatch.setattr(degraded, "sim_fingerprint", lambda: "0" * 64)
        assert IpcCache(path).get_or_run("gzip", cfg, 800, 1, 400) == 2.5
        assert len(calls) == 2  # other code: the old entry is not served

    def test_racing_caches_lose_no_entries(self, tmp_path):
        # Two cache instances on the same path, saving alternately: a
        # plain write_text would drop whichever keys the other instance
        # wrote last (lost update).  Merge-on-save must keep both.
        path = tmp_path / "ipc.json"
        a, b = IpcCache(path), IpcCache(path)
        a._data["ka"] = 1.0
        a._save()
        b._data["kb"] = 2.0
        b._save()  # b loaded before a's save: must merge, not clobber
        a._data["ka2"] = 3.0
        a._save()
        on_disk = json.loads(path.read_text())
        assert on_disk == {"ka": 1.0, "kb": 2.0, "ka2": 3.0}
        # Saving leaves no temp droppings behind.
        assert [p.name for p in tmp_path.iterdir()] == ["ipc.json"]

    def test_save_is_atomic_over_corrupt_file(self, tmp_path):
        # A half-written (corrupt) file must not poison the next save.
        path = tmp_path / "ipc.json"
        path.write_text('{"torn": 1.')
        cache = IpcCache(path)
        cache._data["k"] = 1.5
        cache._save()
        assert json.loads(path.read_text()) == {"k": 1.5}

    def test_default_path_uses_repro_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "unified"))
        monkeypatch.delenv("RESCUE_CACHE_DIR", raising=False)
        cache = IpcCache()
        assert cache.path == tmp_path / "unified" / "ipc_cache.json"

    def test_legacy_env_var_still_honoured(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("RESCUE_CACHE_DIR", str(tmp_path / "legacy"))
        cache = IpcCache()
        assert cache.path == tmp_path / "legacy" / "ipc_cache.json"

    def test_unified_var_wins_over_legacy(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "unified"))
        monkeypatch.setenv("RESCUE_CACHE_DIR", str(tmp_path / "legacy"))
        cache = IpcCache()
        assert cache.path == tmp_path / "unified" / "ipc_cache.json"

    def test_default_matches_runner_store_root(self, monkeypatch):
        from repro.runner.store import default_cache_root

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("RESCUE_CACHE_DIR", raising=False)
        assert IpcCache().path.parent == default_cache_root()
        assert default_cache_root().name == ".repro_cache"

    def test_simulate_config_returns_positive_ipc(self):
        ipc = simulate_config(
            "eon", MachineConfig(rescue=True),
            n_instructions=1500, warmup=500,
        )
        assert ipc > 0


class TestRescueIpcTable:
    def test_compose_covers_all_64(self, tmp_path):
        cache = IpcCache(tmp_path / "ipc.json")
        table = rescue_ipc_table(
            "gzip", MachineConfig(rescue=True), cache=cache,
            n_instructions=1200, warmup=400, compose=True,
        )
        assert len(table) == 64
        assert all(v >= 0 for v in table.values())

    def test_composed_values_multiply(self, tmp_path):
        cache = IpcCache(tmp_path / "ipc.json")
        table = rescue_ipc_table(
            "gzip", MachineConfig(rescue=True), cache=cache,
            n_instructions=1200, warmup=400, compose=True,
        )
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

    def test_full_config_present(self, tmp_path):
        cache = IpcCache(tmp_path / "ipc.json")
        table = rescue_ipc_table(
            "mcf", MachineConfig(rescue=True), cache=cache,
            n_instructions=800, warmup=200, compose=True,
        )
        assert CoreCounts().key() in table
        # Degraded configurations never beat full: ratios are clamped.
        full = table[CoreCounts().key()]
        for cfg in enumerate_configs():
            assert table[cfg.key()] <= full + 1e-9
