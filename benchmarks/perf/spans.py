"""Span recorders for the traced run, installed from outside the program.

Each wrapper goes where the caller looks the name up.  Class methods
are wrapped on the class.  A function imported at module level is
wrapped on every importing module.  A function imported inside a
function body is wrapped on the module that body imports it from,
where each call resolves it.  Spans hold a name, start, end and parent span id,
and stay in memory until the repetition ends.

``SPANS`` also declares which workloads must hit each span.  The traced
run fails loudly when a wrapped name no longer resolves, or when a
declared span fires zero times on a workload that should hit it.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

INJECT = ("inject-gzip", "inject-mcf")
CORE = INJECT + ("ipc-sweep",)
GATE = ("gate-tiny",)
ALL = CORE + GATE

#: (span name, module, attribute path, workloads that must hit it)
SPANS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("cpu.run", "repro.cpu.pipeline", "Core.run", CORE),
    ("cpu.snapshot", "repro.cpu.pipeline", "Core.snapshot", INJECT),
    ("cpu.restore", "repro.cpu.pipeline", "Core.restore", INJECT),
    ("inject.golden", "repro.inject.harness", "run_golden", INJECT),
    ("inject.arena_append", "repro.inject.arena", "SnapshotArena.append",
     INJECT),
    ("inject.arena_get", "repro.inject.arena", "SnapshotArena.get", INJECT),
    ("inject.scan", "repro.inject.harness", "first_effect_scan",
     ("inject-gzip",)),
    ("inject.replay", "repro.inject.harness", "run_with_fault", INJECT),
    ("inject.replay", "repro.inject.harness", "ReplaySession.run", ()),
    ("inject.cache", "repro.inject.goldencache", "load_golden",
     ("inject-gzip",)),
    ("inject.cache", "repro.inject.goldencache", "store_golden", ()),
    ("inject.cache", "repro.inject.goldencache", "load_scan", ()),
    ("inject.cache", "repro.inject.goldencache", "store_scan", ()),
    ("atpg.run", "repro.rtl.experiment", "run_atpg", GATE),
    ("atpg.podem", "repro.atpg.podem_compiled", "CompiledPodem.generate",
     GATE),
    ("atpg.grade", "repro.atpg.flow", "grade_faults", GATE),
    ("netlist.build", "repro.rtl", "build_rescue_rtl", GATE),
    ("netlist.build", "repro.rtl", "build_baseline_rtl", GATE),
    ("core.netcheck", "repro.repair.campaign", "check_netlist_ici", GATE),
    ("core.netcheck", "repro.repair.oracle", "check_netlist_ici", GATE),
    ("scan.isolate", "repro.rtl.experiment", "isolation_experiment", GATE),
    ("repair.oracle", "repro.repair.campaign", "verify_candidate", GATE),
    ("runner.run_shards", "repro.runner.campaigns", "run_shards",
     ("ipc-sweep", "gate-tiny")),
    ("runner.run_shards", "repro.inject.campaign", "run_shards", INJECT),
    ("runner.run_shards", "repro.repair.campaign", "run_shards", GATE),
    ("runner.store", "repro.runner.store", "CheckpointStore.append", ALL),
    ("workloads.trace", "repro.workloads.generator", "generate_trace",
     INJECT),
    ("workloads.trace", "repro.workloads", "generate_trace", ("ipc-sweep",)),
)


class SpanGuardError(RuntimeError):
    """A name the traced run must wrap no longer resolves."""


# -- probes: per-span extras measured around the wrapped call -----------

def _core_run(args, kwargs):
    core = args[0]
    c0, k0 = core.cycle, core.committed
    return lambda result: {
        "cycles": core.cycle - c0, "instr": core.committed - k0,
    }


def _golden(args, kwargs):
    def finish(golden):
        if golden.arena is None:
            return None
        stats = golden.arena.stats()
        return {"raw_bytes": stats["raw_bytes"],
                "bytes": stats["compressed_bytes"]}
    return finish


def _scan_verdicts(args, kwargs):
    return lambda result: (
        {"verdicts": len(result)} if isinstance(result, dict) else None
    )


def _run_shards(args, kwargs):
    shard_s = [0.0]
    user = kwargs.get("progress")

    def progress(event):
        shard_s[0] += event.seconds
        if user is not None:
            user(event)

    kwargs["progress"] = progress
    return lambda result: {"shard_s": shard_s[0]}


#: Span name -> probe.  ``inject.cache`` counts only the scan verdicts
#: ``load_scan`` returns; its other functions return no dict.
_PROBES: Dict[str, Callable] = {
    "cpu.run": _core_run,
    "inject.golden": _golden,
    "inject.scan": _scan_verdicts,
    "inject.cache": _scan_verdicts,
    "runner.run_shards": _run_shards,
}


class Tracer:
    """In-memory span recorder for one traced repetition.

    ``spans`` rows are ``[id, parent, name, start, end, extra]``.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def install(self) -> None:
        """Wrap every declared name; raise if one no longer resolves."""
        for name, module, path, _ in SPANS:
            try:
                owner = importlib.import_module(module)
                *outer, leaf = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError) as exc:
                raise SpanGuardError(
                    f"span {name}: {module}.{path} no longer resolves "
                    f"({exc})"
                ) from None
            setattr(owner, leaf, self._wrap(name, fn, _PROBES.get(name)))

    def _wrap(self, name: str, fn: Callable, probe: Optional[Callable]):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0,
                   None]
            spans.append(row)
            finish = probe(args, kwargs) if probe is not None else None
            stack.append(row[0])
            row[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[4] = time.perf_counter()
                stack.pop()
            if finish is not None:
                row[5] = finish(result)
            return result

        return traced

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the time its child spans
        cover.
        """
        child_s = [0.0] * len(self.spans)
        for sid, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        table: Dict[str, Dict[str, float]] = {}
        for sid, _, name, start, end, _ in self.spans:
            row = table.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_s[sid]
        return table

    def extras(self, name: str, key: str) -> float:
        """Sum of one probe value over the spans called ``name``."""
        return sum(
            row[5][key] for row in self.spans
            if row[2] == name and row[5] is not None
        )

    def write(self, path: str, run_id: str) -> None:
        """Append the spans as JSON lines, tagged with the run id."""
        with open(path, "a") as f:
            for sid, parent, name, start, end, extra in self.spans:
                rec = {"run": run_id, "id": sid, "parent": parent,
                       "name": name, "start": start, "end": end}
                if extra is not None:
                    rec.update(extra)
                f.write(json.dumps(rec) + "\n")


def guard(layers: Dict[str, Dict[str, float]], workload: str) -> List[str]:
    """Declared spans that fired zero times on ``workload``."""
    expected = {name for name, _, _, hit in SPANS if workload in hit}
    return sorted(n for n in expected if n not in layers)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    tracer: Tracer, counters: Dict[str, int], wall_s: float
) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of one traced repetition: name -> (value, unit).

    Times are shares of the repetition's raw wall time in percent, so
    they compare across workloads and host speeds.  The seconds behind
    each share are in the layer table.
    """
    layers = tracer.layers()

    def share(name: str, column: str = "total_s") -> float:
        return 100.0 * layers.get(name, {}).get(column, 0.0) / wall_s

    def calls(name: str) -> int:
        return int(layers.get(name, {}).get("calls", 0))

    c = counters.get
    run_s = layers.get("cpu.run", {}).get("total_s", 0.0)
    sim_cycles = tracer.extras("cpu.run", "cycles")
    shards_s = layers.get("runner.run_shards", {}).get("total_s", 0.0)
    runner_self = shards_s - tracer.extras("runner.run_shards", "shard_s")
    replays = calls("inject.replay")
    verdicts = tracer.extras("inject.scan", "verdicts") + tracer.extras(
        "inject.cache", "verdicts"
    )
    mb = float(1 << 20)
    return {
        "cpu.run_self_pct": (share("cpu.run", "self_s"), "%"),
        "cpu.runs": (calls("cpu.run"), "count"),
        "cpu.sim_cycles": (sim_cycles, "count"),
        "cpu.sim_instr": (tracer.extras("cpu.run", "instr"), "count"),
        "cpu.cycles_per_s": (_ratio(sim_cycles, run_s), "1/s"),
        "cpu.snapshot_pct": (share("cpu.snapshot"), "%"),
        "cpu.snapshots": (calls("cpu.snapshot"), "count"),
        "cpu.restore_pct": (share("cpu.restore"), "%"),
        "cpu.restores": (calls("cpu.restore"), "count"),
        "inject.golden_pct": (share("inject.golden"), "%"),
        "inject.golden_cycles": (c("inject.golden_sim_cycles", 0), "count"),
        "inject.arena_append_pct": (share("inject.arena_append"), "%"),
        "inject.arena_get_pct": (share("inject.arena_get"), "%"),
        "inject.arena_raw_mb": (
            tracer.extras("inject.golden", "raw_bytes") / mb, "MB"),
        "inject.arena_mb": (tracer.extras("inject.golden", "bytes") / mb,
                            "MB"),
        "inject.scan_pct": (share("inject.scan"), "%"),
        "inject.scan_cycles": (c("inject.scan_cycles", 0), "count"),
        "inject.scan_skip_ratio": (
            _ratio(c("inject.scan_skips", 0), verdicts), "ratio"),
        "inject.replay_self_pct": (share("inject.replay", "self_s"), "%"),
        "inject.replays": (replays, "count"),
        "inject.faulty_cycles": (c("inject.sim_cycles", 0), "count"),
        "inject.early_exit_ratio": (
            _ratio(c("inject.early_exits", 0), c("inject.fork_restores", 0)),
            "ratio"),
        "inject.reuse_ratio": (
            _ratio(c("inject.restore_reuses", 0), replays), "ratio"),
        "inject.cache_pct": (share("inject.cache"), "%"),
        "inject.cache_hits": (
            c("inject.golden_cache_hits", 0) + c("inject.scan_cache_hits", 0),
            "count"),
        "atpg.run_pct": (share("atpg.run"), "%"),
        "atpg.podem_pct": (share("atpg.podem"), "%"),
        "atpg.podem_targets": (c("podem.targets", 0), "count"),
        "atpg.podem_backtracks": (c("podem.backtracks", 0), "count"),
        "atpg.grade_pct": (share("atpg.grade"), "%"),
        "netlist.build_pct": (share("netlist.build"), "%"),
        "netlist.resim_gate_evals": (c("engine.resim.gate_evals", 0),
                                     "count"),
        "netlist.good_sim_patterns": (c("engine.good_sim.patterns", 0),
                                      "count"),
        "core.netcheck_pct": (share("core.netcheck"), "%"),
        "scan.isolate_pct": (share("scan.isolate"), "%"),
        "repair.oracle_pct": (share("repair.oracle"), "%"),
        "repair.candidates": (c("repair.candidates_generated", 0), "count"),
        "repair.verified_ratio": (
            _ratio(c("repair.candidates_verified", 0),
                   c("repair.candidates_generated", 0)), "ratio"),
        "repair.oracle_cycles": (c("repair.oracle_cycles", 0), "count"),
        "runner.shards": (
            c("runner.shards.computed", 0) + c("runner.shards.cached", 0),
            "count"),
        "runner.self_pct": (100.0 * runner_self / wall_s, "%"),
        "runner.store_pct": (share("runner.store"), "%"),
        "workloads.trace_pct": (share("workloads.trace"), "%"),
    }
