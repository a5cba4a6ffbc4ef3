"""Command-line interface: ``python -m repro <command>``.

Thin wrappers over the library for the common flows:

- ``repro isolate`` — build the gate-level Rescue model, run ATPG, inject
  random faults, and report isolation accuracy (Section 6.1);
- ``repro ipc`` — baseline-vs-Rescue IPC for chosen benchmarks (Figure 8);
- ``repro yat`` — relative YAT of no-redundancy / core-sparing / Rescue
  chips for a scenario (Figure 9, analytic IPC penalties for speed);
- ``repro graph`` — print the ICI report of the baseline and Rescue
  component graphs;
- ``repro inject`` — architectural fault injection on the cycle-level
  core with masked/SDC/detected/hang classification;
- ``repro decide`` — Pareto decision support: rank all 64 map-out
  configurations on (YAT, IPC, residual SDC, area saved);
- ``repro lint`` — gate-level ICI check with stable violation ids
  (``--json`` for machine-readable reports; exit 0 clean, 1 violations);
- ``repro repair`` — search, verify, and emit the cheapest patch plan
  for every lint violation (``--apply`` writes the patched Verilog);
- ``repro run`` — the sharded campaign runner (``--workers N`` processes,
  ``--resume`` to continue from ``.repro_cache/`` checkpoints);
- ``repro serve`` — the long-lived HTTP campaign service (job submission,
  live shard-level status, ``/metrics`` monitoring, crash recovery);
- ``repro submit`` / ``repro status`` / ``repro result`` — thin clients
  for a running service;
- ``repro trace`` — summarize a JSONL trace written by ``--trace PATH``.

The compute commands accept ``--trace PATH``: telemetry is enabled for
the run, span events stream to ``PATH`` as JSONL, and the final merged
metrics (including per-shard worker metrics for ``repro run``) land in
the trace's summary record.  Progress and trace notes go to stderr;
stdout carries only the results.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.runner.registry import REGISTRY

#: Campaigns `repro run` and the service can drive; sourced from the
#: runner registry so parser choices, dispatch, and the CLI tests' round
#: trip can never drift from what is actually registered.
RUN_CAMPAIGNS = tuple(REGISTRY)

#: Default service endpoint for the client commands (override with
#: --url or the REPRO_SERVICE_URL environment variable).
DEFAULT_SERVICE_URL = "http://127.0.0.1:8070"


def _service_url(args: argparse.Namespace) -> str:
    if args.url:
        return args.url
    return os.environ.get("REPRO_SERVICE_URL", DEFAULT_SERVICE_URL)


def _cmd_isolate(args: argparse.Namespace) -> int:
    from repro.rtl import RtlParams, build_baseline_rtl, build_rescue_rtl
    from repro.rtl.experiment import generate_tests, isolation_experiment

    params = RtlParams.tiny() if args.tiny else RtlParams()
    builder = build_baseline_rtl if args.baseline else build_rescue_rtl
    print(f"building {'baseline' if args.baseline else 'Rescue'} gate-level "
          f"model ({'tiny' if args.tiny else 'default'} size)...")
    model = builder(params)
    print(f"  {model.netlist.stats()}")
    setup = generate_tests(model, seed=args.seed)
    print(f"  ATPG: {setup.atpg.summary()}")
    stats = isolation_experiment(setup, n_faults=args.faults, seed=args.seed)
    print(stats.summary())
    return 0 if stats.correct_rate == 1.0 or args.baseline else 1


def _cmd_ipc(args: argparse.Namespace) -> int:
    from repro.cpu import Core, MachineConfig
    from repro.workloads import PROFILES, generate_trace, profile

    names = args.benchmarks or [p.name for p in PROFILES]
    total = args.instructions + args.warmup
    deltas = []
    print(f"{'benchmark':10s} {'base':>6s} {'rescue':>7s} {'delta':>7s}")
    for name in names:
        prof = profile(name)
        trace = generate_trace(prof, total)
        base = Core(MachineConfig(rescue=False), iter(trace)).run(
            args.instructions, warmup=args.warmup
        )
        resc = Core(MachineConfig(rescue=True), iter(trace)).run(
            args.instructions, warmup=args.warmup
        )
        delta = 100 * (1 - resc.ipc / base.ipc) if base.ipc else 0.0
        deltas.append(delta)
        print(f"{name:10s} {base.ipc:6.2f} {resc.ipc:7.2f} {delta:+6.1f}%")
    print(f"{'average':10s} {'':6s} {'':7s} "
          f"{sum(deltas) / len(deltas):+6.1f}%")
    return 0


def _cmd_yat(args: argparse.Namespace) -> int:
    from repro.yieldmodel import FaultDensityModel, YatModel, cores_per_chip
    from repro.yieldmodel.yat import flat_rescue_ipc

    def penalty(cfg):
        factor = 1.0
        for dim, cost in (("frontend", 0.82), ("int_backend", 0.78),
                          ("fp_backend", 0.96), ("iq_int", 0.93),
                          ("iq_fp", 0.98), ("lsq", 0.94)):
            if getattr(cfg, dim) == 1:
                factor *= cost
        return factor

    anchor = (90.0, 1) if args.stagnation == 90 else (65.0, 2)
    model = YatModel(
        density=FaultDensityModel(stagnation_node_nm=args.stagnation),
        growth=args.growth / 100,
        baseline_ipc=2.05,
        rescue_ipc=flat_rescue_ipc(2.0, penalty),
        anchor=anchor,
    )
    print(f"{'node':>6s} {'cores':>5s} {'none':>6s} {'CS':>6s} "
          f"{'Rescue':>7s} {'gain':>7s}")
    for node in (90, 65, 45, 32, 22, 18):
        r = model.evaluate(node)
        k = cores_per_chip(node, args.growth / 100,
                           anchor_node_nm=anchor[0], anchor_cores=anchor[1])
        print(f"{node:>5}n {k:5d} {r.no_redundancy:6.3f} "
              f"{r.core_sparing:6.3f} {r.rescue:7.3f} "
              f"{100 * r.rescue_over_cs:+6.1f}%")
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    from repro.core import (
        build_baseline_graph,
        build_rescue_graph,
        check_granularity,
        rescue_map_out_groups,
    )

    baseline = build_baseline_graph(width=args.width)
    print("baseline:", check_granularity(
        baseline, rescue_map_out_groups(args.width)
    ).describe())
    rescue, records = build_rescue_graph(width=args.width)
    print("rescue:  ", check_granularity(rescue).describe())
    if args.verbose:
        print("\ntransformation log:")
        for line in rescue.transform_log:
            print(f"  {line}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.core import check_netlist_ici
    from repro.rtl import RtlParams, build_baseline_rtl, build_rescue_rtl

    params = RtlParams.tiny() if args.tiny else RtlParams()
    builder = build_baseline_rtl if args.baseline else build_rescue_rtl
    model = builder(params)
    report = check_netlist_ici(model.netlist, exempt_blocks=["chipkill"])
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.describe())
    return 0 if report.satisfied else 1


def _cmd_verilog(args: argparse.Namespace) -> int:
    from repro.netlist.verilog import to_verilog
    from repro.rtl import RtlParams, build_baseline_rtl, build_rescue_rtl
    from repro.scan import insert_scan

    params = RtlParams.tiny() if args.tiny else RtlParams()
    builder = build_baseline_rtl if args.baseline else build_rescue_rtl
    model = builder(params)
    insert_scan(model.netlist)
    name = "baseline_core" if args.baseline else "rescue_core"
    text = to_verilog(model.netlist, module_name=name)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
        print(f"wrote {args.output} ({len(text.splitlines())} lines)")
    else:
        print(text)
    return 0


def _progress_printer(campaign: str):
    from repro.runner import ShardProgress

    def progress(ev: ShardProgress) -> None:
        status = "cached" if ev.cached else f"{ev.seconds:6.2f}s"
        # stderr, so `repro run ... > results.txt` captures only results.
        print(
            f"[{campaign}] shard {ev.shard:3d} done "
            f"({ev.done}/{ev.total}) {status}",
            file=sys.stderr,
        )

    return progress


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.runner import (
        IpcSweepSpec,
        IsolationSpec,
        MonteCarloSpec,
        run_ipc_sweep,
        run_isolation,
        run_montecarlo,
    )

    common = dict(
        workers=args.workers,
        resume=args.resume,
        checkpoint=not args.no_checkpoint,
        cache_root=args.cache_dir,
    )
    if args.campaign == "decide":
        return _cmd_decide(args)
    if args.campaign == "repair":
        return _cmd_repair(args)
    if args.campaign == "isolation":
        spec = IsolationSpec(
            tiny=args.tiny,
            baseline=args.baseline,
            fault_seed=args.seed,
            n_faults=args.faults if args.faults is not None else 600,
            chunk_size=args.chunk_size or 50,
        )
        stats = run_isolation(
            spec, progress=_progress_printer("isolation"), **common
        )
        print(stats.summary())
        return 0 if stats.correct_rate == 1.0 or args.baseline else 1
    if args.campaign == "inject":
        from repro.inject import InjectionSpec, run_injection

        spec = InjectionSpec(
            n_faults=args.faults if args.faults is not None else 64,
            seed=args.seed,
            chunk_size=args.chunk_size or 8,
        )
        stats = run_injection(
            spec, progress=_progress_printer("inject"), **common
        )
        print(stats.summary())
        return 0
    if args.campaign == "montecarlo":
        spec = MonteCarloSpec(
            node_nm=args.node,
            growth=args.growth / 100,
            stagnation_node_nm=float(args.stagnation),
            n_chips=args.chips,
            seed=args.seed,
            chunk_size=args.chunk_size or 250,
        )
        mc = run_montecarlo(
            spec, progress=_progress_printer("montecarlo"), **common
        )
        print(mc.summary())
        return 0
    spec = IpcSweepSpec(
        benchmarks=tuple(args.benchmarks) or _all_benchmarks(),
        n_instructions=(
            args.instructions if args.instructions is not None else 20_000
        ),
        warmup=args.warmup if args.warmup is not None else 12_000,
        compose=not args.full,
        chunk_size=args.chunk_size or 1,
    )
    sweep = run_ipc_sweep(
        spec, progress=_progress_printer("ipc"), **common
    )
    tables = sweep.tables(compose=spec.compose)
    print(f"{'benchmark':10s} {'full IPC':>9s} {'worst-config':>13s}")
    for bench, table in tables.items():
        print(
            f"{bench:10s} {max(table.values()):9.3f} "
            f"{min(table.values()):13.3f}"
        )
    return 0


def _cmd_inject(args: argparse.Namespace) -> int:
    from repro.inject import InjectionSpec, run_injection
    from repro.inject.campaign import DIMENSIONS
    from repro.inject.sites import mapped_out_blocks
    from repro.yieldmodel.configs import CoreCounts

    counts = (1,) * 6 if args.config == "degraded" else (2,) * 6
    blocks = None
    if args.blocks == "mapped-out":
        blocks = mapped_out_blocks(
            CoreCounts(**{d: 1 for d in DIMENSIONS})
        )
    if args.profile:
        # Profile-only pass: golden run + per-site residency report.
        from repro.cpu.degraded import degraded_params
        from repro.cpu.params import MachineConfig
        from repro.inject.harness import run_golden
        from repro.workloads.generator import generate_trace
        from repro.workloads.profiles import profile

        config = degraded_params(
            MachineConfig(rescue=True),
            CoreCounts(**dict(zip(DIMENSIONS, counts))),
        )
        trace = generate_trace(
            profile(args.benchmark), args.instructions,
            seed=args.trace_seed,
        )
        golden = run_golden(
            config, trace, args.instructions,
            profile_stride=args.profile_stride,
        )
        print(f"config: {args.config}  benchmark: {args.benchmark}  "
              f"golden cycles: {golden.cycles}")
        print(golden.profile.report())
        return 0
    spec = InjectionSpec(
        benchmark=args.benchmark,
        n_instructions=args.instructions,
        trace_seed=args.trace_seed,
        counts=counts,
        model=args.model,
        n_faults=args.sites,
        seed=args.seed,
        blocks=blocks,
        chunk_size=args.chunk_size,
        checkpoint_interval=args.checkpoint_interval,
        fork=not args.no_fork,
        keep_records=not args.summary_only,
        exemplar_cap=args.exemplars,
        sampling=args.sampling,
        profile_stride=args.profile_stride,
        grouped=not args.no_group,
        snapshot_budget=args.snapshot_budget,
        golden_cache=args.golden_cache,
    )
    stats = run_injection(
        spec,
        workers=args.workers,
        resume=args.resume,
        checkpoint=not args.no_checkpoint,
        cache_root=args.cache_dir,
        progress=_progress_printer("inject"),
    )
    print(
        f"config: {args.config}  model: {args.model}  "
        f"blocks: {args.blocks}"
    )
    print(stats.summary())
    if args.config == "degraded" and args.blocks == "mapped-out":
        # The paper's claim: mapped-out blocks cannot corrupt state.
        ok = stats.outcomes.get("masked", 0) == stats.n
        print(
            "masking: PASS (every fault in a mapped-out block masked)"
            if ok
            else "masking: FAIL (fault escaped a mapped-out block)"
        )
        return 0 if ok else 1
    return 0


def _decide_spec(args: argparse.Namespace):
    from repro.decide import DecideSpec

    # `repro decide` and `repro run decide` share this builder; the run
    # parser lacks the inject-phase flags, so fall back to spec defaults.
    return DecideSpec(
        benchmarks=tuple(args.benchmarks) or ("gzip", "mcf"),
        n_instructions=(
            args.instructions if args.instructions is not None else 3000
        ),
        warmup=args.warmup if args.warmup is not None else 1500,
        inject_benchmark=getattr(args, "inject_benchmark", "gzip"),
        inject_instructions=getattr(args, "inject_instructions", 1500),
        n_faults=args.faults if args.faults is not None else 64,
        inject_seed=args.seed,
        node_nm=args.node,
        growth=args.growth / 100,
        stagnation_node_nm=float(args.stagnation),
        chunk_size=args.chunk_size or 1,
        golden_cache=getattr(args, "golden_cache", False),
    )


def _cmd_decide(args: argparse.Namespace) -> int:
    from repro.decide import run_decide

    spec = _decide_spec(args)
    result = run_decide(
        spec,
        workers=args.workers,
        resume=args.resume,
        checkpoint=not args.no_checkpoint,
        cache_root=args.cache_dir,
        progress=_progress_printer("decide"),
    )
    print(result.summary(top=getattr(args, "top", 10)))
    return 0 if result.front else 1


def _repair_spec(args: argparse.Namespace):
    from repro.repair import RepairSpec

    # `repro repair` and `repro run repair` share this builder; the run
    # parser lacks the break/oracle flags, so fall back to spec defaults.
    return RepairSpec(
        model=getattr(args, "model", "baseline"),
        tiny=args.tiny,
        n_breaks=getattr(args, "breaks", 2),
        break_seed=getattr(args, "break_seed", 5),
        n_patterns=getattr(args, "patterns", None) or 192,
        n_isolation_faults=getattr(args, "isolation_faults", 6),
        seed=args.seed,
        chunk_size=args.chunk_size or 2,
    )


def _cmd_repair(args: argparse.Namespace) -> int:
    from repro.repair import patch_model, run_repair

    spec = _repair_spec(args)
    result = run_repair(
        spec,
        workers=args.workers,
        resume=args.resume,
        checkpoint=not args.no_checkpoint,
        cache_root=args.cache_dir,
        progress=_progress_printer("repair"),
    )
    print(result.summary())
    prefix = getattr(args, "apply", None)
    if prefix:
        from dataclasses import asdict

        from repro.netlist.verilog import to_verilog

        patched, log = patch_model(spec, result.actions)
        vpath = f"{prefix}.v"
        with open(vpath, "w") as f:
            f.write(to_verilog(patched, module_name="repaired_core",
                               scan=False))
        ppath = f"{prefix}.plan.json"
        with open(ppath, "w") as f:
            json.dump(
                {
                    "campaign": "repair",
                    "spec": asdict(spec),
                    "result": result.to_json(),
                    "transform_log": log,
                },
                f,
                indent=2,
            )
        print(f"wrote {vpath} and {ppath}", file=sys.stderr)
    ok = (
        result.patched_satisfied
        and result.equivalent
        and not result.unrepaired
    )
    return 0 if ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import threading

    from repro.service import CampaignService

    if args.telemetry:
        from repro.telemetry import TELEMETRY

        TELEMETRY.enable()
    service = CampaignService(
        host=args.host,
        port=args.port,
        cache_root=args.cache_dir,
        queue_size=args.queue_size,
        service_workers=args.service_workers,
        shard_workers=args.shard_workers,
        retry_after=args.retry_after,
        max_retries=args.max_retries,
        verbose=args.verbose,
    )
    service.start()
    # Parsed by clients and the recovery tests: exact prefix + URL.
    print(f"serving on {service.url}", flush=True)
    print(
        f"  campaigns: {', '.join(RUN_CAMPAIGNS)}  "
        f"queue: {args.queue_size}  workers: {args.service_workers} "
        f"(x{args.shard_workers} shard procs)",
        file=sys.stderr,
    )
    try:
        threading.Event().wait()  # serve until interrupted
    except KeyboardInterrupt:
        print("shutting down...", file=sys.stderr)
        service.stop()
    return 0


def _parse_params(args: argparse.Namespace) -> dict:
    params = json.loads(args.params) if args.params else {}
    if not isinstance(params, dict):
        raise SystemExit("--params must be a JSON object")
    return params


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.runner.registry import get_campaign
    from repro.service import QueueFullError, ServiceClient

    client = ServiceClient(_service_url(args))
    try:
        snap = client.submit(args.campaign, _parse_params(args))
    except QueueFullError as exc:
        print(
            f"queue full; retry after {exc.retry_after:g}s",
            file=sys.stderr,
        )
        return 2
    verb = "submitted" if snap.get("created") else "coalesced onto"
    print(f"{verb} job {snap['job']} ({snap['state']})", file=sys.stderr)
    # stdout carries exactly the job id, so `JOB=$(repro submit ...)`
    # works with or without --wait; the summary joins the stderr chatter
    # (`repro result` re-prints it on demand).
    print(snap["job"])
    if not args.wait:
        return 0
    payload = client.wait(snap["job"], timeout=args.timeout)
    entry = get_campaign(args.campaign)
    print(
        entry.summarize(entry.result_from_json(payload["result"])),
        file=sys.stderr,
    )
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    client = ServiceClient(_service_url(args))
    if args.job is None:
        print(json.dumps(client.jobs(), indent=2))
        return 0
    snap = client.status(args.job, events_since=args.events_since)
    print(json.dumps(snap, indent=2))
    return 0


def _cmd_result(args: argparse.Namespace) -> int:
    from repro.runner.registry import get_campaign
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(_service_url(args))
    try:
        payload = client.result(args.job)
    except ServiceError as exc:
        print(f"job not finished: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(payload["result"], indent=2))
        return 0
    entry = get_campaign(payload["campaign"])
    print(entry.summarize(entry.result_from_json(payload["result"])))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry import summarize

    print(summarize(args.path, top=args.top))
    return 0


def _all_benchmarks():
    from repro.workloads import PROFILES

    return tuple(p.name for p in PROFILES)


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro`` argument parser (one sub-command per flow)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Rescue (ISCA 2005) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_trace_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace", default=None, metavar="PATH",
            help="enable telemetry and write a JSONL trace to PATH "
                 "(inspect with `repro trace summarize PATH`)",
        )

    p = sub.add_parser("isolate", help="fault-isolation experiment (§6.1)")
    p.add_argument("--faults", type=int, default=300)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--tiny", action="store_true",
                   help="use the small model (fast)")
    p.add_argument("--baseline", action="store_true",
                   help="run on the non-ICI baseline instead")
    add_trace_flag(p)
    p.set_defaults(func=_cmd_isolate)

    p = sub.add_parser("ipc", help="baseline vs Rescue IPC (Figure 8)")
    p.add_argument("benchmarks", nargs="*",
                   help="benchmark names (default: all 23)")
    p.add_argument("--instructions", type=int, default=30_000)
    p.add_argument("--warmup", type=int, default=10_000)
    add_trace_flag(p)
    p.set_defaults(func=_cmd_ipc)

    p = sub.add_parser("yat", help="yield-adjusted throughput (Figure 9)")
    p.add_argument("--growth", type=int, default=30,
                   help="core growth percent per generation")
    p.add_argument("--stagnation", type=int, default=90, choices=(90, 65),
                   help="node where PWP stops improving")
    add_trace_flag(p)
    p.set_defaults(func=_cmd_yat)

    p = sub.add_parser("graph", help="ICI report of the component graphs")
    p.add_argument("--width", type=int, default=4)
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser(
        "lint",
        help="gate-level ICI check of a pipeline model",
        description=(
            "Check every observation flop's combinational fan-in cone "
            "for intra-cycle independence.  Exit codes: 0 when the "
            "model is clean, 1 when violations remain, 2 on usage "
            "errors.  --json emits the structured report (stable "
            "violation ids usable as `repro repair` plan keys)."
        ),
    )
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--baseline", action="store_true")
    p.add_argument("--json", action="store_true",
                   help="print the machine-readable report (stable "
                        "violation ids) instead of prose")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "repair",
        help="search + verify ICI repair patches for a pipeline model",
        description=(
            "Run the sharded auto-repair campaign: lint the model, "
            "search candidate patches (relabel / cone redrive / latch "
            "staging) for every violation, verify each candidate with "
            "the three-stage oracle (netcheck, bit-exact packed "
            "equivalence, stuck-at isolation sample), and emit the "
            "area-minimal verified plan.  Exit 0 when every violation "
            "is repaired and the composed patch verifies; 1 otherwise. "
            "The plan is bit-identical for any --workers/--chunk-size "
            "and --resume continues from checkpoints."
        ),
    )
    p.add_argument("--model", choices=("baseline", "rescue",
                                       "rescue-broken"),
                   default="baseline",
                   help="target: the non-ICI baseline RTL (default), "
                        "the clean Rescue RTL, or Rescue with seeded "
                        "latch-bypass breaks")
    p.add_argument("--tiny", action="store_true",
                   help="use the small model (fast)")
    p.add_argument("--breaks", type=int, default=2,
                   help="latch bypasses seeded into rescue-broken "
                        "(default 2)")
    p.add_argument("--break-seed", type=int, default=5)
    p.add_argument("--patterns", type=int, default=192,
                   help="equivalence-screen patterns per candidate "
                        "(default 192)")
    p.add_argument("--isolation-faults", type=int, default=6,
                   help="stuck-at faults sampled per candidate "
                        "(default 6)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--apply", default=None, metavar="PREFIX",
                   help="write the patched model to PREFIX.v and the "
                        "plan + transform log to PREFIX.plan.json")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (default 1 = in-process)")
    p.add_argument("--chunk-size", type=int, default=None,
                   help="violations per shard (default 2)")
    p.add_argument("--resume", action="store_true",
                   help="reuse completed shards from the checkpoint store")
    p.add_argument("--no-checkpoint", action="store_true",
                   help="do not write shard checkpoints")
    p.add_argument("--cache-dir", default=None,
                   help="checkpoint root (default .repro_cache or "
                        "$REPRO_CACHE_DIR)")
    add_trace_flag(p)
    p.set_defaults(func=_cmd_repair)

    p = sub.add_parser(
        "inject",
        help="architectural fault injection & SDC classification",
        description=(
            "Inject transient bit-flips / stuck-ats into named "
            "microarchitectural state (ROB, issue queues, LSQ, physical "
            "registers, rename map, fetch PC) of a running core and "
            "classify each outcome against a golden run as masked, sdc, "
            "detected, or hang.  With --config degraded --blocks "
            "mapped-out, validates the paper's claim that faults in "
            "mapped-out ICI blocks are always masked (exit 1 on any "
            "escape)."
        ),
    )
    p.add_argument("--sites", type=int, default=64,
                   help="number of sampled fault injections (default 64)")
    p.add_argument("--model", choices=("transient", "stuckat", "both"),
                   default="both", help="fault model (default both)")
    p.add_argument("--config", choices=("full", "degraded"),
                   default="full",
                   help="run on the full core or the fully-degraded one")
    p.add_argument("--blocks", choices=("all", "mapped-out"),
                   default="all",
                   help="sample sites from all ICI blocks or only the "
                        "half-1 blocks a degraded core maps out")
    p.add_argument("--benchmark", default="gzip")
    p.add_argument("--instructions", type=int, default=2000)
    p.add_argument("--trace-seed", type=int, default=7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (default 1 = in-process)")
    p.add_argument("--chunk-size", type=int, default=8,
                   help="injections per shard (default 8)")
    p.add_argument("--checkpoint-interval", type=int, default=128,
                   help="golden checkpoint spacing in cycles for suffix "
                        "replay (default 128)")
    p.add_argument("--no-fork", action="store_true",
                   help="use the from-scratch reference path instead of "
                        "checkpointed suffix replay (same classifications, "
                        "more simulated cycles)")
    p.add_argument("--no-group", action="store_true",
                   help="restore a fresh core for every fault instead of "
                        "reusing one warm core per checkpoint group "
                        "(same classifications, more restore work)")
    p.add_argument("--snapshot-budget", type=int, default=0,
                   help="hard ceiling in bytes on the compressed snapshot "
                        "arena; over budget, every other checkpoint is "
                        "dropped (0 = unbounded)")
    p.add_argument("--golden-cache", action="store_true",
                   help="persist the golden prefix (log, checkpoints, "
                        "profile) to the cache dir and reuse it on "
                        "matching reruns")
    p.add_argument("--summary-only", action="store_true",
                   help="keep outcome counts + bounded exemplar records "
                        "instead of every per-fault record")
    p.add_argument("--exemplars", type=int, default=8,
                   help="exemplar records kept per outcome with "
                        "--summary-only (default 8)")
    p.add_argument("--sampling", choices=("uniform", "weighted"),
                   default="uniform",
                   help="fault-site sampling within a structure: uniform "
                        "(default) or residency-weighted from the golden "
                        "profile")
    p.add_argument("--profile", action="store_true",
                   help="profile per-site occupancy during the golden run, "
                        "print the residency report, and exit")
    p.add_argument("--profile-stride", type=int, default=16,
                   help="cycles between occupancy samples for --profile / "
                        "weighted sampling (default 16)")
    p.add_argument("--resume", action="store_true",
                   help="reuse completed shards from the checkpoint store")
    p.add_argument("--no-checkpoint", action="store_true",
                   help="do not write shard checkpoints")
    p.add_argument("--cache-dir", default=None,
                   help="checkpoint root (default .repro_cache or "
                        "$REPRO_CACHE_DIR)")
    add_trace_flag(p)
    p.set_defaults(func=_cmd_inject)

    p = sub.add_parser(
        "run",
        help="sharded campaign runner with checkpoint/resume",
        description=(
            "Shard a campaign across worker processes with deterministic "
            "per-shard seeding: results are bit-identical for any "
            "--workers/--chunk-size, and completed shards checkpoint to "
            "the cache dir so --resume continues an interrupted run."
        ),
    )
    p.add_argument(
        "campaign", choices=RUN_CAMPAIGNS,
        help="isolation: random-fault scan isolation (§6.1); "
             "montecarlo: chip-sampling YAT check (§6.3); "
             "ipc: degraded-configuration IPC sweep (Figure 9); "
             "inject: architectural fault injection / SDC classification; "
             "decide: Pareto ranking of the 64 map-out configurations; "
             "repair: verified ICI patch search over a lint report",
    )
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (default 1 = in-process)")
    p.add_argument("--resume", action="store_true",
                   help="reuse completed shards from the checkpoint store")
    p.add_argument("--no-checkpoint", action="store_true",
                   help="do not write shard checkpoints")
    p.add_argument("--cache-dir", default=None,
                   help="checkpoint root (default .repro_cache or "
                        "$REPRO_CACHE_DIR)")
    p.add_argument("--chunk-size", type=int, default=None,
                   help="items per shard (campaign-specific default)")
    p.add_argument("--seed", type=int, default=1)
    # isolation / inject / decide knobs (per-campaign defaults:
    # isolation 600, inject 64, decide 64)
    p.add_argument("--faults", type=int, default=None)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--baseline", action="store_true")
    # montecarlo / decide knobs
    p.add_argument("--chips", type=int, default=2000)
    p.add_argument("--node", type=float, default=32.0)
    p.add_argument("--growth", type=int, default=30)
    p.add_argument("--stagnation", type=int, default=90, choices=(90, 65))
    # ipc / decide knobs (per-campaign defaults: ipc 20000/12000
    # instructions/warmup, decide 3000/1500)
    p.add_argument("--benchmarks", nargs="*", default=[],
                   help="benchmark names (default: all 23 for ipc, "
                        "gzip+mcf for decide)")
    p.add_argument("--instructions", type=int, default=None)
    p.add_argument("--warmup", type=int, default=None)
    p.add_argument("--full", action="store_true",
                   help="simulate all 64 configs instead of composing")
    p.add_argument("--top", type=int, default=10,
                   help="ranked configurations to print (decide only)")
    # repair knobs (break/oracle settings take spec defaults)
    p.add_argument("--model", choices=("baseline", "rescue",
                                       "rescue-broken"),
                   default="baseline",
                   help="repair target model (repair only)")
    add_trace_flag(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser(
        "decide",
        help="Pareto-rank the 64 map-out configurations",
        description=(
            "Score every CoreCounts map-out configuration on (YAT "
            "contribution, IPC ratio, residual SDC vulnerability, area "
            "saved), then report the Pareto-optimal front, the "
            "crowding-distance knee point, and a stable total ranking. "
            "Measurements (an injection campaign on the full core plus "
            "the composed IPC sweep) run through the sharded campaign "
            "runner: results are bit-identical for any --workers / "
            "--chunk-size, and --resume continues from checkpoints."
        ),
    )
    p.add_argument("--benchmarks", nargs="*", default=[],
                   help="IPC benchmarks (default: gzip mcf)")
    p.add_argument("--instructions", type=int, default=3000,
                   help="measured instructions per IPC point")
    p.add_argument("--warmup", type=int, default=1500)
    p.add_argument("--inject-benchmark", default="gzip",
                   help="benchmark driving the injection phase")
    p.add_argument("--inject-instructions", type=int, default=1500)
    p.add_argument("--faults", type=int, default=64,
                   help="fault injections on the full core (default 64)")
    p.add_argument("--golden-cache", action="store_true",
                   help="persist the injection phase's golden prefix to "
                        "the cache dir and reuse it on matching reruns")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--node", type=float, default=32.0,
                   help="technology node in nm (default 32)")
    p.add_argument("--growth", type=int, default=30,
                   help="core growth percent per generation")
    p.add_argument("--stagnation", type=int, default=90, choices=(90, 65),
                   help="node where PWP stops improving")
    p.add_argument("--top", type=int, default=10,
                   help="ranked configurations to print (default 10)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (default 1 = in-process)")
    p.add_argument("--chunk-size", type=int, default=None,
                   help="IPC points per shard (default 1)")
    p.add_argument("--resume", action="store_true",
                   help="reuse completed shards from the checkpoint store")
    p.add_argument("--no-checkpoint", action="store_true",
                   help="do not write shard checkpoints")
    p.add_argument("--cache-dir", default=None,
                   help="checkpoint root (default .repro_cache or "
                        "$REPRO_CACHE_DIR)")
    add_trace_flag(p)
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser(
        "serve",
        help="run the HTTP campaign service",
        description=(
            "Serve campaign submissions over HTTP: POST /jobs with "
            '{"campaign": name, "params": {...}}, poll '
            "/jobs/<id>/status for shard-level progress, GET "
            "/jobs/<id>/result for the merged result, /metrics for "
            "live telemetry.  Jobs are keyed by spec hash (idempotent "
            "resubmission), the queue is bounded (429 + Retry-After "
            "when full), and a killed service resumes unfinished jobs "
            "from their shard checkpoints on restart."
        ),
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8070,
                   help="listen port (0 = ephemeral; default 8070)")
    p.add_argument("--queue-size", type=int, default=16,
                   help="max queued jobs before 429 (default 16)")
    p.add_argument("--service-workers", type=int, default=2,
                   help="concurrent job executions (default 2)")
    p.add_argument("--shard-workers", type=int, default=1,
                   help="shard worker processes per job (default 1)")
    p.add_argument("--retry-after", type=float, default=1.0,
                   help="Retry-After hint on 429 (seconds, default 1)")
    p.add_argument("--max-retries", type=int, default=2,
                   help="automatic resume attempts after a worker "
                        "death before a job fails (default 2)")
    p.add_argument("--cache-dir", default=None,
                   help="journal + checkpoint root (default "
                        ".repro_cache or $REPRO_CACHE_DIR)")
    p.add_argument("--telemetry", action="store_true",
                   help="enable the telemetry registry so /metrics "
                        "reports live counters (default off)")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="log HTTP requests to stderr")
    p.set_defaults(func=_cmd_serve)

    def add_url_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--url", default=None,
                       help="service endpoint (default "
                            "$REPRO_SERVICE_URL or "
                            f"{DEFAULT_SERVICE_URL})")

    p = sub.add_parser(
        "submit", help="submit a campaign to a running service"
    )
    p.add_argument("campaign", choices=RUN_CAMPAIGNS)
    p.add_argument("--params", default=None, metavar="JSON",
                   help="campaign spec overrides as a JSON object, "
                        'e.g. \'{"n_chips": 5000, "seed": 3}\'')
    p.add_argument("--wait", action="store_true",
                   help="poll until done and print the result summary")
    p.add_argument("--timeout", type=float, default=3600.0,
                   help="--wait timeout in seconds (default 3600)")
    add_url_flag(p)
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser(
        "status", help="job status from a running service"
    )
    p.add_argument("job", nargs="?", default=None,
                   help="job id (omit to list all jobs)")
    p.add_argument("--events-since", type=int, default=None,
                   help="include progress events from this index on")
    add_url_flag(p)
    p.set_defaults(func=_cmd_status)

    p = sub.add_parser(
        "result", help="fetch a finished job's merged result"
    )
    p.add_argument("job", help="job id")
    p.add_argument("--json", action="store_true",
                   help="print the raw result payload instead of the "
                        "summary")
    add_url_flag(p)
    p.set_defaults(func=_cmd_result)

    p = sub.add_parser(
        "trace", help="inspect a JSONL telemetry trace"
    )
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    ps = trace_sub.add_parser(
        "summarize",
        help="per-span totals, counter tables, and top-N hot spans",
    )
    ps.add_argument("path", help="trace file written by --trace")
    ps.add_argument("--top", type=int, default=10,
                    help="hot-span list length (default 10)")
    ps.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "verilog", help="export a pipeline model as structural Verilog"
    )
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--baseline", action="store_true")
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_verilog)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    With ``--trace PATH`` the whole command runs under an enabled
    telemetry registry: spans stream to ``PATH`` and the final merged
    metrics become the trace's summary record.
    """
    args = build_parser().parse_args(argv)
    trace_path = getattr(args, "trace", None)
    if trace_path is None:
        return args.func(args)

    from repro.telemetry import TELEMETRY, TraceSink

    sink = TraceSink(
        trace_path,
        meta={
            "command": args.command,
            "argv": list(argv) if argv is not None else sys.argv[1:],
        },
    )
    TELEMETRY.reset()
    TELEMETRY.enable(sink)
    try:
        with TELEMETRY.span(f"cli/{args.command}"):
            code = args.func(args)
    finally:
        TELEMETRY.disable()
        TELEMETRY.sink = None
        sink.close(TELEMETRY.metrics)
        print(
            f"[trace] wrote {trace_path} "
            f"({sink.n_events} events; `repro trace summarize "
            f"{trace_path}` to inspect)",
            file=sys.stderr,
        )
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
