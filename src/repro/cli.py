"""Command-line interface: ``python -m repro <command>``.

Thin wrappers over the library for the common flows:

- ``repro isolate`` — the isolation campaign: build the gate-level Rescue
  model, run ATPG, inject random faults, and report isolation accuracy
  (Section 6.1);
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
- ``repro run CAMPAIGN`` — the sharded campaign runner (``--workers N``
  processes, ``--resume`` to continue from ``.repro_cache/``
  checkpoints; ``--resume`` with ``--no-checkpoint`` is a usage error)
  for any registered campaign;
- ``repro serve`` — the long-lived HTTP campaign service (job submission,
  live shard-level status, ``/metrics`` monitoring, crash recovery);
- ``repro submit`` / ``repro status`` / ``repro result`` — thin clients
  for a running service;
- ``repro trace`` — summarize a JSONL trace written by ``--trace PATH``.

A campaign's flags are generated from its spec dataclass: one
``--field-name`` per field, with the spec's default, so ``repro run C``
with no flags builds the same spec (and job key) as the service does
for empty params.  ``repro isolate`` is ``repro run isolation`` under
the command's own name; ``repro inject`` / ``decide`` / ``repair`` are
the same campaigns with a few presets and extras on top.

The compute commands accept ``--trace PATH``: telemetry is enabled for
the run, span events stream to ``PATH`` as JSONL, and the final merged
metrics (including per-shard worker metrics for ``repro run``) land in
the trace's summary record.  Progress and trace notes go to stderr;
stdout carries only the results.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import typing
from typing import List, Optional

from repro.runner.registry import REGISTRY, get_campaign

#: Campaigns `repro run` and the service can drive; sourced from the
#: runner registry so parser choices, dispatch, and the CLI tests' round
#: trip can never drift from what is actually registered.
RUN_CAMPAIGNS = tuple(REGISTRY)

#: One-line ``repro run --help`` description per campaign.
_ABOUT = {
    "isolation": "random-fault scan isolation (§6.1)",
    "montecarlo": "chip-sampling YAT check (§6.3)",
    "ipc": "degraded-configuration IPC sweep (Figure 9)",
    "inject": "architectural fault injection / SDC classification",
    "decide": "Pareto ranking of the 64 map-out configurations",
    "repair": "verified ICI patch search over a lint report",
}

#: Default service endpoint for the client commands (override with
#: --url or the REPRO_SERVICE_URL environment variable).
DEFAULT_SERVICE_URL = "http://127.0.0.1:8070"


def _service_url(args: argparse.Namespace) -> str:
    return args.url or os.environ.get("REPRO_SERVICE_URL",
                                      DEFAULT_SERVICE_URL)


def _rtl_model(args: argparse.Namespace):
    """The gate-level model ``--tiny`` / ``--baseline`` select."""
    from repro.rtl import RtlParams, build_baseline_rtl, build_rescue_rtl

    params = RtlParams.tiny() if args.tiny else RtlParams()
    builder = build_baseline_rtl if args.baseline else build_rescue_rtl
    return builder(params)


def _cmd_ipc(args: argparse.Namespace) -> int:
    from repro.cpu import MachineConfig
    from repro.cpu.degraded import simulate_config
    from repro.runner.campaigns import IpcCost
    from repro.workloads import PROFILES

    names = args.benchmarks or [p.name for p in PROFILES]
    cost = IpcCost()
    print(f"{'benchmark':10s} {'base':>6s} {'rescue':>7s} {'delta':>7s}")
    run = dict(n_instructions=args.instructions, warmup=args.warmup)
    for name in names:
        base = simulate_config(name, MachineConfig(rescue=False), **run)
        resc = simulate_config(name, MachineConfig(rescue=True), **run)
        print(f"{name:10s} {base:6.2f} {resc:7.2f} "
              f"{cost.add(name, base, resc):+6.1f}%")
    print(f"{'average':10s} {'':6s} {'':7s} {cost.mean():+6.1f}%")
    return 0


def _cmd_yat(args: argparse.Namespace) -> int:
    from repro.runner.campaigns import analytic_penalty_table
    from repro.yieldmodel.yat import yat_grid

    nodes = (90, 65, 45, 32, 22, 18)
    grid = yat_grid(
        {"analytic": (2.05, analytic_penalty_table(2.0))},
        (args.stagnation,), (args.growth,), nodes,
    )
    print(f"{'node':>6s} {'cores':>5s} {'none':>6s} {'CS':>6s} "
          f"{'Rescue':>7s} {'gain':>7s}")
    for node in nodes:
        r = grid[(args.stagnation, args.growth, node)]
        print(f"{node:>5}n {r.cores:5d} {r.no_redundancy:6.3f} "
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

    model = _rtl_model(args)
    report = check_netlist_ici(model.netlist, exempt_blocks=["chipkill"])
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.describe())
    return 0 if report.satisfied else 1


def _cmd_verilog(args: argparse.Namespace) -> int:
    from repro.netlist.verilog import to_verilog
    from repro.scan import insert_scan

    model = _rtl_model(args)
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


#: Campaigns whose run checks a claim: ``repro`` exits 1 when it fails.
_CLAIMS = {
    "isolation": lambda spec, r: r.correct_rate == 1.0 or spec.baseline,
    "decide": lambda spec, r: bool(r.front),
    "repair": lambda spec, r: (
        r.patched_satisfied and r.equivalent and not r.unrepaired
    ),
}


def _spec(args: argparse.Namespace, **presets):
    """The campaign spec from its generated flags, plus ``presets``.

    A value the spec rejects is a usage error: exit 2, no traceback.
    """
    entry = REGISTRY[args.campaign]
    params = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(entry.spec_cls)
        if f.name not in presets
    }
    try:
        return entry.make_spec({**params, **presets})
    except ValueError as exc:
        args.parser.error(str(exc))


def _run(args: argparse.Namespace, spec):
    """Run the campaign with the shared runner flags.

    Shard progress goes to stderr, so ``repro run ... > results.txt``
    captures only results.
    """
    def progress(ev) -> None:
        status = "cached" if ev.cached else f"{ev.seconds:6.2f}s"
        print(f"[{args.campaign}] shard {ev.shard:3d} done "
              f"({ev.done}/{ev.total}) {status}", file=sys.stderr)

    return REGISTRY[args.campaign].run(
        spec, workers=args.workers, resume=args.resume,
        checkpoint=not args.no_checkpoint, cache_root=args.cache_dir,
        progress=progress,
    )


def _exit_code(args: argparse.Namespace, spec, result) -> int:
    claim = _CLAIMS.get(args.campaign)
    return 0 if claim is None or claim(spec, result) else 1


def _cmd_run(args: argparse.Namespace, **summary) -> int:
    spec = _spec(args)
    result = _run(args, spec)
    print(result.summary(**summary))
    return _exit_code(args, spec, result)


def _inject_spec(args: argparse.Namespace):
    """The spec, ``counts`` / ``blocks`` set by ``repro inject``'s presets."""
    from repro.inject.sites import mapped_out_blocks
    from repro.yieldmodel.configs import DIMENSIONS, CoreCounts

    return _spec(
        args,
        counts=(1,) * 6 if args.config == "degraded" else (2,) * 6,
        blocks=(
            mapped_out_blocks(CoreCounts(**{d: 1 for d in DIMENSIONS}))
            if args.preset_blocks == "mapped-out" else None
        ),
    )


def _cmd_inject(args: argparse.Namespace) -> int:
    from repro.inject.campaign import machine_config

    spec = _inject_spec(args)
    if args.profile:
        # Profile-only pass: golden run + per-site residency report.
        from repro.inject.harness import run_golden
        from repro.workloads import generate_trace, profile

        trace = generate_trace(
            profile(spec.benchmark), spec.n_instructions,
            seed=spec.trace_seed,
        )
        golden = run_golden(
            machine_config(spec), trace, spec.n_instructions,
            profile_stride=spec.profile_stride,
        )
        print(f"config: {args.config}  benchmark: {spec.benchmark}  "
              f"golden cycles: {golden.cycles}")
        print(golden.profile.report())
        return 0
    stats = _run(args, spec)
    print(
        f"config: {args.config}  model: {spec.model}  "
        f"blocks: {args.preset_blocks}"
    )
    print(stats.summary())
    if args.config == "degraded" and args.preset_blocks == "mapped-out":
        # The paper's claim: mapped-out blocks cannot corrupt state.
        ok = stats.outcomes.get("masked", 0) == stats.n
        print(
            "masking: PASS (every fault in a mapped-out block masked)"
            if ok
            else "masking: FAIL (fault escaped a mapped-out block)"
        )
        return 0 if ok else 1
    return 0


def _cmd_repair(args: argparse.Namespace) -> int:
    from repro.repair import patch_model

    spec = _spec(args)
    result = _run(args, spec)
    print(result.summary())
    if args.apply:
        from repro.netlist.verilog import to_verilog

        patched, log = patch_model(spec, result.actions)
        vpath = f"{args.apply}.v"
        with open(vpath, "w") as f:
            f.write(to_verilog(patched, module_name="repaired_core",
                               scan=False))
        ppath = f"{args.apply}.plan.json"
        plan = {"campaign": "repair", "spec": dataclasses.asdict(spec),
                "result": result.to_json(), "transform_log": log}
        with open(ppath, "w") as f:
            json.dump(plan, f, indent=2)
        print(f"wrote {vpath} and {ppath}", file=sys.stderr)
    return _exit_code(args, spec, result)


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
    result_cls = get_campaign(args.campaign).result_cls
    print(result_cls.from_json(payload["result"]).summary(), file=sys.stderr)
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    client = ServiceClient(_service_url(args))
    snap = (
        client.jobs() if args.job is None
        else client.status(args.job, events_since=args.events_since)
    )
    print(json.dumps(snap, indent=2))
    return 0


def _cmd_result(args: argparse.Namespace) -> int:
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
    result_cls = get_campaign(payload["campaign"]).result_cls
    print(result_cls.from_json(payload["result"]).summary())
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry import summarize

    print(summarize(args.path, top=args.top))
    return 0


def _add_spec_flags(
    p: argparse.ArgumentParser, spec_cls: type, skip=()
) -> None:
    """One flag per field of ``spec_cls`` (the spec is the declaration).

    ``--field-name`` with the spec's default; bools take
    ``--x/--no-x``, tuples take one or more values, a field with
    declared choices takes only those, and a field without a default is
    required.
    """
    hints = typing.get_type_hints(spec_cls)
    for f in dataclasses.fields(spec_cls):
        if f.name in skip:
            continue
        hint = hints[f.name]
        if typing.get_origin(hint) is typing.Union:  # Optional[X]
            hint = typing.get_args(hint)[0]
        kw = dict(dest=f.name, help=f"{spec_cls.__name__}.{f.name}",
                  choices=f.metadata.get("choices"))
        if hint is bool:
            kw["action"] = argparse.BooleanOptionalAction
        elif typing.get_origin(hint) is tuple:
            kw.update(nargs="+", type=typing.get_args(hint)[0])
        else:
            kw["type"] = hint
        if f.default is dataclasses.MISSING:
            kw["required"] = True
        else:
            kw["default"] = f.default
        p.add_argument("--" + f.name.replace("_", "-"), **kw)


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

    p = sub.add_parser("ipc", help="baseline vs Rescue IPC (Figure 8)")
    p.add_argument("benchmarks", nargs="*",
                   help="benchmark names (default: all 23)")
    p.add_argument("--instructions", type=int, default=30_000)
    p.add_argument("--warmup", type=int, default=10_000)
    add_trace_flag(p)
    p.set_defaults(func=_cmd_ipc)

    p = sub.add_parser("yat", help="yield-adjusted throughput (Figure 9)")
    p.add_argument("--growth", type=float, default=0.3,
                   help="core growth per generation (0.3 = 30%%)")
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

    def campaign_parser(subs, name: str, func, skip=(), campaign=None,
                        **kw):
        """A campaign's parser: its spec's flags plus the runner flags.

        The command is ``name``; it runs ``campaign`` (default: ``name``).
        """
        campaign = campaign or name
        p = subs.add_parser(
            name, allow_abbrev=False,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter, **kw,
        )
        _add_spec_flags(p, REGISTRY[campaign].spec_cls, skip)
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes (1 = in-process)")
        store = p.add_mutually_exclusive_group()
        store.add_argument("--resume", action="store_true",
                           help="reuse completed shards from the "
                                "checkpoint store")
        store.add_argument("--no-checkpoint", action="store_true",
                           help="do not write shard checkpoints")
        p.add_argument("--cache-dir", default=None,
                       help="checkpoint root (None: .repro_cache or "
                            "$REPRO_CACHE_DIR)")
        add_trace_flag(p)
        p.set_defaults(func=func, campaign=campaign, parser=p)
        return p

    campaign_parser(
        sub, "isolate", _cmd_run, campaign="isolation",
        help="fault-isolation experiment (§6.1)",
        description=(
            "Build the gate-level model, generate scan tests (random "
            "patterns, then PODEM), insert random stuck-at faults and "
            "isolate each detected one to its ICI block by scan-bit "
            "lookup.  The same campaign as `repro run isolation`.  Exit "
            "0 when every detected fault isolates to the correct block "
            "(always on --baseline); 1 otherwise."
        ),
    )

    p = campaign_parser(
        sub, "repair", _cmd_repair,
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
    p.add_argument("--apply", default=None, metavar="PREFIX",
                   help="write the patched model to PREFIX.v and the "
                        "plan + transform log to PREFIX.plan.json")

    p = campaign_parser(
        sub, "inject", _cmd_inject, skip=("counts", "blocks"),
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
    p.add_argument("--config", choices=("full", "degraded"),
                   default="full",
                   help="run on the full core or the fully-degraded one "
                        "(sets counts)")
    p.add_argument("--blocks", dest="preset_blocks",
                   choices=("all", "mapped-out"), default="all",
                   help="sample sites from all ICI blocks or only the "
                        "half-1 blocks a degraded core maps out (sets "
                        "blocks)")
    p.add_argument("--profile", action="store_true",
                   help="profile per-site occupancy during the golden run, "
                        "print the residency report, and exit")

    p = sub.add_parser(
        "run",
        help="sharded campaign runner with checkpoint/resume",
        description=(
            "Shard a campaign across worker processes with deterministic "
            "per-shard seeding: results are bit-identical for any "
            "--workers/--chunk-size, and completed shards checkpoint to "
            "the cache dir so --resume continues an interrupted run.  "
            "Each campaign takes one flag per field of its spec "
            "(`repro run CAMPAIGN --help`)."
        ),
    )
    run_sub = p.add_subparsers(dest="campaign", required=True,
                               metavar="campaign")
    for name in RUN_CAMPAIGNS:
        campaign_parser(run_sub, name, _cmd_run, help=_ABOUT.get(name))

    p = campaign_parser(
        sub, "decide", lambda args: _cmd_run(args, top=args.top),
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
    p.add_argument("--top", type=int, default=10,
                   help="ranked configurations to print")

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

    A reader that closes stdout early (``repro yat | head -2``) stops
    the command without a traceback: stdout is pointed at
    ``os.devnull`` so the interpreter's exit flush cannot fail again,
    and the exit code is 1.
    """
    try:
        code = _dispatch(build_parser().parse_args(argv), argv)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _dispatch(
    args: argparse.Namespace, argv: Optional[List[str]]
) -> int:
    """Run the parsed command, under ``--trace`` telemetry if given."""
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
