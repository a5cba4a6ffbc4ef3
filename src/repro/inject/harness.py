"""Golden/faulty paired execution and outcome classification.

One :class:`GoldenRun` per (config, trace) amortizes the fault-free
simulation across a whole campaign; every faulty run replays the same
trace with a :class:`FaultyArchState` attached and is classified:

``detected`` — a microarchitectural checker stopped the run first;
``sdc``      — the commit stream diverged from the golden record;
``hang``     — the watchdog expired before the full trace committed;
``masked``   — the run committed the golden stream bit-for-bit.

Detection latency is measured in cycles from fault activation to the
checker firing; SDC corruption distance in commits from activation to
the first divergent commit.  Both are exact because the golden
comparison runs commit-by-commit inside the faulty run.

Suffix replay (the golden fork)
-------------------------------

A from-scratch faulty run costs a full trace execution even when the
fault injects late, so campaign cost is O(faults x trace).  Two
optimizations in :func:`run_with_fault` make it O(suffix); from-scratch
replay (the golden run without its checkpoints) survives only as the
test oracle they are checked against:

1. **Checkpointed fork** — ``run_golden`` snapshots the machine every
   ``checkpoint_interval`` cycles (:meth:`~repro.cpu.pipeline.Core.
   snapshot` at the top-of-cycle hook) into a compressed
   :class:`~repro.inject.arena.SnapshotArena`.  A faulty run restores
   the newest checkpoint at or before the fault's activation cycle and
   simulates only the suffix.  Until activation the faulty run is
   bit-identical to golden (the fault layer is observation-only while
   inactive), so the skipped prefix provably changes nothing.

2. **Reconvergence early-exit** — once the fault can no longer perturb
   live state (a transient that already fired, or a stuck-at whose site
   is statically dead under this configuration —
   :func:`~repro.inject.sites.site_inert`), the faulty machine is
   compared against the golden checkpoint stream at every checkpoint
   boundary.  The comparison (:func:`_live_view`) covers exactly the
   state that can influence the future: fetch/commit position, ROB /
   dispatch / issue-queue / LSQ contents (wakeup deadlines clamped to
   the boundary cycle — an expired deadline is inert however it
   expired), completion bookkeeping, live pending fixes, predictor and
   cache contents (not their statistics), and the value layer's live
   register set (registers referenced by any live rename record as
   destination or captured source; dead cells cannot reach a future
   read).  Committed memory and architectural registers are *implied*:
   the faulty run diffs its commit log against golden incrementally, so
   an un-stopped run's log is a golden prefix and the committed image is
   a pure function of it.  A match therefore proves the remaining
   trajectory is golden's — the run is ``masked`` with golden's final
   cycle/commit counts, and the rest of the trace is skipped.

The watchdog budget is suffix-scaled to the activation cycle: a fault
firing at cycle ``c`` gets ``golden + (golden - c) + slack`` cycles
(two golden suffixes past the prefix it cannot perturb), which for the
campaign's cycle-0 stuck-ats reduces to the classic ``2 x golden +
slack``.  The budget depends only on the fault, never on the fork
point, so hang records stay bit-identical to from-scratch replay.

Warm-core group replay
----------------------

:class:`ReplaySession` reuses one core and one decoded checkpoint across
the faults that share a fork point: the campaign layer groups faults by
fork checkpoint, the session decodes that checkpoint once, and every
fault in the group re-targets the same core (``arch.reset_run``) and
restores it in full from the pinned snapshot (:meth:`~repro.cpu.
pipeline.Core.restore` reloads every field, so nothing of the previous
fault's run survives).  What it saves is the arena decode and the core
construction, not any restore work.  Classifications are bit-identical
to per-fault forking (asserted by the grouped-replay property tests and
the ``bench_inject.py --check`` gate).

Sticky-fault first-effect forking
---------------------------------

Cycle-0 stuck-ats cannot fork on their activation cycle — there is no
checkpoint at or before 0 — so PR 6 replayed every one from scratch,
and they dominated campaign cost.  :func:`first_effect_scan` removes
that wall: one extra fault-free replay of the golden trajectory
evaluates, at the top of every cycle, whether each sticky fault's
forcing *would change machine state right now*.  Until that first
cycle the forcing is a no-op, so by induction the faulty machine is
bit-identical to golden through the whole prefix — the fault may fork
from any checkpoint at or before its first-effect cycle, and a fault
whose forcing never bites *is* the golden run (``masked``, zero faulty
cycles, synthesized by :func:`synth_never_result`).  Arming bookkeeping
is restored exactly (:meth:`FaultyArchState.prearm_sticky`): a
non-fetch sticky fault arms unconditionally at cycle 0, so the forked
run pre-arms with ``armed_cycle = armed_commits = 0``; a fetch fault
arms at its first fetch through the faulted way, which the scan
observes (:class:`FirstEffect.armed_cycle`) — either way detection
latencies / corruption distances stay bit-identical to from-scratch.

Two refinements keep the scan's conservatism from costing replay:

- **Register liveness** — forcing a physical register that is on the
  free list, or allocated but referenced by no in-flight rename record
  (neither a destination nor a captured source), changes a value that
  can never reach a future read before it is overwritten at
  reallocation.  This is the same dead-cell argument that licenses
  :func:`_live_view`'s register projection, so such cycles do not
  count as first effects.  Without it, every stuck-at on a cold
  register file (FP under an integer workload) replays the full trace.
- **Fetch scanning** — the scan's probe also watches ``on_fetch``:
  a fetch stuck-at first *affects* the machine on the first cycle its
  forced PC bit actually changes a PC fetched through its way, which
  is often never (high PC bits are constant across a trace).

The scan costs one golden-length simulation amortized over every
sticky fault in the campaign.

Observation schedules
---------------------

Every observer here acts only at cycles it can name in advance, so none
of them stops the core from jumping over dead cycles (see
:meth:`~repro.cpu.pipeline.Core.run`): ``run_golden`` schedules the next
checkpoint or profile boundary, the early-exit hook the next checkpoint
boundary after activation, and the scan no cycle beyond those the core
steps anyway — its predicates read only machine state, which a jumped
cycle repeats.  The fault layer names its own next action
(:meth:`FaultyArchState.next_active`).  Results are bit-identical to
stepping every cycle, which the from-scratch oracle in the tests does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cpu.archstate import ArchState
from repro.cpu.isa import Instr
from repro.cpu.params import MachineConfig
from repro.cpu.pipeline import Core
from repro.inject.arena import SnapshotArena
from repro.inject.models import FaultSpec, FaultyArchState
from repro.inject.profiler import SiteProfile
from repro.inject.sites import site_inert
from repro.telemetry import TELEMETRY

#: Watchdog: a faulty run may take this factor of the golden cycle count
#: (plus slack) before it is declared hung.  Kept for the suffix-scaled
#: :func:`hang_budget` below (factor 2 = prefix + two suffixes at c=0).
BUDGET_FACTOR = 2
BUDGET_SLACK = 512

_INF = float("inf")


def hang_budget(golden_cycles: int, fault: FaultSpec) -> int:
    """Absolute watchdog cycle budget for one faulty run.

    The prefix before the fault's activation cycle is provably golden,
    so only the suffix earns slack: ``golden + (golden - c) + slack``.
    At ``c = 0`` this is the classic ``BUDGET_FACTOR * golden + slack``.
    Identical for forked and from-scratch runs by construction.
    """
    prefix = min(fault.cycle, golden_cycles)
    return golden_cycles + (golden_cycles - prefix) + BUDGET_SLACK


@dataclass
class GoldenRun:
    """The fault-free reference execution of one (config, trace) pair."""

    config: MachineConfig
    trace: List[Instr]
    n_instructions: int
    log: List[tuple]
    cycles: int
    commits: int
    digest: int
    #: Delta-compressed checkpoint store (None: no checkpoints taken).
    arena: Optional[SnapshotArena] = field(
        default=None, repr=False, compare=False
    )
    checkpoint_interval: int = 0
    #: Optional per-site occupancy profile (``--profile`` / weighted
    #: sampling).
    profile: Optional[SiteProfile] = field(default=None, compare=False)
    #: Lazy cache of convergence views per checkpoint cycle.
    views: Dict[int, tuple] = field(
        default_factory=dict, repr=False, compare=False
    )

    def fork_index(self, cycle: int) -> Optional[int]:
        """Arena index of the newest checkpoint at or before ``cycle``."""
        if self.arena is None or not len(self.arena):
            return None
        return self.arena.find(cycle)


@dataclass
class InjectionResult:
    """Classified outcome of one fault injection.

    The trailing ``compare=False`` fields are perf bookkeeping for the
    suffix-replay machinery: fork and from-scratch runs must agree on
    the classification (the compared fields), never on how much work it
    took to reach it.
    """

    outcome: str  # masked | sdc | detected | hang
    cycles: int
    commits: int
    armed: bool
    detect_reason: Optional[str] = None
    detect_latency: Optional[int] = None  # cycles, detected only
    commit_distance: Optional[int] = None  # commits, sdc only
    simulated_cycles: int = field(default=0, compare=False)
    fork_cycle: int = field(default=0, compare=False)
    early_exit: bool = field(default=False, compare=False)
    cycles_saved: int = field(default=0, compare=False)


def _next_multiple(cycle: int, k: int) -> int:
    """The first multiple of ``k`` after ``cycle``."""
    return (cycle // k + 1) * k


def run_golden(
    config: MachineConfig,
    trace: List[Instr],
    n_instructions: int,
    checkpoint_interval: int = 0,
    profile_stride: int = 0,
) -> GoldenRun:
    """Run the fault-free reference and record its commit stream.

    With ``checkpoint_interval > 0`` a machine snapshot is taken at
    every multiple of the interval (cycle 0 excluded: forking there is
    just a from-scratch run) into a :class:`SnapshotArena`.  With
    ``profile_stride > 0`` a :class:`SiteProfile` samples occupancy
    alongside.  Both observe through the ``on_cycle`` hook, so the
    golden timing and commit stream are bit-identical to an unobserved
    run; its schedule names the next multiple of either stride, so the
    core still jumps the dead cycles in between.
    """
    arch = ArchState(config)
    core = Core(config, iter(trace), arch=arch)
    arena = SnapshotArena() if checkpoint_interval else None
    prof = (
        SiteProfile(config, profile_stride) if profile_stride else None
    )
    on_cycle = schedule = None
    strides = [k for k in (checkpoint_interval, profile_stride) if k]
    if strides:
        def on_cycle(c: Core) -> bool:
            cyc = c.cycle
            if (
                arena is not None
                and cyc
                and cyc % checkpoint_interval == 0
            ):
                arena.append(cyc, c.snapshot())
            if prof is not None and cyc % prof.stride == 0:
                prof.observe(c)
            return False

        def schedule(cycle: int) -> int:
            return min(_next_multiple(cycle, k) for k in strides)
    result = core.run(
        n_instructions, on_cycle=on_cycle, schedule=schedule
    )
    if arch.commits < n_instructions:
        raise RuntimeError(
            f"golden run committed {arch.commits}/{n_instructions}"
        )
    t = TELEMETRY
    if t.enabled:
        # Golden simulation actually happened here (a warm golden-cache
        # hit skips this function entirely, so the counter's absence is
        # the cache-hit signature the benchmark gate asserts).
        t.count("inject.golden_sim_cycles", result.cycles)
        if arena is not None and len(arena):
            prev = 0
            for i in range(len(arena)):
                cp_cycle = arena.cycle_of(i)
                t.observe("inject.checkpoint_interval", cp_cycle - prev)
                prev = cp_cycle
    return GoldenRun(
        config=config,
        trace=trace,
        n_instructions=n_instructions,
        log=arch.log,
        cycles=result.cycles,
        commits=arch.commits,
        digest=arch.state_digest(),
        arena=arena,
        checkpoint_interval=checkpoint_interval,
        profile=prof,
    )


def _live_view(snap: dict, at_cycle: int) -> tuple:
    """Future-determining projection of a :meth:`Core.snapshot` dict.

    Two machines with equal views at the top of cycle ``at_cycle``
    evolve identically from there (given the same trace and no further
    state perturbation).  Excluded, with the reason it is safe:

    - committed memory / architectural registers / retirement window —
      pure functions of the commit stream, which is a golden prefix for
      any un-stopped faulty run (incremental diff; a snapshot carries
      only the commit count, never the log);
    - statistic counters (cache hit/miss, predictor accuracy, stalls,
      occupancy sums) — never read back by the machine;
    - ``forced_ready`` — cleared at the top of every cycle before use.

    Cycle-anchored deadlines that have already expired are clamped to
    ``at_cycle`` (``fetch_stall_until``, issue-queue ``blocked_until``):
    an expired deadline is inert regardless of when it expired.
    """
    arch = snap["arch"]
    info = arch["info"]
    prf = arch["prf"]
    n_pregs = len(prf[0])
    live = set()
    for rec in info.values():
        # rec = (preg, cls, a_d, prev, srcs, written, const)
        if rec[0] is not None:
            live.add((rec[1], rec[0]))
        for cls, p in rec[4]:
            if cls >= 0 and 0 <= p < n_pregs:
                live.add((cls, p))
    live_regs = tuple(
        sorted((cls, p, prf[cls][p]) for cls, p in live)
    )
    pred = snap["predictor"]
    opt = snap["opt_done"]

    def iq_view(q: dict) -> tuple:
        entries = tuple(
            (seq, pc, seg, issued, entered, max(blocked, at_cycle))
            for seq, pc, seg, issued, entered, blocked in q["entries"]
        )
        return (entries, q.get("request_pending"))

    return (
        snap["committed"],
        snap["fetched"],
        snap["trace_done"],
        snap["redirect_seq"],
        max(snap["fetch_stall_until"], at_cycle),
        snap["rob"],
        snap["dispatch_q"],
        iq_view(snap["iq_int"]),
        iq_view(snap["iq_fp"]),
        snap["lsq"],
        opt,
        snap["act_done"],
        tuple(fx for fx in snap["pending_fixes"] if fx[1] in opt),
        (
            pred["bimodal"], pred["gshare"], pred["chooser"],
            pred["history"], pred["btb"], pred["ras"],
        ),
        (snap["caches"]["l1d"]["tags"], snap["caches"]["l2"]["tags"]),
        arch["commits"],
        info,
        arch["free"],
        arch["rmap"],
        live_regs,
    )


def _execute_and_classify(
    golden: GoldenRun,
    fault: FaultSpec,
    core: Core,
    arch: FaultyArchState,
    fork_cycle: int,
) -> InjectionResult:
    """Run a prepared faulty core to completion and classify it.

    Shared by the per-fault path (:func:`run_with_fault`) and the
    warm-core group path (:class:`ReplaySession`): the caller positions
    the machine (fresh at cycle 0, or restored from a checkpoint) and
    this function owns the watchdog budget, the reconvergence
    early-exit, telemetry, and the classification ladder — so both
    paths are bit-identical by construction.
    """
    budget = hang_budget(golden.cycles, fault)
    early_cycle: Optional[int] = None
    on_cycle = schedule = None
    interval = golden.checkpoint_interval
    arena = golden.arena
    if (
        interval
        and arena is not None
        and len(arena)
        and (
            fault.kind == "transient"
            or site_inert(fault.site, golden.config)
        )
    ):
        views = golden.views

        def on_cycle(c: Core) -> bool:
            nonlocal early_cycle
            cyc = c.cycle
            # Only boundaries strictly after activation: the fault fires
            # inside cycle ``fault.cycle`` (after this hook), so the
            # earliest boundary that can witness reconvergence is the
            # next one.
            if cyc <= fault.cycle or cyc % interval:
                return False
            i = arena.find(cyc)
            if i is None:
                return False
            mcycle, mcommitted, mfetched = arena.meta_of(i)
            if mcycle != cyc:
                return False  # past the golden run's last checkpoint
            # Cheap position precheck (uncompressed metadata) before
            # paying for a snapshot decode + comparison.
            if c.committed != mcommitted or c.fetched != mfetched:
                return False
            gv = views.get(cyc)
            if gv is None:
                gv = views[cyc] = _live_view(arena.get(i), cyc)
            if _live_view(c.snapshot(), cyc) == gv:
                early_cycle = cyc
                return True
            return False

        def schedule(cycle: int) -> int:
            return _next_multiple(max(cycle, fault.cycle), interval)

    sim = core.run(
        golden.n_instructions, max_cycles=budget, on_cycle=on_cycle,
        schedule=schedule,
    )
    end_cycle = core.cycle
    simulated = end_cycle - fork_cycle
    saved = fork_cycle
    if early_cycle is not None:
        saved += golden.cycles - early_cycle

    t = TELEMETRY
    if t.enabled:
        t.count("inject.sim_cycles", simulated)
        t.count("inject.skipped_cycles", sim.skipped_cycles)
        if fork_cycle:
            t.count("inject.fork_restores")
        if early_cycle is not None:
            t.count("inject.early_exits")
        if saved:
            t.count("inject.cycles_saved", saved)

    def _result(
        outcome: str,
        cycles: int,
        commits: int,
        detect_reason=None,
        detect_latency=None,
        commit_distance=None,
    ) -> InjectionResult:
        return InjectionResult(
            outcome=outcome,
            cycles=cycles,
            commits=commits,
            armed=arch.armed,
            detect_reason=detect_reason,
            detect_latency=detect_latency,
            commit_distance=commit_distance,
            simulated_cycles=simulated,
            fork_cycle=fork_cycle,
            early_exit=early_cycle is not None,
            cycles_saved=saved,
        )

    if early_cycle is not None:
        # Reconverged to golden: the rest of the run *is* golden's.
        return _result(
            "masked", max(golden.cycles, 1), golden.commits
        )
    cycles = max(end_cycle, 1)
    if arch.outcome == "detected":
        latency = None
        if arch.detect_cycle is not None and arch.armed_cycle is not None:
            latency = arch.detect_cycle - arch.armed_cycle
        return _result(
            "detected", cycles, arch.commits,
            detect_reason=arch.detect_reason, detect_latency=latency,
        )
    if arch.outcome == "sdc":
        distance = None
        if arch.first_divergence is not None:
            distance = arch.first_divergence - arch.armed_commits
        return _result(
            "sdc", cycles, arch.commits, commit_distance=distance
        )
    if arch.commits < golden.n_instructions:
        return _result("hang", cycles, arch.commits)
    return _result("masked", cycles, arch.commits)


#: Sentinel for ``run_with_fault``'s default fork-point resolution.
_AUTO = object()


def run_with_fault(
    golden: GoldenRun,
    fault: FaultSpec,
    fork_index: object = _AUTO,
    prearm: Optional[Tuple[int, int]] = None,
) -> InjectionResult:
    """Replay the golden trace with one fault and classify the outcome.

    Checkpointed suffix replay with the reconvergence early-exit when
    ``golden`` carries checkpoints; from cycle 0 otherwise.  Either way
    the classification — the compared fields of
    :class:`InjectionResult` — is the from-scratch run's.

    ``fork_index`` overrides the fork-point resolution (the newest
    checkpoint at or before ``fault.cycle``) with an explicit arena
    index, or ``None`` for from-cycle-0: the campaign layer passes the
    checkpoint licensed by :func:`first_effect_scan` for sticky faults.
    ``prearm=(cycle, commits)`` restores a sticky fault's arming
    bookkeeping on the forked core (see
    :meth:`FaultyArchState.prearm_sticky` /
    :meth:`FirstEffect.prearm`).
    """
    arch = FaultyArchState(golden.config, fault, golden_log=golden.log)
    fork_cycle = 0
    idx = (
        golden.fork_index(fault.cycle) if fork_index is _AUTO
        else fork_index
    )
    if idx is not None:
        fork_cycle = golden.arena.cycle_of(idx)
        core = Core(golden.config, iter(()), arch=arch)
        core.restore(golden.arena.get(idx), golden.trace)
        if prearm is not None:
            arch.prearm_sticky(*prearm)
    else:
        core = Core(golden.config, iter(golden.trace), arch=arch)
    return _execute_and_classify(golden, fault, core, arch, fork_cycle)


@dataclass(frozen=True)
class FirstEffect:
    """What the first-effect scan learned about one sticky fault.

    ``first`` is the first golden cycle at which the fault's forcing
    would change machine state (``None``: never — the faulty run *is*
    the golden run).  ``armed_cycle`` / ``armed_commits`` reproduce the
    arming bookkeeping a from-scratch run would record: ``(0, 0)`` for
    non-fetch stickies (they arm unconditionally at cycle 0), the first
    fetch through the faulted way for fetch stickies (``armed_cycle``
    is ``None`` if that way never fetches).
    """

    first: Optional[int]
    armed_cycle: Optional[int] = 0
    armed_commits: int = 0

    def prearm(self, fork_cycle: int) -> Optional[Tuple[int, int]]:
        """Arming to pre-apply when forking at ``fork_cycle``.

        ``None`` when the replayed suffix re-arms naturally (arming
        happens at or after the fork point, so the suffix observes it).
        """
        if self.armed_cycle is None or self.armed_cycle >= fork_cycle:
            return None
        return (self.armed_cycle, self.armed_commits)


def synth_never_result(
    golden: GoldenRun, effect: Optional[FirstEffect] = None
) -> InjectionResult:
    """Result of a sticky fault whose forcing never bites.

    :func:`first_effect_scan` proved the forcing is a no-op at every
    cycle of the golden trajectory, so the faulty run *is* the golden
    run: masked, golden's cycle/commit counts, armed exactly as the
    from-scratch run would be (non-fetch stickies arm unconditionally
    at cycle 0; a fetch sticky arms only if its way ever fetches) — at
    zero faulty cycles.
    """
    armed = True if effect is None else effect.armed_cycle is not None
    return InjectionResult(
        outcome="masked",
        cycles=max(golden.cycles, 1),
        commits=golden.commits,
        armed=armed,
        simulated_cycles=0,
        fork_cycle=0,
        early_exit=True,
        cycles_saved=golden.cycles,
    )


def _never(cycle: int) -> float:
    """The schedule of a hook that needs only the cycles the core steps."""
    return _INF


class _ScanProbe(FaultyArchState):
    """Fault-free observer for :func:`first_effect_scan`.

    A :class:`FaultyArchState` carrying a transient far beyond any
    budget behaves exactly like the plain golden :class:`ArchState`
    (the fault layer is observation-only while inactive) and lends the
    scan its occupant-resolution helpers.  On top of that it watches
    ``on_fetch`` for the scan's fetch stickies: per faulted way, the
    first fetch through it (arming), and per fault, the first cycle the
    forced PC bit changes a fetched PC (the first effect).
    """

    def __init__(self, config, fault, fetch_watch) -> None:
        super().__init__(config, fault)
        #: way -> list of (fault_index, FaultSpec) still unresolved.
        self.fetch_watch: Dict[int, List[Tuple[int, FaultSpec]]] = (
            fetch_watch
        )
        #: way -> (cycle, commits) of the first fetch through it.
        self.fetch_arm: Dict[int, Tuple[int, int]] = {}
        #: fault_index -> first cycle the forced PC differs.
        self.fetch_bite: Dict[int, int] = {}

    def on_fetch(self, core, instr: Instr, way: int, cycle: int) -> Instr:
        watching = self.fetch_watch.get(way)
        if watching is not None:
            if way not in self.fetch_arm:
                self.fetch_arm[way] = (cycle, self.commits)
            pc = instr.pc
            rest = []
            for i, f in watching:
                if ((pc & ~(1 << f.bit)) | (f.value << f.bit)) != pc:
                    self.fetch_bite[i] = cycle
                else:
                    rest.append((i, f))
            if len(rest) != len(watching):
                if rest:
                    self.fetch_watch[way] = rest
                else:
                    del self.fetch_watch[way]
        return instr


def first_effect_scan(
    golden: GoldenRun, faults: List[FaultSpec]
) -> Dict[int, FirstEffect]:
    """First cycle each sticky fault's forcing would change state.

    Replays the golden trajectory once (a fresh fault-free run of the
    same deterministic simulation, observed at the top of every cycle
    the core steps — exactly where :meth:`FaultyArchState.begin_cycle`
    applies its forcing — and at every fetch) and evaluates, for every
    pending sticky fault, whether forcing its site bit *right now* would
    change machine state.  A jumped dead cycle repeats the stepped cycle
    before it, whose answer was no; the one cycle-dependent predicate
    (``rob.done`` stuck-at-1: ``done > cycle``) only turns false as the
    cycle grows, so the first bite always lands on a stepped cycle.

    Returns ``{fault_index: FirstEffect}`` for every eligible fault —
    stuck-ats with activation cycle 0, the campaign's entire sticky
    population.  ``first=None`` means the forcing never bites: the
    faulty run is the golden run (see :func:`synth_never_result`).  An
    integer ``c`` licenses forking from any checkpoint at or before
    ``c``: the forcing was a no-op at every earlier cycle, so the
    faulty machine was bit-identical to golden throughout that prefix
    (induction over equal states, no-op forcing, and a deterministic
    step function).

    Predicates mirror the fault layer's mutations exactly for
    value-holding fields — with a register-liveness gate for the
    register files (a free or in-flight-unreferenced register can never
    reach a future read; see the module docstring) — and conservatively
    for ``iq.ready`` (any occupant counts: its forcing also perturbs
    issue arbitration through ``forced_ready``).  Conservatism can only
    move a first-effect cycle *earlier* — costing replay cycles, never
    correctness.
    """
    pending: Dict[int, FaultSpec] = {}
    fetch_watch: Dict[int, List[Tuple[int, FaultSpec]]] = {}
    fetch_sites: List[Tuple[int, int]] = []  # (fault_index, way)
    result: Dict[int, FirstEffect] = {}
    for i, f in enumerate(faults):
        if f.kind != "stuckat" or f.cycle != 0:
            continue
        if f.site.struct == "fetch":
            fetch_watch.setdefault(f.site.index, []).append((i, f))
            fetch_sites.append((i, f.site.index))
        else:
            pending[i] = f
            result[i] = FirstEffect(None)
    if not pending and not fetch_sites:
        return result
    dummy = next(iter(faults))
    probe = _ScanProbe(
        golden.config,
        FaultSpec(dummy.site, "transient", 0, 0, 1 << 60),
        fetch_watch,
    )
    core = Core(golden.config, iter(golden.trace), arch=probe)
    # Per-cycle memo of the in-flight register set (destinations and
    # captured sources of live rename records) — only built on cycles
    # where an allocated faulted register's forced bit differs.
    live_memo = {"cycle": -1, "regs": ()}

    def live_regs(cyc: int):
        if live_memo["cycle"] != cyc:
            s = set()
            for rec in probe.info.values():
                if rec.preg is not None:
                    s.add((rec.cls, rec.preg))
                for cls, p in rec.srcs:
                    if cls >= 0:
                        s.add((cls, p))
            live_memo["cycle"] = cyc
            live_memo["regs"] = s
        return live_memo["regs"]

    def bites(f: FaultSpec, cyc: int) -> bool:
        site = f.site
        struct = site.struct
        b, v = f.bit, f.value
        mask = 1 << b
        if struct == "rob":
            e = probe._rob_entry(core, site.index)
            if e is None:
                return False
            if site.field == "done":
                if v == 0:
                    return e.done is not None
                return e.done is None or e.done > cyc
            info = probe.info.get(e.instr.seq)
            if info is None or info.a_d is None:
                return False
            return (((info.a_d & ~mask) | (v << b)) & 0x1F) != info.a_d
        if struct in ("iq_int", "iq_fp"):
            e = probe._iq_entry(core, struct, site.index)
            if e is None:
                return False
            if site.field == "ready":
                return True  # conservative: occupant => effect
            info = probe.info.get(e.instr.seq)
            if info is None or not info.srcs:
                return False
            cls, p = info.srcs[0]
            return cls >= 0 and ((p & ~mask) | (v << b)) != p
        if struct == "lsq":
            entries = core.lsq.entries
            if site.index >= len(entries):
                return False
            blk = entries[site.index][2]
            return ((blk & ~mask) | (v << b)) != blk
        if struct in ("prf_int", "prf_fp"):
            cls = 0 if struct == "prf_int" else 1
            idx = site.index
            cur = probe.prf[cls][idx]
            if ((cur & ~mask) | (v << b)) == cur:
                return False
            # The forced bit differs — but corrupting a register no
            # in-flight record can reach is invisible until the cell is
            # reallocated and rewritten (which erases the corruption).
            if idx in probe.free_set[cls]:
                return False
            return (cls, idx) in live_regs(cyc)
        if struct in ("rmap_int", "rmap_fp"):
            cur = probe.rmap[0 if struct == "rmap_int" else 1][site.index]
            return cur is not None and ((cur & ~mask) | (v << b)) != cur
        return True  # unknown structure: assume an immediate effect

    def on_cycle(c: Core) -> bool:
        cyc = c.cycle
        bitten = None
        for i, f in pending.items():
            if bites(f, cyc):
                result[i] = FirstEffect(cyc)
                if bitten is None:
                    bitten = []
                bitten.append(i)
        if bitten:
            for i in bitten:
                del pending[i]
        return not pending and not probe.fetch_watch

    core.run(
        golden.n_instructions,
        max_cycles=golden.cycles + BUDGET_SLACK,
        on_cycle=on_cycle,
        schedule=_never,
    )
    for i, way in fetch_sites:
        arm = probe.fetch_arm.get(way)
        bite = probe.fetch_bite.get(i)
        if arm is None:
            result[i] = FirstEffect(bite, None, 0)
        else:
            result[i] = FirstEffect(bite, arm[0], arm[1])
    if TELEMETRY.enabled:
        TELEMETRY.count("inject.scan_cycles", core.cycle)
    return result


class ReplaySession:
    """One core reused across faults sharing a fork checkpoint.

    The first fault decodes the checkpoint and builds the core; every
    later fault re-targets the same observer via ``arch.reset_run`` and
    restores the core in full from the pinned snapshot (counted as
    ``inject.restore_reuses``).  Classifications are bit-identical to
    per-fault :func:`run_with_fault` calls for any grouping.
    """

    def __init__(self, golden: GoldenRun, index: int) -> None:
        self.golden = golden
        self.index = index
        self.fork_cycle = golden.arena.cycle_of(index)
        # Pinned decoded snapshot, restored from on every fault.
        self._snap: Optional[dict] = None
        self.core: Optional[Core] = None
        self.arch: Optional[FaultyArchState] = None
        self.runs = 0

    def run(
        self,
        fault: FaultSpec,
        prearm: Optional[Tuple[int, int]] = None,
    ) -> InjectionResult:
        """Classify one fault on the session's core.

        ``prearm=(cycle, commits)`` restores sticky arming bookkeeping
        (see :meth:`FaultyArchState.prearm_sticky`) after positioning.
        """
        g = self.golden
        if self.core is None:
            self._snap = g.arena.get(self.index)
            self.arch = FaultyArchState(g.config, fault, golden_log=g.log)
            self.core = Core(g.config, iter(()), arch=self.arch)
        else:
            self.arch.reset_run(fault)
            if TELEMETRY.enabled:
                TELEMETRY.count("inject.restore_reuses")
        self.core.restore(self._snap, g.trace)
        if prearm is not None:
            self.arch.prearm_sticky(*prearm)
        self.runs += 1
        return _execute_and_classify(
            g, fault, self.core, self.arch, self.fork_cycle
        )
