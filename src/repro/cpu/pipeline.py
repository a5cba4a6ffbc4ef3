"""The cycle-level out-of-order core model.

Trace-driven: the trace supplies dynamic instructions with dependence
distances, branch outcomes, and memory addresses; the core models fetch
(branch-predictor-driven), an in-order frontend, dispatch into the ROB /
issue queues / LSQ, wakeup-select issue with speculative load wakeup and
miss replay, execution latencies through a real cache hierarchy, and
in-order commit.

Baseline vs Rescue differ exactly by the paper's Section 5 list: the
segmented issue queue with cycle-split compaction and the per-half
select/replay policy, +2 mispredict cycles, and +1 cycle of queue-slot
occupancy after issue.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.cpu.bpred import FrontendPredictor
from repro.cpu.caches import MemoryHierarchy
from repro.cpu.isa import Instr, OpClass
from repro.cpu.params import MachineConfig
from repro.cpu.queues import (
    CompactingIssueQueue,
    LoadStoreQueue,
    SegmentedIssueQueue,
    combined_violates,
    replay_entries,
)
from repro.telemetry import TELEMETRY

_INF = float("inf")


def _every_cycle(cycle: int) -> int:
    """The schedule of an ``on_cycle`` hook that must see every cycle."""
    return cycle + 1


class RobEntry:
    __slots__ = ("instr", "done")

    def __init__(self, instr: Instr) -> None:
        self.instr = instr
        self.done: Optional[int] = None


@dataclass
class SimResult:
    """Summary statistics of one simulation."""

    instructions: int
    cycles: int
    bpred_accuracy: float
    l1d_miss_rate: float
    l2_miss_rate: float
    replays: int
    load_squashes: int
    issued: int = 0
    iq_occupancy_sum: int = 0
    #: Dead cycles jumped over rather than stepped (perf bookkeeping: a
    #: per-cycle run of the same inputs leaves an equal result).
    skipped_cycles: int = field(default=0, compare=False)

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle over the measured window."""
        return self.instructions / self.cycles if self.cycles else 0.0


class Core:
    """One core, one run."""

    def __init__(
        self,
        config: MachineConfig,
        trace: Iterable[Instr],
        arch=None,
    ) -> None:
        self.cfg = config
        self.trace = iter(trace)
        # Optional architectural-value observer (repro.cpu.archstate); the
        # fault layer shares its forced-readiness set with the scheduler.
        self.arch = arch
        self._forced = arch.forced_ready if arch is not None else None
        self.predictor = FrontendPredictor(config.core)
        self.mem = MemoryHierarchy(config)
        if config.rescue:
            self.iq_int = SegmentedIssueQueue(
                config.core.iq_int_size,
                compaction_buffer=config.compaction_buffer,
                issue_to_free=config.issue_to_free,
                halves=config.counts.iq_int,
            )
            self.iq_fp = SegmentedIssueQueue(
                config.core.iq_fp_size,
                compaction_buffer=config.compaction_buffer,
                issue_to_free=config.issue_to_free,
                halves=config.counts.iq_fp,
            )
        else:
            self.iq_int = CompactingIssueQueue(
                config.iq_int_size, issue_to_free=config.issue_to_free
            )
            self.iq_fp = CompactingIssueQueue(
                config.iq_fp_size, issue_to_free=config.issue_to_free
            )
        self.lsq = LoadStoreQueue(
            config.core.lsq_size,
            halves=config.counts.lsq,
            block=config.core.l1d_block,
        )
        # Completion bookkeeping: optimistic (wakeup) and actual times.
        self.opt_done: Dict[int, float] = {}
        self.act_done: Dict[int, float] = {}
        self.pending_fixes: List = []  # (discover_cycle, seq)
        self.rob: deque = deque()
        self._rob_index: Dict[int, RobEntry] = {}
        self.dispatch_q: deque = deque()  # (available_cycle, Instr)
        self.redirect_seq: Optional[int] = None
        self.fetch_stall_until = 0
        self.trace_done = False
        # Absolute simulation position: these survive across run() so a
        # core restored from a snapshot resumes mid-trace (see
        # snapshot()/restore()).  ``fetched`` counts trace instructions
        # consumed, which is the resume offset into the trace list.
        self.cycle = 0
        self.committed = 0
        self.fetched = 0
        self.replays = 0
        self.load_squashes = 0
        self.issued_total = 0
        self.iq_occupancy_sum = 0
        # Per-stage stall accounting (cycles a stage made no progress for
        # a specific structural reason); cheap enough to track always,
        # surfaced through telemetry when enabled.
        self.stall_rob_full = 0
        self.stall_iq_full = 0
        self.stall_lsq_full = 0
        self.fetch_redirect_cycles = 0
        self.fetch_stall_cycles = 0
        self.fetch_backpressure_cycles = 0

        self._lat = config.core.latencies
        self._fetch_width = config.fetch_width
        self._limits_int = {
            "slots": config.int_issue_limit,
            "alu": config.int_alus,
            "mul": config.int_muls,
            "mem": config.mem_ports,
        }
        self._limits_fp = {
            "slots": config.fp_issue_limit,
            "fadd": config.fp_adds,
            "fmul": config.fp_muls,
        }

    # ------------------------------------------------------------------
    def _ready(self, instr: Instr, cycle: int) -> bool:
        opt = self.opt_done
        seq = instr.seq
        forced = self._forced
        if forced and seq in forced:
            return True
        for d in instr.deps:
            t = opt.get(seq - d)
            if t is not None and t > cycle:
                return False
        return True

    def _missed_speculation(self, instr: Instr, cycle: int) -> bool:
        act = self.act_done
        seq = instr.seq
        for d in instr.deps:
            t = act.get(seq - d)
            if t is not None and t > cycle:
                return True
        return False

    # ------------------------------------------------------------------
    def run(
        self,
        max_instructions: int,
        max_cycles: Optional[int] = None,
        warmup: int = 0,
        on_cycle=None,
        schedule=None,
    ) -> SimResult:
        """Simulate until ``max_instructions`` commit (or the trace ends).

        The first ``warmup`` committed instructions prime the caches and
        predictor but are excluded from IPC and rate statistics.

        ``on_cycle(core)`` — when given — runs at the very top of every
        cycle the core steps, before any pipeline activity, with
        ``core.cycle`` / ``core.committed`` current.  It is the
        checkpoint/convergence observation point: returning truthy stops
        the simulation at that boundary.  The callback must not mutate
        simulator state.

        After a dead cycle ``c`` the core jumps to the first of: the next
        timer (:meth:`_next_event`), ``max_cycles``, ``schedule(c)`` —
        the next cycle ``on_cycle`` must see — and
        ``arch.next_active(core, c)`` — the next cycle the value layer's
        ``begin_cycle`` would change state.  An ``on_cycle`` without a
        ``schedule`` sees every cycle.  Every cycle jumped over repeats
        ``c`` exactly, so the results are identical to stepping every
        cycle.

        A core restored via :meth:`restore` resumes from its snapshot
        position: ``max_instructions`` still names the *total* commit
        target, and ``max_cycles`` stays an absolute cycle budget.
        """
        committed = self.committed
        cycle = self.cycle
        if max_cycles is None:
            max_cycles = 400 * (max_instructions + warmup) + 10_000
        start_cycle = cycle
        snap = None
        total = max_instructions + warmup
        arch = self.arch
        if on_cycle is not None and schedule is None:
            schedule = _every_cycle
        skipped = 0
        while committed < total and cycle < max_cycles:
            if on_cycle is not None:
                self.cycle = cycle
                self.committed = committed
                if on_cycle(self):
                    break
            if arch is not None:
                arch.begin_cycle(self, cycle)
                if arch.stopped:
                    break
            n = self._commit(cycle)
            committed += n
            if arch is not None and arch.stopped:
                break
            if snap is None and committed >= warmup:
                start_cycle = cycle
                snap = self._window_start(committed)
            fixed = self._apply_pending_fixes(cycle)
            released = self.iq_int.tick(cycle) | self.iq_fp.tick(cycle)
            occupancy = self.iq_int.occupancy() + self.iq_fp.occupancy()
            self.iq_occupancy_sum += occupancy
            stalls = self._stall_counters()
            selected = self._issue(cycle)
            dispatched = self._dispatch(cycle)
            fetched = self._fetch(cycle)
            if self.trace_done and not self.rob and not self.dispatch_q:
                break
            if n or fixed or released or selected or dispatched or fetched:
                cycle += 1
                continue
            # A dead cycle: the machine state is unchanged, so every
            # cycle up to the next timer, observation or fault action
            # repeats it exactly.
            target = max_cycles
            if schedule is not None:
                target = min(target, schedule(cycle))
            if arch is not None:
                target = min(target, arch.next_active(self, cycle))
            if target > cycle + 1:
                target = min(target, self._next_event(cycle))
            k = target - cycle - 1
            if k > 0:
                self.iq_occupancy_sum += k * occupancy
                self._add_stalls(stalls, k)
                if snap is not None:
                    skipped += k
            cycle = target
        self.cycle = cycle
        self.committed = committed
        if snap is None:
            snap = (0,) * 17
            start_cycle = 0

        def rate(hits: int, misses: int) -> float:
            total_acc = hits + misses
            return misses / total_acc if total_acc else 0.0

        l1h = self.mem.l1d.hits - snap[0]
        l1m = self.mem.l1d.misses - snap[1]
        l2h = self.mem.l2.hits - snap[2]
        l2m = self.mem.l2.misses - snap[3]
        lookups = self.predictor.lookups - snap[4]
        wrong = self.predictor.mispredicts - snap[5]
        result = SimResult(
            instructions=committed - snap[8],
            cycles=max(cycle - start_cycle, 1),
            bpred_accuracy=1.0 - (wrong / lookups if lookups else 0.0),
            l1d_miss_rate=rate(l1h, l1m),
            l2_miss_rate=rate(l2h, l2m),
            replays=self.replays - snap[6],
            load_squashes=self.load_squashes - snap[7],
            issued=self.issued_total - snap[9],
            iq_occupancy_sum=self.iq_occupancy_sum - snap[10],
            skipped_cycles=skipped,
        )
        t = TELEMETRY
        if t.enabled:
            # Measured-window (post-warmup) per-stage accounting, emitted
            # once per simulation so the cycle loop itself stays clean.
            t.count("cpu.runs")
            t.count("cpu.instructions", result.instructions)
            t.count("cpu.cycles", result.cycles)
            t.count("cpu.issued", result.issued)
            t.count("cpu.replays", result.replays)
            t.count("cpu.load_squashes", result.load_squashes)
            t.count("cpu.iq_occupancy_sum", result.iq_occupancy_sum)
            t.count("cpu.flushes", wrong)
            t.count("cpu.stall.rob_full", self.stall_rob_full - snap[11])
            t.count("cpu.stall.iq_full", self.stall_iq_full - snap[12])
            t.count("cpu.stall.lsq_full", self.stall_lsq_full - snap[13])
            t.count("cpu.stall.fetch_redirect",
                    self.fetch_redirect_cycles - snap[14])
            t.count("cpu.stall.fetch_bubble",
                    self.fetch_stall_cycles - snap[15])
            t.count("cpu.stall.fetch_backpressure",
                    self.fetch_backpressure_cycles - snap[16])
            t.count("cpu.skipped_cycles", skipped)
            t.observe("cpu.ipc", result.ipc)
        return result

    def _window_start(self, committed: int) -> tuple:
        """Counters at the start of the measured window (after warmup)."""
        return (
            self.mem.l1d.hits, self.mem.l1d.misses,
            self.mem.l2.hits, self.mem.l2.misses,
            self.predictor.lookups, self.predictor.mispredicts,
            self.replays, self.load_squashes, committed,
            self.issued_total, self.iq_occupancy_sum,
        ) + self._stall_counters()

    def _stall_counters(self) -> tuple:
        return (
            self.stall_rob_full, self.stall_iq_full, self.stall_lsq_full,
            self.fetch_redirect_cycles, self.fetch_stall_cycles,
            self.fetch_backpressure_cycles,
        )

    def _add_stalls(self, before: tuple, k: int) -> None:
        """Repeat the current cycle's stall accounting ``k`` more times."""
        (
            rob_full, iq_full, lsq_full, redirect, stall, backpressure,
        ) = before
        self.stall_rob_full += k * (self.stall_rob_full - rob_full)
        self.stall_iq_full += k * (self.stall_iq_full - iq_full)
        self.stall_lsq_full += k * (self.stall_lsq_full - lsq_full)
        self.fetch_redirect_cycles += k * (
            self.fetch_redirect_cycles - redirect
        )
        self.fetch_stall_cycles += k * (self.fetch_stall_cycles - stall)
        self.fetch_backpressure_cycles += k * (
            self.fetch_backpressure_cycles - backpressure
        )

    def _next_event(self, cycle: int) -> float:
        """Earliest cycle after a dead ``cycle`` at which a timer fires.

        Until then the machine repeats the dead cycle: commit waits on
        the ROB head, load-hit discovery on ``pending_fixes``, dispatch
        on the dispatch-queue head, fetch on ``fetch_stall_until``,
        slot release on ``issued_at + issue_to_free``, and selection on
        each waiting entry's ``blocked_until`` and its producers'
        wakeup times.  The caches and predictor change only with those
        events, never with time alone.  Returns ``inf`` when no timer
        is pending.
        """
        nxt = _INF
        if self.rob:
            done = self.rob[0].done
            if done is not None:
                nxt = done
        for discover, _ in self.pending_fixes:
            if discover < nxt:
                nxt = discover
        if self.dispatch_q:
            avail = self.dispatch_q[0][0]
            if cycle < avail < nxt:
                nxt = avail
        if cycle < self.fetch_stall_until < nxt:
            nxt = self.fetch_stall_until
        opt = self.opt_done
        for queue in (self.iq_int, self.iq_fp):
            itf = queue.issue_to_free
            for e in queue.entries:
                if e.issued_at is not None:
                    t = e.issued_at + itf
                else:
                    # Ready once unblocked and every in-flight producer
                    # has (optimistically) completed; an unissued
                    # producer (inf) wakes it only through its own event.
                    t = e.blocked_until
                    seq = e.instr.seq
                    for d in e.instr.deps:
                        p = opt.get(seq - d)
                        if p is not None and p > t:
                            t = p
                    if t <= cycle:
                        # Ready but held back by a static cause (a
                        # resource limit, or the compaction latch).
                        continue
                if t < nxt:
                    nxt = t
        return nxt

    # ------------------------------------------------------------------
    def _commit(self, cycle: int) -> int:
        n = 0
        width = self.cfg.core.width
        last_seq = None
        while self.rob and n < width:
            head = self.rob[0]
            if head.done is None or head.done > cycle:
                break
            self.rob.popleft()
            instr = head.instr
            if self.arch is not None:
                self.arch.on_commit(self, instr, cycle)
                if self.arch.stopped:
                    break
            if instr.op is OpClass.STORE and instr.addr is not None:
                self.mem.store_touch(instr.addr)
            self.opt_done.pop(instr.seq, None)
            self.act_done.pop(instr.seq, None)
            self._rob_index.pop(instr.seq, None)
            last_seq = instr.seq
            n += 1
        if last_seq is not None:
            self.lsq.retire_upto(last_seq)
        return n

    def _apply_pending_fixes(self, cycle: int) -> bool:
        """Load hit/miss discovery: downgrade optimistic wakeups.  True
        when a discovery fell due."""
        if not self.pending_fixes:
            return False
        keep = []
        for discover, seq in self.pending_fixes:
            if discover <= cycle:
                if seq in self.opt_done:
                    self.opt_done[seq] = self.act_done.get(seq, _INF)
            else:
                keep.append((discover, seq))
        if len(keep) == len(self.pending_fixes):
            return False
        self.pending_fixes = keep
        return True

    # ------------------------------------------------------------------
    def _issue(self, cycle: int) -> bool:
        """Select and execute; True when anything was selected."""
        selected = False
        for queue, limits in (
            (self.iq_int, self._limits_int),
            (self.iq_fp, self._limits_fp),
        ):
            if self.cfg.rescue:
                old_sel, new_sel = queue.select_halves(
                    cycle, self._ready, limits
                )
                selected = selected or bool(old_sel or new_sel)
                if new_sel and combined_violates(old_sel, new_sel, limits):
                    if self.cfg.replay_policy == "trim":
                        # Idealized comparator: drop only the youngest
                        # excess selections (needs the cross-half
                        # communication ICI forbids — ablation only).
                        survivors = self._trim(old_sel, new_sel, limits, cycle)
                    else:
                        # Paper policy: replay the half that selected
                        # fewer (ties: new half).  The replay is
                        # discovered from latched counts one cycle later,
                        # so the losers sit out two cycles.
                        loser = (
                            old_sel if len(old_sel) < len(new_sel) else new_sel
                        )
                        replay_entries(loser, cycle, 2)
                        self.replays += len(loser)
                        survivors = new_sel if loser is old_sel else old_sel
                else:
                    survivors = old_sel + new_sel
            else:
                survivors = queue.select(cycle, self._ready, limits)
                selected = selected or bool(survivors)
            self._execute(survivors, queue, cycle)
        return selected

    def _trim(self, old_sel, new_sel, limits, cycle):
        """Keep the oldest selections that fit the limits; replay the rest
        individually (the 'trim' ablation policy)."""
        from repro.cpu.queues import resource_of

        used = {r: 0 for r in limits}
        survivors = []
        dropped = []
        merged = sorted(old_sel + new_sel, key=lambda e: e.instr.seq)
        for e in merged:
            res = resource_of(e.instr.op)
            if (
                used["slots"] + 1 <= limits["slots"]
                and used.get(res, 0) + 1 <= limits.get(res, 0)
            ):
                used["slots"] += 1
                used[res] = used.get(res, 0) + 1
                survivors.append(e)
            else:
                dropped.append(e)
        replay_entries(dropped, cycle, 2)
        self.replays += len(dropped)
        return survivors

    def _execute(self, selected, queue, cycle: int) -> None:
        l1_lat = self.cfg.core.l1d_latency
        forced = self._forced
        for e in selected:
            instr = e.instr
            if self._missed_speculation(instr, cycle) and not (
                forced and instr.seq in forced
            ):
                # Issued on a speculative (load-hit) wakeup that turned out
                # wrong: squash and retry once the operand really arrives.
                queue.replay([e])
                self.load_squashes += 1
                continue
            fwd_seq = None
            if instr.op is OpClass.LOAD:
                assert instr.addr is not None
                fwd_seq = self.lsq.forward_from(instr.seq, instr.addr)
                if fwd_seq is not None:
                    latency = l1_lat
                else:
                    latency = self.mem.load_latency(instr.addr)
                act = cycle + latency
                opt = cycle + l1_lat
                self.act_done[instr.seq] = act
                self.opt_done[instr.seq] = opt
                if act > opt:
                    # Hit/miss is known one cycle after the tag check —
                    # one more in Rescue, whose shift stage sits between
                    # issue and register read (Section 5, modification 4).
                    # Dependents issued on the optimistic wakeup inside
                    # that window are squashed and retried.
                    discover = cycle + l1_lat + 1 + (
                        1 if self.cfg.rescue else 0
                    )
                    self.pending_fixes.append((discover, instr.seq))
            else:
                latency = self._lat[int(instr.op)]
                done = cycle + latency
                self.act_done[instr.seq] = done
                self.opt_done[instr.seq] = done
            self.issued_total += 1
            self._rob_index[instr.seq].done = self.act_done[instr.seq]
            if self.arch is not None:
                self.arch.on_execute(self, instr, cycle, fwd_seq)
            if instr.op is OpClass.BRANCH and instr.seq == self.redirect_seq:
                self.fetch_stall_until = int(self.act_done[instr.seq])
                self.redirect_seq = None

    # ------------------------------------------------------------------
    def _dispatch(self, cycle: int) -> int:
        cfg = self.cfg
        n = 0
        # Frontend ways do decode and rename too: a degraded frontend
        # limits dispatch bandwidth along with fetch (Section 4).
        width = self._fetch_width
        while self.dispatch_q and n < width:
            avail, instr = self.dispatch_q[0]
            if avail > cycle:
                break
            if len(self.rob) >= cfg.core.rob_size:
                self.stall_rob_full += 1
                break
            queue = self.iq_fp if instr.op.is_fp else self.iq_int
            if not queue.can_insert():
                self.stall_iq_full += 1
                break
            if instr.op.is_mem and not self.lsq.can_insert():
                self.stall_lsq_full += 1
                break
            self.dispatch_q.popleft()
            entry = RobEntry(instr)
            self.rob.append(entry)
            self._rob_index[instr.seq] = entry
            self.opt_done[instr.seq] = _INF
            queue.insert(instr, cycle)
            if instr.op.is_mem:
                self.lsq.insert(
                    instr.seq, instr.op is OpClass.STORE, instr.addr or 0
                )
            if self.arch is not None:
                self.arch.on_dispatch(self, instr, cycle)
            n += 1
        return n

    # ------------------------------------------------------------------
    def _fetch(self, cycle: int) -> bool:
        """Fetch one group; True when the trace advanced."""
        cfg = self.cfg
        if self.trace_done or self.redirect_seq is not None:
            if self.redirect_seq is not None:
                self.fetch_redirect_cycles += 1
            return False
        if cycle < self.fetch_stall_until:
            self.fetch_stall_cycles += 1
            return False
        # The dispatch queue holds everything in flight in the frontend
        # (frontend_latency cycles deep at full width) plus a small skid.
        # The skid budget is the *baseline* depth for both machines so the
        # deeper Rescue frontend does not double as extra buffering.
        frontend_latency = cfg.mispredict_penalty
        if len(self.dispatch_q) >= cfg.core.width * (
            cfg.core.mispredict_penalty + 4
        ):
            self.fetch_backpressure_cycles += 1
            return False
        for way in range(self._fetch_width):
            instr = next(self.trace, None)
            if instr is None:
                self.trace_done = True
                return True
            self.fetched += 1
            if self.arch is not None:
                instr = self.arch.on_fetch(self, instr, way, cycle)
            self.dispatch_q.append((cycle + frontend_latency, instr))
            if instr.op is OpClass.BRANCH:
                wrong = self.predictor.predict_and_update(
                    instr.pc, instr.taken, instr.target
                )
                if wrong:
                    self.redirect_seq = instr.seq
                    return True
                if instr.taken:
                    return True  # taken branches end the fetch group
        return True

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-data copy of the complete machine state.

        Taken at the top of a cycle (the ``on_cycle`` point), the dict
        captures pipeline latches (dispatch queue, redirect/stall state,
        the compaction-request latch inside the segmented queues), the
        ROB/IQ/LSQ contents, completion bookkeeping, predictor and cache
        state, the statistics counters, and — when an
        :class:`~repro.cpu.archstate.ArchState` is attached — the whole
        value layer via ``arch.capture()``.  In-flight instructions are
        stored as ``(seq, pc)`` keys: the trace itself is not copied
        (``seq`` indexes the trace list; a differing ``pc`` records an
        ``on_fetch`` replacement).
        """
        return {
            "cycle": self.cycle,
            "committed": self.committed,
            "fetched": self.fetched,
            "trace_done": self.trace_done,
            "redirect_seq": self.redirect_seq,
            "fetch_stall_until": self.fetch_stall_until,
            "rob": tuple(
                (e.instr.seq, e.instr.pc, e.done) for e in self.rob
            ),
            "dispatch_q": tuple(
                (avail, i.seq, i.pc) for avail, i in self.dispatch_q
            ),
            "iq_int": self.iq_int.snapshot(),
            "iq_fp": self.iq_fp.snapshot(),
            "lsq": self.lsq.snapshot(),
            "opt_done": dict(self.opt_done),
            "act_done": dict(self.act_done),
            "pending_fixes": tuple(self.pending_fixes),
            "predictor": self.predictor.snapshot(),
            "caches": self.mem.snapshot(),
            "stats": (
                self.replays, self.load_squashes, self.issued_total,
                self.iq_occupancy_sum, self.stall_rob_full,
                self.stall_iq_full, self.stall_lsq_full,
                self.fetch_redirect_cycles, self.fetch_stall_cycles,
                self.fetch_backpressure_cycles,
            ),
            "arch": self.arch.capture() if self.arch is not None else None,
        }

    def restore(self, snap: dict, trace) -> None:
        """Load a :meth:`snapshot` and resume from its cycle.

        ``trace`` must be the same trace *list* the snapshotted run was
        fed (``Instr.seq`` equals the list index, which is how in-flight
        instructions are resolved).  The deterministic-resume contract:
        a restored run continues bit-identically to the uninterrupted
        one — same commit log, digest, cycle count, and statistics.
        The attached ``arch`` observer (if any) is loaded in place, so a
        faulty observer keeps its fault spec while inheriting golden
        machine state.  Restoring a core that has already run puts it
        at ``snap`` exactly as a fresh core would be: every field is
        reloaded, nothing of the earlier run survives.
        """
        def resolve(seq: int, pc: int) -> Instr:
            instr = trace[seq]
            if instr.pc != pc:  # on_fetch replaced it (fault layer)
                instr = Instr(
                    seq, instr.op, pc, instr.deps, instr.addr,
                    instr.taken, instr.target,
                )
            return instr

        self.cycle = snap["cycle"]
        self.committed = snap["committed"]
        self.fetched = snap["fetched"]
        self.trace_done = snap["trace_done"]
        self.redirect_seq = snap["redirect_seq"]
        self.fetch_stall_until = snap["fetch_stall_until"]
        self.trace = iter(trace[self.fetched:])
        self.rob = deque()
        self._rob_index = {}
        for seq, pc, done in snap["rob"]:
            entry = RobEntry(resolve(seq, pc))
            entry.done = done
            self.rob.append(entry)
            self._rob_index[seq] = entry
        self.dispatch_q = deque(
            (avail, resolve(seq, pc))
            for avail, seq, pc in snap["dispatch_q"]
        )
        self.iq_int.restore(snap["iq_int"], resolve)
        self.iq_fp.restore(snap["iq_fp"], resolve)
        self.lsq.restore(snap["lsq"])
        self.opt_done = dict(snap["opt_done"])
        self.act_done = dict(snap["act_done"])
        self.pending_fixes = list(snap["pending_fixes"])
        (
            self.replays, self.load_squashes, self.issued_total,
            self.iq_occupancy_sum, self.stall_rob_full,
            self.stall_iq_full, self.stall_lsq_full,
            self.fetch_redirect_cycles, self.fetch_stall_cycles,
            self.fetch_backpressure_cycles,
        ) = snap["stats"]
        self.predictor.restore(snap["predictor"])
        self.mem.restore(snap["caches"])
        if self.arch is not None and snap["arch"] is not None:
            self.arch.load(snap["arch"])
