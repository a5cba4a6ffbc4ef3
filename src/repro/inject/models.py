"""Fault models: transient bit flips and sticky stuck-ats.

A :class:`FaultSpec` fixes everything about one injection — the site,
the kind, the bit position, the stuck-at polarity, and the activation
cycle — so a fault is replayable bit-for-bit in any process.

:class:`FaultyArchState` applies the fault through the architectural
state layer's hooks.  Transients activate exactly once at their cycle;
stuck-ats force the bit every cycle from their cycle onward (cycle 0 for
manufacturing defects — campaign sampling always uses 0 so a stuck-at
models the paper's hard-defect scenario).  The core skips the dead
cycles on which re-forcing would be a no-op
(:meth:`FaultyArchState.next_active`).  A fault whose site holds no
occupant at activation (an empty queue slot, an unallocated register)
simply does nothing — that run is masked, which is itself part of the
taxonomy's derating.

Fault semantics per site field:

- ``rob.done`` — stuck-at-0 pins a ROB slot not-done (the occupant can
  never commit → hang); forcing it set commits a never-executed
  instruction → the ``commit.unwritten`` checker detects it.
- ``rob.dest`` — corrupts the architectural destination tag → the value
  retires to the wrong register → SDC.
- ``iq.ready`` — forcing ready issues an instruction before its
  operands arrive (stale register read → SDC); stuck-at-0 starves the
  slot (hang when the occupant is at the commit head).
- ``iq.src`` — flips a bit of the captured source register tag →
  reads the wrong physical register → SDC or a ``tag.range`` detection.
- ``lsq.addr`` — corrupts the block-address CAM field → wrong
  store-to-load forwarding decision → SDC.
- ``prf.data`` / ``rmap.tag`` / ``fetch.pc`` — direct state corruption;
  rename-map corruption can also double-free a register (detected).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cpu.archstate import ArchState
from repro.cpu.isa import Instr
from repro.cpu.params import MachineConfig
from repro.cpu.queues import SegmentedIssueQueue
from repro.inject.sites import Site, field_width
from repro.runner.seeding import derive_seed

KINDS = ("transient", "stuckat")

_INF = float("inf")


@dataclass(frozen=True)
class FaultSpec:
    """One fully-determined fault injection."""

    site: Site
    kind: str  # "transient" | "stuckat"
    bit: int
    value: int  # stuck-at polarity (ignored for transients)
    cycle: int  # activation cycle (transient: exactly; stuckat: onward)

    @property
    def label(self) -> str:
        if self.kind == "transient":
            return f"{self.site.label} flip b{self.bit}@{self.cycle}"
        return f"{self.site.label} sa{self.value} b{self.bit}"

    def to_json(self) -> Dict[str, object]:
        return {
            "site": self.site.to_json(),
            "kind": self.kind,
            "bit": self.bit,
            "value": self.value,
            "cycle": self.cycle,
        }

    @classmethod
    def from_json(cls, d: Dict[str, object]) -> "FaultSpec":
        return cls(
            Site.from_json(d["site"]), str(d["kind"]), int(d["bit"]),
            int(d["value"]), int(d["cycle"]),
        )


def _weighted_choice(rng: random.Random, pool: List[Site], profile) -> Site:
    """Pick a site from ``pool`` with probability proportional to its
    profiled residency (+1 smoothing so cold sites stay reachable)."""
    weights = [profile.residency(s.struct, s.index) + 1 for s in pool]
    total = sum(weights)
    x = rng.random() * total
    acc = 0
    for site, w in zip(pool, weights):
        acc += w
        if x < acc:
            return site
    return pool[-1]


def sample_faults(
    sites: List[Site],
    n: int,
    seed: int,
    model: str,
    config: MachineConfig,
    golden_cycles: int,
    mode: str = "uniform",
    profile=None,
) -> List[FaultSpec]:
    """Draw ``n`` faults deterministically (one seed stream per index).

    Sampling is stratified by structure (pick a structure uniformly,
    then a site within it) so small structures with few sites — fetch
    latches, rename maps — are exercised as often as the big register
    files.  Transient activation cycles are drawn as a fraction of the
    golden run length (the middle three quarters), so the same seed
    lands faults at comparable execution phases on any configuration.

    ``mode="weighted"`` keeps the uniform structure pick (the stratified
    per-index ``derive_seed`` streams are unchanged) but draws the site
    *within* the structure proportional to its residency in the given
    :class:`~repro.inject.profiler.SiteProfile` — faults land where
    state actually lives.  The default stays uniform.
    """
    if model not in KINDS and model != "both":
        raise ValueError(f"unknown fault model {model!r}")
    if mode not in ("uniform", "weighted"):
        raise ValueError(f"unknown sampling mode {mode!r}")
    if mode == "weighted" and profile is None:
        raise ValueError("weighted sampling needs a SiteProfile")
    by_struct: Dict[str, List[Site]] = {}
    for s in sites:
        by_struct.setdefault(s.struct, []).append(s)
    structs = sorted(by_struct)
    if not structs:
        raise ValueError("no sites to sample from")
    faults = []
    for i in range(n):
        rng = random.Random(derive_seed(seed, i, "inject.fault"))
        pool = by_struct[structs[rng.randrange(len(structs))]]
        if mode == "weighted":
            site = _weighted_choice(rng, pool, profile)
        else:
            site = pool[rng.randrange(len(pool))]
        if model == "both":
            kind = KINDS[rng.randrange(2)]
        else:
            kind = model
        bit = rng.randrange(field_width(site, config))
        value = rng.randrange(2)
        if kind == "stuckat":
            cycle = 0
        else:
            frac = 0.125 + 0.75 * rng.random()
            cycle = max(1, int(frac * golden_cycles))
        faults.append(FaultSpec(site, kind, bit, value, cycle))
    return faults


class FaultyArchState(ArchState):
    """ArchState subclass that corrupts state per one :class:`FaultSpec`.

    **``forced_ready`` aliasing.**  The core captures a reference to
    this set at construction (``Core._forced``) and never re-reads the
    attribute, so the set must only ever be mutated in place — cleared
    at the top of every stepped cycle by :meth:`begin_cycle` and by
    :meth:`~repro.cpu.archstate.ArchState.load` — never reassigned.
    This matters for warm-core group reuse: a fault that forced an
    issue-queue entry ready leaves its sequence numbers in the shared
    set when the run stops, and the next fault on the same restored core
    must not inherit them (regression-tested in
    ``tests/test_grouped_replay.py``).
    """

    def __init__(
        self,
        config: MachineConfig,
        fault: FaultSpec,
        golden_log: Optional[list] = None,
    ) -> None:
        super().__init__(config)
        self.fault = fault
        self.golden_log = golden_log
        self.armed = False
        self.armed_cycle: Optional[int] = None
        self.armed_commits = 0
        core = config.core
        self._iq_half = {
            "iq_int": core.iq_int_size // 2,
            "iq_fp": core.iq_fp_size // 2,
        }
        self._rob_size = core.rob_size

    def reset_run(self, fault: FaultSpec) -> None:
        """Re-target this observer at a new fault (warm-core reuse).

        Clears every per-run harness field — arming state, stop/outcome
        latches, divergence bookkeeping.  Machine state, including the
        shared ``forced_ready`` set, is put back separately by the
        :meth:`~repro.cpu.pipeline.Core.restore` that must follow.
        """
        self.fault = fault
        self.armed = False
        self.armed_cycle = None
        self.armed_commits = 0
        self.stopped = False
        self.outcome = None
        self.detect_reason = None
        self.detect_cycle = None
        self.first_divergence = None

    def prearm_sticky(self, cycle: int = 0, commits: int = 0) -> None:
        """Restore a sticky fault's arming bookkeeping on a forked core.

        A non-fetch stuck-at with activation cycle 0 arms
        unconditionally on the very first ``begin_cycle`` — before
        occupant resolution — so a from-scratch run always reports
        ``armed_cycle = armed_commits = 0``; a fetch stuck-at arms at
        its first fetch through the faulted way, which the first-effect
        scan observes.  A run forked past the arming point must report
        the same values, or detection latencies and corruption
        distances would shift by the fork cycle.
        """
        self.armed = True
        self.armed_cycle = cycle
        self.armed_commits = commits

    # ------------------------------------------------------------------
    def _active(self, cycle: int) -> bool:
        if self.fault.kind == "transient":
            return cycle == self.fault.cycle
        return cycle >= self.fault.cycle

    def _arm(self, cycle: int) -> None:
        if not self.armed:
            self.armed = True
            self.armed_cycle = cycle
            self.armed_commits = self.commits

    def _bits(self, value: int) -> int:
        f = self.fault
        if f.kind == "transient":
            return value ^ (1 << f.bit)
        return (value & ~(1 << f.bit)) | (f.value << f.bit)

    # ---- occupant resolution -----------------------------------------
    def _rob_entry(self, core, slot: int):
        rob = core.rob
        if not rob:
            return None
        head = rob[0].instr.seq
        seq = head + ((slot - head) % self._rob_size)
        if seq >= head + len(rob):
            return None
        return core._rob_index.get(seq)

    def _iq_entry(self, core, struct: str, slot: int):
        queue = core.iq_int if struct == "iq_int" else core.iq_fp
        half = self._iq_half[struct]
        if isinstance(queue, SegmentedIssueQueue):
            if queue.halves == 1:
                if slot >= half:
                    return None  # half 1 / latch slots are mapped out
                seg, idx = queue.old, slot
            elif slot < half:
                seg, idx = queue.old, slot
            elif slot < 2 * half:
                seg, idx = queue.new, slot - half
            else:
                seg, idx = queue.buf, slot - 2 * half
        else:
            seg, idx = queue.entries, slot
        return seg[idx] if 0 <= idx < len(seg) else None

    # ---- hook overrides ----------------------------------------------
    def begin_cycle(self, core, cycle: int) -> None:
        if self.forced_ready:
            self.forced_ready.clear()
        if self.stopped or not self._active(cycle):
            return
        site = self.fault.site
        struct = site.struct
        if struct == "fetch":
            return  # applied in on_fetch
        self._arm(cycle)
        if struct == "rob":
            entry = self._rob_entry(core, site.index)
            if entry is None:
                return
            if site.field == "done":
                if self.fault.kind == "transient":
                    entry.done = None if entry.done is not None else cycle
                elif self.fault.value == 0:
                    entry.done = None
                elif entry.done is None or entry.done > cycle:
                    entry.done = cycle
            else:  # dest
                info = self.info.get(entry.instr.seq)
                if info is not None and info.a_d is not None:
                    info.a_d = self._bits(info.a_d) & 0x1F
        elif struct in ("iq_int", "iq_fp"):
            e = self._iq_entry(core, struct, site.index)
            if e is None:
                return
            if site.field == "ready":
                forced_set = (
                    self.fault.kind == "transient" or self.fault.value == 1
                )
                if forced_set:
                    e.blocked_until = 0
                    self.forced_ready.add(e.instr.seq)
                else:
                    e.blocked_until = max(e.blocked_until, cycle + 1)
            else:  # src
                info = self.info.get(e.instr.seq)
                if info is not None and info.srcs:
                    cls, p = info.srcs[0]
                    if cls >= 0:
                        info.srcs[0] = (cls, self._bits(p))
        elif struct == "lsq":
            entries = core.lsq.entries
            if site.index < len(entries):
                seq, is_store, blk = entries[site.index]
                entries[site.index] = (seq, is_store, self._bits(blk))
        elif struct in ("prf_int", "prf_fp"):
            cls = 0 if struct == "prf_int" else 1
            idx = site.index
            self.prf[cls][idx] = self._bits(self.prf[cls][idx])
        elif struct in ("rmap_int", "rmap_fp"):
            cls = 0 if struct == "rmap_int" else 1
            cur = self.rmap[cls][site.index]
            if cur is not None:
                self.rmap[cls][site.index] = self._bits(cur)

    def next_active(self, core, cycle: int) -> float:
        """First cycle after the dead ``cycle`` at which
        :meth:`begin_cycle` would change state.

        Machine state at the top of ``cycle + 1`` equals the state
        :meth:`begin_cycle` left at ``cycle``, so a forcing that is a
        no-op on its own result may be skipped: every stuck-at here sets
        a bit to a constant, and ``rob.done`` stuck-at-1 only ever moves
        ``done`` down to a cycle already passed.  Two forcings are not
        idempotent: ``forced_ready`` is cleared and rebuilt every cycle,
        and ``iq.ready`` stuck-at-0 pushes its occupant's
        ``blocked_until`` to ``cycle + 1``.  Fetch faults act only in
        :meth:`on_fetch`, which fires on live cycles alone.
        """
        if self.forced_ready:
            return cycle + 1
        f = self.fault
        struct = f.site.struct
        if self.stopped or struct == "fetch":
            return _INF
        if cycle < f.cycle:
            return f.cycle
        if (
            f.kind == "stuckat"
            and f.site.field == "ready"
            and self._iq_entry(core, struct, f.site.index) is not None
        ):
            return cycle + 1
        return _INF

    def on_fetch(self, core, instr: Instr, way: int, cycle: int) -> Instr:
        f = self.fault
        if (
            f.site.struct != "fetch"
            or way != f.site.index
            or self.stopped
            or not self._active(cycle)
        ):
            return instr
        self._arm(cycle)
        pc = self._bits(instr.pc)
        if pc == instr.pc:
            return instr
        return Instr(
            instr.seq, instr.op, pc, instr.deps, instr.addr,
            instr.taken, instr.target,
        )
