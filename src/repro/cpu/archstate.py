"""Architectural-value layer for the cycle-level core.

The trace-driven :class:`~repro.cpu.pipeline.Core` models *timing* only:
instructions carry dependence distances, not values.  Fault injection
needs values — a bit flipped in a physical register must be observable
(or provably masked) at commit.  ``ArchState`` supplies that layer as an
optional observer the core drives through five hooks (``begin_cycle``,
``on_fetch``, ``on_dispatch``, ``on_execute``, ``on_commit``):

- per-class (int/FP) physical register files with FIFO free lists and
  rename maps, sized so classic prev-mapping freeing at commit can never
  reallocate a register a consumer still has to read;
- a deterministic pseudo-functional value semantics: every producer's
  value is a splitmix64-style mix of its opcode, PC, and captured source
  values, so corrupt state propagates through dependence chains exactly
  as real data would;
- a committed-state log (the golden record the injection harness diffs
  against) plus a snapshot/digest API over architectural registers and
  the committed memory image.

The central contract is **timing independence**: committed values are a
pure function of the trace, never of issue order or latency.  Source
operands are captured at dispatch through the *producer's* allocated
register (indexed by sequence number, which the readiness predicate
guarantees is written before any consumer issues), store data is
self-contained, and a load's forwarding source resolves to the youngest
older same-block store whether it forwards in the LSQ or reads the
committed memory image.  A fault that only perturbs timing therefore
reproduces the golden commit stream bit-for-bit and classifies masked.

``ArchState`` also models the microarchitectural *detection* events the
paper's taxonomy needs (committing a never-executed instruction, an
out-of-range register tag, a double-free of a physical register): these
never fire in a golden run, so any occurrence is a detected fault.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.cpu.isa import Instr, OpClass
from repro.cpu.params import CoreParams, MachineConfig

#: Maximum dependence distance the workload generator emits; producer
#: records are kept alive this far behind commit so consumers can always
#: capture their operands at dispatch.
DEP_WINDOW = 64

#: Architectural registers per class (int / FP).
N_ARCH_REGS = 32

_MASK = (1 << 64) - 1
_GOLD = 0x9E3779B97F4A7C15
_MIXK = 0xBF58476D1CE4E5B9

_INF = float("inf")


def mix(*parts: int) -> int:
    """Deterministic 64-bit hash of integer parts (splitmix64 flavour)."""
    h = 0x243F6A8885A308D3
    for p in parts:
        h = (h ^ (p & _MASK)) * _GOLD & _MASK
        h ^= h >> 29
        h = h * _MIXK & _MASK
        h ^= h >> 32
    return h


def preg_count(core: CoreParams) -> int:
    """Physical registers per class (both halves of one register file).

    Sized at ``2 * (2 * rob_size + 384)`` so that even in degraded mode
    (half the file mapped out) the free list always holds more registers
    than the maximum number of dispatches between a register being freed
    and its last in-flight reader capturing it — classic freeing is then
    read-after-free safe without reference counting.
    """
    return 2 * (2 * core.rob_size + 384)


def preg_tag_bits(core: CoreParams) -> int:
    """Bits in a physical register tag (fault models flip within these)."""
    return (preg_count(core) - 1).bit_length()


class _Info:
    """Per-instruction rename/value record, kept for DEP_WINDOW commits."""

    __slots__ = ("preg", "cls", "a_d", "prev", "srcs", "written", "const")

    def __init__(self, preg, cls, a_d, prev, srcs, written, const):
        self.preg: Optional[int] = preg
        self.cls: int = cls
        self.a_d: Optional[int] = a_d  # architectural dest (5-bit tag)
        self.prev: Optional[int] = prev  # previous mapping, freed at commit
        self.srcs: List[Tuple[int, int]] = srcs  # (cls, preg) or (-1, const)
        self.written: bool = written
        self.const: int = const  # store data / self-contained value


class ArchState:
    """Architectural values + rename state driven by the core's hooks.

    Attaching an ``ArchState`` is observation-only: the core's timing is
    bit-identical with or without it (asserted by tests).  Subclasses
    (``repro.inject.models.FaultyArchState``) override ``begin_cycle``
    and ``on_fetch`` to corrupt state, and ``next_active`` to name the
    cycles at which ``begin_cycle`` acts.
    """

    def __init__(self, config: MachineConfig) -> None:
        core = config.core
        self.block = core.l1d_block
        self.n_pregs = preg_count(core)
        half = self.n_pregs // 2
        # Class 0 = integer, class 1 = FP.  Degraded backends allocate
        # only from the surviving (low) half of the register file.
        usable = (
            self.n_pregs if config.int_backend_groups == 2 else half,
            self.n_pregs if config.fp_backend_groups == 2 else half,
        )
        self.prf: List[List[int]] = [
            [0] * self.n_pregs, [0] * self.n_pregs
        ]
        self.free: List[deque] = [
            deque(range(usable[0])), deque(range(usable[1]))
        ]
        self.free_set: List[set] = [
            set(range(usable[0])), set(range(usable[1]))
        ]
        self.rmap: List[List[Optional[int]]] = [
            [None] * N_ARCH_REGS, [None] * N_ARCH_REGS
        ]
        self.arch_regs: List[List[int]] = [
            [0] * N_ARCH_REGS, [0] * N_ARCH_REGS
        ]
        self.mem: Dict[int, int] = {}  # committed block -> value
        self.info: Dict[int, _Info] = {}
        self._retired: deque = deque()
        self.log: List[tuple] = []  # commit records since init / load
        self.commits = 0
        # Sequence numbers whose readiness the fault layer forces this
        # cycle; shared with the core (empty in golden runs).
        self.forced_ready: set = set()
        self.stopped = False
        self.outcome: Optional[str] = None
        self.detect_reason: Optional[str] = None
        self.detect_cycle: Optional[int] = None
        self.first_divergence: Optional[int] = None
        # Set by the harness on faulty runs: commits are compared against
        # this record and the run stops at the first divergence.
        self.golden_log: Optional[List[tuple]] = None

    # ---- hooks driven by the core ------------------------------------
    def begin_cycle(self, core, cycle: int) -> None:
        """Called at the top of every stepped cycle (fault application
        point)."""

    def next_active(self, core, cycle: int) -> float:
        """First cycle after the dead ``cycle`` at which
        :meth:`begin_cycle` would change state; the core may jump to it.

        Never, for the golden layer: every other hook fires only on a
        live cycle (a commit, an execute, a dispatch or a fetch).
        """
        return _INF

    def on_fetch(self, core, instr: Instr, way: int, cycle: int) -> Instr:
        """Called per fetched instruction; may return a replacement."""
        return instr

    def on_dispatch(self, core, instr: Instr, cycle: int) -> None:
        """Rename: allocate a dest register, capture source operands."""
        if self.stopped:
            return
        seq = instr.seq
        op = instr.op
        if op is OpClass.STORE:
            # Store data is self-contained so it is computable the moment
            # a younger load wants to forward from it, executed or not.
            const = mix(int(op) + 1, instr.pc, seq, instr.addr or 0)
            self.info[seq] = _Info(None, -1, None, None, (), False, const)
            return
        if op is OpClass.BRANCH:
            self.info[seq] = _Info(None, -1, None, None, (), False, 0)
            return
        srcs: List[Tuple[int, int]] = []
        for d in instr.deps:
            pseq = seq - d
            pinfo = self.info.get(pseq) if pseq >= 0 else None
            if pinfo is None:
                srcs.append((-1, 0))  # before the trace / out of window
            elif pinfo.preg is None:
                srcs.append((-1, pinfo.const))  # store/branch producer
            else:
                srcs.append((pinfo.cls, pinfo.preg))
        cls = 1 if op.is_fp else 0
        free = self.free[cls]
        if not free:
            self._detect("rename.underflow", cycle)
            return
        preg = free.popleft()
        self.free_set[cls].discard(preg)
        a_d = (instr.pc >> 2) % N_ARCH_REGS
        prev = self.rmap[cls][a_d]
        self.rmap[cls][a_d] = preg
        self.info[seq] = _Info(preg, cls, a_d, prev, srcs, False, 0)

    def on_execute(
        self, core, instr: Instr, cycle: int, fwd_seq: Optional[int]
    ) -> None:
        """Compute and write the producer's value (loads may forward)."""
        if self.stopped:
            return
        info = self.info.get(instr.seq)
        if info is None:
            return
        op = instr.op
        if info.preg is None:
            info.written = True  # stores/branches carry no register
            return
        parts = [int(op) + 1, instr.pc]
        for cls, p in info.srcs:
            if cls < 0:
                parts.append(p)
            else:
                if p < 0 or p >= self.n_pregs:
                    self._detect("tag.range", cycle)
                    return
                parts.append(self.prf[cls][p])
        if op is OpClass.LOAD:
            blk = (instr.addr or 0) // self.block
            if fwd_seq is not None:
                sinfo = self.info.get(fwd_seq)
                mval = sinfo.const if sinfo is not None else mix(7, blk)
            else:
                mval = self.mem.get(blk, mix(7, blk))
            parts.append(mval)
        self.prf[info.cls][info.preg] = mix(*parts)
        info.written = True

    def on_commit(self, core, instr: Instr, cycle: int) -> None:
        """Checks, architectural update, commit log, golden comparison."""
        if self.stopped:
            return
        seq = instr.seq
        info = self.info.get(seq)
        if info is None:
            return
        if not info.written:
            # Only a fault can mark a never-executed ROB entry done.
            self._detect("commit.unwritten", cycle)
            return
        op = instr.op
        if op is OpClass.STORE:
            blk = (instr.addr or 0) // self.block
            self.mem[blk] = info.const
            rec = ("st", blk, info.const)
        elif op is OpClass.BRANCH:
            rec = ("br", instr.pc, 1 if instr.taken else 0)
        else:
            preg = info.preg
            if preg is None or preg < 0 or preg >= self.n_pregs:
                self._detect("tag.range", cycle)
                return
            a_d = (info.a_d or 0) % N_ARCH_REGS
            value = self.prf[info.cls][preg]
            self.arch_regs[info.cls][a_d] = value
            rec = (info.cls, a_d, value)
            prev = info.prev
            if prev is not None:
                if prev < 0 or prev >= self.n_pregs:
                    self._detect("tag.range", cycle)
                    return
                if prev in self.free_set[info.cls]:
                    self._detect("free.double", cycle)
                    return
                self.free[info.cls].append(prev)
                self.free_set[info.cls].add(prev)
        self.commits += 1
        self.log.append(rec)
        if self.golden_log is not None:
            i = self.commits - 1
            if i >= len(self.golden_log) or self.golden_log[i] != rec:
                self.first_divergence = i
                self.outcome = "sdc"
                self.stopped = True
                return
        # Retire producer records once no future consumer can reach them.
        self._retired.append(seq)
        horizon = seq - DEP_WINDOW - 1
        while self._retired and self._retired[0] <= horizon:
            self.info.pop(self._retired.popleft(), None)

    # ---- detection / inspection --------------------------------------
    def _detect(self, reason: str, cycle: int) -> None:
        self.outcome = "detected"
        self.detect_reason = reason
        self.detect_cycle = cycle
        self.stopped = True

    def state_digest(self) -> int:
        """Single 64-bit digest of the committed architectural state."""
        return mix(
            *self.arch_regs[0],
            *self.arch_regs[1],
            *(v for kv in sorted(self.mem.items()) for v in kv),
            self.commits,
        )

    # ---- checkpoint capture / load -----------------------------------
    def capture(self) -> Dict[str, object]:
        """Full plain-data copy of the value layer for checkpointing.

        Everything a resumed run needs is here: register files, free
        lists (FIFO order matters), rename maps, committed registers and
        memory image, the live rename/value records, the retirement
        window, and the commit count.  The commit log is not: a
        checkpoint's log is by construction the golden log's first
        ``commits`` records, which the golden run already holds, and a
        faulty run compares each new commit against ``golden_log`` by
        index, so nothing reads the prefix back.  ``golden_log`` and the
        detection fields are excluded too — they belong to the harness
        driving a particular run, not to the machine state.
        """
        return {
            "prf": (tuple(self.prf[0]), tuple(self.prf[1])),
            "free": (tuple(self.free[0]), tuple(self.free[1])),
            "rmap": (tuple(self.rmap[0]), tuple(self.rmap[1])),
            "arch_regs": (
                tuple(self.arch_regs[0]), tuple(self.arch_regs[1])
            ),
            "mem": dict(self.mem),
            "info": {
                seq: (
                    i.preg, i.cls, i.a_d, i.prev, tuple(i.srcs),
                    i.written, i.const,
                )
                for seq, i in self.info.items()
            },
            "retired": tuple(self._retired),
            "commits": self.commits,
        }

    def load(self, snap: Dict[str, object]) -> None:
        """Load a :meth:`capture` back.

        ``log`` restarts empty: afterwards it holds only the commits
        made since the load (record ``k`` is commit ``commits + k``).
        ``forced_ready`` is cleared in place (the core aliases the set),
        never reassigned, which also discharges any fault-forced
        readiness a previous run on the same core left behind."""
        self.prf = [list(snap["prf"][0]), list(snap["prf"][1])]
        self.free = [deque(snap["free"][0]), deque(snap["free"][1])]
        self.free_set = [set(self.free[0]), set(self.free[1])]
        self.rmap = [list(snap["rmap"][0]), list(snap["rmap"][1])]
        self.arch_regs = [
            list(snap["arch_regs"][0]), list(snap["arch_regs"][1])
        ]
        self.mem = dict(snap["mem"])
        self.info = {
            seq: _Info(t[0], t[1], t[2], t[3], list(t[4]), t[5], t[6])
            for seq, t in snap["info"].items()
        }
        self._retired = deque(snap["retired"])
        self.log = []
        self.commits = snap["commits"]
        self.forced_ready.clear()
