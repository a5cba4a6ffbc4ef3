"""Injection-site enumeration with ICI-block ownership.

A :class:`Site` names one bit-addressable field of one physical storage
slot in the core — a ROB entry's done bit, an issue-queue slot's source
tag, a physical register's data word, a rename-map entry, a fetch way's
PC latch.  Each site belongs to exactly one ICI block of the fault map
(``<dimension>.<half>`` for the six halvable dimensions, ``chipkill``
for structures whose loss kills the core: ROB, rename, the compaction
latches).  That ownership is what lets a campaign be conditioned on the
fault map: a fault sited in a mapped-out block must be masked.

Physical slot identity follows the queues' compaction order, which the
simulator keeps implicitly (entry lists are age-ordered):

- segmented issue queue: old-segment entries occupy half-0 slots
  ``[0, size/2)``, new-segment entries half-1 slots ``[size/2, size)``,
  compaction-latch entries the buffer slots past the halves (chipkill);
  a degraded queue (one half mapped out) packs into half 0;
- LSQ: list position; slots ``[size/2, size)`` are half 1;
- physical register files: low half belongs to backend group 0, high
  half to group 1 (degraded backends allocate only from the low half);
- fetch: ways ``[0, width/2)`` are frontend group 0, the rest group 1;
- ROB slot = sequence number mod ``rob_size``.

:func:`occupant` is that layout for the ROB and the issue queues, and
the only code that maps a slot to the entry under it: the fault layer
forces through it, and the site profiler counts residency with it.
:func:`live_pregs` is the one definition of a live physical register
(named by a live rename record as destination or captured source).

Site enumeration depends only on ``CoreParams`` (structure sizes do not
shrink under degradation — the silicon is still there, just mapped out),
so the same site universe is valid for every configuration of a core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

from repro.cpu.archstate import preg_count, preg_tag_bits
from repro.cpu.params import MachineConfig
from repro.cpu.queues import SegmentedIssueQueue
from repro.yieldmodel.configs import DIMENSIONS, CoreCounts

#: Chipkill block name (ROB, rename map, compaction latches).
CHIPKILL = "chipkill"


@dataclass(frozen=True)
class Site:
    """One injectable storage field: ``struct[index].field`` in ``block``."""

    struct: str  # rob | iq_int | iq_fp | lsq | prf_int | prf_fp |
    #              rmap_int | rmap_fp | fetch
    index: int  # slot / register / way number
    field: str  # done | dest | ready | src | addr | data | tag | pc
    block: str  # owning ICI block, e.g. "iq_int.1", "chipkill"

    @property
    def label(self) -> str:
        return f"{self.struct}[{self.index}].{self.field}"

    def to_json(self) -> Dict[str, object]:
        return {
            "struct": self.struct,
            "index": self.index,
            "field": self.field,
            "block": self.block,
        }

    @classmethod
    def from_json(cls, d: Dict[str, object]) -> "Site":
        return cls(
            str(d["struct"]), int(d["index"]), str(d["field"]),
            str(d["block"]),
        )


def field_width(site: Site, config: MachineConfig) -> int:
    """Bit width of a site's field (the fault model flips within it)."""
    tag = preg_tag_bits(config.core)
    return {
        "done": 1,
        "ready": 1,
        "dest": 5,  # architectural destination tag
        "src": tag,
        "tag": tag,
        "addr": 16,  # LSQ block-address CAM field
        "data": 64,
        "pc": 16,
    }[site.field]


def occupant(core, struct: str, slot: int):
    """The entry in physical ``slot`` of ``struct`` (``rob``,
    ``iq_int`` or ``iq_fp``), or None for an empty slot."""
    if struct == "rob":
        rob = core.rob
        if not rob:
            return None
        head = rob[0].instr.seq
        seq = head + (slot - head) % core.cfg.core.rob_size
        return core._rob_index.get(seq) if seq < head + len(rob) else None
    queue = core.iq_int if struct == "iq_int" else core.iq_fp
    if not isinstance(queue, SegmentedIssueQueue):
        seg, idx = queue.entries, slot
    elif queue.halves == 1:
        seg, idx = queue.old, slot  # packs into half 0
    else:
        # old half, new half, then the compaction latch
        half = queue.size // 2
        if slot < half:
            seg, idx = queue.old, slot
        elif slot < 2 * half:
            seg, idx = queue.new, slot - half
        else:
            seg, idx = queue.buf, slot - 2 * half
    return seg[idx] if idx < len(seg) else None


def live_pregs(records: Iterable[tuple], n_pregs: int) -> Set[Tuple[int, int]]:
    """``(cls, preg)`` of every register the ``(preg, cls, srcs)`` of a
    live rename record names: no other register can reach a future read
    before reallocation overwrites it."""
    live = set()
    for preg, cls, srcs in records:
        if preg is not None:
            live.add((cls, preg))
        for c, p in srcs:
            if c >= 0 and 0 <= p < n_pregs:
                live.add((c, p))
    return live


def enumerate_sites(config: MachineConfig) -> List[Site]:
    """All injectable sites of a core, in a canonical deterministic order."""
    core = config.core
    sites: List[Site] = []
    for i in range(core.rob_size):
        sites.append(Site("rob", i, "done", CHIPKILL))
        sites.append(Site("rob", i, "dest", CHIPKILL))
    for struct, size in (
        ("iq_int", core.iq_int_size), ("iq_fp", core.iq_fp_size)
    ):
        half = size // 2
        n_slots = size + (config.compaction_buffer if config.rescue else 0)
        for i in range(n_slots):
            if i >= size:
                block = CHIPKILL  # the temporary compaction latch
            else:
                block = f"{struct}.{0 if i < half else 1}"
            sites.append(Site(struct, i, "ready", block))
            sites.append(Site(struct, i, "src", block))
    lhalf = core.lsq_size // 2
    for i in range(core.lsq_size):
        sites.append(Site("lsq", i, "addr", f"lsq.{0 if i < lhalf else 1}"))
    n_pregs = preg_count(core)
    phalf = n_pregs // 2
    for struct, dim in (("prf_int", "int_backend"), ("prf_fp", "fp_backend")):
        for i in range(n_pregs):
            sites.append(
                Site(struct, i, "data", f"{dim}.{0 if i < phalf else 1}")
            )
    for struct in ("rmap_int", "rmap_fp"):
        for i in range(32):
            sites.append(Site(struct, i, "tag", CHIPKILL))
    whalf = core.width // 2
    for way in range(core.width):
        sites.append(
            Site("fetch", way, "pc", f"frontend.{0 if way < whalf else 1}")
        )
    return sites


def site_inert(site: Site, config: MachineConfig) -> bool:
    """True when ``config`` can never place live state under this site.

    A mapped-out structure half is still physical silicon, but no
    occupant, allocation, or fetch ever reaches it: a degraded segmented
    queue packs into half 0 (slots at or past the half — including the
    compaction-latch slots — resolve to no occupant), a degraded backend
    allocates registers only from the low half of the file, a degraded
    LSQ never grows past its halved capacity, and ways at or past
    ``fetch_width`` never fetch.  A fault confined to such a site can
    never touch reachable state, which is what licenses the injection
    harness's reconvergence early-exit even for stuck-ats: the fault
    keeps re-applying, but only to dead silicon.

    ROB and rename-map sites are never inert (chipkill structures stay
    fully live in every configuration).
    """
    core = config.core
    struct = site.struct
    if struct == "fetch":
        return site.index >= config.fetch_width
    if struct in ("iq_int", "iq_fp"):
        halves = (
            config.counts.iq_int if struct == "iq_int"
            else config.counts.iq_fp
        )
        if halves == 2:
            return False
        half = (
            core.iq_int_size if struct == "iq_int" else core.iq_fp_size
        ) // 2
        return site.index >= half
    if struct == "lsq":
        return site.index >= config.lsq_size
    if struct in ("prf_int", "prf_fp"):
        groups = (
            config.counts.int_backend if struct == "prf_int"
            else config.counts.fp_backend
        )
        if groups == 2:
            return False
        return site.index >= preg_count(core) // 2
    return False


def mapped_out_blocks(counts: CoreCounts) -> Tuple[str, ...]:
    """ICI blocks the fault map has isolated (half 1 of degraded dims)."""
    out = []
    for dim in DIMENSIONS:
        if getattr(counts, dim) == 1:
            out.append(f"{dim}.1")
    return tuple(out)


def sites_in_blocks(
    sites: List[Site], blocks: Tuple[str, ...]
) -> List[Site]:
    """Subset of ``sites`` owned by the given blocks (order preserved)."""
    wanted = set(blocks)
    return [s for s in sites if s.block in wanted]
