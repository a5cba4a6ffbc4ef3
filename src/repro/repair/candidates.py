"""Netlist-level repair candidates for one ICI violation.

A :class:`~repro.core.netcheck.ConeViolation` names an observation flop
whose combinational fan-in cone mixes blocks.  Three candidate patch
shapes discharge it, cheapest-possible first:

- **relabel** — when the cone's non-exempt logic belongs to exactly one
  foreign block X, the flop is simply mislabeled: ICI assigns a flop to
  the block that *writes* it, so moving the flop into X costs zero area
  and changes no logic.
- **redrive** — duplicate every cone gate tainted by a foreign block
  into fresh gates owned by the observer's block and re-point the flop's
  D input at the duplicated driver.  The duplicated cone bottoms out at
  flop Q / primary-input nets (which carry no block), so the new cone is
  single-block by construction and exactly function-preserving; cost is
  the area of the duplicated gates.
- **latch** — stage the first foreign net feeding the cone through a new
  flop owned by the observer's block.  This is the component-graph
  ``cycle_split`` expressed in gates; it changes cycle-level timing, so
  the functional-equivalence oracle rejects it whenever the single-cycle
  contract matters (which is the campaign's default contract).  It is
  generated anyway: a sound oracle must be seen rejecting plausible
  candidates.

Every candidate application mutates a *copy* of the base netlist through
the :class:`~repro.netlist.netlist.Netlist` patch primitives and returns
a :class:`PatchInfo` for the oracle (new gates to fault-sample, area
charged by :func:`~repro.netlist.area.gate_area`).  Application is a
pure function of (netlist state, observer, kind), so workers and the
final plan composition produce identical patches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.core.netcheck import _default_block
from repro.netlist.area import FLOP_AREA, gate_area
from repro.netlist.netlist import Netlist

#: Candidate kinds in generation order (relabel first: cheapest).
CANDIDATE_KINDS = ("relabel", "redrive", "latch")


class NotApplicable(Exception):
    """The candidate shape cannot patch this violation."""


class AlreadySingleBlock(NotApplicable):
    """The observer's cone has no foreign block left: nothing to patch."""


@dataclass
class PatchInfo:
    """What one applied candidate did to the netlist."""

    kind: str
    observer: str
    extra_area: float = 0.0
    new_gates: Tuple[int, ...] = ()
    sample_gates: Tuple[int, ...] = ()  # fault sites for the isolation oracle
    note: str = ""

    def log_line(self) -> str:
        return (
            f"{self.kind} {self.observer} "
            f"(+{self.extra_area:.2f} area) {self.note}"
        )


def _find_flop(netlist: Netlist, observer: str):
    for f in netlist.flops:
        if f.name == observer:
            return f
    raise NotApplicable(f"observer {observer!r} is not a flop")


def _cone_gids(netlist: Netlist, net: int) -> List[int]:
    """Gate ids in the combinational fan-in cone of ``net``, topo order."""
    sources = set(netlist.source_nets())
    gids: Set[int] = set()
    stack = [net]
    seen: Set[int] = set()
    while stack:
        cur = stack.pop()
        if cur in seen or cur in sources:
            continue
        seen.add(cur)
        gid = netlist.driver_of(cur)
        if gid is None:
            continue
        gids.add(gid)
        stack.extend(netlist.gates[gid].inputs)
    return [gid for gid in netlist.topo_gate_order() if gid in gids]


def _cone_foreign_blocks(
    netlist: Netlist,
    cone: Sequence[int],
    own_block: str,
    exempt: Set[str],
    resolve: Callable[[str], str],
) -> Set[str]:
    """Non-exempt blocks other than the observer's with gates in the cone."""
    blocks: Set[str] = set()
    for gid in cone:
        b = resolve(netlist.gates[gid].component)
        if b and b not in exempt and b != own_block:
            blocks.add(b)
    return blocks


def apply_candidate(
    netlist: Netlist,
    kind: str,
    observer: str,
    exempt: Sequence[str] = (),
    block_of: Optional[Callable[[str], str]] = None,
) -> PatchInfo:
    """Apply one repair candidate in place; returns its :class:`PatchInfo`.

    Raises :class:`NotApplicable` when the candidate shape does not fit
    the violation (e.g. relabel on a multi-block cone, or any kind on a
    primary-output observer), and its :class:`AlreadySingleBlock`
    subclass when the cone no longer reads any foreign block.
    """
    resolve = block_of or _default_block
    ex = set(exempt)
    flop = _find_flop(netlist, observer)
    own = resolve(flop.component)
    cone = _cone_gids(netlist, flop.d_net)
    foreign = _cone_foreign_blocks(netlist, cone, own, ex, resolve)
    if not foreign:
        raise AlreadySingleBlock(f"{observer}: cone already single-block")
    if kind == "relabel":
        return _apply_relabel(netlist, flop, cone, own, foreign, ex, resolve)
    if kind == "redrive":
        return _apply_redrive(netlist, flop, cone, own, ex, resolve)
    if kind == "latch":
        return _apply_latch(netlist, flop, cone, own, ex, resolve)
    raise ValueError(f"unknown candidate kind {kind!r}")


def _repair_label(block: str, observer: str) -> str:
    return f"{block}/repair/{observer}"


def _apply_relabel(
    netlist, flop, cone, own, foreign, exempt, resolve
) -> PatchInfo:
    """Move the observer flop into the single block that writes it."""
    if len(foreign) != 1:
        raise NotApplicable(
            f"{flop.name}: cone spans {len(foreign)} foreign blocks"
        )
    target = next(iter(foreign))
    # The observer's own block must contribute no cone logic, otherwise
    # relabeling just flips which block becomes foreign.
    if any(
        resolve(netlist.gates[gid].component) == own for gid in cone
    ):
        raise NotApplicable(
            f"{flop.name}: own block {own} also drives the cone"
        )
    flop.component = _repair_label(target, flop.name)
    # The writer block's cone gates double as isolation fault sites.
    samples = tuple(
        gid for gid in cone
        if resolve(netlist.gates[gid].component) == target
    )
    return PatchInfo(
        kind="relabel",
        observer=flop.name,
        extra_area=0.0,
        sample_gates=samples,
        note=f"{own or '?'} -> {target}",
    )


def _apply_redrive(netlist, flop, cone, own, exempt, resolve) -> PatchInfo:
    """Duplicate the tainted cone into gates owned by the observer's block."""
    if not own:
        raise NotApplicable(f"{flop.name}: observer has no block")
    label = _repair_label(own, flop.name)
    dup_of = {}  # tainted net -> duplicated net
    new_gids: List[int] = []
    area = 0.0
    for gid in cone:
        g = netlist.gates[gid]
        b = resolve(g.component)
        is_foreign = bool(b) and b not in exempt and b != own
        if not is_foreign and not any(i in dup_of for i in g.inputs):
            continue
        inputs = [dup_of.get(i, i) for i in g.inputs]
        component = label if is_foreign else g.component
        out = netlist.add_gate(g.gtype, inputs, component=component)
        dup_of[g.output] = out
        new_gids.append(len(netlist.gates) - 1)
        area += gate_area(g.gtype, len(g.inputs))
    if flop.d_net not in dup_of:
        raise NotApplicable(f"{flop.name}: no tainted gate drives D")
    netlist.set_flop_d(flop.fid, dup_of[flop.d_net])
    return PatchInfo(
        kind="redrive",
        observer=flop.name,
        extra_area=area,
        new_gates=tuple(new_gids),
        sample_gates=tuple(new_gids),
        note=f"duplicated {len(new_gids)} cone gates into {own}",
    )


def _apply_latch(netlist, flop, cone, own, exempt, resolve) -> PatchInfo:
    """Stage the first foreign net feeding the cone through a new flop.

    Sound at the component level (it is ``cycle_split`` in gates) but it
    delays the staged value by one cycle, so the single-cycle functional
    equivalence screen is expected to reject it.
    """
    if not own:
        raise NotApplicable(f"{flop.name}: observer has no block")
    foreign_nets = sorted(
        netlist.gates[gid].output
        for gid in cone
        if (lambda b: b and b not in exempt and b != own)(
            resolve(netlist.gates[gid].component)
        )
    )
    if not foreign_nets:
        raise NotApplicable(f"{flop.name}: no foreign net to latch")
    net = foreign_nets[0]
    # The staging flop belongs to the *producer's* block (cycle_split
    # semantics): its cone is that block's logic, so it lints clean.
    producer = resolve(
        netlist.gates[netlist.driver_of(net)].component
    )
    stage = netlist.add_flop(
        net,
        name=f"{flop.name}.stage",
        component=_repair_label(producer, flop.name),
    )
    # Re-point every cone reader of the staged net (and the observer's D
    # input itself) at the staging flop's Q output.
    for gid in cone:
        g = netlist.gates[gid]
        if net in g.inputs:
            netlist.rewire_gate(
                gid,
                [stage.q_net if i == net else i for i in g.inputs],
            )
    if flop.d_net == net:
        netlist.set_flop_d(flop.fid, stage.q_net)
    return PatchInfo(
        kind="latch",
        observer=flop.name,
        extra_area=FLOP_AREA,
        note=f"staged net {net} through {stage.name}",
    )
