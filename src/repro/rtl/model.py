"""Gate-level baseline and Rescue pipeline models.

The model is a two-way out-of-order pipeline with every communication
pathway the paper reasons about.  The baseline wires the conventional
intra-cycle paths (shared rename write port, in-cycle inter-segment
compaction, a selection root reading both halves, shared LSQ insertion).
The Rescue variant applies the Section 4 transformations in gates.

Labeling convention: every gate/flop carries ``<block>/<sub>`` where
``<block>`` is the map-out block (``frontend0``, ``iq_old``, ``backend1``,
``lsq0``, ``chipkill``, …).  A flop's label names the component that
*writes* it, which is what the scan-bit isolation table consumes.

Functional notes (scaled-down semantics, structure over ISA fidelity):

- each instruction is ``opcode(3) | dest | src1 | src2`` over architectural
  registers; opcodes 0-3 are ALU (XOR), 4-5 memory (result is the address,
  op1+op2), the rest branch-ish (unused downstream);
- issue-queue entries wake on the first source tag only (the second source
  is carried for register read); this halves wakeup gates without removing
  any inter-component pathway;
- replay follows the paper: each half selects as if the other selected
  nothing; the routing controls privately re-derive the replay decision
  from the latched per-half counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.netlist.build import NetBuilder, Word
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist
from repro.rtl.params import RtlParams

_WAYS = 2


@dataclass
class RtlModel:
    """A built pipeline netlist plus its interface bookkeeping."""

    netlist: Netlist
    params: RtlParams
    rescue: bool
    # PIs by role, for tests and experiment drivers.
    instr_in: List[Word] = field(default_factory=list)
    valid_in: List[int] = field(default_factory=list)
    config_in: Dict[str, int] = field(default_factory=dict)

    def blocks(self) -> List[str]:
        """Map-out blocks present in the model."""
        return sorted({c.split("/", 1)[0] for c in self.netlist.components()})


def build_baseline_rtl(params: Optional[RtlParams] = None) -> RtlModel:
    """The conventional (ICI-violating) pipeline."""
    return _Builder(params or RtlParams(), rescue=False).build()


def build_rescue_rtl(params: Optional[RtlParams] = None) -> RtlModel:
    """The ICI-transformed Rescue pipeline."""
    return _Builder(params or RtlParams(), rescue=True).build()


class _Builder:
    def __init__(self, params: RtlParams, rescue: bool) -> None:
        self.p = params
        self.rescue = rescue
        name = "rescue_rtl" if rescue else "baseline_rtl"
        self.b = NetBuilder(name=name)
        self.model = RtlModel(netlist=self.b.nl, params=params, rescue=rescue)

    # ------------------------------------------------------------------
    def build(self) -> RtlModel:
        b, p = self.b, self.p
        self._inputs()
        self._fetch()
        self._decode()
        self._rename()
        self._issue()
        self._route_issue()
        self._regread_exec()
        self._lsq()
        self._commit()
        # Sweep dead logic (unused decoder outputs and the like), as a
        # synthesis flow would, so the fault universe stays realistic.
        b.nl.prune_unobservable()
        b.nl.validate()
        return self.model

    # ------------------------------------------------------------------
    def _inputs(self) -> None:
        b, p = self.b, self.p
        self.instr_in = [
            b.input_word(3 + 3 * p.areg_bits, f"instr{w}") for w in range(_WAYS)
        ]
        self.valid_in = [b.nl.add_input(f"valid{w}") for w in range(_WAYS)]
        self.model.instr_in = self.instr_in
        self.model.valid_in = self.valid_in
        if self.rescue:
            # Fault-map fuses are modeled as pins so the tester controls
            # the degraded configuration under test.
            for name in ("fe_ok0", "fe_ok1", "be_ok0", "be_ok1",
                         "iq_old_ok", "iq_new_ok", "lsq_ok0", "lsq_ok1"):
                self.model.config_in[name] = b.nl.add_input(name)

    def _cfg(self, name: str) -> int:
        return self.model.config_in[name]

    def _fields(self, instr: Word) -> Tuple[Word, Word, Word, Word]:
        """(opcode, dest, src1, src2) slices of an instruction word."""
        a = self.p.areg_bits
        return (
            instr[0:3],
            instr[3: 3 + a],
            instr[3 + a: 3 + 2 * a],
            instr[3 + 2 * a: 3 + 3 * a],
        )

    # ------------------------------------------------------------------
    def _fetch(self) -> None:
        b, p = self.b, self.p
        # PC select logic: no redundancy, chipkill (Section 4.2).
        with b.component("chipkill/fetch_pc"):
            pc_q, pc_d = b.state_word(p.xlen, "pc")
            self.pc_q = pc_q
            self.pc_d = pc_d
        # Fetch latch: i-cache (BIST-covered) output, captured for decode.
        with b.component("chipkill/fetch"):
            self.fetch_instr = [
                b.register(self.instr_in[w], f"f_instr{w}")
                for w in range(_WAYS)
            ]
            self.fetch_valid = [
                b.register_bit(self.valid_in[w], f"f_valid{w}")
                for w in range(_WAYS)
            ]
        if not self.rescue:
            self.routed_instr = self.fetch_instr
            self.routed_valid = self.fetch_valid
            return
        # Rescue: routing stage with one privatized mux control per way.
        routed_instr, routed_valid = [], []
        for w in range(_WAYS):
            with b.component(f"frontend{w}/route_fetch{w}"):
                if w == 0:
                    instr = self.fetch_instr[0]
                    valid = b.gate(
                        GateType.AND, self.fetch_valid[0], self._cfg("fe_ok0")
                    )
                else:
                    # Way 1 takes instruction 0 when way 0 is mapped out.
                    instr = b.mux_w(
                        self._cfg("fe_ok0"),
                        self.fetch_instr[0],
                        self.fetch_instr[1],
                    )
                    v = b.gate(
                        GateType.MUX2,
                        self.fetch_valid[0],
                        self.fetch_valid[1],
                        self._cfg("fe_ok0"),
                    )
                    valid = b.gate(GateType.AND, v, self._cfg("fe_ok1"))
                routed_instr.append(b.register(instr, f"r_instr{w}"))
                routed_valid.append(b.register_bit(valid, f"r_valid{w}"))
        self.routed_instr = routed_instr
        self.routed_valid = routed_valid

    # ------------------------------------------------------------------
    def _decode(self) -> None:
        b = self.b
        self.dec = []  # per way: dict of latched decode outputs
        for w in range(_WAYS):
            with b.component(f"frontend{w}/decode{w}"):
                opcode, dest, src1, src2 = self._fields(self.routed_instr[w])
                onehot = b.decoder(opcode)
                is_mem = b.gate(GateType.OR, onehot[4], onehot[5])
                is_xor = b.or_reduce(onehot[0:4])
                self.dec.append({
                    "dest": b.register(dest, f"d_dest{w}"),
                    "src1": b.register(src1, f"d_src1{w}"),
                    "src2": b.register(src2, f"d_src2{w}"),
                    "is_mem": b.register_bit(is_mem, f"d_ismem{w}"),
                    "is_xor": b.register_bit(is_xor, f"d_isxor{w}"),
                    "valid": b.register_bit(self.routed_valid[w], f"d_valid{w}"),
                })

    # ------------------------------------------------------------------
    def _rename(self) -> None:
        if self.rescue:
            self._rename_rescue()
        else:
            self._rename_baseline()

    def _rename_baseline(self) -> None:
        """Single shared table, read and written in the rename cycle."""
        b, p = self.b, self.p
        with b.component("rename_table/cells"):
            rows = [
                b.state_word(p.tag_bits, f"map{j}") for j in range(p.n_aregs)
            ]
        row_q = [q for q, _ in rows]
        # Free list: a shared tag counter; way 0 takes ctr, way 1 ctr+1.
        with b.component("rename_table/freelist"):
            fl_q, fl_d = b.state_word(p.tag_bits, "freectr")
            tag0 = fl_q
            tag1 = b.increment(fl_q)
            bump1 = b.mux_w(
                self.dec[0]["valid"], fl_q, b.increment(fl_q)
            )
            bump2 = b.mux_w(
                self.dec[1]["valid"], bump1, b.increment(bump1)
            )
            b.drive_word(fl_d, bump2)
        # Read ports: per-way mux trees over the shared cells.
        read = []
        for w in range(_WAYS):
            with b.component(f"rename_table/readport{w}"):
                read.append({
                    "src1": b.select_word(self.dec[w]["src1"], row_q),
                    "src2": b.select_word(self.dec[w]["src2"], row_q),
                })
        # Map fixing: way 1 overrides matches against way 0's destination.
        self.ren = []
        newtag = [tag0, tag1]
        for w in range(_WAYS):
            with b.component(f"frontend{w}/rename{w}"):
                s1, s2 = read[w]["src1"], read[w]["src2"]
                if w == 1:
                    hz1 = b.gate(
                        GateType.AND,
                        b.eq_w(self.dec[1]["src1"], self.dec[0]["dest"]),
                        self.dec[0]["valid"],
                    )
                    hz2 = b.gate(
                        GateType.AND,
                        b.eq_w(self.dec[1]["src2"], self.dec[0]["dest"]),
                        self.dec[0]["valid"],
                    )
                    s1 = b.mux_w(hz1, s1, newtag[0])
                    s2 = b.mux_w(hz2, s2, newtag[0])
                self.ren.append({
                    "src1": b.register(s1, f"rn_src1{w}"),
                    "src2": b.register(s2, f"rn_src2{w}"),
                    "dest": b.register(newtag[w], f"rn_dest{w}"),
                    "is_mem": b.register_bit(
                        self.dec[w]["is_mem"], f"rn_ismem{w}"
                    ),
                    "is_xor": b.register_bit(
                        self.dec[w]["is_xor"], f"rn_isxor{w}"
                    ),
                    "valid": b.register_bit(
                        self.dec[w]["valid"], f"rn_valid{w}"
                    ),
                })
        # Write port: reads the renamers' outputs *combinationally* — the
        # Section 4.4 ICI violation the Rescue variant removes.
        with b.component("rename_table/writeport"):
            dec_w = [b.decoder(self.dec[w]["dest"]) for w in range(_WAYS)]
            for j in range(p.n_aregs):
                q, d = rows[j]
                we0 = b.gate(GateType.AND, dec_w[0][j], self.dec[0]["valid"])
                we1 = b.gate(GateType.AND, dec_w[1][j], self.dec[1]["valid"])
                nxt = b.mux_w(we0, q, newtag[0])
                nxt = b.mux_w(we1, nxt, newtag[1])
                b.drive_word(d, nxt)

    def _rename_rescue(self) -> None:
        """Two half-ported copies; table read cycle-split from map fixing."""
        b, p = self.b, self.p
        self.read_latch = []
        copy_rows = []
        for h in range(_WAYS):
            with b.component(f"frontend{h}/rename_table{h}"):
                rows = [
                    b.state_word(p.tag_bits, f"map{h}_{j}")
                    for j in range(p.n_aregs)
                ]
                copy_rows.append(rows)
                row_q = [q for q, _ in rows]
                s1 = b.select_word(self.dec[h]["src1"], row_q)
                s2 = b.select_word(self.dec[h]["src2"], row_q)
            # Private free list per copy: tags are (counter, h) so the two
            # allocators never collide without communicating.
            with b.component(f"frontend{h}/freelist{h}"):
                fl_q, fl_d = b.state_word(p.tag_bits - 1, f"freectr{h}")
                newtag = list(fl_q) + [b.const(h)]
                b.drive_word(
                    fl_d, b.mux_w(self.dec[h]["valid"], fl_q, b.increment(fl_q))
                )
            # Everything map fixing needs next cycle is latched, including
            # the *other* way's hazard inputs (redundant computation).
            with b.component(f"frontend{h}/rename_table{h}"):
                self.read_latch.append({
                    "src1tag": b.register(s1, f"rd_s1_{h}"),
                    "src2tag": b.register(s2, f"rd_s2_{h}"),
                    "newtag": b.register(newtag, f"rd_new_{h}"),
                    "src1": b.register(self.dec[h]["src1"], f"rd_a1_{h}"),
                    "src2": b.register(self.dec[h]["src2"], f"rd_a2_{h}"),
                    "dest": b.register(self.dec[h]["dest"], f"rd_da_{h}"),
                    "is_mem": b.register_bit(
                        self.dec[h]["is_mem"], f"rd_m_{h}"
                    ),
                    "is_xor": b.register_bit(
                        self.dec[h]["is_xor"], f"rd_x_{h}"
                    ),
                    "valid": b.register_bit(
                        self.dec[h]["valid"], f"rd_v_{h}"
                    ),
                })
        # Map fixing (second rename cycle): reads only the read latches.
        self.ren = []
        for w in range(_WAYS):
            with b.component(f"frontend{w}/rename{w}"):
                rl = self.read_latch[w]
                s1, s2 = rl["src1tag"], rl["src2tag"]
                if w == 1:
                    rl0 = self.read_latch[0]
                    hz1 = b.gate(
                        GateType.AND,
                        b.eq_w(rl["src1"], rl0["dest"]),
                        rl0["valid"],
                    )
                    hz2 = b.gate(
                        GateType.AND,
                        b.eq_w(rl["src2"], rl0["dest"]),
                        rl0["valid"],
                    )
                    s1 = b.mux_w(hz1, s1, rl0["newtag"])
                    s2 = b.mux_w(hz2, s2, rl0["newtag"])
                self.ren.append({
                    "src1": b.register(s1, f"rn_src1{w}"),
                    "src2": b.register(s2, f"rn_src2{w}"),
                    "dest": b.register(rl["newtag"], f"rn_dest{w}"),
                    "dest_arch": b.register(rl["dest"], f"rn_desta{w}"),
                    "is_mem": b.register_bit(rl["is_mem"], f"rn_ismem{w}"),
                    "is_xor": b.register_bit(rl["is_xor"], f"rn_isxor{w}"),
                    "valid": b.register_bit(rl["valid"], f"rn_valid{w}"),
                })
        # Write ports: each copy updated from the *latched* rename outputs
        # of both ways, gated by the fault-map fuses (Section 4.4: write
        # ports selectively disabled so faulty ways cannot corrupt state).
        for h in range(_WAYS):
            with b.component(f"frontend{h}/rename_table{h}_wp"):
                dec_w = [
                    b.decoder(self.ren[w]["dest_arch"]) for w in range(_WAYS)
                ]
                for j in range(p.n_aregs):
                    q, d = copy_rows[h][j]
                    nxt = q
                    for w in range(_WAYS):
                        we = b.and_reduce([
                            dec_w[w][j],
                            self.ren[w]["valid"],
                            self._cfg(f"fe_ok{w}"),
                        ])
                        nxt = b.mux_w(we, nxt, self.ren[w]["dest"])
                    b.drive_word(d, nxt)

    # ------------------------------------------------------------------
    def _issue(self) -> None:
        b, p = self.b, self.p
        n = p.iq_half
        tb = p.tag_bits
        halves = ("iq_old", "iq_new")
        # Entry state: valid, ready, issued, src tags, dest tag, is_mem,
        # is_xor.  Placeholders first; next-state logic drives them below.
        self.iq = {}
        for h, label in enumerate(halves):
            with b.component(f"{label}/entries"):
                self.iq[label] = [
                    {
                        "valid": b.state_word(1, f"{label}_v{e}"),
                        "ready": b.state_word(1, f"{label}_r{e}"),
                        "issued": b.state_word(1, f"{label}_i{e}"),
                        "src1": b.state_word(tb, f"{label}_s1_{e}"),
                        "src2": b.state_word(tb, f"{label}_s2_{e}"),
                        "dest": b.state_word(tb, f"{label}_d{e}"),
                        "is_mem": b.state_word(1, f"{label}_m{e}"),
                        "is_xor": b.state_word(1, f"{label}_x{e}"),
                    }
                    for e in range(n)
                ]
        if self.rescue:
            self._issue_rescue(halves)
        else:
            self._issue_baseline(halves)

    # -- shared helpers --
    def _wakeup(self, label: str, bcast: List[Tuple[Word, int]]) -> List[int]:
        """Per-entry post-wakeup ready signals for one half."""
        b = self.b
        ready_now = []
        with b.component(f"{label}/wakeup"):
            for ent in self.iq[label]:
                matches = [
                    b.gate(
                        GateType.AND, b.eq_w(ent["src1"][0], tag), valid
                    )
                    for tag, valid in bcast
                ]
                ready_now.append(
                    b.gate(GateType.OR, ent["ready"][0][0], b.or_reduce(matches))
                )
        return ready_now

    def _select(self, label: str, ready_now: List[int], count: int):
        """Select up to ``count`` ready entries; returns slot signals."""
        b = self.b
        with b.component(f"{label}/select"):
            reqs = [
                b.and_reduce([
                    ent["valid"][0][0],
                    rdy,
                    b.gate(GateType.NOT, ent["issued"][0][0]),
                ])
                for ent, rdy in zip(self.iq[label], ready_now)
            ]
            grants = b.priority_select(reqs, count)
            slots = []
            for g in grants:
                slot = {
                    "valid": b.or_reduce(g),
                    "dest": b.mux_many(g, [e["dest"][0] for e in self.iq[label]]),
                    "src1": b.mux_many(g, [e["src1"][0] for e in self.iq[label]]),
                    "src2": b.mux_many(g, [e["src2"][0] for e in self.iq[label]]),
                    "is_mem": b.mux_many(
                        g, [e["is_mem"][0] for e in self.iq[label]]
                    )[0],
                    "is_xor": b.mux_many(
                        g, [e["is_xor"][0] for e in self.iq[label]]
                    )[0],
                }
                slots.append(slot)
            granted = [
                b.or_reduce([grants[k][e] for k in range(count)])
                for e in range(len(self.iq[label]))
            ]
            cnt = b.popcount([s["valid"] for s in slots], 2)
        return slots, granted, cnt

    def _entry_next_state(
        self,
        label: str,
        ready_now: List[int],
        granted: List[int],
        replay: int,
        inserts,
        clear_on_move: Optional[List[int]] = None,
    ) -> None:
        """Drive the entry placeholders for one half.

        ``inserts`` is a list of (enable, fields) writes; ``clear_on_move``
        marks entries drained by compaction.
        """
        b = self.b
        with b.component(f"{label}/entries"):
            for e, ent in enumerate(self.iq[label]):
                issued_q = ent["issued"][0][0]
                # An entry leaves once its issue survives the replay window
                # (the paper's "hold entries an extra cycle").
                leaving = b.gate(
                    GateType.AND, issued_q, b.gate(GateType.NOT, replay)
                )
                stay_valid = b.gate(
                    GateType.AND, ent["valid"][0][0],
                    b.gate(GateType.NOT, leaving),
                )
                if clear_on_move is not None:
                    stay_valid = b.gate(
                        GateType.AND, stay_valid,
                        b.gate(GateType.NOT, clear_on_move[e]),
                    )
                valid_nxt = [stay_valid]
                ready_nxt = [b.gate(GateType.AND, ready_now[e], stay_valid)]
                issued_nxt = [
                    b.gate(GateType.AND, granted[e], ent["valid"][0][0])
                ]
                s1 = ent["src1"][0]
                s2 = ent["src2"][0]
                d = ent["dest"][0]
                m = [ent["is_mem"][0][0]]
                x = [ent["is_xor"][0][0]]
                for enable, fields in inserts[e]:
                    valid_nxt = b.mux_w(enable, valid_nxt, [fields["valid"]])
                    ready_nxt = b.mux_w(enable, ready_nxt, [fields["ready"]])
                    issued_nxt = b.mux_w(enable, issued_nxt, [b.const(0)])
                    s1 = b.mux_w(enable, s1, fields["src1"])
                    s2 = b.mux_w(enable, s2, fields["src2"])
                    d = b.mux_w(enable, d, fields["dest"])
                    m = b.mux_w(enable, m, [fields["is_mem"]])
                    x = b.mux_w(enable, x, [fields["is_xor"]])
                b.drive_word(ent["valid"][1], valid_nxt)
                b.drive_word(ent["ready"][1], ready_nxt)
                b.drive_word(ent["issued"][1], issued_nxt)
                b.drive_word(ent["src1"][1], s1)
                b.drive_word(ent["src2"][1], s2)
                b.drive_word(ent["dest"][1], d)
                b.drive_word(ent["is_mem"][1], m)
                b.drive_word(ent["is_xor"][1], x)

    def _in_flight(self, src_tag: Word) -> int:
        """1 when a valid, un-issued queue entry will later produce
        ``src_tag`` (dispatch-time readiness check)."""
        b = self.b
        hits = []
        for half in self.iq.values():
            for ent in half:
                pending = b.gate(
                    GateType.AND,
                    ent["valid"][0][0],
                    b.gate(GateType.NOT, ent["issued"][0][0]),
                )
                hits.append(
                    b.gate(
                        GateType.AND,
                        b.eq_w(ent["dest"][0], src_tag),
                        pending,
                    )
                )
        return b.or_reduce(hits)

    def _dispatch_inserts(self, label: str):
        """(enable, fields) insert plan for renamed instructions into a
        half's free entries, plus per-way acceptance signals."""
        b = self.b
        n = len(self.iq[label])
        with b.component(f"{label}/insert"):
            free = [
                b.gate(GateType.NOT, ent["valid"][0][0])
                for ent in self.iq[label]
            ]
            alloc = b.priority_select(free, _WAYS)
            inserts = [[] for _ in range(n)]
            for w in range(_WAYS):
                fields = {
                    "valid": self.ren[w]["valid"],
                    # Ready at dispatch unless the producer is still in
                    # flight: a CAM over the queue's latched dest tags.
                    # Reading the other half's entry *flops* is inter-cycle
                    # communication and keeps ICI intact.
                    "ready": b.gate(
                        GateType.NOT,
                        self._in_flight(self.ren[w]["src1"]),
                    ),
                    "src1": self.ren[w]["src1"],
                    "src2": self.ren[w]["src2"],
                    "dest": self.ren[w]["dest"],
                    "is_mem": self.ren[w]["is_mem"],
                    "is_xor": self.ren[w]["is_xor"],
                }
                for e in range(n):
                    en = b.gate(
                        GateType.AND, alloc[w][e], self.ren[w]["valid"]
                    )
                    inserts[e].append((en, fields))
        return inserts

    # -- rescue issue --
    def _issue_rescue(self, halves) -> None:
        b, p = self.b, self.p
        # Broadcast/replay logic: one privatized copy per half (Figure 6).
        # Each copy reads only latched state (previous-cycle selections).
        # The select latches are created with placeholder Ds first so the
        # bcast copies can read last cycle's selections (flop Qs); this
        # cycle's selection logic drives the Ds at the end.
        self.sel_latch = {}
        for label in halves:
            with b.component(f"{label}/select"):
                self.sel_latch[label] = {
                    "count": b.state_word(2, f"{label}_selcnt"),
                    "slots": [
                        {
                            "valid": b.state_word(1, f"{label}_sv{k}"),
                            "dest": b.state_word(p.tag_bits, f"{label}_sd{k}"),
                            "src1": b.state_word(p.tag_bits, f"{label}_ss1{k}"),
                            "src2": b.state_word(p.tag_bits, f"{label}_ss2{k}"),
                            "is_mem": b.state_word(1, f"{label}_sm{k}"),
                            "is_xor": b.state_word(1, f"{label}_sx{k}"),
                        }
                        for k in range(_WAYS)
                    ],
                }
        self.replay_sig = {}
        self.bcast_sig = {}
        for h, label in enumerate(halves):
            with b.component(f"{label}/bcast{h}"):
                old_l = self.sel_latch["iq_old"]
                new_l = self.sel_latch["iq_new"]
                cnt_old = old_l["count"][0]
                cnt_new = new_l["count"][0]
                total = b.adder(
                    list(cnt_old) + [b.const(0)],
                    list(cnt_new) + [b.const(0)],
                )
                width_w = b.const_word(p.issue_width, 3)
                replay = b.gt(total, width_w)
                # Replay the half that selected fewer (ties replay new).
                old_fewer = b.gt(cnt_new, cnt_old)
                replay_old = b.gate(GateType.AND, replay, old_fewer)
                replay_new = b.gate(
                    GateType.AND, replay, b.gate(GateType.NOT, old_fewer)
                )
                # Broadcast the surviving selections' dest tags.
                bcast = []
                for src_label, rep in (
                    ("iq_old", replay_old), ("iq_new", replay_new)
                ):
                    for k in range(_WAYS):
                        slot = self.sel_latch[src_label]["slots"][k]
                        v = b.gate(
                            GateType.AND,
                            slot["valid"][0][0],
                            b.gate(GateType.NOT, rep),
                        )
                        bcast.append((slot["dest"][0], v))
                self.replay_sig[label] = (
                    replay_old if label == "iq_old" else replay_new
                )
                self.bcast_sig[label] = bcast

        # Compaction request: the old half latches "I have room".
        with b.component("iq_old/compact"):
            free_old = [
                b.gate(GateType.NOT, ent["valid"][0][0])
                for ent in self.iq["iq_old"]
            ]
            request_q = b.register_bit(b.or_reduce(free_old), "iq_request")

        # Temporary latch: the new half moves its oldest entries out when
        # the old half requested; written entirely by iq_new logic.
        tmp = []
        with b.component("iq_new/compact"):
            movable = [
                ent["valid"][0][0] for ent in self.iq["iq_new"]
            ]
            moves = b.priority_select(movable, _WAYS)
            clear_new = [
                b.gate(
                    GateType.AND,
                    b.or_reduce([moves[k][e] for k in range(_WAYS)]),
                    request_q,
                )
                for e in range(p.iq_half)
            ]
            for k in range(_WAYS):
                mv = moves[k]
                valid = b.gate(GateType.AND, b.or_reduce(mv), request_q)
                ents = self.iq["iq_new"]
                tmp.append({
                    "valid": b.register_bit(valid, f"tmp_v{k}"),
                    "ready": b.register_bit(
                        b.mux_many(mv, [[e["ready"][0][0]] for e in ents])[0],
                        f"tmp_r{k}",
                    ),
                    "src1": b.register(
                        b.mux_many(mv, [e["src1"][0] for e in ents]),
                        f"tmp_s1{k}",
                    ),
                    "src2": b.register(
                        b.mux_many(mv, [e["src2"][0] for e in ents]),
                        f"tmp_s2{k}",
                    ),
                    "dest": b.register(
                        b.mux_many(mv, [e["dest"][0] for e in ents]),
                        f"tmp_d{k}",
                    ),
                    "is_mem": b.register_bit(
                        b.mux_many(mv, [[e["is_mem"][0][0]] for e in ents])[0],
                        f"tmp_m{k}",
                    ),
                    "is_xor": b.register_bit(
                        b.mux_many(mv, [[e["is_xor"][0][0]] for e in ents])[0],
                        f"tmp_x{k}",
                    ),
                })

        # Old half: wakeup (its bcast copy), select, and insertion from the
        # temporary latch.  Temp entries see broadcasts while in the latch
        # (the paper's temp-latch wakeup, lumped with the old half).
        ready_old = self._wakeup("iq_old", self.bcast_sig["iq_old"])
        slots_old, granted_old, cnt_old_sig = self._select(
            "iq_old", ready_old, _WAYS
        )
        with b.component("iq_old/tempwake"):
            tmp_fields = []
            for k in range(_WAYS):
                matches = [
                    b.gate(
                        GateType.AND,
                        b.eq_w(tmp[k]["src1"], tag),
                        v,
                    )
                    for tag, v in self.bcast_sig["iq_old"]
                ]
                rdy = b.gate(
                    GateType.OR, tmp[k]["ready"], b.or_reduce(matches)
                )
                tmp_fields.append({
                    "valid": tmp[k]["valid"],
                    "ready": rdy,
                    "src1": tmp[k]["src1"],
                    "src2": tmp[k]["src2"],
                    "dest": tmp[k]["dest"],
                    "is_mem": tmp[k]["is_mem"],
                    "is_xor": tmp[k]["is_xor"],
                })
        with b.component("iq_old/insert"):
            free = [
                b.gate(GateType.NOT, ent["valid"][0][0])
                for ent in self.iq["iq_old"]
            ]
            alloc = b.priority_select(free, _WAYS)
            inserts_old = [[] for _ in range(p.iq_half)]
            for k in range(_WAYS):
                for e in range(p.iq_half):
                    en = b.gate(
                        GateType.AND, alloc[k][e], tmp_fields[k]["valid"]
                    )
                    inserts_old[e].append((en, tmp_fields[k]))
        self._entry_next_state(
            "iq_old", ready_old, granted_old, self.replay_sig["iq_old"],
            inserts_old,
        )

        # New half: wakeup, select, insertion of renamed instructions,
        # drained entries cleared when moved to the temp latch.
        ready_new = self._wakeup("iq_new", self.bcast_sig["iq_new"])
        slots_new, granted_new, cnt_new_sig = self._select(
            "iq_new", ready_new, _WAYS
        )
        inserts_new = self._dispatch_inserts("iq_new")
        self._entry_next_state(
            "iq_new", ready_new, granted_new, self.replay_sig["iq_new"],
            inserts_new, clear_on_move=clear_new,
        )

        # Drive the select latches created up front.
        for label, slots, cnt in (
            ("iq_old", slots_old, cnt_old_sig),
            ("iq_new", slots_new, cnt_new_sig),
        ):
            with b.component(f"{label}/select"):
                lat = self.sel_latch[label]
                b.drive_word(lat["count"][1], cnt)
                for k in range(_WAYS):
                    s, d = slots[k], lat["slots"][k]
                    b.drive_word(d["valid"][1], [s["valid"]])
                    b.drive_word(d["dest"][1], s["dest"])
                    b.drive_word(d["src1"][1], s["src1"])
                    b.drive_word(d["src2"][1], s["src2"])
                    b.drive_word(d["is_mem"][1], [s["is_mem"]])
                    b.drive_word(d["is_xor"][1], [s["is_xor"]])

    # -- baseline issue --
    def _issue_baseline(self, halves) -> None:
        b, p = self.b, self.p
        # Root-selected instructions latch at cycle end and broadcast next
        # cycle: the broadcast latch is written by the root.
        with b.component("iq_root"):
            self.bcast_latch = [
                {
                    "valid": b.state_word(1, f"bc_v{k}"),
                    "dest": b.state_word(p.tag_bits, f"bc_d{k}"),
                    "src1": b.state_word(p.tag_bits, f"bc_s1{k}"),
                    "src2": b.state_word(p.tag_bits, f"bc_s2{k}"),
                    "is_mem": b.state_word(1, f"bc_m{k}"),
                    "is_xor": b.state_word(1, f"bc_x{k}"),
                }
                for k in range(_WAYS)
            ]
        bcast = [
            (lat["dest"][0], lat["valid"][0][0]) for lat in self.bcast_latch
        ]
        # Compaction: the old half's free count feeds the new half's move
        # logic in the same cycle (violations 1 and 2 of Section 4.1.1).
        with b.component("iq_old/compact"):
            free_old = [
                b.gate(GateType.NOT, ent["valid"][0][0])
                for ent in self.iq["iq_old"]
            ]
            request_now = b.or_reduce(free_old)
        with b.component("iq_new/compact"):
            movable = [ent["valid"][0][0] for ent in self.iq["iq_new"]]
            moves = b.priority_select(movable, _WAYS)
            clear_new = [
                b.gate(
                    GateType.AND,
                    b.or_reduce([moves[k][e] for k in range(_WAYS)]),
                    request_now,
                )
                for e in range(p.iq_half)
            ]
            moved_fields = []
            ents = self.iq["iq_new"]
            for k in range(_WAYS):
                mv = moves[k]
                moved_fields.append({
                    "valid": b.gate(
                        GateType.AND, b.or_reduce(mv), request_now
                    ),
                    "ready": b.mux_many(
                        mv, [[e["ready"][0][0]] for e in ents]
                    )[0],
                    "src1": b.mux_many(mv, [e["src1"][0] for e in ents]),
                    "src2": b.mux_many(mv, [e["src2"][0] for e in ents]),
                    "dest": b.mux_many(mv, [e["dest"][0] for e in ents]),
                    "is_mem": b.mux_many(
                        mv, [[e["is_mem"][0][0]] for e in ents]
                    )[0],
                    "is_xor": b.mux_many(
                        mv, [[e["is_xor"][0][0]] for e in ents]
                    )[0],
                })
        # Wakeup and per-half sub-selection.
        ready_old = self._wakeup("iq_old", bcast)
        ready_new = self._wakeup("iq_new", bcast)
        slots_old, granted_old, _ = self._select("iq_old", ready_old, _WAYS)
        slots_new, granted_new, _ = self._select("iq_new", ready_new, _WAYS)
        # Root: merges both halves within the cycle (violation 3) — old
        # half has priority; overall issue is capped at machine width.
        with b.component("iq_root"):
            merged = []
            for k in range(_WAYS):
                take_old = slots_old[k]["valid"]
                slot = {
                    key: (
                        b.mux_w(take_old, slots_new[k][key], slots_old[k][key])
                        if isinstance(slots_old[k][key], list)
                        else b.gate(
                            GateType.MUX2,
                            slots_new[k][key],
                            slots_old[k][key],
                            take_old,
                        )
                    )
                    for key in ("valid", "dest", "src1", "src2", "is_mem",
                                "is_xor")
                }
                merged.append(slot)
            for k, lat in enumerate(self.bcast_latch):
                b.drive_word(lat["valid"][1], [merged[k]["valid"]])
                b.drive_word(lat["dest"][1], merged[k]["dest"])
                b.drive_word(lat["src1"][1], merged[k]["src1"])
                b.drive_word(lat["src2"][1], merged[k]["src2"])
                b.drive_word(lat["is_mem"][1], [merged[k]["is_mem"]])
                b.drive_word(lat["is_xor"][1], [merged[k]["is_xor"]])
        # Entry updates: inserts into the new half from rename, moves into
        # the old half happen in the same cycle (baseline compaction).
        no_replay = b.const(0)
        with b.component("iq_old/insert"):
            alloc = b.priority_select(free_old, _WAYS)
            inserts_old = [[] for _ in range(p.iq_half)]
            for k in range(_WAYS):
                for e in range(p.iq_half):
                    en = b.gate(
                        GateType.AND, alloc[k][e], moved_fields[k]["valid"]
                    )
                    inserts_old[e].append((en, moved_fields[k]))
        self._entry_next_state(
            "iq_old", ready_old, granted_old, no_replay, inserts_old
        )
        inserts_new = self._dispatch_inserts("iq_new")
        self._entry_next_state(
            "iq_new", ready_new, granted_new, no_replay, inserts_new,
            clear_on_move=clear_new,
        )
        # Baseline "selection latch" consumed by the backend is the
        # broadcast latch itself.
        self.issue_out = [
            {
                "valid": lat["valid"][0][0],
                "dest": lat["dest"][0],
                "src1": lat["src1"][0],
                "src2": lat["src2"][0],
                "is_mem": lat["is_mem"][0][0],
                "is_xor": lat["is_xor"][0][0],
            }
            for lat in self.bcast_latch
        ]

    # ------------------------------------------------------------------
    def _route_issue(self) -> None:
        b, p = self.b, self.p
        self.exec_in = []
        if not self.rescue:
            # Baseline: issued slot k flows straight to backend way k.
            for w in range(_WAYS):
                with b.component(f"backend{w}/exec{w}"):
                    src = self.issue_out[w]
                    self.exec_in.append({
                        "valid": b.register_bit(src["valid"], f"ex_v{w}"),
                        "dest": b.register(src["dest"], f"ex_d{w}"),
                        "src1": b.register(src["src1"], f"ex_s1{w}"),
                        "src2": b.register(src["src2"], f"ex_s2{w}"),
                        "is_mem": b.register_bit(src["is_mem"], f"ex_m{w}"),
                        "is_xor": b.register_bit(src["is_xor"], f"ex_x{w}"),
                    })
            return
        # Rescue: one routing cycle after issue; each way's mux control
        # privately re-derives the replay outcome from the latched counts.
        for w in range(_WAYS):
            with b.component(f"backend{w}/route_issue{w}"):
                old_l, new_l = self.sel_latch["iq_old"], self.sel_latch["iq_new"]
                cnt_old, cnt_new = old_l["count"][0], new_l["count"][0]
                total = b.adder(
                    list(cnt_old) + [b.const(0)],
                    list(cnt_new) + [b.const(0)],
                )
                replay = b.gt(total, b.const_word(p.issue_width, 3))
                old_fewer = b.gt(cnt_new, cnt_old)
                use_new_only = b.gate(GateType.AND, replay, old_fewer)
                use_old_only = b.gate(
                    GateType.AND, replay, b.gate(GateType.NOT, old_fewer)
                )
                # Slot for this way: without replay, old slots fill first;
                # with replay, the surviving half's slots route in order.
                old_slot = old_l["slots"][w]
                new_slot = new_l["slots"][w]
                old_valid = old_slot["valid"][0][0]

                # Merged slot w: old slot w if valid, else new slot
                # (structural simplification of the in-order merge); a
                # replay forces the surviving half's slot.
                def pick(key: str, scalar: bool) -> object:
                    o = old_slot[key][0]
                    nw = new_slot[key][0]
                    if scalar:
                        o, nw = o[0], nw[0]
                        merged = b.gate(GateType.MUX2, nw, o, old_valid)
                        after_new = b.gate(
                            GateType.MUX2, merged, nw, use_new_only
                        )
                        return b.gate(
                            GateType.MUX2, after_new, o, use_old_only
                        )
                    merged = b.mux_w(old_valid, nw, o)
                    after_new = b.mux_w(use_new_only, merged, nw)
                    return b.mux_w(use_old_only, after_new, o)

                valid = pick("valid", True)
                valid = b.gate(GateType.AND, valid, self._cfg(f"be_ok{w}"))
                self.exec_in.append({
                    "valid": b.register_bit(valid, f"ex_v{w}"),
                    "dest": b.register(pick("dest", False), f"ex_d{w}"),
                    "src1": b.register(pick("src1", False), f"ex_s1{w}"),
                    "src2": b.register(pick("src2", False), f"ex_s2{w}"),
                    "is_mem": b.register_bit(pick("is_mem", True), f"ex_m{w}"),
                    "is_xor": b.register_bit(pick("is_xor", True), f"ex_x{w}"),
                })

    # ------------------------------------------------------------------
    def _regread_exec(self) -> None:
        b, p = self.b, self.p
        # Register file: one copy per backend way in Rescue (21264-style),
        # one shared block in the baseline.
        self.rf_rows: List[List[Tuple[Word, Word]]] = []
        copies = _WAYS if self.rescue else 1
        for c in range(copies):
            label = (
                f"backend{c}/regfile{c}" if self.rescue else "regfile/cells"
            )
            with b.component(label):
                self.rf_rows.append([
                    b.state_word(p.xlen, f"rf{c}_{r}")
                    for r in range(p.n_regs)
                ])
        # Read ports + operand latches.
        self.rr = []
        for w in range(_WAYS):
            rows = self.rf_rows[w if self.rescue else 0]
            label = (
                f"backend{w}/regfile{w}" if self.rescue
                else f"regfile/readport{w}"
            )
            with b.component(label):
                row_q = [q for q, _ in rows]
                idx1 = self.exec_in[w]["src1"][: p.reg_bits]
                idx2 = self.exec_in[w]["src2"][: p.reg_bits]
                op1 = b.select_word(idx1, row_q)
                op2 = b.select_word(idx2, row_q)
                self.rr.append({
                    "op1": b.register(op1, f"rr_op1_{w}"),
                    "op2": b.register(op2, f"rr_op2_{w}"),
                    "valid": b.register_bit(
                        self.exec_in[w]["valid"], f"rr_v{w}"
                    ),
                    "dest": b.register(self.exec_in[w]["dest"], f"rr_d{w}"),
                    "src1": b.register(self.exec_in[w]["src1"], f"rr_s1{w}"),
                    "src2": b.register(self.exec_in[w]["src2"], f"rr_s2{w}"),
                    "is_mem": b.register_bit(
                        self.exec_in[w]["is_mem"], f"rr_m{w}"
                    ),
                    "is_xor": b.register_bit(
                        self.exec_in[w]["is_xor"], f"rr_x{w}"
                    ),
                })
        # Execute: forwarding from last-cycle results, then ALU.  Result
        # latches are created first so forwarding can read their Qs.
        res_state = []
        for w in range(_WAYS):
            with b.component(f"backend{w}/exec{w}"):
                res_state.append({
                    "value": b.state_word(p.xlen, f"res_val{w}"),
                    "dest": b.state_word(p.tag_bits, f"res_d{w}"),
                    "valid": b.state_word(1, f"res_v{w}"),
                    "is_mem": b.state_word(1, f"res_m{w}"),
                })
        for w in range(_WAYS):
            with b.component(f"backend{w}/exec{w}"):
                ops = []
                for which in ("src1", "src2"):
                    val = self.rr[w][f"op{1 if which == 'src1' else 2}"]
                    for other in range(_WAYS):
                        match = b.and_reduce([
                            b.eq_w(self.rr[w][which], res_state[other]["dest"][0]),
                            res_state[other]["valid"][0][0],
                        ] + (
                            [self._cfg(f"be_ok{other}")] if self.rescue else []
                        ))
                        val = b.mux_w(match, val, res_state[other]["value"][0])
                    ops.append(val)
                total = b.adder(ops[0], ops[1])
                xored = b.xor_w(ops[0], ops[1])
                result = b.mux_w(self.rr[w]["is_xor"], total, xored)
                b.drive_word(res_state[w]["value"][1], result)
                b.drive_word(res_state[w]["dest"][1], self.rr[w]["dest"])
                b.drive_word(res_state[w]["valid"][1], [self.rr[w]["valid"]])
                b.drive_word(res_state[w]["is_mem"][1], [self.rr[w]["is_mem"]])
        self.res = res_state
        # Branch redirect path back to the PC (written by exec way 0).
        with b.component("backend0/exec0"):
            taken = b.register_bit(
                b.and_reduce(res_state[0]["value"][0]), "br_taken"
            )
            target = b.register(res_state[0]["value"][0], "br_target")
        with b.component("chipkill/fetch_pc"):
            next_pc = b.mux_w(taken, b.increment(self.pc_q), target)
            b.drive_word(self.pc_d, next_pc)
        # Writeback: write ports per way; Rescue gates them with fuses.
        for c, rows in enumerate(self.rf_rows):
            label = (
                f"backend{c}/regfile{c}_wp" if self.rescue
                else "regfile/writeport"
            )
            with b.component(label):
                for r in range(p.n_regs):
                    q, d = rows[r]
                    nxt = q
                    for w in range(_WAYS):
                        sel = b.decoder(
                            self.res[w]["dest"][0][: p.reg_bits]
                        )[r]
                        we_terms = [sel, self.res[w]["valid"][0][0]]
                        if self.rescue:
                            we_terms.append(self._cfg(f"be_ok{w}"))
                        we = b.and_reduce(we_terms)
                        nxt = b.mux_w(we, nxt, self.res[w]["value"][0])
                    b.drive_word(d, nxt)

    # ------------------------------------------------------------------
    def _lsq(self) -> None:
        b, p = self.b, self.p
        n = p.lsq_half
        # Entry cells per half.
        cells = []
        for h in range(2):
            with b.component(f"lsq{h}/entries"):
                cells.append([
                    {
                        "valid": b.state_word(1, f"lsq{h}_v{e}"),
                        "addr": b.state_word(p.addr_bits, f"lsq{h}_a{e}"),
                    }
                    for e in range(n)
                ])
        # Insertion: memory results enter at the tail.  Rescue keeps a
        # private tail copy per half; the baseline shares one tail whose
        # decode feeds both halves in-cycle (the Section 4.7 violation).
        total = 2 * n
        mem_v = [
            b.gate(
                GateType.AND,
                self.res[w]["valid"][0][0],
                self.res[w]["is_mem"][0][0],

            )
            for w in range(_WAYS)
        ]
        mem_addr = [
            self.res[w]["value"][0][: p.addr_bits] for w in range(_WAYS)
        ]
        tail_bits = max(1, (total - 1).bit_length())

        def insertion_plan(tail_q: Word, label: str):
            """(enable, addr) per global slot for both inserting ways."""
            with b.component(label):
                tail1 = b.increment(tail_q)
                plans = [[] for _ in range(total)]
                for w, base in ((0, tail_q), (1, tail1)):
                    onehot = b.decoder(base)[:total]
                    for s in range(total):
                        en = b.gate(GateType.AND, onehot[s], mem_v[w])
                        plans[s].append((en, mem_addr[w]))
                bump1 = b.mux_w(mem_v[0], tail_q, tail1)
                nxt = b.mux_w(mem_v[1], bump1, b.increment(bump1))
            return plans, nxt

        if self.rescue:
            plans = None
            for h in range(2):
                with b.component(f"lsq{h}/insert{h}"):
                    tail_q, tail_d = b.state_word(tail_bits, f"lsq_tail{h}")
                hplans, nxt = insertion_plan(tail_q, f"lsq{h}/insert{h}")
                with b.component(f"lsq{h}/insert{h}"):
                    b.drive_word(tail_d, nxt)
                    self._drive_lsq_half(cells[h], hplans[h * n:(h + 1) * n],
                                         h)
        else:
            with b.component("lsq_insert"):
                tail_q, tail_d = b.state_word(tail_bits, "lsq_tail")
            plans, nxt = insertion_plan(tail_q, "lsq_insert")
            with b.component("lsq_insert"):
                b.drive_word(tail_d, nxt)
            for h in range(2):
                with b.component("lsq_insert"):
                    self._drive_lsq_half(cells[h], plans[h * n:(h + 1) * n], h)

        # Search: two trees (one per backend way), each with a sub-tree per
        # half; sub-results latch before the root combines them.
        self.lsq_hit = []
        for t in range(_WAYS):
            sub_latched = []
            for h in range(2):
                with b.component(f"lsq{h}/subtree{t}{h}"):
                    matches = [
                        b.gate(
                            GateType.AND,
                            b.eq_w(mem_addr[t], cells[h][e]["addr"][0]),
                            cells[h][e]["valid"][0][0],
                        )
                        for e in range(n)
                    ]
                    sub = b.or_reduce(matches)
                    sub_latched.append(
                        b.register_bit(sub, f"lsq_sub{t}{h}")
                    )
            with b.component(f"backend{t}/lsqroot{t}"):
                terms = []
                for h in range(2):
                    term = sub_latched[h]
                    if self.rescue:
                        term = b.gate(
                            GateType.AND, term, self._cfg(f"lsq_ok{h}")
                        )
                    terms.append(term)
                hit = b.or_reduce(terms)
                self.lsq_hit.append(b.register_bit(hit, f"lsq_hit{t}"))

    def _drive_lsq_half(self, half_cells, plans, h: int) -> None:
        b = self.b
        for e, cell in enumerate(half_cells):
            q_v, d_v = cell["valid"]
            q_a, d_a = cell["addr"]
            valid = q_v
            addr = q_a
            for en, new_addr in plans[e]:
                valid = b.mux_w(en, valid, [b.const(1)])
                addr = b.mux_w(en, addr, new_addr)
            b.drive_word(d_v, valid)
            b.drive_word(d_a, addr)

    # ------------------------------------------------------------------
    def _commit(self) -> None:
        b, p = self.b, self.p
        with b.component("chipkill/commit"):
            head_q, head_d = b.state_word(p.xlen, "commit_head")
            bump1 = b.mux_w(
                self.res[0]["valid"][0][0], head_q, b.increment(head_q)
            )
            bump2 = b.mux_w(
                self.res[1]["valid"][0][0], bump1, b.increment(bump1)
            )
            b.drive_word(head_d, bump2)
            retire_any = b.gate(
                GateType.OR,
                self.res[0]["valid"][0][0],
                self.res[1]["valid"][0][0],
            )
            b.nl.mark_output(retire_any)
        for hit in self.lsq_hit:
            b.nl.mark_output(hit)
