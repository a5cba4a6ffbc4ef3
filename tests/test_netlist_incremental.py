"""Incremental netlist structure and the incremental gate-level ICI check.

Two Hypothesis properties:

- **Netlist caches.**  Random edit sequences on copies of small random
  netlists and of the tiny Rescue RTL: the maintained topological order
  is a valid permutation of all gates, ``driver_of`` matches a rebuilt
  map, the original is untouched, and the edited netlist raises
  :class:`NetlistError` (cycle, floating input, double drive) exactly
  when a cache-free rebuild of it does.
- **Incremental ICI equals the full check.**  Patches from
  ``apply_candidate`` (all three kinds, chained) and random rewires:
  ``check_netlist_ici(p, base=(report, NetlistDelta.of(...)))`` agrees
  with ``check_netlist_ici(p)`` on the verdict, every observer's cone
  blocks, every violation (id, blocks, example gates) and the per-net
  block sets.  A patch that is not a delta takes the full check.

The ``slow`` variants rerun both properties with a large example budget
(``pytest -q -m slow tests/test_netlist_incremental.py``).  Copies share
their (immutable) flops; ``TestSharedFlops`` checks that contract.
"""

from __future__ import annotations

import dataclasses
import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.netcheck import check_netlist_ici
from repro.netlist.compiled import CompiledNetlist
from repro.netlist.delta import NetlistDelta
from repro.netlist.gates import Flop, GateType
from repro.netlist.netlist import Netlist, NetlistError
from repro.repair.campaign import RepairSpec, build_model
from repro.repair.candidates import (
    CANDIDATE_KINDS,
    NotApplicable,
    apply_candidate,
)
from repro.rtl import RtlParams, build_rescue_rtl
from repro.scan import insert_scan

_KINDS = [GateType.AND, GateType.OR, GateType.XOR, GateType.NAND,
          GateType.NOT, GateType.MUX2]
_LABELS = ["", "a/x", "a/y", "b/x", "c/x", "chipkill/x"]
_EXEMPT = ("chipkill",)


def _arity(gtype: GateType, rng: random.Random) -> int:
    if gtype is GateType.NOT:
        return 1
    if gtype is GateType.MUX2:
        return 3
    return rng.choice([2, 3])


def _random_netlist(seed: int, n_gates: int, n_flops: int) -> Netlist:
    """A levelizable, labeled netlist with flops feeding back as sources."""
    rng = random.Random(seed)
    nl = Netlist(f"rand{seed}")
    nets = [nl.add_input(f"i{k}") for k in range(3)]
    flops = [
        nl.add_flop(nets[0], name=f"f{k}", component=rng.choice(_LABELS))
        for k in range(n_flops)
    ]
    nets += [f.q_net for f in flops]
    for _ in range(n_gates):
        gtype = rng.choice(_KINDS)
        ins = [rng.choice(nets) for _ in range(_arity(gtype, rng))]
        nets.append(nl.add_gate(gtype, ins, component=rng.choice(_LABELS)))
    for f in flops:
        nl.set_flop_d(f.fid, rng.choice(nets))
    nl.mark_output(nets[-1])
    return nl


@functools.lru_cache(maxsize=None)
def _tiny_rtl() -> Netlist:
    return build_rescue_rtl(RtlParams.tiny()).netlist


@functools.lru_cache(maxsize=None)
def _repair_base(model: str):
    netlist, _breaks = build_model(RepairSpec(model=model))
    netlist.topo_gate_order()
    return netlist, check_netlist_ici(netlist, exempt_blocks=_EXEMPT)


def _rebuilt(nl: Netlist) -> Netlist:
    """The same structure in a netlist with no cached state."""
    out = Netlist(nl.name)
    out.n_nets = nl.n_nets
    out.gates = list(nl.gates)
    out.flops = [
        Flop(f.fid, f.d_net, f.q_net, f.name, f.component)
        for f in nl.flops
    ]
    out.primary_inputs = list(nl.primary_inputs)
    out.primary_outputs = list(nl.primary_outputs)
    return out


def _state(nl: Netlist):
    return (
        nl.n_nets,
        [id(g) for g in nl.gates],
        [(f.fid, f.d_net, f.q_net, f.name, f.component) for f in nl.flops],
        list(nl.primary_inputs),
        list(nl.primary_outputs),
    )


def _outcome(fn):
    """``fn()``'s value, or the NetlistError class it raised."""
    try:
        return fn()
    except NetlistError:
        return NetlistError


# ----------------------------------------------------------------------
# Property 1: the netlist's maintained caches
# ----------------------------------------------------------------------

_EDITS = ("gate", "gate_out", "net", "flop", "set_d", "rewire_src",
          "rewire_any", "relabel")

_edit_seq = st.lists(
    st.tuples(st.sampled_from(_EDITS), st.integers(0, 2**20)),
    min_size=1, max_size=12,
)


def _apply_edit(nl: Netlist, kind: str, seed: int) -> None:
    rng = random.Random(seed)
    sources = nl.source_nets()
    if kind == "gate":
        gtype = rng.choice(_KINDS)
        ins = [rng.randrange(nl.n_nets) for _ in range(_arity(gtype, rng))]
        nl.add_gate(gtype, ins, component=rng.choice(_LABELS))
    elif kind == "gate_out":
        nl.add_gate(GateType.NOT, [rng.randrange(nl.n_nets)],
                    output=rng.randrange(nl.n_nets),
                    component=rng.choice(_LABELS))
    elif kind == "net":
        nl.new_net()
    elif kind == "flop":
        nl.add_flop(rng.randrange(nl.n_nets), name=f"e{seed}",
                    component=rng.choice(_LABELS))
    elif kind == "set_d" and nl.flops:
        nl.set_flop_d(rng.randrange(len(nl.flops)), rng.randrange(nl.n_nets))
    elif kind in ("rewire_src", "rewire_any") and nl.gates:
        gid = rng.randrange(len(nl.gates))
        ins = list(nl.gates[gid].inputs)
        if not ins:  # a constant
            return
        pin = rng.randrange(len(ins))
        ins[pin] = (
            rng.choice(sources) if kind == "rewire_src"
            else rng.randrange(nl.n_nets)
        )
        nl.rewire_gate(gid, ins)
    elif kind == "relabel" and nl.flops:
        label = rng.choice(_LABELS)
        nl.relabel_flop(rng.randrange(len(nl.flops)), label)


def _check_caches(base: Netlist, edits, warm: bool = True) -> None:
    """Edit a copy of ``base``; ``warm`` derives base's order first."""
    before = _state(base)
    base_order = _outcome(base.topo_gate_order) if warm else None
    nl = base.copy()
    for kind, seed in edits:
        _apply_edit(nl, kind, seed)
        ref = _rebuilt(nl)
        expect = _outcome(ref.topo_gate_order)
        got = _outcome(nl.topo_gate_order)
        valid = _outcome(ref.validate)
        assert _outcome(nl.validate) is valid
        if expect is NetlistError:
            assert got is NetlistError
        else:
            assert got is not NetlistError
            assert isinstance(got, tuple)
            assert sorted(got) == list(range(len(nl.gates)))
            pos = nl.topo_positions()
            assert [got[p] for p in pos] == list(range(len(nl.gates)))
        if valid is None:
            # Levelizable with no double drive: drivers come first.
            pos = {gid: i for i, gid in enumerate(got)}
            sources = set(nl.source_nets())
            for g in nl.gates:
                for net in g.inputs:
                    if net not in sources:
                        assert pos[ref.driver_of(net)] < pos[g.gid]
        assert all(
            nl.driver_of(net) == ref.driver_of(net)
            for net in range(nl.n_nets)
        )
    assert _state(base) == before
    if not warm:
        base_order = _outcome(_rebuilt(base).topo_gate_order)
    assert _outcome(base.topo_gate_order) == base_order


_random_case = st.tuples(
    st.integers(0, 10_000), st.integers(1, 25), st.integers(0, 4),
    st.booleans(),
)


class TestNetlistCaches:
    @settings(max_examples=40, deadline=None)
    @given(case=_random_case, edits=_edit_seq)
    def test_random_netlists(self, case, edits):
        seed, n_gates, n_flops, warm = case
        _check_caches(_random_netlist(seed, n_gates, n_flops), edits, warm)

    @settings(max_examples=6, deadline=None)
    @given(edits=_edit_seq)
    def test_tiny_rtl(self, edits):
        _check_caches(_tiny_rtl(), edits)

    @pytest.mark.slow
    @settings(max_examples=1500, deadline=None)
    @given(case=_random_case, edits=_edit_seq)
    def test_random_netlists_many(self, case, edits):
        seed, n_gates, n_flops, warm = case
        _check_caches(_random_netlist(seed, n_gates, n_flops), edits, warm)

    @pytest.mark.slow
    @settings(max_examples=120, deadline=None)
    @given(edits=_edit_seq)
    def test_tiny_rtl_many(self, edits):
        _check_caches(_tiny_rtl(), edits)

    def test_maintained_edits_keep_the_order(self):
        nl = _random_netlist(7, 12, 2)
        order = nl.topo_gate_order()
        c = nl.copy()
        assert c.topo_gate_order() is order
        c.new_net()
        q = c.add_flop(c.gates[-1].output, name="s").q_net
        c.set_flop_d(0, q)
        out = c.add_gate(GateType.AND, [q, c.gates[3].output])
        c.rewire_gate(5, [q] * len(c.gates[5].inputs))
        assert c.topo_gate_order() == order + (len(c.gates) - 1,)
        assert c.driver_of(out) == len(c.gates) - 1
        assert nl.topo_gate_order() is order

    def test_cycle_and_floating_input_still_raise(self):
        n = Netlist("loop")
        x = n.add_input("x")
        a = n.add_gate(GateType.NOT, [x])
        b = n.add_gate(GateType.NOT, [a])
        n.topo_gate_order()
        cyc = n.copy()
        cyc.rewire_gate(0, [b])
        with pytest.raises(NetlistError):
            cyc.topo_gate_order()
        flt = n.copy()
        flt.add_gate(GateType.NOT, [flt.new_net()])
        with pytest.raises(NetlistError):
            flt.topo_gate_order()
        n.validate()


class TestSharedFlops:
    def test_copy_shares_flops_and_edits_replace_them(self):
        nl = _random_netlist(3, 12, 4)
        nl.topo_gate_order()
        before = [dataclasses.astuple(f) for f in nl.flops]
        c = nl.copy()
        assert len(c.flops) == len(nl.flops)
        assert all(a is b for a, b in zip(c.flops, nl.flops))
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.flops[0].component = "b/x"
        d = c.gates[-1].output
        c.set_flop_d(0, d)
        c.relabel_flop(1, "b/x")
        insert_scan(c)
        assert [dataclasses.astuple(f) for f in nl.flops] == before
        assert not any(f.scan for f in nl.flops)
        assert c.flops[0].d_net == d and c.flops[1].component == "b/x"
        assert [f.scan_index for f in c.flops] == list(range(len(c.flops)))
        assert all(f.scan for f in c.flops)


# ----------------------------------------------------------------------
# Property 2: incremental ICI check == full check
# ----------------------------------------------------------------------

def _report_key(report):
    return (
        report.satisfied,
        report.checked_observers,
        report.cone_blocks,
        [
            (v.vid, v.observer, v.observer_block, v.blocks, v.example_gates)
            for v in report.violations
        ],
        report.sweep.net_blocks,
        report.sweep.examples,
    )


def _patch(nl: Netlist, report, steps, seed: int) -> None:
    """Apply candidate patches and random rewires/relabels in place."""
    rng = random.Random(seed)
    for step in steps:
        if step == "candidate":
            if not report.violations:
                continue
            v = rng.choice(report.violations)
            try:
                apply_candidate(nl, rng.choice(CANDIDATE_KINDS), v.observer,
                                exempt=_EXEMPT)
            except (NotApplicable, NetlistError):
                pass  # an earlier rewire may have closed a cycle
        elif step == "rewire":
            gid = rng.randrange(len(nl.gates))
            ins = list(nl.gates[gid].inputs)
            if not ins:  # a constant
                continue
            ins[rng.randrange(len(ins))] = rng.choice(
                nl.source_nets() + [g.output for g in nl.gates]
            )
            nl.rewire_gate(gid, ins)
        elif step == "relabel" and nl.flops:
            label = rng.choice(_LABELS)
            nl.relabel_flop(rng.randrange(len(nl.flops)), label)


def _recheck(compiled: CompiledNetlist, report, patched: Netlist):
    """The incremental check of ``patched`` against ``compiled``'s
    netlist, checked as ``report``; also its delta (None: full check)."""
    delta = NetlistDelta.of(compiled, patched)
    return check_netlist_ici(
        patched, exempt_blocks=_EXEMPT, base=(report, delta)
    ), delta


def _check_incremental(base: Netlist, base_report, steps, seed,
                       chain: bool) -> None:
    compiled = CompiledNetlist(base)
    if chain:
        # Re-check a patch of a patch, with the first patch as the base.
        mid = base.copy()
        _patch(mid, base_report, ["candidate"], seed + 1)
        out = _outcome(lambda: _recheck(compiled, base_report, mid))
        if out is NetlistError:
            return
        base_report, delta = out
        compiled = (
            CompiledNetlist(mid) if delta is None
            else CompiledNetlist.extend(compiled, delta)
        )
    patched = compiled.netlist.copy()
    _patch(patched, base_report, steps, seed)
    full = _outcome(lambda: check_netlist_ici(patched, exempt_blocks=_EXEMPT))
    inc = _outcome(lambda: _recheck(compiled, base_report, patched)[0])
    if full is NetlistError:
        assert inc is NetlistError
        return
    assert inc is not NetlistError
    assert _report_key(inc) == _report_key(full)


_steps = st.lists(
    st.sampled_from(["candidate", "rewire", "relabel"]),
    min_size=1, max_size=4,
)
_ici_case = st.tuples(
    st.integers(0, 10_000), st.integers(3, 30), st.integers(1, 5),
)


def _random_ici_base(case):
    nl = _random_netlist(*case)
    nl.topo_gate_order()
    return nl, check_netlist_ici(nl, exempt_blocks=_EXEMPT)


class TestIncrementalIci:
    @settings(max_examples=40, deadline=None)
    @given(case=_ici_case, steps=_steps, seed=st.integers(0, 2**20),
           chain=st.booleans())
    def test_random_netlists(self, case, steps, seed, chain):
        _check_incremental(*_random_ici_base(case), steps, seed, chain)

    @settings(max_examples=8, deadline=None)
    @given(model=st.sampled_from(["baseline", "rescue-broken"]),
           steps=_steps, seed=st.integers(0, 2**20), chain=st.booleans())
    def test_repair_models(self, model, steps, seed, chain):
        _check_incremental(*_repair_base(model), steps, seed, chain)

    @pytest.mark.slow
    @settings(max_examples=1500, deadline=None)
    @given(case=_ici_case, steps=_steps, seed=st.integers(0, 2**20),
           chain=st.booleans())
    def test_random_netlists_many(self, case, steps, seed, chain):
        _check_incremental(*_random_ici_base(case), steps, seed, chain)

    @pytest.mark.slow
    @settings(max_examples=150, deadline=None)
    @given(model=st.sampled_from(["baseline", "rescue-broken"]),
           steps=_steps, seed=st.integers(0, 2**20), chain=st.booleans())
    def test_repair_models_many(self, model, steps, seed, chain):
        _check_incremental(*_repair_base(model), steps, seed, chain)

    def test_every_candidate_of_the_repair_models(self):
        # Every single-candidate patch the oracle checks, both models.
        for model in ("baseline", "rescue-broken"):
            base, report = _repair_base(model)
            compiled = CompiledNetlist(base)
            for v in report.violations:
                for kind in CANDIDATE_KINDS:
                    patched = base.copy()
                    try:
                        apply_candidate(patched, kind, v.observer,
                                        exempt=_EXEMPT)
                    except NotApplicable:
                        continue
                    inc, delta = _recheck(compiled, report, patched)
                    assert delta is not None, kind
                    full = check_netlist_ici(patched, exempt_blocks=_EXEMPT)
                    assert _report_key(inc) == _report_key(full)

    def test_report_from_json_falls_back_to_full(self):
        from repro.core.netcheck import NetIciReport

        base, report = _repair_base("baseline")
        loaded = NetIciReport.from_json(report.to_json())
        assert loaded.sweep is None
        patched = base.copy()
        apply_candidate(patched, "redrive", report.violations[0].observer,
                        exempt=_EXEMPT)
        inc, _delta = _recheck(CompiledNetlist(base), loaded, patched)
        full = check_netlist_ici(patched, exempt_blocks=_EXEMPT)
        assert _report_key(inc) == _report_key(full)
