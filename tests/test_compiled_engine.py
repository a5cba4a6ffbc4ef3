"""Equivalence properties of the bit-packed fault-sim engine.

The `PackedWordSimulator` must be *bit-exact* against both reference
engines in `tests.oracles` — the scalar `Simulator` and the legacy
dict-of-arrays `PackedSimulator` — on good values, captured PO/state,
and per-fault detection verdicts, for every fault site class (stem, gate
input pin, flop D pin).  Random netlists here are richer than the
generic ones in ``test_properties`` (they include BUF/CONST gates,
several flops and primary outputs) and pattern counts include the
empty set and straddle the 64-bit word boundary.

The batch critical-path-tracing detector (`detections`) must equal the
per-fault cone-walk oracle `tests.oracles.fault_mismatch` on every fault,
on random netlists built to hit each fanout-free-region corner case and
(in the ``slow`` run) on both tiny RTL models.
"""

import random as pyrandom

import numpy as np
from hypothesis import given, settings, strategies as st

import pytest

from repro.atpg.compaction import detection_matrix
from repro.atpg.faults import full_fault_universe
from repro.atpg.faultsim import grade_faults
from repro.netlist import GateType, Netlist
from repro.netlist.compiled import PackedWordSimulator, _ints_to_bits
from repro.netlist.faults import StuckAt
from tests import oracles
from tests.oracles import PackedSimulator, Simulator

_KINDS = [
    GateType.AND, GateType.OR, GateType.XOR, GateType.NAND,
    GateType.NOR, GateType.XNOR, GateType.NOT, GateType.BUF,
    GateType.MUX2, GateType.CONST0, GateType.CONST1,
]


def _random_netlist(seed: int, n_inputs: int, n_gates: int) -> Netlist:
    rng = pyrandom.Random(seed)
    nl = Netlist(f"word{seed}")
    nets = [nl.add_input(f"i{k}") for k in range(n_inputs)]
    for _ in range(n_gates):
        kind = rng.choice(_KINDS)
        if kind in (GateType.NOT, GateType.BUF):
            nets.append(nl.add_gate(kind, [rng.choice(nets)]))
        elif kind is GateType.MUX2:
            nets.append(
                nl.add_gate(kind, [rng.choice(nets) for _ in range(3)])
            )
        elif kind in (GateType.CONST0, GateType.CONST1):
            nets.append(nl.add_gate(kind, []))
        else:
            n_in = rng.choice((2, 2, 3))
            nets.append(
                nl.add_gate(kind, [rng.choice(nets) for _ in range(n_in)])
            )
    # Several observation points, including direct-source observation.
    for net in rng.sample(nets, min(3, len(nets))):
        nl.mark_output(net)
    for i in range(min(3, len(nets))):
        nl.add_flop(rng.choice(nets), name=f"f{i}")
    return nl


def _random_faults(nl: Netlist, seed: int, count: int):
    """A mix of stem, gate-pin, and flop-D stuck-at faults."""
    rng = pyrandom.Random(seed ^ 0x5EED)
    faults = []
    for _ in range(count):
        value = rng.randint(0, 1)
        kind = rng.randrange(3)
        if kind == 0 or not nl.gates:
            faults.append(
                StuckAt(net=rng.randrange(nl.n_nets), value=value)
            )
        elif kind == 1:
            g = rng.choice(nl.gates)
            if not g.inputs:
                faults.append(StuckAt(net=g.output, value=value))
            else:
                pin = rng.randrange(len(g.inputs))
                faults.append(
                    StuckAt(
                        net=g.inputs[pin], value=value,
                        gate=g.gid, pin=pin,
                    )
                )
        else:
            f = rng.choice(nl.flops)
            faults.append(
                StuckAt(net=f.d_net, value=value, flop=f.fid)
            )
    return faults


class TestGoodSimulationAgreement:
    @given(
        seed=st.integers(0, 10_000),
        n_inputs=st.integers(2, 6),
        n_gates=st.integers(1, 50),
        npat=st.sampled_from((0, 1, 5, 63, 64, 65, 130)),
    )
    @settings(max_examples=25, deadline=None)
    def test_word_matches_scalar_and_legacy(
        self, seed, n_inputs, n_gates, npat
    ):
        nl = _random_netlist(seed, n_inputs, n_gates)
        scalar = Simulator(nl)
        legacy = PackedSimulator(nl)
        word = PackedWordSimulator(nl)
        rng = np.random.default_rng(seed)
        patterns = rng.integers(
            0, 2, size=(npat, word.n_sources)
        ).astype(bool)

        lv = legacy.good_values(patterns)
        po_l, st_l = legacy.capture(lv)
        wv = word.good_values(patterns)
        po_w, st_w = word.capture(wv)
        assert (po_l == po_w).all()
        assert (st_l == st_w).all()

        # Every net agrees, not just the observation points.
        bits = _ints_to_bits(wv.ints, npat)
        assert bits.shape == (npat, nl.n_nets)
        for net in range(nl.n_nets):
            if net in lv:
                assert (bits[:, net] == lv[net]).all(), f"net {net} diverges"

        # Spot-check a few patterns against the scalar reference.
        for p in range(0, npat, max(1, npat // 3)):
            pi = {
                net: int(patterns[p, word.source_col[net]])
                for net in nl.primary_inputs
            }
            stt = {
                f.fid: int(patterns[p, word.source_col[f.q_net]])
                for f in nl.flops
            }
            _, spo, snxt = scalar.evaluate(pi, stt)
            for i, net in enumerate(nl.primary_outputs):
                assert bool(po_w[p, i]) == bool(spo[net])
            for f in nl.flops:
                assert bool(st_w[p, f.fid]) == bool(snxt[f.fid])


class TestFaultAgreement:
    @given(
        seed=st.integers(0, 10_000),
        n_gates=st.integers(2, 45),
        npat=st.sampled_from((1, 17, 64, 100)),
    )
    @settings(max_examples=25, deadline=None)
    def test_detection_verdicts_match_legacy(self, seed, n_gates, npat):
        nl = _random_netlist(seed, 4, n_gates)
        faults = _random_faults(nl, seed, 12)
        rng = np.random.default_rng(seed)
        n_src = len(nl.source_nets())
        patterns = rng.integers(0, 2, size=(npat, n_src)).astype(bool)

        g_legacy = oracles.grade_faults(nl, faults, patterns)
        g_word = grade_faults(nl, faults, patterns)
        assert g_legacy.detected == g_word.detected
        assert g_legacy.undetected == g_word.undetected

        m_legacy = oracles.detection_matrix(nl, faults, patterns)
        m_word = detection_matrix(nl, faults, patterns)
        for fault in faults:
            assert (m_legacy[fault] == m_word[fault]).all(), (
                fault.describe()
            )

    @given(
        seed=st.integers(0, 10_000),
        n_gates=st.integers(2, 40),
    )
    @settings(max_examples=20, deadline=None)
    def test_faulty_capture_matches_legacy(self, seed, n_gates):
        nl = _random_netlist(seed, 4, n_gates)
        faults = _random_faults(nl, seed, 6)
        rng = np.random.default_rng(seed)
        n_src = len(nl.source_nets())
        patterns = rng.integers(0, 2, size=(70, n_src)).astype(bool)
        legacy = PackedSimulator(nl)
        word = PackedWordSimulator(nl)
        lv = legacy.good_values(patterns)
        wv = word.good_values(patterns)
        for fault in faults:
            dl = legacy.faulty_values(lv, fault)
            dw = word.faulty_values(wv, fault)
            po_l, st_l = legacy.capture(lv, fault=fault, delta=dl)
            po_w, st_w = word.capture(wv, fault=fault, delta=dw)
            assert (po_l == po_w).all(), fault.describe()
            assert (st_l == st_w).all(), fault.describe()

    @given(
        seed=st.integers(0, 5_000),
        n_gates=st.integers(2, 40),
    )
    @settings(max_examples=20, deadline=None)
    def test_failing_observations_match_capture(self, seed, n_gates):
        """The no-unpack fast path agrees with full capture comparison."""
        nl = _random_netlist(seed, 4, n_gates)
        faults = _random_faults(nl, seed, 6)
        rng = np.random.default_rng(seed)
        n_src = len(nl.source_nets())
        patterns = rng.integers(0, 2, size=(33, n_src)).astype(bool)
        word = PackedWordSimulator(nl)
        wv = word.good_values(patterns)
        good_po, good_st = word.capture(wv)
        for fault in faults:
            delta = word.faulty_values(wv, fault)
            bad_po, bad_st = word.capture(wv, fault=fault, delta=delta)
            want_fids = set(
                np.where((good_st != bad_st).any(axis=0))[0].tolist()
            )
            want_pos = set(
                np.where((good_po != bad_po).any(axis=0))[0].tolist()
            )
            fids, pos = word.failing_observations(wv, fault)
            assert fids == want_fids, fault.describe()
            assert pos == want_pos, fault.describe()


class TestEdgeCases:
    def test_empty_pattern_set(self):
        nl = _random_netlist(2, 3, 8)
        word = PackedWordSimulator(nl)
        patterns = np.zeros((0, word.n_sources), dtype=bool)
        values = word.good_values(patterns)
        po, state = word.capture(values)
        assert po.shape == (0, len(nl.primary_outputs))
        assert state.shape == (0, len(nl.flops))
        faults = _random_faults(nl, 2, 4)
        assert word.detections(values, faults) == [0] * len(faults)
        for fault in faults:
            assert oracles.fault_mismatch(word, values, fault) == 0

    def test_capture_without_flops(self):
        nl = Netlist("noflop")
        a, b = nl.add_input("a"), nl.add_input("b")
        nl.mark_output(nl.add_gate(GateType.AND, [a, b]))
        word = PackedWordSimulator(nl)
        for npat in (0, 3, 70):
            patterns = np.ones((npat, word.n_sources), dtype=bool)
            po, state = word.capture(word.good_values(patterns))
            assert po.shape == (npat, 1) and po.all()
            assert state.shape == (npat, 0)


def _ffr_netlist(seed: int, n_gates: int) -> Netlist:
    """A random netlist hitting every fanout-free-region corner case.

    It has flop Qs read as sources, an XOR/XNOR chain, constants, a net
    feeding two pins of one gate (one a MUX2 select), a PO and a flop D
    on nets that also have exactly one gate reader, a flop D net that
    fans out (flop-D branch faults) and dead gates.
    """
    rng = pyrandom.Random(seed)
    nl = Netlist(f"ffr{seed}")
    nets = [nl.add_input(f"i{k}") for k in range(rng.randint(2, 5))]
    flops = [
        nl.add_flop(nets[0], name=f"f{k}") for k in range(rng.randint(2, 4))
    ]
    nets += [f.q_net for f in flops]
    x = rng.choice(nets)
    for _ in range(rng.randint(2, 4)):
        x = nl.add_gate(
            rng.choice((GateType.XOR, GateType.XNOR)), [x, rng.choice(nets)]
        )
    nets.append(x)
    nets.append(
        nl.add_gate(rng.choice((GateType.CONST0, GateType.CONST1)), [])
    )
    twice = rng.choice(nets)
    nets.append(nl.add_gate(
        rng.choice((GateType.AND, GateType.OR, GateType.XOR, GateType.NAND)),
        [twice, twice],
    ))
    nets.append(nl.add_gate(GateType.MUX2, [rng.choice(nets), twice, twice]))
    nets.append(
        nl.add_gate(GateType.MUX2, [rng.choice(nets) for _ in range(3)])
    )
    for _ in range(n_gates):
        kind = rng.choice(_KINDS)
        if kind in (GateType.NOT, GateType.BUF):
            ins = [rng.choice(nets)]
        elif kind is GateType.MUX2:
            ins = [rng.choice(nets) for _ in range(3)]
        elif kind in (GateType.CONST0, GateType.CONST1):
            ins = []
        else:
            ins = [rng.choice(nets) for _ in range(rng.choice((2, 2, 3)))]
        nets.append(nl.add_gate(kind, ins))
    # A PO and a flop D on nets with exactly one gate reader.
    po_net = nl.add_gate(GateType.NOT, [rng.choice(nets)])
    nets.append(nl.add_gate(GateType.BUF, [po_net]))
    nl.mark_output(po_net)
    d_net = nl.add_gate(GateType.NOT, [rng.choice(nets)])
    nets.append(nl.add_gate(GateType.BUF, [d_net]))
    nl.set_flop_d(flops[0].fid, d_net)
    nl.set_flop_d(flops[1].fid, twice)
    for f in flops[2:]:
        nl.set_flop_d(f.fid, rng.choice(nets))
    for net in rng.sample(nets, 2):
        nl.mark_output(net)
    # Dead gates: nothing reads or observes them.
    for _ in range(2):
        nl.add_gate(GateType.AND, [rng.choice(nets), rng.choice(nets)])
    return nl


def _every_fault(nl: Netlist):
    """The full fault universe plus a branch fault pair on every gate and
    flop D pin, fanout or not."""
    faults = full_fault_universe(nl)
    for value in (0, 1):
        for g in nl.gates:
            for pin, net in enumerate(g.inputs):
                faults.append(
                    StuckAt(net=net, value=value, gate=g.gid, pin=pin)
                )
        for f in nl.flops:
            faults.append(StuckAt(net=f.d_net, value=value, flop=f.fid))
    return faults


def _assert_detections_match_oracle(nl: Netlist, npat: int, seed: int):
    sim = PackedWordSimulator(nl)
    rng = np.random.default_rng(seed)
    patterns = rng.integers(0, 2, size=(npat, sim.n_sources)).astype(bool)
    values = sim.good_values(patterns)
    faults = _every_fault(nl)
    for fault, hits in zip(faults, sim.detections(values, faults)):
        want = oracles.fault_mismatch(sim, values, fault)
        assert hits == want, (fault.describe(), npat)
    return sim


class TestCriticalPathDetections:
    @given(
        seed=st.integers(0, 10_000),
        n_gates=st.integers(0, 40),
        npat=st.sampled_from((1, 63, 64, 65, 200)),
    )
    @settings(max_examples=30, deadline=None)
    def test_detections_equal_the_per_fault_oracle(self, seed, n_gates, npat):
        nl = _ffr_netlist(seed, n_gates)
        sim = _assert_detections_match_oracle(nl, npat, seed)
        # The corner cases are there: two pins of one gate and an
        # observed single-reader net are roots, dead gates read nothing.
        c = sim.compiled
        assert nl.primary_outputs[0] not in c.ffr_sink
        assert nl.flops[0].d_net not in c.ffr_sink
        assert any(len(set(g.inputs)) < len(g.inputs) for g in nl.gates)
        assert not c.readers[nl.gates[-1].output]

    @pytest.mark.slow
    @given(
        seed=st.integers(0, 100_000),
        n_gates=st.integers(0, 80),
        npat=st.sampled_from((1, 63, 64, 65, 200)),
    )
    @settings(max_examples=400, deadline=None)
    def test_detections_equal_the_oracle_at_scale(self, seed, n_gates, npat):
        nl = _ffr_netlist(seed, n_gates)
        _assert_detections_match_oracle(nl, npat, seed)

    @pytest.mark.slow
    @pytest.mark.parametrize("model", ["rescue", "baseline"])
    def test_every_fault_of_the_tiny_models(self, model):
        from repro.rtl import RtlParams, build_baseline_rtl, build_rescue_rtl
        from repro.scan import insert_scan

        build = build_rescue_rtl if model == "rescue" else build_baseline_rtl
        nl = build(RtlParams.tiny()).netlist
        insert_scan(nl)
        for seed in (0, 1, 2):
            _assert_detections_match_oracle(nl, 200, seed)
