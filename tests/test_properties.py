"""Property-based tests (hypothesis) on the core data structures.

Each property pins an invariant the rest of the system leans on: simulator
agreement, partition laws of super-components, fault-map round-trips,
yield-model identities, and queue conservation laws.
"""

import random as pyrandom

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import (
    ComponentGraph,
    EdgeKind,
    FaultMapRegister,
    cycle_split,
    super_components,
)
from repro.cpu.isa import Instr, OpClass
from repro.cpu.queues import CompactingIssueQueue, LoadStoreQueue
from repro.netlist import GateType, Netlist, PackedWordSimulator
from repro.netlist.faults import StuckAt
from repro.yieldmodel import negbin_yield
from repro.yieldmodel.configs import config_probabilities
from tests.oracles import Simulator


# ----------------------------------------------------------------------
# Random circuit construction shared by several properties.
# ----------------------------------------------------------------------
_TWO_IN = [GateType.AND, GateType.OR, GateType.XOR, GateType.NAND,
           GateType.NOR, GateType.XNOR]


def _random_netlist(seed: int, n_inputs: int, n_gates: int) -> Netlist:
    rng = pyrandom.Random(seed)
    nl = Netlist(f"rand{seed}")
    nets = [nl.add_input(f"i{k}") for k in range(n_inputs)]
    for _ in range(n_gates):
        kind = rng.choice(_TWO_IN + [GateType.NOT, GateType.MUX2])
        if kind is GateType.NOT:
            nets.append(nl.add_gate(kind, [rng.choice(nets)]))
        elif kind is GateType.MUX2:
            nets.append(
                nl.add_gate(kind, [rng.choice(nets) for _ in range(3)])
            )
        else:
            nets.append(
                nl.add_gate(kind, [rng.choice(nets), rng.choice(nets)])
            )
    nl.mark_output(nets[-1])
    nl.add_flop(nets[-2] if len(nets) > 1 else nets[-1], name="f0")
    return nl


class TestNetlistProperties:
    @given(
        seed=st.integers(0, 10_000),
        n_inputs=st.integers(2, 6),
        n_gates=st.integers(1, 40),
    )
    @settings(max_examples=30, deadline=None)
    def test_packed_matches_scalar(self, seed, n_inputs, n_gates):
        nl = _random_netlist(seed, n_inputs, n_gates)
        scalar = Simulator(nl)
        packed = PackedWordSimulator(nl)
        rng = np.random.default_rng(seed)
        patterns = rng.integers(0, 2, size=(5, packed.n_sources)).astype(bool)
        vals = packed.good_values(patterns)
        po, state = packed.capture(vals)
        for p in range(5):
            pi = {
                net: int(patterns[p, packed.source_col[net]])
                for net in nl.primary_inputs
            }
            stt = {
                f.fid: int(patterns[p, packed.source_col[f.q_net]])
                for f in nl.flops
            }
            _, spo, snxt = scalar.evaluate(pi, stt)
            for i, net in enumerate(nl.primary_outputs):
                assert bool(po[p, i]) == bool(spo[net])
            for f in nl.flops:
                assert bool(state[p, f.fid]) == bool(snxt[f.fid])

    @given(
        seed=st.integers(0, 10_000),
        n_gates=st.integers(1, 30),
    )
    @settings(max_examples=30, deadline=None)
    def test_topo_order_respects_dependencies(self, seed, n_gates):
        nl = _random_netlist(seed, 4, n_gates)
        order = nl.topo_gate_order()
        position = {gid: i for i, gid in enumerate(order)}
        sources = set(nl.source_nets())
        driver = {g.output: g.gid for g in nl.gates}
        for g in nl.gates:
            for src in g.inputs:
                if src in sources:
                    continue
                assert position[driver[src]] < position[g.gid]

    @given(
        seed=st.integers(0, 10_000),
        n_gates=st.integers(2, 40),
    )
    @settings(max_examples=20, deadline=None)
    def test_prune_preserves_observed_behavior(self, seed, n_gates):
        nl = _random_netlist(seed, 4, n_gates)
        packed = PackedWordSimulator(nl)
        rng = np.random.default_rng(seed)
        patterns = rng.integers(0, 2, size=(4, packed.n_sources)).astype(bool)
        vals = packed.good_values(patterns)
        po_before, st_before = packed.capture(vals)
        nl.prune_unobservable()
        packed2 = PackedWordSimulator(nl)
        vals2 = packed2.good_values(patterns)
        po_after, st_after = packed2.capture(vals2)
        assert (po_before == po_after).all()
        assert (st_before == st_after).all()

    @given(
        seed=st.integers(0, 5_000),
        value=st.integers(0, 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_faulty_cone_matches_direct_injection(self, seed, value):
        nl = _random_netlist(seed, 4, 20)
        packed = PackedWordSimulator(nl)
        scalar = Simulator(nl)
        rng = np.random.default_rng(seed)
        target = nl.gates[rng.integers(len(nl.gates))].output
        fault = StuckAt(net=int(target), value=value)
        patterns = rng.integers(0, 2, size=(3, packed.n_sources)).astype(bool)
        good = packed.good_values(patterns)
        delta = packed.faulty_values(good, fault)
        po, state = packed.capture(good, fault=fault, delta=delta)
        for p in range(3):
            pi = {
                net: int(patterns[p, packed.source_col[net]])
                for net in nl.primary_inputs
            }
            stt = {
                f.fid: int(patterns[p, packed.source_col[f.q_net]])
                for f in nl.flops
            }
            _, spo, snxt = scalar.evaluate(pi, stt, fault=fault)
            for i, net in enumerate(nl.primary_outputs):
                assert bool(po[p, i]) == bool(spo[net])


class TestGraphProperties:
    @st.composite
    def graphs(draw):
        n = draw(st.integers(2, 8))
        g = ComponentGraph()
        names = [f"c{i}" for i in range(n)]
        for name in names:
            g.add(name)
        n_edges = draw(st.integers(0, 12))
        for _ in range(n_edges):
            a = draw(st.sampled_from(names))
            b = draw(st.sampled_from(names))
            if a == b:
                continue
            kind = draw(st.sampled_from([EdgeKind.COMB, EdgeKind.LATCH]))
            g.connect(a, b, kind)
        return g

    @given(graphs())
    @settings(max_examples=50, deadline=None)
    def test_super_components_partition(self, g):
        supers = super_components(g)
        flat = [m for s in supers for m in s]
        assert sorted(flat) == sorted(g.logic_components())

    @given(graphs())
    @settings(max_examples=50, deadline=None)
    def test_comb_endpoints_share_super_component(self, g):
        supers = super_components(g)
        of = {m: s for s in supers for m in s}
        for e in g.comb_edges():
            assert of[e.src] is of[e.dst]

    @given(graphs())
    @settings(max_examples=30, deadline=None)
    def test_splitting_all_comb_edges_fully_isolates(self, g):
        for e in list(g.comb_edges()):
            g, _ = cycle_split(g, e.src, e.dst, adds_pipeline_stage=False)
        assert all(len(s) == 1 for s in super_components(g))


class TestFaultMapProperties:
    @given(
        width=st.integers(1, 8),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_bits_roundtrip(self, width, data):
        reg = FaultMapRegister(width)
        blocks = (
            [f"frontend{i}" for i in range(width)]
            + [f"backend{i}" for i in range(width)]
            + ["iq_old", "iq_new", "lsq0", "lsq1"]
        )
        marks = data.draw(st.lists(st.sampled_from(blocks), max_size=6))
        for b in marks:
            reg.mark_faulty(b)
        again = FaultMapRegister.from_bits(reg.to_bits(), width=width)
        assert again.to_bits() == reg.to_bits()
        assert (
            again.degraded_config().describe()
            == reg.degraded_config().describe()
        )

    @given(width=st.integers(1, 8))
    @settings(max_examples=20, deadline=None)
    def test_bit_budget(self, width):
        assert FaultMapRegister(width).n_bits == 2 * width + 4


class TestYieldProperties:
    @given(
        density=st.floats(0.0, 0.05),
        scale=st.floats(0.01, 2.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_config_probabilities_form_subdistribution(self, density, scale):
        areas = {
            "chipkill": 40 * scale,
            "frontend": 6 * scale,
            "int_backend": 8 * scale,
            "fp_backend": 11 * scale,
            "iq_int": 1.5 * scale,
            "iq_fp": 1.0 * scale,
            "lsq": 3.5 * scale,
        }
        lam = np.array([density])
        probs = config_probabilities(lam, areas)
        total = float(sum(p[0] for p in probs.values()))
        assert -1e-12 <= total <= 1.0 + 1e-9
        for p in probs.values():
            assert 0.0 <= p[0] <= 1.0 + 1e-12

    @given(area=st.floats(0.1, 300))
    @settings(max_examples=30, deadline=None)
    def test_yield_decreases_with_density(self, area):
        ys = [negbin_yield(area, d) for d in (0.001, 0.005, 0.02)]
        assert ys[0] >= ys[1] >= ys[2]


class TestQueueProperties:
    @given(
        size=st.integers(1, 12),
        ops=st.lists(st.integers(0, 2), max_size=60),
    )
    @settings(max_examples=50, deadline=None)
    def test_compacting_queue_conserves_entries(self, size, ops):
        """Inserted = still-queued + released, and occupancy never
        exceeds capacity (op codes: 0 insert, 1 select, 2 tick)."""
        q = CompactingIssueQueue(size=size, issue_to_free=2)
        limits = {"slots": 2, "alu": 2, "mul": 1, "mem": 1}
        cycle = 0
        inserted = 0
        for op in ops:
            if op == 0 and q.can_insert():
                q.insert(Instr(seq=inserted, op=OpClass.IALU, pc=0), cycle)
                inserted += 1
            elif op == 1:
                q.select(cycle, lambda i, c: True, limits)
            else:
                cycle += 1
                q.tick(cycle)
            assert len(q.entries) <= size

    @given(
        entries=st.lists(
            st.tuples(st.booleans(), st.integers(0, 255)),
            min_size=1, max_size=12,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_lsq_forwards_only_older_matching_stores(self, entries):
        lsq = LoadStoreQueue(size=32, block=32)
        for seq, (is_store, addr) in enumerate(entries):
            lsq.insert(seq, is_store, addr)
        probe_seq = len(entries)
        for addr in {a for _, a in entries} | {999}:
            expected = any(
                is_store and a // 32 == addr // 32
                for is_store, a in entries
            )
            assert lsq.forwards(probe_seq, addr) == expected
