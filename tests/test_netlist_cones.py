"""Consistency tests for the netlist's cone query and dead-logic pruning.

``fanout_cone_gates`` (the reference fault simulator's, in
:mod:`tests.oracles.sim`) and ``Netlist.fanin_cone_gates`` (repair and
diagnosis) must agree with brute-force reachability, and
``prune_unobservable`` must be idempotent.
"""

import random as pyrandom

from hypothesis import given, settings, strategies as st

from repro.netlist import GateType, Netlist
from tests.oracles.sim import fanout_cone_gates

_KINDS = [GateType.AND, GateType.OR, GateType.XOR, GateType.NOT]


def _circuit(seed: int, n_inputs: int, n_gates: int) -> Netlist:
    rng = pyrandom.Random(seed)
    nl = Netlist(f"cone{seed}")
    nets = [nl.add_input(f"i{k}") for k in range(n_inputs)]
    for _ in range(n_gates):
        kind = rng.choice(_KINDS)
        if kind is GateType.NOT:
            nets.append(nl.add_gate(kind, [rng.choice(nets)]))
        else:
            nets.append(
                nl.add_gate(kind, [rng.choice(nets), rng.choice(nets)])
            )
    nl.mark_output(nets[-1])
    nl.add_flop(nets[len(nets) // 2], name="f0")
    return nl


def _brute_force_fanout(nl: Netlist, net: int) -> set:
    """Gate ids reachable from ``net`` by following gate connections."""
    reached_nets = {net}
    reached_gates = set()
    changed = True
    while changed:
        changed = False
        for g in nl.gates:
            if g.gid in reached_gates:
                continue
            if any(i in reached_nets for i in g.inputs):
                reached_gates.add(g.gid)
                reached_nets.add(g.output)
                changed = True
    return reached_gates


class TestConeConsistency:
    @given(
        seed=st.integers(0, 4000),
        n_gates=st.integers(2, 25),
    )
    @settings(max_examples=30, deadline=None)
    def test_fanout_cone_matches_brute_force(self, seed, n_gates):
        nl = _circuit(seed, 4, n_gates)
        rng = pyrandom.Random(seed + 1)
        net = rng.randrange(nl.n_nets)
        cone = set(fanout_cone_gates(nl, net))
        assert cone == _brute_force_fanout(nl, net)

    @given(
        seed=st.integers(0, 4000),
        n_gates=st.integers(2, 25),
    )
    @settings(max_examples=30, deadline=None)
    def test_fanin_cone_matches_brute_force(self, seed, n_gates):
        """A gate is in the fan-in cone of ``net`` when it drives ``net``
        or ``net`` is in the fanout of its output."""
        nl = _circuit(seed, 4, n_gates)
        net = pyrandom.Random(seed + 1).randrange(nl.n_nets)
        expected = {
            g.gid for g in nl.gates
            if g.output == net or any(
                nl.gates[h].output == net
                for h in _brute_force_fanout(nl, g.output)
            )
        }
        assert nl.fanin_cone_gates(net) == expected

    @given(seed=st.integers(0, 2000), n_gates=st.integers(2, 20))
    @settings(max_examples=20, deadline=None)
    def test_prune_is_idempotent(self, seed, n_gates):
        nl = _circuit(seed, 4, n_gates)
        first = nl.prune_unobservable()
        second = nl.prune_unobservable()
        assert second == 0
        nl.validate()
