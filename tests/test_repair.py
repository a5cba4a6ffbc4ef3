"""Tests for the ICI auto-repair subsystem (``repro.repair``).

Covers the acceptance contract: every repairable violation of the
baseline RTL and of a hand-broken Rescue variant gets a verified patch
(patched model passes netcheck, is bit-exact through the packed engine,
and the chosen candidate is area-minimal), and the emitted plan is
bit-identical for any worker count, chunking, or resume history.
"""

import dataclasses
import json

import pytest

from repro.core.netcheck import check_netlist_ici
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist, NetlistError
from repro.repair import (
    BaseState,
    NotApplicable,
    RepairSpec,
    apply_candidate,
    build_model,
    patch_model,
    run_repair,
    seed_breaks,
    verify_candidate,
)
from repro.telemetry import TELEMETRY

BASELINE = RepairSpec(model="baseline", tiny=True, n_patterns=96)
BROKEN = RepairSpec(model="rescue-broken", tiny=True, n_patterns=96)


@pytest.fixture(scope="module")
def baseline_result():
    return run_repair(BASELINE, checkpoint=False)


@pytest.fixture(scope="module")
def broken_result():
    return run_repair(BROKEN, checkpoint=False)


# ----------------------------------------------------------------------
# Netlist patch primitives
# ----------------------------------------------------------------------

def _two_block_netlist():
    """b.f observes logic from blocks a and b: one ICI violation."""
    n = Netlist("twoblock")
    x = n.add_input("x")
    y = n.add_input("y")
    ax = n.add_gate(GateType.AND, [x, y], component="a/logic")
    bx = n.add_gate(GateType.OR, [ax, y], component="b/logic")
    n.add_flop(bx, name="b.f", component="b/state")
    n.add_flop(ax, name="a.f", component="a/state")
    return n


class TestPatchPrimitives:
    def test_rewire_gate_preserves_identity(self):
        n = _two_block_netlist()
        g = n.gates[1]
        n.rewire_gate(1, [g.inputs[0], g.inputs[0]])
        assert n.gates[1].gid == 1
        assert n.gates[1].output == g.output
        assert n.gates[1].inputs == (g.inputs[0], g.inputs[0])

    def test_set_flop_d_repoints(self):
        n = _two_block_netlist()
        n.set_flop_d(0, n.flops[1].d_net)
        assert n.flops[0].d_net == n.flops[1].d_net

    def test_copy_isolates_flop_mutation(self):
        n = _two_block_netlist()
        c = n.copy()
        c.relabel_flop(0, "elsewhere")
        c.set_flop_d(1, c.flops[0].d_net)
        assert n.flops[0].component == "b/state"
        assert n.flops[1].d_net != n.flops[0].d_net
        n.validate()
        c.validate()


# ----------------------------------------------------------------------
# Candidates + oracle on a hand-built violation
# ----------------------------------------------------------------------

class TestCandidates:
    def test_redrive_discharges_and_verifies(self):
        n = _two_block_netlist()
        report = check_netlist_ici(n)
        assert not report.satisfied
        observer = report.violations[0].observer
        base = BaseState.build(n, report, 64, seed=1)
        patched = n.copy()
        info = apply_candidate(patched, "redrive", observer)
        verdict = verify_candidate(
            base, patched, observer, info.sample_gates, exempt=()
        )
        assert verdict.ok, verdict
        assert check_netlist_ici(patched).satisfied
        assert info.extra_area > 0

    def test_latch_rejected_by_equivalence(self):
        # Staging a foreign net through a flop changes cycle timing, so
        # the functional screen must reject it.
        n = _two_block_netlist()
        report = check_netlist_ici(n)
        observer = report.violations[0].observer
        base = BaseState.build(n, report, 64, seed=1)
        patched = n.copy()
        info = apply_candidate(patched, "latch", observer)
        verdict = verify_candidate(
            base, patched, observer, info.sample_gates, exempt=()
        )
        assert not verdict.ok
        assert verdict.stage == "equivalence"

    def test_latch_on_rare_net_rejected_by_proof(self):
        # b.f sees the staged net only when ten block-b inputs are all
        # 1, so random patterns almost never expose the extra cycle.
        n = Netlist("rare")
        x = n.add_input("x")
        y = n.add_input("y")
        zs = [n.add_input(f"z{i}") for i in range(10)]
        ax = n.add_gate(GateType.AND, [x, y], component="a/logic")
        bx = n.add_gate(GateType.AND, [ax] + zs, component="b/logic")
        n.add_flop(bx, name="b.f", component="b/state")
        report = check_netlist_ici(n)
        base = BaseState.build(n, report, 64, seed=1)
        patched = n.copy()
        info = apply_candidate(patched, "latch", "b.f")
        verdict = verify_candidate(
            base, patched, "b.f", info.sample_gates, exempt=()
        )
        assert not verdict.ok
        assert verdict.stage == "equivalence"
        assert "observable" in verdict.reason

    def test_latch_on_unobservable_net_verified(self):
        # AND(ax, z, NOT z) is constant 0: staging ax changes nothing.
        n = Netlist("masked")
        x = n.add_input("x")
        y = n.add_input("y")
        z = n.add_input("z")
        ax = n.add_gate(GateType.AND, [x, y], component="a/logic")
        nz = n.add_gate(GateType.NOT, [z], component="b/logic")
        bx = n.add_gate(GateType.AND, [ax, z, nz], component="b/logic")
        n.add_flop(bx, name="b.f", component="b/state")
        report = check_netlist_ici(n)
        base = BaseState.build(n, report, 64, seed=1)
        patched = n.copy()
        info = apply_candidate(patched, "latch", "b.f")
        verdict = verify_candidate(
            base, patched, "b.f", info.sample_gates, exempt=()
        )
        assert verdict.ok, verdict

    def test_not_applicable_on_clean_observer(self):
        n = _two_block_netlist()
        with pytest.raises(NotApplicable):
            apply_candidate(n, "redrive", "a.f")

    def test_relabel_requires_single_foreign_block(self):
        n = _two_block_netlist()
        # b.f's cone contains b's own OR gate, so relabel cannot apply.
        with pytest.raises(NotApplicable):
            apply_candidate(n, "relabel", "b.f")


def _relabel_netlist():
    """c.f is written purely by block a: relabel (0 area) must win."""
    n = Netlist("relabel")
    x = n.add_input("x")
    y = n.add_input("y")
    ax = n.add_gate(GateType.AND, [x, y], component="a/logic")
    n.add_flop(ax, name="a.f", component="a/state")
    n.add_flop(ax, name="c.f", component="c/state")
    return n


class TestAreaMinimalChoice:
    def test_relabel_beats_redrive_when_both_verify(self):
        n = _relabel_netlist()
        report = check_netlist_ici(n)
        assert len(report.violations) == 1
        observer = report.violations[0].observer
        base = BaseState.build(n, report, 64, seed=1)
        outcomes = {}
        for kind in ("relabel", "redrive"):
            patched = n.copy()
            info = apply_candidate(patched, kind, observer)
            verdict = verify_candidate(
                base, patched, observer, info.sample_gates, exempt=()
            )
            outcomes[kind] = (verdict.ok, info.extra_area)
        assert outcomes["relabel"] == (True, 0.0)
        assert outcomes["redrive"][0] and outcomes["redrive"][1] > 0
        # choose_actions picks the cheaper verified candidate.
        from repro.repair import choose_actions

        entry = {
            "id": "v", "observer": observer, "observer_block": "c",
            "candidates": [
                {"kind": k, "verified": ok, "stage": "verified",
                 "reason": "", "extra_area": area, "note": ""}
                for k, (ok, area) in outcomes.items()
            ],
        }
        actions, unrepaired = choose_actions([entry])
        assert not unrepaired
        assert actions[0].kind == "relabel"
        assert actions[0].extra_area == 0.0


# ----------------------------------------------------------------------
# Seeded breaks
# ----------------------------------------------------------------------

class TestSeededBreaks:
    def test_breaks_create_violations_deterministically(self):
        n1, breaks1 = build_model(BROKEN)
        n2, breaks2 = build_model(BROKEN)
        assert [b.describe() for b in breaks1] == [
            b.describe() for b in breaks2
        ]
        assert len(breaks1) == BROKEN.n_breaks
        report = check_netlist_ici(n1, exempt_blocks=BROKEN.exempt)
        assert not report.satisfied
        n1.validate()

    def test_clean_rescue_has_nothing_to_break_into(self):
        spec = RepairSpec(model="rescue", tiny=True)
        netlist, breaks = build_model(spec)
        assert breaks == []
        assert check_netlist_ici(
            netlist, exempt_blocks=spec.exempt
        ).satisfied


# ----------------------------------------------------------------------
# Campaign acceptance: baseline + broken rescue fully repaired
# ----------------------------------------------------------------------

class TestRepairCampaign:
    def test_baseline_fully_repaired(self, baseline_result):
        res = baseline_result
        assert res.n_violations > 0
        assert res.unrepaired == []
        assert res.patched_satisfied
        assert res.equivalent
        assert res.extra_area > 0
        counts = res.candidate_counts()
        assert counts["verified"] >= res.n_repaired
        assert counts["generated"] == (
            counts["verified"] + counts["rejected"]
        )

    def test_broken_rescue_restored_to_clean(self, broken_result):
        res = broken_result
        assert res.n_violations > 0
        assert res.unrepaired == []
        assert res.patched_satisfied and res.equivalent
        assert len(res.breaks) == BROKEN.n_breaks

    @pytest.mark.parametrize("seed", [2, 3])
    def test_other_oracle_seeds_repair_equivalently(self, seed):
        """At these oracle seeds the random screen misses the latch's
        timing change; the new-state proof rejects it, so the plan is
        redrives only and the composed patch is genuinely equivalent."""
        import dataclasses

        spec = dataclasses.replace(BROKEN, n_patterns=192, seed=seed)
        res = run_repair(spec, checkpoint=False)
        assert res.unrepaired == []
        assert res.equivalent and res.patched_satisfied
        assert {a.kind for a in res.actions} == {"redrive"}
        for v in res.violations:
            latch = [c for c in v["candidates"] if c["kind"] == "latch"]
            assert latch and not latch[0]["verified"]

    def test_apply_plan_skips_subsumed_actions(self):
        # Two latches staging the same foreign net: the first one cuts
        # the net out of the second observer's cone as well.
        from repro.repair import RepairAction, apply_plan

        netlist, _ = build_model(BROKEN)
        report = check_netlist_ici(netlist, exempt_blocks=BROKEN.exempt)
        first, second = report.violations[:2]
        actions = [
            RepairAction(v.vid, v.observer, v.observer_block, "latch", 6.0)
            for v in (first, second)
        ]
        log, applied = apply_plan(netlist, actions, exempt=BROKEN.exempt)
        assert applied == actions[:1]
        assert len(log) == 2
        assert log[1].startswith(f"subsumed latch {second.observer}")

    def test_patched_model_passes_netcheck_and_equivalence(
        self, baseline_result
    ):
        # Re-derive the patched netlist from the plan alone and re-check
        # everything from scratch: the plan is self-sufficient.
        from repro.repair.oracle import _equivalence_stage

        netlist, _ = build_model(BASELINE)
        report = check_netlist_ici(netlist, exempt_blocks=BASELINE.exempt)
        patched, log = patch_model(BASELINE, baseline_result.actions)
        assert len(log) == len(baseline_result.actions)
        assert check_netlist_ici(
            patched, exempt_blocks=BASELINE.exempt
        ).satisfied
        base = BaseState.build(
            netlist, report, BASELINE.n_patterns, BASELINE.seed
        )
        # Built and simulated from scratch (no delta).
        verdict, _, _ = _equivalence_stage(
            base, patched, BASELINE.seed, None
        )
        assert verdict is None
        patched.validate()

    def test_result_json_roundtrip(self, baseline_result):
        from repro.repair import RepairResult

        payload = baseline_result.to_json()
        json.dumps(payload)  # JSON-clean
        restored = RepairResult.from_json(payload)
        assert restored.to_json() == payload
        assert restored.summary() == baseline_result.summary()


# ----------------------------------------------------------------------
# Extended builds: each candidate's compiled form and good values
# ----------------------------------------------------------------------

_COMPILED_FIELDS = (
    "netlist", "n_nets", "source_nets", "source_col", "po_cols", "d_fids",
    "obs_nets", "readers", "topo_pos", "gate_tuples", "driver_gid",
)


def _candidates(spec):
    """Every applicable (kind, patched copy) of the spec's search."""
    from repro.repair import prepare_repair
    from repro.repair.candidates import CANDIDATE_KINDS

    base, _breaks = prepare_repair(spec)
    for v in base.report.violations:
        for kind in CANDIDATE_KINDS:
            patched = base.netlist.copy()
            try:
                apply_candidate(patched, kind, v.observer, exempt=spec.exempt)
            except NotApplicable:
                continue
            yield base, kind, patched


def _outcome(fn):
    """``fn()``'s value, or the NetlistError class it raised."""
    try:
        return fn()
    except NetlistError:
        return NetlistError


def _dd_netlist():
    """One gate and one flop; the double drives below keep this order
    as the prefix of their re-derived order, so the delta itself must
    see them."""
    n = Netlist("dd")
    a = n.add_input("a")
    x = n.add_gate(GateType.NOT, [a], output=n.new_net(), component="a/x")
    n.add_flop(x, name="f", component="a/x")
    return n


def _replace(items, i, **changes):
    """Replace a netlist's gate or flop ``i`` by hand (no netlist edit
    covers these changes)."""
    items[i] = dataclasses.replace(items[i], **changes)


def _reorder(n):
    """A rewire onto a new gate's net drops the cached order; the
    re-derived order is not the base order plus a tail."""
    inv = n.add_gate(GateType.NOT, [0])
    n.rewire_gate(0, [inv, 1])


def _double_drive(n, drive):
    x = n.gates[0].output
    if drive == "fresh_twice":
        m = n.new_net()
        n.add_gate(GateType.BUF, [x], output=m)
        n.add_gate(GateType.BUF, [x], output=m)
    elif drive == "input":
        n.add_gate(GateType.BUF, [x], output=n.primary_inputs[0])
    else:
        n.add_gate(GateType.BUF, [x], output=n.add_flop(x).q_net)
    assert n.topo_gate_order()[:1] == (0,)


#: Patches that are not a delta of their base: (base, edit, raises).
#: Each returns None from NetlistDelta.of, or raises NetlistError.
_NON_DELTA = {
    "moved_output": (
        _two_block_netlist,
        lambda n: _replace(n.gates, 1, output=n.new_net()), False,
    ),
    "gate_type": (
        _two_block_netlist,
        lambda n: _replace(n.gates, 0, gtype=GateType.OR), False,
    ),
    "relabeled_gate": (
        _two_block_netlist,
        lambda n: _replace(n.gates, 0, component="b/logic"), False,
    ),
    # A new primary input shifts the flop columns.
    "appended_pi": (_two_block_netlist, lambda n: n.add_input("z"), False),
    "po_change": (
        _two_block_netlist, lambda n: n.mark_output(n.gates[1].output), False,
    ),
    "flop_q": (
        _two_block_netlist,
        lambda n: _replace(n.flops, 0, q_net=n.new_net()), False,
    ),
    "reorder": (_two_block_netlist, _reorder, False),
    "cycle": (
        _two_block_netlist,
        lambda n: n.rewire_gate(0, [n.gates[1].output, 0]), True,
    ),
    **{
        f"double_drive_{drive}": (
            _dd_netlist, lambda n, d=drive: _double_drive(n, d), True,
        )
        for drive in ("fresh_twice", "input", "flop_q")
    },
}


class TestExtendedBuild:
    @pytest.mark.parametrize("spec, kinds_seen", [
        (BASELINE, {"relabel", "redrive", "latch"}),
        (BROKEN, {"redrive", "latch"}),
    ], ids=["baseline", "rescue-broken"])
    def test_every_candidate_equals_the_full_build(self, spec, kinds_seen):
        import pickle

        import numpy as np

        from repro.netlist.compiled import (
            CompiledNetlist,
            PackedWordSimulator,
        )
        from repro.netlist.delta import NetlistDelta
        from repro.repair.oracle import random_patterns

        kinds = set()
        base_before = None
        for base, kind, patched in _candidates(spec):
            if base_before is None:
                base_before = pickle.dumps(base)
            delta = NetlistDelta.of(base.sim.compiled, patched)
            assert delta is not None, kind
            compiled = CompiledNetlist.extend(base.sim.compiled, delta)
            ref = CompiledNetlist(patched)
            for name in _COMPILED_FIELDS:
                assert getattr(compiled, name) == getattr(ref, name), (
                    kind, name
                )
            sim = PackedWordSimulator(patched, compiled)
            patterns = base.patterns
            extra = sim.n_sources - patterns.shape[1]
            if extra:
                patterns = np.concatenate(
                    [patterns, random_patterns(len(patterns), extra, 1)],
                    axis=1,
                )
            values = sim.extend_values(base.values, patterns, delta.changed)
            full = PackedWordSimulator(patched).good_values(patterns)
            assert values.ints == full.ints, kind
            assert values.npat == full.npat
            kinds.add(kind)
        assert pickle.dumps(base) == base_before  # base lists untouched
        assert kinds == kinds_seen

    @pytest.mark.parametrize("case", sorted(_NON_DELTA))
    def test_non_delta_patch_takes_the_full_path(self, case):
        from repro.netlist.delta import NetlistDelta
        from repro.repair.oracle import _equivalence_stage
        from tests.oracles import scratch_verify

        make, edit, raises = _NON_DELTA[case]
        n = make()
        report = check_netlist_ici(n)
        base = BaseState.build(n, report, 32, seed=0)
        patched = n.copy()
        edit(patched)
        if raises:
            # Raised by the delta itself, as validate() would.
            with pytest.raises(NetlistError):
                NetlistDelta.of(base.sim.compiled, patched)
            with pytest.raises(NetlistError):
                check_netlist_ici(patched)
        else:
            assert NetlistDelta.of(base.sim.compiled, patched) is None
            _v, sim, _values = _equivalence_stage(base, patched, 0, None)
            assert sim.n_sources == len(patched.source_nets())
        args = (base, patched, n.flops[0].name, range(len(patched.gates)))
        TELEMETRY.enable()
        try:
            with TELEMETRY.collect() as m:
                verdict = _outcome(lambda: verify_candidate(*args))
        finally:
            TELEMETRY.disable()
        assert verdict == _outcome(lambda: scratch_verify(*args))
        if raises:
            assert verdict is NetlistError
        else:
            assert m.counters["repair.full_builds"] == 1
            assert m.counters["repair.extended_builds"] == 0


class TestDeterminism:
    def test_plan_invariant_to_workers_chunking_resume(
        self, tmp_path, baseline_result
    ):
        serial = baseline_result.to_json()
        parallel = run_repair(
            BASELINE, workers=2, checkpoint=False
        ).to_json()
        assert parallel == serial
        import dataclasses

        rechunked = run_repair(
            dataclasses.replace(BASELINE, chunk_size=5),
            checkpoint=False,
        ).to_json()
        # chunk_size is part of the spec (it shapes shards), so compare
        # everything except the spec-derived identity: the *plan*.
        for key in ("violations", "actions", "unrepaired", "extra_area",
                    "patched_satisfied", "equivalent"):
            assert rechunked[key] == serial[key]
        # Interrupt-and-resume: seed the store with a partial run, then
        # resume; the merged plan must be identical.
        from repro.repair.campaign import (
            _repair_worker, prepare_repair, repair_items,
        )
        from repro.runner.store import CheckpointStore

        store = CheckpointStore.for_spec("repair", BASELINE, tmp_path)
        items = repair_items(BASELINE)
        base, _breaks = prepare_repair(BASELINE)
        store.append(0, _repair_worker((BASELINE, base), items[0]))
        resumed = run_repair(
            BASELINE, resume=True, cache_root=tmp_path
        ).to_json()
        assert resumed == serial


# ----------------------------------------------------------------------
# Registry / CLI / service integration
# ----------------------------------------------------------------------

class TestIntegration:
    def test_registry_entry_roundtrip(self):
        from repro.runner.registry import get_campaign

        entry = get_campaign("repair")
        spec = entry.make_spec({"model": "rescue", "exempt": ["chipkill"]})
        assert spec == RepairSpec(model="rescue")
        result = entry.run(spec, checkpoint=False)
        payload = result.to_json()
        json.dumps(payload)
        restored = entry.result_cls.from_json(payload)
        assert restored.to_json() == payload
        assert "repair" in restored.summary()

    def test_cli_repair_apply(self, tmp_path, capsys):
        from repro.cli import main

        prefix = str(tmp_path / "patched")
        code = main([
            "repair", "--model", "rescue-broken", "--tiny",
            "--n-patterns", "96", "--no-checkpoint", "--apply", prefix,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "netcheck PASS" in out and "bit-exact" in out
        verilog = (tmp_path / "patched.v").read_text()
        assert "module repaired_core" in verilog
        plan = json.loads((tmp_path / "patched.plan.json").read_text())
        assert plan["campaign"] == "repair"
        assert plan["spec"]["model"] == "rescue-broken"
        assert plan["result"]["patched_satisfied"]
        assert len(plan["transform_log"]) == len(plan["result"]["actions"])

    def test_cli_run_repair_dispatch(self, capsys):
        from repro.cli import main

        code = main([
            "run", "repair", "--model", "rescue", "--tiny",
            "--no-checkpoint",
        ])
        assert code == 0
        assert "0 violations" in capsys.readouterr().out

    def test_cli_lint_json(self, capsys):
        from repro.cli import main

        code = main(["lint", "--tiny", "--baseline", "--json"])
        assert code == 1  # violations present -> documented exit code
        report = json.loads(capsys.readouterr().out)
        assert report["satisfied"] is False
        assert report["violations"]
        first = report["violations"][0]
        assert first["id"].startswith("ici-")
        assert set(first) == {
            "id", "observer", "observer_block", "blocks", "example_gates"
        }

    def test_cli_lint_json_clean_exit_zero(self, capsys):
        from repro.cli import main

        assert main(["lint", "--tiny", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["satisfied"] is True


class TestViolationIds:
    def test_ids_stable_across_rebuilds(self):
        n1, _ = build_model(BASELINE)
        n2, _ = build_model(BASELINE)
        r1 = check_netlist_ici(n1, exempt_blocks=BASELINE.exempt)
        r2 = check_netlist_ici(n2, exempt_blocks=BASELINE.exempt)
        assert [v.vid for v in r1.violations] == [
            v.vid for v in r2.violations
        ]
        assert len({v.vid for v in r1.violations}) == len(r1.violations)

    def test_report_json_roundtrip(self):
        from repro.core.netcheck import NetIciReport

        n, _ = build_model(BASELINE)
        report = check_netlist_ici(n, exempt_blocks=BASELINE.exempt)
        payload = report.to_json()
        json.dumps(payload)
        restored = NetIciReport.from_json(payload)
        assert restored.to_json() == payload
        assert restored.satisfied == report.satisfied


# ----------------------------------------------------------------------
# Scan cache (first-effect disk cache beside the golden prefix)
# ----------------------------------------------------------------------

class TestScanCache:
    def test_scan_cache_roundtrip_and_invalidation(
        self, tmp_path, monkeypatch
    ):
        from repro.inject.goldencache import load_scan, scan_key, store_scan
        from repro.inject.harness import FirstEffect
        from repro.runner import store as store_mod

        scan = {0: FirstEffect(first=12, armed_cycle=3, armed_commits=1)}
        key = scan_key("gkey", 8, 0, "both", None, "uniform")
        store_scan(scan, key, 8, root=tmp_path)
        assert load_scan(key, 8, root=tmp_path) == scan
        # Fault-count mismatch is a miss.
        assert load_scan(key, 9, root=tmp_path) is None
        # An entry from other code is a miss.
        path = store_mod.Blobs("scan", tmp_path).path(key)
        with monkeypatch.context() as m:
            m.setattr(store_mod, "code_fingerprint", lambda: "0" * 64)
            store_scan(scan, key, 8, root=tmp_path)
        assert load_scan(key, 8, root=tmp_path) is None
        # Corrupt file is a miss, not an error.
        path.write_bytes(b"not a pickle")
        assert load_scan(key, 8, root=tmp_path) is None

    def test_key_separates_fault_samples_and_golden(self):
        from repro.inject.goldencache import scan_key

        base = scan_key("g1", 8, 0, "both", None, "uniform")
        assert scan_key("g2", 8, 0, "both", None, "uniform") != base
        assert scan_key("g1", 9, 0, "both", None, "uniform") != base
        assert scan_key("g1", 8, 1, "both", None, "uniform") != base
        assert scan_key(
            "g1", 8, 0, "both", ["rob.half1"], "uniform"
        ) != base
        assert scan_key("g1", 8, 0, "both", None, "weighted") != base

    def test_injection_campaign_hits_scan_cache(
        self, tmp_path, monkeypatch
    ):
        import repro.inject.campaign as ic
        from repro.inject import InjectionSpec, run_injection
        from repro.telemetry import TELEMETRY

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        spec = InjectionSpec(
            n_faults=6, n_instructions=400, chunk_size=3,
            golden_cache=True,
        )
        cold = run_injection(spec, checkpoint=False)
        assert any(
            p.name.startswith("scan-") for p in tmp_path.iterdir()
        )
        ic.prepare_injection.cache_clear()  # force a cold state build
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            warm = run_injection(spec, checkpoint=False)
            counters = dict(TELEMETRY.metrics.counters)
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        assert warm.to_json() == cold.to_json()
        assert counters.get("inject.scan_cache_hits") == 1
        assert counters.get("inject.golden_cache_hits") == 1
