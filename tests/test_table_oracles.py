"""Flat checkpointable tables against their list-based oracles.

The cache sets and BTB sets are immutable MRU-ordered tuples and the
direction-predictor tables are ``bytearray``\\ s, so that a snapshot or
restore of each is one flat copy.  These properties drive the
production tables and the list-based references in
:mod:`tests.oracles.tables` with the same random streams and require
equal hit/miss sequences, load latencies, predictions, counter states
and per-set MRU order.  A second group checks the copy contract at the
core level: snapshot -> restore -> snapshot is the identity, and running
the restored core leaves the snapshot untouched (nothing aliases it).

The ``slow`` variants rerun the stream properties with many more
examples (``pytest -m slow tests/test_table_oracles.py``).
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu import ArchState, Core, MachineConfig
from repro.cpu.bpred import FrontendPredictor
from repro.cpu.caches import Cache, MemoryHierarchy
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import profile
from tests.oracles import tables as oracle

FULL = MachineConfig(rescue=True)

#: Small geometries whose sets fill and evict within a short stream.
GEOMETRIES = st.sampled_from([
    (1, 1, 32), (1, 2, 32), (1, 4, 16), (2, 8, 64), (4, 2, 32),
])


def _conflicting(span: int, n_sets: int, block: int):
    """Addresses concentrated on a few sets, so sets fill and evict."""
    return st.builds(
        lambda tag, s, off: tag * span + s * block + off,
        st.integers(0, 19), st.integers(0, n_sets - 1),
        st.integers(0, block - 1),
    )


# ----------------------------------------------------------------------
# Caches
# ----------------------------------------------------------------------

def _check_cache_stream(geometry, ops):
    size_kb, assoc, block = geometry
    got = Cache(size_kb, assoc, block, latency=1)
    ref = oracle.Cache(size_kb, assoc, block, latency=1)
    span = got.sets * block
    for silent, tag, s, off in ops:
        addr = tag * span + (s % got.sets) * block + off % block
        if silent:
            assert got.touch_silent(addr) == ref.touch_silent(addr)
        else:
            assert got.access(addr) == ref.access(addr)
    assert (got.hits, got.misses) == (ref.hits, ref.misses)
    assert [tuple(w) for w in ref.tags] == got.tags


_CACHE_OPS = st.lists(
    st.tuples(
        st.booleans(), st.integers(0, 11), st.integers(0, 3),
        st.integers(0, 63),
    ),
    max_size=200,
)


@settings(max_examples=60, deadline=None)
@given(geometry=GEOMETRIES, ops=_CACHE_OPS)
def test_cache_matches_oracle(geometry, ops):
    _check_cache_stream(geometry, ops)


@pytest.mark.slow
@settings(max_examples=1500, deadline=None)
@given(geometry=GEOMETRIES, ops=_CACHE_OPS)
def test_cache_matches_oracle_many(geometry, ops):
    _check_cache_stream(geometry, ops)


def _oracle_hierarchy(prefetch: bool) -> MemoryHierarchy:
    """The Table 1 hierarchy with both levels swapped for oracles."""
    mh = MemoryHierarchy(FULL, prefetch=prefetch)
    for name in ("l1d", "l2"):
        lvl = getattr(mh, name)
        setattr(mh, name, oracle.Cache(
            lvl.sets * lvl.assoc * lvl.block // 1024, lvl.assoc,
            lvl.block, lvl.latency, name=lvl.name,
        ))
    return mh


def _check_hierarchy_stream(prefetch, ops):
    got = MemoryHierarchy(FULL, prefetch=prefetch)
    ref = _oracle_hierarchy(prefetch)
    for store, addr in ops:
        if store:
            got.store_touch(addr)
            ref.store_touch(addr)
        else:
            assert got.load_latency(addr) == ref.load_latency(addr)
    for name in ("l1d", "l2"):
        g, r = getattr(got, name), getattr(ref, name)
        assert (g.hits, g.misses) == (r.hits, r.misses)
        assert [tuple(w) for w in r.tags] == g.tags


def _hierarchy_ops():
    l2 = MemoryHierarchy(FULL).l2
    addrs = st.one_of(
        _conflicting(l2.sets * l2.block, 4, l2.block),
        st.integers(0, 1 << 22),
    )
    return st.lists(st.tuples(st.booleans(), addrs), max_size=150)


@settings(max_examples=40, deadline=None)
@given(prefetch=st.booleans(), ops=_hierarchy_ops())
def test_hierarchy_latencies_match_oracle(prefetch, ops):
    _check_hierarchy_stream(prefetch, ops)


@pytest.mark.slow
@settings(max_examples=600, deadline=None)
@given(prefetch=st.booleans(), ops=_hierarchy_ops())
def test_hierarchy_latencies_match_oracle_many(prefetch, ops):
    _check_hierarchy_stream(prefetch, ops)


# ----------------------------------------------------------------------
# Branch prediction
# ----------------------------------------------------------------------

def _check_branch_stream(ops):
    params = FULL.core
    got = FrontendPredictor(params)
    ref = FrontendPredictor(params)
    ref.hybrid = oracle.HybridPredictor()
    ref.btb = oracle.Btb(params.btb_entries, params.btb_assoc)
    for pc, taken, target in ops:
        assert got.hybrid.predict(pc) == ref.hybrid.predict(pc)
        assert got.predict_and_update(pc, taken, target) == (
            ref.predict_and_update(pc, taken, target)
        )
    assert got.mispredicts == ref.mispredicts
    h, r = got.hybrid, ref.hybrid
    assert list(h.bimodal) == r.bimodal
    assert list(h.gshare) == r.gshare
    assert list(h.chooser) == r.chooser
    assert h.history == r.history
    assert [tuple(w) for w in ref.btb.table] == got.btb.table


def _branch_ops():
    sets = FULL.core.btb_entries // FULL.core.btb_assoc
    # Word-aligned PCs colliding in a few BTB sets and predictor rows.
    pcs = st.builds(
        lambda tag, s: ((tag * sets + s) << 2),
        st.integers(0, 9), st.integers(0, 3),
    )
    return st.lists(
        st.tuples(
            pcs, st.booleans(), st.integers(0, 7).map(lambda t: t * 4)
        ),
        max_size=300,
    )


@settings(max_examples=40, deadline=None)
@given(ops=_branch_ops())
def test_predictor_matches_oracle(ops):
    _check_branch_stream(ops)


@pytest.mark.slow
@settings(max_examples=800, deadline=None)
@given(ops=_branch_ops())
def test_predictor_matches_oracle_many(ops):
    _check_branch_stream(ops)


# ----------------------------------------------------------------------
# Snapshot copy contract
# ----------------------------------------------------------------------

def _cut_core(seed: int, cut: int, n: int = 300):
    trace = generate_trace(profile("mcf"), n, seed=seed)
    core = Core(FULL, iter(trace), arch=ArchState(FULL))
    core.run(n, on_cycle=lambda c: c.cycle >= cut)
    return core, trace


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16), cut=st.integers(1, 600))
def test_snapshot_restore_snapshot_round_trip(seed, cut):
    core, trace = _cut_core(seed, cut)
    snap = core.snapshot()
    restored = Core(FULL, iter(()), arch=ArchState(FULL))
    restored.restore(snap, trace)
    assert restored.snapshot() == snap


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16), cut=st.integers(1, 600))
def test_running_restored_core_leaves_snapshot_unchanged(seed, cut):
    core, trace = _cut_core(seed, cut)
    snap = core.snapshot()
    frozen = pickle.dumps(snap)
    restored = Core(FULL, iter(()), arch=ArchState(FULL))
    restored.restore(snap, trace)
    restored.run(len(trace))
    # Also run the original on: its live tables must not share state
    # with the snapshot either.
    core.run(len(trace))
    assert pickle.loads(frozen) == snap
    restored.restore(snap, trace)
    assert restored.snapshot() == snap
