"""Conformance suite: every aggregate-index class against the oracle.

The engines take their index as a plain class (``index_cls``): the two
runtime backends :func:`repro.query.planner.choose_backend` picks
(PAIMap, RPAITree) and the paper's §6 / §3.2.5 comparators (Fenwick,
segment tree, RPAI B-tree) substituted through
``build_single_index_engine(query, index_cls=...)``.  Every one of them
must expose identical observable behavior on the
:class:`~repro.core.interfaces.AggregateIndex` protocol — same items,
same prefix sums, same order helpers, same pickle round-trip.  This is
the differential contract the per-structure suites assume; the
per-structure suites then cover each backend's own edge cases (growth
boundaries, rotation paths, node splits).

Two op-stream families:

* a *universal* stream (non-negative int keys, upward shifts) that every
  backend — including the dense positional ones — must replay
  identically, and
* a *sparse-only* stream (negative/float keys, downward shifts) for the
  backends that accept an arbitrary ordered universe.

The last section runs the engines themselves on each class: an engine
is correct on any conforming ``AggregateIndex``.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pai_map import PAIMap
from repro.core.reference_index import ReferenceIndex
from repro.core.rpai import RPAITree
from repro.engine.aggr_index import build_single_index_engine
from repro.engine.naive import NaiveEngine
from repro.errors import KeyUniverseError
from repro.query.parser import parse_query
from repro.storage.schema import WORKLOAD_SCHEMAS
from repro.storage.stream import Event, Stream
from repro.trees import FenwickTree, RPAIBTree, SegmentTree
from repro.workloads import get_query

from tests.conftest import random_bid_stream

BACKEND_CLASSES = {
    "paimap": PAIMap,
    "fenwick": FenwickTree,
    "segment": SegmentTree,
    "rpai": RPAITree,
    "rpai_btree": RPAIBTree,
}
#: Accept any ordered key; the other two index a dense int universe.
SPARSE_BACKENDS = ("paimap", "rpai", "rpai_btree")
#: Shift a key range in O(log n) — the only classes a range role can use.
NATIVE_SHIFT_BACKENDS = ("rpai", "rpai_btree")

# Universal stream: keys any backend accepts.  Shifts move keys up only
# (a downward shift may push a key below zero, out of the dense
# positional universe — that case is covered per-structure as the
# KeyUniverseError / migration path, not here).
U_KEYS = st.integers(min_value=0, max_value=40)
U_VALUES = st.integers(min_value=-9, max_value=9)
U_SHIFTS = st.integers(min_value=1, max_value=7)

UNIVERSAL_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), U_KEYS, U_VALUES),
        st.tuples(st.just("add"), U_KEYS, U_VALUES),
        st.tuples(st.just("delete"), U_KEYS, st.just(0)),
        st.tuples(st.just("shift"), U_KEYS, U_SHIFTS),
    ),
    min_size=1,
    max_size=50,
)

# Sparse-only stream: negative keys and downward shifts too.
S_KEYS = st.integers(min_value=-30, max_value=30)
S_SHIFTS = st.integers(min_value=-12, max_value=12)

SPARSE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), S_KEYS, U_VALUES),
        st.tuples(st.just("add"), S_KEYS, U_VALUES),
        st.tuples(st.just("delete"), S_KEYS, st.just(0)),
        st.tuples(st.just("shift"), S_KEYS, S_SHIFTS),
        st.tuples(st.just("shift_inclusive"), S_KEYS, S_SHIFTS),
    ),
    min_size=1,
    max_size=50,
)


def apply_op(index, op: tuple) -> None:
    kind, key, value = op
    if kind == "put":
        index.put(key, value)
    elif kind == "add":
        index.add(key, value)
    elif kind == "delete":
        if key in index:
            index.delete(key)
    elif kind == "shift":
        index.shift_keys(key, value)
    elif kind == "shift_inclusive":
        index.shift_keys(key, value, inclusive=True)


def assert_same_observable_state(index, oracle, probe) -> None:
    assert sorted(index.items()) == sorted(oracle.items())
    assert len(index) == len(oracle)
    assert index.total_sum() == oracle.total_sum()
    assert index.get_sum(probe) == oracle.get_sum(probe)
    assert index.get_sum(probe, inclusive=False) == oracle.get_sum(
        probe, inclusive=False
    )
    assert index.get(probe, None) == oracle.get(probe, None)
    assert index.successor(probe) == oracle.successor(probe)
    assert index.predecessor(probe) == oracle.predecessor(probe)
    assert (probe in index) == (probe in oracle)


# Plain parametrize, not a fixture: hypothesis re-runs the test body per
# example without resetting function-scoped fixtures, and a string param
# carries no state to reset anyway.
ALL_BACKENDS = pytest.mark.parametrize("backend", sorted(BACKEND_CLASSES))


@ALL_BACKENDS
class TestUniversalConformance:
    """All five backends on the dense-safe stream."""

    # Always prune_zeros=True: that is how every engine builds its
    # index, and it is the only mode the dense positional backends can
    # honor exactly (a flat array has no presence set, so an explicit
    # zero-valued entry is indistinguishable from an absent key).
    @given(ops=UNIVERSAL_OPS, probe=U_KEYS)
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle(self, backend, ops, probe):
        index = BACKEND_CLASSES[backend](prune_zeros=True)
        oracle = ReferenceIndex(prune_zeros=True)
        for op in ops:
            apply_op(index, op)
            apply_op(oracle, op)
        assert_same_observable_state(index, oracle, probe)

    @given(ops=UNIVERSAL_OPS, probe=U_KEYS)
    @settings(max_examples=100, deadline=None)
    def test_pickle_roundtrip_preserves_state(self, backend, ops, probe):
        index = BACKEND_CLASSES[backend](prune_zeros=True)
        oracle = ReferenceIndex(prune_zeros=True)
        for op in ops:
            apply_op(index, op)
            apply_op(oracle, op)
        restored = pickle.loads(pickle.dumps(index))
        assert type(restored) is type(index)
        assert_same_observable_state(restored, oracle, probe)
        # The restored copy must stay live, not just readable.
        restored.add(probe, 3)
        oracle.add(probe, 3)
        assert_same_observable_state(restored, oracle, probe)

    @given(
        entries=st.dictionaries(
            U_KEYS, st.integers(min_value=-9, max_value=9), max_size=30
        ),
        probe=U_KEYS,
    )
    @settings(max_examples=100, deadline=None)
    def test_bulk_load_matches_incremental(self, backend, entries, probe):
        items = sorted(entries.items())
        loaded = BACKEND_CLASSES[backend].bulk_load(items, prune_zeros=True)
        oracle = ReferenceIndex(prune_zeros=True)
        for key, value in items:
            oracle.put(key, value)
        assert_same_observable_state(loaded, oracle, probe)


@ALL_BACKENDS
class TestSparseConformance:
    """The arbitrary-universe backends on the full stream."""

    @given(ops=SPARSE_OPS, probe=S_KEYS)
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle(self, backend, ops, probe):
        if backend not in SPARSE_BACKENDS:
            pytest.skip("dense positional universe")
        index = BACKEND_CLASSES[backend](prune_zeros=True)
        oracle = ReferenceIndex(prune_zeros=True)
        for op in ops:
            apply_op(index, op)
            apply_op(oracle, op)
        assert_same_observable_state(index, oracle, probe)


# -- engines on every conforming class ----------------------------------------

# EQ's shape with an integer fixed side: the registry EQ probes with
# ``0.5 * SUM(B)``, and a raw FenwickTree indexes a list with its key,
# so it can only be probed with ints.
EQ_INT_PROBE = parse_query(
    """
    SELECT SUM(r.A * r.B) FROM R r
    WHERE (SELECT COUNT(*) FROM R r1)
        = (SELECT SUM(r2.B) FROM R r2 WHERE r2.A = r.A)
    """
)


def r_stream(count: int, seed: int, *, b_min: int) -> Stream:
    """Random insert/delete ``R(A, B)`` stream with ``B >= b_min``.
    Aggregate keys are per-``A`` sums of ``B``: ``b_min=1`` keeps them
    non-negative ints well inside the dense universe, a negative
    ``b_min`` drives some of them below zero.
    """
    rng = random.Random(seed)
    events: list[Event] = []
    live: list[dict] = []
    while len(events) < count:
        if live and rng.random() < 0.3:
            events.append(Event("R", live.pop(rng.randrange(len(live))), -1))
        else:
            row = {"A": rng.randint(1, 12), "B": rng.randint(b_min, 9)}
            live.append(row)
            events.append(Event("R", row, +1))
    return Stream(events)


def naive_trace(ast, stream):
    return NaiveEngine(ast, WORKLOAD_SCHEMAS).results_trace(stream)


class TestEnginesOnAnyConformingIndex:
    @pytest.mark.parametrize("backend", SPARSE_BACKENDS)
    def test_point_engine_on_sparse_classes(self, backend):
        ast = get_query("EQ").ast
        stream = r_stream(300, seed=5, b_min=-9)
        engine = build_single_index_engine(ast, index_cls=BACKEND_CLASSES[backend])
        assert type(engine.sides[0].index) is BACKEND_CLASSES[backend]
        assert engine.results_trace(stream) == naive_trace(ast, stream)

    @pytest.mark.parametrize("backend", ("fenwick", "segment"))
    def test_point_engine_on_dense_classes_inside_universe(self, backend):
        stream = r_stream(300, seed=6, b_min=1)
        engine = build_single_index_engine(
            EQ_INT_PROBE, index_cls=BACKEND_CLASSES[backend]
        )
        assert type(engine.sides[0].index) is BACKEND_CLASSES[backend]
        assert engine.results_trace(stream) == naive_trace(EQ_INT_PROBE, stream)

    @pytest.mark.parametrize(
        "backend, error",
        # SegmentTree raises the typed error; FenwickTree predates it
        # and raises the bare IndexError that KeyUniverseError subclasses.
        [("segment", KeyUniverseError), ("fenwick", IndexError)],
    )
    def test_dense_classes_reject_keys_outside_universe(self, backend, error):
        """No guard wrapper sits between engine and index any more: a
        negative group sum is a negative index key."""
        engine = build_single_index_engine(
            EQ_INT_PROBE, index_cls=BACKEND_CLASSES[backend]
        )
        with pytest.raises(error):
            engine.on_event(Event("R", {"A": 1, "B": -3}, +1))

    @pytest.mark.parametrize("backend", NATIVE_SHIFT_BACKENDS)
    def test_range_engine_on_native_shift_trees(self, backend):
        ast = get_query("VWAP").ast
        stream = random_bid_stream(250, seed=7)
        engine = build_single_index_engine(ast, index_cls=BACKEND_CLASSES[backend])
        assert type(engine.sides[0].index) is BACKEND_CLASSES[backend]
        assert engine.results_trace(stream) == naive_trace(ast, stream)

    @pytest.mark.parametrize("backend", sorted({*BACKEND_CLASSES, "treemap"}))
    def test_two_column_engine_needs_the_rpai_tree(self, backend):
        """MST's sides carry two required sums per key: the RPAITree runs
        it, and a one-column backend is refused at build with a typed
        error naming the width."""
        from repro.errors import UnsupportedQueryError
        from repro.trees.treemap import TreeMap
        from repro.workloads import OrderBookConfig, generate_order_book

        ast = get_query("MST").ast
        index_cls = BACKEND_CLASSES.get(backend, TreeMap)
        if index_cls is not RPAITree:
            with pytest.raises(UnsupportedQueryError, match="2 columns"):
                build_single_index_engine(ast, index_cls=index_cls)
            return
        stream = generate_order_book(
            OrderBookConfig(events=80, price_levels=20, volume_max=9, seed=8, delete_ratio=0.25)
        )
        engine = build_single_index_engine(ast, index_cls=index_cls)
        assert engine.results_trace(stream) == naive_trace(ast, stream)
