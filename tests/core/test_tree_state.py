"""Pickled tree state: flat, stamped, and structure-exact.

``RPAITree`` (every width) and ``TreeMap`` pickle as one flat sequence
per node field in pre-order instead of a graph of node objects.  What
these tests pin is that the flat form loses nothing: a restored tree is
the pickled one *node for node* — same shape, same relative keys, same
offsets, same sums, each with the type it had — so everything that
follows (rotations included) happens exactly as it would have on the
original.  A rebuild through ``bulk_load`` would pass an ``items()``
comparison and fail every one of these.
"""

from __future__ import annotations

import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.rpai import RPAITree
from repro.engine.registry import build_engine
from repro.errors import EngineStateError
from repro.trees._avl import FLAT_LAYOUT
from repro.trees.treemap import TreeMap

from tests.engine.test_checkpointing import ALL_QUERIES, _stream

# Dyadic rationals: non-integer floats whose sums and differences are
# exact, so the trees' own ``==`` invariants hold whatever the order of
# the arithmetic.  Values mix ``int`` and ``float`` on purpose.
KEYS = st.one_of(
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=-160, max_value=160).map(lambda n: n / 4),
)
NUMBERS = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-36, max_value=36).map(lambda n: n / 4),
)


def operations(width: int, max_size: int):
    values = st.tuples(*[NUMBERS] * width)
    return st.lists(
        st.one_of(
            st.tuples(st.just("put"), KEYS, values),
            st.tuples(st.just("add"), KEYS, values),
            st.tuples(st.just("delete"), KEYS, values),
            st.tuples(st.just("shift"), KEYS, NUMBERS),
            st.tuples(st.just("shift_inclusive"), KEYS, NUMBERS),
        ),
        max_size=max_size,
    )


def apply_op(tree, op: tuple) -> None:
    kind, key, payload = op
    if kind == "put":
        tree.put(key, *payload)
    elif kind == "add":
        tree.add(key, *payload)
    elif kind == "delete":
        tree.pop(key)
    else:
        tree.shift_keys(key, payload, inclusive=kind == "shift_inclusive")


def listing(tree) -> list[tuple]:
    """Every node's stored fields, with their types, in pre-order."""
    out: list[tuple] = []
    stack = [tree._root]
    while stack:
        node = stack.pop()
        if node is None:
            continue
        fields = [name for name in node.__slots__ if name not in ("left", "right")]
        out.append(tuple((name, getattr(node, name), type(getattr(node, name))) for name in fields))
        stack.append(node.right)
        stack.append(node.left)
    return out


def rows(tree) -> list:
    return list(tree.rows() if isinstance(tree, RPAITree) else tree.items())


def rotations(tree, ops: list[tuple]) -> int:
    """Apply ``ops`` and return how many rotations they cost."""
    counter = "rpai.rotations" if isinstance(tree, RPAITree) else "treemap.rotations"
    obs.reset()
    obs.enable()
    try:
        for op in ops:
            apply_op(tree, op)
        return obs.snapshot()["counters"].get(counter, 0)
    finally:
        obs.disable()
        obs.reset()


def assert_roundtrip_is_exact(tree, further: list[tuple], probes: list) -> None:
    restored = pickle.loads(pickle.dumps(tree, pickle.HIGHEST_PROTOCOL))
    assert type(restored) is type(tree)
    assert restored.prune_zeros == tree.prune_zeros
    assert len(restored) == len(tree)
    restored.check_invariants()
    assert listing(restored) == listing(tree)
    # ...and from here on the two are indistinguishable.
    assert rotations(restored, further) == rotations(tree, further)
    restored.check_invariants()
    assert listing(restored) == listing(tree)
    assert rows(restored) == rows(tree)
    for probe in probes:
        assert restored.get_sum(probe) == tree.get_sum(probe)
        assert restored.get_sum(probe, inclusive=False) == tree.get_sum(probe, inclusive=False)


class TestRoundTrip:
    @pytest.mark.parametrize("width", [1, 2, 3])
    @given(data=st.data(), prune=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_rpai_tree(self, width, data, prune):
        tree = RPAITree(columns=width, prune_zeros=prune)
        for op in data.draw(operations(width, 80)):
            apply_op(tree, op)
        further = data.draw(operations(width, 200))
        assert_roundtrip_is_exact(tree, further, data.draw(st.lists(KEYS, max_size=5)))

    @given(data=st.data(), prune=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_treemap(self, data, prune):
        tree = TreeMap(prune_zeros=prune)
        for op in data.draw(operations(1, 80)):
            apply_op(tree, op)
        further = data.draw(operations(1, 200))
        assert_roundtrip_is_exact(tree, further, data.draw(st.lists(KEYS, max_size=5)))

    @pytest.mark.parametrize("make", [RPAITree, lambda: RPAITree(columns=2), TreeMap])
    def test_empty_tree(self, make):
        restored = pickle.loads(pickle.dumps(make()))
        assert len(restored) == 0 and restored._root is None
        restored.check_invariants()

    def test_values_beyond_int64_and_bools_keep_their_type(self):
        tree = RPAITree()
        for key, value in ((1, 1 << 70), (2, True), (3, -0.0), (4, 2.5)):
            tree.put(key, value)
        assert listing(pickle.loads(pickle.dumps(tree))) == listing(tree)


class TestLayoutStamp:
    """A state this code did not write is refused, never half-read."""

    @pytest.mark.parametrize("make", [RPAITree, lambda: RPAITree(columns=2), TreeMap])
    def test_unknown_stamp_and_object_graph_state_are_refused(self, make):
        tree = make()
        stamp, prune, fields = tree.__getstate__()
        assert stamp == FLAT_LAYOUT
        for state in (
            ("repro.tree/some-later-layout", prune, fields),
            (FLAT_LAYOUT, prune, fields[:-1]),
            # what object.__getstate__ gave for the __slots__ tree before
            (None, {"_root": None, "_size": 0, "prune_zeros": False}),
            {"_root": None},
        ):
            with pytest.raises(EngineStateError):
                make().__setstate__(state)


def trees_of(root, depth: int = 6) -> list:
    """Every ``RPAITree``/``TreeMap`` reachable from an engine's state,
    in a deterministic order."""
    found, seen, stack = [], set(), [(root, 0)]
    while stack:
        item, level = stack.pop()
        if id(item) in seen or isinstance(item, (str, bytes, int, float, type(None))):
            continue
        seen.add(id(item))
        if isinstance(item, (RPAITree, TreeMap)):
            found.append(item)
        elif level < depth:
            if isinstance(item, dict):
                children = list(item.values())
            elif isinstance(item, (list, tuple)):
                children = list(item)
            else:
                children = list(getattr(item, "__dict__", {}).values())
                for klass in type(item).__mro__:
                    children.extend(
                        getattr(item, slot)
                        for slot in getattr(klass, "__slots__", ())
                        if hasattr(item, slot)
                    )
            stack.extend((child, level + 1) for child in children)
    return found


class TestEngines:
    @pytest.mark.parametrize("name", ALL_QUERIES)
    def test_mid_stream_snapshot_restores_every_tree_node_for_node(self, name):
        stream = list(_stream(name))
        engine = build_engine(name, "rpai")
        for event in stream[: len(stream) // 2]:
            engine.on_event(event)
        restored = pickle.loads(pickle.dumps(engine, pickle.HIGHEST_PROTOCOL))
        before, after = trees_of(engine), trees_of(restored)
        assert [type(tree) for tree in after] == [type(tree) for tree in before]
        for original, copy in zip(before, after):
            assert listing(copy) == listing(original)
        for event in stream[len(stream) // 2 :]:
            assert restored.on_event(event) == engine.on_event(event)

    def test_snapshot_makes_no_python_call_per_node(self):
        """The point of the flat state: ``pickle.dumps`` of an engine
        over ~4k keys runs a fixed handful of Python functions (the
        ``__getstate__`` hooks and their helpers), not one reduce per
        node — asserted on calls, which do not depend on the host."""
        from repro.storage.stream import Event

        engine = build_engine("VWAP", "rpai")
        engine.on_batch([
            Event("bids", {"timestamp": i, "id": i, "broker_id": 0,
                           "volume": 1 + i % 7, "price": 1 + (i * 7919) % 4099}, +1)
            for i in range(4000)
        ])
        nodes = sum(len(tree) for tree in trees_of(engine))
        assert nodes > 7000  # a bound map and an aggregate index of ~4k keys each
        calls = 0

        def count(_frame, event, _arg):
            nonlocal calls
            calls += event == "call"

        sys.setprofile(count)
        try:
            payload = pickle.dumps(engine, pickle.HIGHEST_PROTOCOL)
        finally:
            sys.setprofile(None)
        assert calls < 100, f"{calls} Python calls to pickle {nodes} nodes"
        assert pickle.loads(payload).result() == engine.result()
