"""Unit + property tests for the augmented TreeMap (Section 3.1)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reference_index import ReferenceIndex
from repro.trees.treemap import TreeMap


def build(entries):
    tree = TreeMap()
    for key, value in entries:
        tree.put(key, value)
    tree.check_invariants()
    return tree


class TestBasics:
    def test_empty(self):
        tree = TreeMap()
        assert len(tree) == 0
        assert not tree
        assert tree.get(1) == 0.0

    def test_put_get(self):
        tree = build([(2, 20), (1, 10), (3, 30)])
        assert tree.get(1) == 10
        assert tree.get(3) == 30
        assert tree.get(9, default=None) is None

    def test_overwrite_and_size(self):
        tree = build([(1, 1)])
        tree.put(1, 2)
        assert len(tree) == 1
        assert tree.get(1) == 2

    def test_add(self):
        tree = TreeMap()
        tree.add(5, 3)
        tree.add(5, 4)
        assert tree.get(5) == 7

    def test_delete_all_shapes(self):
        # leaf, one child, two children
        tree = build([(50, 1), (25, 1), (75, 1), (10, 1), (30, 1), (60, 1), (90, 1)])
        for key in (10, 25, 50, 75, 30, 90, 60):
            tree.delete(key)
            tree.check_invariants()
        assert len(tree) == 0

    def test_delete_missing_raises(self):
        with pytest.raises(KeyError):
            build([(1, 1)]).delete(2)

    def test_pop(self):
        tree = build([(1, 5)])
        assert tree.pop(1) == 5
        assert tree.pop(1, default=99) == 99

    def test_items_sorted(self):
        tree = build([(3, 1), (1, 2), (2, 3)])
        assert list(tree.items()) == [(1, 2), (2, 3), (3, 1)]
        assert list(tree.keys()) == [1, 2, 3]
        assert list(tree.values()) == [2, 3, 1]


class TestAggregates:
    def test_get_sum(self):
        tree = build([(10, 1), (20, 2), (30, 4)])
        assert tree.get_sum(20) == 3
        assert tree.get_sum(20, inclusive=False) == 1
        assert tree.total_sum() == 7
        assert tree.suffix_sum(10) == 6

    def test_shift_keys_is_linear_rebuild_but_correct(self):
        tree = build([(10, 1), (20, 2), (30, 4)])
        tree.shift_keys(15, 100)
        tree.check_invariants()
        assert list(tree.keys()) == [10, 120, 130]

    def test_shift_merges(self):
        tree = build([(10, 1), (15, 2)])
        tree.shift_keys(12, -5)
        assert list(tree.items()) == [(10, 3)]

    def test_first_key_with_prefix_above(self):
        tree = build([(1, 2), (2, 2), (3, 2)])
        assert tree.first_key_with_prefix_above(0) == 1
        assert tree.first_key_with_prefix_above(2) == 2
        assert tree.first_key_with_prefix_above(6) is None

    def test_range_items(self):
        tree = build([(1, 1), (2, 2), (3, 3)])
        assert list(tree.range_items(1, 3, hi_inclusive=False)) == [(2, 2)]

    def test_successor_predecessor_min_max(self):
        tree = build([(5, 1), (10, 1)])
        assert tree.successor(5) == 10
        assert tree.predecessor(10) == 5
        assert tree.min_key() == 5
        assert tree.max_key() == 10
        with pytest.raises(KeyError):
            TreeMap().min_key()


class TestBalance:
    def test_sequential_inserts(self):
        tree = TreeMap()
        for key in range(4096):
            tree.put(key, 1)
        tree.check_invariants()

    def test_height_logarithmic(self):
        tree = TreeMap()
        n = 5000
        for key in range(n):
            tree.add(key, 1)
        # walk to the deepest node
        def depth(node):
            if node is None:
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        assert depth(tree._root) <= int(1.45 * math.log2(n + 2)) + 1


KEYS = st.integers(min_value=-25, max_value=25)
VALUES = st.integers(min_value=-9, max_value=9)


class TestProperties:
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["put", "add", "delete"]), KEYS, VALUES),
            max_size=60,
        ),
        probe=KEYS,
    )
    @settings(max_examples=250, deadline=None)
    def test_matches_oracle(self, ops, probe):
        tree = TreeMap()
        oracle = ReferenceIndex()
        for kind, key, value in ops:
            if kind == "put":
                tree.put(key, value)
                oracle.put(key, value)
            elif kind == "add":
                tree.add(key, value)
                oracle.add(key, value)
            elif key in oracle:
                assert tree.delete(key) == oracle.delete(key)
            tree.check_invariants()
        assert list(tree.items()) == list(oracle.items())
        assert tree.get_sum(probe) == oracle.get_sum(probe)
        assert tree.successor(probe) == oracle.successor(probe)
        assert tree.predecessor(probe) == oracle.predecessor(probe)


class TestFetchAdd:
    """``fetch_add`` ≡ ``get`` + ``get_sum(inclusive=False)`` + ``add``,
    from the add's own descent."""

    def three_walks(self, tree, key, delta):
        before = (tree.get(key, 0), tree.get_sum(key, inclusive=False))
        tree.add(key, delta)
        return before

    def test_existing_key(self):
        tree = build([(10, 1), (20, 2), (30, 4)])
        assert tree.fetch_add(20, 5) == (2, 1)
        assert tree.get(20) == 7
        assert tree.get_sum(30) == 12

    def test_new_key(self):
        tree = build([(10, 1), (20, 2), (30, 4)])
        assert tree.fetch_add(25, 8) == (0, 3)
        assert list(tree.items()) == [(10, 1), (20, 2), (25, 8), (30, 4)]
        tree.check_invariants()
        assert tree.fetch_add(5, 1) == (0, 0)
        assert tree.fetch_add(99, 1) == (0, 16)

    def test_empty_map(self):
        tree = TreeMap(prune_zeros=True)
        assert tree.fetch_add(7, 0) == (0, 0)
        assert len(tree) == 0
        assert tree.fetch_add(7, 3) == (0, 0)
        assert tree.get(7) == 3

    def test_delta_that_prunes_the_key(self):
        tree = TreeMap(prune_zeros=True)
        for key, value in [(10, 1), (20, 2), (30, 4)]:
            tree.put(key, value)
        assert tree.fetch_add(20, -2) == (2, 1)
        assert list(tree.items()) == [(10, 1), (30, 4)]
        tree.check_invariants()

    @given(
        ops=st.lists(st.tuples(KEYS, st.integers(min_value=-3, max_value=3)), max_size=80),
        prune=st.booleans(),
    )
    @settings(max_examples=250, deadline=None)
    def test_matches_three_walks(self, ops, prune):
        fused = TreeMap(prune_zeros=prune)
        plain = TreeMap(prune_zeros=prune)
        for key, delta in ops:
            assert fused.fetch_add(key, delta) == self.three_walks(plain, key, delta)
            fused.check_invariants()
            assert list(fused.items()) == list(plain.items())


class TestFirstKeyAndPrefixAbove:
    """``first_key_and_prefix_above`` ≡ ``first_key_with_prefix_above``
    + ``get_sum(key, inclusive=False)``, from one descent."""

    def test_fixed(self):
        tree = build([(10, 1), (20, 2), (30, 4)])
        assert tree.first_key_and_prefix_above(0) == (10, 0)
        assert tree.first_key_and_prefix_above(2) == (20, 1)
        assert tree.first_key_and_prefix_above(3) == (30, 3)
        assert tree.first_key_and_prefix_above(7) is None
        assert TreeMap().first_key_and_prefix_above(0) is None

    @given(
        entries=st.dictionaries(KEYS, st.integers(min_value=0, max_value=9), max_size=40),
        threshold=st.integers(min_value=-2, max_value=200) | st.floats(0, 200),
    )
    @settings(max_examples=250, deadline=None)
    def test_matches_two_walks(self, entries, threshold):
        tree = build(sorted(entries.items()))
        key = tree.first_key_with_prefix_above(threshold)
        found = tree.first_key_and_prefix_above(threshold)
        if key is None:
            assert found is None
        else:
            below = tree.get_sum(key, inclusive=False)
            assert (found, type(found[1])) == ((key, below), type(below))
