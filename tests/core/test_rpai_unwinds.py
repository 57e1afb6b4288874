"""The three unwinds (insert, delete, negative shift) stop doing full
``_update``/rebalance work where the tree stops changing and finish
with sum/offset patches, and the positive shift has no unwind: it runs
top down.  After each, every node's ``height``/``sum``/``min_off``/
``max_off`` must equal a from-scratch recomputation from its children —
which is exactly what ``check_invariants`` asserts — in each of the
situations that take a different way through the unwind or the pass.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro import obs
from repro.core.rpai import RPAITree
from repro.trees.treemap import TreeMap

from tests.engine.shift_reference import bottom_up_shift


def ladder(n: int = 64, *, columns: int = 1, step: int = 10) -> RPAITree:
    """Keys 0, step, 2*step, ...; value 1 in every column."""
    rows = [(k * step, *([1] * columns)) for k in range(n)]
    return RPAITree.bulk_load(rows, columns=columns)


def rpai_counters(fn) -> dict:
    obs.enable()
    obs.reset()
    try:
        fn()
        return obs.snapshot()["counters"]
    finally:
        obs.disable()
        obs.reset()


@pytest.mark.parametrize("columns", [1, 2])
class TestNegativeShiftUnwind:
    def test_no_violation_stays_on_the_patch_path(self, columns):
        tree = ladder(columns=columns)
        before = [row[1:] for row in tree.rows()]
        counters = rpai_counters(lambda: tree.shift_keys(305, -5))
        assert counters.get("rpai.fix_tree", 0) == 0
        assert counters.get("rpai.rotations", 0) == 0
        tree.check_invariants()
        assert [row[0] for row in tree.rows()] == [
            k * 10 if k * 10 <= 305 else k * 10 - 5 for k in range(64)
        ]
        assert [row[1:] for row in tree.rows()] == before

    def test_one_violation_merging_onto_its_neighbour(self, columns):
        tree = ladder(columns=columns)
        counters = rpai_counters(lambda: tree.shift_keys(305, -10))
        assert counters["rpai.fix_tree"] == 1
        assert counters["rpai.violations"] == 1
        tree.check_invariants()
        assert len(tree) == 63
        assert tree.get(300) == (2 if columns == 1 else (2, 2))

    def test_one_violation_crossing_its_neighbour(self, columns):
        tree = ladder(columns=columns)
        counters = rpai_counters(lambda: tree.shift_keys(305, -15))
        assert counters["rpai.fix_tree"] == 1
        tree.check_invariants()
        assert len(tree) == 64
        assert 295 in tree and 310 not in tree

    def test_violations_at_several_levels(self, columns):
        tree = ladder(columns=columns)
        counters = rpai_counters(lambda: tree.shift_keys(5, -300))
        assert counters["rpai.fix_tree"] >= 2
        tree.check_invariants()
        assert tree.min_key() == -290
        total = tree.total_sum()
        assert total == (64 if columns == 1 else (64, 64))

    def test_many_violators_at_one_level(self, columns):
        tree = ladder(columns=columns)
        counters = rpai_counters(lambda: tree.shift_keys(315, -300))
        assert counters["rpai.violations"] >= 10
        tree.check_invariants()


@pytest.mark.parametrize("columns", [1, 2])
class TestDeleteUnwind:
    def test_two_children_with_a_deep_successor(self, columns):
        tree = ladder(127, columns=columns)  # perfect tree, height 7
        root_key = tree._root.key
        assert tree._root.left is not None and tree._root.right is not None
        successor = tree.successor(root_key)
        removed = tree.delete(root_key)
        assert removed == (1 if columns == 1 else (1, 1))
        tree.check_invariants()
        assert root_key not in tree and successor in tree
        assert len(tree) == 126

    def test_leaf_whose_parent_keeps_its_height(self, columns):
        tree = ladder(127, columns=columns)
        tree.delete(0)  # leftmost leaf; its sibling keeps the parent's height
        tree.check_invariants()
        assert tree.min_key() == 10

    def test_deletes_that_rebalance_several_levels(self, columns):
        tree = ladder(127, columns=columns)
        counters = rpai_counters(lambda: [tree.delete(k * 10) for k in range(60)])
        assert counters["rpai.rotations"] > 0
        tree.check_invariants()
        assert tree.min_key() == 600

    def test_prune_through_add_takes_the_same_path(self, columns):
        tree = RPAITree(columns=columns, prune_zeros=True)
        for k in range(127):
            tree.add(k, *([1] * columns))
        for k in range(0, 127, 2):
            tree.add(k, *([-1] * columns))
            tree.check_invariants()
        assert len(tree) == 63


class TestRandomizedUnwinds:
    @pytest.mark.parametrize("columns", [1, 3])
    def test_churn_keeps_every_field_exact(self, columns):
        rng = random.Random(20 + columns)
        tree = RPAITree(columns=columns, prune_zeros=True)
        for step in range(3000):
            key = rng.randrange(400)
            roll = rng.random()
            if roll < 0.45:
                tree.add(key, *[rng.choice((-1, 1, 2)) for _ in range(columns)])
            elif roll < 0.65:
                tree.pop(key)
            else:
                tree.shift_keys(key, rng.choice((-7, -3, -1, 2, 5)), inclusive=rng.random() < 0.5)
            tree.check_invariants()

    def test_treemap_churn(self):
        rng = random.Random(9)
        tree = TreeMap(prune_zeros=True)
        shadow: dict[int, int] = {}
        for step in range(4000):
            key = rng.randrange(300)
            if rng.random() < 0.6:
                delta = rng.choice((-1, 1, 2))
                tree.add(key, delta)
                shadow[key] = shadow.get(key, 0) + delta
                if shadow[key] == 0:
                    del shadow[key]
            else:
                assert tree.pop(key) == shadow.pop(key, None)
            tree.check_invariants()
        assert list(tree.items()) == sorted(shadow.items())


def reference_move(tree: RPAITree, pivot, delta, inclusive, at, *values) -> RPAITree:
    """A copy of ``tree`` after the stacked shift, then the add."""
    copy = pickle.loads(pickle.dumps(tree))
    bottom_up_shift(copy, pivot, delta, inclusive)
    if any(values):
        copy.add(at, *values)
    return copy


class TestTopDownShift:
    """One case per way through ``shift_add``'s pass: each leaves the nodes the
    stacked shift and a separate add leave, and places in the pass
    exactly when no ``_put_root`` follows it."""

    @pytest.fixture
    def put_calls(self, monkeypatch):
        calls = []
        put = RPAITree._put_root

        def counted(self, *args, **kwargs):
            calls.append(args[0])
            return put(self, *args, **kwargs)

        monkeypatch.setattr(RPAITree, "_put_root", counted)
        return calls

    def move(self, tree, *args, puts, calls):
        expected = reference_move(tree, *args)
        calls.clear()
        tree.shift_add(*args)
        tree.check_invariants()
        assert tree._dump() == expected._dump()
        assert len(calls) == puts

    @pytest.mark.parametrize("pivot", [305, -5, 700], ids=["turns", "all-shift", "none-shift"])
    def test_a_shift_alone_ends_on_either_kind_of_run(self, put_calls, pivot):
        tree = ladder()
        expected = reference_move(tree, pivot, 5, False, 0)
        tree.shift_keys(pivot, 5)
        tree.check_invariants()
        assert tree._dump() == expected._dump() and not put_calls

    def test_the_strict_sides_match_is_placed_in_the_pass(self, put_calls):
        self.move(ladder(), 300, 5, False, 300, 7, puts=0, calls=put_calls)

    def test_the_first_shifted_entry_is_placed_in_the_pass(self, put_calls):
        self.move(ladder(), 305, 5, False, 315, 7, puts=0, calls=put_calls)

    def test_an_inclusive_pivot_on_a_key_places_it_shifted(self, put_calls):
        self.move(ladder(), 300, 5, True, 305, 7, puts=0, calls=put_calls)

    def test_a_key_in_the_opened_gap_is_an_insert_after_the_pass(self, put_calls):
        tree = ladder()
        self.move(tree, 305, 5, False, 308, 7, puts=1, calls=put_calls)
        assert tree.get(308) == 7

    def test_an_absent_entry_takes_its_sums_back(self, put_calls):
        tree = ladder()
        self.move(tree, 305, 5, False, 303, 7, puts=1, calls=put_calls)
        assert tree.get(303) == 7

    def test_an_entry_off_the_path_is_added_after_the_pass(self, put_calls):
        tree = ladder()
        self.move(tree, 305, 5, False, 100, 7, puts=1, calls=put_calls)
        assert tree.get(100) == 8

    def test_a_placement_that_zeroes_its_entry_splices_it(self, put_calls):
        tree = RPAITree.bulk_load([(k * 10, 1) for k in range(64)], prune_zeros=True)
        self.move(tree, 300, 5, False, 300, -1, puts=1, calls=put_calls)
        assert 300 not in tree and len(tree) == 63

    @pytest.mark.parametrize("delta, values", [(-5, (7,)), (0, (7,)), (5, (0,))])
    def test_no_positive_shift_or_nothing_to_place_takes_two_operations(self, put_calls, delta, values):
        tree = ladder()
        self.move(tree, 305, delta, False, 305, *values, puts=int(any(values)), calls=put_calls)

    def test_an_empty_tree_takes_the_entry(self, put_calls):
        tree = RPAITree()
        self.move(tree, 0, 5, False, 3, 1, puts=1, calls=put_calls)
        assert list(tree.items()) == [(3, 1)]
