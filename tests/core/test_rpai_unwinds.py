"""The three unwinds (insert, delete, negative shift) stop doing full
``_update``/rebalance work where the tree stops changing and finish
with sum/offset patches.  After each, every node's ``height``/``sum``/
``min_off``/``max_off`` must equal a from-scratch recomputation from
its children — which is exactly what ``check_invariants`` asserts — in
each of the situations that take a different way through the unwind.
"""

from __future__ import annotations

import random

import pytest

from repro import obs
from repro.core.rpai import RPAITree
from repro.trees.treemap import TreeMap


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
