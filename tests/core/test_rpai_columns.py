"""Multi-column RPAI trees against k single-column oracles.

A tree built with ``columns=k`` must behave, column by column, like k
:class:`ReferenceIndex` instances fed the same keys — under ``put``,
``add``, ``delete`` and positive / negative ``shift_keys`` (strict and
inclusive, with offsets that make keys collide so merge-by-addition
fires) — while sharing one key set: a row exists while *any* column is
non-zero and is pruned only when every column is.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reference_index import ReferenceIndex
from repro.core.rpai import RPAITree

KEYS = st.integers(min_value=-30, max_value=30)
# small value range: rows cancel to zero in one, some or all columns
ROWS = st.tuples(*[st.integers(min_value=-3, max_value=3)] * 3)
DELTAS = st.integers(min_value=-12, max_value=12)
COLUMNS = st.sampled_from([1, 2, 3])

OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), KEYS, ROWS),
        st.tuples(st.just("add"), KEYS, ROWS),
        st.tuples(st.just("delete"), KEYS, st.none()),
        st.tuples(st.just("shift"), KEYS, DELTAS),
        st.tuples(st.just("shift_inclusive"), KEYS, DELTAS),
    ),
    min_size=1,
    max_size=60,
)


def as_row(value, columns: int) -> tuple:
    """What a k-column tree returns, normalized to a tuple."""
    return (value,) if columns == 1 else tuple(value)


class Oracles:
    """k unpruned reference indexes, read back as the rows a k-column
    tree must hold."""

    def __init__(self, columns: int, prune: bool) -> None:
        self.columns = [ReferenceIndex() for _ in range(columns)]
        self.prune = prune

    def apply(self, op: tuple) -> tuple | None:
        kind, key, arg = op
        removed = None
        if kind == "delete":
            removed = self.row(key)
        for j, column in enumerate(self.columns):
            if kind == "put":
                column.put(key, arg[j])
            elif kind == "add":
                column.add(key, arg[j])
            elif kind == "delete":
                if key in column:
                    column.delete(key)
            else:
                column.shift_keys(key, arg, inclusive=kind == "shift_inclusive")
        return removed

    def row(self, key) -> tuple | None:
        if key not in self.columns[0]:
            return None
        row = tuple(column.get(key) for column in self.columns)
        return None if self.prune and not any(row) else row

    def rows(self) -> list[tuple]:
        keys = [key for key, _ in self.columns[0].items()]
        return [(key, *row) for key in keys if (row := self.row(key)) is not None]


def apply_to_tree(tree: RPAITree, op: tuple):
    kind, key, arg = op
    k = tree.columns
    if kind == "put":
        tree.put(key, *arg[:k])
    elif kind == "add":
        tree.add(key, *arg[:k])
    elif kind == "delete":
        return tree.pop(key)
    else:
        tree.shift_keys(key, arg, inclusive=kind == "shift_inclusive")
    return None


class TestColumnsDifferential:
    @given(ops=OPERATIONS, columns=COLUMNS, prune=st.booleans(), probe=KEYS)
    @settings(max_examples=400, deadline=None)
    def test_matches_k_oracles_after_every_op(self, ops, columns, prune, probe):
        tree = RPAITree(columns=columns, prune_zeros=prune)
        oracles = Oracles(columns, prune)
        for op in ops:
            removed = apply_to_tree(tree, op)
            expected_removed = oracles.apply(op)
            tree.check_invariants()
            if op[0] == "delete":
                assert (None if removed is None else as_row(removed, columns)) == expected_removed
            assert list(tree.rows()) == oracles.rows()
            assert len(tree) == len(oracles.rows())
            assert as_row(tree.total_sum(), columns) == tuple(
                column.total_sum() for column in oracles.columns
            )
        for inclusive in (True, False):
            assert as_row(tree.get_sum(probe, inclusive=inclusive), columns) == tuple(
                column.get_sum(probe, inclusive=inclusive) for column in oracles.columns
            )
            assert as_row(tree.suffix_sum(probe, inclusive=inclusive), columns) == tuple(
                column.total_sum() - column.get_sum(probe, inclusive=not inclusive)
                for column in oracles.columns
            )
        row = tree.get(probe, None)
        assert (None if row is None else as_row(row, columns)) == oracles.row(probe)

    @given(
        entries=st.dictionaries(KEYS, ROWS, min_size=0, max_size=40),
        columns=COLUMNS,
        prune=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_bulk_load_equals_repeated_add(self, entries, columns, prune):
        rows = [(key, *entries[key][:columns]) for key in sorted(entries)]
        loaded = RPAITree.bulk_load(rows, columns=columns, prune_zeros=prune)
        loaded.check_invariants()
        added = RPAITree(columns=columns, prune_zeros=prune)
        for key, *values in rows:
            added.add(key, *values)
        assert list(loaded.rows()) == list(added.rows())
        assert len(loaded) == len(added)
        assert loaded.total_sum() == added.total_sum()
        # the two stay interchangeable under further updates
        for tree in (loaded, added):
            tree.shift_keys(0, -7)
            tree.add(3, *([1] * columns))
            tree.check_invariants()
        assert list(loaded.rows()) == list(added.rows())


class TestOneTreeType:
    @pytest.mark.parametrize("columns", [1, 2, 3])
    def test_every_width_is_an_rpai_tree_and_pickles(self, columns):
        tree = RPAITree(columns=columns, prune_zeros=True)
        assert isinstance(tree, RPAITree)
        assert tree.columns == columns
        for key in range(50):
            tree.add(key * 3, *range(1, columns + 1))
        tree.shift_keys(40, -9)
        restored = pickle.loads(pickle.dumps(tree))
        assert type(restored) is type(tree)
        assert restored.prune_zeros
        restored.check_invariants()
        assert list(restored.rows()) == list(tree.rows())

    def test_one_column_is_the_plain_class(self):
        assert type(RPAITree()) is RPAITree
        assert type(RPAITree(columns=1)) is RPAITree
        assert type(RPAITree.bulk_load([(1, 2)])) is RPAITree

    def test_items_is_the_column_zero_view(self):
        """``items()`` feeds a one-column ``bulk_load``/``add`` whatever
        the width; ``rows()`` carries every column."""
        tree = RPAITree(columns=3)
        tree.add(5, 1, 2, 3)
        tree.add(9, 4, 5, 6)
        assert list(tree.items()) == [(5, 1), (9, 4)]
        assert list(tree.values()) == [1, 4]
        assert list(tree.keys()) == [5, 9]
        assert list(tree.rows()) == [(5, 1, 2, 3), (9, 4, 5, 6)]
        single = RPAITree.bulk_load(tree.items())
        assert single.get_sum(9) == 5

    def test_prune_needs_every_column_zero(self):
        tree = RPAITree(columns=2, prune_zeros=True)
        tree.add(1, 5, 1)
        tree.add(1, -5, 0)
        assert list(tree.rows()) == [(1, 0, 1)]
        tree.add(1, 0, -1)
        assert len(tree) == 0
        tree.add(2, 0, 0)
        assert len(tree) == 0

    def test_rejects_bad_widths_and_arity(self):
        with pytest.raises(ValueError):
            RPAITree(columns=0)
        tree = RPAITree(columns=2)
        with pytest.raises(TypeError):
            tree.add(1, 2)
        with pytest.raises(ValueError):
            RPAITree.bulk_load([(1, 2)], columns=2)
