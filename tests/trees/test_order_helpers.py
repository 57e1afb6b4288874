"""Edge-case tests for the order/search helpers every index backend
exposes: ``successor``, ``predecessor`` and
``first_key_with_prefix_above``.

Parametrized over three backends (RPAITree, TreeMap, FenwickTree)
and over both construction paths (repeated ``add`` vs
``bulk_load``), because the iterative hot-path rewrite and the Fenwick
promotion gave each backend its own implementation of these walks.
"""

import pytest

from repro.core.rpai import RPAITree
from repro.trees.fenwick import FenwickTree
from repro.trees.treemap import TreeMap

# Dense, deterministic fixture data shared by every case: prefix sums
# are 2 -> 1, 5 -> 3, 9 -> 7.
ENTRIES = [(2, 1.0), (5, 2.0), (9, 4.0)]


def _make_empty(backend):
    if backend is FenwickTree:
        return FenwickTree(16, prune_zeros=True)
    return backend(prune_zeros=True)


def _build_add(backend):
    index = _make_empty(backend)
    for key, value in ENTRIES:
        index.add(key, value)
    return index


def _build_bulk(backend):
    return backend.bulk_load(ENTRIES, prune_zeros=True)


BACKENDS = [RPAITree, TreeMap, FenwickTree]
BUILDERS = [_build_add, _build_bulk]


@pytest.fixture(params=BACKENDS, ids=lambda b: b.__name__)
def backend(request):
    return request.param


@pytest.fixture(params=BUILDERS, ids=["add", "bulk_load"])
def index(request, backend):
    return request.param(backend)


class TestEmpty:
    def test_successor_none(self, backend):
        assert _make_empty(backend).successor(3) is None

    def test_predecessor_none(self, backend):
        assert _make_empty(backend).predecessor(3) is None

    def test_first_key_with_prefix_above_none(self, backend):
        empty = _make_empty(backend)
        assert empty.first_key_with_prefix_above(0) is None
        assert empty.first_key_with_prefix_above(-1) is None

    def test_min_max_raise(self, backend):
        empty = _make_empty(backend)
        with pytest.raises(KeyError):
            empty.min_key()
        with pytest.raises(KeyError):
            empty.max_key()


class TestSingleNode:
    def test_all_helpers(self, backend):
        index = _make_empty(backend)
        index.add(4, 3.0)
        assert index.min_key() == 4
        assert index.max_key() == 4
        assert index.successor(3) == 4
        assert index.successor(4) is None
        assert index.predecessor(5) == 4
        assert index.predecessor(4) is None
        assert index.first_key_with_prefix_above(0) == 4
        assert index.first_key_with_prefix_above(2.9) == 4
        assert index.first_key_with_prefix_above(3) is None


class TestSuccessor:
    def test_below_min(self, index):
        assert index.successor(0) == 2
        assert index.successor(1) == 2

    def test_at_min_is_strict(self, index):
        assert index.successor(2) == 5

    def test_between_adjacent_entries(self, index):
        assert index.successor(3) == 5
        assert index.successor(6) == 9

    def test_at_and_above_max(self, index):
        assert index.successor(9) is None
        assert index.successor(100) is None


class TestPredecessor:
    def test_above_max(self, index):
        assert index.predecessor(100) == 9
        assert index.predecessor(10) == 9

    def test_at_max_is_strict(self, index):
        assert index.predecessor(9) == 5

    def test_between_adjacent_entries(self, index):
        assert index.predecessor(6) == 5
        assert index.predecessor(4) == 2

    def test_at_and_below_min(self, index):
        assert index.predecessor(2) is None
        assert index.predecessor(0) is None


class TestFirstKeyWithPrefixAbove:
    def test_negative_threshold_hits_min(self, index):
        assert index.first_key_with_prefix_above(-5) == 2

    def test_zero_threshold_hits_min(self, index):
        assert index.first_key_with_prefix_above(0) == 2

    def test_thresholds_walk_the_prefix_sums(self, index):
        # prefix sums: 2 -> 1, 5 -> 3, 9 -> 7
        assert index.first_key_with_prefix_above(0.5) == 2
        assert index.first_key_with_prefix_above(1) == 5
        assert index.first_key_with_prefix_above(2.5) == 5
        assert index.first_key_with_prefix_above(3) == 9
        assert index.first_key_with_prefix_above(6.99) == 9

    def test_total_and_beyond_is_none(self, index):
        assert index.first_key_with_prefix_above(7) is None
        assert index.first_key_with_prefix_above(100) is None

    def test_agrees_with_linear_scan(self, index):
        for threshold in [-1, 0, 0.5, 1, 1.5, 3, 5, 6.5, 7, 8]:
            expected = None
            running = 0.0
            for key, value in ENTRIES:
                running += value
                if running > threshold:
                    expected = key
                    break
            assert index.first_key_with_prefix_above(threshold) == expected


class TestAfterMutation:
    """Helpers must track structural changes, not the build-time shape."""

    def test_after_delete(self, index):
        index.delete(5)
        assert index.successor(2) == 9
        assert index.predecessor(9) == 2
        assert index.first_key_with_prefix_above(1) == 9

    def test_after_delete_min(self, index):
        index.delete(2)
        assert index.min_key() == 5
        assert index.predecessor(5) is None
        assert index.first_key_with_prefix_above(0) == 5

    def test_after_insert_between(self, index):
        index.add(7, 1.0)
        assert index.successor(5) == 7
        assert index.successor(7) == 9
        assert index.predecessor(9) == 7
        # prefix sums now: 2 -> 1, 5 -> 3, 7 -> 4, 9 -> 8
        assert index.first_key_with_prefix_above(3) == 7
        assert index.first_key_with_prefix_above(4) == 9
