"""Tests for the Fenwick tree, the related-work comparator (Section 6)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trees.fenwick import FenwickTree


class TestBasics:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FenwickTree(0)

    def test_add_and_get(self):
        bit = FenwickTree(16)
        bit.add(3, 5)
        bit.add(3, 2)
        assert bit.get(3) == 7
        assert bit.get(4) == 0

    def test_key_out_of_universe(self):
        bit = FenwickTree(8)
        with pytest.raises(IndexError):
            bit.add(8, 1)
        with pytest.raises(IndexError):
            bit.add(-1, 1)

    def test_put_sets_absolute_value(self):
        bit = FenwickTree(8)
        bit.put(2, 10)
        bit.put(2, 4)
        assert bit.get(2) == 4
        assert bit.total_sum() == 4

    def test_get_sum(self):
        bit = FenwickTree(10)
        for key, value in [(1, 1), (3, 2), (7, 4)]:
            bit.add(key, value)
        assert bit.get_sum(0) == 0
        assert bit.get_sum(1) == 1
        assert bit.get_sum(3) == 3
        assert bit.get_sum(3, inclusive=False) == 1
        assert bit.get_sum(9) == 7

    def test_len_counts_nonzero(self):
        bit = FenwickTree(8)
        bit.add(1, 1)
        bit.add(2, 1)
        bit.add(2, -1)
        assert len(bit) == 1


class TestShiftKeys:
    def test_shift_rebuilds(self):
        bit = FenwickTree(32)
        bit.add(5, 1)
        bit.add(10, 2)
        bit.shift_keys(6, 4)
        assert bit.get(10) == 0
        assert bit.get(14) == 2
        assert bit.get(5) == 1

    def test_shift_out_of_universe_raises(self):
        bit = FenwickTree(8)
        bit.add(7, 1)
        with pytest.raises(IndexError):
            bit.shift_keys(0, 5)


class TestBackendSurface:
    """The operations added when the BIT was promoted to a real backend."""

    def test_delete_returns_value(self):
        bit = FenwickTree(8)
        bit.add(3, 5)
        assert bit.delete(3) == 5
        assert bit.get(3) == 0
        assert len(bit) == 0

    def test_delete_absent_raises(self):
        bit = FenwickTree(8)
        with pytest.raises(KeyError):
            bit.delete(3)
        with pytest.raises(KeyError):
            bit.delete(99)  # outside the universe is also just absent

    def test_pop(self):
        bit = FenwickTree(8)
        bit.add(2, 7)
        assert bit.pop(2) == 7
        assert bit.pop(2) is None
        assert bit.pop(2, default=-1) == -1

    def test_zero_value_means_absent(self):
        bit = FenwickTree(8)
        bit.add(2, 5)
        bit.add(2, -5)
        assert 2 not in bit
        assert bit.get(2, default=-1) == -1
        assert list(bit.items()) == []

    def test_contains_rejects_non_ints(self):
        bit = FenwickTree(8)
        bit.add(2, 5)
        assert 2 in bit
        assert 2.0 not in bit
        assert 2.5 not in bit

    def test_suffix_sum(self):
        bit = FenwickTree(16)
        for key, value in [(1, 1), (3, 2), (7, 4)]:
            bit.add(key, value)
        assert bit.suffix_sum(3) == 4
        assert bit.suffix_sum(3, inclusive=True) == 6
        assert bit.suffix_sum(7) == 0

    def test_clear(self):
        bit = FenwickTree(8)
        bit.add(1, 1)
        bit.clear()
        assert len(bit) == 0
        assert bit.total_sum() == 0
        assert not bit


class TestGrow:
    def test_grow_doubles_and_preserves_state(self):
        bit = FenwickTree(8)
        bit.add(3, 5)
        bit.add(7, 2)
        bit.grow(9)
        assert bit.capacity == 16
        assert bit.get(3) == 5
        assert bit.get_sum(7) == 7
        bit.add(15, 1)
        assert bit.total_sum() == 8

    def test_grow_noop_when_large_enough(self):
        bit = FenwickTree(8)
        bit.grow(8)
        assert bit.capacity == 8

    def test_grow_multiple_doublings(self):
        bit = FenwickTree(4)
        bit.add(1, 1)
        bit.grow(100)
        assert bit.capacity == 128
        assert bit.get_sum(127) == 1


class TestBulkLoad:
    def test_matches_repeated_add(self):
        items = [(2, 1.0), (5, 3.0), (40, 2.0)]
        loaded = FenwickTree.bulk_load(items, capacity=64)
        added = FenwickTree(64)
        for key, value in items:
            added.add(key, value)
        assert list(loaded.items()) == list(added.items())
        for probe in range(64):
            assert loaded.get_sum(probe) == added.get_sum(probe)
        assert len(loaded) == len(added)

    def test_empty(self):
        bit = FenwickTree.bulk_load([])
        assert len(bit) == 0
        assert bit.total_sum() == 0

    def test_zero_values_dropped(self):
        bit = FenwickTree.bulk_load([(1, 0.0), (2, 3.0)])
        assert 1 not in bit
        assert len(bit) == 1

    def test_default_capacity_covers_top_key(self):
        bit = FenwickTree.bulk_load([(2000, 1.0)])
        assert bit.capacity >= 2001
        assert bit.get(2000) == 1.0

    def test_unsorted_keys_raise(self):
        with pytest.raises(ValueError):
            FenwickTree.bulk_load([(5, 1.0), (2, 1.0)])

    def test_duplicate_keys_raise(self):
        with pytest.raises(ValueError):
            FenwickTree.bulk_load([(2, 1.0), (2, 1.0)])

    def test_non_int_or_out_of_universe_keys_raise(self):
        with pytest.raises(ValueError):
            FenwickTree.bulk_load([(1.5, 1.0)], capacity=8)
        with pytest.raises(ValueError):
            FenwickTree.bulk_load([(9, 1.0)], capacity=8)


@given(
    entries=st.dictionaries(
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=-9, max_value=9),
        max_size=30,
    ),
    probe=st.integers(min_value=0, max_value=63),
)
@settings(max_examples=200, deadline=None)
def test_prefix_sums_match_bruteforce(entries, probe):
    bit = FenwickTree(64)
    for key, value in entries.items():
        bit.add(key, value)
    expected = sum(v for k, v in entries.items() if k <= probe)
    assert bit.get_sum(probe) == expected


@given(
    entries=st.dictionaries(
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=1, max_value=9),
        max_size=30,
    ),
    threshold=st.one_of(
        st.integers(min_value=-2, max_value=300),
        st.floats(min_value=-2, max_value=300, allow_nan=False),
    ),
)
@settings(max_examples=200, deadline=None)
def test_first_key_with_prefix_above_matches_bruteforce(entries, threshold):
    bit = FenwickTree(64)
    for key, value in entries.items():
        bit.add(key, value)
    expected = None
    running = 0
    for key in sorted(entries):
        running += entries[key]
        if running > threshold:
            expected = key
            break
    assert bit.first_key_with_prefix_above(threshold) == expected
