"""Tests for the Section 4.2.5 MIN/MAX-under-deletions extension."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.minmax import MinMaxView, OrderedMultiset
from repro.engine.naive import NaiveEngine
from repro.errors import EngineStateError
from repro.query.parser import parse_query
from repro.storage import schema as schemas

from tests.conftest import free_map_engine, random_bid_stream


class TestOrderedMultiset:
    def test_add_remove_count(self):
        ms = OrderedMultiset()
        ms.add(5)
        ms.add(5)
        ms.add(3)
        assert len(ms) == 3
        assert ms.count(5) == 2
        ms.remove(5)
        assert ms.count(5) == 1
        assert 5 in ms
        ms.remove(5)
        assert 5 not in ms

    def test_remove_more_than_present_raises(self):
        ms = OrderedMultiset()
        ms.add(1)
        with pytest.raises(EngineStateError):
            ms.remove(1, 2)

    def test_add_nonpositive_count_raises(self):
        with pytest.raises(ValueError):
            OrderedMultiset().add(1, 0)

    def test_remove_nonpositive_count_raises(self):
        """remove(count<=0) used to be accepted silently, corrupting
        the tracked size (remove(x, -1) *added* an occurrence)."""
        ms = OrderedMultiset()
        ms.add(1)
        with pytest.raises(ValueError):
            ms.remove(1, 0)
        with pytest.raises(ValueError):
            ms.remove(1, -1)
        assert len(ms) == 1
        assert ms.count(1) == 1

    def test_min_max(self):
        ms = OrderedMultiset()
        for value in (7, 2, 9, 2):
            ms.add(value)
        assert ms.min() == 2
        assert ms.max() == 9
        ms.remove(9)
        assert ms.max() == 7
        ms.remove(2)
        assert ms.min() == 2  # duplicate survives

    def test_empty_extremes_raise(self):
        with pytest.raises(KeyError):
            OrderedMultiset().min()

    def test_count_le(self):
        ms = OrderedMultiset()
        for value in (1, 2, 2, 5):
            ms.add(value)
        assert ms.count_le(2) == 3
        assert ms.count_le(2, inclusive=False) == 1

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=80))
    @settings(max_examples=150, deadline=None)
    def test_matches_sorted_list(self, values):
        ms = OrderedMultiset()
        shadow: list[int] = []
        rng = random.Random(0)
        for value in values:
            if shadow and rng.random() < 0.4:
                victim = shadow.pop(rng.randrange(len(shadow)))
                ms.remove(victim)
            else:
                ms.add(value)
                shadow.append(value)
            if shadow:
                assert ms.min() == min(shadow)
                assert ms.max() == max(shadow)
            assert len(ms) == len(shadow)


class TestMinMaxView:
    def test_rejects_streamable_funcs(self):
        with pytest.raises(ValueError):
            MinMaxView("SUM")

    def test_max_survives_deletion_of_current_max(self):
        """The exact failure mode Section 4.2.5 describes."""
        view = MinMaxView("MAX")
        view.update(10, +1)
        view.update(20, +1)
        assert view.value() == 20
        view.update(20, -1)  # delete the current maximum
        assert view.value() == 10

    def test_min_with_duplicates(self):
        view = MinMaxView("MIN")
        view.update(5, +2)
        view.update(5, -1)
        assert view.value() == 5

    def test_empty_default(self):
        assert MinMaxView("MAX").value() == 0
        assert MinMaxView("MIN", default=-1).value() == -1


class TestMinMaxInGeneralAlgorithm:
    """End to end: an uncorrelated MAX threshold under deletions."""

    QUERY = parse_query(
        "SELECT SUM(b.price * b.volume) FROM bids b "
        "WHERE b.volume * 2 > (SELECT MAX(b1.volume) FROM bids b1) "
        "AND 0 < (SELECT SUM(b2.volume) FROM bids b2 "
        "WHERE b2.price <= b.price)"
    )

    def test_matches_naive_with_deletions(self):
        ga = free_map_engine(self.QUERY)
        naive = NaiveEngine(self.QUERY, {"bids": schemas.BIDS})
        for index, event in enumerate(random_bid_stream(150, seed=55)):
            assert naive.on_event(event) == ga.on_event(event), index
