"""Tests for the aggregate-index engine on grouped plans (the grammar's
``Aggr[cols]`` form)."""

import pytest

from repro.engine.aggr_index import AggregateIndexEngine, build_single_index_engine
from repro.engine.naive import NaiveEngine
from repro.errors import UnsupportedQueryError
from repro.query.parser import parse_query
from repro.query.planner import classify
from repro.storage import schema as schemas
from repro.storage.stream import Event

from tests.conftest import make_bid, random_bid_stream

GROUPED_VWAP = """
    SELECT b.broker_id, SUM(b.price * b.volume) FROM bids b
    WHERE 0.75 * (SELECT SUM(b1.volume) FROM bids b1)
        < (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)
    GROUP BY b.broker_id
"""


@pytest.fixture
def engine():
    return build_single_index_engine(parse_query(GROUPED_VWAP))


class TestDispatch:
    def test_grouped_query_builds_a_grouped_side(self, engine):
        assert isinstance(engine, AggregateIndexEngine)
        (side,) = engine.sides
        assert side.grouped and side.group_indexes == {}

    def test_scalar_query_builds_an_ungrouped_side(self):
        from repro.workloads.queries import QUERIES

        (side,) = build_single_index_engine(QUERIES["VWAP"].ast).sides
        assert not side.grouped and list(side.group_indexes) == [None]

    def test_group_by_over_an_equality_rejected(self):
        sql = """
            SELECT r.A, SUM(r.A * r.B) FROM R r
            WHERE 0.5 * (SELECT SUM(r1.B) FROM R r1)
                = (SELECT SUM(r2.B) FROM R r2 WHERE r2.A = r.A)
            GROUP BY r.A
        """
        with pytest.raises(UnsupportedQueryError):
            AggregateIndexEngine(classify(parse_query(sql)))


class TestBehaviour:
    def test_matches_naive(self, engine):
        query = parse_query(GROUPED_VWAP)
        naive = NaiveEngine(query, {"bids": schemas.BIDS})
        for index, event in enumerate(
            random_bid_stream(180, seed=92, delete_probability=0.3)
        ):
            assert naive.on_event(event) == engine.on_event(event), index

    def test_groups_appear_and_disappear(self, engine):
        # One broker dominates the final quartile, then retracts.
        e1 = Event("bids", make_bid(100, 10, broker=1, bid_id=1), +1)
        e2 = Event("bids", make_bid(200, 10, broker=2, bid_id=2), +1)
        engine.on_event(e1)
        result = engine.on_event(e2)
        assert result == {2: 2000}  # only broker 2's bid is in the quartile
        result = engine.on_event(e2.inverted())
        assert result == {1: 1000}
        result = engine.on_event(e1.inverted())
        assert result == {}

    def test_multiple_live_groups(self, engine):
        # Same price, different brokers: both bids share the quartile.
        engine.on_event(Event("bids", make_bid(100, 10, broker=1, bid_id=1), +1))
        result = engine.on_event(
            Event("bids", make_bid(100, 10, broker=2, bid_id=2), +1)
        )
        assert result == {1: 1000, 2: 1000}

    def test_empty_groups_pruned_from_state(self, engine):
        event = Event("bids", make_bid(100, 10, broker=7, bid_id=1), +1)
        engine.on_event(event)
        engine.on_event(event.inverted())
        assert engine.sides[0].group_indexes == {}
