"""Focused tests for the Section 4.3 aggregate-index engine on
single-relation plans: trigger edge cases, all three pluggable index
implementations, and the planner hand-off."""

import pytest

from repro.core.pai_map import PAIMap
from repro.core.rpai import RPAITree
from repro.engine.aggr_index import AggregateIndexEngine, build_single_index_engine
from repro.engine.queries.common import PointSide, ShiftedSide
from repro.engine.queries.free_map import FreeMapSide
from repro.engine.naive import NaiveEngine
from repro.errors import UnsupportedQueryError
from repro.query.parser import parse_query
from repro.query.planner import classify
from repro.storage.stream import Event
from repro.trees.treemap import TreeMap
from repro.workloads.queries import QUERIES

from tests.conftest import bid_events, make_bid, random_bid_stream


@pytest.fixture
def vwap_engine():
    return build_single_index_engine(QUERIES["VWAP"].ast)


class TestBuildDispatch:
    def test_vwap_builds_one_shifted_side(self, vwap_engine):
        assert isinstance(vwap_engine, AggregateIndexEngine)
        (side,) = vwap_engine.sides
        assert isinstance(side, ShiftedSide) and not side.grouped
        assert side.columns == 1  # one required sum, no count column

    def test_eq_builds_one_point_side(self):
        engine = build_single_index_engine(QUERIES["EQ"].ast)
        (side,) = engine.sides
        assert isinstance(side, PointSide)

    def test_general_shape_builds_one_free_map_side(self):
        engine = build_single_index_engine(QUERIES["SQ1"].ast)
        (side,) = engine.sides
        assert isinstance(side, FreeMapSide)

    def test_other_strategies_rejected(self):
        with pytest.raises(UnsupportedQueryError):
            AggregateIndexEngine(classify(QUERIES["NQ1"].ast))

    def test_uncorrelated_without_a_membership_shape_rejected(self):
        """Q18 grouped by the orders column itself: no relation carries
        the GROUP BY key apart from the link, so no membership spec."""
        query = parse_query(
            "SELECT o.custkey, SUM(l.quantity) FROM orders o, lineitem l "
            "WHERE o.orderkey IN (SELECT l2.orderkey FROM lineitem l2 "
            "GROUP BY l2.orderkey HAVING SUM(l2.quantity) > 300) "
            "AND o.orderkey = l.orderkey GROUP BY o.custkey"
        )
        plan = classify(query)
        assert plan.strategy.value == "uncorrelated" and plan.index_specs == ()
        with pytest.raises(UnsupportedQueryError, match="UNCORRELATED"):
            AggregateIndexEngine(plan)


class TestVWAPTriggerEdgeCases:
    def test_paper_walkthrough(self, vwap_engine):
        stream = bid_events([(100, 10), (200, 10), (300, 10), (400, 10)])
        assert [vwap_engine.on_event(e) for e in stream] == [1000, 2000, 3000, 4000]

    def test_duplicate_price_merges_group(self, vwap_engine):
        for event in bid_events([(100, 10), (100, 5)]):
            vwap_engine.on_event(event)
        # one group at price 100 with rhs 15
        assert len(vwap_engine.sides[0].index) == 1
        assert vwap_engine.sides[0].index.get(15) == 100 * 15

    def test_delete_last_tuple_of_group_removes_group(self, vwap_engine):
        events = list(bid_events([(100, 10), (200, 10)]))
        for event in events:
            vwap_engine.on_event(event)
        vwap_engine.on_event(events[1].inverted())
        assert len(vwap_engine.sides[0].index) == 1
        vwap_engine.on_event(events[0].inverted())
        assert len(vwap_engine.sides[0].index) == 0
        assert vwap_engine.result() == 0

    def test_delete_merges_colliding_rhs(self, vwap_engine):
        # groups at 100 (rhs 10) and 200 (rhs 20); deleting the bid at
        # 100 shifts 200's rhs down to 10 — group 100 dies, 200 takes
        # the key.
        events = list(bid_events([(100, 10), (200, 10)]))
        for event in events:
            vwap_engine.on_event(event)
        vwap_engine.on_event(events[0].inverted())
        assert list(vwap_engine.sides[0].index.items()) == [(10, 2000)]

    def test_index_size_tracks_live_groups_not_updates(self, vwap_engine):
        for event in random_bid_stream(300, seed=3, price_levels=10):
            vwap_engine.on_event(event)
        assert len(vwap_engine.sides[0].index) <= 10

    def test_ignores_other_relations(self, vwap_engine):
        before = vwap_engine.result()
        vwap_engine.on_event(Event("asks", make_bid(10, 10)))
        assert vwap_engine.result() == before


@pytest.mark.parametrize("index_cls", [RPAITree, PAIMap, TreeMap])
class TestIndexImplementationsInterchangeable:
    def test_vwap_same_results(self, index_cls):
        reference = build_single_index_engine(QUERIES["VWAP"].ast)
        candidate = build_single_index_engine(QUERIES["VWAP"].ast, index_cls=index_cls)
        for event in random_bid_stream(200, seed=17):
            assert reference.on_event(event) == candidate.on_event(event)

    def test_eq_same_results(self, index_cls):
        import random

        reference = build_single_index_engine(QUERIES["EQ"].ast)
        candidate = build_single_index_engine(QUERIES["EQ"].ast, index_cls=index_cls)
        rng = random.Random(2)
        live = []
        for _ in range(200):
            if live and rng.random() < 0.3:
                event = Event("R", live.pop(rng.randrange(len(live))), -1)
            else:
                row = {"A": rng.randint(1, 5), "B": rng.randint(1, 4)}
                live.append(row)
                event = Event("R", row, +1)
            assert reference.on_event(event) == candidate.on_event(event)


class TestEQTrigger:
    def test_figure1c_walkthrough(self):
        """Crafted so the equality predicate actually fires."""
        engine = build_single_index_engine(QUERIES["EQ"].ast)
        naive = NaiveEngine(QUERIES["EQ"].ast, QUERIES["EQ"].schema_map())
        rows = [
            {"A": 1, "B": 2},  # total=2, lhs=1, rhs(1)=2
            {"A": 2, "B": 2},  # total=4, lhs=2, rhs(1)=rhs(2)=2 -> both match
        ]
        for row in rows:
            expected = naive.on_event(Event("R", row))
            assert engine.on_event(Event("R", row)) == expected
        assert engine.result() == 6

    def test_group_death_prunes_index(self):
        engine = build_single_index_engine(QUERIES["EQ"].ast)
        engine.on_event(Event("R", {"A": 1, "B": 2}))
        engine.on_event(Event("R", {"A": 1, "B": 2}, -1))
        (side,) = engine.sides
        assert len(side.index) == 0
        assert len(side.bound_map) == 0
        assert len(side.res_map) == 0


class TestOuterOpVariants:
    """The probe direction depends on the outer comparison operator."""

    @pytest.mark.parametrize(
        "op",
        ["<", "<=", ">", ">="],
    )
    def test_outer_op_matches_naive(self, op):
        sql = f"""
            SELECT SUM(b.price * b.volume) FROM bids b
            WHERE 0.5 * (SELECT SUM(b1.volume) FROM bids b1)
                {op} (SELECT SUM(b2.volume) FROM bids b2
                      WHERE b2.price <= b.price)
        """
        query = parse_query(sql)
        engine = build_single_index_engine(query)
        naive = NaiveEngine(query, QUERIES["VWAP"].schema_map())
        for index, event in enumerate(random_bid_stream(120, seed=31)):
            assert naive.on_event(event) == engine.on_event(event), (op, index)

    @pytest.mark.parametrize("inner_op", ["<", "<=", ">", ">="])
    def test_inner_op_matches_naive(self, inner_op):
        sql = f"""
            SELECT SUM(b.price * b.volume) FROM bids b
            WHERE 0.5 * (SELECT SUM(b1.volume) FROM bids b1)
                < (SELECT SUM(b2.volume) FROM bids b2
                   WHERE b2.price {inner_op} b.price)
        """
        query = parse_query(sql)
        engine = build_single_index_engine(query)
        naive = NaiveEngine(query, QUERIES["VWAP"].schema_map())
        for index, event in enumerate(random_bid_stream(120, seed=37)):
            assert naive.on_event(event) == engine.on_event(event), (inner_op, index)
