"""Behavioural tests for the RPAI engines of single queries: the sides
by hand, the hand-written classes, and PSP, Q17 and Q18 through the
registry."""

import pytest

from repro.engine.aggr_index import AggregateIndexEngine, build_single_index_engine
from repro.engine.queries.common import ShiftedSide, ThresholdSide
from repro.engine.queries.nq import NQ1RpaiEngine, NQ2RpaiEngine
from repro.engine.registry import build_engine
from repro.core.rpai import RPAITree
from repro.errors import UnsupportedQueryError
from repro.query import codegen
from repro.query.parser import parse_query
from repro.storage.stream import Event
from repro.workloads import get_query

from tests.conftest import make_bid
from tests.engine.mst_reference import MSTRpaiEngine


class TestShiftedSide:
    def test_rejects_equality(self):
        with pytest.raises(UnsupportedQueryError):
            ShiftedSide("=")

    def test_le_prefix_semantics(self):
        side = ShiftedSide("<=", columns=1)
        # tuples: price 10 vol 5, price 20 vol 5
        side.apply(10, 5, {None: (100,)})
        side.apply(20, 5, {None: (200,)})
        # group rhs values: 10->5, 20->10
        assert sorted(side.index.items()) == [(5, 100), (10, 200)]
        # deletion of the price-10 tuple shifts 20's rhs down to 5
        side.apply(10, -5, {None: (-100,)})
        assert list(side.index.items()) == [(5, 200)]
        assert side.bound_map.total_sum() == 5
        assert side.qualifying(">=", 5) == {None: (200,)}
        assert side.qualifying("=", 7) == {None: (0,)}

    def test_gt_suffix_semantics(self):
        side = ShiftedSide(">", columns=1)
        side.apply(10, 5, {None: (100,)})
        side.apply(20, 5, {None: (200,)})
        # rhs(g) = volume at prices > g: rhs(10)=5, rhs(20)=0
        assert sorted(side.index.items()) == [(0, 200), (5, 100)]

    def test_columns_shift_together(self):
        side = ShiftedSide("<=", columns=2)
        side.apply(10, 5, {None: (100, 1)})
        side.apply(20, 5, {None: (200, 1)})
        assert list(side.index.rows()) == [(5, 100, 1), (10, 200, 1)]
        assert side.qualifying(">", 10) == {None: (100, 1)}
        assert side.qualifying("<=", 5) == {None: (300, 2)}
        assert side.qualifying("=", 7) == {None: (0, 0)}
        # a row stays while any column is non-zero, and goes when all are
        side.apply(20, 0, {None: (-200, 0)})
        assert list(side.index.rows()) == [(5, 100, 1), (10, 0, 1)]
        side.apply(20, 0, {None: (0, -1)})
        assert list(side.index.rows()) == [(5, 100, 1)]

    def test_grouped_side_fans_one_shift_over_every_group(self):
        side = ShiftedSide("<=", grouped=True)
        side.apply(20, 5, {"x": (200,)})
        side.apply(30, 5, {"y": (300,)})
        # one tuple below both: both groups' keys shift, its own lands
        side.apply(10, 5, {"x": (100,), "z": (0,)})
        assert {g: list(ix.items()) for g, ix in side.group_indexes.items()} == {
            "x": [(5, 100), (10, 200)],
            "y": [(15, 300)],
        }
        assert side.qualifying("<=", 10) == {"x": (200,), "y": (300,)}
        # a group's index goes when its last entry does
        side.apply(30, -5, {"y": (-300,)})
        assert sorted(side.group_indexes) == ["x"]

    def test_bulk_load_equals_replay(self):
        net = {10: [5, {None: [100, 1]}], 20: [5, {None: [200, 1]}], 30: [0, {None: [0, 0]}]}
        loaded, replayed = ShiftedSide(">", columns=2), ShiftedSide(">", columns=2)
        loaded.load(net)
        for attr, (weight, placements) in net.items():
            replayed.apply(attr, weight, placements)
        assert list(loaded.index.rows()) == list(replayed.index.rows())
        assert list(loaded.bound_map.items()) == list(replayed.bound_map.items())

    def test_probe_index_operators(self):
        # a threshold side's keys never move: its index is keyed as put
        side = ThresholdSide(index_cls=RPAITree)
        for key, value in [(1, 1), (2, 2), (3, 4)]:
            side.apply(key, 0, {None: (value,)})
        assert side.qualifying("=", 2) == {None: (2,)}
        assert side.qualifying("<", 2) == {None: (4,)}
        assert side.qualifying("<=", 2) == {None: (6,)}
        assert side.qualifying(">", 2) == {None: (1,)}
        assert side.qualifying(">=", 2) == {None: (3,)}
        with pytest.raises(UnsupportedQueryError):
            side.qualifying("<>", 2)


class TestMST:
    def test_empty_result_zero(self):
        assert MSTRpaiEngine().result() == 0

    def test_single_pair_hand_computed(self):
        engine = MSTRpaiEngine()
        engine.on_event(Event("asks", make_bid(10, 4)))
        engine.on_event(Event("bids", make_bid(3, 4)))
        # each side: one tuple; rhs (volume above own price) = 0;
        # threshold 0.25*4 = 1 > 0 -> both qualify -> (10 - 3) = 7
        assert engine.result() == 7

    def test_ignores_unknown_relation(self):
        engine = MSTRpaiEngine()
        engine.on_event(Event("lineitem", {"orderkey": 1, "partkey": 1, "quantity": 1, "extendedprice": 1}))
        assert engine.result() == 0


class TestPSP:
    def test_qualifying_threshold(self):
        engine = build_engine("PSP", "rpai")
        assert isinstance(engine, AggregateIndexEngine)
        engine.on_event(Event("bids", make_bid(5, 100)))
        engine.on_event(Event("asks", make_bid(9, 100)))
        # thresholds are 0.01; both volumes (100) qualify
        assert engine.result() == 9 - 5

    def test_insert_then_delete_roundtrip(self):
        engine = build_engine("PSP", "rpai")
        e1 = Event("bids", make_bid(5, 100))
        e2 = Event("asks", make_bid(9, 100))
        engine.on_event(e1)
        engine.on_event(e2)
        engine.on_event(e2.inverted())
        engine.on_event(e1.inverted())
        assert engine.result() == 0


class TestNQ1:
    def test_boundary_none_on_empty(self):
        engine = NQ1RpaiEngine()
        assert engine.result() == 0
        assert engine._boundary() is None

    def test_single_tuple(self):
        engine = NQ1RpaiEngine()
        engine.on_event(Event("bids", make_bid(10, 8)))
        # total=8; eligibility: cum(10)=8 > 2 -> eligible; rhs(10)=8;
        # outer: 0.75*8=6 < 8 -> result = 10*8
        assert engine.result() == 80

    def test_insert_delete_roundtrip_clears_state(self):
        engine = NQ1RpaiEngine()
        events = [Event("bids", make_bid(p, v)) for p, v in [(5, 3), (9, 4), (2, 6)]]
        for event in events:
            engine.on_event(event)
        for event in reversed(events):
            engine.on_event(event.inverted())
        assert engine.result() == 0
        assert len(engine.aggr) == 0
        assert engine._star is None
        assert len(engine.price_vol) == 0

    def test_composite_keys_distinct_per_group(self):
        engine = NQ1RpaiEngine()
        for price, volume in [(1, 2), (2, 2), (3, 2), (4, 2)]:
            engine.on_event(Event("bids", make_bid(price, volume)))
        # one aggregate-index entry per live price group
        assert len(engine.aggr) == len(engine.res_map)


class TestNQ2:
    def test_single_tuple(self):
        engine = NQ2RpaiEngine()
        engine.on_event(Event("bids", make_bid(10, 8)))
        # threshold(10) = 0.25*8 = 2; star = 10; rhs = 8; 6 < 8 -> 80
        assert engine.result() == 80

    def test_ignores_asks(self):
        engine = NQ2RpaiEngine()
        engine.on_event(Event("asks", make_bid(10, 8)))
        assert engine.result() == 0


class TestQ17:
    PART = {"partkey": 1, "brand": "Brand#23", "container": "WRAP BOX"}
    OTHER = {"partkey": 2, "brand": "Brand#11", "container": "SM BOX"}

    def line(self, partkey, quantity, price=100):
        return Event(
            "lineitem",
            {"orderkey": 1, "partkey": partkey, "quantity": quantity, "extendedprice": price},
        )

    def test_non_qualifying_part_contributes_nothing(self):
        engine = build_engine("Q17", "rpai")
        engine.on_event(Event("part", self.OTHER))
        engine.on_event(self.line(2, 1))
        assert engine.result() == 0

    def test_threshold_math(self):
        engine = build_engine("Q17", "rpai")
        engine.on_event(Event("part", self.PART))
        for quantity in (1, 10, 10, 10):
            engine.on_event(self.line(1, quantity, price=quantity * 100))
        # avg = 7.75, threshold 1.55, only quantity 1 (price 100)
        assert engine.result() == 100 / 7.0

    def test_part_arriving_after_lineitems(self):
        engine = build_engine("Q17", "rpai")
        engine.on_event(self.line(1, 1, price=100))
        engine.on_event(self.line(1, 10, price=1000))
        assert engine.result() == 0
        engine.on_event(Event("part", self.PART))
        # avg 5.5, threshold 1.1 -> quantity 1 qualifies
        assert engine.result() == 100 / 7.0

    def test_part_deletion_removes_contribution(self):
        engine = build_engine("Q17", "rpai")
        engine.on_event(Event("part", self.PART))
        engine.on_event(self.line(1, 1, price=100))
        engine.on_event(self.line(1, 10, price=1000))
        assert engine.result() != 0
        engine.on_event(Event("part", self.PART, -1))
        assert engine.result() == 0
        # ...and the part's group keeps its lineitems, not its index
        (group,) = engine.sides[0].bound_map.values()
        assert group.index is None and group.count == 2

    def test_a_part_row_twice_joins_every_lineitem_twice(self):
        engine = build_engine("Q17", "rpai")
        engine.on_event(self.line(1, 1, price=100))
        engine.on_event(self.line(1, 10, price=1000))
        engine.on_event(Event("part", self.PART))
        engine.on_event(Event("part", self.PART))
        assert engine.result() == 200 / 7.0


class TestQ18:
    def test_order_crossing_threshold_toggles(self):
        engine = build_engine("Q18", "rpai")
        engine.on_event(Event("customer", {"custkey": 1, "name": "c"}))
        engine.on_event(
            Event("orders", {"orderkey": 5, "custkey": 1, "orderdate": 0, "totalprice": 0})
        )
        engine.on_event(
            Event("lineitem", {"orderkey": 5, "partkey": 1, "quantity": 200, "extendedprice": 0})
        )
        assert engine.result() == {}
        up = Event("lineitem", {"orderkey": 5, "partkey": 2, "quantity": 150, "extendedprice": 0})
        engine.on_event(up)
        assert engine.result() == {1: 350}
        engine.on_event(up.inverted())
        assert engine.result() == {}

    def test_customer_arriving_late_materializes_result(self):
        engine = build_engine("Q18", "rpai")
        engine.on_event(
            Event("orders", {"orderkey": 5, "custkey": 1, "orderdate": 0, "totalprice": 0})
        )
        engine.on_event(
            Event("lineitem", {"orderkey": 5, "partkey": 1, "quantity": 400, "extendedprice": 0})
        )
        assert engine.result() == {}
        engine.on_event(Event("customer", {"custkey": 1, "name": "c"}))
        assert engine.result() == {1: 400}

    def test_two_qualifying_orders_same_customer_sum(self):
        engine = build_engine("Q18", "rpai")
        engine.on_event(Event("customer", {"custkey": 1, "name": "c"}))
        for orderkey in (5, 6):
            engine.on_event(
                Event("orders", {"orderkey": orderkey, "custkey": 1, "orderdate": 0, "totalprice": 0})
            )
            engine.on_event(
                Event("lineitem", {"orderkey": orderkey, "partkey": 1, "quantity": 400, "extendedprice": 0})
            )
        assert engine.result() == {1: 800}

    def test_result_is_a_copy(self):
        engine = build_engine("Q18", "rpai")
        first = engine.result()
        first["tampered"] = 1
        assert engine.result() == {}

    @pytest.mark.parametrize("compiled", [False, True], ids=["interpreted", "compiled"])
    def test_a_scaled_sum_is_recombined_per_group(self, compiled):
        """The side's kept result is the answer as it is only under the
        bare SUM; under a constant scale each group is recombined."""
        sql = get_query("Q18").sql.replace("SUM(l.quantity)", "SUM(l.quantity) / 2", 1)
        engine = build_single_index_engine(parse_query(sql))
        if compiled:  # re-installed; ``interpreted``: as built, the same path
            assert codegen.specialize(engine)
        engine.on_event(Event("customer", {"custkey": 1, "name": "c"}))
        engine.on_event(Event("orders", {"orderkey": 5, "custkey": 1, "orderdate": 0, "totalprice": 0}))
        for quantity in (200, 150):
            row = {"orderkey": 5, "partkey": 1, "quantity": quantity, "extendedprice": 0}
            engine.on_event(Event("lineitem", row))
        assert engine.result() == {1: 175.0}
        engine.on_event(Event("lineitem", row, -1))
        assert engine.result() == {}
