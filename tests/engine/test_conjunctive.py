"""Tests for the aggregate-index engine on multi-relation conjunctive
plans and the product-sum decomposer (Algorithm 4's requiredSums
machinery)."""

import pytest

from repro.engine.aggr_index import AggregateIndexEngine, decompose_product_sum
from repro.engine.naive import NaiveEngine
from repro.errors import UnsupportedQueryError
from repro.query.ast import Arith, ColumnRef, Const
from repro.query.parser import parse_query
from repro.query.planner import classify
from repro.storage import schema as schemas
from repro.workloads import OrderBookConfig, generate_order_book, get_query

from tests.engine.mst_reference import MSTRpaiEngine


class TestDecomposer:
    def test_constant(self):
        assert decompose_product_sum(Const(3)) == [(3.0, {})]

    def test_column(self):
        col = ColumnRef("a", "price")
        assert decompose_product_sum(col) == [(1.0, {"a": col})]

    def test_difference(self):
        expr = Arith("-", ColumnRef("a", "price"), ColumnRef("b", "price"))
        terms = decompose_product_sum(expr)
        assert terms == [
            (1.0, {"a": ColumnRef("a", "price")}),
            (-1.0, {"b": ColumnRef("b", "price")}),
        ]

    def test_cross_product_term(self):
        expr = Arith("*", ColumnRef("a", "price"), ColumnRef("b", "volume"))
        ((coef, factors),) = decompose_product_sum(expr)
        assert coef == 1.0
        assert set(factors) == {"a", "b"}

    def test_same_alias_product_merges(self):
        expr = Arith("*", ColumnRef("a", "price"), ColumnRef("a", "volume"))
        ((_, factors),) = decompose_product_sum(expr)
        assert set(factors) == {"a"}
        assert isinstance(factors["a"], Arith)

    def test_division_by_constant(self):
        expr = Arith("/", ColumnRef("a", "price"), Const(2))
        ((coef, _),) = decompose_product_sum(expr)
        assert coef == 0.5

    def test_division_by_column_rejected(self):
        expr = Arith("/", Const(1), ColumnRef("a", "price"))
        with pytest.raises(UnsupportedQueryError):
            decompose_product_sum(expr)

    def test_distribution(self):
        # (a.x + 2) * b.y -> a.x*b.y + 2*b.y
        expr = Arith(
            "*",
            Arith("+", ColumnRef("a", "x"), Const(2)),
            ColumnRef("b", "y"),
        )
        terms = decompose_product_sum(expr)
        assert len(terms) == 2
        coefs = sorted(c for c, _ in terms)
        assert coefs == [1.0, 2.0]


class TestCompiledEngine:
    def test_matches_handwritten_mst(self):
        plan = classify(get_query("MST").ast)
        compiled = AggregateIndexEngine(plan)
        handwritten = MSTRpaiEngine()
        stream = generate_order_book(
            OrderBookConfig(events=300, price_levels=40, volume_max=20, seed=61, delete_ratio=0.2)
        )
        for index, event in enumerate(stream):
            assert handwritten.on_event(event) == compiled.on_event(event), index

    def test_matches_naive_on_product_query(self):
        """A cross-term query MST's hand-written engine cannot do."""
        sql = """
            SELECT SUM(a.price * b.volume) FROM asks a, bids b
            WHERE 0.5 * (SELECT SUM(a1.volume) FROM asks a1)
                    > (SELECT SUM(a2.volume) FROM asks a2 WHERE a2.price > a.price)
              AND 0.5 * (SELECT SUM(b1.volume) FROM bids b1)
                    > (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price > b.price)
        """
        query = parse_query(sql)
        plan = classify(query)
        engine = AggregateIndexEngine(plan)
        naive = NaiveEngine(query, {"asks": schemas.ASKS, "bids": schemas.BIDS})
        stream = generate_order_book(
            OrderBookConfig(events=120, price_levels=15, volume_max=8, seed=62, delete_ratio=0.2)
        )
        for index, event in enumerate(stream):
            assert naive.on_event(event) == engine.on_event(event), index

    def test_single_relation_argument_is_one_required_sum(self):
        """Only a cross-relation argument is split into factors: VWAP's
        ``price * volume`` stays one column with no count."""
        engine = AggregateIndexEngine(classify(get_query("VWAP").ast))
        (side,) = engine.layout.sides
        assert len(side.factors) == 1 and not side.counted
        assert engine.layout.terms == ((1.0, (0,)),)

    def test_rejects_non_sum_result(self):
        sql = """
            SELECT MAX(a.price - b.price) FROM asks a, bids b
            WHERE 0.5 * (SELECT SUM(a1.volume) FROM asks a1)
                    > (SELECT SUM(a2.volume) FROM asks a2 WHERE a2.price > a.price)
              AND 0.5 * (SELECT SUM(b1.volume) FROM bids b1)
                    > (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price > b.price)
        """
        query = parse_query(sql)
        plan = classify(query)
        if plan.index_specs:
            with pytest.raises(UnsupportedQueryError):
                AggregateIndexEngine(plan)


class TestMultiEqualityPlan:
    SQL = """
        SELECT SUM(r.A * r.B) FROM R r
        WHERE 0.5 * (SELECT SUM(r1.B) FROM R r1)
            = (SELECT SUM(r2.B) FROM R r2 WHERE r2.A = r.A AND r2.C = r.C)
    """

    def test_classifies_as_point_update(self):
        from repro.query.planner import Strategy

        plan = classify(parse_query(self.SQL))
        assert plan.strategy is Strategy.PAI_EQUALITY
        (spec,) = plan.index_specs
        assert len(spec.column_pairs()) == 2

    def test_mixed_equality_inequality_rejected(self):
        from repro.query.planner import Strategy

        sql = self.SQL.replace("r2.C = r.C", "r2.C <= r.C")
        plan = classify(parse_query(sql))
        assert plan.strategy is Strategy.GENERAL
