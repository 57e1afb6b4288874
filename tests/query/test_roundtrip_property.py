"""Property test: randomly generated AggrQ ASTs survive a print→parse
round trip, and a pickle round trip, unchanged.

The generator produces queries within the Section 4.1 grammar —
arithmetic operands, aggregate calls, correlated scalar subqueries,
conjunctions/disjunctions, GROUP BY / HAVING — which exercises the
parser's precedence and backtracking far beyond the fixed benchmark
queries.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.ast import (
    AggrCall,
    AggrQuery,
    And,
    Arith,
    ColumnRef,
    Comparison,
    Const,
    Or,
    RelationRef,
    SelectItem,
    SubqueryExpr,
)
from repro.query.parser import parse_query

_COLUMNS = ("price", "volume", "qty")
_AGGRS = ("SUM", "COUNT", "AVG", "MIN", "MAX")
_THETAS = ("=", "<", "<=", ">", ">=", "<>")
_OPS = ("+", "-", "*")


def _exprs(alias: str, depth: int = 2):
    base = st.one_of(
        st.integers(min_value=0, max_value=99).map(Const),
        st.sampled_from(_COLUMNS).map(lambda c: ColumnRef(alias, c)),
    )
    if depth == 0:
        return base
    sub = _exprs(alias, depth - 1)
    return st.one_of(
        base,
        st.tuples(st.sampled_from(_OPS), sub, sub).map(lambda t: Arith(*t)),
    )


def _aggr_calls(alias: str):
    return st.one_of(
        st.just(AggrCall("COUNT", None)),
        st.tuples(st.sampled_from(_AGGRS), _exprs(alias, 1)).map(
            lambda t: AggrCall(t[0], t[1])
        ),
    )


def _subqueries(outer_alias: str):
    """Scalar subqueries over relation T, possibly correlated with the
    outer alias."""

    def build(call, pred):
        return SubqueryExpr(
            AggrQuery(
                select=(SelectItem(call),),
                relations=(RelationRef("T", "t2"),),
                where=pred,
            )
        )

    inner_pred = st.one_of(
        st.none(),
        st.tuples(
            st.sampled_from(_THETAS),
            st.sampled_from(_COLUMNS).map(lambda c: ColumnRef("t2", c)),
            st.sampled_from(_COLUMNS).map(lambda c: ColumnRef(outer_alias, c)),
        ).map(lambda t: Comparison(*t)),
    )
    return st.tuples(_aggr_calls("t2"), inner_pred).map(lambda t: build(*t))


def _predicates(alias: str, depth: int = 2):
    operand = st.one_of(_exprs(alias, 1), _subqueries(alias))
    comparison = st.tuples(st.sampled_from(_THETAS), operand, operand).map(
        lambda t: Comparison(*t)
    )
    if depth == 0:
        return comparison
    sub = _predicates(alias, depth - 1)
    return st.one_of(
        comparison,
        st.tuples(sub, sub).map(lambda t: And(*t)),
        st.tuples(sub, sub).map(lambda t: Or(*t)),
    )


def _queries():
    def build(select_call, pred, group_col, having):
        select: tuple[SelectItem, ...] = (SelectItem(select_call),)
        group_by: tuple[ColumnRef, ...] = ()
        if group_col is not None:
            group_by = (ColumnRef("t", group_col),)
            select = (SelectItem(ColumnRef("t", group_col)),) + select
        return AggrQuery(
            select=select,
            relations=(RelationRef("T", "t"),),
            where=pred,
            group_by=group_by,
            having=having if group_by else None,
        )

    having = st.one_of(
        st.none(),
        st.tuples(
            st.sampled_from(("<", ">")),
            _aggr_calls("t"),
            st.integers(0, 500).map(Const),
        ).map(lambda t: Comparison(t[0], t[1], t[2])),
    )
    return st.tuples(
        _aggr_calls("t"),
        st.one_of(st.none(), _predicates("t")),
        st.one_of(st.none(), st.sampled_from(_COLUMNS)),
        having,
    ).map(lambda t: build(*t))


@given(query=_queries())
@settings(max_examples=400, deadline=None)
def test_print_parse_roundtrip(query: AggrQuery):
    assert parse_query(str(query)) == query


@given(query=_queries())
@settings(max_examples=200, deadline=None)
def test_notation_renders_without_error(query: AggrQuery):
    text = query.to_aggrq_notation()
    assert text.startswith("Agg[")


@given(query=_queries())
@settings(max_examples=200, deadline=None)
def test_pickle_roundtrip(query: AggrQuery):
    assert pickle.loads(pickle.dumps(query)) == query


def test_pickle_keeps_constants_the_text_cannot():
    """Positional pickles hold the values, not their printed form."""
    query = parse_query(
        "SELECT SUM(t.price) FROM T t WHERE t.qty > 0.00001 AND t.name = 'O''Brien'"
    )
    assert pickle.loads(pickle.dumps(query)) == query
