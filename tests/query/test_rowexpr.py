"""Row-expression source against an oracle that is not the code under test.

``rowexpr`` states an expression's semantics once, as emitted source
(``emit_row_expr`` over a row, ``emit_col_element`` over typed-column
elements, ``emit_predicate_side`` with subquery reads); the
``compile_*`` functions are one ``eval`` of that source.  The reference
here is the naive interpreter's ``_eval_expr`` over a one-row relation —
a recursive evaluator that shares no line with the emitters.
Hypothesis builds random ``Const`` / ``ColumnRef`` / ``Arith`` trees;
floats are included so a reassociated or reordered evaluation shows up
as a last-digit difference, and results are compared by ``repr`` (type
and bits, not ``1 == 1.0``).
"""

from __future__ import annotations

import traceback

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.naive import NaiveEngine, _eval_expr
from repro.errors import UnsupportedQueryError
from repro.query.ast import Arith, ColumnRef, Const, SubqueryExpr, walk_expr
from repro.query.parser import parse_query
from repro.query.rowexpr import (
    compile_col_expr,
    compile_row_expr,
    emit_col_element,
    emit_predicate_side,
    emit_row_expr,
    emit_scaled,
    peel_constant_scale,
    subquery_bindings,
)
from repro.storage import schema as schemas
from repro.storage.colbatch import ColumnBlock

from tests.conftest import free_map_engine, random_bid_stream

ALIAS = "t"
COLUMNS = ("a", "b", "c")

numbers = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.floats(min_value=-50, max_value=50, allow_nan=False, width=32),
)


def trees(leaves):
    return st.recursive(
        leaves,
        lambda children: st.builds(Arith, st.sampled_from("+-*/"), children, children),
        max_leaves=12,
    )


exprs = trees(
    st.one_of(
        numbers.map(Const),
        st.sampled_from(COLUMNS).map(lambda column: ColumnRef(ALIAS, column)),
    )
)
rows = st.fixed_dictionaries({column: numbers for column in COLUMNS})


def outcome(thunk):
    """``repr`` of the value, or the exception type (division by zero
    must strike the oracle and the emitted source alike)."""
    try:
        return repr(thunk())
    except ArithmeticError as exc:
        return type(exc).__name__


def naive(expr, row):
    return _eval_expr(expr, {ALIAS: row}, {})


@settings(max_examples=300, deadline=None)
@given(expr=exprs, row=rows)
def test_row_and_column_element_source_match_the_naive_interpreter(expr, row):
    expected = outcome(lambda: naive(expr, row))
    row_source = emit_row_expr(expr, ALIAS, "_row")
    cols: dict[str, str] = {}
    col_source = emit_col_element(expr, ALIAS, cols)
    # one-row columns, hoisted the way the generated on_frame hoists them
    namespace = {local: [row[column]] for column, local in cols.items()}
    namespace["_i"] = 0

    assert outcome(lambda: compile_row_expr(expr, ALIAS)(row)) == expected
    assert outcome(lambda: eval(row_source, {"_row": row})) == expected
    assert outcome(lambda: eval(col_source, namespace)) == expected


@settings(max_examples=100, deadline=None)
@given(expr=exprs, batch=st.lists(rows, min_size=1, max_size=5))
def test_column_function_is_the_naive_interpreter_per_row(expr, batch):
    block = ColumnBlock(ALIAS, COLUMNS, ("x",) * len(COLUMNS))
    for row in batch:
        for column, name in zip(block.columns, COLUMNS):
            column.append(row[name])
        block.weights.append(1)
    expected = outcome(lambda: [naive(expr, row) for row in batch])
    assert outcome(lambda: compile_col_expr(expr, ALIAS)(block)) == expected


def test_absent_expression_is_the_count_style_one():
    block = ColumnBlock(ALIAS, COLUMNS, ("x",) * len(COLUMNS))
    block.weights.extend([1, 1, -1])
    assert compile_row_expr(None, ALIAS)({}) == 1
    assert compile_col_expr(None, ALIAS)(block) == [1, 1, 1]


# One side of an outer predicate: arithmetic over constants, outer
# columns, an uncorrelated scalar and a correlated subquery.  The
# maintained state is the free-map side's own (fed a seeded stream),
# the oracle re-evaluates both subqueries from the stored relation.
HOST = parse_query(
    """
    SELECT SUM(b.volume) FROM bids b
    WHERE 0.5 * (SELECT SUM(b1.volume) FROM bids b1)
        < (SELECT AVG(b2.volume) FROM bids b2 WHERE b2.price <= b.price)
    """
)
OPERANDS = [
    node for node in walk_expr(HOST.where.left) if isinstance(node, SubqueryExpr)
] + [HOST.where.right]
sides = trees(
    st.one_of(
        st.integers(min_value=-9, max_value=9).map(Const),
        st.sampled_from(("price", "volume")).map(lambda column: ColumnRef("b", column)),
        st.sampled_from(OPERANDS),
    )
)


@settings(max_examples=60, deadline=None)
@given(expr=sides, seed=st.integers(0, 50), count=st.integers(0, 30))
def test_predicate_side_with_scalar_and_correlated_operands(expr, seed, count):
    engine = free_map_engine(HOST)
    oracle = NaiveEngine(HOST, {"bids": schemas.BIDS})
    for event in random_bid_stream(count, seed=seed, price_levels=8, volume_max=5):
        engine.apply(event)
        oracle.apply(event)
    engine.result()  # the free-map pass runs when the answer is read
    (maps,) = engine.sides
    source = emit_predicate_side(expr, "b", engine._scalars, maps.readers(0))
    names = {"_fs0_0": maps.free_sum[0], "_fc0_0": maps.free_count[0]}
    side = eval(f"lambda _row: {source}", {**subquery_bindings(engine._scalars), **names})

    def value(thunk):
        # ``==``, not ``repr``: a maintained subquery reads as
        # ``scale * sum`` (a float), the oracle's as the bare sum.
        try:
            return thunk()
        except ArithmeticError as exc:
            return type(exc).__name__

    for row in maps.res_repr.values():
        full = {"price": row["price"], "volume": 3}
        expected = value(lambda: _eval_expr(expr, {"b": full}, oracle.relations))
        assert value(lambda: side(full)) == expected


def test_foreign_alias_rejected_by_every_compiler():
    foreign = Arith("+", ColumnRef("u", "a"), Const(1))
    for compiler in (
        lambda: compile_row_expr(foreign, ALIAS),
        lambda: compile_col_expr(foreign, ALIAS),
        lambda: emit_predicate_side(foreign, ALIAS, {}, {}),
        lambda: emit_row_expr(foreign, ALIAS),
        lambda: emit_col_element(foreign, ALIAS, {}),
    ):
        with pytest.raises(UnsupportedQueryError):
            compiler()


def test_a_missing_column_points_at_the_generated_line():
    """Generated source is registered with ``linecache``: the traceback
    of a row that lacks a column shows the expression it was read by."""
    expr = Arith("*", ColumnRef(ALIAS, "a"), ColumnRef(ALIAS, "missing"))
    with pytest.raises(KeyError):
        try:
            compile_row_expr(expr, ALIAS)({"a": 1})
        except KeyError:
            assert "lambda _row: (_row['a'] * _row['missing'])" in traceback.format_exc()
            raise


def test_peel_constant_scale():
    column = ColumnRef(ALIAS, "a")
    expr = Arith("/", Arith("*", Const(3), Arith("*", column, Const(2))), Const(4))
    scale = (("*", 2), ("*", 3), ("/", 4))  # innermost first
    assert peel_constant_scale(expr) == (scale, column)
    assert peel_constant_scale(column) == ((), column)
    # applied as written, in the naive interpreter's order
    for value in range(1, 200):
        expected = _eval_expr(expr, {ALIAS: {"a": value}}, {})
        assert eval(emit_scaled(scale, "value")) == expected
    # a seventh is not a multiplication by its reciprocal
    (seventh, _call) = peel_constant_scale(Arith("/", column, Const(7.0)))
    assert eval(emit_scaled(seventh, "10")) == 10 / 7.0 != 10 * (1 / 7.0)
