"""The three compilers of a row expression agree.

``compile_row_expr`` (closure), ``emit_row_expr`` (source over a row)
and ``emit_col_element`` (source over typed-column elements) must
compute the same value with the same operators in the same order —
that is what keeps compiled triggers bit-identical to interpreted ones.
Hypothesis builds random ``Const`` / ``ColumnRef`` / ``Arith`` trees;
floats are included so a reassociated or reordered evaluation shows up
as a last-digit difference, and results are compared by ``repr`` (type
and bits, not ``1 == 1.0``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import UnsupportedQueryError
from repro.query.ast import Arith, ColumnRef, Const
from repro.query.rowexpr import (
    MaintainedAggregate,
    compile_col_expr,
    compile_row_expr,
    emit_col_element,
    emit_row_expr,
    peel_constant_scale,
)
from repro.storage.colbatch import ColumnBlock

ALIAS = "t"
COLUMNS = ("a", "b", "c")

numbers = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.floats(min_value=-50, max_value=50, allow_nan=False, width=32),
)
leaves = st.one_of(
    numbers.map(Const),
    st.sampled_from(COLUMNS).map(lambda column: ColumnRef(ALIAS, column)),
)
exprs = st.recursive(
    leaves,
    lambda children: st.builds(Arith, st.sampled_from("+-*/"), children, children),
    max_leaves=12,
)
rows = st.fixed_dictionaries({column: numbers for column in COLUMNS})


def outcome(thunk):
    """``repr`` of the value, or the exception type (division by zero
    must strike all three compilers alike)."""
    try:
        return repr(thunk())
    except ArithmeticError as exc:
        return type(exc).__name__


@settings(max_examples=300, deadline=None)
@given(expr=exprs, row=rows)
def test_closure_row_source_and_column_source_agree(expr, row):
    closure = compile_row_expr(expr, ALIAS)
    row_source = emit_row_expr(expr, ALIAS, "_row")
    cols: dict[str, str] = {}
    col_source = emit_col_element(expr, ALIAS, cols)
    # one-row columns, hoisted the way the generated on_frame hoists them
    namespace = {local: [row[column]] for column, local in cols.items()}
    namespace["_i"] = 0

    expected = outcome(lambda: closure(row))
    assert outcome(lambda: eval(row_source, {"_row": row})) == expected
    assert outcome(lambda: eval(col_source, namespace)) == expected


@settings(max_examples=100, deadline=None)
@given(expr=exprs, batch=st.lists(rows, min_size=1, max_size=5))
def test_columnar_closure_is_the_row_closure_per_element(expr, batch):
    block = ColumnBlock(ALIAS, COLUMNS, ("x",) * len(COLUMNS))
    for row in batch:
        for column, name in zip(block.columns, COLUMNS):
            column.append(row[name])
        block.weights.append(1)
    closure = compile_row_expr(expr, ALIAS)
    expected = outcome(lambda: [closure(row) for row in batch])
    assert outcome(lambda: compile_col_expr(expr, ALIAS)(block)) == expected


def test_foreign_alias_rejected_by_every_compiler():
    foreign = Arith("+", ColumnRef("u", "a"), Const(1))
    for compiler in (
        lambda: compile_row_expr(foreign, ALIAS),
        lambda: compile_col_expr(foreign, ALIAS),
        lambda: emit_row_expr(foreign, ALIAS),
        lambda: emit_col_element(foreign, ALIAS, {}),
    ):
        with pytest.raises(UnsupportedQueryError):
            compiler()


def test_peel_constant_scale():
    column = ColumnRef(ALIAS, "a")
    expr = Arith("/", Arith("*", Const(3), Arith("*", column, Const(2))), Const(4))
    assert peel_constant_scale(expr) == (1.5, column)
    assert peel_constant_scale(column) == (1.0, column)


def test_scalar_accumulator_still_loads_under_its_old_name():
    """Snapshots written before the move pickled the accumulator as
    ``repro.engine.general._MaintainedAggregate``."""
    from repro.engine import general

    assert general._MaintainedAggregate is MaintainedAggregate
