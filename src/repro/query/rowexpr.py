"""Row expressions, three ways.

An expression over one relation's columns (``Const`` / ``ColumnRef`` /
``Arith``) is evaluated by the interpreted engines as a closure over a
row, by the generated per-event/batch triggers as Python source over
``_row[...]`` and by the generated columnar triggers as source over one
element of typed column lists.  The three compilers live side by side
here because they must agree — same operators, same evaluation order —
for the compiled triggers to stay bit-identical to the interpreted
ones (``tests/query/test_rowexpr.py`` checks it on random trees).

Also here, because they are built from nothing but row expressions:
the constant-scale peel every engine applies to its result aggregate,
the scalar accumulator that maintains a predicate-free uncorrelated
subquery, and the closure for one side of an outer predicate.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Mapping, Sequence

from repro.errors import UnsupportedQueryError
from repro.query.ast import (
    AggrCall,
    AggrQuery,
    Arith,
    ColumnRef,
    Const,
    Expr,
    SubqueryExpr,
)

__all__ = [
    "ARITH_FN",
    "compile_row_expr",
    "compile_col_expr",
    "emit_row_expr",
    "emit_col_element",
    "peel_constant_scale",
    "MaintainedAggregate",
    "UncorrelatedScalar",
    "compile_predicate_side",
]

Row = Mapping[str, Any]
RowFn = Callable[[Row], Any]

ARITH_FN = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


def _column_of(expr: ColumnRef, alias: str) -> str:
    if expr.relation != alias:
        raise UnsupportedQueryError(f"expected a column of {alias!r}, got {expr}")
    return expr.column


def compile_row_expr(expr: Expr, alias: str) -> RowFn:
    """Compile an expression over a single row (columns of ``alias``
    only) into a Python closure."""
    if isinstance(expr, Const):
        value = expr.value
        return lambda row: value
    if isinstance(expr, ColumnRef):
        column = _column_of(expr, alias)
        return lambda row: row[column]
    if isinstance(expr, Arith):
        left = compile_row_expr(expr.left, alias)
        right = compile_row_expr(expr.right, alias)
        fn = ARITH_FN[expr.op]
        return lambda row: fn(left(row), right(row))
    raise UnsupportedQueryError(f"cannot compile row expression {expr!r}")


def compile_col_expr(expr: Expr, alias: str) -> Callable[[Any], list]:
    """Columnar counterpart of :func:`compile_row_expr`: a function of a
    :class:`~repro.storage.colbatch.ColumnBlock` returning the per-row
    value list.  Element ``i`` performs exactly the arithmetic the row
    closure performs on row ``i``."""
    if isinstance(expr, Const):
        value = expr.value
        return lambda block: [value] * len(block)
    if isinstance(expr, ColumnRef):
        column = _column_of(expr, alias)
        return lambda block: block.column(column)
    if isinstance(expr, Arith):
        left = compile_col_expr(expr.left, alias)
        right = compile_col_expr(expr.right, alias)
        fn = ARITH_FN[expr.op]
        return lambda block: [fn(a, b) for a, b in zip(left(block), right(block))]
    raise UnsupportedQueryError(f"cannot compile column expression {expr!r}")


def emit_row_expr(expr: Expr | None, alias: str, row: str = "_row") -> str:
    """Source of :func:`compile_row_expr`'s closure body, reading the
    row from the local named ``row``; ``None`` is the count-style
    constant 1."""
    if expr is None:
        return "1"
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, ColumnRef):
        return f"{row}[{_column_of(expr, alias)!r}]"
    if isinstance(expr, Arith):
        left = emit_row_expr(expr.left, alias, row)
        right = emit_row_expr(expr.right, alias, row)
        return f"({left} {expr.op} {right})"
    raise UnsupportedQueryError(f"cannot emit row expression {expr!r}")


def emit_col_element(expr: Expr | None, alias: str, cols: dict[str, str]) -> str:
    """Element-``_i`` source of the same expression evaluated off typed
    columns.  Column fetches are deduplicated into ``cols`` (column
    name -> hoisted local), so the caller hoists each
    ``block.column(name)`` once per block."""
    if expr is None:
        return "1"
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, ColumnRef):
        column = _column_of(expr, alias)
        local = cols.get(column)
        if local is None:
            local = cols[column] = f"_col{len(cols)}"
        return f"{local}[_i]"
    if isinstance(expr, Arith):
        left = emit_col_element(expr.left, alias, cols)
        right = emit_col_element(expr.right, alias, cols)
        return f"({left} {expr.op} {right})"
    raise UnsupportedQueryError(f"cannot emit column expression {expr!r}")


def peel_constant_scale(expr: Expr) -> tuple[float, Expr]:
    """Strip ``c *`` / ``* c`` / ``/ c`` wrappers around an aggregate."""
    scale = 1.0
    while isinstance(expr, Arith):
        if expr.op == "*" and isinstance(expr.left, Const):
            scale *= expr.left.value  # type: ignore[arg-type]
            expr = expr.right
        elif expr.op == "*" and isinstance(expr.right, Const):
            scale *= expr.right.value  # type: ignore[arg-type]
            expr = expr.left
        elif expr.op == "/" and isinstance(expr.right, Const):
            scale /= expr.right.value  # type: ignore[arg-type]
            expr = expr.left
        else:
            break
    return scale, expr


class MaintainedAggregate:
    """SUM/COUNT/AVG accumulator over (value, weight) deltas."""

    __slots__ = ("func", "total", "count")

    def __init__(self, func: str) -> None:
        if func not in {"SUM", "COUNT", "AVG"}:
            raise UnsupportedQueryError(
                f"the general algorithm requires streamable aggregates, "
                f"got {func}"
            )
        self.func = func
        self.total: float = 0
        self.count: int = 0

    def update(self, value: float, weight: int) -> None:
        self.total += value * weight
        self.count += weight

    def value(self) -> float:
        if self.func == "SUM":
            return self.total
        if self.func == "COUNT":
            return self.count
        return self.total / self.count if self.count else 0


class UncorrelatedScalar:
    """A predicate-free uncorrelated subquery maintained as a scalar.

    SUM/COUNT/AVG are streamable accumulators; MIN/MAX use the Section
    4.2.5 ordered-multiset view, which supports deletions too.
    """

    def __init__(self, query: AggrQuery, alias: str) -> None:
        call = query.select[0].expr
        if not isinstance(call, AggrCall):
            raise UnsupportedQueryError(
                "uncorrelated subquery select must be a bare aggregate for "
                "the general algorithm"
            )
        if call.func in {"MIN", "MAX"}:
            from repro.core.minmax import MinMaxView

            self.aggregate: Any = MinMaxView(call.func)
        else:
            self.aggregate = MaintainedAggregate(call.func)
        self.relation = query.relations[0].name
        self.arg = (
            compile_row_expr(call.arg, alias) if call.arg is not None else None
        )
        self.arg_col = (
            compile_col_expr(call.arg, alias) if call.arg is not None else None
        )

    def on_row(self, row: Row, weight: int) -> None:
        value = self.arg(row) if self.arg is not None else 1
        self.aggregate.update(value, weight)

    def column_values(self, block: Any) -> list | None:
        """Per-row arg values for a :class:`ColumnBlock` (pure — no
        state change; ``None`` means the count-style constant 1)."""
        return None if self.arg_col is None else self.arg_col(block)

    def apply_columns(self, values: list | None, weights: Sequence[int]) -> None:
        """Fold precomputed :meth:`column_values` into the accumulator
        in row order — exactly the per-event :meth:`on_row` sequence."""
        update = self.aggregate.update
        if values is None:
            for weight in weights:
                update(1, weight)
        else:
            for value, weight in zip(values, weights):
                update(value, weight)

    def value(self) -> float:
        return self.aggregate.value()


def compile_predicate_side(
    expr: Expr,
    outer_alias: str,
    scalars: Mapping[AggrQuery, UncorrelatedScalar],
    correlated: Mapping[AggrQuery, Any],
) -> RowFn:
    """Compile one side of an outer predicate to a closure over the
    representative outer row.  Subqueries read their maintained state
    directly: a scalar's ``value()``, or — for the general algorithm's
    correlated subqueries — ``value(outer_key(row))``."""
    if isinstance(expr, Const):
        value = expr.value
        return lambda row: value
    if isinstance(expr, ColumnRef):
        column = _column_of(expr, outer_alias)
        return lambda row: row[column]
    if isinstance(expr, Arith):
        left = compile_predicate_side(expr.left, outer_alias, scalars, correlated)
        right = compile_predicate_side(expr.right, outer_alias, scalars, correlated)
        fn = ARITH_FN[expr.op]
        return lambda row: fn(left(row), right(row))
    if isinstance(expr, SubqueryExpr):
        if expr.query in correlated:
            sub = correlated[expr.query]
            outer_key = sub.outer_key
            return lambda row: sub.value(outer_key(row))
        scalar = scalars[expr.query]
        return lambda row: scalar.value()
    raise UnsupportedQueryError(f"unsupported predicate operand {expr!r}")
