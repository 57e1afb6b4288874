"""Row expressions, one way: as emitted Python source.

An expression over one relation's columns (``Const`` / ``ColumnRef`` /
``Arith``, or a row filter: comparisons joined by ``And``) has
exactly one statement of its semantics — the source the
emitters below produce: :func:`emit_row_expr` over a row dict,
:func:`emit_col_element` over one element of typed column lists, and
:func:`emit_predicate_side` for one side of an outer predicate, which
may also read maintained subqueries.  The generated triggers and
results (:mod:`repro.query.codegen`, the sides of
:mod:`repro.engine.queries`) splice that source into their bodies; the
``compile_*`` functions hand the same source to one
``eval`` and return the resulting single lambda, so a plain-Python
caller and a generated body can never disagree about an operator or an
evaluation order.  The independent oracle is the naive interpreter's
``_eval_expr`` (``tests/query/test_rowexpr.py`` checks it on random
trees).

Also here, because they are built from nothing but row expressions:
the constant-scale peel every engine applies to an aggregate, the
scalar accumulator that maintains a predicate-free uncorrelated
subquery, and :func:`compile_source`, the one place generated source
is compiled (and registered with ``linecache``, so tracebacks and
``pdb`` show generated lines).
"""

from __future__ import annotations

import linecache
import zlib
from typing import Any, Callable, Mapping

from repro.errors import UnsupportedQueryError
from repro.query.ast import (
    AggrCall,
    AggrQuery,
    And,
    Arith,
    ColumnRef,
    Comparison,
    Const,
    Expr,
    Predicate,
    SubqueryExpr,
)

__all__ = [
    "PY_COMPARE",
    "compile_source",
    "compile_row_expr",
    "compile_col_expr",
    "emit_row_expr",
    "emit_col_element",
    "emit_predicate_side",
    "subquery_bindings",
    "peel_constant_scale",
    "emit_scaled",
    "MaintainedAggregate",
    "UncorrelatedScalar",
]

Row = Mapping[str, Any]
RowFn = Callable[[Row], Any]


def _column_of(expr: ColumnRef, alias: str) -> str:
    if expr.relation != alias:
        raise UnsupportedQueryError(f"expected a column of {alias!r}, got {expr}")
    return expr.column


def compile_source(source: str, label: str, mode: str = "exec") -> Any:
    """``compile()`` generated ``source`` under a filename unique to it
    (``<label:crc32>``), registered with ``linecache`` so tracebacks and
    ``pdb`` show the generated lines."""
    filename = f"<{label}:{zlib.crc32(source.encode()):08x}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    return compile(source, filename, mode)


def _lambda(params: str, body: str) -> Callable:
    return eval(compile_source(f"lambda {params}: {body}\n", "rowexpr", "eval"), {})


def compile_row_expr(expr: Expr | None, alias: str) -> RowFn:
    """:func:`emit_row_expr` as a function of the row."""
    return _lambda("_row", emit_row_expr(expr, alias))


def compile_col_expr(expr: Expr | None, alias: str) -> Callable[[Any], list]:
    """:func:`emit_col_element` as a function of a
    :class:`~repro.storage.colbatch.ColumnBlock` returning the per-row
    value list, each column fetched once per block."""
    if isinstance(expr, ColumnRef):  # the column itself: no per-row copy
        return _lambda("_blk", f"_blk.column({_column_of(expr, alias)!r})")
    cols: dict[str, str] = {}
    element = emit_col_element(expr, alias, cols)
    fetches = ", ".join(f"_blk.column({column!r})" for column in cols)
    return _lambda(
        "_blk",
        f"(lambda {', '.join(cols.values())}: "
        f"[{element} for _i in range(len(_blk))])({fetches})",
    )


#: SQL comparison -> Python operator, where they differ
PY_COMPARE = {"=": "==", "<>": "!="}


def _py_op(node: Arith | Comparison | And) -> str:
    return "and" if isinstance(node, And) else PY_COMPARE.get(node.op, node.op)


def emit_row_expr(expr: Expr | Predicate | None, alias: str, row: str = "_row") -> str:
    """Source of :func:`compile_row_expr`'s closure body, reading the
    row from the local named ``row``; ``None`` is the count-style
    constant 1, and a conjunction of comparisons is a bool."""
    if expr is None:
        return "1"
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, ColumnRef):
        return f"{row}[{_column_of(expr, alias)!r}]"
    if isinstance(expr, (Arith, Comparison, And)):
        left = emit_row_expr(expr.left, alias, row)
        right = emit_row_expr(expr.right, alias, row)
        return f"({left} {_py_op(expr)} {right})"
    raise UnsupportedQueryError(f"cannot emit row expression {expr!r}")


def emit_col_element(
    expr: Expr | Predicate | None, alias: str, cols: dict[str, str], element: str = "[_i]"
) -> str:
    """Element-``_i`` source of the same expression evaluated off typed
    columns.  Column fetches are deduplicated into ``cols`` (column
    name -> hoisted local), so the caller hoists each
    ``block.column(name)`` once per block; with ``element=""`` the
    locals are the values themselves (a row function's parameters)."""
    if expr is None:
        return "1"
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, ColumnRef):
        column = _column_of(expr, alias)
        local = cols.get(column)
        if local is None:
            local = cols[column] = f"_col{len(cols)}"
        return local + element
    if isinstance(expr, (Arith, Comparison, And)):
        left = emit_col_element(expr.left, alias, cols, element)
        right = emit_col_element(expr.right, alias, cols, element)
        return f"({left} {_py_op(expr)} {right})"
    raise UnsupportedQueryError(f"cannot emit column expression {expr!r}")


#: constant wrappers around an aggregate, ``(op, constant)`` innermost first
Scale = tuple[tuple[str, Any], ...]


def peel_constant_scale(expr: Expr) -> tuple[Scale, Expr]:
    """Strip ``c *`` / ``* c`` / ``/ c`` wrappers around an aggregate.

    The wrappers are kept as written, not folded into one factor:
    ``x * (1 / 7.0)`` differs from ``x / 7.0`` in the last place for
    about a third of the integers.  Apply them with :func:`emit_scaled`."""
    steps: list[tuple[str, Any]] = []
    while isinstance(expr, Arith):
        if expr.op == "*" and isinstance(expr.left, Const):
            steps.append(("*", expr.left.value))
            expr = expr.right
        elif expr.op in ("*", "/") and isinstance(expr.right, Const):
            steps.append((expr.op, expr.right.value))
            expr = expr.left
        else:
            break
    return tuple(reversed(steps)), expr


def emit_scaled(scale: Scale, value: str) -> str:
    """Source of ``value`` (made a float) under ``scale``, innermost
    wrapper first — the naive interpreter's evaluation order."""
    value = f"(1.0 * {value})"
    for op, constant in scale:
        value = f"({value} {op} {constant!r})"
    return value


class MaintainedAggregate:
    """SUM/COUNT/AVG accumulator: Σ value · weight and Σ weight (the
    emitted triggers add to both, the emitted reads divide)."""

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


class UncorrelatedScalar:
    """A predicate-free uncorrelated subquery maintained as a scalar.

    SUM/COUNT/AVG are streamable accumulators; MIN/MAX use the Section
    4.2.5 ordered-multiset view, which supports deletions too.
    """

    def __init__(self, query: AggrQuery) -> None:
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

    def value_src(self, name: str) -> str:
        """Inline read of the scalar's value, bound as ``name`` —
        monomorphized on the aggregate function (an empty AVG is 0)."""
        func = self.aggregate.func
        if func == "SUM":
            return f"{name}.aggregate.total"
        if func == "COUNT":
            return f"{name}.aggregate.count"
        if func == "AVG":
            return (
                f"({name}.aggregate.total / {name}.aggregate.count "
                f"if {name}.aggregate.count else 0)"
            )
        return f"{name}.aggregate.value()"  # MIN/MAX: MinMaxView lookup stays a call


def subquery_bindings(scalars: Mapping[AggrQuery, UncorrelatedScalar]) -> dict[str, Any]:
    """The names :func:`emit_predicate_side` reads scalars through:
    ``_sc{i}`` by position in ``scalars``."""
    return {f"_sc{i}": scalar for i, scalar in enumerate(scalars.values())}


def emit_predicate_side(
    expr: Expr,
    outer_alias: str,
    scalars: Mapping[AggrQuery, UncorrelatedScalar],
    correlated: Mapping[AggrQuery, Callable[[str], str]],
    row: str = "_row",
) -> str:
    """Source of one side of an outer predicate over the representative
    outer row in the local named ``row``.  Subqueries read their
    maintained state inline: a scalar's ``value_src`` of its
    :func:`subquery_bindings` name, a correlated subquery (the free-map
    side's) the source its reader returns for ``row``."""
    if isinstance(expr, (Const, ColumnRef)):
        return emit_row_expr(expr, outer_alias, row)
    if isinstance(expr, Arith):
        left = emit_predicate_side(expr.left, outer_alias, scalars, correlated, row)
        right = emit_predicate_side(expr.right, outer_alias, scalars, correlated, row)
        return f"({left} {expr.op} {right})"
    if isinstance(expr, SubqueryExpr):
        if expr.query in correlated:
            return correlated[expr.query](row)
        position = list(scalars).index(expr.query)
        return scalars[expr.query].value_src(f"_sc{position}")
    raise UnsupportedQueryError(f"unsupported predicate operand {expr!r}")


