"""AST for the AggrQ grammar of paper Section 4.1.

The paper represents the supported query class with a compact grammar::

    AggrQ      -> Aggr[cols](AggrFunc, Relations, Predicates)
    AggrFunc   -> AggrFunc op AggrFunc
    AggrFunc   -> (SUM|COUNT|AVERAGE|MIN|MAX) f(cols)
    Relations  -> Relation | Relation, Relations      Relation -> Q | R
    Predicates -> Predicate | Predicate (AND|OR) Predicate
    Predicate  -> Value θ Value         θ  -> > | >= | < | <= | =
    Value      -> Value op Value        op -> + | - | * | /
    Value      -> Const | Col | Aggr[](AggrFunc, Relations, Predicates)

This module mirrors that grammar with frozen dataclasses.  Nested
aggregate subqueries appear as :class:`SubqueryExpr` nodes inside
predicate operands; ``IN (SELECT ...)`` membership (needed for TPC-H
Q18) is the one extension beyond the paper's grammar, modelled as
:class:`InSubquery`.

All nodes are immutable and hashable, so analyses can memoise on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

__all__ = [
    "Expr",
    "Const",
    "ColumnRef",
    "Arith",
    "AggrCall",
    "SubqueryExpr",
    "Predicate",
    "Comparison",
    "And",
    "Or",
    "InSubquery",
    "RelationRef",
    "SelectItem",
    "AggrQuery",
    "STREAMABLE_AGGREGATES",
    "AGGREGATE_FUNCTIONS",
    "COMPARISON_OPS",
    "walk_expr",
    "walk_predicates",
]

AGGREGATE_FUNCTIONS = frozenset({"SUM", "COUNT", "AVG", "MIN", "MAX"})

#: Aggregates maintainable from (current value, delta) alone — the
#: "streamable" monoids of Section 4.2.5.  MIN/MAX are excluded: their
#: value cannot be recovered after a deletion without extra structure.
STREAMABLE_AGGREGATES = frozenset({"SUM", "COUNT", "AVG"})

COMPARISON_OPS = frozenset({"=", "<>", "<", "<=", ">", ">="})


class _Node:
    """Pickles as its constructor call with the fields in order, not as
    a dict of field names: a checkpoint carries every engine's query."""

    __slots__ = ()

    def __reduce__(self) -> tuple:
        # a frozen dataclass's __init__ sets its fields in order
        return type(self), tuple(self.__dict__.values())


# ---------------------------------------------------------------------------
# Value expressions
# ---------------------------------------------------------------------------


class Expr(_Node):
    """Base class for value expressions (the grammar's ``Value``)."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    """A numeric or string literal."""

    value: Union[int, float, str]

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A qualified column reference ``alias.column``."""

    relation: str
    column: str

    def __str__(self) -> str:
        return f"{self.relation}.{self.column}"


@dataclass(frozen=True)
class Arith(Expr):
    """Binary arithmetic over values: ``left op right``."""

    op: str  # one of + - * /
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class AggrCall(Expr):
    """An aggregate function application, e.g. ``SUM(b.price * b.volume)``.

    ``arg`` is None for ``COUNT(*)``.
    """

    func: str
    arg: Expr | None = None

    def __post_init__(self) -> None:
        if self.func not in AGGREGATE_FUNCTIONS:
            raise ValueError(f"unknown aggregate function {self.func!r}")
        if self.arg is None and self.func != "COUNT":
            raise ValueError(f"{self.func} requires an argument")

    @property
    def streamable(self) -> bool:
        return self.func in STREAMABLE_AGGREGATES

    def __str__(self) -> str:
        return f"{self.func}({self.arg if self.arg is not None else '*'})"


@dataclass(frozen=True)
class SubqueryExpr(Expr):
    """A scalar nested aggregate subquery used as a value."""

    query: "AggrQuery"

    def __str__(self) -> str:
        return f"({self.query})"


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


class Predicate(_Node):
    """Base class for boolean predicates."""

    __slots__ = ()


@dataclass(frozen=True)
class Comparison(Predicate):
    """``left θ right`` with θ in =, <>, <, <=, >, >=."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def flipped(self) -> "Comparison":
        """The same predicate with operands swapped (``a < b`` -> ``b > a``)."""
        flip = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
        return Comparison(flip[self.op], self.right, self.left)

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class And(Predicate):
    left: Predicate
    right: Predicate

    def __str__(self) -> str:
        return f"({self.left} AND {self.right})"


@dataclass(frozen=True)
class Or(Predicate):
    left: Predicate
    right: Predicate

    def __str__(self) -> str:
        return f"({self.left} OR {self.right})"


@dataclass(frozen=True)
class InSubquery(Predicate):
    """``expr IN (SELECT ... GROUP BY ... HAVING ...)`` membership."""

    expr: Expr
    query: "AggrQuery"

    def __str__(self) -> str:
        return f"{self.expr} IN ({self.query})"


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelationRef(_Node):
    """A base relation in a FROM clause with its alias."""

    name: str
    alias: str

    def __str__(self) -> str:
        return self.name if self.name == self.alias else f"{self.name} {self.alias}"


@dataclass(frozen=True)
class SelectItem(_Node):
    """One projected expression, optionally named."""

    expr: Expr
    alias: str | None = None

    def __str__(self) -> str:
        return f"{self.expr} AS {self.alias}" if self.alias else str(self.expr)


@dataclass(frozen=True)
class AggrQuery(_Node):
    """An aggregate query: the grammar's ``AggrQ``.

    Attributes:
        select: projected expressions (aggregates and/or group-by
            columns).
        relations: joined base relations.
        where: predicate tree (None = no predicate).
        group_by: grouping columns (empty = scalar aggregate).
        having: post-grouping predicate (used by TPC-H Q18's inner
            query).
    """

    select: tuple[SelectItem, ...]
    relations: tuple[RelationRef, ...]
    where: Predicate | None = None
    group_by: tuple[ColumnRef, ...] = field(default=())
    having: Predicate | None = None

    def __post_init__(self) -> None:
        aliases = [r.alias for r in self.relations]
        if len(set(aliases)) != len(aliases):
            raise ValueError(f"duplicate relation alias in {aliases}")

    # -- convenience accessors -------------------------------------------------

    @property
    def aliases(self) -> frozenset[str]:
        return frozenset(r.alias for r in self.relations)

    def alias_to_name(self) -> dict[str, str]:
        return {r.alias: r.name for r in self.relations}

    def is_scalar(self) -> bool:
        """True when the query returns a single aggregate row."""
        return not self.group_by

    def direct_expressions(self) -> Iterator[Expr]:
        """Expressions belonging to this query level (select, where,
        group by, having) — subqueries are yielded as SubqueryExpr
        nodes, not expanded."""
        for item in self.select:
            yield item.expr
        if self.where is not None:
            yield from _predicate_exprs(self.where)
        yield from self.group_by
        if self.having is not None:
            yield from _predicate_exprs(self.having)

    def subqueries(self) -> Iterator["AggrQuery"]:
        """Immediate child subqueries (one level)."""
        for expr in self.direct_expressions():
            for node in walk_expr(expr):
                if isinstance(node, SubqueryExpr):
                    yield node.query
        if self.where is not None:
            for pred in walk_predicates(self.where):
                if isinstance(pred, InSubquery):
                    yield pred.query
        if self.having is not None:
            for pred in walk_predicates(self.having):
                if isinstance(pred, InSubquery):
                    yield pred.query

    def conjuncts(self) -> list[Predicate]:
        """The WHERE clause flattened over top-level ANDs."""
        if self.where is None:
            return []
        return _flatten_and(self.where)

    def to_aggrq_notation(self) -> str:
        """Render in the paper's ``Agg[cols](func, rels, preds)`` form."""
        cols = ", ".join(str(c) for c in self.group_by)
        funcs = ", ".join(str(i.expr) for i in self.select)
        rels = ", ".join(str(r) for r in self.relations)
        preds = str(self.where) if self.where is not None else "∅"
        return f"Agg[{cols}]({funcs}, ({rels}), {preds})"

    def __str__(self) -> str:
        parts = ["SELECT " + ", ".join(str(i) for i in self.select)]
        parts.append("FROM " + ", ".join(str(r) for r in self.relations))
        if self.where is not None:
            parts.append(f"WHERE {self.where}")
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(str(c) for c in self.group_by))
        if self.having is not None:
            parts.append(f"HAVING {self.having}")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


def walk_expr(expr: Expr) -> Iterator[Expr]:
    """Yield ``expr`` and every sub-expression, *without* descending
    into nested subqueries (SubqueryExpr is yielded as a leaf)."""
    yield expr
    if isinstance(expr, Arith):
        yield from walk_expr(expr.left)
        yield from walk_expr(expr.right)
    elif isinstance(expr, AggrCall) and expr.arg is not None:
        yield from walk_expr(expr.arg)


def walk_predicates(pred: Predicate) -> Iterator[Predicate]:
    """Yield ``pred`` and every nested predicate node."""
    yield pred
    if isinstance(pred, (And, Or)):
        yield from walk_predicates(pred.left)
        yield from walk_predicates(pred.right)


def _predicate_exprs(pred: Predicate) -> Iterator[Expr]:
    for node in walk_predicates(pred):
        if isinstance(node, Comparison):
            yield node.left
            yield node.right
        elif isinstance(node, InSubquery):
            yield node.expr


def _flatten_and(pred: Predicate) -> list[Predicate]:
    if isinstance(pred, And):
        return _flatten_and(pred.left) + _flatten_and(pred.right)
    return [pred]
