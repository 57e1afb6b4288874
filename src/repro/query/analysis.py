"""Query analysis: the ``free`` / ``bound`` / ``extractPredVals`` utilities
of paper Section 4.1, plus correlation and streamability checks.

For a (sub)query ``q``:

* ``free(q)`` — columns referenced inside ``q`` that belong to relations
  *not* defined inside ``q`` (i.e. the correlated columns).  For the
  VWAP query, ``free(q3) = {b.price}``.
* ``bound(q)`` — the remaining columns used in ``q``'s predicates, i.e.
  those supplied by ``q``'s own relations.  For VWAP,
  ``bound(q3) = {b2.price}``.
* ``extract_pred_values(q)`` — the nested aggregate subqueries that
  appear as predicate operands (possibly wrapped in arithmetic);
  ``extract_pred_values(q1) = {q2, q3}`` for VWAP.

These drive both the general incrementalization algorithm (which
creates free/bound maps per correlated predicate) and the Section 4.3.1
pattern matching that decides when the aggregate-index optimization
applies.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import QueryAnalysisError
from repro.query.ast import (
    AggrCall,
    AggrQuery,
    ColumnRef,
    Comparison,
    Expr,
    InSubquery,
    Predicate,
    SubqueryExpr,
    walk_expr,
    walk_predicates,
)

__all__ = [
    "free_columns",
    "bound_columns",
    "extract_pred_values",
    "is_correlated",
    "aggregate_calls",
    "is_streamable_query",
    "nesting_depth",
    "column_refs",
    "validate_query",
    "correlation_targets",
]


def column_refs(expr: Expr) -> Iterator[ColumnRef]:
    """Column references directly inside ``expr`` (not in subqueries)."""
    for node in walk_expr(expr):
        if isinstance(node, ColumnRef):
            yield node


def free_columns(query: AggrQuery) -> frozenset[ColumnRef]:
    """Columns referenced anywhere within ``query`` (including nested
    subqueries) whose alias is not bound by ``query`` or by the subquery
    containing the reference — i.e. the correlated columns."""
    free: set[ColumnRef] = set()

    def visit(q: AggrQuery, bound_aliases: frozenset[str]) -> None:
        scope = bound_aliases | q.aliases
        for expr in q.direct_expressions():
            for ref in column_refs(expr):
                if ref.relation not in scope:
                    free.add(ref)
        for sub in q.subqueries():
            visit(sub, scope)

    # Start with the query's own aliases *not* yet in scope so that the
    # top-level references are classified against an empty outer scope.
    visit(query, frozenset())
    # References bound by this query itself are not free.
    return frozenset(ref for ref in free if ref.relation not in query.aliases)


def free_columns_of_alias(query: AggrQuery, alias: str) -> frozenset[ColumnRef]:
    """``free(q)`` restricted to one outer alias (the paper's
    ``free_r(q)``)."""
    return frozenset(ref for ref in free_columns(query) if ref.relation == alias)


def bound_columns(query: AggrQuery) -> frozenset[ColumnRef]:
    """Columns used in ``query``'s predicates that its own relations
    supply (the paper's ``bound``)."""
    bound: set[ColumnRef] = set()
    for pred in _own_predicates(query):
        for expr in _comparison_operands(pred):
            for ref in column_refs(expr):
                if ref.relation in query.aliases:
                    bound.add(ref)
    return frozenset(bound)


def _own_predicates(query: AggrQuery) -> Iterator[Predicate]:
    if query.where is not None:
        yield from walk_predicates(query.where)
    if query.having is not None:
        yield from walk_predicates(query.having)


def _comparison_operands(pred: Predicate) -> Iterator[Expr]:
    if isinstance(pred, Comparison):
        yield pred.left
        yield pred.right
    elif isinstance(pred, InSubquery):
        yield pred.expr


def extract_pred_values(query: AggrQuery) -> list[AggrQuery]:
    """Nested aggregate subqueries appearing in predicate operands,
    in syntactic order (the paper's ``extractPredVals``)."""
    found: list[AggrQuery] = []
    for pred in _own_predicates(query):
        for operand in _comparison_operands(pred):
            for node in walk_expr(operand):
                if isinstance(node, SubqueryExpr):
                    found.append(node.query)
        if isinstance(pred, InSubquery):
            found.append(pred.query)
    return found


def is_correlated(query: AggrQuery) -> bool:
    """True when ``query`` references columns of an enclosing query."""
    return bool(free_columns(query))


def correlation_targets(query: AggrQuery) -> frozenset[str]:
    """Aliases of the enclosing relations a subquery correlates with."""
    return frozenset(ref.relation for ref in free_columns(query))


def aggregate_calls(query: AggrQuery) -> list[AggrCall]:
    """Aggregate function applications at this query level."""
    calls: list[AggrCall] = []
    for expr in query.direct_expressions():
        for node in walk_expr(expr):
            if isinstance(node, AggrCall):
                calls.append(node)
    return calls


def is_streamable_query(query: AggrQuery) -> bool:
    """True when every aggregate in the query (and its subqueries) is a
    streamable monoid (Section 4.2.5): maintainable under both
    insertions and deletions from the running value alone."""
    if any(not call.streamable for call in aggregate_calls(query)):
        return False
    return all(is_streamable_query(sub) for sub in query.subqueries())


def nesting_depth(query: AggrQuery) -> int:
    """Maximum aggregate-subquery nesting depth (VWAP = 1, NQ1/NQ2 = 2)."""
    depths = [nesting_depth(sub) for sub in query.subqueries()]
    return 1 + max(depths) if depths else 0


def validate_query(query: AggrQuery) -> None:
    """Reject queries with unresolvable column references.

    Raises:
        QueryAnalysisError: if any column's alias cannot be resolved in
            the query's scope chain.
    """

    def visit(q: AggrQuery, scope: frozenset[str]) -> None:
        inner = scope | q.aliases
        for expr in q.direct_expressions():
            for ref in column_refs(expr):
                if ref.relation not in inner:
                    raise QueryAnalysisError(
                        f"column {ref} references alias {ref.relation!r} "
                        f"which is not in scope {sorted(inner)}"
                    )
        for sub in q.subqueries():
            visit(sub, inner)

    visit(query, frozenset())
