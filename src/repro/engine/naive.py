"""Naive re-evaluation: the baseline of Sections 2.1.1 / 2.2.1.

The :class:`NaiveEngine` stores the base relations and, after every
update, recomputes the query *from scratch* with a straightforward
interpreter that follows the query structure (nested loops for nested
subqueries).  Its cost per update is O(n^k · cost(subqueries)) — e.g.
O(|bids|²) for VWAP — which is exactly the behaviour Figure 2a shows.

Besides being the paper's baseline, the interpreter is the semantic
ground truth for the whole package: every incremental engine is
differentially tested against it on random streams.

Semantics notes (matching DBToaster and the incremental engines):

* empty SUM/COUNT/AVG evaluate to 0 (not NULL);
* scalar subqueries evaluate under the outer row bindings (correlation
  by environment);
* ``AVG`` is SUM/COUNT with 0 for empty groups.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from repro.errors import QueryAnalysisError
from repro.engine.base import IncrementalEngine, Result
from repro.obs import SINK as _SINK
from repro.query.ast import (
    AggrCall,
    AggrQuery,
    And,
    Arith,
    ColumnRef,
    Comparison,
    Const,
    Expr,
    InSubquery,
    Or,
    Predicate,
    SubqueryExpr,
    walk_expr,
)
from repro.storage.relation import Relation
from repro.storage.schema import Schema
from repro.storage.stream import Event

__all__ = ["NaiveEngine", "evaluate_query"]

Env = dict[str, Mapping[str, Any]]


class NaiveEngine(IncrementalEngine):
    """Re-evaluate the query from scratch on every update: ``apply``
    stores the tuple, ``result`` re-runs the interpreter when anything
    moved since the last call (once per event, once per batch).

    Args:
        query: parsed AggrQuery.
        schemas: schema per base relation name used by the query.
    """

    name = "recompute"

    def __init__(self, query: AggrQuery, schemas: Mapping[str, Schema]) -> None:
        self.query = query
        self.relations: dict[str, Relation] = {}
        for name in _base_relation_names(query):
            if name not in schemas:
                raise QueryAnalysisError(f"no schema provided for relation {name!r}")
            self.relations[name] = Relation(schemas[name])
        self._result: Result = evaluate_query(query, self.relations, {})

    #: ``_result`` is stale: a relation moved since it was evaluated.
    _dirty = False

    def apply(self, event: Event) -> None:
        relation = self.relations.get(event.relation)
        if relation is not None:  # else: a relation this query ignores
            relation.apply(event.row, event.weight)
            self._dirty = True

    def result(self) -> Result:
        if self._dirty:
            if _SINK.enabled:
                _SINK.inc("engine.full_reevals")
            self._result = evaluate_query(self.query, self.relations, {})
            self._dirty = False
        return self._result


def _base_relation_names(query: AggrQuery) -> set[str]:
    names = {r.name for r in query.relations}
    for sub in query.subqueries():
        names |= _base_relation_names(sub)
    return names


# ---------------------------------------------------------------------------
# Interpreter
# ---------------------------------------------------------------------------

# Per-top-level-evaluation cache for *uncorrelated* subqueries: their
# value does not depend on the outer bindings, so within one
# re-evaluation they are computed once.  This mirrors the paper's naive
# code, which hoists the uncorrelated side out of the outer loop
# conceptually, and keeps the oracle usable for queries like Q18 whose
# IN-subquery would otherwise be recomputed per joined row.
# Keyed by the AggrQuery *value* (frozen dataclass): id()-based keys
# would be unsound — CPython recycles object ids, so a stale entry could
# misclassify a different query after garbage collection.
_uncorrelated_cache: dict[AggrQuery, Result] | None = None
_uncorrelated_memo: dict[AggrQuery, bool] = {}


def _is_uncorrelated(query: AggrQuery) -> bool:
    cached = _uncorrelated_memo.get(query)
    if cached is None:
        from repro.query.analysis import free_columns

        cached = not free_columns(query)
        _uncorrelated_memo[query] = cached
    return cached


def evaluate_query(
    query: AggrQuery, db: Mapping[str, Relation], env: Env
) -> Result:
    """Evaluate ``query`` against ``db`` under outer bindings ``env``.

    Scalar queries return a number; grouped queries return a dict
    ``{group key (scalar or tuple): row of aggregates}`` where the row
    is a scalar when a single aggregate is projected.
    """
    global _uncorrelated_cache
    owns_cache = _uncorrelated_cache is None
    if owns_cache:
        _uncorrelated_cache = {}
    try:
        return _evaluate(query, db, env)
    finally:
        if owns_cache:
            _uncorrelated_cache = None


def _evaluate(query: AggrQuery, db: Mapping[str, Relation], env: Env) -> Result:
    if query.group_by:
        return _evaluate_grouped(query, db, env)
    rows = list(_qualifying_rows(query, db, env))
    values = [
        _eval_select_expr(item.expr, rows, db, env) for item in query.select
    ]
    return values[0] if len(values) == 1 else tuple(values)


def _evaluate_grouped(
    query: AggrQuery, db: Mapping[str, Relation], env: Env
) -> dict:
    groups: dict[Any, list[tuple[Env, int]]] = {}
    for bindings, weight in _qualifying_rows(query, db, env):
        key = tuple(
            _eval_expr(col, {**env, **bindings}, db) for col in query.group_by
        )
        if len(query.group_by) == 1:
            key = key[0]
        groups.setdefault(key, []).append((bindings, weight))
    output: dict[Any, Any] = {}
    for key, rows in groups.items():
        if query.having is not None and not _eval_pred(
            query.having, rows, db, env
        ):
            continue
        values = [
            _eval_select_expr(item.expr, rows, db, env)
            for item in query.select
            if _expr_is_aggregate(item.expr)
        ]
        if not values:
            # Projection of group key only (Q18's inner query): presence
            # in the dict is the membership signal.
            output[key] = True
        else:
            output[key] = values[0] if len(values) == 1 else tuple(values)
    return output


def _qualifying_rows(
    query: AggrQuery, db: Mapping[str, Relation], env: Env
) -> Iterator[tuple[Env, int]]:
    """Cross product of the FROM relations filtered by WHERE; yields
    (alias bindings, multiplicity weight)."""
    yield from _join(query, list(query.relations), {}, 1, db, env)


def _join(
    query: AggrQuery,
    remaining: list,
    bindings: Env,
    weight: int,
    db: Mapping[str, Relation],
    env: Env,
) -> Iterator[tuple[Env, int]]:
    if not remaining:
        scope = {**env, **bindings}
        if query.where is None or _eval_where(query.where, scope, db):
            yield dict(bindings), weight
        return
    ref, *rest = remaining
    relation = db[ref.name]
    for row, count in relation.distinct_rows():
        bindings[ref.alias] = row
        yield from _join(query, rest, bindings, weight * count, db, env)
    bindings.pop(ref.alias, None)


def _eval_where(pred: Predicate, scope: Env, db: Mapping[str, Relation]) -> bool:
    if isinstance(pred, And):
        return _eval_where(pred.left, scope, db) and _eval_where(pred.right, scope, db)
    if isinstance(pred, Or):
        return _eval_where(pred.left, scope, db) or _eval_where(pred.right, scope, db)
    if isinstance(pred, Comparison):
        left = _eval_expr(pred.left, scope, db)
        right = _eval_expr(pred.right, scope, db)
        return _compare(pred.op, left, right)
    if isinstance(pred, InSubquery):
        needle = _eval_expr(pred.expr, scope, db)
        members = _eval_subquery(pred.query, db, scope)
        if not isinstance(members, dict):
            raise QueryAnalysisError(
                "IN subquery must be grouped (its group keys are the "
                "membership set)"
            )
        return needle in members
    raise QueryAnalysisError(f"unsupported predicate {pred!r}")


def _compare(op: str, left: Any, right: Any) -> bool:
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise QueryAnalysisError(f"unknown comparison {op!r}")


def _eval_expr(expr: Expr, scope: Env, db: Mapping[str, Relation]) -> Any:
    """Evaluate a row-level expression (no aggregate calls)."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, ColumnRef):
        if expr.relation not in scope:
            raise QueryAnalysisError(f"unbound alias in {expr}")
        return scope[expr.relation][expr.column]
    if isinstance(expr, Arith):
        left = _eval_expr(expr.left, scope, db)
        right = _eval_expr(expr.right, scope, db)
        return _arith(expr.op, left, right)
    if isinstance(expr, SubqueryExpr):
        value = _eval_subquery(expr.query, db, scope)
        if isinstance(value, dict):
            raise QueryAnalysisError("scalar subquery returned groups")
        return value
    if isinstance(expr, AggrCall):
        raise QueryAnalysisError(
            f"aggregate {expr} used in a row-level context"
        )
    raise QueryAnalysisError(f"unsupported expression {expr!r}")


def _eval_subquery(sub: AggrQuery, db: Mapping[str, Relation], scope: Env) -> Result:
    """Evaluate a nested subquery, caching uncorrelated ones per
    top-level evaluation."""
    if _uncorrelated_cache is not None and _is_uncorrelated(sub):
        if sub not in _uncorrelated_cache:
            _uncorrelated_cache[sub] = _evaluate(sub, db, {})
        return _uncorrelated_cache[sub]
    return _evaluate(sub, db, scope)


def _arith(op: str, left: Any, right: Any) -> Any:
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return left / right
    raise QueryAnalysisError(f"unknown operator {op!r}")


def _eval_select_expr(
    expr: Expr,
    rows: list[tuple[Env, int]],
    db: Mapping[str, Relation],
    env: Env,
) -> Any:
    """Evaluate a select-list (or HAVING operand) expression: aggregate
    calls range over ``rows``; the rest is ordinary arithmetic."""
    if isinstance(expr, AggrCall):
        return _eval_aggregate(expr, rows, db, env)
    if isinstance(expr, Arith):
        left = _eval_select_expr(expr.left, rows, db, env)
        right = _eval_select_expr(expr.right, rows, db, env)
        return _arith(expr.op, left, right)
    if isinstance(expr, (Const, ColumnRef, SubqueryExpr)):
        scope = {**env, **(rows[0][0] if rows else {})}
        return _eval_expr(expr, scope, db)
    raise QueryAnalysisError(f"unsupported select expression {expr!r}")


def _eval_aggregate(
    call: AggrCall,
    rows: list[tuple[Env, int]],
    db: Mapping[str, Relation],
    env: Env,
) -> float:
    if call.func == "COUNT":
        if call.arg is None:
            return sum(weight for _, weight in rows)
        return sum(weight for _, weight in rows)
    values = [
        (_eval_expr(call.arg, {**env, **bindings}, db), weight)
        for bindings, weight in rows
    ]
    if call.func == "SUM":
        return sum(v * w for v, w in values)
    if call.func == "AVG":
        count = sum(w for _, w in values)
        if count == 0:
            return 0
        return sum(v * w for v, w in values) / count
    if call.func == "MIN":
        expanded = [v for v, w in values for _ in range(w)]
        return min(expanded) if expanded else 0
    if call.func == "MAX":
        expanded = [v for v, w in values for _ in range(w)]
        return max(expanded) if expanded else 0
    raise QueryAnalysisError(f"unknown aggregate {call.func!r}")


def _eval_pred(
    pred: Predicate,
    rows: list[tuple[Env, int]],
    db: Mapping[str, Relation],
    env: Env,
) -> bool:
    """HAVING predicate over a group: operands may contain aggregates."""
    if isinstance(pred, And):
        return _eval_pred(pred.left, rows, db, env) and _eval_pred(
            pred.right, rows, db, env
        )
    if isinstance(pred, Or):
        return _eval_pred(pred.left, rows, db, env) or _eval_pred(
            pred.right, rows, db, env
        )
    if isinstance(pred, Comparison):
        left = _eval_select_expr(pred.left, rows, db, env)
        right = _eval_select_expr(pred.right, rows, db, env)
        return _compare(pred.op, left, right)
    raise QueryAnalysisError(f"unsupported HAVING predicate {pred!r}")


def _expr_is_aggregate(expr: Expr) -> bool:
    return any(isinstance(node, AggrCall) for node in walk_expr(expr))
