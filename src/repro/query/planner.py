"""Strategy planner: Section 4.3.1's "overhead of identification".

Given a parsed query, :func:`classify` pattern-matches it against the
shapes the paper's optimizations require and returns a
:class:`QueryPlan` saying *how* it should be incrementalized:

* ``UNCORRELATED`` — no correlated nested aggregates and no conjunct an
  aggregate index can key: every subquery is independently maintainable
  and the outer result follows by point updates.  TPC-H Q18's ``IN …
  HAVING`` semijoin carries a *membership* spec the aggregate-index
  engine builds from; other queries of this class build no engine.
* ``PAI_EQUALITY`` — Section 2.1.3 / Algorithm 4 ``"="`` case: a single
  aggregate index with point key moves; O(1) per update (Example 2.1).
* ``RPAI_INEQUALITY`` — Section 2.2.3 / Algorithm 4 ``"<="`` case: a
  single aggregate index with range key shifts; O(log n) with an RPAI
  tree (VWAP).
* ``RPAI_CONJUNCTIVE`` — the multi-relation form of Section 4.3: a
  conjunction ``v1 θ q_R1 AND ... AND vn θ q_Rn`` with each ``q_Ri``
  correlated only on ``Ri``; one aggregate index per relation (MST).
  A conjunct ``column θ v`` with an uncorrelated ``v`` is the same
  shape with the column as the key (PSP).
* ``RPAI_GROUPED`` — a column compared with a subquery correlated by
  equality through a join (TPC-H Q17, Section 5.2.2): one column-keyed
  index per correlation group, probed with the group's own aggregate.
* ``GENERAL`` — the Section 4.2 general algorithm (SQ1, SQ2).
* ``GENERAL_NESTED`` — multi-level nesting (NQ1, NQ2): delta-compute
  the inner view, then either feed the deltas into aggregate indexes
  (NQ1) or, when the innermost level correlates with the outermost
  query, fall back to the general algorithm at the outer level (NQ2).

The checks run once per query ("during trigger generation") and are
linear in the query size — no exponential blow-up, matching the paper's
claim.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.pai_map import PAIMap
from repro.core.rpai import RPAITree
from repro.errors import UnsupportedQueryError
from repro.query.analysis import (
    extract_pred_values,
    free_columns,
    is_correlated,
    is_streamable_query,
    nesting_depth,
    validate_query,
)
from repro.query.ast import (
    AggrCall,
    AggrQuery,
    ColumnRef,
    Comparison,
    Const,
    Expr,
    InSubquery,
    SubqueryExpr,
    walk_expr,
)
from repro.trees.treemap import TreeMap

__all__ = [
    "Strategy",
    "QueryPlan",
    "IndexSpec",
    "classify",
    "asymptotic_cost",
    "choose_backend",
    "AUTO_BATCH_SIZE",
]


class Strategy(enum.Enum):
    UNCORRELATED = "uncorrelated"
    PAI_EQUALITY = "pai-equality"
    RPAI_INEQUALITY = "rpai-inequality"
    RPAI_CONJUNCTIVE = "rpai-conjunctive"
    RPAI_GROUPED = "rpai-grouped"
    GENERAL = "general"
    GENERAL_NESTED = "general-nested"


@dataclass(frozen=True)
class IndexSpec:
    """Everything an aggregate-index engine needs for one predicate
    ``fixed_expr θ key``.  The key is a correlated subquery ``(SELECT
    agg(inner_arg) FROM R x WHERE inner_col θ' outer_col)``, or — a
    *threshold* spec — the column ``key_col``, whose probe
    ``fixed_expr`` is then an uncorrelated scalar or (``RPAI_GROUPED``)
    the select expression of a subquery correlated by equality.  A
    *membership* spec (``inner_op`` ``"IN"``, Q18) is ``outer_col IN
    (SELECT inner_col FROM relation GROUP BY inner_col HAVING
    inner_func(inner_arg) outer_op fixed_expr)``, summed on
    ``outer_alias``.  A *free-map* spec (no ``inner_op``, no
    ``key_col``), which a ``GENERAL`` plan's engine derives, has the
    whole query as ``fixed_expr``: §4.2's free maps evaluate it.

    Attributes:
        relation: base relation the index's tuples come from.
        outer_alias: its alias in the outer query.
        outer_op: θ, normalized so the key is on the *right*
            (``fixed θ key``).
        fixed_expr: the probe side.
        inner_func: SUM/COUNT/AVG of the subquery (None: no subquery).
        inner_arg: argument of the inner aggregate (None for COUNT(*)).
        inner_op: θ' of the correlated predicate, normalized so the
            *inner* column is on the left (``inner_col θ' outer_col``).
        inner_col: bound column (from the subquery's own relation).
        outer_col: free column (from the outer query).
        extra_pairs: additional (inner_col, outer_col) equality pairs
            when the correlation is a conjunction of equalities
            (Section 4.3: "multiple conjunctive equality predicates
            (results in a single point update)").
        key_col: the column a threshold spec's index is keyed by.
        filters: a grouped threshold's other conjuncts (the join and
            the joined relation's filters); a membership spec's two
            joins, ``outer_col = r.k`` and ``group column = x.c``.
    """

    relation: str
    outer_alias: str
    outer_op: str
    fixed_expr: Expr
    inner_func: str | None = None
    inner_arg: Expr | None = None
    inner_op: str | None = None
    inner_col: ColumnRef | None = None
    outer_col: ColumnRef | None = None
    extra_pairs: tuple[tuple[ColumnRef, ColumnRef], ...] = ()
    key_col: ColumnRef | None = None
    filters: tuple[Comparison, ...] = ()

    def column_pairs(self) -> tuple[tuple[ColumnRef, ColumnRef], ...]:
        """All (inner, outer) correlation column pairs."""
        return ((self.inner_col, self.outer_col), *self.extra_pairs)


@dataclass(frozen=True)
class QueryPlan:
    """Result of :func:`classify`."""

    strategy: Strategy
    query: AggrQuery
    index_specs: tuple[IndexSpec, ...] = field(default=())
    reason: str = ""

    def describe(self) -> str:
        lines = [f"strategy: {self.strategy.value}"]
        if self.reason:
            lines.append(f"reason: {self.reason}")
        for spec in self.index_specs:
            if spec.inner_op == "IN":
                having = Comparison(spec.outer_op, AggrCall(spec.inner_func, spec.inner_arg), spec.fixed_expr)
                lines.append(
                    f"  membership of {spec.outer_col} in {spec.relation} "
                    f"GROUP BY {spec.inner_col} HAVING {having}, summed on {spec.outer_alias}"
                )
            elif spec.key_col is None:
                lines.append(
                    f"  index on {spec.relation}: {spec.inner_func} keyed by "
                    f"{spec.inner_col} {spec.inner_op} {spec.outer_col}, "
                    f"probe {spec.outer_op} {spec.fixed_expr}"
                )
            else:
                line = f"  index on {spec.relation} keyed by {spec.key_col}"
                if spec.inner_col is not None:
                    line += f" per {spec.inner_col} {spec.inner_op} {spec.outer_col}"
                lines.append(f"{line}, probe {spec.fixed_expr} {spec.outer_op} {spec.key_col}")
            if spec.filters:
                lines.append("    joined where " + " AND ".join(map(str, spec.filters)))
        return "\n".join(lines)


_EQ_OPS = {"="}


def classify(query: AggrQuery) -> QueryPlan:
    """Pattern-match ``query`` against the paper's optimization shapes.

    Raises:
        UnsupportedQueryError: only for queries outside the AggrQ class
            entirely (e.g. non-aggregate select lists).
    """
    validate_query(query)
    _require_aggregate(query)

    subqueries = extract_pred_values(query)
    correlated = [sub for sub in subqueries if is_correlated(sub)]

    if any(nesting_depth(sub) >= 1 for sub in correlated):
        return QueryPlan(
            Strategy.GENERAL_NESTED,
            query,
            reason="correlated subquery itself contains nested aggregates "
            "(multi-level nesting)",
        )

    if correlated and not is_streamable_query(query):
        return QueryPlan(
            Strategy.GENERAL,
            query,
            reason="contains non-streamable aggregates (MIN/MAX); aggregate "
            "indexes cannot shift their values (Section 4.3.2)",
        )

    grouped = _match_grouped_threshold(query) if correlated else None
    if grouped is not None:
        return QueryPlan(
            Strategy.RPAI_GROUPED,
            query,
            index_specs=(grouped,),
            reason="outer column compared against an equality-correlated "
            "aggregate: one ordered index per correlation group (TPC-H "
            "Q17 shape, Section 5.2.2)",
        )

    specs = _match_conjunctive_shape(query)
    if specs is not None:
        if len(query.relations) == 1:
            spec = specs[0]
            if spec.inner_op in _EQ_OPS:
                strategy = Strategy.PAI_EQUALITY
            else:
                strategy = Strategy.RPAI_INEQUALITY
            return QueryPlan(strategy, query, index_specs=tuple(specs))
        return QueryPlan(
            Strategy.RPAI_CONJUNCTIVE, query, index_specs=tuple(specs)
        )

    if not correlated:
        membership = _match_membership(query)
        return QueryPlan(
            Strategy.UNCORRELATED,
            query,
            index_specs=() if membership is None else (membership,),
            reason="no correlated nested aggregates; every view is "
            "independently maintainable",
        )

    return QueryPlan(
        Strategy.GENERAL,
        query,
        reason="correlated nested aggregate does not match the aggregate-"
        "index shape of Section 4.3 (falling back to the general algorithm)",
    )


def _require_aggregate(query: AggrQuery) -> None:
    has_aggregate = any(
        isinstance(node, AggrCall)
        for item in query.select
        for node in walk_expr(item.expr)
    )
    if not has_aggregate:
        raise UnsupportedQueryError(
            "only aggregate queries are supported (select list has no "
            "aggregate function)"
        )


def _match_conjunctive_shape(query: AggrQuery) -> list[IndexSpec] | None:
    """Match ``v1 θ q_R1 AND ... AND vn θ q_Rn`` (Section 4.3).

    Requirements: one conjunct per relation with a correlated subquery
    correlated *only* on that relation's columns; each subquery is a
    single-relation single-aggregate query whose predicate compares a
    bare bound column with a bare free column.  Returns None when the
    query does not match.
    """
    conjuncts = query.conjuncts()
    if not conjuncts or len(conjuncts) != len(query.relations):
        return None
    specs: list[IndexSpec] = []
    seen_aliases: set[str] = set()
    for conjunct in conjuncts:
        if not isinstance(conjunct, Comparison):
            return None
        spec = _match_index_predicate(query, conjunct)
        if spec is None or spec.outer_alias in seen_aliases:
            return None
        seen_aliases.add(spec.outer_alias)
        specs.append(spec)
    return specs


def _match_index_predicate(query: AggrQuery, pred: Comparison) -> IndexSpec | None:
    """Match one conjunct of the form ``fixed θ correlated-subquery``
    (either operand order), returning its IndexSpec or None."""
    left_sub = _sole_correlated_subquery(pred.left)
    right_sub = _sole_correlated_subquery(pred.right)
    if left_sub is None and right_sub is None:
        return _match_column_threshold(query, pred)
    if left_sub is not None and right_sub is not None:
        return None  # need exactly one correlated side
    if right_sub is not None:
        outer_op, fixed_expr, sub = pred.op, pred.left, right_sub
    else:
        flipped = pred.flipped()
        outer_op, fixed_expr, sub = flipped.op, flipped.left, left_sub
    if _contains_correlated_subquery(fixed_expr):
        return None
    # The correlated side must be the bare subquery (no arithmetic
    # wrapping), otherwise shifted keys would need rescaling.
    bare = pred.right if right_sub is not None else pred.left
    if not isinstance(bare, SubqueryExpr):
        return None

    if not _single_relation_aggregate(sub):
        return None
    inner_agg = sub.select[0].expr
    if not isinstance(inner_agg, AggrCall) or not inner_agg.streamable:
        return None

    free = free_columns(sub)
    if not free:
        return None
    outer_aliases = {ref.relation for ref in free}
    if len(outer_aliases) != 1:
        return None
    (outer_alias,) = outer_aliases
    # Correlates with exactly one of this query's relations.
    if outer_alias not in query.aliases:
        return None

    inner_alias = sub.relations[0].alias
    inner_conjuncts = sub.conjuncts()
    if not inner_conjuncts:
        return None

    pairs: list[tuple[str, ColumnRef, ColumnRef]] = []
    for conjunct in inner_conjuncts:
        if not isinstance(conjunct, Comparison):
            return None
        for ref in free:
            spec_op, inner_col = _match_symmetric_columns(conjunct, inner_alias, ref)
            if spec_op is not None and inner_col is not None:
                pairs.append((spec_op, inner_col, ref))
                break
        else:
            return None
    # Multiple conjunctive predicates only work as a single point
    # update when every one is an equality (Section 4.3).
    if len(pairs) > 1 and any(op != "=" for op, _, _ in pairs):
        return None
    spec_op, inner_col, outer_col = pairs[0]

    return IndexSpec(
        relation=sub.relations[0].name,
        outer_alias=outer_alias,
        outer_op=outer_op,
        fixed_expr=fixed_expr,
        inner_func=inner_agg.func,
        inner_arg=inner_agg.arg,
        inner_op=spec_op,
        inner_col=inner_col,
        outer_col=outer_col,
        extra_pairs=tuple((ic, oc) for _, ic, oc in pairs[1:]),
    )


def _match_column_threshold(query: AggrQuery, pred: Comparison) -> IndexSpec | None:
    """Match ``column θ v`` (either operand order), ``v`` arithmetic over
    constants and uncorrelated subqueries: an index keyed by the column,
    probed with ``v`` (PSP's moving volume thresholds)."""
    for key, probe, op in ((pred.right, pred.left, pred.op), (pred.left, pred.right, pred.flipped().op)):
        kinds = {type(node) for node in walk_expr(probe)}
        if (
            isinstance(key, ColumnRef)
            and SubqueryExpr in kinds
            and ColumnRef not in kinds
            and not _contains_correlated_subquery(probe)
        ):
            name = query.alias_to_name()[key.relation]
            return IndexSpec(name, key.relation, op, probe, key_col=key)
    return None


def _match_grouped_threshold(query: AggrQuery) -> IndexSpec | None:
    """Match the TPC-H Q17 shape: some conjunct compares a *bare outer
    column* against a correlated subquery whose own predicate is an
    equality correlation (``l.quantity < (SELECT 0.2 * AVG(l2.quantity)
    … WHERE l2.partkey = p.partkey)``).  The engine then keeps one
    column-keyed index per correlation group, probed with the group's
    (changing) aggregate.

    Remaining conjuncts must be correlated-subquery-free (the join and
    constant filters); they travel in the spec's ``filters``.
    """
    conjuncts = query.conjuncts()
    if not all(isinstance(conjunct, Comparison) for conjunct in conjuncts):
        return None
    targets = [
        conjunct
        for conjunct in conjuncts
        if _contains_correlated_subquery(conjunct.left)
        or _contains_correlated_subquery(conjunct.right)
    ]
    if len(targets) != 1:
        return None
    (found,) = targets
    # normalized to ``subquery θ column``
    target = found.flipped() if isinstance(found.left, ColumnRef) else found
    sub_expr, key = target.left, target.right
    if not (isinstance(key, ColumnRef) and isinstance(sub_expr, SubqueryExpr)):
        return None
    sub = sub_expr.query
    if target.op in _EQ_OPS or not _single_relation_aggregate(sub):
        return None
    aggs = [node for node in walk_expr(sub.select[0].expr) if isinstance(node, AggrCall)]
    free = free_columns(sub)
    if len(aggs) != 1 or not aggs[0].streamable or len(free) != 1:
        return None
    (outer_col,) = free
    if not isinstance(sub.where, Comparison):
        return None
    spec_op, inner_col = _match_symmetric_columns(sub.where, sub.relations[0].alias, outer_col)
    if spec_op != "=":
        return None
    return IndexSpec(
        relation=sub.relations[0].name,
        outer_alias=key.relation,
        outer_op=target.op,
        fixed_expr=sub.select[0].expr,
        inner_func=aggs[0].func,
        inner_arg=aggs[0].arg,
        inner_op="=",
        inner_col=inner_col,
        outer_col=outer_col,
        key_col=key,
        filters=tuple(conjunct for conjunct in conjuncts if conjunct is not found),
    )


def _match_membership(query: AggrQuery) -> IndexSpec | None:
    """Match the TPC-H Q18 shape: ``x.k IN (SELECT s.k FROM S s GROUP BY
    s.k HAVING SUM(s.a) θ const)`` and two equi-joins, ``x.k = r.k'`` to
    the relation ``r`` the result reads and ``g.c = x.c'`` to the
    relation ``g`` whose ``g.c`` is the one ``GROUP BY`` key.  The spec
    is ``r``'s; its ``filters`` are those two joins, oriented so."""
    conjuncts = query.conjuncts()
    members = [c for c in conjuncts if isinstance(c, InSubquery)]
    joins = [c for c in conjuncts if isinstance(c, Comparison) and c.op == "="]
    if len(members) != 1 or len(joins) != 2 or len(conjuncts) != 3 or len(query.group_by) != 1:
        return None
    needle, sub, (group_col,) = members[0].expr, members[0].query, query.group_by
    having = sub.having
    if not isinstance(needle, ColumnRef) or not isinstance(having, Comparison) or sub.where is not None:
        return None
    if len(sub.relations) != 1 or len(sub.group_by) != 1 or [i.expr for i in sub.select] != list(sub.group_by):
        return None
    if isinstance(having.right, AggrCall):
        having = having.flipped()
    agg, bound = having.left, having.right
    if not (isinstance(agg, AggrCall) and agg.func == "SUM" and isinstance(bound, Const)):
        return None
    link = group_join = None
    for join in joins:
        for ref, other in ((join.left, join.right), (join.right, join.left)):
            if isinstance(other, ColumnRef) and ref == needle:
                link = Comparison("=", needle, other)
            elif isinstance(other, ColumnRef) and ref == group_col:
                group_join = Comparison("=", group_col, other)
    if link is None or group_join is None or group_join.right.relation != needle.relation:
        return None
    aliases = {needle.relation, link.right.relation, group_col.relation}
    if len(aliases) != 3 or aliases != set(query.aliases):
        return None
    return IndexSpec(
        sub.relations[0].name, link.right.relation, having.op, bound, agg.func, agg.arg,
        "IN", sub.group_by[0], needle, filters=(link, group_join),
    )


def _single_relation_aggregate(sub: AggrQuery) -> bool:
    """One relation, one select item, no grouping."""
    return len(sub.relations) == 1 and len(sub.select) == 1 and not sub.group_by and sub.having is None


def _match_symmetric_columns(
    pred: Comparison, inner_alias: str, outer_col: ColumnRef
) -> tuple[str | None, ColumnRef | None]:
    """Require ``inner.c θ outer.c`` with bare columns on both sides
    (SQ2's asymmetric arithmetic fails here, sending it to the general
    algorithm exactly as in the paper)."""
    left, right, op = pred.left, pred.right, pred.op
    if isinstance(left, ColumnRef) and left.relation == inner_alias and right == outer_col:
        return op, left
    if isinstance(right, ColumnRef) and right.relation == inner_alias and left == outer_col:
        return Comparison(op, left, right).flipped().op, right
    return None, None


def _sole_correlated_subquery(expr: Expr) -> AggrQuery | None:
    """The unique correlated subquery inside ``expr`` (None if zero or
    several)."""
    found = [
        node.query
        for node in walk_expr(expr)
        if isinstance(node, SubqueryExpr) and is_correlated(node.query)
    ]
    return found[0] if len(found) == 1 else None


def _contains_correlated_subquery(expr: Expr) -> bool:
    return any(
        isinstance(node, SubqueryExpr) and is_correlated(node.query)
        for node in walk_expr(expr)
    )


#: Per-update asymptotic cost by strategy, for Table 1 reporting.
_COSTS = {
    Strategy.UNCORRELATED: "O(1)",
    Strategy.PAI_EQUALITY: "O(1)",
    Strategy.RPAI_INEQUALITY: "O(log n)",
    Strategy.RPAI_CONJUNCTIVE: "O(log n)",
    Strategy.RPAI_GROUPED: "O(log n)",
    Strategy.GENERAL: "O(n)",
    Strategy.GENERAL_NESTED: "O(n log n)",
}


def asymptotic_cost(plan: QueryPlan) -> str:
    """Human-readable per-update complexity of the chosen strategy (the
    paper's Table 1 column).  Multi-level nesting is O(log n) unless a
    level two down correlates with the outermost query (NQ2, not NQ1:
    Section 5.2.1) — then the inner view's deltas cannot feed an
    aggregate index."""
    query = plan.query
    if plan.strategy is Strategy.GENERAL_NESTED and not any(
        ref.relation in query.aliases
        for sub in query.subqueries()
        for inner in sub.subqueries()
        for ref in free_columns(inner)
    ):
        return "O(log n)"
    return _COSTS[plan.strategy]


def choose_backend(plan: QueryPlan) -> type:
    """The aggregate-index class for ``plan`` — the paper's static rule.

    * :class:`~repro.core.pai_map.PAIMap` when the correlation is an
      equality *and* the outer comparison is too (Section 2.1.3): every
      update is a point move and the result a point probe, both O(1) on
      the dict.
    * :class:`~repro.trees.treemap.TreeMap` for the per-group indexes of
      ``RPAI_GROUPED``: keyed by a column, they never shift, and carry
      one required sum.
    * :class:`~repro.core.rpai.RPAITree` for every other role
      (Section 3): O(log n) ``shift_keys`` and ``get_sum``, and k
      required sums as the columns of one tree.

    Range roles (inequality-θ, conjunctive) cannot use anything
    but a relative-key tree: the positional backends (Fenwick, segment
    tree) shift in O(U) over a *bounded* universe that RPAI's unbounded
    relative keys escape immediately, and the dict shifts in O(n) — both
    structurally unable to keep the engine's O(log n) per-update bound.
    A point role probed by prefix sum stays on the tree because the
    dict's ``get_sum`` is O(n).  The measurements behind fixing the
    rule (no dense backend and no B-tree wins any role) are in
    ``docs/rpai_internals.md`` §14.
    """
    if (
        plan.strategy is Strategy.PAI_EQUALITY
        and plan.index_specs[0].outer_op in _EQ_OPS
    ):
        return PAIMap
    if plan.strategy is Strategy.RPAI_GROUPED:
        return TreeMap
    return RPAITree


#: Batch size ``repro run``/``repro stats`` use when ``--batch-size`` is
#: absent.  Batching amortizes the per-invocation result probe and
#: dispatch while per-event index work stays constant, so the cheaper a
#: strategy's update is relative to its probe, the larger the batch
#: that pays: O(1) point moves take 64, O(log n) range shifts take 8.
AUTO_BATCH_SIZE = {
    Strategy.UNCORRELATED: 32,
    Strategy.PAI_EQUALITY: 64,
    Strategy.RPAI_INEQUALITY: 8,
    Strategy.RPAI_CONJUNCTIVE: 8,
    Strategy.RPAI_GROUPED: 8,
    Strategy.GENERAL: 32,
    Strategy.GENERAL_NESTED: 32,
}
