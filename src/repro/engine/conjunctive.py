"""Generic engine for the multi-relation conjunctive shape (§4.3).

For queries of the form::

    AggrQ[cols](SUM(expr), R1 .. Rn, v1 θ q_R1 AND ... AND vn θ q_Rn)

where each ``q_Ri`` is an inequality-correlated subquery over ``Ri``
(the planner's RPAI_CONJUNCTIVE strategy), the qualifying set of each
relation is independent of the others, so the SUM over the qualifying
cross product decomposes into per-relation *required sums* — exactly
Algorithm 4's ``for reqSum in requiredSums(Q, Ri)`` loop::

    Σ_{t1∈Q1,..,tn∈Qn} expr(t1..tn)
        = Σ_terms coef · Π_i (Σ_{ti∈Qi} factor_i  or  |Qi|)

The constructor symbolically decomposes the result expression into such
terms (sums/differences of products of single-relation factors), builds
one :class:`~repro.engine.queries.common.ShiftedSide` per relation whose
aggregate index carries one column per required sum (the distinct
factors, then the count), and the trigger is one range shift + one
point update per event — O(log n), whatever the number of sums.

The hand-written :class:`~repro.engine.queries.mst.MSTRpaiEngine` is
the specialized instance of this engine for MST; the tests check they
agree, which pins the compiler against the hand-derived triggers.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.engine.base import IncrementalEngine, Result
from repro.engine.general import (
    _compile_row_expr,
    _peel_constant_scale,
    _UncorrelatedScalar,
    _compile_predicate_side,
)
from repro.engine.queries.common import ShiftedSide
from repro.errors import UnsupportedQueryError
from repro.obs import SINK as _SINK
from repro.query.analysis import is_correlated
from repro.query.ast import (
    AggrCall,
    AggrQuery,
    Arith,
    ColumnRef,
    Const,
    Expr,
    SubqueryExpr,
    walk_expr,
)
from repro.query.planner import QueryPlan, Strategy

__all__ = ["ConjunctiveIndexEngine", "decompose_product_sum"]

Row = Mapping[str, Any]

# A decomposed term: (coefficient, {alias: factor expression}).
Term = tuple[float, dict[str, Expr]]


def decompose_product_sum(expr: Expr) -> list[Term]:
    """Decompose an expression over several relations' columns into a
    sum of terms, each a constant times a product of *single-relation*
    factors.

    Raises:
        UnsupportedQueryError: for shapes that do not decompose (e.g.
            division by a column).
    """
    if isinstance(expr, Const):
        if not isinstance(expr.value, (int, float)):
            raise UnsupportedQueryError(f"non-numeric constant {expr}")
        return [(float(expr.value), {})]
    if isinstance(expr, ColumnRef):
        return [(1.0, {expr.relation: expr})]
    if isinstance(expr, Arith):
        if expr.op == "+":
            return decompose_product_sum(expr.left) + decompose_product_sum(expr.right)
        if expr.op == "-":
            right = [
                (-coef, factors) for coef, factors in decompose_product_sum(expr.right)
            ]
            return decompose_product_sum(expr.left) + right
        if expr.op == "*":
            return _cross_multiply(
                decompose_product_sum(expr.left), decompose_product_sum(expr.right)
            )
        if expr.op == "/":
            if isinstance(expr.right, Const) and isinstance(
                expr.right.value, (int, float)
            ):
                return [
                    (coef / expr.right.value, factors)
                    for coef, factors in decompose_product_sum(expr.left)
                ]
            raise UnsupportedQueryError("division by a non-constant")
    raise UnsupportedQueryError(f"cannot decompose {expr!r}")


def _cross_multiply(left: list[Term], right: list[Term]) -> list[Term]:
    out: list[Term] = []
    for coef_l, factors_l in left:
        for coef_r, factors_r in right:
            merged = dict(factors_l)
            for alias, factor in factors_r.items():
                if alias in merged:
                    merged[alias] = Arith("*", merged[alias], factor)
                else:
                    merged[alias] = factor
            out.append((coef_l * coef_r, merged))
    return out


class ConjunctiveIndexEngine(IncrementalEngine):
    """Compiled Algorithm 4 for RPAI_CONJUNCTIVE plans."""

    name = "rpai"

    def __init__(self, plan: QueryPlan) -> None:
        if plan.strategy is not Strategy.RPAI_CONJUNCTIVE:
            raise UnsupportedQueryError(
                f"ConjunctiveIndexEngine needs an RPAI_CONJUNCTIVE plan, "
                f"got {plan.strategy}"
            )
        self._plan = plan
        query = plan.query
        alias_to_name = query.alias_to_name()

        # Result aggregate: scale * SUM(expr) decomposed into terms.
        self._scale, call = _peel_constant_scale(query.select[0].expr)
        if not isinstance(call, AggrCall) or call.func != "SUM":
            raise UnsupportedQueryError("conjunctive engine requires a SUM result")
        if call.arg is None:
            raise UnsupportedQueryError("SUM requires an argument")
        self._terms = decompose_product_sum(call.arg)

        # Per relation: collect the distinct factor expressions used by
        # any term ("required sums"); the count is implicit as factor
        # None.  term_plan: per term, {alias: factor index or None}.
        self._factor_exprs: dict[str, list[Expr]] = {a: [] for a in query.aliases}
        self._term_plan: list[tuple[float, dict[str, int | None]]] = []
        for coef, factors in self._terms:
            plan_entry: dict[str, int | None] = {}
            for alias in query.aliases:
                factor = factors.get(alias)
                if factor is None:
                    plan_entry[alias] = None
                else:
                    known = self._factor_exprs[alias]
                    try:
                        plan_entry[alias] = known.index(factor)
                    except ValueError:
                        known.append(factor)
                        plan_entry[alias] = len(known) - 1
            self._term_plan.append((coef, plan_entry))

        # Per relation: a ShiftedSide keyed by the correlation attribute
        # whose index has one column per factor + one for the count,
        # plus the fixed probe side and compiled row functions.
        self._sides: dict[str, ShiftedSide] = {}
        self._specs: dict[str, Any] = {}
        self._inner_args: dict[str, Any] = {}
        self._factor_fns: dict[str, list[Any]] = {}
        self._fixed: dict[str, Any] = {}
        self._scalars: dict[AggrQuery, _UncorrelatedScalar] = {}
        self._alias_of_relation: dict[str, list[str]] = {}

        for spec in plan.index_specs:
            alias = spec.outer_alias
            if spec.inner_func != "SUM":
                raise UnsupportedQueryError(
                    "conjunctive engine supports SUM inner aggregates"
                )
            if spec.inner_op == "=":
                raise UnsupportedQueryError(
                    "conjunctive engine handles inequality correlations"
                )
            if spec.inner_col.column != spec.outer_col.column:
                raise UnsupportedQueryError(
                    "correlated predicate must compare the same attribute"
                )
            required = len(self._factor_exprs[alias]) + 1  # + count
            self._sides[alias] = ShiftedSide(spec.inner_op, columns=required)
            self._specs[alias] = spec
            inner_alias = spec.inner_col.relation
            self._inner_args[alias] = (
                _compile_row_expr(spec.inner_arg, inner_alias)
                if spec.inner_arg is not None
                else None
            )
            self._factor_fns[alias] = [
                _compile_row_expr(f, alias) for f in self._factor_exprs[alias]
            ]
            # Fixed probe side: uncorrelated scalars + arithmetic.
            for node in walk_expr(spec.fixed_expr):
                if isinstance(node, SubqueryExpr):
                    sub = node.query
                    if is_correlated(sub) or sub.where is not None:
                        raise UnsupportedQueryError(
                            "unsupported fixed side in conjunctive shape"
                        )
                    if sub not in self._scalars:
                        self._scalars[sub] = _UncorrelatedScalar(
                            sub, sub.relations[0].alias
                        )
            self._fixed[alias] = _compile_predicate_side(
                spec.fixed_expr, alias, self._scalars, {}
            )
            relation = alias_to_name[alias]
            self._alias_of_relation.setdefault(relation, []).append(alias)

        # Scalar subqueries may also range over the joined relations.
        self._scalar_routes: list[tuple[str, _UncorrelatedScalar]] = [
            (sub.relations[0].name, scalar) for sub, scalar in self._scalars.items()
        ]

    # -- checkpointing --------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Compiled closures are rebuilt from the plan on restore."""
        state = {
            "plan": self._plan,
            "sides": self._sides,
            "scalars": {sub: sc.aggregate for sub, sc in self._scalars.items()},
        }
        if self._quarantine is not None:
            state["quarantine"] = self._quarantine
        return state

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["plan"])  # type: ignore[misc]
        self._sides = state["sides"]
        for sub, aggregate in state["scalars"].items():
            self._scalars[sub].aggregate = aggregate
        if "quarantine" in state:
            self._quarantine = state["quarantine"]
        # Compiled triggers bind the side structures as globals, so
        # re-specialize only after the restored sides are in place.
        from repro.query import codegen

        codegen.maybe_specialize(self)

    # -- trigger ------------------------------------------------------------------

    def _event_deltas(self, alias: str, row: Row, x: int) -> tuple[float, float, list[float]]:
        """(correlation attribute, inner delta, per-column result deltas)
        of one tuple for one relation side."""
        spec = self._specs[alias]
        attr = row[spec.outer_col.column]
        inner_fn = self._inner_args[alias]
        weight = (inner_fn(row) if inner_fn is not None else 1) * x
        deltas = [fn(row) * x for fn in self._factor_fns[alias]]
        deltas.append(x)  # the count column
        return attr, weight, deltas

    def on_event(self, event) -> Result:
        for relation_name, scalar in self._scalar_routes:
            if relation_name == event.relation:
                scalar.on_row(event.row, event.weight)
        for alias in self._alias_of_relation.get(event.relation, ()):
            attr, weight, deltas = self._event_deltas(alias, event.row, event.weight)
            self._sides[alias].apply(attr, weight, deltas)
        return self.result()

    def on_batch(self, events) -> Result:
        """Batched trigger: per side, deltas coalesce per correlation
        attribute (the :class:`ShiftedSide` trigger telescopes exactly
        like the single-relation range engine's), and the per-relation
        ``get_sum`` probes of :meth:`result` run once per chunk."""
        net: dict[str, dict[float, tuple[list[float], list[float]]]] = {}
        for event in events:
            for relation_name, scalar in self._scalar_routes:
                if relation_name == event.relation:
                    scalar.on_row(event.row, event.weight)
            for alias in self._alias_of_relation.get(event.relation, ()):
                attr, weight, deltas = self._event_deltas(alias, event.row, event.weight)
                per_attr = net.setdefault(alias, {})
                entry = per_attr.get(attr)
                if entry is None:
                    per_attr[attr] = ([weight], deltas)
                else:
                    entry[0][0] += weight
                    for i, delta in enumerate(deltas):
                        entry[1][i] += delta
        if _SINK.enabled and events:
            _SINK.observe(
                "engine.batch_coalesced_keys",
                sum(len(per_attr) for per_attr in net.values()),
            )
        for alias, per_attr in net.items():
            side = self._sides[alias]
            for attr, (weight_box, deltas) in per_attr.items():
                weight = weight_box[0]
                if weight == 0 and all(delta == 0 for delta in deltas):
                    continue
                side.apply(attr, weight, deltas)
        return self.result()

    def result(self) -> Result:
        # Per relation, the qualifying aggregate per required sum: one
        # probe returns every column.
        qualifying: dict[str, tuple] = {}
        for alias, side in self._sides.items():
            probe = self._fixed[alias]({})
            qualifying[alias] = side.qualifying(self._specs[alias].outer_op, probe)
        total = 0.0
        for coef, plan_entry in self._term_plan:
            product = coef
            for alias, factor_index in plan_entry.items():
                sums = qualifying[alias]
                count_index = len(self._factor_fns[alias])
                if factor_index is None:
                    product *= sums[count_index]
                else:
                    product *= sums[factor_index]
            total += product
        return self._scale * total
