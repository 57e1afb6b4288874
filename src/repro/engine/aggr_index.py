"""The aggregate-index engine of paper Section 4.3 (Algorithm 4).

One engine fully incrementalizes every query of the shape

    AggrQ[cols](SUM(expr), R1 .. Rn, v1 θ q_R1 AND ... AND vn θ q_Rn)

where each ``vi`` is uncorrelated and each ``q_Ri`` is a subquery
correlated on ``Ri`` alone — the planner's ``PAI_EQUALITY``,
``RPAI_INEQUALITY`` (scalar and ``GROUP BY``) and ``RPAI_CONJUNCTIVE``
strategies.  It maintains, per relation, an index *keyed by the
correlated subquery's aggregate values* (a *side*, see
:mod:`repro.engine.queries.common`): a tuple insertion moves a single
key when the correlation is an equality (Figure 1c) or shifts one
contiguous range of keys when it is an inequality (Figure 2c), and the
result is read off the indexes with one probe per side.  A conjunct
``column θ v`` is the same construction with the column as the key
and ``v`` as the probe (PSP); with ``v`` a subquery correlated by
equality through a join (``RPAI_GROUPED``, TPC-H Q17) there is one
such index per correlation group, each probed by its own aggregate.  An
uncorrelated ``x.k IN (… GROUP BY … HAVING …)`` semijoin (TPC-H Q18)
needs no index: its side keeps per-key and per-group sums and the
grouped result itself.

The qualifying set of each relation is independent of the others, so
the SUM over the qualifying cross product decomposes into per-relation
*required sums* — Algorithm 4's ``for reqSum in requiredSums(Q, Ri)``
loop::

    Σ_{t1∈Q1,..,tn∈Qn} expr(t1..tn)
        = Σ_terms coef · Π_i (Σ_{ti∈Qi} factor_i  or  |Qi|)

:func:`plan_sides` derives that decomposition from the plan once: per
side the distinct factor expressions (one index column each, plus a
count column when some term uses ``|Qi|``) and per term which column of
which side it multiplies.  VWAP is the n = 1, one-column case.
:mod:`repro.query.codegen` emits the engine's triggers from that
description: Algorithm 4's one trigger per relation, in the event,
batch, frame and bulk-load shapes, with no interpreted twin.

Each side is one implementation of the side contract
(:class:`~repro.engine.queries.common.Side`), its kind picked once from
the plan: the engine asks no side what kind it is.  The result is the
sides' answers recombined, and both are emitted source
(:meth:`~repro.engine.queries.common.Side.emit_answer`,
:meth:`SideLayout.emit_result`): :meth:`AggregateIndexEngine.reads_source`
writes ``result`` (and, sharded, ``shard_probe`` / ``shard_combine``)
from them, into the same emitted module as the triggers.

The index class of single-column sides is pluggable, which realises the
paper's Section 2→3 progression:
:class:`~repro.core.pai_map.PAIMap` (O(1) point ops, O(n) range ops),
:class:`~repro.trees.treemap.TreeMap` (O(log n) ``get_sum``, O(n)
``shift_keys``), :class:`~repro.core.rpai.RPAITree` (O(log n)
everything).  When no ``index_cls`` is passed, the class is picked by
the static rule :func:`~repro.query.planner.choose_backend`.  Any class
conforming to :class:`~repro.core.interfaces.AggregateIndex` can be
substituted: the backend conformance suite
(``tests/trees/test_backend_conformance.py``) and the index-engine
tests pass ``index_cls`` to run every backend, the §6 comparators
included, through this engine.

Precondition inherited from the paper's setting: the inner aggregate's
per-tuple contributions are strictly positive (volumes, quantities,
counts).  This guarantees that distinct live aggregate keys belong to
distinct correlation groups, which is what makes the boundary of each
range shift unambiguous (see the tie analysis in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Type

from repro.engine.base import IncrementalEngine
from repro.engine.mergeable import merge_counts, merge_grouped, merge_sums
from repro.engine.queries.common import (
    FRAGMENT_GLOBALS,
    Answer,
    Feed,
    Side,
    emit_recombination,
    side_class,
)
from repro.errors import EngineStateError, UnsupportedQueryError
from repro.obs import SINK as _SINK
from repro.query.analysis import is_correlated
from repro.query.ast import AggrCall, AggrQuery, Arith, ColumnRef, Const, Expr, SubqueryExpr, walk_expr
from repro.query.planner import IndexSpec, QueryPlan, Strategy, choose_backend, classify
from repro.query.rowexpr import (
    MaintainedAggregate,
    Scale,
    UncorrelatedScalar,
    emit_predicate_side,
    emit_scaled,
    peel_constant_scale,
    subquery_bindings,
)
from repro.storage.stream import Event

__all__ = [
    "AggregateIndexEngine",
    "Feed",
    "SidePlan",
    "SideLayout",
    "plan_sides",
    "decompose_product_sum",
    "build_single_index_engine",
    "describe_backends",
]

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


@dataclass(frozen=True)
class SidePlan:
    """Static description of one relation's side, derived from the plan.

    Attributes:
        spec: the planner's predicate for this relation.
        kind: the side class that maintains it
            (:func:`~repro.engine.queries.common.side_class`).
        factors: the distinct single-relation factor expressions of the
            result terms — one index column each.
        counted: some term multiplies by ``|Qi|``, so a count column
            follows the factor columns.
        group_by: ``GROUP BY`` columns (single-side plans only).
        feeds: the relations that move the side.
    """

    spec: IndexSpec
    kind: type[Side]
    factors: tuple[Expr, ...]
    counted: bool
    group_by: tuple[str, ...] = ()
    feeds: tuple[Feed, ...] = ()

    @property
    def alias(self) -> str:
        return self.spec.outer_alias

    @property
    def columns(self) -> int:
        return len(self.factors) + self.counted


@dataclass(frozen=True)
class SideLayout:
    """:func:`plan_sides` output: the sides plus the result recombination
    ``scale(Σ_terms coef · Π_i sums_i[column_i])``."""

    scale: Scale
    sides: tuple[SidePlan, ...]
    terms: tuple[tuple[float, tuple[int, ...]], ...]

    def emit_result(self, answers: list[Answer], probes: dict, keep: bool = False) -> list[str]:
        """Statements returning the result from the sides' answers (and
        ``probes``, the source of each probed answer's probe value): the
        terms under the scale, per entry of a grouped answer.  The one
        place a side that keeps the result is told apart: under the
        identity recombination its entries are copied as they are;
        ``keep``: see :func:`emit_recombination`."""
        if self.terms == ((1.0, (0,)),) and not self.scale and all(a.final for a in answers):
            return emit_recombination(answers, probes)
        terms = [
            "(" + " * ".join([repr(coef)] + [f"_q{k}_{c}" for k, c in enumerate(columns)]) + ")"
            for coef, columns in self.terms
        ]
        value = emit_scaled(self.scale, f"({' + '.join(['0.0'] + terms)})")
        return emit_recombination(answers, probes, value, keep=keep)


_STRATEGIES = (
    Strategy.UNCORRELATED,
    Strategy.PAI_EQUALITY,
    Strategy.RPAI_INEQUALITY,
    Strategy.RPAI_CONJUNCTIVE,
    Strategy.RPAI_GROUPED,
)


def _indented(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines]


def plan_sides(plan: QueryPlan) -> SideLayout:
    """Derive the side descriptions and the term plan from ``plan``.

    Raises:
        UnsupportedQueryError: when the plan is not one of the four
            aggregate-index strategies or an ``UNCORRELATED`` plan with
            a membership spec, or uses a shape the sides cannot
            maintain (non-SUM aggregates, asymmetric correlation
            attributes, ``GROUP BY`` over an equality or a join).
    """
    if plan.strategy not in _STRATEGIES or not plan.index_specs:
        raise UnsupportedQueryError(
            f"no aggregate-index engine for strategy {plan.strategy}: {plan.reason}"
        )
    query = plan.query
    alias_to_name = query.alias_to_name()

    aggregates = [
        item.expr
        for item in query.select
        if any(isinstance(node, AggrCall) for node in walk_expr(item.expr))
    ]
    if len(aggregates) != 1:
        raise UnsupportedQueryError("exactly one aggregate select item required")
    scale, call = peel_constant_scale(aggregates[0])
    if not isinstance(call, AggrCall) or call.func != "SUM" or call.arg is None:
        raise UnsupportedQueryError(
            "the aggregate-index engine requires a SUM result aggregate "
            "(COUNT can be expressed as SUM of 1)"
        )
    # A single-relation argument is itself the one required sum; only a
    # cross-relation argument has to be split into per-relation factors.
    arg_aliases = {
        node.relation for node in walk_expr(call.arg) if isinstance(node, ColumnRef)
    }
    if len(arg_aliases) == 1:
        terms: list[Term] = [(1.0, {arg_aliases.pop(): call.arg})]
    else:
        terms = decompose_product_sum(call.arg)

    if query.group_by and len(plan.index_specs) != 1:
        raise UnsupportedQueryError("GROUP BY needs a single-relation inequality correlation")

    aliases = [spec.outer_alias for spec in plan.index_specs]
    if any(alias not in aliases for _coef, by_alias in terms for alias in by_alias):
        raise UnsupportedQueryError("the result aggregate reads a relation no index holds")
    factors: dict[str, list[Expr]] = {alias: [] for alias in aliases}
    counted: dict[str, bool] = dict.fromkeys(aliases, False)
    picks: list[tuple[float, list[int | None]]] = []
    for coef, by_alias in terms:
        entry: list[int | None] = []
        for alias in aliases:
            factor = by_alias.get(alias)
            if factor is None:
                counted[alias] = True
                entry.append(None)
            else:
                known = factors[alias]
                if factor not in known:
                    known.append(factor)
                entry.append(known.index(factor))
        picks.append((coef, entry))

    sides = []
    for spec in plan.index_specs:
        alias = spec.outer_alias
        if spec.relation != alias_to_name[alias]:
            raise UnsupportedQueryError(
                "the correlated subquery must range over the outer relation"
            )
        kind = side_class(spec)
        deltas = tuple(factors[alias]) + (None,) * counted[alias]
        feeds = kind.feeds(spec, deltas, query.group_by, alias_to_name)
        group_by = tuple(column.column for column in query.group_by)
        sides.append(SidePlan(spec, kind, tuple(factors[alias]), counted[alias], group_by, feeds))
    # The count column follows the factor columns of its side.
    term_plan = tuple(
        (
            coef,
            tuple(
                len(side.factors) if column is None else column
                for side, column in zip(sides, entry)
            ),
        )
        for coef, entry in picks
    )
    return SideLayout(scale, tuple(sides), term_plan)


class AggregateIndexEngine(IncrementalEngine):
    """Algorithm 4, compiled from the planner's :class:`QueryPlan`.

    Per update: one key move or range shift per side fed by the event's
    relation — O(1) with a PAI map under an equality correlation,
    O(log n) with an RPAI tree under an inequality, O(G · log n) with
    ``GROUP BY`` over G live groups; one add (and, grouped, one probe of
    the tuple's group) on a threshold side — then one probe per side.  A
    membership side costs O(1) plus the links of the tuple's key, and
    its result is a copy.

    The engine has one trigger path: ``apply``, ``apply_batch``,
    ``apply_frame``, ``warm_start``, ``result`` and, sharded,
    ``shard_value`` / ``shard_probe`` / ``shard_combine`` are emitted
    per query by :mod:`repro.query.codegen` and bound to each instance's
    sides when it is built or restored.

    Grouped results are ``{group key: aggregate}`` with groups whose
    qualifying set is empty omitted (matching the interpreter for the
    positive result arguments the workloads use).
    """

    name = "rpai"

    #: the one trigger path, whoever builds or restores the engine
    trigger_mode = "compiled"

    #: bound per instance to the emitted ``result``
    result = None  # type: ignore[assignment]

    def __init__(
        self, plan: QueryPlan, index_cls: Type | None = None, name: str | None = None
    ) -> None:
        self._build(plan, index_cls, name)
        from repro.query import codegen

        codegen.specialize(self)

    def _build(self, plan: QueryPlan, index_cls: Type | None, name: str | None) -> None:
        """Everything but the emitted functions: the layout, fresh
        sides, the scalars and each probed side's probe source."""
        self.layout = layout = plan_sides(plan)
        self.query = plan.query
        self._index_cls = index_cls if index_cls is not None else choose_backend(plan)
        if name is not None:
            self.name = name

        self.sides: list[Side] = []
        self._scalars: dict[AggrQuery, UncorrelatedScalar] = {}
        #: per side, its answer to the result's probe; per probed side,
        #: the probe value as source (uncorrelated scalars + arithmetic)
        self._answers: list[Answer] = []
        self._probes: dict[int, str] = {}
        for position, side in enumerate(layout.sides):
            spec = side.spec
            self.sides.append(side.kind.build(side, self._index_cls))
            self._answers.append(self.sides[-1].emit_answer(position, spec.outer_op))
            if not self._answers[-1].probed:
                continue
            for node in walk_expr(spec.fixed_expr):
                if isinstance(node, SubqueryExpr) and node.query not in self._scalars:
                    sub = node.query
                    if is_correlated(sub) or sub.where is not None:
                        raise UnsupportedQueryError(
                            "the fixed side takes predicate-free uncorrelated "
                            "subqueries only"
                        )
                    self._scalars[sub] = UncorrelatedScalar(sub, sub.relations[0].alias)
            self._probes[position] = emit_predicate_side(spec.fixed_expr, side.alias, self._scalars, {})

        # Sharding partitions one side's keys (a join's sides would each
        # need their own partition), routed by each feed's netting key.
        (side, *others) = self.sides
        if not others and side.shard_mode:
            self.shard_mode = side.shard_mode
            # (stored-key sign, pin): an event that only feeds the fixed
            # side is pinned to one replica (range: below every data
            # key, i.e. the lowest).
            self._routing = (side.key_sign, float("-inf")) if self.shard_mode == "range" else (None, 0)
            #: relation -> its first feed's netting-key getter (None: no key)
            self._keys: dict[str, Any] = {}
            for feed in layout.sides[0].feeds:
                columns = [ref.column for ref in feed.key]
                self._keys.setdefault(feed.relation, itemgetter(*columns) if columns else None)

    def bindings(self) -> dict[str, Any]:
        """The globals emitted source reads: the sides as ``_s{k}``, the
        scalars as ``_sc{i}``, the obs sink as ``_S``."""
        names = {"_S": _SINK, "_merge_grouped": merge_grouped, **FRAGMENT_GLOBALS}
        names.update(subquery_bindings(self._scalars, {}))
        names.update({f"_s{k}": side for k, side in enumerate(self.sides)})
        return names

    def kept(self) -> list[int]:
        """The sides whose answers ``result`` keeps until they move."""
        return [k for k, answer in enumerate(self._answers) if answer.kept]

    def reads_source(self) -> list[str]:
        """``def result(self)``: per side its structures and its answer at
        its probe value, then the layout's recombination; sharded, also
        the side's probe value ``shard_value``, its raw answer
        ``shard_probe`` and ``shard_combine``, the merged raw answers
        recombined as ``result`` recombines them."""
        binds = [line for k, side in enumerate(self.sides) for line in side.emit_bind(k, False)]
        recombined = self.layout.emit_result(self._answers, self._probes, keep=True)
        lines = ["def result(self):", *_indented(binds + recombined)]
        if self.shard_mode:
            (answer,) = self._answers
            lines += ["def shard_value(self):", f"    return {self._probes.get(0)}"]
            lines += ["def shard_probe(self, _p0):"]
            lines += _indented(binds + emit_recombination([answer], {0: "_p0"}, keyed=True))
            lines += ["def shard_combine(self, _parts, _probes):"]
            merged = ["_m = _merge_grouped(_parts if _probes is None else _probes)"]
            lines += _indented(merged + self.layout.emit_result([answer.merged("_m")], {}))
        return lines

    # -- checkpointing ----------------------------------------------------

    def __getstate__(self) -> dict:
        """The emitted functions are rebuilt from the plan on restore;
        everything else is data."""
        state = {
            "query": self.query,
            "index_cls": self._index_cls,
            "name": self.name,
            "sides": self.sides,
            "scalars": {sub: sc.aggregate for sub, sc in self._scalars.items()},
        }
        if self._quarantine is not None:
            state["quarantine"] = self._quarantine
        return state

    def __setstate__(self, state: dict) -> None:
        if "sides" not in state:
            # Written by one of the per-shape engine classes this engine
            # replaced: refuse, so the snapshot loader rebuilds from the
            # log instead.
            raise EngineStateError(
                "engine state predates the one-engine side layout"
            )
        plan = state["plan"] if "plan" in state else classify(state["query"])
        self._build(plan, state["index_cls"], state["name"])
        self.sides = state["sides"]
        for sub, aggregate in state["scalars"].items():
            self._scalars[sub].aggregate = aggregate
        if "quarantine" in state:
            self._quarantine = state["quarantine"]
        # The emitted functions bind the restored sides as globals.
        from repro.query import codegen

        codegen.specialize(self)

    def _require_fresh(self) -> None:
        """The emitted ``warm_start`` bulk-loads fresh sides only."""
        if any(
            len(side.bound_map) or any(map(len, side.indexes())) for side in self.sides
        ):
            raise EngineStateError("warm_start requires a fresh engine")

    # -- sharded execution (single-side plans) -----------------------------
    # Equality correlation partitions by *hash*: a replica owns the
    # correlation groups hashed to it, and a group's subquery value
    # depends only on that group's tuples, so any key-disjoint
    # assignment keeps every per-group rhs exact.
    #
    # Inequality correlation partitions by *range*: replicas own
    # contiguous ranges of the stored correlation key, so a tuple's
    # global subquery value (a prefix sum over *all* keys below it)
    # equals its shard-local rhs plus one additive offset — the total
    # inner volume of the lower shards.  That is the RPAI relative-key
    # idea lifted to the shard level: instead of adjusting every replica
    # on every update, the merge adjusts each replica's probe by its
    # current offset.  ``probe op (offset + rhs_local)`` rewrites to
    # ``(probe - offset) op rhs_local``, so each replica answers one
    # probe at its offset-shifted value and the raw answers add up (per
    # group under GROUP BY: routing is by correlation key, so one
    # group's tuples may live in several shards).  Offsets and probe
    # values are exact for the integer measures the workloads use, so
    # the sharded result is bit-identical to the unsharded one.
    #
    # The only other global quantity is the fixed probe value, merged
    # from the replicas' scalar components: SUM/COUNT/AVG by component
    # addition, MIN/MAX by multiset union.  The template folds them and
    # re-evaluates the compiled expression, so the merged probe value is
    # computed by exactly the same float operations as unsharded.

    def shard_routing_key(self, event: Event) -> Any:
        sign, pin = self._routing
        if event.relation not in self._keys:
            return pin
        get = self._keys[event.relation]
        key = None if get is None else get(event.row)
        return key if sign is None else sign * key

    def shard_routing_spec(self) -> dict:
        sign, pin = self._routing
        spec: dict = {"*": ("pin", pin)}
        for feed in self.layout.sides[0].feeds:
            columns = tuple(ref.column for ref in feed.key)
            if not columns:
                spec[feed.relation] = ("broadcast",)
            elif sign is not None:
                spec[feed.relation] = ("scaled_column", columns[0], sign)
            elif len(columns) == 1:
                spec[feed.relation] = ("column", columns[0])
            else:
                spec[feed.relation] = ("columns", columns)
        return spec

    @property
    def _local(self) -> bool:
        """No global quantity (no scalar, no range offset): a replica's
        probe answer is final, so its partial is that answer and the
        probe round is skipped."""
        return not self._scalars and self.shard_mode == "hash"

    def shard_partial(self) -> Any:
        if self._local:
            return self.shard_probe(self.shard_value())
        components = []
        for scalar in self._scalars.values():
            aggregate = scalar.aggregate
            if isinstance(aggregate, MaintainedAggregate):
                components.append(("sc", aggregate.total, aggregate.count))
            else:  # MinMaxView — ship the multiset contents
                components.append(("mm", tuple(aggregate._values.items())))
        volume = self.sides[0].bound_map.total_sum() if self.shard_mode == "range" else 0
        return (tuple(components), volume)

    def shard_contexts(self, partials) -> list[Any] | None:
        from repro.core.minmax import MinMaxView

        if self._local:
            return None
        partials = list(partials)
        for index, scalar in enumerate(self._scalars.values()):
            aggregate = scalar.aggregate
            parts = [components[index] for components, _volume in partials]
            if isinstance(aggregate, MaintainedAggregate):
                aggregate.total = merge_sums(part[1] for part in parts)
                aggregate.count = merge_counts(part[2] for part in parts)
            else:
                merged = MinMaxView(aggregate.func, default=aggregate.default)
                for part in parts:
                    for value, count in part[1]:
                        merged.update(value, count)
                scalar.aggregate = merged
        probe = self.shard_value()
        if self.shard_mode == "hash":
            return [probe] * len(partials)
        contexts = []
        offset = 0
        for _components, shard_volume in partials:
            contexts.append(probe - offset)
            offset += shard_volume
        return contexts


def build_single_index_engine(
    query: AggrQuery, index_cls: Type | None = None, name: str | None = None
) -> AggregateIndexEngine:
    """Classify ``query`` and build its aggregate-index engine.

    Raises:
        UnsupportedQueryError: when the plan is not PAI_EQUALITY,
            RPAI_INEQUALITY, RPAI_CONJUNCTIVE, RPAI_GROUPED or a
            membership ``UNCORRELATED`` plan (use the registry for the
            other strategies).
    """
    return AggregateIndexEngine(classify(query), index_cls, name=name)


def describe_backends(engine: Any) -> str | None:
    """One-line backend report for ``repro stats``.

    Returns each side's :meth:`~repro.engine.queries.common.Side.describe`
    — ``"paimap"``, ``"rpai"``, ``"rpai (2 columns)"``, ``"rpai x12
    groups"``, ``"dicts x40 keys x12 groups"`` (a membership side) — for
    the aggregate-index engine, ``None`` for engines whose substrates
    are hand-specialized (their triggers hard-code them).
    """
    if not isinstance(engine, AggregateIndexEngine):
        return None
    return ", ".join(sorted({side.describe() for side in engine.sides}))
