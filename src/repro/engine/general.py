"""The general incrementalization algorithm of paper Section 4.2.

The general algorithm (GA) works for any single-relation aggregate
query whose predicates compare arithmetic expressions over

* constants,
* outer columns,
* uncorrelated nested aggregate subqueries (maintained as scalars), and
* correlated nested aggregate subqueries whose own predicate is a
  single comparison ``f(inner row) θ g(outer row)``.

This covers VWAP, SQ1 and SQ2 (and EQ), i.e. every query the paper
routes through the GA.  Following Algorithm 3 / Section 4.2.2, the
engine maintains, per correlated subquery:

* a **bound map** — ordered index keyed by the inner expression ``f``
  accumulating the inner aggregate's contributions (a point update per
  event); used only to *initialize* free-map entries for newly seen
  outer keys (Algorithm 3 lines 19–24) in O(log n);
* a **free map** — ``g-value -> current subquery aggregate``,
  maintained by the Algorithm 3 lines 14–17 pass: each arriving inner
  tuple updates every affected entry with one comparison and one add.

plus a **result map** from the outer group key (the tuple of outer
columns used in predicates) to the result aggregate's partial sums.
After each update the result is recomputed by iterating the result map
and re-evaluating the predicates per group against the free maps
(Section 4.2.4) — O(n) with small constants, versus DBToaster's O(n²)
nested re-evaluation loops.

Those two O(live groups) passes are where the time goes, so they are
the only generated code: at construction each correlated subquery
compiles its ``apply_delta`` (the free-map pass, θ inlined) and the
engine its ``_recompute`` (the conjuncts unrolled to plain comparisons
over inline subquery reads), from :mod:`repro.query.rowexpr`'s emitters.
Everything else — ``apply``, ``apply_batch``, the bookkeeping — is
plain Python and the algorithm's only definition; there is no mode and
no switch (``python -m repro codegen SQ1`` prints the loops).
"""

from __future__ import annotations

import types
from typing import Any, Mapping

from repro.errors import UnsupportedQueryError
from repro.engine.base import IncrementalEngine, Result
from repro.obs import SINK as _SINK
from repro.query.analysis import free_columns, is_correlated
from repro.query.ast import (
    AggrCall,
    AggrQuery,
    ColumnRef,
    Comparison,
    Expr,
    walk_expr,
)
from repro.query.rowexpr import (
    PY_COMPARE,
    UncorrelatedScalar,
    compile_row_expr,
    compile_source,
    emit_predicate_side,
    emit_row_expr,
    emit_scaled,
    peel_constant_scale,
    subquery_bindings,
)
from repro.storage.stream import Event
from repro.trees.treemap import TreeMap

__all__ = ["GeneralAlgorithmEngine"]

Row = Mapping[str, Any]


def _bind(source: str, name: str, owner: Any, namespace: dict[str, Any]) -> None:
    """Compile generated ``source`` and bind its function ``name`` as a
    method of ``owner``."""
    exec(compile_source(source, "general"), namespace)
    setattr(owner, name, types.MethodType(namespace[name], owner))


class _CorrelatedSubquery:
    """A correlated subquery ``SELECT agg(arg) FROM R x WHERE f(x) θ
    g(outer)`` with materialized free maps (Algorithm 3).

    ``free_sum``/``free_count`` hold the subquery's aggregate per live
    outer ``g``-value; every inner tuple updates the affected entries
    with one comparison each (lines 14–17).  New outer keys are
    initialized from the ordered bound maps in O(log n) (lines 19–24,
    sped up from the paper's linear loop by the augmented TreeMap).
    """

    def __init__(self, query: AggrQuery, outer_alias: str) -> None:
        select = query.select[0].expr
        self.scale, call = peel_constant_scale(select)
        if not isinstance(call, AggrCall):
            raise UnsupportedQueryError(
                f"unsupported correlated subquery select {select}"
            )
        self.func = call.func
        inner_alias = query.relations[0].alias
        self.relation = query.relations[0].name
        self.inner_arg = compile_row_expr(call.arg, inner_alias)
        # Correlated MIN/MAX: the paper limits these to insertion-only
        # streams (Section 4.2.5), but when the aggregate's argument IS
        # the correlation attribute, the ordered bound map already holds
        # the live multiset of values and a range extreme is a boundary
        # lookup — deletions included.  Anything else stays rejected.
        self.extremal = self.func in {"MIN", "MAX"}
        if self.extremal:
            if not isinstance(call.arg, ColumnRef) or not isinstance(
                query.where, Comparison
            ):
                raise UnsupportedQueryError(
                    "correlated MIN/MAX supported only over the correlation "
                    "attribute itself"
                )
        elif self.func not in {"SUM", "COUNT", "AVG"}:
            raise UnsupportedQueryError(f"non-streamable aggregate {self.func}")

        pred = query.where
        if not isinstance(pred, Comparison):
            raise UnsupportedQueryError(
                "correlated subquery must have a single comparison predicate "
                "for the general algorithm"
            )
        f_expr, self.theta, g_expr = self._split_predicate(pred, inner_alias, outer_alias)
        self.inner_key = compile_row_expr(f_expr, inner_alias)
        self.outer_key = compile_row_expr(g_expr, outer_alias)
        self._outer = (g_expr, outer_alias)
        if self.extremal and call.arg != f_expr:
            raise UnsupportedQueryError(
                "correlated MIN/MAX supported only when the aggregate "
                "argument is the correlation attribute"
            )

        # Bound maps: f-value -> accumulated (sum, count) of inner arg.
        # SUM/COUNT/AVG probe them with get/get_sum/suffix_sum; MIN/MAX
        # walk key order (min_key/successor/...) on every probe.  Neither
        # ever shifts keys, so the plain ordered TreeMap serves both in
        # O(log n).
        self.bound_sum = TreeMap(prune_zeros=True)
        self.bound_count = TreeMap(prune_zeros=True)
        # Free maps: g-value -> current subquery aggregate components,
        # plus a refcount of live outer groups using each g-value.
        self.free_sum: dict[Any, float] = {}
        self.free_count: dict[Any, float] = {}
        self.refcount: dict[Any, int] = {}

        # ``apply_delta``: the bound-map point update, then the Algorithm 3
        # lines 14–17 free-map pass with θ inlined (extremes keep no
        # free maps — they are read off the bound map on demand).
        lines = [
            f"# {' '.join(str(query).split())}",
            "def apply_delta(self, key, value, weight):",
            "    self.bound_sum.add(key, value)",
            "    self.bound_count.add(key, weight)",
        ]
        if not self.extremal:
            lines += [
                "    free_sum = self.free_sum",
                "    free_count = self.free_count",
                "    for g in free_sum:",
                f"        if key {PY_COMPARE.get(self.theta, self.theta)} g:",
                "            free_sum[g] += value",
                "            free_count[g] += weight",
            ]
        self.source = "\n".join(lines) + "\n"
        _bind(self.source, "apply_delta", self, {})

    @staticmethod
    def _split_predicate(
        pred: Comparison, inner_alias: str, outer_alias: str
    ) -> tuple[Expr, str, Expr]:
        """Normalize to ``f(inner) θ g(outer)``."""

        def aliases_of(expr: Expr) -> set[str]:
            return {ref.relation for ref in walk_expr(expr) if isinstance(ref, ColumnRef)}

        left_aliases = aliases_of(pred.left)
        right_aliases = aliases_of(pred.right)
        if left_aliases <= {inner_alias} and right_aliases <= {outer_alias}:
            return pred.left, pred.op, pred.right
        if right_aliases <= {inner_alias} and left_aliases <= {outer_alias}:
            flipped = pred.flipped()
            return flipped.left, flipped.op, flipped.right
        raise UnsupportedQueryError(
            f"correlated predicate {pred} does not separate into "
            f"f(inner) θ g(outer)"
        )

    # -- maintenance -------------------------------------------------------------

    def on_row(self, row: Row, weight: int) -> None:
        """One inner tuple as an ``apply_delta``: ``value`` is the net
        aggregate-argument contribution at ``key``, ``weight`` the net
        multiplicity.  Both maps and the free-map pass are additive, so
        a coalesced delta reproduces the per-row sequence exactly."""
        self.apply_delta(self.inner_key(row), self.inner_arg(row) * weight, weight)

    def acquire(self, g: Any) -> None:
        """A new outer group references ``g``: initialize its free-map
        entry from the bound maps (Algorithm 3 lines 19–24)."""
        if self.extremal:
            return  # no free maps maintained for extremes
        count = self.refcount.get(g, 0)
        if count == 0:
            self.free_sum[g] = self._range_aggregate(self.bound_sum, g)
            self.free_count[g] = self._range_aggregate(self.bound_count, g)
        self.refcount[g] = count + 1

    def release(self, g: Any) -> None:
        """An outer group at ``g`` died: drop the entry when unused."""
        if self.extremal:
            return
        remaining = self.refcount.get(g, 0) - 1
        if remaining <= 0:
            self.refcount.pop(g, None)
            self.free_sum.pop(g, None)
            self.free_count.pop(g, None)
        else:
            self.refcount[g] = remaining

    def value_src(self, name: str, row: str) -> str:
        """Source of the subquery's current aggregate for the outer row
        in the local ``row``, this object bound as ``name``."""
        g = emit_row_expr(*self._outer, row)
        if self.func == "SUM":
            value = f"{name}.free_sum[{g}]"
        elif self.func == "COUNT":
            value = f"{name}.free_count[{g}]"
        elif self.extremal:
            value = f"{name}._range_extreme({g})"
        else:
            value = (
                f"({name}.free_sum[{g}] / {name}.free_count[{g}] "
                f"if {name}.free_count[{g}] else 0)"
            )
        return emit_scaled(self.scale, value)

    def _range_extreme(self, g: float) -> float:
        """MIN/MAX over the live correlation attributes in the θ-range
        (an O(log n) boundary lookup on the count bound-map; deletions
        keep the map exact).  Empty range evaluates to 0, matching the
        interpreter's empty-aggregate convention."""
        keys = self.bound_count
        if not len(keys):
            return 0
        theta = self.theta
        if theta == "=":
            present = keys.get(g, 0) != 0
            return g if present else 0
        if theta == "<>":
            if self.func == "MIN":
                lo = keys.min_key()
                extreme = lo if lo != g else keys.successor(g)
            else:
                hi = keys.max_key()
                extreme = hi if hi != g else keys.predecessor(g)
            return 0 if extreme is None else extreme
        if theta in ("<", "<="):
            lo = keys.min_key()
            hi = g if (theta == "<=" and keys.get(g, 0) != 0) else keys.predecessor(g)
            if hi is None or lo > hi:
                return 0
            return lo if self.func == "MIN" else hi
        # '>' / '>='
        hi = keys.max_key()
        lo = g if (theta == ">=" and keys.get(g, 0) != 0) else keys.successor(g)
        if lo is None or lo > hi:
            return 0
        return lo if self.func == "MIN" else hi

    def _range_aggregate(self, index: Any, key: float) -> float:
        theta = self.theta
        if theta == "=":
            return index.get(key, 0)
        if theta == "<>":
            return index.total_sum() - index.get(key, 0)
        if theta in ("<", "<="):
            return index.get_sum(key, inclusive=theta == "<=")
        return index.suffix_sum(key, inclusive=theta == ">=")


class GeneralAlgorithmEngine(IncrementalEngine):
    """Section 4.2's general algorithm, compiled from the AST.

    Per-update cost: one bound-map update + an O(groups) free-map pass
    per correlated subquery, then an O(groups) result recomputation —
    O(n) total with dictionary-speed constants, matching Algorithm 3.
    """

    name = "general-algorithm"

    #: one definition: plain-Python ``apply*`` around two O(live groups)
    #: loops generated at construction
    trigger_mode = "generated-loops"

    def __init__(self, query: AggrQuery) -> None:
        if len(query.relations) != 1 or query.group_by or query.having is not None:
            raise UnsupportedQueryError(
                "the general algorithm engine handles single-relation scalar "
                "aggregate queries"
            )
        self.query = query
        ref = query.relations[0]
        self.relation = ref.name
        self.alias = ref.alias

        # Result aggregate: a single streamable AggrCall (optionally
        # scaled by constant arithmetic).
        select = query.select[0].expr
        self._result_scale, call = peel_constant_scale(select)
        if not isinstance(call, AggrCall):
            raise UnsupportedQueryError(f"unsupported select {select}")
        self._result_func = call.func
        self._result_arg = compile_row_expr(call.arg, self.alias)
        if self._result_func not in {"SUM", "COUNT", "AVG"}:
            raise UnsupportedQueryError(
                f"non-streamable result aggregate {self._result_func}"
            )

        # Classify every nested subquery in the predicates.
        self._scalars: dict[AggrQuery, UncorrelatedScalar] = {}
        self._correlated: dict[AggrQuery, _CorrelatedSubquery] = {}
        for sub in query.subqueries():
            if len(sub.relations) != 1 or sub.group_by or sub.having is not None:
                raise UnsupportedQueryError(f"unsupported subquery shape: {sub}")
            if is_correlated(sub):
                free = free_columns(sub)
                if any(ref_.relation != self.alias for ref_ in free):
                    raise UnsupportedQueryError(
                        "subquery correlates with a relation other than the "
                        "outer relation"
                    )
                self._correlated[sub] = _CorrelatedSubquery(sub, self.alias)
            else:
                if sub.where is not None:
                    raise UnsupportedQueryError(
                        "uncorrelated subqueries with predicates are not "
                        "supported by the general algorithm engine"
                    )
                self._scalars[sub] = UncorrelatedScalar(sub, sub.relations[0].alias)

        for conjunct in query.conjuncts():
            if not isinstance(conjunct, Comparison):
                raise UnsupportedQueryError(
                    "only conjunctions of comparisons are supported"
                )

        # Result maps: outer group key -> (sum, count) of the result
        # aggregate, plus a representative outer row per key (the key is
        # exactly the predicate-relevant columns, so any representative
        # evaluates predicates identically).
        self._group_columns = self._predicate_columns()
        self._res_sum: dict[tuple, float] = {}
        self._res_count: dict[tuple, int] = {}
        self._res_repr: dict[tuple, dict] = {}
        recompute = self._emit_recompute()
        _bind(
            recompute,
            "_recompute",
            self,
            {"_S": _SINK, **subquery_bindings(self._scalars, self._correlated)},
        )
        #: what was generated for this query: every correlated
        #: subquery's ``apply_delta``, then ``_recompute``
        self.generated_source = "\n".join(
            [sub.source for sub in self._correlated.values()] + [recompute]
        )
        self._result: Result = self._recompute()
        # The maps moved since ``_result`` was enumerated.
        self._dirty = False

    def _emit_recompute(self) -> str:
        """Source of ``_recompute`` — Section 4.2.4: iterate the result
        map, re-evaluating the predicates per group against the free
        maps — with the conjuncts unrolled to plain comparisons over
        inline subquery reads."""
        lines = [
            "def _recompute(self):",
            "    if _S.enabled:",
            "        _S.inc('engine.result_recomputes')",
            "        _S.observe('engine.result_map_size', len(self._res_sum))",
            "    _total = 0",
            "    _count = 0",
            "    _rcnt = self._res_count",
            "    _rrep = self._res_repr",
            "    for _gkey, _gsum in self._res_sum.items():",
            "        _orow = _rrep[_gkey]",
        ]
        for conjunct in self.query.conjuncts():
            left, right = (
                emit_predicate_side(side, self.alias, self._scalars, self._correlated, "_orow")
                for side in (conjunct.left, conjunct.right)  # type: ignore[union-attr]
            )
            op = PY_COMPARE.get(conjunct.op, conjunct.op)  # type: ignore[union-attr]
            lines += [f"        if not ({left} {op} {right}):", "            continue"]
        aggregate = {
            "SUM": "_total",
            "COUNT": "_count",
            "AVG": "(_total / _count if _count else 0)",
        }[self._result_func]
        lines += [
            "        _total += _gsum",
            "        _count += _rcnt[_gkey]",
            f"    return {emit_scaled(self._result_scale, aggregate)}",
        ]
        return "\n".join(lines) + "\n"

    def _predicate_columns(self) -> tuple[str, ...]:
        columns: set[str] = set()
        for conjunct in self.query.conjuncts():
            for side in (conjunct.left, conjunct.right):  # type: ignore[union-attr]
                for node in walk_expr(side):
                    if isinstance(node, ColumnRef) and node.relation == self.alias:
                        columns.add(node.column)
        # Correlation columns referenced *inside* subqueries:
        for sub_query in self._correlated:
            for ref in free_columns(sub_query):
                columns.add(ref.column)
        return tuple(sorted(columns))

    # -- trigger ------------------------------------------------------------------

    def apply(self, event: Event) -> None:
        row, weight = event.row, event.weight
        # Route the row to every subquery ranging over this relation.
        for sub_query, scalar in self._scalars.items():
            if sub_query.relations[0].name == event.relation:
                scalar.on_row(row, weight)
        for correlated in self._correlated.values():
            if correlated.relation == event.relation:
                correlated.on_row(row, weight)
        if event.relation == self.relation:
            key = tuple(row[c] for c in self._group_columns)
            self._apply_outer_group(key, self._result_arg(row) * weight, weight)
        self._dirty = True

    def _apply_outer_group(self, key: tuple, sum_delta: float, count_delta: int) -> None:
        """Apply a (possibly coalesced) result-map delta for one outer
        group key, with the acquire/release bookkeeping of Algorithm 3
        lines 19–24."""
        new_count = self._res_count.get(key, 0) + count_delta
        self._res_sum[key] = self._res_sum.get(key, 0) + sum_delta
        if new_count == 0:
            del self._res_sum[key]
            del self._res_count[key]
            representative = self._res_repr.pop(key)
            for correlated in self._correlated.values():
                correlated.release(correlated.outer_key(representative))
        else:
            self._res_count[key] = new_count
            if key not in self._res_repr:
                representative = dict(zip(self._group_columns, key))
                self._res_repr[key] = representative
                for correlated in self._correlated.values():
                    correlated.acquire(correlated.outer_key(representative))

    def apply_batch(self, events) -> None:
        """Batched Algorithm 3 in two phases.

        Phase 1 routes every event to the inner side: scalars stream per
        event, correlated contributions coalesce per inner key so the
        O(live groups) free-map pass runs once per *distinct* key.
        Phase 2 applies the outer result-map deltas coalesced per group
        key; a group acquired here initializes its free-map entry from
        the bound maps, which phase 1 has already brought to the
        batch-final state — the same value per-event interleaving would
        have reached, since bound/free maps are additive.
        """
        corr_net: dict[int, dict[Any, list[float]]] = {}
        correlated_list = list(self._correlated.values())
        outer_net: dict[tuple, list[float]] = {}
        outer_order: list[tuple] = []
        for event in events:
            row, weight = event.row, event.weight
            for sub_query, scalar in self._scalars.items():
                if sub_query.relations[0].name == event.relation:
                    scalar.on_row(row, weight)
            for position, correlated in enumerate(correlated_list):
                if correlated.relation != event.relation:
                    continue
                key = correlated.inner_key(row)
                value = correlated.inner_arg(row) * weight
                net = corr_net.setdefault(position, {})
                entry = net.get(key)
                if entry is None:
                    net[key] = [value, weight]
                else:
                    entry[0] += value
                    entry[1] += weight
            if event.relation == self.relation:
                key = tuple(row[c] for c in self._group_columns)
                value = self._result_arg(row)
                entry = outer_net.get(key)
                if entry is None:
                    outer_net[key] = [value * weight, weight]
                    outer_order.append(key)
                else:
                    entry[0] += value * weight
                    entry[1] += weight
        if _SINK.enabled and events:
            _SINK.observe(
                "engine.batch_coalesced_keys",
                sum(len(net) for net in corr_net.values()) + len(outer_net),
            )
        for position, net in corr_net.items():
            correlated = correlated_list[position]
            for key, (value, weight) in net.items():
                if value == 0 and weight == 0:
                    continue
                correlated.apply_delta(key, value, weight)
        for key in outer_order:
            sum_delta, count_delta = outer_net[key]
            if count_delta == 0 and key not in self._res_count:
                # The group was created and fully retracted within the
                # chunk: acquire followed by release is a net no-op.
                continue
            if sum_delta == 0 and count_delta == 0:
                continue
            self._apply_outer_group(key, sum_delta, int(count_delta))
        self._dirty = True

    # -- checkpointing --------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Engines hold compiled functions (unpicklable); capture the
        query plus the pure-data state — restore re-runs ``__init__``,
        which regenerates the loops."""
        state = {
            "query": self.query,
            "scalars": {sub: sc.aggregate for sub, sc in self._scalars.items()},
            "correlated": {
                sub: (c.bound_sum, c.bound_count, c.free_sum, c.free_count, c.refcount)
                for sub, c in self._correlated.items()
            },
            "results": (self._res_sum, self._res_count, self._res_repr, self._result),
            "name": self.name,
            "dirty": self._dirty,
        }
        if self._quarantine is not None:
            state["quarantine"] = self._quarantine
        return state

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["query"])  # type: ignore[misc]
        self.name = state["name"]
        for sub, aggregate in state["scalars"].items():
            self._scalars[sub].aggregate = aggregate
        for sub, payload in state["correlated"].items():
            correlated = self._correlated[sub]
            (
                correlated.bound_sum,
                correlated.bound_count,
                correlated.free_sum,
                correlated.free_count,
                correlated.refcount,
            ) = payload
        (self._res_sum, self._res_count, self._res_repr, self._result) = state["results"]
        self._dirty = state.get("dirty", False)
        if "quarantine" in state:
            self._quarantine = state["quarantine"]

    def result(self) -> Result:
        if self._dirty:
            self._result = self._recompute()
            self._dirty = False
        return self._result
