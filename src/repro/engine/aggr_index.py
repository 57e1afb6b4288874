"""The aggregate-index engines of paper Section 4.3 (Algorithm 4).

These engines fully incrementalize single-relation queries of the shape

    AggrQ(f, R, v θ q)          -- v uncorrelated, q correlated on R

by maintaining an index *keyed by the correlated subquery's aggregate
values* and mapping to the final result aggregates.  A tuple insertion
then shifts a single key (equality correlation — Figure 1c) or one
contiguous range of keys (inequality correlation — Figure 2c), and the
result is read off the index with a point lookup or a ``get_sum``.

The index implementation is pluggable, which realises the paper's
Section 2→3 progression and powers the ablation benchmark:

* :class:`~repro.core.pai_map.PAIMap` — O(1) point ops, O(n) range ops
  (the Section 2.2.3 PAI-map engine);
* :class:`~repro.trees.treemap.TreeMap` — O(log n) ``get_sum`` but O(n)
  ``shift_keys`` (the Section 3.1 intermediate);
* :class:`~repro.core.rpai.RPAITree` — O(log n) everything (the full
  RPAI engine).

When no ``index_cls`` is passed, the class is picked by the static rule
:func:`~repro.query.planner.choose_backend`: the dict for a point role
probed by a point lookup, the relative-key tree for everything else.
Any class conforming to
:class:`~repro.core.interfaces.AggregateIndex` can be substituted (the
conformance suite runs the §6 comparators through these engines).

Precondition inherited from the paper's setting: the inner aggregate's
per-tuple contributions are strictly positive (volumes, quantities,
counts).  This guarantees that distinct live aggregate keys belong to
distinct correlation groups, which is what makes the boundary of each
range shift unambiguous (see the tie analysis in DESIGN.md).
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Type

from repro.core.pai_map import PAIMap
from repro.core.rpai import RPAITree
from repro.obs import SINK as _SINK
from repro.engine.base import IncrementalEngine, Result
from repro.engine.general import (
    _compile_row_expr,
    _peel_constant_scale,
)
from repro.errors import EngineStateError, UnsupportedQueryError
from repro.query.analysis import is_correlated
from repro.query.ast import AggrCall, AggrQuery, SubqueryExpr, walk_expr
from repro.query.planner import (
    IndexSpec,
    QueryPlan,
    Strategy,
    choose_backend,
    classify,
)
from repro.storage.stream import Event
from repro.trees.treemap import TreeMap

__all__ = [
    "PointIndexEngine",
    "RangeIndexEngine",
    "GroupedRangeIndexEngine",
    "build_single_index_engine",
    "describe_backends",
]

Row = Mapping[str, Any]


class _FixedSide:
    """Maintains the uncorrelated probe value ``v`` (constants and
    uncorrelated nested aggregates combined by arithmetic)."""

    def __init__(self, query: AggrQuery, spec: IndexSpec) -> None:
        # Collect the uncorrelated subqueries appearing in the fixed
        # expression and maintain each as a scalar.
        from repro.engine.general import _UncorrelatedScalar, _compile_predicate_side
        from repro.query.ast import walk_expr

        self._scalars: dict[AggrQuery, Any] = {}
        for node in walk_expr(spec.fixed_expr):
            if isinstance(node, SubqueryExpr):
                sub = node.query
                if is_correlated(sub):
                    raise UnsupportedQueryError(
                        "fixed side contains a correlated subquery"
                    )
                if sub.where is not None:
                    raise UnsupportedQueryError(
                        "fixed-side subqueries with predicates are unsupported"
                    )
                self._scalars[sub] = _UncorrelatedScalar(
                    sub, sub.relations[0].alias
                )
        self._side = _compile_predicate_side(
            spec.fixed_expr, spec.outer_alias, self._scalars, {}
        )

    def on_event(self, event: Event) -> None:
        for sub_query, scalar in self._scalars.items():
            if sub_query.relations[0].name == event.relation:
                scalar.on_row(event.row, event.weight)

    def column_updates(self, block: Any) -> list[tuple]:
        """Pure pre-computation for the columnar fast path: the
        ``(scalar, per-row values, weights)`` updates one
        :class:`~repro.storage.colbatch.ColumnBlock` implies.  Raises
        (KeyError/TypeError) *before* any state changes when the block
        does not fit a scalar's compiled column shape, so callers can
        fall back to the event path with the fixed side untouched."""
        return [
            (scalar, scalar.column_values(block), block.weights)
            for sub_query, scalar in self._scalars.items()
            if sub_query.relations[0].name == block.relation
        ]

    def value(self) -> float:
        # The fixed side contains no outer columns by construction.
        return self._side({})

    # -- sharded execution support ------------------------------------
    # The fixed side is a combination of uncorrelated scalars, each of
    # which is mergeable: SUM/COUNT/AVG by component addition, MIN/MAX
    # by multiset union.  Shard replicas ship the components; the
    # template folds them and re-evaluates the compiled expression, so
    # the merged probe value is computed by exactly the same code path
    # (and float operations) as the unsharded engine's.

    def shard_components(self) -> tuple:
        """Picklable per-scalar components, in scalar-definition order."""
        from repro.engine.general import _MaintainedAggregate

        out = []
        for scalar in self._scalars.values():
            aggregate = scalar.aggregate
            if isinstance(aggregate, _MaintainedAggregate):
                out.append(("sc", aggregate.total, aggregate.count))
            else:  # MinMaxView — ship the multiset contents
                out.append(("mm", tuple(aggregate._values.items())))
        return tuple(out)

    def load_merged_components(self, parts: list[tuple]) -> None:
        """Overwrite this (template) side's scalars with the merge of
        per-shard component tuples from :meth:`shard_components`."""
        from repro.core.minmax import MinMaxView
        from repro.engine.general import _MaintainedAggregate
        from repro.engine.mergeable import merge_counts, merge_sums

        for index, scalar in enumerate(self._scalars.values()):
            aggregate = scalar.aggregate
            if isinstance(aggregate, _MaintainedAggregate):
                aggregate.total = merge_sums(part[index][1] for part in parts)
                aggregate.count = merge_counts(part[index][2] for part in parts)
            else:
                merged = MinMaxView(aggregate.func, default=aggregate.default)
                for part in parts:
                    for value, count in part[index][1]:
                        merged.update(value, count)
                scalar.aggregate = merged


class _ResultAggregate:
    """Compiled result aggregate: scale * AGG(arg)."""

    def __init__(self, query: AggrQuery, alias: str) -> None:
        scale, call = _peel_constant_scale(query.select[0].expr)
        if not isinstance(call, AggrCall) or call.func != "SUM":
            raise UnsupportedQueryError(
                "aggregate-index engines require a SUM result aggregate "
                "(COUNT can be expressed as SUM of 1)"
            )
        self.scale = scale
        self.arg = (
            _compile_row_expr(call.arg, alias) if call.arg is not None else None
        )

    def contribution(self, row: Row) -> float:
        return self.arg(row) if self.arg is not None else 1


def _index_engine_state(engine) -> dict:
    """Checkpoint helper shared by the index engines: the compiled
    closures are rebuilt from the plan on restore; everything else is
    pure data."""
    state = {
        "plan": engine._plan,
        "index_cls": engine._index_cls,
        "name": engine.name,
        "fixed_scalars": {
            sub: scalar.aggregate for sub, scalar in engine._fixed._scalars.items()
        },
        "bound_map": engine.bound_map,
    }
    if hasattr(engine, "aggr_index"):
        state["aggr_index"] = engine.aggr_index
    if hasattr(engine, "res_map"):
        state["res_map"] = engine.res_map
    if hasattr(engine, "group_indexes"):
        state["group_indexes"] = engine.group_indexes
    if engine._quarantine is not None:
        state["quarantine"] = engine._quarantine
    return state


def _restore_index_engine(engine, state: dict) -> None:
    engine.__init__(state["plan"], state["index_cls"], name=state["name"])
    for sub, aggregate in state["fixed_scalars"].items():
        engine._fixed._scalars[sub].aggregate = aggregate
    engine.bound_map = state["bound_map"]
    if "aggr_index" in state:
        engine.aggr_index = state["aggr_index"]
    if "res_map" in state:
        engine.res_map = state["res_map"]
    if "group_indexes" in state:
        engine.group_indexes = state["group_indexes"]
    if "quarantine" in state:
        engine._quarantine = state["quarantine"]
    # Compiled triggers are instance attributes and never pickle (the
    # state dicts above are pure data); re-specialize against the
    # restored structures.
    from repro.query import codegen

    codegen.maybe_specialize(engine)


def _probe(index, op: str, probe: float) -> float:
    """Sum of index values over keys ``k`` with ``probe op k``."""
    if _SINK.enabled:
        _SINK.inc("engine.result_probes")
    if op == "=":
        return index.get(probe, 0)
    if op == "<":
        return index.total_sum() - index.get_sum(probe, inclusive=True)
    if op == "<=":
        return index.total_sum() - index.get_sum(probe, inclusive=False)
    if op == ">":
        return index.get_sum(probe, inclusive=False)
    if op == ">=":
        return index.get_sum(probe, inclusive=True)
    raise UnsupportedQueryError(f"unsupported probe operator {op!r}")


class PointIndexEngine(IncrementalEngine):
    """Algorithm 4, ``"="`` case — Example 2.1 / Figure 1c.

    The correlated predicate is an equality, so a new tuple changes
    exactly one aggregate key: move that group's result value from the
    old key to the new key.  O(1) per update with a PAI map.
    """

    name = "rpai"

    def __init__(
        self, plan: QueryPlan, index_cls: Type = PAIMap, name: str | None = None
    ) -> None:
        if plan.strategy is not Strategy.PAI_EQUALITY:
            raise UnsupportedQueryError(
                f"PointIndexEngine needs a PAI_EQUALITY plan, got {plan.strategy}"
            )
        (spec,) = plan.index_specs
        if spec.inner_func != "SUM":
            raise UnsupportedQueryError(
                "point-index engine supports SUM inner aggregates"
            )
        if any(
            inner.column != outer.column for inner, outer in spec.column_pairs()
        ):
            raise UnsupportedQueryError(
                "point updates need the same attribute on both sides of "
                "each correlation equality"
            )
        self.spec = spec
        self.relation = plan.query.relations[0].name
        alias = plan.query.relations[0].alias
        self._fixed = _FixedSide(plan.query, spec)
        self._result_agg = _ResultAggregate(plan.query, alias)
        inner_alias = spec.inner_col.relation
        self._inner_arg = (
            _compile_row_expr(spec.inner_arg, inner_alias)
            if spec.inner_arg is not None
            else None
        )
        # Group key columns: one per correlation equality (Section 4.3
        # allows "multiple conjunctive equality predicates").
        self._group_cols = tuple(
            outer.column for _inner, outer in spec.column_pairs()
        )

        # map3 in Figure 1c: group key (e.g. A) -> inner aggregate (rhs).
        self.bound_map = PAIMap(prune_zeros=True)
        # map1: group key -> result aggregate for the group.
        self.res_map = PAIMap(prune_zeros=True)
        # aggrMap: rhs value -> sum of result aggregates of groups at it.
        self.aggr_index = index_cls(prune_zeros=True)
        self._plan = plan
        self._index_cls = index_cls
        if name is not None:
            self.name = name

    def __getstate__(self) -> dict:
        return _index_engine_state(self)

    def __setstate__(self, state: dict) -> None:
        _restore_index_engine(self, state)

    def _event_deltas(self, row: Row, x: int) -> tuple[Any, float, float]:
        """(group key, inner-aggregate delta, result delta) of one tuple."""
        group = (
            row[self._group_cols[0]]
            if len(self._group_cols) == 1
            else tuple(row[c] for c in self._group_cols)
        )
        inner_delta = (self._inner_arg(row) if self._inner_arg is not None else 1) * x
        res_delta = self._result_agg.contribution(row) * x
        return group, inner_delta, res_delta

    def _apply_group(self, group: Any, inner_delta: float, res_delta: float) -> None:
        """Move one group's result value from its old aggregate key to
        its new one (Figure 1c lines 16-18)."""
        if _SINK.enabled:
            _SINK.inc("engine.point_applies")
        old_rhs = self.bound_map.get(group, 0)
        old_res = self.res_map.get(group, 0)
        new_rhs = old_rhs + inner_delta
        new_res = old_res + res_delta
        if old_res != 0:
            self.aggr_index.add(old_rhs, -old_res)
        if new_res != 0:
            self.aggr_index.add(new_rhs, new_res)
        self.bound_map.add(group, inner_delta)
        self.res_map.add(group, res_delta)

    def on_event(self, event: Event) -> Result:
        self._fixed.on_event(event)
        if event.relation == self.relation:
            group, inner_delta, res_delta = self._event_deltas(event.row, event.weight)
            self._apply_group(group, inner_delta, res_delta)
        return self.result()

    def on_batch(self, events) -> Result:
        """Batched trigger: per-group updates telescope (old key → new
        key moves compose), so deltas are coalesced per group key and
        each live group is touched once per chunk.  Groups whose net
        deltas cancel (an insert retracted within the chunk) never
        touch the index at all."""
        net: dict[Any, list[float]] = {}
        for event in events:
            self._fixed.on_event(event)
            if event.relation != self.relation:
                continue
            group, inner_delta, res_delta = self._event_deltas(event.row, event.weight)
            entry = net.get(group)
            if entry is None:
                net[group] = [inner_delta, res_delta]
            else:
                entry[0] += inner_delta
                entry[1] += res_delta
        for group, (inner_delta, res_delta) in net.items():
            if inner_delta == 0 and res_delta == 0:
                continue
            self._apply_group(group, inner_delta, res_delta)
        return self.result()

    # The columnar netting fast path for frames is *generated*, not
    # hand-written: repro.query.codegen emits an ``on_frame`` alongside
    # the compiled event/batch triggers (same bail-before-mutate
    # guards).  Interpreted engines fall back to the base class's
    # decode-to-on_batch default.

    def warm_start(self, stream) -> Result:
        """Initial load via ``bulk_load``: aggregate the whole stream
        per group offline, then build all three indexes directly."""
        if len(self.bound_map) or len(self.res_map) or len(self.aggr_index):
            raise EngineStateError("warm_start requires a fresh engine")
        net: dict[Any, list[float]] = {}
        for event in stream:
            self._fixed.on_event(event)
            if event.relation != self.relation:
                continue
            group, inner_delta, res_delta = self._event_deltas(event.row, event.weight)
            entry = net.get(group)
            if entry is None:
                net[group] = [inner_delta, res_delta]
            else:
                entry[0] += inner_delta
                entry[1] += res_delta
        groups = sorted(net)
        self.bound_map = PAIMap.bulk_load(
            ((g, net[g][0]) for g in groups), prune_zeros=True
        )
        self.res_map = PAIMap.bulk_load(
            ((g, net[g][1]) for g in groups), prune_zeros=True
        )
        by_rhs: dict[float, float] = {}
        for g in groups:
            rhs, res = net[g]
            if res != 0:
                by_rhs[rhs] = by_rhs.get(rhs, 0) + res
        self.aggr_index = self._index_cls.bulk_load(
            sorted(by_rhs.items()), prune_zeros=True
        )
        return self.result()

    def result(self) -> Result:
        probe = self._fixed.value()
        return self._result_agg.scale * _probe(
            self.aggr_index, self.spec.outer_op, probe
        )

    # -- sharded execution (equality correlation partitions by group) --
    # A replica owns the correlation groups hashed to it: a group's
    # subquery value (its rhs) depends only on that group's tuples, so
    # any key-disjoint assignment keeps every per-group rhs exact.  The
    # only global quantity is the fixed probe value, merged from the
    # replicas' scalar components; every replica is then probed at the
    # same merged value and the raw probe answers add up.

    shard_mode = "hash"

    def shard_routing_key(self, event: Event) -> Any:
        if event.relation != self.relation:
            return 0  # fixed-side-only event: pin to one replica
        row = event.row
        if len(self._group_cols) == 1:
            return row[self._group_cols[0]]
        return tuple(row[c] for c in self._group_cols)

    def shard_routing_spec(self) -> dict:
        rule = (
            ("column", self._group_cols[0])
            if len(self._group_cols) == 1
            else ("columns", self._group_cols)
        )
        return {self.relation: rule, "*": ("pin", 0)}

    def shard_partial(self) -> Any:
        return self._fixed.shard_components()

    def shard_contexts(self, partials) -> list[Any]:
        self._fixed.load_merged_components(list(partials))
        probe = self._fixed.value()
        return [probe] * len(partials)

    def shard_probe(self, context: Any) -> float:
        return _probe(self.aggr_index, self.spec.outer_op, context)

    def shard_combine(self, partials, probes) -> Result:
        from repro.engine.mergeable import merge_sums

        return self._result_agg.scale * merge_sums(probes)


class RangeIndexEngine(IncrementalEngine):
    """Algorithm 4, inequality case — Example 2.2 / Figure 2c (VWAP).

    The correlated predicate is an inequality over the same attribute on
    both sides, so the subquery values are monotone in that attribute
    and a new tuple shifts one contiguous *range* of aggregate keys:
    ``shift_keys`` + two point updates.  O(log n) per update with an
    RPAI tree, O(n) with a PAI map or TreeMap.
    """

    name = "rpai"

    def __init__(
        self, plan: QueryPlan, index_cls: Type = RPAITree, name: str | None = None
    ) -> None:
        if plan.strategy is not Strategy.RPAI_INEQUALITY:
            raise UnsupportedQueryError(
                f"RangeIndexEngine needs an RPAI_INEQUALITY plan, got "
                f"{plan.strategy}"
            )
        (spec,) = plan.index_specs
        if spec.inner_func != "SUM":
            raise UnsupportedQueryError(
                "range-index engine supports SUM inner aggregates"
            )
        if spec.inner_col.column != spec.outer_col.column:
            raise UnsupportedQueryError(
                "range shifts need the same attribute on both sides of the "
                "correlated predicate"
            )
        self.spec = spec
        self.relation = plan.query.relations[0].name
        alias = plan.query.relations[0].alias
        self._fixed = _FixedSide(plan.query, spec)
        self._result_agg = _ResultAggregate(plan.query, alias)
        inner_alias = spec.inner_col.relation
        self._inner_arg = (
            _compile_row_expr(spec.inner_arg, inner_alias)
            if spec.inner_arg is not None
            else None
        )
        self._key_col = spec.outer_col.column

        # Normalize the inner inequality to "ascending key" form: for
        # '>' / '>=' we store negated keys so the subquery value is
        # always a prefix sum in stored-key order.
        op = spec.inner_op
        if op in {">", ">="}:
            self._key_sign = -1
            op = "<" if op == ">" else "<="
        else:
            self._key_sign = 1
        self._inclusive_inner = op == "<="  # '<=' vs '<'

        # map3 in Figure 2c: stored key (signed price) -> sum of inner
        # contributions (volume) at that key.
        self.bound_map = TreeMap(prune_zeros=True)
        # aggrIndex: subquery value (rhs) -> sum of result contributions
        # of the groups currently at that rhs.
        self.aggr_index = index_cls(prune_zeros=True)
        self._plan = plan
        self._index_cls = index_cls
        if name is not None:
            self.name = name

    def __getstate__(self) -> dict:
        return _index_engine_state(self)

    def __setstate__(self, state: dict) -> None:
        _restore_index_engine(self, state)

    def on_event(self, event: Event) -> Result:
        self._fixed.on_event(event)
        if event.relation == self.relation:
            key, volume, res_delta = self._event_deltas(event.row, event.weight)
            self._apply_outer(key, volume, res_delta)
        return self.result()

    def _event_deltas(self, row: Row, x: int) -> tuple[float, float, float]:
        """(stored key, inner-aggregate delta, result delta) of one tuple."""
        key = self._key_sign * row[self._key_col]
        volume = (self._inner_arg(row) if self._inner_arg is not None else 1) * x
        res_delta = self._result_agg.contribution(row) * x
        return key, volume, res_delta

    def _apply_outer(self, key: float, volume: float, res_delta: float) -> None:
        """Figure 2c trigger for a (possibly coalesced) delta at ``key``."""
        if _SINK.enabled:
            _SINK.inc("engine.range_applies")
        # 1. Update the bound map; its one descent also yields the
        #    group's old volume and the volume of strictly lower keys.
        old_vol_at_key, prefix_excl = self.bound_map.fetch_add(key, volume)

        if self._inclusive_inner:
            # rhs(g) includes the group's own key.  Affected groups are
            # g >= key; their old rhs exceeds prefix_excl because the
            # group at `key` (if live) carries positive own volume.
            inclusive = False
            group_new_rhs = prefix_excl + old_vol_at_key + volume
        else:
            # Strict '<': the group at `key` is NOT affected; its rhs is
            # exactly prefix_excl (its own insert does not change it).
            # When the group does not exist yet (old volume 0) the shift
            # must include keys equal to the boundary (see DESIGN.md tie
            # analysis).
            inclusive = old_vol_at_key == 0
            group_new_rhs = prefix_excl

        # 2. Shift the affected range of aggregate keys (Figure 2c).
        self.aggr_index.shift_keys(prefix_excl, volume, inclusive=inclusive)
        # 3. Place the new tuple's own contribution at its group's
        #    (post-shift) aggregate key.
        if res_delta != 0:
            self.aggr_index.add(group_new_rhs, res_delta)

    def on_batch(self, events) -> Result:
        """Batched Figure 2c: events at the same stored key telescope —
        the shift boundary (the prefix sum of *strictly lower* keys) is
        unchanged by updates at the key itself, and result entries
        placed by earlier same-key events ride along later same-key
        shifts — so one net (volume, result) application per distinct
        key reproduces the per-event sequence exactly.  Keys whose net
        deltas cancel are skipped, and the O(log n) result probe runs
        once per chunk instead of once per event.
        """
        net: dict[float, list[float]] = {}
        for event in events:
            self._fixed.on_event(event)
            if event.relation != self.relation:
                continue
            key, volume, res_delta = self._event_deltas(event.row, event.weight)
            entry = net.get(key)
            if entry is None:
                net[key] = [volume, res_delta]
            else:
                entry[0] += volume
                entry[1] += res_delta
        for key, (volume, res_delta) in net.items():
            if volume == 0 and res_delta == 0:
                continue
            self._apply_outer(key, volume, res_delta)
        return self.result()

    # Columnar frames: the netting fast path is generated by
    # repro.query.codegen (see the note on PointIndexEngine).

    def warm_start(self, stream) -> Result:
        """Initial load via ``bulk_load``: one offline pass aggregates
        volumes and result contributions per key; a running prefix sum
        then yields every group's aggregate key (its subquery value), so
        both the bound map and the aggregate index build in O(n) after a
        single sort — no shifts ever run."""
        if len(self.bound_map) or len(self.aggr_index):
            raise EngineStateError("warm_start requires a fresh engine")
        net: dict[float, list[float]] = {}
        for event in stream:
            self._fixed.on_event(event)
            if event.relation != self.relation:
                continue
            key, volume, res_delta = self._event_deltas(event.row, event.weight)
            entry = net.get(key)
            if entry is None:
                net[key] = [volume, res_delta]
            else:
                entry[0] += volume
                entry[1] += res_delta
        keys = sorted(net)
        self.bound_map = TreeMap.bulk_load(
            ((k, net[k][0]) for k in keys), prune_zeros=True
        )
        by_rhs: dict[float, float] = {}
        prefix = 0.0
        for k in keys:
            volume, res = net[k]
            rhs = prefix + volume if self._inclusive_inner else prefix
            if res != 0:
                by_rhs[rhs] = by_rhs.get(rhs, 0) + res
            prefix += volume
        self.aggr_index = self._index_cls.bulk_load(
            sorted(by_rhs.items()), prune_zeros=True
        )
        return self.result()

    def result(self) -> Result:
        probe = self._fixed.value()
        return self._result_agg.scale * _probe(
            self.aggr_index, self.spec.outer_op, probe
        )

    # -- sharded execution (inequality correlation partitions by range) --
    # Replicas own contiguous ranges of the stored correlation key, so a
    # group's global subquery value (a prefix sum over *all* keys below
    # it) equals its shard-local rhs plus one additive offset — the
    # total inner volume of the lower shards.  That is the RPAI
    # relative-key idea lifted to the shard level: instead of adjusting
    # every replica on every update, the merge adjusts each replica's
    # probe by its current offset.  ``probe op (offset + rhs_local)``
    # rewrites to ``(probe - offset) op rhs_local``, so each replica
    # answers one O(log n) probe at its offset-shifted value and the
    # raw answers add up.  Offsets and probe values are exact for the
    # integer measures the workloads use, so the sharded result is
    # bit-identical to the unsharded one.

    shard_mode = "range"

    def shard_routing_key(self, event: Event) -> Any:
        if event.relation != self.relation:
            # Fixed-side-only event: sorts below every data key, so it
            # pins to the lowest-range replica and is counted once.
            return float("-inf")
        return self._key_sign * event.row[self._key_col]

    def shard_routing_spec(self) -> dict:
        return {
            self.relation: ("scaled_column", self._key_col, self._key_sign),
            "*": ("pin", float("-inf")),
        }

    def shard_partial(self) -> Any:
        return (self._fixed.shard_components(), self.bound_map.total_sum())

    def shard_contexts(self, partials) -> list[Any]:
        partials = list(partials)
        self._fixed.load_merged_components([part[0] for part in partials])
        probe = self._fixed.value()
        contexts = []
        offset = 0
        for _components, shard_volume in partials:
            contexts.append(probe - offset)
            offset += shard_volume
        return contexts

    def shard_probe(self, context: Any) -> float:
        return _probe(self.aggr_index, self.spec.outer_op, context)

    def shard_combine(self, partials, probes) -> Result:
        from repro.engine.mergeable import merge_sums

        return self._result_agg.scale * merge_sums(probes)


class GroupedRangeIndexEngine(IncrementalEngine):
    """Grouped variant of :class:`RangeIndexEngine` — the grammar's
    ``Aggr[cols]`` form (e.g. VWAP *per broker*).

    One aggregate index per group key; every update computes the shift
    boundary once from the shared bound map and applies the same range
    shift to each group's index, then the arriving tuple's contribution
    lands in its own group's index.  O(G · log n) per update for G live
    groups — G is small and fixed in the grouped queries this targets
    (brokers, symbols).

    The result is ``{group key: aggregate}`` with groups whose
    qualifying set is empty omitted (matching the interpreter for the
    positive result arguments the workloads use).
    """

    name = "rpai"

    def __init__(
        self, plan: QueryPlan, index_cls: Type = RPAITree, name: str | None = None
    ) -> None:
        if plan.strategy is not Strategy.RPAI_INEQUALITY:
            raise UnsupportedQueryError(
                f"GroupedRangeIndexEngine needs an RPAI_INEQUALITY plan, got "
                f"{plan.strategy}"
            )
        query = plan.query
        if not query.group_by:
            raise UnsupportedQueryError("query has no GROUP BY (use RangeIndexEngine)")
        alias = query.relations[0].alias
        if any(col.relation != alias for col in query.group_by):
            raise UnsupportedQueryError("GROUP BY must use outer-relation columns")
        (spec,) = plan.index_specs
        if spec.inner_func != "SUM" or spec.inner_col.column != spec.outer_col.column:
            raise UnsupportedQueryError("unsupported grouped index shape")
        self.spec = spec
        self.relation = query.relations[0].name
        self._group_columns = tuple(col.column for col in query.group_by)

        # The result aggregate is the non-group-key select item.
        aggregate_items = [
            item
            for item in query.select
            if any(isinstance(node, AggrCall) for node in walk_expr(item.expr))
        ]
        if len(aggregate_items) != 1:
            raise UnsupportedQueryError("exactly one aggregate select item required")
        scale, call = _peel_constant_scale(aggregate_items[0].expr)
        if not isinstance(call, AggrCall) or call.func != "SUM":
            raise UnsupportedQueryError("grouped engine requires a SUM result")
        self._scale = scale
        self._result_arg = (
            _compile_row_expr(call.arg, alias) if call.arg is not None else None
        )

        self._fixed = _FixedSide(query, spec)
        self._index_cls = index_cls
        op = spec.inner_op
        if op in {">", ">="}:
            self._key_sign = -1
            op = "<" if op == ">" else "<="
        else:
            self._key_sign = 1
        self._inclusive_inner = op == "<="
        self._key_col = spec.outer_col.column
        inner_alias = spec.inner_col.relation
        self._inner_arg = (
            _compile_row_expr(spec.inner_arg, inner_alias)
            if spec.inner_arg is not None
            else None
        )
        self.bound_map = TreeMap(prune_zeros=True)
        self.group_indexes: dict[Any, Any] = {}
        self._plan = plan
        if name is not None:
            self.name = name

    def __getstate__(self) -> dict:
        return _index_engine_state(self)

    def __setstate__(self, state: dict) -> None:
        _restore_index_engine(self, state)

    def _event_deltas(self, row: Row, x: int) -> tuple[float, float, float, Any]:
        key = self._key_sign * row[self._key_col]
        volume = (self._inner_arg(row) if self._inner_arg is not None else 1) * x
        res_delta = (self._result_arg(row) if self._result_arg is not None else 1) * x
        gkey = (
            row[self._group_columns[0]]
            if len(self._group_columns) == 1
            else tuple(row[c] for c in self._group_columns)
        )
        return key, volume, res_delta, gkey

    def _apply_key(self, key: float, volume: float, per_group: Mapping[Any, float]) -> None:
        """One (possibly coalesced) delta at ``key``: the same range
        shift is applied to every group's index, then each group's net
        result contribution lands at the (post-shift) aggregate key."""
        if _SINK.enabled:
            _SINK.inc("engine.grouped_applies")
            _SINK.observe("engine.grouped_fanout", len(self.group_indexes))
        old_at_key, prefix_excl = self.bound_map.fetch_add(key, volume)
        if self._inclusive_inner:
            inclusive = False
            group_new = prefix_excl + old_at_key + volume
        else:
            inclusive = old_at_key == 0
            group_new = prefix_excl

        for index in self.group_indexes.values():
            index.shift_keys(prefix_excl, volume, inclusive=inclusive)

        for gkey, res_delta in per_group.items():
            if res_delta == 0:
                continue
            index = self.group_indexes.get(gkey)
            if index is None:
                index = self.group_indexes[gkey] = self._index_cls(prune_zeros=True)
            index.add(group_new, res_delta)
            if not len(index):
                del self.group_indexes[gkey]

    def on_event(self, event: Event) -> Result:
        self._fixed.on_event(event)
        if event.relation != self.relation:
            return self.result()
        key, volume, res_delta, gkey = self._event_deltas(event.row, event.weight)
        self._apply_key(key, volume, {gkey: res_delta})
        return self.result()

    def on_batch(self, events) -> Result:
        """Batched trigger: volumes coalesce per correlation key (every
        group index sees the identical shift sequence, so net shifts are
        exact) and result contributions coalesce per (key, group)."""
        net: dict[float, tuple[list[float], dict[Any, float]]] = {}
        for event in events:
            self._fixed.on_event(event)
            if event.relation != self.relation:
                continue
            key, volume, res_delta, gkey = self._event_deltas(event.row, event.weight)
            entry = net.get(key)
            if entry is None:
                entry = net[key] = ([0.0], {})
            entry[0][0] += volume
            entry[1][gkey] = entry[1].get(gkey, 0) + res_delta
        for key, (volume_box, per_group) in net.items():
            volume = volume_box[0]
            if volume == 0 and all(res == 0 for res in per_group.values()):
                continue
            self._apply_key(key, volume, per_group)
        return self.result()

    def result(self) -> Result:
        probe = self._fixed.value()
        out: dict[Any, float] = {}
        for gkey, index in self.group_indexes.items():
            value = self._scale * _probe(index, self.spec.outer_op, probe)
            if value != 0:
                out[gkey] = value
        return out

    # -- sharded execution: range partition + grouped additive union --
    # Routing is identical to the scalar range engine (the partition key
    # is the *correlation* key, not the group key), so one group's
    # tuples may live in several shards; each shard's per-group raw
    # probe is offset-adjusted exactly as in RangeIndexEngine and the
    # per-group answers merge by addition — the grouped merge law with
    # collisions combined additively, zeros dropped to match result().

    shard_mode = "range"

    def shard_routing_key(self, event: Event) -> Any:
        if event.relation != self.relation:
            return float("-inf")
        return self._key_sign * event.row[self._key_col]

    def shard_routing_spec(self) -> dict:
        return {
            self.relation: ("scaled_column", self._key_col, self._key_sign),
            "*": ("pin", float("-inf")),
        }

    def shard_partial(self) -> Any:
        return (self._fixed.shard_components(), self.bound_map.total_sum())

    def shard_contexts(self, partials) -> list[Any]:
        partials = list(partials)
        self._fixed.load_merged_components([part[0] for part in partials])
        probe = self._fixed.value()
        contexts = []
        offset = 0
        for _components, shard_volume in partials:
            contexts.append(probe - offset)
            offset += shard_volume
        return contexts

    def shard_probe(self, context: Any) -> dict[Any, float]:
        return {
            gkey: _probe(index, self.spec.outer_op, context)
            for gkey, index in self.group_indexes.items()
        }

    def shard_combine(self, partials, probes) -> Result:
        from repro.engine.mergeable import merge_grouped

        merged = merge_grouped(probes)
        out: dict[Any, float] = {}
        for gkey, raw in merged.items():
            value = self._scale * raw
            if value != 0:
                out[gkey] = value
        return out


def build_single_index_engine(
    query: AggrQuery, index_cls: Type | None = None, name: str | None = None
) -> IncrementalEngine:
    """Classify ``query`` and build the matching single-index engine.

    Grouped inequality queries (``Aggr[cols]``) get the grouped range
    engine; scalar queries get the point/range engines.

    Raises:
        UnsupportedQueryError: when the plan is not PAI_EQUALITY or
            RPAI_INEQUALITY (use the registry for the other strategies).
    """
    plan = classify(query)
    if index_cls is None:
        index_cls = choose_backend(plan)
    if plan.strategy is Strategy.PAI_EQUALITY:
        return PointIndexEngine(plan, index_cls, name=name)
    if plan.strategy is Strategy.RPAI_INEQUALITY:
        if query.group_by:
            return GroupedRangeIndexEngine(plan, index_cls, name=name)
        return RangeIndexEngine(plan, index_cls, name=name)
    raise UnsupportedQueryError(
        f"no single-index engine for strategy {plan.strategy}: {plan.reason}"
    )


def _describe_index(index: Any) -> str:
    """Human-readable backend identity of one live aggregate index."""
    if isinstance(index, RPAITree):
        return "rpai" if index.columns == 1 else f"rpai ({index.columns} columns)"
    return type(index).__name__.lower()


def describe_backends(engine: Any) -> str | None:
    """One-line backend report for ``repro stats``.

    Returns the live index class name — ``"paimap"``, ``"rpai"``,
    ``"rpai (2 columns)"``, ``"rpai x12 groups"`` — for the single-index
    and conjunctive engines, ``None`` for engines whose substrates are
    hand-specialized (their triggers hard-code them).
    """
    if hasattr(engine, "aggr_index"):
        return _describe_index(engine.aggr_index)
    if hasattr(engine, "group_indexes"):
        indexes = list(engine.group_indexes.values())
        probe = indexes[0] if indexes else engine._index_cls(prune_zeros=True)
        return f"{_describe_index(probe)} x{len(indexes)} groups"
    if hasattr(engine, "_sides"):  # ConjunctiveIndexEngine
        descs = {_describe_index(side.index) for side in engine._sides.values()}
        return ", ".join(sorted(descs)) or None
    return None
