"""The free-map side: paper Section 4.2's general algorithm (Algorithm 3)
as one more side of the aggregate-index engine.

It keeps a ``GENERAL`` plan — a single-relation scalar aggregate whose
predicates compare arithmetic over constants, outer columns,
uncorrelated scalars and correlated subqueries ``SELECT agg(arg) FROM R
x WHERE f(x) θ g(outer)`` — in the state model §4.2 and §4.3 share.
Per correlated subquery, **bound maps** keyed by ``f`` (the inner
aggregate's sum and count, ordered: a newly seen outer key's free-map
entry is a range sum, O(log n), Algorithm 3 lines 19–24) and **free
maps** ``g`` -> the subquery's sum and count for every ``g`` a live
outer group uses (each inner key moves the affected entries with one
comparison and one add, lines 14–17).  One **result map**: outer group
key (the columns the predicates read) -> the result aggregate's sum and
count, with a representative row, re-evaluated per group against the
free maps (Section 4.2.4): O(live groups).

The side nets tuples in its own dicts (``nets`` is False); its emitted
answer runs the free-map pass once per netted inner key, then applies
the netted groups, initializing each new one from the bound maps the
pass brought up to date, then re-evaluates.  Maps and pass are
additive, so that reproduces the per-tuple sequence whatever the
netting window (one event, batch or frame).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from repro.engine.queries.common import Answer, Feed, Side, _indented, _named
from repro.errors import UnsupportedQueryError
from repro.query.analysis import column_refs, free_columns, is_correlated
from repro.query.ast import AggrCall, AggrQuery, ColumnRef, Comparison, Const, Expr
from repro.query.planner import IndexSpec
from repro.query.rowexpr import (
    PY_COMPARE,
    UncorrelatedScalar,
    emit_predicate_side,
    emit_row_expr,
    emit_scaled,
    peel_constant_scale,
)
from repro.trees.treemap import TreeMap

__all__ = ["FreeMapSide"]


def _aliases(expr: Expr) -> set[str]:
    return {ref.relation for ref in column_refs(expr)}


def _aggregate(query: AggrQuery, what: str) -> tuple[Any, AggrCall]:
    """The constant scale and the aggregate call of ``query``'s select."""
    scale, call = peel_constant_scale(query.select[0].expr)
    if not isinstance(call, AggrCall):
        raise UnsupportedQueryError(f"unsupported {what}select {query.select[0].expr}")
    return scale, call


class _Correlated:
    """A correlated subquery ``SELECT scale(func(arg)) FROM relation
    alias WHERE f θ g``, ``f`` over the inner row, ``g`` over the outer
    one.  A correlated MIN/MAX keeps no free maps: when its argument *is*
    the correlation attribute, the ordered count bound map holds the live
    values and a range extreme is a boundary lookup, deletions included
    (the paper limits them to insertion-only streams, Section 4.2.5)."""

    def __init__(self, query: AggrQuery, outer_alias: str) -> None:
        self.query = query
        self.scale, call = _aggregate(query, "correlated subquery ")
        self.func, self.arg = call.func, call.arg
        self.relation, self.alias = query.relations[0].name, query.relations[0].alias
        self.extremal = self.func in {"MIN", "MAX"}
        if self.extremal:
            if not isinstance(call.arg, ColumnRef) or not isinstance(query.where, Comparison):
                raise UnsupportedQueryError(
                    "correlated MIN/MAX supported only over the correlation attribute itself"
                )
        elif self.func not in {"SUM", "COUNT", "AVG"}:
            raise UnsupportedQueryError(f"non-streamable aggregate {self.func}")
        pred = query.where
        if not isinstance(pred, Comparison):
            raise UnsupportedQueryError(
                "correlated subquery must have a single comparison predicate "
                "for the general algorithm"
            )
        if _aliases(pred.right) <= {self.alias} and _aliases(pred.left) <= {outer_alias}:
            pred = pred.flipped()
        elif not (_aliases(pred.left) <= {self.alias} and _aliases(pred.right) <= {outer_alias}):
            raise UnsupportedQueryError(
                f"correlated predicate {pred} does not separate into f(inner) θ g(outer)"
            )
        self.f, self.theta, self.g = pred.left, pred.op, pred.right
        if self.extremal and call.arg != self.f:
            raise UnsupportedQueryError(
                "correlated MIN/MAX supported only when the aggregate "
                "argument is the correlation attribute"
            )


class _Shape:
    """What the general algorithm reads off its query, every shape check
    included: the outer relation, the result aggregate, the uncorrelated
    scalars and the correlated subqueries (each in order), and the
    columns a group key holds."""

    def __init__(self, query: AggrQuery) -> None:
        if len(query.relations) != 1 or query.group_by or query.having is not None:
            raise UnsupportedQueryError(
                "the general algorithm engine handles single-relation scalar aggregate queries"
            )
        self.relation, self.alias = query.relations[0].name, query.relations[0].alias
        self.scale, call = _aggregate(query, "")
        if call.func not in {"SUM", "COUNT", "AVG"}:
            raise UnsupportedQueryError(f"non-streamable result aggregate {call.func}")
        self.func, self.arg = call.func, call.arg
        self.scalars: list[AggrQuery] = []
        self.correlated: list[_Correlated] = []
        for sub in query.subqueries():
            if len(sub.relations) != 1 or sub.group_by or sub.having is not None:
                raise UnsupportedQueryError(f"unsupported subquery shape: {sub}")
            if is_correlated(sub):
                if any(column.relation != self.alias for column in free_columns(sub)):
                    raise UnsupportedQueryError(
                        "subquery correlates with a relation other than the outer relation"
                    )
                if all(known.query != sub for known in self.correlated):
                    self.correlated.append(_Correlated(sub, self.alias))
            elif sub.where is not None:
                raise UnsupportedQueryError(
                    "uncorrelated subqueries with predicates are not supported "
                    "by the general algorithm engine"
                )
            elif sub not in self.scalars:
                self.scalars.append(sub)
        self.conjuncts = query.conjuncts()
        if not all(isinstance(conjunct, Comparison) for conjunct in self.conjuncts):
            raise UnsupportedQueryError("only conjunctions of comparisons are supported")
        # The key is exactly the columns the predicates read, so any
        # representative row evaluates them as every row of its group.
        refs = [ref for c in self.conjuncts for side in (c.left, c.right) for ref in column_refs(side)]
        refs += [ref for sub in self.correlated for ref in free_columns(sub.query)]
        self.columns = tuple(sorted({ref.column for ref in refs if ref.relation == self.alias}))


def _range_src(theta: str, index: str, key: str) -> str:
    """Source of the bound map ``index``'s aggregate over the inner keys
    ``f`` with ``f θ key``."""
    if theta == "=":
        return f"{index}.get({key}, 0)"
    if theta == "<>":
        return f"({index}.total_sum() - {index}.get({key}, 0))"
    if theta in ("<", "<="):
        return f"{index}.get_sum({key}, inclusive={theta == '<='})"
    return f"{index}.suffix_sum({key}, inclusive={theta == '>='})"


class FreeMapSide(Side):
    """The free-map side of a ``GENERAL`` plan (see the module).  It
    nets a batch in its own dicts and has no shard mode: a group's
    predicates read every inner tuple."""

    nets = False
    shard_mode = None

    def __init__(self, query: AggrQuery) -> None:
        self.query = query
        self._shape = _Shape(query)
        subs = range(len(self._shape.correlated))
        # bound maps: f -> Σ argument / Σ count
        self.bound_sum = [TreeMap(prune_zeros=True) for _ in subs]
        self.bound_count = [TreeMap(prune_zeros=True) for _ in subs]
        # free maps: g -> the subquery's sum / count, and the live groups at g
        self.free_sum: list[dict] = [{} for _ in subs]
        self.free_count: list[dict] = [{} for _ in subs]
        self.refcount: list[dict] = [{} for _ in subs]
        # result map: group key -> Σ result argument / rows / a representative row
        self.res_sum: dict[Any, float] = {}
        self.res_count: dict[Any, int] = {}
        self.res_repr: dict[Any, dict] = {}
        # netted since the answer last ran: per subquery f -> [Σ argument,
        # Σ weight]; group key -> [Σ result argument, Σ weight]
        self.inner_net: list[dict] = [{} for _ in subs]
        self.outer_net: dict[Any, list] = {}

    def __getstate__(self) -> dict:
        return {name: value for name, value in self.__dict__.items() if name != "_shape"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._shape = _Shape(self.query)

    @staticmethod
    def feeds(spec: IndexSpec, deltas: tuple, group_by: tuple, names: dict) -> tuple[Feed, ...]:
        """Per correlated subquery ``j`` its relation's tuples, keyed by
        ``f`` with their argument and count and placed at the constant
        ``j``; then the outer relation's tuples, under no key, placed in
        their group (the predicate columns) with their result argument
        and count.  The spec's probe side is the query, whole."""
        shape = _Shape(spec.fixed_expr.query)
        inner = tuple(
            Feed(sub.relation, sub.alias, (sub.f,), sub.arg, (None,), (Const(j),))
            for j, sub in enumerate(shape.correlated)
        )
        group = tuple(ColumnRef(shape.alias, column) for column in shape.columns)
        return inner + (Feed(shape.relation, shape.alias, (), shape.arg, (None,), group),)

    @classmethod
    def build(cls, plan: Any, index_cls: type) -> "FreeMapSide":
        return cls(plan.spec.fixed_expr.query)

    def fresh(self) -> bool:
        return not (self.res_count or self.outer_net or any(self.inner_net) or any(map(len, self.bound_count)))

    def describe(self) -> str:
        return f"free maps x{len(self.res_sum)} groups"

    def emit_bind(self, k: int | str, maps: bool) -> list[str]:
        """Statements binding the netting dicts, once per trigger call
        (the answer binds what it reads itself)."""
        if not maps:
            return []
        out = [f"_in{k}_{j} = _s{k}.inner_net[{j}]" for j in range(len(self._shape.correlated))]
        return out + [f"_on{k} = _s{k}.outer_net"]

    @staticmethod
    def emit_move(k: int | str, args: list[str]) -> list[str]:
        """One tuple, its arguments ``key, argument, group, count`` as
        source: with ``key`` the constant None, an outer tuple netted
        into its ``group``; else an inner tuple netted at its key for
        subquery ``group`` (a constant)."""
        out: list[str] = []
        key, value, group, count = args
        if key == "None":
            net, key = f"_on{k}", _named(out, "_grp", group)
        else:
            net, key = f"_in{k}_{group}", _named(out, "_key", key)
        return out + [
            f"_e = {net}.get({key})",
            "if _e is None:",
            f"    {net}[{key}] = [{value}, {count}]",
            "else:",
            f"    _e[0] += {value}",
            f"    _e[1] += {count}",
        ]

    def emit_answer(self, k: int | str, op: str) -> Answer:
        """The pending free-map passes, then the pending groups with their
        acquire / release bookkeeping, then the result map re-evaluated
        per group against the free maps: the query's value, final."""
        shape = self._shape
        out = [f"_rs{k} = _s{k}.res_sum", f"_rc{k} = _s{k}.res_count", f"_rr{k} = _s{k}.res_repr"]
        acquire, release = [], []
        for j, sub in enumerate(shape.correlated):
            bs, bc, fs, fc, rf = (f"_{name}{k}_{j}" for name in ("bs", "bc", "fs", "fc", "rf"))
            out += [f"{bs} = _s{k}.bound_sum[{j}]", f"{bc} = _s{k}.bound_count[{j}]"]
            # Algorithm 3 lines 14–17, once per netted inner key.
            step = ["if _val == 0 and _wgt == 0:", "    continue", f"{bs}.add(_key, _val)", f"{bc}.add(_key, _wgt)"]
            if not sub.extremal:
                out += [f"{fs} = _s{k}.free_sum[{j}]", f"{fc} = _s{k}.free_count[{j}]", f"{rf} = _s{k}.refcount[{j}]"]
                step += [
                    f"for _g in {fs}:",
                    f"    if _key {PY_COMPARE.get(sub.theta, sub.theta)} _g:",
                    f"        {fs}[_g] += _val",
                    f"        {fc}[_g] += _wgt",
                ]
                # Lines 19–24: a group's first row acquires its g-values,
                # its last one releases them.
                g = emit_row_expr(sub.g, shape.alias, "_orow")
                acquire += [
                    f"_g = {g}",
                    f"_h = {rf}.get(_g, 0)",
                    "if _h == 0:",
                    f"    {fs}[_g] = {_range_src(sub.theta, bs, '_g')}",
                    f"    {fc}[_g] = {_range_src(sub.theta, bc, '_g')}",
                    f"{rf}[_g] = _h + 1",
                ]
                release += [
                    f"_g = {g}",
                    f"_h = {rf}.get(_g, 0) - 1",
                    "if _h <= 0:",
                    *_indented([f"{held}.pop(_g, None)" for held in (rf, fs, fc)]),
                    "else:",
                    f"    {rf}[_g] = _h",
                ]
            out += [
                f"_in = _s{k}.inner_net[{j}]",
                "if _in:",
                "    for _key, (_val, _wgt) in _in.items():",
                *_indented(step, 2),
                "    _in.clear()",
            ]
        one = len(shape.columns) == 1  # else the key is a tuple, or None for no column
        representative = f"{{{shape.columns[0]!r}: _gk}}" if one else f"dict(zip({shape.columns!r}, _gk or ()))"
        group = [
            # created and retracted since the last answer: a no-op
            f"if _gc == 0 and _gk not in _rc{k}:",
            "    continue",
            "if _gs == 0 and _gc == 0:",
            "    continue",
            f"_n = _rc{k}.get(_gk, 0) + _gc",
            f"_rs{k}[_gk] = _rs{k}.get(_gk, 0) + _gs",
            "if _n == 0:",
            *_indented([f"del _rs{k}[_gk]", f"del _rc{k}[_gk]", f"_orow = _rr{k}.pop(_gk)", *release]),
            "else:",
            f"    _rc{k}[_gk] = _n",
            f"    if _gk not in _rr{k}:",
            f"        _orow = _rr{k}[_gk] = {representative}",
            *_indented(acquire, 2),
        ]
        out += [
            f"_on = _s{k}.outer_net",
            "if _on:",
            "    for _gk, (_gs, _gc) in _on.items():",
            *_indented(group, 2),
            "    _on.clear()",
        ]
        # Section 4.2.4: the conjuncts unrolled to plain comparisons over
        # inline subquery reads.
        scalars = {sub: UncorrelatedScalar(sub) for sub in shape.scalars}
        loop = [f"_orow = _rr{k}[_gk]"]
        for conjunct in shape.conjuncts:
            left, right = (
                emit_predicate_side(side, shape.alias, scalars, self.readers(k), "_orow")
                for side in (conjunct.left, conjunct.right)
            )
            loop += [f"if not ({left} {PY_COMPARE.get(conjunct.op, conjunct.op)} {right}):", "    continue"]
        loop += ["_total += _gs"] if shape.func != "COUNT" else []
        loop += [f"_count += _rc{k}[_gk]"] if shape.func != "SUM" else []
        aggregate = {"SUM": "_total", "COUNT": "_count"}.get(shape.func, "(_total / _count if _count else 0)")
        out += [
            "if _S.enabled:",
            "    _S.inc('engine.result_recomputes')",
            f"    _S.observe('engine.result_map_size', len(_rs{k}))",
            "_total = 0",
            "_count = 0",
            f"for _gk, _gs in _rs{k}.items():",
            *_indented(loop),
            f"_q{k}_0 = {emit_scaled(shape.scale, aggregate)}",
        ]
        return Answer(k, tuple(out), final=True, reads=tuple(shape.scalars))

    def readers(self, k: int | str) -> dict[AggrQuery, Callable[[str], str]]:
        """Per correlated subquery ``j``, the source of its value for the
        outer row in the local its argument names, off the free maps bound
        as ``_fs{k}_{j}`` / ``_fc{k}_{j}`` (an extreme: off ``_s{k}``)."""
        return {sub.query: partial(self._read, k, j) for j, sub in enumerate(self._shape.correlated)}

    def _read(self, k: int | str, j: int, row: str) -> str:
        sub = self._shape.correlated[j]
        g = emit_row_expr(sub.g, self._shape.alias, row)
        fs, fc = f"_fs{k}_{j}[{g}]", f"_fc{k}_{j}[{g}]"
        value = {"SUM": fs, "COUNT": fc, "AVG": f"({fs} / {fc} if {fc} else 0)"}
        return emit_scaled(sub.scale, value.get(sub.func, f"_s{k}._extreme({j}, {g})"))

    def _extreme(self, j: int, g: Any) -> Any:
        """MIN/MAX of subquery ``j`` over the live correlation attributes
        ``f θ g``: boundary lookups on its count bound map.  An empty
        range is 0, the interpreter's empty-aggregate convention."""
        sub, keys = self._shape.correlated[j], self.bound_count[j]
        if not len(keys):
            return 0
        theta, least, present = sub.theta, sub.func == "MIN", keys.get(g, 0) != 0
        if theta == "=":
            return g if present else 0
        lo, hi = keys.min_key(), keys.max_key()
        if theta in ("<", "<="):
            hi = g if theta == "<=" and present else keys.predecessor(g)
        elif theta in (">", ">="):
            lo = g if theta == ">=" and present else keys.successor(g)
        elif least and lo == g:  # '<>'
            lo = keys.successor(g)
        elif not least and hi == g:
            hi = keys.predecessor(g)
        if lo is None or hi is None or lo > hi:
            return 0
        return lo if least else hi
