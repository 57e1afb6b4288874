"""The per-relation *sides* of Algorithm 4 (paper Section 4.3).

``AggrQ(f, R1..Rn, v1 θ q_R1 AND … AND vn θ q_Rn)`` keeps, for each
relation ``Ri``, an aggregate index keyed by the value of the
correlated subquery ``q_Ri`` and carrying one *column* per "required
sum" of ``for reqSum in requiredSums(Q, Ri)`` — the required sums of
one relation are indexed by the same keys and move by the same shifts,
so they share a tree.  How a tuple moves those keys depends on the
correlation's θ:

* :class:`PointSide` — θ is ``=`` (Example 2.1 / Figure 1c): the tuple
  changes the subquery value of exactly one correlation group, so that
  group's result value moves from its old key to its new one.
* :class:`ShiftedSide` — θ is an inequality (Example 2.2 / Figure 2c):
  the subquery values are prefix sums in attribute order, so the tuple
  shifts one contiguous *range* of keys.  With ``GROUP BY`` the same
  shift fans out over one index per group.
* :class:`ThresholdSide` — the conjunct compares an outer *column* with
  a maintained scalar (PSP, TPC-H Q17): the index is keyed by the
  column, so keys never move, and the probe does.
* :class:`MembershipSide` — the conjunct is ``x.k IN (SELECT … GROUP BY
  … HAVING …)`` (TPC-H Q18): no index at all, per-key and per-group
  sums whose ``HAVING`` crossings flip a key's membership.

Every kind implements one contract, :class:`Side`, and
:func:`side_class` picks the kind from the plan once: the engine and
the emitter of :mod:`repro.query.codegen` never ask which kind they
hold.
"""

from __future__ import annotations

import types
from dataclasses import dataclass, replace
from functools import reduce
from operator import eq, ge, gt, le, lt, ne
from typing import Any, Mapping, Sequence

from repro.core.pai_map import EMIT_GLOBALS, PAIMap
from repro.core.rpai import RPAITree
from repro.errors import EngineStateError, UnsupportedQueryError
from repro.obs import SINK as _SINK
from repro.query.analysis import column_refs
from repro.query.ast import AggrCall, And, Arith, ColumnRef, Comparison, Const, Expr, Predicate
from repro.query.planner import IndexSpec
from repro.query.rowexpr import (
    MaintainedAggregate,
    Scale,
    compile_source,
    emit_scaled,
    peel_constant_scale,
)
from repro.trees.treemap import TreeMap

__all__ = ["Side", "PointSide", "ShiftedSide", "ThresholdSide", "MembershipSide", "side_class",
           "Feed", "Answer", "emit_recombination"]

#: ``{GROUP BY key: result deltas, one per column}`` — ungrouped sides
#: use the single key ``None``.
Placements = Mapping[Any, Sequence[float]]


@dataclass(frozen=True)
class Feed:
    """How one relation's tuples reach a side, as row expressions over
    ``alias``: the netting ``key``, the ``weight`` (inner-aggregate or
    joined-row delta), one placement delta per column (``None``: the
    tuple's multiplicity, a count) and the placement ``group`` (empty:
    ``None``).  A tuple failing ``where`` reaches nothing."""

    relation: str
    alias: str
    key: tuple[ColumnRef, ...]
    weight: Expr | None
    deltas: tuple[Expr | None, ...]
    group: tuple[ColumnRef, ...] = ()
    where: Predicate | None = None


def _on(alias: str, expr: Expr | None) -> Expr | None:
    """``expr`` with its columns read off ``alias`` (the same relation)."""
    if isinstance(expr, ColumnRef):
        return ColumnRef(alias, expr.column)
    if isinstance(expr, Arith):
        return Arith(expr.op, _on(alias, expr.left), _on(alias, expr.right))
    return expr


def _correlated(spec: IndexSpec) -> None:
    """A subquery's SUM correlated on the same attribute both sides of
    each predicate: the shape whose tuples move aggregate keys."""
    if spec.inner_func != "SUM":
        raise UnsupportedQueryError("the aggregate-index engine supports SUM inner aggregates")
    if any(inner.column != outer.column for inner, outer in spec.column_pairs()):
        raise UnsupportedQueryError(
            "key moves need the same attribute on both sides of each correlated predicate"
        )


def _ungrouped(group_by: tuple) -> None:
    if group_by:
        raise UnsupportedQueryError("GROUP BY needs a single-relation inequality correlation")


def _one_sum(deltas: tuple) -> None:
    if len(deltas) != 1:
        raise UnsupportedQueryError("an equality-correlated relation carries one required sum")


def _key_feed(spec: IndexSpec, deltas: tuple, group: tuple = ()) -> tuple[Feed, ...]:
    """The one feed of a side keyed by its correlation attributes."""
    alias = spec.outer_alias
    key = tuple(ColumnRef(alias, outer.column) for _inner, outer in spec.column_pairs())
    return (Feed(spec.relation, alias, key, _on(alias, spec.inner_arg), deltas, group),)


def probe_src(op: str, index: str, probe: str, columns: int = 1) -> str:
    """Source of the sum of ``index`` values over keys ``k`` satisfying
    ``probe op k``, monomorphized on ``op``: a scalar on a single-column
    index (any :class:`~repro.core.interfaces.AggregateIndex`), a tuple
    with one sum per column on a ``columns``-wide RPAI tree."""
    if op == "=":
        zero = "0" if columns == 1 else repr((0,) * columns)
        return f"{index}.get({probe}, {zero})"
    if op in (">", ">="):
        return f"{index}.get_sum({probe}, inclusive={op == '>='})"
    if op in ("<", "<="):
        if columns == 1:
            return f"({index}.total_sum() - {index}.get_sum({probe}, inclusive={op == '<'}))"
        return f"{index}.suffix_sum({probe}, inclusive={op == '<='})"
    raise UnsupportedQueryError(f"unsupported probe operator {op!r}")


def _bump(counts: dict, key: Any, delta: float) -> None:
    """``counts[key] += delta``, the entry dropped at zero."""
    held = counts.pop(key, 0) + delta
    if held:
        counts[key] = held


def _bump_src(counts: str, key: str, delta: str) -> list[str]:
    """:func:`_bump` as statements."""
    return [f"_h = {counts}.pop({key}, 0) + {delta}", "if _h:", f"    {counts}[{key}] = _h"]


def _named(out: list[str], name: str, src: str) -> str:
    """``src`` as a name: itself when it is one (or the constant 0),
    else a local assigned once."""
    if src.isidentifier() or src == "0":
        return src
    out.append(f"{name} = {src}")
    return name


def _indented(lines: list[str], depth: int = 1) -> list[str]:
    return ["    " * depth + line for line in lines]


@dataclass(frozen=True)
class Answer:
    """Side ``_s{k}``'s answer to the result's probe, as source: ``lines``
    bind its sums ``_q{k}_0``, ``_q{k}_1``, … once, or per entry ``_grp:
    item`` of the dict ``over``.  ``probed``: they probe an index at
    ``_p{k}``.  ``final``: the entries are the result, none zero.
    ``kept``: the one probe may be kept from one result to the next."""

    k: int | str
    lines: tuple[str, ...]
    probed: bool = False
    over: str | None = None
    item: str = ""
    final: bool = False
    kept: bool = False

    def merged(self, name: str) -> "Answer":
        """The answer read off ``name``, the shards' merged raw answers."""
        if self.over is None:
            return Answer(self.k, (f"_q{self.k}_0 = {name}[None]",))
        return Answer(self.k, (), over=name, item=f"_q{self.k}_0", final=self.final)


def emit_recombination(
    answers: Sequence[Answer], probes: Mapping, value: str | None = None, keyed: bool = False,
    keep: bool = False,
) -> list[str]:
    """Statements returning ``value`` (source over the answers' sums)
    once, or per entry of the one answer with entries, leaving out the
    entries whose value is 0.  ``probes``: each probed answer's probe
    value, as source.  No ``value``: the one answer's first sums as they
    are, every entry kept (the dict copied when its entries are the
    sums).  ``keyed``: a value computed once returns as ``{None: value}``.
    ``keep``: a kept answer probes only when its probe value differs
    from the global ``_kp{k}`` (None once its side moved), into ``_ka{k}``."""
    once = [answer for answer in answers if answer.over is None]
    counted = sum(answer.probed and not (keep and answer.kept) for answer in once)
    out = ["if _S.enabled:", f"    _S.inc('engine.result_probes', {counted})"] if counted else []
    kept = [f"_k{x}{a.k}" for a in answers if keep and a.kept for x in "pa"]
    out[:0] = ["global " + ", ".join(kept)] if kept else []
    for answer in answers:
        k = answer.k
        if answer.probed and probes[k] != f"_p{k}":
            out.append(f"_p{k} = {probes[k]}")
        if keep and answer.kept:
            sums, _, probe = answer.lines[0].partition(" = ")
            again = ["if _S.enabled:", "    _S.inc('engine.result_probes')", f"_ka{k} = {probe}"]
            out += [f"if _kp{k} != _p{k}:", *_indented(again), f"    _kp{k} = _p{k}", f"{sums} = _ka{k}"]
        elif answer.over is None:
            out += answer.lines
    raw = f"_q{answers[0].k}_0"
    if len(once) == len(answers):
        return out + [f"return {{None: {value or raw}}}" if keyed else f"return {value or raw}"]
    (answer,) = answers
    if value is None and answer.item == raw:
        return out + [f"return dict({answer.over})"]
    body = ["if _S.enabled:", "    _S.inc('engine.result_probes')"] if answer.probed else []
    body += answer.lines
    body += [f"_out[_grp] = {raw}"] if value is None else [
        f"_val = {value}", "if _val != 0:", "    _out[_grp] = _val"]
    loop = f"for _grp, {answer.item} in {answer.over}.items():"
    return [*out, "_out = {}", loop, *_indented(body), "return _out"]


def _probe_answer(k: int | str, op: str, index: str, columns: int, over: str | None = None) -> Answer:
    """One probe of ``index`` at ``_p{k}`` (per entry ``index`` of ``over``)."""
    targets = ", ".join(f"_q{k}_{j}" for j in range(columns))
    return Answer(k, (f"{targets} = {probe_src(op, index, f'_p{k}', columns)}",), True, over, index)


#: function source -> the function it compiles to
_FUNCTIONS: dict[str, Any] = {}


def _function(name: str, params: str, body: list[str]) -> Any:
    """``def name(params)`` over ``body``, compiled once per distinct
    source."""
    source = "\n".join([f"def {name}({params}):", *_indented(body), ""])
    function = _FUNCTIONS.get(source)
    if function is None:
        namespace = {"_S": _SINK, **FRAGMENT_GLOBALS}
        exec(compile_source(source, "side"), namespace)
        function = _FUNCTIONS[source] = namespace[name]
    return function


def _check_width(columns: int, index_cls: type) -> None:
    """Only the multi-column :class:`~repro.core.rpai.RPAITree` carries
    more than one required sum per key."""
    if columns != 1 and not issubclass(index_cls, RPAITree):
        raise UnsupportedQueryError(
            f"a side with {columns} columns needs RPAITree, not {index_cls.__name__}"
        )


def _describe_index(index: Any) -> str:
    """Human-readable backend identity of one live aggregate index."""
    if isinstance(index, RPAITree):
        return "rpai" if index.columns == 1 else f"rpai ({index.columns} columns)"
    return type(index).__name__.lower()


class Side:
    """The contract every side kind implements: ``feeds`` (what each
    relation's tuples bring it), ``build`` (from its ``SidePlan``),
    ``load``, and its statements — ``emit_bind`` / ``emit_move`` (a
    key's or a tuple's move) and ``emit_answer`` (its answer to the
    result's probe) — spliced by the compiled triggers and result.  Its
    own ``apply`` and ``qualifying`` are the same statements over plain
    names (side ``k`` the empty suffix), compiled once per distinct
    source; ``apply`` is left out of the pickled state.

    ``columns``: required sums per key; ``key_sign``: stored key = sign ·
    correlation attribute; ``grouped``: one index per group; ``nets``: a
    batch is netted per key before it reaches the side (else its own
    dicts net it, tuple by tuple); ``shard_mode``: see
    :attr:`~repro.engine.base.IncrementalEngine.shard_mode`.
    """

    columns = 1
    key_sign = 1
    grouped = False
    nets = True
    shard_mode: str | None = "hash"

    def _bind_apply(self) -> None:
        self.apply = types.MethodType(_function("apply", "_s, _key, _wgt, _pl", self.emit_apply()), self)

    def __getstate__(self) -> dict:
        return {name: value for name, value in self.__dict__.items() if name != "apply"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind_apply()

    def load(self, net: Mapping[Any, tuple[float, Placements]]) -> None:
        """Load a fresh side from per-key net deltas, one ``apply`` each
        (a kind with a bulk construction overrides it)."""
        for key, (weight, placements) in net.items():
            self.apply(key, weight, placements)

    def emit_answer(self, k: int | str, op: str) -> Answer:
        """Side ``k``'s answer at the probe ``_p{k}`` of the conjunct
        ``_p{k} op key``: one probe of the index ``emit_bind`` reads."""
        return _probe_answer(k, op, f"_ix{k}", self.columns)

    def qualifying(self, op: str, probe: float) -> dict[Any, tuple]:
        """Per group (ungrouped: ``None``), the per-column sums over the
        tuples whose key ``c`` satisfies ``probe op c``:
        :meth:`emit_answer`, compiled."""
        sums = "(" + "".join(f"_q_{j}, " for j in range(self.columns)) + ")"
        answer = emit_recombination([self.emit_answer("", op)], {"": "_p"}, sums, keyed=True)
        return _function("qualifying", "_s, _p", [*self.emit_bind("", False), *answer])(self, probe)

    def describe(self) -> str:
        """The backend ``repro stats`` reports: the live index class, and
        a grouped side's group count."""
        if not self.grouped:
            return _describe_index(self.index)
        indexes = self.indexes()
        sample = indexes[0] if indexes else self._new_index()
        return f"{_describe_index(sample)} x{len(indexes)} groups"


class PointSide(Side):
    """One relation's aggregate index under an equality correlation.

    Single-column: ``index_cls`` is any conforming
    :class:`~repro.core.interfaces.AggregateIndex` (the dict when the
    result probe is a point lookup too, see
    :func:`~repro.query.planner.choose_backend`).  The two per-group
    maps are plain dicts with their zero entries dropped: nothing reads
    their total or their key order.
    """

    def __init__(self, index_cls: type = PAIMap) -> None:
        self._index_cls = index_cls
        # map3 in Figure 1c: correlation group -> subquery value (rhs).
        self.bound_map: dict[Any, float] = {}
        # map1: correlation group -> result aggregate of the group.
        self.res_map: dict[Any, float] = {}
        # aggrMap: rhs -> sum of result aggregates of the groups at it.
        self.index = index_cls(prune_zeros=True)
        self._bind_apply()

    def __setstate__(self, state: dict) -> None:
        # Written while map1 and map3 were PAIMaps: keep their entries.
        for name in ("bound_map", "res_map"):
            if isinstance(state[name], PAIMap):
                state[name] = dict(state[name].unordered_items())
        super().__setstate__(state)

    @staticmethod
    def feeds(spec: IndexSpec, deltas: tuple, group_by: tuple, names: dict) -> tuple[Feed, ...]:
        """A tuple moves its correlation group: the group's key, its
        inner-aggregate delta and its one result delta."""
        _correlated(spec)
        _ungrouped(group_by)
        _one_sum(deltas)
        return _key_feed(spec, deltas)

    @classmethod
    def build(cls, plan: Any, index_cls: type) -> "PointSide":
        return cls(index_cls)

    def indexes(self) -> list:
        return [self.index]

    @staticmethod
    def emit_bind(k: int | str, maps: bool) -> list[str]:
        """Statements binding side ``_s{k}``'s structures to locals, once
        per trigger call (without ``maps``: the index the result probes).
        ``_hx{k}`` is the index's dict while :meth:`emit_move` may bump
        it in place (:meth:`PAIMap.emit_data`)."""
        out = [f"_ix{k} = _s{k}.index"]
        if maps:
            out += [f"_bm{k} = _s{k}.bound_map", f"_rm{k} = _s{k}.res_map"]
            out.append(f"_hx{k} = {PAIMap.emit_data(f'_ix{k}')}")
        return out

    @staticmethod
    def emit_move(k: int | str, deltas: list[str]) -> list[str]:
        """Move group ``_key``'s result value from its old aggregate key
        to its new one (Figure 1c lines 16-18), for the net ``_wgt`` and
        result delta ``deltas[0]``."""

        def add(key: str, delta: str) -> list[str]:
            inline = PAIMap.emit_add(f"_hx{k}", f"_ix{k}", key, delta)
            method = f"_ix{k}.add({key}, {delta})"
            return [f"if _hx{k} is None:", "    " + method, "else:", *_indented(inline)]

        out = [
            "if _S.enabled:",
            "    _S.inc('engine.point_applies')",
            f"_old_rhs = _bm{k}.get(_key, 0)",
            f"_old_res = _rm{k}.get(_key, 0)",
            "_new_rhs = _old_rhs + _wgt",
            f"_new_res = _old_res + {deltas[0]}",
            "if _old_res != 0:",
            *_indented(add("_old_rhs", "-_old_res")),
            "if _new_res != 0:",
            *_indented(add("_new_rhs", "_new_res")),
        ]
        for held, value in ((f"_bm{k}", "_new_rhs"), (f"_rm{k}", "_new_res")):
            out += [f"if {value}:", f"    {held}[_key] = {value}"]
            out += ["else:", f"    {held}.pop(_key, None)"]
        return out

    def emit_apply(self) -> list[str]:
        return ["(_d0,) = _pl[None]", *self.emit_bind("", True), *self.emit_move("", ["_d0"])]

    def load(self, net: Mapping[Any, tuple[float, Placements]]) -> None:
        """Bulk-load a fresh side from per-group net deltas."""
        groups = sorted(net)
        self.bound_map = {g: net[g][0] for g in groups if net[g][0]}
        self.res_map = {g: net[g][1][None][0] for g in groups if net[g][1][None][0]}
        by_rhs: dict[float, float] = {}
        for group in groups:
            rhs, placements = net[group]
            res = placements[None][0]
            if res != 0:
                by_rhs[rhs] = by_rhs.get(rhs, 0) + res
        self.index = self._index_cls.bulk_load(sorted(by_rhs.items()), prune_zeros=True)


class ShiftedSide(Side):
    """One relation's aggregate index under an inequality correlation.

    The attribute ordering is normalized so the subquery value is always
    an *inclusive or strict prefix sum* in stored-key order ('>' / '>='
    correlations store negated keys).

    Args:
        inner_op: θ of the correlated predicate ``x.attr θ outer.attr``
            (one of ``<  <=  >  >=``).
        columns: how many required sums the index carries (each
            placement passes one result delta per column).
        index_cls: the aggregate-index class of a single-column side
            (the §6 comparators plug in here); wider sides need the
            multi-column :class:`~repro.core.rpai.RPAITree`.
        grouped: keep one index per ``GROUP BY`` key, created on first
            use and dropped when empty, instead of the one index under
            key ``None``.
    """

    #: replicas own contiguous ranges of the stored key
    shard_mode = "range"

    def __init__(
        self,
        inner_op: str,
        columns: int = 1,
        index_cls: type = RPAITree,
        grouped: bool = False,
    ) -> None:
        if inner_op in {">", ">="}:
            self.key_sign = -1
            inner_op = "<" if inner_op == ">" else "<="
        elif inner_op in {"<", "<="}:
            self.key_sign = 1
        else:
            raise UnsupportedQueryError(
                f"ShiftedSide requires an inequality correlation, got {inner_op!r}"
            )
        _check_width(columns, index_cls)
        self.inclusive = inner_op == "<="
        self.columns = columns
        self.grouped = grouped
        self._index_cls = index_cls
        # map3 in Figure 2c: stored key -> inner-aggregate contributions.
        self.bound_map = TreeMap(prune_zeros=True)
        # GROUP BY key -> aggrIndex: subquery value -> required sums of
        # the tuples currently at it.
        self.group_indexes: dict[Any, Any] = {} if grouped else {None: self._new_index()}
        self._bind_apply()

    def __setstate__(self, state: dict) -> None:
        if "group_indexes" not in state:
            # Written when a side held ``index`` (or, earlier, one tree
            # per required sum under ``indexes``): refuse, so the
            # snapshot loader rebuilds from the log instead.
            raise EngineStateError("ShiftedSide state predates the per-group index layout")
        super().__setstate__(state)

    @staticmethod
    def feeds(spec: IndexSpec, deltas: tuple, group_by: tuple, names: dict) -> tuple[Feed, ...]:
        """A tuple shifts the keys above its correlation attribute and
        places its result deltas (under ``GROUP BY``, in its group)."""
        _correlated(spec)
        if any(column.relation != spec.outer_alias for column in group_by):
            raise UnsupportedQueryError("GROUP BY must use outer-relation columns")
        return _key_feed(spec, deltas, group_by)

    @classmethod
    def build(cls, plan: Any, index_cls: type) -> "ShiftedSide":
        return cls(plan.spec.inner_op, plan.columns, index_cls, bool(plan.group_by))

    def _new_index(self, rows: Any = None) -> Any:
        """An empty index, or one bulk-loaded from key-sorted rows."""
        options: dict = {"prune_zeros": True}
        if self.columns != 1:
            options["columns"] = self.columns
        if rows is None:
            return self._index_cls(**options)
        return self._index_cls.bulk_load(rows, **options)

    @property
    def index(self) -> Any:
        """The one index of an ungrouped side."""
        return self.group_indexes[None]

    def indexes(self) -> list:
        return list(self.group_indexes.values())

    def emit_bind(self, k: int | str, maps: bool) -> list[str]:
        """Statements binding the side's structures, once per call."""
        out = [f"_bm{k} = _s{k}.bound_map"] if maps else []
        if self.grouped:
            return out + [f"_gi{k} = _s{k}.group_indexes"]
        return out + [f"_ix{k} = _s{k}.group_indexes[None]"]

    def emit_move(self, k: int | str, deltas: list[str]) -> list[str]:
        """Figure 2c with k required sums and G groups for the tuples at
        stored key ``_key`` (``_wgt``: their ± inner-aggregate volume,
        ``deltas``: their result deltas; grouped, ``_pg`` holds them per
        group), the inner θ resolved here: one bound-map walk yielding
        the volume at the key and below it, one ``shift_add`` (range
        shift and point update) per live index.  Strict ``<`` leaves the
        group at the key in place, and shifts keys equal to the boundary
        when that group is new (DESIGN.md's tie analysis).  A delete that
        empties its key places first, before the shift can collide."""
        out = ["if _S.enabled:", "    _S.inc('engine.range_applies')"]
        if self.grouped:
            out.append(f"    _S.observe('engine.grouped_fanout', len(_gi{k}))")
        out.append(f"_old, _pfx = _bm{k}.fetch_add(_key, _wgt)")
        before = "_pfx + _old" if self.inclusive else "_pfx"
        after = "_pfx + _old + _wgt" if self.inclusive else "_pfx"
        inclusive = "False" if self.inclusive else "_old == 0"
        emptied = "if _old + _wgt == 0 and _old > 0:"
        if not self.grouped:
            values = ", ".join(deltas)
            return out + [
                emptied,
                f"    if {' or '.join(f'{d} != 0' for d in deltas)}:",
                f"        _ix{k}.add({before}, {values})",
                f"    _ix{k}.shift_add(_pfx, _wgt, False, _pfx)",
                "else:",
                f"    _ix{k}.shift_add(_pfx, _wgt, {inclusive}, {after}, {values})",
            ]
        if self.inclusive:
            out.append(f"_new = {after}")
            after = "_new"
        return out + [
            emptied,
            "    for _grp, _d in _pg.items():",
            "        if _d == 0:",
            "            continue",
            f"        _ix = _gi{k}.get(_grp)",
            "        if _ix is None:",
            f"            _ix = _gi{k}[_grp] = _s{k}._new_index()",
            f"        _ix.add({before}, _d)",
            "        if not len(_ix):",
            f"            del _gi{k}[_grp]",
            "    _pg = {}",
            "for _grp, _d in _pg.items():",
            f"    if _d != 0 and _grp not in _gi{k}:",
            f"        _gi{k}[_grp] = _s{k}._new_index()",
            f"for _grp, _ix in _gi{k}.items():",
            f"    _ix.shift_add(_pfx, _wgt, {inclusive}, {after}, _pg.get(_grp, 0))",
            "for _grp, _d in _pg.items():",
            f"    if _d != 0 and not len(_gi{k}[_grp]):",
            f"        del _gi{k}[_grp]",
        ]

    def emit_apply(self) -> list[str]:
        # ``_key`` arrives as the correlation attribute itself
        out = ["_key = -_key"] if self.key_sign == -1 else []
        deltas = [f"_d{j}" for j in range(self.columns)]
        if self.grouped:  # a grouped side has one column
            out.append("_pg = {_grp: _d for _grp, (_d,) in _pl.items()}")
        else:
            out.append(f"{', '.join(deltas)}, = _pl[None]")
        return out + self.emit_bind("", True) + self.emit_move("", deltas)

    def load(self, net: Mapping[float, tuple[float, Placements]]) -> None:
        """Bulk-load a fresh side from per-attribute net deltas: a
        running prefix sum yields every tuple's aggregate key (its
        subquery value), so the bound map and the indexes build in O(n)
        after one sort — no shifts ever run."""
        sign = self.key_sign
        weights: list[tuple[float, float]] = []
        rows: dict[Any, dict[float, list[float]]] = {}
        # A float, so bulk-loaded aggregate keys are floats: CPython's
        # relative-key arithmetic measures ~8 % faster on them than on
        # ints (key types never reach a result).
        prefix = 0.0
        for attr in sorted(net, key=lambda a: sign * a):
            weight, placements = net[attr]
            weights.append((sign * attr, weight))
            rhs = prefix + weight if self.inclusive else prefix
            prefix += weight
            for group, deltas in placements.items():
                if not any(deltas):
                    continue
                by_rhs = rows.setdefault(group, {})
                held = by_rhs.get(rhs)
                if held is None:
                    by_rhs[rhs] = list(deltas)
                else:
                    for j, delta in enumerate(deltas):
                        held[j] += delta
        self.bound_map = TreeMap.bulk_load(weights, prune_zeros=True)
        for group, by_rhs in rows.items():
            index = self._new_index(sorted((rhs, *sums) for rhs, sums in by_rhs.items()))
            if len(index) or not self.grouped:
                self.group_indexes[group] = index

    def emit_answer(self, k: int | str, op: str) -> Answer:
        """Grouped: one probe per group's index; ungrouped, a kept one."""
        if self.grouped:
            return _probe_answer(k, op, "_ix", self.columns, f"_gi{k}")
        return replace(super().emit_answer(k, op), kept=True)


class _Group(MaintainedAggregate):
    """A correlation group of a grouped :class:`ThresholdSide`: its probe
    aggregate, its weight (joined rows that pass the filters), its
    ``{column value: Σ result delta}`` domain, the domain as an index
    while the weight is non-zero, and the Σ at qualifying values."""

    __slots__ = ("weight", "domain", "index", "contribution")

    def __init__(self, func: str) -> None:
        super().__init__(func)
        self.weight, self.domain, self.index, self.contribution = 0, {}, None, 0


class ThresholdSide(Side):
    """One relation's index keyed by an outer column ``c`` and probed by
    a maintained scalar ``v`` (the conjunct ``v op c``): keys never
    move, the probe does.

    Ungrouped (PSP's ``b.volume > 0.0001 * (SELECT SUM(b1.volume) …)``),
    the engine maintains ``v`` and ``result()`` probes the one index.
    Grouped (TPC-H Q17), ``v = scale(func(arg))`` is correlated by
    equality, so each correlation group has its own, and each tuple
    pairs with its group's ``weight`` joined rows.  A group's probe
    moves only with its own tuples, so :meth:`emit_move` keeps ``total =
    Σ weight · contribution`` current and the result only reads it.  A
    group keeps a plain dict and builds its index only while its weight
    is non-zero: most groups join nothing and pay one dict update per
    tuple.
    """

    def __init__(
        self,
        columns: int = 1,
        index_cls: type = RPAITree,
        grouped: bool = False,
        op: str = "<",
        func: str = "SUM",
        scale: Scale = (),
    ) -> None:
        _check_width(columns, index_cls)
        self.columns, self.grouped, self._index_cls = columns, grouped, index_cls
        self.op, self.func, self.scale = op, func, scale
        #: grouped: correlation group -> its :class:`_Group`
        self.bound_map: dict[Any, _Group] = {}
        self.total: float = 0
        self.index = None if grouped else self._new_index()
        self._bind_apply()

    # the same construction from the same ``columns`` / ``_index_cls``
    _new_index = ShiftedSide._new_index

    # grouped: a group's dicts net its tuples, and groups hash apart;
    # ungrouped, the probe reads every key, so no shard owns one
    nets = property(lambda self: not self.grouped)
    shard_mode = property(lambda self: "hash" if self.grouped else None)

    @staticmethod
    def feeds(spec: IndexSpec, deltas: tuple, group_by: tuple, names: dict) -> tuple[Feed, ...]:
        """Ungrouped, the tuples at a column value move its sums.
        Grouped, the tuples carry their result delta, then the probe
        aggregate's argument and count, placed at their column value in
        their correlation group; the joined relation carries the group's
        weight."""
        alias = spec.outer_alias
        _ungrouped(group_by)
        if spec.inner_col is None:
            return (Feed(spec.relation, alias, (spec.key_col,), Const(0), deltas),)
        _one_sum(deltas)
        group = ColumnRef(alias, spec.inner_col.column)
        other = spec.outer_col.relation
        join = Comparison("=", spec.outer_col, group)
        where = [f for f in spec.filters if f not in (join, join.flipped())]
        if len(where) == len(spec.filters) or len(names) != 2 or any(
            ref.relation != other for f in where for side in (f.left, f.right) for ref in column_refs(side)
        ):
            raise UnsupportedQueryError(
                "a grouped threshold needs the join on its correlation column "
                "and constant filters on the joined relation"
            )
        probe_deltas = (_on(alias, spec.inner_arg), None)
        return (
            Feed(spec.relation, alias, (group,), Const(0), deltas + probe_deltas, (spec.key_col,)),
            Feed(
                names[other], other, (spec.outer_col,), Const(1), (Const(0),) * 3,
                where=reduce(And, where) if where else None,
            ),
        )

    @classmethod
    def build(cls, plan: Any, index_cls: type) -> "ThresholdSide":
        spec = plan.spec
        scale, call = peel_constant_scale(spec.fixed_expr)
        grouped = spec.inner_col is not None
        if grouped and not isinstance(call, AggrCall):
            raise UnsupportedQueryError("a grouped threshold probes with a scaled aggregate")
        return cls(plan.columns, index_cls, grouped, spec.outer_op, spec.inner_func, scale)

    def indexes(self) -> list:
        if self.grouped:
            return [group.index for group in self.bound_map.values() if group.index is not None]
        return [self.index]

    def emit_bind(self, k: int | str, maps: bool) -> list[str]:
        """Statements binding the side's index (grouped: its groups),
        once per call."""
        if not self.grouped:
            return [f"_ix{k} = _s{k}.index"]
        return [f"_bm{k} = _s{k}.bound_map"] if maps else []

    def emit_move(self, k: int | str, args: list[str]) -> list[str]:
        """Ungrouped: the tuples at column value ``_key`` move its sums
        by ``args``.  Grouped: one tuple of group ``args[0]``:
        ``args[1]`` joined rows, and at column value ``args[2]`` the
        result delta, the probe argument's value and its count
        (``args[3:]``), each argument as source, the constant ones
        resolved here.  A group's dicts net its tuples already, so the
        engine feeds a grouped side tuple by tuple."""
        if not self.grouped:
            live = " or ".join(f"{d} != 0" for d in args)
            return [f"if {live}:", f"    _ix{k}.add(_key, {', '.join(args)})"]
        out: list[str] = []
        key, value, delta = (
            _named(out, name, args[i]) for name, i in (("_key", 0), ("_val", 2), ("_dlt", 3))
        )
        weight, arg, count = args[1], args[4], args[5]
        out += [f"_g = _bm{k}.get({key})", "if _g is None:"]
        out.append(f"    _g = _bm{k}[{key}] = _Group({self.func!r})")
        out += [f"_g.{name} += {src}" for name, src in (("total", arg), ("count", count))
                if src != "0"]
        if delta != "0":
            out += [f"if {delta}:", *_indented(_bump_src("_g.domain", value, delta))]
            out += ["    if _g.index is not None:", f"        _g.index.add({value}, {delta})"]
        aggregate = {"SUM": "_g.total", "COUNT": "_g.count"}.get(
            self.func, "(_g.total / _g.count if _g.count else 0)"
        )
        probe = probe_src(self.op, "_g.index", emit_scaled(self.scale, aggregate))
        reprobe = [
            "if _g.index is None:",
            f"    _g.index = _s{k}._new_index(sorted(_g.domain.items()))",
            "if _S.enabled:",
            "    _S.inc('engine.result_probes')",
            f"_g.contribution = {probe}",
        ]
        if weight != "0":  # a group that joins nothing contributes nothing
            reprobe = [f"_g.weight += {weight}", "if _g.weight:", *_indented(reprobe)]
            reprobe += ["else:", "    _g.index, _g.contribution = None, 0"]
        return out + [
            "if _g.weight:" if weight == "0" else f"if {weight} or _g.weight:",
            "    _before = _g.weight * _g.contribution",
            *_indented(reprobe),
            f"    _s{k}.total += _g.weight * _g.contribution - _before",
            "if not (_g.weight or _g.count or _g.domain):",
            f"    del _bm{k}[{key}]",
        ]

    def emit_apply(self) -> list[str]:
        if not self.grouped:
            deltas = [f"_d{j}" for j in range(self.columns)]
            unpack = f"{', '.join(deltas)}, = _pl[None]"
            return [unpack, *self.emit_bind("", True), *self.emit_move("", deltas)]
        move = self.emit_move("", ["_key", "_wgt", "_val", "_dlt", "_arg", "_cnt"])
        loop = "for _val, (_dlt, _arg, _cnt) in _pl.items():"
        return [*self.emit_bind("", True), loop, *_indented(move), "    _wgt = 0"]

    def emit_answer(self, k: int | str, op: str) -> Answer:
        """Grouped: the maintained total, whatever the probe (each group
        probes its own index as it moves)."""
        if self.grouped:
            return Answer(k, (f"_q{k}_0 = _s{k}.total",))
        return replace(super().emit_answer(k, op), kept=True)


#: a membership side's ``HAVING`` comparison
_THETA = {"=": eq, "<>": ne, "<": lt, "<=": le, ">": gt, ">=": ge}
#: the Python operator of each ``HAVING`` comparison
_PY_THETA = {eq: "==", ne: "!=", lt: "<", le: "<=", gt: ">", ge: ">="}


class _Key:
    """A membership side's key: its ``HAVING`` sum and row count, the
    summed argument ``s``, ``f`` (``s`` while a member, else 0) and its
    links ``{group: rows}``."""

    __slots__ = ("total", "count", "s", "f", "links")

    def __init__(self, total: float = 0, count: int = 0, s: float = 0, f: float = 0,
                 links: dict | None = None) -> None:
        self.total, self.count, self.s, self.f = total, count, s, f
        self.links = {} if links is None else links

    def __reduce__(self) -> tuple:
        # positional fields: a snapshot holds one per key
        return _Key, (self.total, self.count, self.s, self.f, self.links)


class MembershipSide(Side):
    """``x.k IN (SELECT s.k FROM S GROUP BY s.k HAVING SUM(s.a) θ
    bound)`` with ``x`` joined to the summed relation and to the one
    carrying the outer ``GROUP BY`` key (TPC-H Q18).

    Per key ``k``: ``H(k)`` and its row count, the sum ``S(k)``, ``f(k)
    = [count(k) > 0 and H(k) θ bound] · S(k)`` and the links ``O(k) =
    {group: rows}``; per group ``c``: its rows ``C(c)`` and ``A(c) = Σ_k
    O(k)[c] · f(k)``; and the result ``{c: C(c) · A(c)}``.  Every entry
    is dropped at zero, and rows count with multiplicity.  An event costs
    O(1) plus the links of its key when ``f(k)`` moves.
    """

    nets = False

    def __init__(self, op: str, bound: float) -> None:
        self.theta, self.bound = _THETA[op], bound
        self.bound_map: dict[Any, _Key] = {}
        self.rows: dict[Any, int] = {}
        self.linked: dict[Any, float] = {}
        self.result: dict[Any, float] = {}
        self._bind_apply()

    @staticmethod
    def feeds(spec: IndexSpec, deltas: tuple, group_by: tuple, names: dict) -> tuple[Feed, ...]:
        """Per key the result delta, then the ``HAVING`` aggregate's
        argument and count; the link relation's rows per group, and the
        group relation's rows under no key (every shard's).  The side
        groups its result by its own join, whatever ``group_by``."""
        _correlated(spec)
        _one_sum(deltas)
        (link, group_join), nothing = spec.filters, (Const(0),) * 3
        if spec.inner_col.column != link.right.column:
            raise UnsupportedQueryError("a membership side sums the HAVING relation, joined on its key")
        alias, x, g = spec.outer_alias, link.left.relation, group_join.left.relation
        return (
            Feed(spec.relation, alias, (link.right,), Const(0), deltas + (_on(alias, spec.inner_arg), None)),
            Feed(names[x], x, (link.left,), Const(1), nothing, (group_join.right,)),
            Feed(names[g], g, (), Const(1), nothing, (group_join.left,)),
        )

    @classmethod
    def build(cls, plan: Any, index_cls: type) -> "MembershipSide":
        return cls(plan.spec.outer_op, plan.spec.fixed_expr.value)

    def indexes(self) -> list:
        # no index: the group rows are the state no key holds
        return [self.rows]

    @staticmethod
    def emit_answer(k: int | str, op: str) -> Answer:
        """The result it keeps, whatever the probe."""
        return Answer(k, (), over=f"_s{k}.result", item=f"_q{k}_0", final=True)

    def describe(self) -> str:
        return f"dicts x{len(self.bound_map)} keys x{len(self.result)} groups"

    @staticmethod
    def emit_bind(k: int | str, maps: bool) -> list[str]:
        """Statements binding the side's dicts, once per call."""
        return [f"_bound_map{k} = _s{k}.bound_map", f"_rows{k} = _s{k}.rows"] if maps else []

    def emit_move(self, k: int | str, args: list[str]) -> list[str]:
        """One tuple, its arguments ``key, weight, group, delta, arg,
        count`` as source: with ``key`` the constant None, ``weight``
        rows of ``group``; with ``group`` the constant None, a row of
        ``key`` adding ``delta`` to S and ``arg`` and ``count`` to H;
        else ``weight`` rows linking ``key`` to ``group``.
        :meth:`_settle` stays a call: it runs when a group row moves, or
        ``f(k)`` is non-zero (a member key), and that is rare."""
        out: list[str] = []
        key, weight, group, delta = (
            _named(out, name, src) for name, src in zip(("_key", "_wgt", "_grp", "_dlt"), args)
        )
        arg = delta if args[4] == args[3] else _named(out, "_arg", args[4])
        if key == "None":
            return out + _bump_src(f"_rows{k}", group, weight) + [f"_s{k}._settle({group}, 0)"]
        out += [f"_e = _bound_map{k}.get({key})", "if _e is None:"]
        out.append(f"    _e = _bound_map{k}[{key}] = _Key()")
        if group == "None":
            theta = f"_e.total {_PY_THETA[self.theta]} {self.bound!r}"
            out += [
                f"_e.s += {delta}",
                f"_e.total += {arg}",
                f"_e.count += {args[5]}",
                f"_chg = (_e.s if _e.count and {theta} else 0) - _e.f",
                "if _chg:",
                "    _e.f += _chg",
                "    for _lg, _lr in _e.links.items():",
                f"        _s{k}._settle(_lg, _lr * _chg)",
            ]
        else:
            out += _bump_src("_e.links", group, weight)
            out += ["if _e.f:", f"    _s{k}._settle({group}, {weight} * _e.f)"]
        return out + [
            "if not (_e.count or _e.total or _e.s or _e.links):",
            f"    del _bound_map{k}[{key}]",
        ]

    def emit_apply(self) -> list[str]:
        out = [*self.emit_bind("", True), "for _grp, (_dlt, _arg, _cnt) in _pl.items():"]
        for test, key, group in (("if _key is None:", "None", "_grp"),
                                 ("elif _grp is None:", "_key", "None"), ("else:", "_key", "_grp")):
            move = self.emit_move("", [key, "_wgt", group, "_dlt", "_arg", "_cnt"])
            out += ["    " + test, *_indented(move, 2)]
        return out

    def _settle(self, group: Any, change: float) -> None:
        """``A(group) += change``, then the group's result."""
        _bump(self.linked, group, change)
        value = self.rows.get(group, 0) * self.linked.get(group, 0)
        if value:
            self.result[group] = value
        else:
            self.result.pop(group, None)


def side_class(spec: IndexSpec) -> type[Side]:
    """The side kind that maintains ``spec``'s conjunct: the one place a
    kind is chosen."""
    if spec.inner_op == "IN":
        return MembershipSide
    if spec.key_col is not None:
        return ThresholdSide
    return PointSide if spec.inner_op == "=" else ShiftedSide


#: what the side fragments read besides the sides (``_S``, the obs sink,
#: is bound by the emitter)
FRAGMENT_GLOBALS = {"_Key": _Key, "_Group": _Group, **EMIT_GLOBALS}
