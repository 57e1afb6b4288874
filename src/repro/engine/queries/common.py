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

Each side writes its per-key or per-tuple work once, as statements
(``emit_bind`` / ``emit_move``): the compiled triggers of
:mod:`repro.query.codegen` splice them into their loops, and the side's
own ``apply`` is the same statements compiled (:class:`_EmittedApply`).
:class:`~repro.engine.aggr_index.AggregateIndexEngine` builds its sides
from the planner's output; the hand-derived
:class:`~repro.engine.queries.mst.MSTRpaiEngine` uses
:class:`ShiftedSide` directly.
"""

from __future__ import annotations

import types
from operator import eq, ge, gt, le, lt, ne
from typing import Any, Mapping, Sequence

from repro.core.pai_map import EMIT_GLOBALS, PAIMap
from repro.core.rpai import RPAITree
from repro.errors import EngineStateError, UnsupportedQueryError
from repro.obs import SINK as _SINK
from repro.query.rowexpr import MaintainedAggregate, Scale, compile_source, emit_scaled
from repro.trees.treemap import TreeMap

__all__ = ["PointSide", "ShiftedSide", "ThresholdSide", "MembershipSide", "probe_index"]

#: ``{GROUP BY key: result deltas, one per column}`` — ungrouped sides
#: use the single key ``None``.
Placements = Mapping[Any, Sequence[float]]


def probe_index(index, op: str, probe: float, columns: int = 1) -> Any:
    """Sum of ``index`` values over keys ``k`` satisfying ``probe op k``
    — a scalar on a single-column index (any
    :class:`~repro.core.interfaces.AggregateIndex`), a tuple with one
    sum per column on a ``columns``-wide RPAI tree."""
    if _SINK.enabled:
        _SINK.inc("engine.result_probes")
    if op == "=":
        return index.get(probe, 0 if columns == 1 else (0,) * columns)
    if op in (">", ">="):
        return index.get_sum(probe, inclusive=op == ">=")
    if op in ("<", "<="):
        if columns == 1:
            return index.total_sum() - index.get_sum(probe, inclusive=op == "<")
        return index.suffix_sum(probe, inclusive=op == "<=")
    raise UnsupportedQueryError(f"unsupported probe operator {op!r}")


def probe_src(op: str, index: str, probe: str, columns: int = 1) -> str:
    """:func:`probe_index` as source, monomorphized on ``op`` (without
    its counter)."""
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


#: ``def apply`` source -> the function it compiles to
_APPLIES: dict[str, Any] = {}


class _EmittedApply:
    """A side whose statements are defined once, as source: the compiled
    triggers splice its ``emit_bind`` / ``emit_move``, and its own
    ``apply(key, weight, placements)`` is :meth:`emit_apply` (the same
    two over plain names, side ``k`` the empty suffix) compiled once per
    distinct source and bound per instance.  The bound method is left
    out of the pickled state and bound again on restore."""

    def _bind_apply(self) -> None:
        source = "\n".join(["def apply(_s, _key, _wgt, _pl):", *_indented(self.emit_apply()), ""])
        function = _APPLIES.get(source)
        if function is None:
            namespace = {"_S": _SINK, **FRAGMENT_GLOBALS}
            exec(compile_source(source, "side"), namespace)
            function = _APPLIES[source] = namespace["apply"]
        self.apply = types.MethodType(function, self)

    def __getstate__(self) -> dict:
        return {name: value for name, value in self.__dict__.items() if name != "apply"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind_apply()


class PointSide(_EmittedApply):
    """One relation's aggregate index under an equality correlation.

    Single-column: ``index_cls`` is any conforming
    :class:`~repro.core.interfaces.AggregateIndex` (the dict when the
    result probe is a point lookup too, see
    :func:`~repro.query.planner.choose_backend`).  The two per-group
    maps are plain dicts with their zero entries dropped: nothing reads
    their total or their key order.
    """

    grouped = False

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

    def qualifying(self, op: str, probe: float) -> dict[Any, tuple]:
        return {None: (probe_index(self.index, op, probe),)}


class ShiftedSide(_EmittedApply):
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
        the volume at the key and below it, one range shift per live
        index, one point update per placement.  Strict ``<`` leaves the
        group at the key in place, and shifts keys equal to the boundary
        when that group is new (DESIGN.md's tie analysis)."""
        out = ["if _S.enabled:", "    _S.inc('engine.range_applies')"]
        if self.grouped:
            out.append(f"    _S.observe('engine.grouped_fanout', len(_gi{k}))")
        out.append(f"_old, _pfx = _bm{k}.fetch_add(_key, _wgt)")
        new = "_pfx + _old + _wgt" if self.inclusive else "_pfx"
        inclusive = "False" if self.inclusive else "_old == 0"
        if not self.grouped:
            return out + [
                f"_ix{k}.shift_keys(_pfx, _wgt, inclusive={inclusive})",
                f"if {' or '.join(f'{d} != 0' for d in deltas)}:",
                f"    _ix{k}.add({new}, {', '.join(deltas)})",
            ]
        if self.inclusive:
            out.append(f"_new = {new}")
            new = "_new"
        return out + [
            f"for _ix in _gi{k}.values():",
            f"    _ix.shift_keys(_pfx, _wgt, inclusive={inclusive})",
            "for _grp, _d in _pg.items():",
            "    if _d == 0:",
            "        continue",
            f"    _ix = _gi{k}.get(_grp)",
            "    if _ix is None:",
            f"        _ix = _gi{k}[_grp] = _s{k}._new_index()",
            f"    _ix.add({new}, _d)",
            "    if not len(_ix):",
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

    def qualifying(self, op: str, probe: float) -> dict[Any, tuple]:
        """Per group, the per-column sums over tuples whose subquery
        value ``k`` satisfies ``probe op k``."""
        columns = self.columns
        out = {}
        for group, index in self.group_indexes.items():
            sums = probe_index(index, op, probe, columns)
            out[group] = (sums,) if columns == 1 else sums
        return out


class _Group(MaintainedAggregate):
    """A correlation group of a grouped :class:`ThresholdSide`: its probe
    aggregate, its weight (joined rows that pass the filters), its
    ``{column value: Σ result delta}`` domain, the domain as an index
    while the weight is non-zero, and the Σ at qualifying values."""

    __slots__ = ("weight", "domain", "index", "contribution")

    def __init__(self, func: str) -> None:
        super().__init__(func)
        self.weight, self.domain, self.index, self.contribution = 0, {}, None, 0


class ThresholdSide(_EmittedApply):
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
        self.columns, self.grouped, self._index_cls = columns, grouped, index_cls
        self.op, self.func, self.scale = op, func, scale
        #: grouped: correlation group -> its :class:`_Group`
        self.bound_map: dict[Any, _Group] = {}
        self.total: float = 0
        self.index = None if grouped else self._new_index()
        self._bind_apply()

    # the same construction from the same ``columns`` / ``_index_cls``
    _new_index = ShiftedSide._new_index

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

    def load(self, net: Mapping[Any, tuple[float, Placements]]) -> None:
        """Load a fresh side from per-key net deltas."""
        for key, (weight, placements) in net.items():
            self.apply(key, weight, placements)

    def qualifying(self, op: str, probe: float) -> dict[Any, tuple]:
        """The per-column sums over column values ``c`` with ``probe op
        c`` (grouped: the maintained total, whatever the arguments)."""
        if self.grouped:
            return {None: (self.total,)}
        sums = probe_index(self.index, op, probe, self.columns)
        return {None: (sums,) if self.columns == 1 else sums}


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


class MembershipSide(_EmittedApply):
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

    def __init__(self, op: str, bound: float) -> None:
        self.theta, self.bound = _THETA[op], bound
        self.bound_map: dict[Any, _Key] = {}
        self.rows: dict[Any, int] = {}
        self.linked: dict[Any, float] = {}
        self.result: dict[Any, float] = {}
        self._bind_apply()

    def indexes(self) -> list:
        # no index: the group rows are the state no key holds
        return [self.rows]

    load = ThresholdSide.load

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


#: what the side fragments read besides the sides (``_S``, the obs sink,
#: is bound by the emitter)
FRAGMENT_GLOBALS = {"_Key": _Key, "_Group": _Group, **EMIT_GLOBALS}
