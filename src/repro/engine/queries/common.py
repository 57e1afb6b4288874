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

:class:`~repro.engine.aggr_index.AggregateIndexEngine` builds its sides
from the planner's output; the hand-derived
:class:`~repro.engine.queries.mst.MSTRpaiEngine` uses
:class:`ShiftedSide` directly.
"""

from __future__ import annotations

from operator import eq, ge, gt, le, lt, ne
from typing import Any, Mapping, Sequence

from repro.core.pai_map import PAIMap
from repro.core.rpai import RPAITree
from repro.errors import EngineStateError, UnsupportedQueryError
from repro.obs import SINK as _SINK
from repro.query.rowexpr import MaintainedAggregate, Scale, apply_scale
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


def _bump(counts: dict, key: Any, delta: float) -> None:
    """``counts[key] += delta``, the entry dropped at zero."""
    held = counts.pop(key, 0) + delta
    if held:
        counts[key] = held


class PointSide:
    """One relation's aggregate index under an equality correlation.

    Single-column: ``index_cls`` is any conforming
    :class:`~repro.core.interfaces.AggregateIndex` (the dict when the
    result probe is a point lookup too, see
    :func:`~repro.query.planner.choose_backend`).
    """

    grouped = False

    def __init__(self, index_cls: type = PAIMap) -> None:
        self._index_cls = index_cls
        # map3 in Figure 1c: correlation group -> subquery value (rhs).
        self.bound_map = PAIMap(prune_zeros=True)
        # map1: correlation group -> result aggregate of the group.
        self.res_map = PAIMap(prune_zeros=True)
        # aggrMap: rhs -> sum of result aggregates of the groups at it.
        self.index = index_cls(prune_zeros=True)

    def indexes(self) -> list:
        return [self.index]

    def apply(self, group: Any, weight: float, placements: Placements) -> None:
        """Move ``group``'s result value from its old aggregate key to
        its new one (Figure 1c lines 16-18)."""
        if _SINK.enabled:
            _SINK.inc("engine.point_applies")
        (res_delta,) = placements[None]
        old_rhs = self.bound_map.get(group, 0)
        old_res = self.res_map.get(group, 0)
        new_res = old_res + res_delta
        if old_res != 0:
            self.index.add(old_rhs, -old_res)
        if new_res != 0:
            self.index.add(old_rhs + weight, new_res)
        self.bound_map.add(group, weight)
        self.res_map.add(group, res_delta)

    def load(self, net: Mapping[Any, tuple[float, Placements]]) -> None:
        """Bulk-load a fresh side from per-group net deltas."""
        groups = sorted(net)
        self.bound_map = PAIMap.bulk_load(
            ((g, net[g][0]) for g in groups), prune_zeros=True
        )
        self.res_map = PAIMap.bulk_load(
            ((g, net[g][1][None][0]) for g in groups), prune_zeros=True
        )
        by_rhs: dict[float, float] = {}
        for group in groups:
            rhs, placements = net[group]
            res = placements[None][0]
            if res != 0:
                by_rhs[rhs] = by_rhs.get(rhs, 0) + res
        self.index = self._index_cls.bulk_load(sorted(by_rhs.items()), prune_zeros=True)

    def qualifying(self, op: str, probe: float) -> dict[Any, tuple]:
        return {None: (probe_index(self.index, op, probe),)}


class ShiftedSide:
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

    def __setstate__(self, state: dict) -> None:
        if "group_indexes" not in state:
            # Written when a side held ``index`` (or, earlier, one tree
            # per required sum under ``indexes``): refuse, so the
            # snapshot loader rebuilds from the log instead.
            raise EngineStateError("ShiftedSide state predates the per-group index layout")
        self.__dict__.update(state)

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

    def apply(self, attr: float, weight: float, placements: Placements) -> None:
        """Process the tuples at correlation attribute ``attr``:
        ``weight`` is their signed inner-aggregate contribution
        (± volume), ``placements`` their signed result contributions.

        This is Figure 2c with k required sums and G groups: one
        bound-map walk, then per live index one range shift, then one
        point update per placement.
        """
        group_indexes = self.group_indexes
        if _SINK.enabled:
            _SINK.inc("engine.range_applies")
            if self.grouped:
                _SINK.observe("engine.grouped_fanout", len(group_indexes))
        key = self.key_sign * attr
        # The add's one descent also yields the volume already at the
        # key and the volume of strictly lower keys.
        old_at_key, prefix_excl = self.bound_map.fetch_add(key, weight)
        if self.inclusive:
            # rhs(g) includes the group's own key.  Affected groups are
            # g >= key; their old rhs exceeds prefix_excl because the
            # group at `key` (if live) carries positive own volume.
            inclusive = False
            group_new = prefix_excl + old_at_key + weight
        else:
            # Strict '<': the group at `key` is NOT affected; its rhs is
            # exactly prefix_excl.  When the group does not exist yet
            # (old volume 0) the shift must include keys equal to the
            # boundary (see DESIGN.md tie analysis).
            inclusive = old_at_key == 0
            group_new = prefix_excl
        for index in group_indexes.values():
            index.shift_keys(prefix_excl, weight, inclusive=inclusive)
        for group, deltas in placements.items():
            if not any(deltas):
                continue
            index = group_indexes.get(group)
            if index is None:
                index = group_indexes[group] = self._new_index()
            index.add(group_new, *deltas)
            if self.grouped and not len(index):
                del group_indexes[group]

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


class ThresholdSide:
    """One relation's index keyed by an outer column ``c`` and probed by
    a maintained scalar ``v`` (the conjunct ``v op c``): keys never
    move, the probe does.

    Ungrouped (PSP's ``b.volume > 0.0001 * (SELECT SUM(b1.volume) …)``),
    the engine maintains ``v`` and ``result()`` probes the one index.
    Grouped (TPC-H Q17), ``v = scale(func(arg))`` is correlated by
    equality, so each correlation group has its own, and each tuple
    pairs with its group's ``weight`` joined rows.  A group's probe
    moves only with its own tuples, so :meth:`move` keeps ``total =
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

    # the same construction from the same ``columns`` / ``_index_cls``
    _new_index = ShiftedSide._new_index

    def indexes(self) -> list:
        if self.grouped:
            return [group.index for group in self.bound_map.values() if group.index is not None]
        return [self.index]

    def apply(self, key: Any, weight: float, placements: Placements) -> None:
        """Ungrouped: the tuples at column value ``key`` move its sums by
        ``placements[None]``.  Grouped: :meth:`move` per placement."""
        if not self.grouped:
            if any(placements[None]):
                self.index.add(key, *placements[None])
            return
        for value, deltas in placements.items():
            self.move(key, weight, value, *deltas)
            weight = 0

    def move(self, key: Any, weight: int, value: Any, delta: float, arg: float, count: int) -> None:
        """One tuple of group ``key``: ``weight`` joined rows, and at
        column ``value`` the result ``delta``, the probe argument's
        ``arg`` and ``count``.  A group's dicts net its tuples already,
        so the engine feeds a grouped side tuple by tuple."""
        group = self.bound_map.get(key)
        if group is None:
            group = self.bound_map[key] = _Group(self.func)
        group.total += arg
        group.count += count
        domain = group.domain
        if delta:
            _bump(domain, value, delta)
            if group.index is not None:
                group.index.add(value, delta)
        # A group that joins nothing contributes nothing, before and after.
        if weight or group.weight:
            before = group.weight * group.contribution
            group.weight += weight
            if group.weight:
                if group.index is None:
                    group.index = self._new_index(sorted(domain.items()))
                probe = apply_scale(self.scale, group.value())
                group.contribution = probe_index(group.index, self.op, probe)
            else:
                group.index, group.contribution = None, 0
            self.total += group.weight * group.contribution - before
        if not (group.weight or group.count or domain):
            del self.bound_map[key]

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


class MembershipSide:
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

    def indexes(self) -> list:
        # no index: the group rows are the state no key holds
        return [self.rows]

    def apply(self, key: Any, weight: float, placements: Placements) -> None:
        for group, deltas in placements.items():
            self.move(key, weight, group, *deltas)

    load = ThresholdSide.load

    def move(self, key: Any, weight: int, group: Any, delta: float, arg: float, count: int) -> None:
        """One tuple: without a ``group``, a row of ``key`` adding
        ``delta`` to S and ``arg`` and ``count`` to H; with ``key``
        None, ``weight`` rows of ``group``; else ``weight`` rows linking
        ``key`` to ``group``."""
        if key is None:
            _bump(self.rows, group, weight)
            return self._settle(group, 0)
        entry = self.bound_map.get(key)
        if entry is None:
            entry = self.bound_map[key] = _Key()
        if group is None:
            entry.s += delta
            entry.total += arg
            entry.count += count
            change = (entry.s if entry.count and self.theta(entry.total, self.bound) else 0) - entry.f
            if change:
                entry.f += change
                for linked, rows in entry.links.items():
                    self._settle(linked, rows * change)
        else:
            _bump(entry.links, group, weight)
            if entry.f:
                self._settle(group, weight * entry.f)
        if not (entry.count or entry.total or entry.s or entry.links):
            del self.bound_map[key]

    def _settle(self, group: Any, change: float) -> None:
        """``A(group) += change``, then the group's result."""
        _bump(self.linked, group, change)
        value = self.rows.get(group, 0) * self.linked.get(group, 0)
        if value:
            self.result[group] = value
        else:
            self.result.pop(group, None)
