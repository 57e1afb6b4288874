"""Per-query trigger codegen: the aggregate-index engine's triggers.

DBToaster's lesson (PAPERS.md) is that an IVM system earns its constant
factors by *compiling* each query's trigger, with no interpreted
fallback; this module does that for the engine that is built from a
plan:

* :class:`~repro.engine.aggr_index.AggregateIndexEngine` (Algorithm 4:
  EQ, VWAP, grouped VWAP, MST, PSP, Q17, Q18, …) — **one emitter** over the
  engine's side descriptions (:func:`~repro.engine.aggr_index.plan_sides`).
  Scalar updates, per-row extraction (each side's feeds, filters
  included) and netting are written once; ``apply`` / ``apply_batch``
  / ``apply_frame`` are three loop shapes around the per-side *apply
  fragments*, and ``warm_start`` is the batch shape's netting with the
  sides' bulk loads in place of the fragments.  Each side writes its
  own fragments (``emit_bind`` / ``emit_move`` in
  :mod:`repro.engine.queries.common`), so the loops splice them in and
  no row or netted key costs a Python call into a side.  The emitter
  asks a side only what the side contract says: whether it nets
  (``nets``) and its key's sign.  ``result`` and, sharded, the shard
  functions are the engine's own source
  (:meth:`~repro.engine.aggr_index.AggregateIndexEngine.reads_source`:
  the sides' answers and the layout's recombination), appended to the
  same module.  The obs + quarantine prologue is not generated: the
  emitted functions are the engine's two steps, and
  ``IncrementalEngine.on_event`` / ``on_batch`` / ``on_frame`` wrap
  them as they wrap every engine's.

The engine installs its emitted functions itself, whenever it is built
or restored (:func:`specialize`), so it has one trigger path; an
emitter failure raises :class:`~repro.errors.UnsupportedQueryError` at
build, where the plan is.  Everything else is its own single definition
and has no emitter here — :func:`specialize` returns False for it: the
hand-written per-query classes (NQ1, NQ2), the baselines, and the
general algorithm (:class:`~repro.engine.general.GeneralAlgorithmEngine`:
SQ1, SQ2), which generates its two O(live groups) loops itself at
construction (:func:`generated_source` returns them).  Expression
source comes from :mod:`repro.query.rowexpr`, the one statement of
row-expression semantics.

Generated source is compiled once
(:func:`~repro.query.rowexpr.compile_source`: registered with
``linecache``, so tracebacks and ``pdb`` show generated lines) and cached
per query AST — the AST nodes are frozen dataclasses, so the key is
hashable and exact; the source never depends on the aggregate-index
class, which the sides hold as a plain attribute.  Installation binds
the compiled functions as *instance* attributes (``engine.apply`` /
``apply_batch`` / ``apply_frame`` / ``warm_start`` / ``result``, plus
``shard_value`` / ``shard_probe`` / ``shard_combine`` on a sharded
engine); the composites call ``apply*`` and ``shard_*``, which are
looked up per call.  Engines pickle through their explicit
``__getstate__`` (pure data), so emitted functions never enter a
snapshot; ``__setstate__`` re-installs them, which is how they survive
the multiprocess workers' ``pickle.loads`` restore path.
"""

from __future__ import annotations

import time
import types
from typing import Any, Callable

from repro.engine.aggr_index import AggregateIndexEngine, SidePlan
from repro.engine.queries.common import Feed
from repro.obs import SINK as _SINK
from repro.query.ast import AggrQuery, ColumnRef, Const, Expr
from repro.query.rowexpr import UncorrelatedScalar, compile_source, emit_col_element, emit_row_expr

__all__ = [
    "set_codegen",
    "specialize",
    "generated_source",
    "clear_cache",
]

#: what the emitter defines and :func:`specialize` installs
_TRIGGER_ATTRS = ("apply", "apply_batch", "apply_frame", "result", "warm_start")
#: and, on a sharded engine, also
_SHARD_ATTRS = ("shard_value", "shard_probe", "shard_combine")


def set_codegen(flag: bool) -> None:
    """Has no effect: the aggregate-index engine always runs its emitted
    triggers, and every other engine has one definition.  Kept only for
    the layered benchmark's probes, which still call it; it goes when
    they stop."""


#: query -> (source, code object)
_CACHE: dict[AggrQuery, tuple[str, Any]] = {}


def clear_cache() -> None:
    _CACHE.clear()


# ---------------------------------------------------------------------------
# Shared fragments: events, scalars, probes
# ---------------------------------------------------------------------------


def _emit_event_unpack(lines: list[str], indent: str) -> None:
    """The event's locals every fragment reads."""
    lines.append(f"{indent}_rel = event.relation")
    lines.append(f"{indent}_row = event.row")
    lines.append(f"{indent}_w = event.weight")


def _emit_scalar_updates(
    lines: list[str], indent: str, scalars: dict[AggrQuery, UncorrelatedScalar]
) -> None:
    """Per-event scalar routing, in the scalars' order (value computed,
    then folded in); a scalar is the ``_sc{i}`` of
    :func:`~repro.query.rowexpr.subquery_bindings`."""
    for i, (sub, scalar) in enumerate(scalars.items()):
        lines.append(f"{indent}if _rel == {scalar.relation!r}:")
        if scalar.aggregate.func in ("SUM", "COUNT", "AVG"):
            arg = emit_row_expr(sub.select[0].expr.arg, sub.relations[0].alias)
            lines.append(f"{indent}    _a{i} = _sc{i}.aggregate")
            lines.append(f"{indent}    _a{i}.total += ({arg}) * _w")
            lines.append(f"{indent}    _a{i}.count += _w")
        else:
            lines.append(f"{indent}    _sc{i}.on_row(_row, _w)")


# ---------------------------------------------------------------------------
# AggregateIndexEngine (Algorithm 4 — EQ, VWAP, grouped VWAP, MST, PSP, Q17, Q18)
# ---------------------------------------------------------------------------
# One emitter over the engine's side descriptions.  Per side the source
# names are fixed: ``_s{k}`` is the side object (bound as a global at
# install time), ``_n{k}`` its net dict, ``_bm{k}``/``_rm{k}``/
# ``_ix{k}``/``_gi{k}``/… its structures, read off the side once per
# call by the side's ``emit_bind`` (warm_start replaces them, so they are
# not bound at install time).
# A tuple's deltas, per feed (``Feed``), are ``_key`` (netting key, a
# stored correlation key with its sign applied), ``_wgt``
# (inner-aggregate or joined-row delta), one ``_d{j}`` per placement
# column (a count column's delta is the weight ``_w`` itself) and, on a
# grouped side, ``_grp`` (placement key).  A grouped side's placements
# are ``_pg``: ``{_grp: [deltas]}``.

#: expression -> source, for one trigger flavor: ``_row[...]`` reads
#: (``emit_row_expr``) or typed-column element reads.
_ExprSrc = Callable[[Expr | None, str], str]


class _SideSrc:
    """Source fragments of one side (the emitter's view of a SidePlan)."""

    def __init__(self, k: int, plan: SidePlan, side: Any, kept: bool) -> None:
        self.k = k
        self.plan = plan
        self.side = side
        #: ``result`` keeps the side's answer until a move marks it stale
        self.kept = kept
        #: placements netted per GROUP BY key
        self.grouped = bool(plan.group_by) and side.nets
        self.negated = side.key_sign == -1
        #: delta names once netted (every column is a ``_d{j}``)
        self.netted = [f"_d{j}" for j in range(plan.columns)]

    def bind(self, lines: list[str]) -> None:
        """Read the side's structures into locals."""
        lines.extend("    " + line for line in self.side.emit_bind(self.k, True))

    def extract(
        self, lines: list[str], indent: str, src: _ExprSrc, feed: Feed
    ) -> tuple[str, list[str]]:
        """One tuple's deltas, from a row or from column elements, under
        the feed's filter; returns the indent inside it and the delta
        names (a tuple-by-tuple side: its ``move`` arguments)."""
        if feed.where is not None:
            lines.append(f"{indent}if {src(feed.where, feed.alias)}:")
            indent += "    "

        def cells(refs: tuple[ColumnRef, ...]) -> str:
            # no key, one column's value, or the tuple of several
            values = [src(ref, feed.alias) for ref in refs]
            if len(values) < 2:
                return values[0] if values else "None"
            return "(" + ", ".join(values) + ")"

        def times_w(expr: Expr | None) -> str:
            if expr is None or expr == Const(1):
                return "_w"
            return "0" if expr == Const(0) else f"({src(expr, feed.alias)}) * _w"

        key = cells(feed.key)
        if not self.side.nets:
            # the arguments of the side's ``move``, as values
            deltas = [times_w(delta) for delta in feed.deltas]
            return indent, [key, times_w(feed.weight), cells(feed.group), *deltas]
        lines.append(f"{indent}_key = {'-' + key if self.negated else key}")
        lines.append(f"{indent}_wgt = {times_w(feed.weight)}")
        fresh = []
        for j, delta in enumerate(feed.deltas):
            if delta is None:
                fresh.append("_w")
            else:
                lines.append(f"{indent}_d{j} = {times_w(delta)}")
                fresh.append(f"_d{j}")
        if self.grouped:
            lines.append(f"{indent}_grp = {cells(feed.group)}")
        return indent, fresh

    def net(self, lines: list[str], indent: str, fresh: list[str]) -> None:
        """Coalesce the extracted deltas into ``_n{k}``: per correlation
        key ``[net weight, net deltas…]`` (grouped: ``[net weight, {group:
        net delta}]``).  Updates at one key telescope: a point side's old
        key → new key moves compose, and a shifted side's boundary (the
        prefix sum of *strictly lower* keys) is unchanged by updates at
        the key itself while result entries placed by earlier same-key
        events ride along later same-key shifts — so one net application
        per distinct key reproduces the per-event sequence exactly."""
        k = self.k
        lines.append(f"{indent}_e = _n{k}.get(_key)")
        lines.append(f"{indent}if _e is None:")
        if self.grouped:
            lines.append(f"{indent}    _n{k}[_key] = [_wgt, {{_grp: {fresh[0]}}}]")
            lines.append(f"{indent}else:")
            lines.append(f"{indent}    _e[0] += _wgt")
            lines.append(f"{indent}    _pg = _e[1]")
            lines.append(f"{indent}    _pg[_grp] = _pg.get(_grp, 0) + {fresh[0]}")
            return
        lines.append(f"{indent}    _n{k}[_key] = [{', '.join(['_wgt'] + fresh)}]")
        lines.append(f"{indent}else:")
        for slot, name in enumerate(["_wgt"] + fresh):
            lines.append(f"{indent}    _e[{slot}] += {name}")

    def apply(self, lines: list[str], indent: str, deltas: list[str]) -> None:
        """The side's apply fragment for the deltas at ``_key``:
        ``deltas`` names one local per column (under GROUP BY the
        fragment reads the per-group dict ``_pg`` instead; a
        tuple-by-tuple side takes one tuple's arguments as source)."""
        lines.extend(indent + line for line in self.side.emit_move(self.k, deltas))

    def mark(self, lines: list[str], indent: str) -> None:
        """The side moved: its kept answer is stale."""
        if self.kept:
            lines.append(f"{indent}_kp{self.k} = None")

    def load(self, lines: list[str]) -> None:
        """Bulk-load the side from ``_n{k}``, re-laid per key as
        ``Side.load`` takes it: ``{correlation attribute (not the stored
        key): (net weight, {group: net deltas})}``."""
        k = self.k
        attr = "-_key" if self.negated else "_key"
        placements = (
            "{_grp: (_d,) for _grp, _d in _e[1].items()}" if self.grouped else "{None: _e[1:]}"
        )
        lines.append(
            f"    _s{k}.load({{{attr}: (_e[0], {placements}) for _key, _e in _n{k}.items()}})"
        )

    def drain(self, lines: list[str]) -> None:
        """Apply ``_n{k}``: one fragment per live key, keys whose net
        deltas cancel skipped; a kept answer is marked stale once, if
        any key reached the side."""
        k = self.k
        if self.grouped:
            lines.append(f"    for _key, (_wgt, _pg) in _n{k}.items():")
            lines.append("        if _wgt == 0 and not any(_pg.values()):")
        else:
            names = ["_wgt"] + self.netted
            lines.append(f"    for _key, ({', '.join(names)}) in _n{k}.items():")
            lines.append(f"        if {' and '.join(f'{n} == 0' for n in names)}:")
        lines.append("            continue")
        self.apply(lines, "        ", self.netted)
        if self.kept:
            lines.append(f"    if _n{k}:")
            self.mark(lines, "        ")


def _column_loop(cols: dict[str, str]) -> str:
    """The ``for`` header walking ``_blk``'s weights and the columns
    ``cols`` names (column -> local) in step."""
    if not cols:
        return "for _w in _blk.weights:"
    fetch = ", ".join(f"_blk.column({column!r})" for column in cols)
    return f"for {', '.join(['_w', *cols.values()])} in zip(_blk.weights, {fetch}):"


def _aggr_emit(engine: AggregateIndexEngine) -> str:
    layout = engine.layout
    scalars = engine._scalars
    kept = engine.kept()
    sides = [
        _SideSrc(k, plan, side, k in kept)
        for k, (plan, side) in enumerate(zip(layout.sides, engine.sides))
    ]
    by_relation: dict[str, list[tuple[_SideSrc, Feed]]] = {}
    for side in sides:
        for feed in side.plan.feeds:
            by_relation.setdefault(feed.relation, []).append((side, feed))
    #: the plan's one side nets a batch in its own dicts
    tuplewise = not any(side.side.nets for side in sides)

    def bind_sides(lines: list[str]) -> None:
        for side in sides:
            side.bind(lines)

    def per_relation(lines: list[str], indent: str, body: Callable) -> None:
        branch = "if"
        for relation, members in by_relation.items():
            lines.append(f"{indent}{branch} _rel == {relation!r}:")
            branch = "elif"
            for side, feed in members:
                body(side, *side.extract(lines, indent + "    ", emit_row_expr, feed))

    lines: list[str] = [f"_kp{k} = None" for k in kept]

    def define(header: str) -> None:
        # a function that may mark a kept answer stale
        lines.append(header)
        if kept:
            lines.append("    global " + ", ".join(f"_kp{k}" for k in kept))

    # -- event shape: extract, apply ---------------------------------------
    define("def apply(self, event):")
    _emit_event_unpack(lines, "    ")
    bind_sides(lines)
    _emit_scalar_updates(lines, "    ", scalars)

    def event_body(side: _SideSrc, indent: str, fresh: list[str]) -> None:
        if side.grouped:
            lines.append(f"{indent}_pg = {{_grp: {fresh[0]}}}")
        side.apply(lines, indent, fresh)
        side.mark(lines, indent)

    per_relation(lines, "    ", event_body)
    lines.append("")

    # -- batch shape: extract + net per event, then drain ------------------
    def net_body(side: _SideSrc, indent: str, fresh: list[str]) -> None:
        if tuplewise:
            side.apply(lines, indent, fresh)
        else:
            side.net(lines, indent, fresh)

    def net_loop(source: str) -> None:
        for side in sides if not tuplewise else ():
            lines.append(f"    _n{side.k} = {{}}")
        if tuplewise:
            bind_sides(lines)
        lines.append(f"    for event in {source}:")
        _emit_event_unpack(lines, "        ")
        _emit_scalar_updates(lines, "        ", scalars)
        per_relation(lines, "        ", net_body)

    def drain(counted: str) -> None:
        # Shared tail of the batch and frame shapes.
        lines.append(f"    if _S.enabled and {counted}:")
        nets = " + ".join(f"len(_n{side.k})" for side in sides if not tuplewise) or "0"
        lines.append(f"        _S.observe('engine.batch_coalesced_keys', {nets})")
        if not tuplewise:
            bind_sides(lines)
            for side in sides:
                side.drain(lines)

    define("def apply_batch(self, events):")
    net_loop("events")
    drain("events")
    lines.append("")

    # -- warm shape: the batch shape's netting, then bulk loads ------------
    define("def warm_start(self, stream):")
    lines.append("    self._require_fresh()")
    net_loop("stream")
    for side in sides if not tuplewise else ():
        side.load(lines)
        side.mark(lines, "    ")
    lines.append("    return self.result()")
    lines.append("")

    if tuplewise:
        # -- frame shape, tuple by tuple: per relation a row function of
        # its columns (extraction, then the side's move statements), which
        # ``ColumnarFrame.feed`` calls in event order (a block that lacks
        # a column raises KeyError before any call).
        rows = []
        for n, (relation, members) in enumerate(by_relation.items()):
            cols: dict[str, str] = {}
            src = lambda expr, alias: emit_col_element(expr, alias, cols, "")  # noqa: E731
            body: list[str] = []
            for side, feed in members:
                side.apply(body, *side.extract(body, "    ", src, feed))
            lines.append(f"def _row{n}(self, _w, {', '.join(cols.values())}):")
            bind_sides(lines)
            lines.extend(body)
            rows.append(f"{relation!r}: (_row{n}, {tuple(cols)!r})")
        lines.append(f"_ROWS = {{{', '.join(rows)}}}")
        lines.append("def apply_frame(self, frame):")
        lines.append("    frame.feed(_ROWS, self, self.apply)")
        lines.append("    if _S.enabled and len(frame):")
        lines.append("        _S.observe('engine.batch_coalesced_keys', 0)")
        lines.append("")
    else:
        # -- frame shape: extract + net per column element, then drain -----
        # Fallback rows take ``apply_batch`` over the decoded events.
        # Everything inside the ``try`` writes only locals — a block that
        # does not fit the compiled column shape (missing column, value
        # the expression arithmetic rejects) raises KeyError/TypeError
        # *before* any engine state changes, so the decoded event path
        # governs.  A SUM/COUNT/AVG scalar folds into locals, a MIN/MAX
        # one (an ordered multiset) collects its (value, weight) pairs,
        # and either reaches its aggregate only after the whole frame
        # scanned clean.  A frame holds at most one block per relation
        # with its rows in event order, so each net dict's insertion
        # order (and each scalar's updates) matches the event loop's.
        define("def apply_frame(self, frame):")
        lines.append("    if frame.fallback:")
        lines.append("        return self.apply_batch(frame.events())")
        for side in sides:
            lines.append(f"    _n{side.k} = {{}}")
        folded = [scalar.aggregate.func in ("SUM", "COUNT", "AVG") for scalar in scalars.values()]
        for i, fold in enumerate(folded):
            lines.append(f"    _a{i} = _sc{i}.aggregate")
            held = f"_t{i}, _k{i} = _a{i}.total, _a{i}.count" if fold else f"_v{i} = []"
            lines.append(f"    {held}")
        lines.append("    try:")
        lines.append("        for _blk in frame.blocks:")
        lines.append("            _rel = _blk.relation")
        relations = dict.fromkeys([*by_relation, *(sc.relation for sc in scalars.values())])
        branch = "if"
        for relation in relations:
            cols = {}
            src = lambda expr, alias: emit_col_element(expr, alias, cols, "")  # noqa: E731
            body = []
            for i, (sub, scalar) in enumerate(scalars.items()):
                if scalar.relation == relation:
                    arg = src(sub.select[0].expr.arg, sub.relations[0].alias)
                    if folded[i]:
                        body += [f"_t{i} += ({arg}) * _w", f"_k{i} += _w"]
                    else:
                        body.append(f"_v{i}.append((({arg}), _w))")
            for side, feed in by_relation.get(relation, ()):
                side.net(body, *side.extract(body, "", src, feed))
            lines.append(f"            {branch} _rel == {relation!r}:")
            branch = "elif"
            lines.append(f"                {_column_loop(cols)}")
            lines.extend("                    " + line for line in body)
        lines.append("    except (KeyError, TypeError):")
        lines.append("        return self.apply_batch(frame.events())")
        for i, fold in enumerate(folded):
            if fold:
                lines.append(f"    _a{i}.total, _a{i}.count = _t{i}, _k{i}")
            else:
                lines.append(f"    for _x, _xw in _v{i}:")
                lines.append(f"        _a{i}.update(_x, _xw)")
        drain("len(frame)")
        lines.append("")

    lines += engine.reads_source()
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def specialize(engine) -> bool:
    """Compile (once per query) and install the emitted functions on
    ``engine``, bound to its sides; the aggregate-index engine calls it
    when it is built or restored, and a further call re-installs.

    Returns True when installed; False (with the ``codegen.unsupported``
    counter bumped) when the engine has no emitter.

    Raises:
        UnsupportedQueryError: when the emitter cannot write the plan.
    """
    if type(engine) is not AggregateIndexEngine:
        if _SINK.enabled:
            _SINK.inc("codegen.unsupported")
        return False
    entry = _CACHE.get(engine.query)
    if entry is None:
        if _SINK.enabled:
            _SINK.inc("codegen.cache_misses")
        start = time.perf_counter()
        source = _aggr_emit(engine)
        entry = _CACHE[engine.query] = (source, compile_source(source, "codegen"))
        if _SINK.enabled:
            _SINK.observe("codegen.compile_seconds", time.perf_counter() - start)
    elif _SINK.enabled:
        _SINK.inc("codegen.cache_hits")
    namespace = engine.bindings()
    exec(entry[1], namespace)
    for attr in _TRIGGER_ATTRS + (_SHARD_ATTRS if engine.shard_mode else ()):
        setattr(engine, attr, types.MethodType(namespace[attr], engine))
    engine.generated_source = entry[0]
    if _SINK.enabled:
        _SINK.inc("codegen.installed")
    return True


def generated_source(engine) -> str | None:
    """The source generated for ``engine``: the aggregate-index engine's
    emitted module, or the general algorithm's two loops; None when the
    engine runs hand-written code only."""
    return getattr(engine, "generated_source", None)
