"""Per-query trigger codegen: compile each query to specialized Python
triggers.

The interpreted engines pay a per-event tax that has nothing to do with
the index kernels PR 3 made fast: closure chains compiled from the AST
(`_compile_row_expr`), dict-dispatched comparators (``operator.le``
behind ``_COMPARATORS``) and aggregate dispatch on ``func`` strings.
DBToaster's lesson (PAPERS.md) is that an IVM system earns its constant
factors by *compiling* each query's trigger; this module does exactly
that for **every registry engine**:

* predicate tests become plain comparisons (``_k <= _g``),
* bound-variable extractors become direct row indexing (``_row['A']``),
* aggregate dispatch is monomorphized (a SUM scalar is ``.total``),
* the grouped engine's per-group loop hoists the group-key extraction
  and shift prologue,
* the conjunctive engine's per-relation factor-sum recombination is
  unrolled across the decomposition's terms at compile time,
* the hand-specialized engines (PSP, NQ1, NQ2, Q17, Q18) get their
  trigger bodies recompiled with the stable structures *and their
  bound methods* pre-bound as globals (Q18 additionally inlines and
  branch-specializes its refresh helper),
* compiled point/range/grouped engines get a generated columnar
  ``on_frame`` netting path (bail-before-mutate) — the hand-written
  frame overrides are gone.

Generated source is ``compile()``'d once and cached per
``(engine class, query AST)`` key — the AST nodes are frozen
dataclasses, so the key is hashable and exact; the source never
depends on the aggregate-index class, which the engine holds as a
plain attribute.  Installation binds the compiled functions as
*instance* attributes (``engine.on_event`` / ``engine.on_batch``); the
class-level interpreted triggers remain untouched (``--no-codegen`` and
:func:`uninstall` fall back to them).  The generated bodies
replicate the interpreted triggers' operation order and obs-counter
sites bit-for-bit: the differential suite asserts identical result
traces *and* identical rotation/probe counters, and the chaos/sharding
harnesses run unchanged because the quarantine prologue, WAL wrapping
(instance attributes are looked up per call) and the
``shard_partial``/``shard_probe`` class methods are preserved.

Engines pickle through their explicit ``__getstate__`` (pure data), so
compiled triggers never enter a snapshot; ``__setstate__`` re-installs
them, which is how codegen'd triggers survive the multiprocess workers'
``pickle.loads`` restore path.
"""

from __future__ import annotations

import os
import time
import types
from typing import Any, Callable

from repro.engine.aggr_index import (
    GroupedRangeIndexEngine,
    PointIndexEngine,
    RangeIndexEngine,
)
from repro.engine.conjunctive import ConjunctiveIndexEngine
from repro.engine.general import GeneralAlgorithmEngine, _peel_constant_scale
from repro.engine.queries.nq import NQ1RpaiEngine, NQ2RpaiEngine
from repro.engine.queries.psp import PSPRpaiEngine
from repro.engine.queries.tpch import Q17RpaiEngine, Q18RpaiEngine
from repro.obs import SINK as _SINK
from repro.query import codegen_runtime as _rt
from repro.query.ast import (
    AggrCall,
    AggrQuery,
    Arith,
    ColumnRef,
    Comparison,
    Const,
    Expr,
    SubqueryExpr,
    walk_expr,
)

__all__ = [
    "codegen_enabled",
    "set_codegen",
    "maybe_specialize",
    "specialize",
    "uninstall",
    "generated_source",
    "clear_cache",
    "UnsupportedTriggerError",
]


class UnsupportedTriggerError(Exception):
    """The engine/query shape has no specialized trigger emitter."""


def _env_default() -> bool:
    return os.environ.get("REPRO_CODEGEN", "1").strip().lower() not in (
        "",
        "0",
        "false",
        "no",
    )


#: Process-wide default, initialized from ``REPRO_CODEGEN`` (on unless
#: explicitly disabled).  Multiprocess shard workers inherit it via
#: fork, and the CLI's ``--no-codegen`` flips it (plus the env var, for
#: spawn-started children).
_ENABLED = _env_default()


def codegen_enabled() -> bool:
    return _ENABLED


def set_codegen(flag: bool) -> None:
    """Flip the process-wide codegen default (the CLI escape hatch)."""
    global _ENABLED
    _ENABLED = bool(flag)


class _Entry:
    __slots__ = ("key", "source", "code")

    def __init__(self, key: tuple, source: str, code: Any) -> None:
        self.key = key
        self.source = source
        self.code = code


#: key -> _Entry (or the _UNSUPPORTED sentinel for negative caching).
_CACHE: dict[tuple, Any] = {}
_UNSUPPORTED = object()


def clear_cache() -> None:
    _CACHE.clear()


# ---------------------------------------------------------------------------
# Expression emitters
# ---------------------------------------------------------------------------


def _emit_row_expr(expr: Expr | None, alias: str, row: str) -> str:
    """Source for a single-row expression, mirroring the closure
    semantics of :func:`repro.engine.general._compile_row_expr` (same
    operators, same evaluation order)."""
    if expr is None:
        return "1"
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, ColumnRef):
        if expr.relation != alias:
            raise UnsupportedTriggerError(f"column {expr} is not of alias {alias!r}")
        return f"{row}[{expr.column!r}]"
    if isinstance(expr, Arith):
        left = _emit_row_expr(expr.left, alias, row)
        right = _emit_row_expr(expr.right, alias, row)
        return f"({left} {expr.op} {right})"
    raise UnsupportedTriggerError(f"cannot emit row expression {expr!r}")


def _scalar_value_src(name: str, func: str) -> str:
    """Inline read of an ``_UncorrelatedScalar`` bound as global
    ``name`` — monomorphized on the aggregate function, matching
    ``_MaintainedAggregate.value`` exactly."""
    if func == "SUM":
        return f"{name}.aggregate.total"
    if func == "COUNT":
        return f"{name}.aggregate.count"
    if func == "AVG":
        return (
            f"({name}.aggregate.total / {name}.aggregate.count "
            f"if {name}.aggregate.count else 0)"
        )
    return f"{name}.value()"  # MIN/MAX: MinMaxView lookup stays a call


class _ScalarInfo:
    """Static description of one uncorrelated scalar subquery."""

    __slots__ = ("name", "func", "relation", "arg_src")

    def __init__(self, name: str, sub: AggrQuery) -> None:
        call = sub.select[0].expr
        if not isinstance(call, AggrCall):  # _UncorrelatedScalar enforces this
            raise UnsupportedTriggerError(f"unsupported scalar select {call}")
        self.name = name
        self.func = call.func
        self.relation = sub.relations[0].name
        alias = sub.relations[0].alias
        self.arg_src = _emit_row_expr(call.arg, alias, "_row")


def _scalar_infos(scalars: dict[AggrQuery, Any]) -> dict[AggrQuery, _ScalarInfo]:
    return {
        sub: _ScalarInfo(f"_sc{i}", sub) for i, sub in enumerate(scalars)
    }


def _emit_scalar_updates(
    lines: list[str], indent: str, infos: dict[AggrQuery, _ScalarInfo]
) -> None:
    """Per-event scalar routing, streamed exactly like the interpreted
    loop over ``_scalars.items()`` (value computed, then ``update``)."""
    for i, info in enumerate(infos.values()):
        lines.append(f"{indent}if _rel == {info.relation!r}:")
        if info.func in ("SUM", "COUNT", "AVG"):
            acc = f"_a{i}"
            lines.append(f"{indent}    {acc} = {info.name}.aggregate")
            lines.append(f"{indent}    {acc}.total += ({info.arg_src}) * _w")
            lines.append(f"{indent}    {acc}.count += _w")
        else:
            lines.append(f"{indent}    {info.name}.on_row(_row, _w)")


def _emit_fixed_expr(expr: Expr, infos: dict[AggrQuery, _ScalarInfo]) -> str:
    """The fixed probe side ``v``: constants, arithmetic and scalar
    subquery reads (mirrors ``_FixedSide.value``)."""
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, Arith):
        left = _emit_fixed_expr(expr.left, infos)
        right = _emit_fixed_expr(expr.right, infos)
        return f"({left} {expr.op} {right})"
    if isinstance(expr, SubqueryExpr):
        info = infos[expr.query]
        return _scalar_value_src(info.name, info.func)
    raise UnsupportedTriggerError(f"cannot emit fixed expression {expr!r}")


def _probe_src(op: str, index: str, probe: str) -> str:
    """Monomorphized ``_probe`` dispatch (repro.engine.aggr_index)."""
    if op == "=":
        return f"{index}.get({probe}, 0)"
    if op == "<":
        return f"({index}.total_sum() - {index}.get_sum({probe}, inclusive=True))"
    if op == "<=":
        return f"({index}.total_sum() - {index}.get_sum({probe}, inclusive=False))"
    if op == ">":
        return f"{index}.get_sum({probe}, inclusive=False)"
    if op == ">=":
        return f"{index}.get_sum({probe}, inclusive=True)"
    raise UnsupportedTriggerError(f"unsupported probe operator {op!r}")


def _column_probe_src(op: str, index: str, probe: str, columns: int) -> str:
    """Monomorphized ``probe_index`` (repro.engine.queries.common) on a
    ``columns``-wide RPAI tree: one call yields every column's sum."""
    if op == "=":
        zero = "0" if columns == 1 else repr((0,) * columns)
        return f"{index}.get({probe}, {zero})"
    if op in ("<", "<="):
        return f"{index}.suffix_sum({probe}, inclusive={op == '<='})"
    if op in (">", ">="):
        return f"{index}.get_sum({probe}, inclusive={op == '>='})"
    raise UnsupportedTriggerError(f"unsupported probe operator {op!r}")


# ---------------------------------------------------------------------------
# Generated columnar on_frame (the netting fast path over ColumnBlocks)
# ---------------------------------------------------------------------------


def _emit_col_element(expr: Expr | None, alias: str, cols: dict[str, str]) -> str:
    """Element-``_i`` source of a row expression evaluated off typed
    columns: per element it computes exactly what
    :func:`_emit_row_expr`'s source computes for the corresponding row
    (same operators, same evaluation order).  Column fetches are
    deduplicated into ``cols`` (column name -> hoisted local), so the
    caller hoists each ``block.column(name)`` once per block."""
    if expr is None:
        return "1"
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, ColumnRef):
        if expr.relation != alias:
            raise UnsupportedTriggerError(f"column {expr} is not of alias {alias!r}")
        local = cols.get(expr.column)
        if local is None:
            local = cols[expr.column] = f"_col{len(cols)}"
        return f"{local}[_i]"
    if isinstance(expr, Arith):
        left = _emit_col_element(expr.left, alias, cols)
        right = _emit_col_element(expr.right, alias, cols)
        return f"({left} {expr.op} {right})"
    raise UnsupportedTriggerError(f"cannot emit column expression {expr!r}")


def _emit_frame_scan(
    lines: list[str],
    relation: str,
    cols: dict[str, str],
    net_init: str,
    row_lines: list[str],
) -> None:
    """Shared skeleton of a generated ``on_frame``: bail to the (also
    compiled) ``on_batch`` on fallback rows or an armed quarantine,
    then net the main relation's deltas straight off the typed columns.

    Everything inside the ``try`` writes only locals — a block that
    does not fit the compiled column shape (missing column, value the
    expression arithmetic rejects) raises KeyError/TypeError *before*
    any engine state changes, so the per-row event path governs.  The
    fixed-side scalar updates are precomputed per block
    (:meth:`_FixedSide.column_updates` is pure) and applied only after
    the whole frame scanned clean.
    """
    lines.append("def on_frame(self, frame):")
    lines.append("    if frame.fallback or self._quarantine is not None:")
    lines.append("        return self.on_batch(frame.events())")
    lines.append(f"    _net = {net_init}")
    lines.append("    _fx = []")
    lines.append("    try:")
    lines.append("        for _blk in frame.blocks:")
    lines.append("            _fx.extend(self._fixed.column_updates(_blk))")
    lines.append(f"            if _blk.relation == {relation!r}:")
    for column, local in cols.items():
        lines.append(f"                {local} = _blk.column({column!r})")
    lines.append("                _wts = _blk.weights")
    lines.append("                for _i in range(len(_wts)):")
    lines.append("                    _w = _wts[_i]")
    for row_line in row_lines:
        lines.append("                    " + row_line)
    lines.append("    except (KeyError, TypeError):")
    lines.append("        return self.on_batch(frame.events())")
    lines.append("    for _fsc, _fvals, _fwts in _fx:")
    lines.append("        _fsc.apply_columns(_fvals, _fwts)")


# ---------------------------------------------------------------------------
# PointIndexEngine (PAI_EQUALITY — EQ)
# ---------------------------------------------------------------------------


def _point_key(engine: PointIndexEngine) -> tuple:
    return ("point", engine._plan.query)


def _point_emit(engine: PointIndexEngine) -> str:
    query = engine._plan.query
    spec = engine.spec
    alias = query.relations[0].alias
    relation = engine.relation
    infos = _scalar_infos(engine._fixed._scalars)

    cols = engine._group_cols
    if len(cols) == 1:
        group_src = f"_row[{cols[0]!r}]"
    else:
        group_src = "(" + ", ".join(f"_row[{c!r}]" for c in cols) + ")"
    inner_alias = spec.inner_col.relation
    inner_src = _emit_row_expr(spec.inner_arg, inner_alias, "_row")
    scale, call = _peel_constant_scale(query.select[0].expr)
    res_src = _emit_row_expr(call.arg, alias, "_row")
    fixed_src = _emit_fixed_expr(spec.fixed_expr, infos)
    probe = _probe_src(spec.outer_op, "_ai", "_pv")

    def apply_body(lines: list[str], indent: str) -> None:
        # Mirrors PointIndexEngine._apply_group line for line.
        lines.append(f"{indent}if _S.enabled:")
        lines.append(f"{indent}    _S.inc('engine.point_applies')")
        lines.append(f"{indent}_old_rhs = _bm.get(_group, 0)")
        lines.append(f"{indent}_old_res = _rm.get(_group, 0)")
        lines.append(f"{indent}_new_rhs = _old_rhs + _ird")
        lines.append(f"{indent}_new_res = _old_res + _res")
        lines.append(f"{indent}if _old_res != 0:")
        lines.append(f"{indent}    _ai.add(_old_rhs, -_old_res)")
        lines.append(f"{indent}if _new_res != 0:")
        lines.append(f"{indent}    _ai.add(_new_rhs, _new_res)")
        lines.append(f"{indent}_bm.add(_group, _ird)")
        lines.append(f"{indent}_rm.add(_group, _res)")

    def result_tail(lines: list[str]) -> None:
        lines.append("    if _S.enabled:")
        lines.append("        _S.inc('engine.results')")
        lines.append("        _S.inc('engine.result_probes')")
        lines.append(f"    _pv = {fixed_src}")
        lines.append(f"    return {scale!r} * {probe}")

    lines: list[str] = []
    lines.append("def on_event(self, event):")
    lines.append("    if _S.enabled:")
    lines.append("        _S.inc('engine.events')")
    lines.append("    guard = self._quarantine")
    lines.append("    if guard is not None and not guard.admit(event):")
    lines.append("        return self.result()")
    lines.append("    _rel = event.relation")
    lines.append("    _row = event.row")
    lines.append("    _w = event.weight")
    lines.append("    _ai = self.aggr_index")
    _emit_scalar_updates(lines, "    ", infos)
    lines.append(f"    if _rel == {relation!r}:")
    lines.append(f"        _group = {group_src}")
    lines.append(f"        _ird = ({inner_src}) * _w")
    lines.append(f"        _res = ({res_src}) * _w")
    lines.append("        _bm = self.bound_map")
    lines.append("        _rm = self.res_map")
    apply_body(lines, "        ")
    result_tail(lines)
    lines.append("")

    lines.append("def on_batch(self, events):")
    lines.append("    if _S.enabled:")
    lines.append("        _S.inc('engine.batches')")
    lines.append("        _S.observe('engine.batch_size', len(events))")
    lines.append("    guard = self._quarantine")
    lines.append("    if guard is not None:")
    lines.append("        events = guard.admit_batch(events)")
    lines.append("        if not events:")
    lines.append("            return self.result()")
    lines.append("    _net = {}")
    lines.append("    for event in events:")
    lines.append("        _rel = event.relation")
    lines.append("        _row = event.row")
    lines.append("        _w = event.weight")
    _emit_scalar_updates(lines, "        ", infos)
    lines.append(f"        if _rel != {relation!r}:")
    lines.append("            continue")
    lines.append(f"        _group = {group_src}")
    lines.append(f"        _ird = ({inner_src}) * _w")
    lines.append(f"        _res = ({res_src}) * _w")
    lines.append("        _entry = _net.get(_group)")
    lines.append("        if _entry is None:")
    lines.append("            _net[_group] = [_ird, _res]")
    lines.append("        else:")
    lines.append("            _entry[0] += _ird")
    lines.append("            _entry[1] += _res")
    lines.append("    _ai = self.aggr_index")
    lines.append("    _bm = self.bound_map")
    lines.append("    _rm = self.res_map")
    lines.append("    for _group, (_ird, _res) in _net.items():")
    lines.append("        if _ird == 0 and _res == 0:")
    lines.append("            continue")
    apply_body(lines, "        ")
    result_tail(lines)
    lines.append("")

    # Columnar trigger: the netting loop reads the typed columns
    # directly, so per-row dicts are never materialized; the net dict's
    # insertion order matches the event loop's (a frame holds at most
    # one block per relation, in first-seen order).
    fcols: dict[str, str] = {}
    for column in cols:
        fcols[column] = f"_col{len(fcols)}"
    if len(cols) == 1:
        fgroup_src = f"{fcols[cols[0]]}[_i]"
    else:
        fgroup_src = "(" + ", ".join(f"{fcols[c]}[_i]" for c in cols) + ")"
    finner_src = _emit_col_element(spec.inner_arg, inner_alias, fcols)
    fres_src = _emit_col_element(call.arg, alias, fcols)
    row_lines = [
        f"_group = {fgroup_src}",
        f"_ird = ({finner_src}) * _w",
        f"_res = ({fres_src}) * _w",
        "_entry = _net.get(_group)",
        "if _entry is None:",
        "    _net[_group] = [_ird, _res]",
        "else:",
        "    _entry[0] += _ird",
        "    _entry[1] += _res",
    ]
    _emit_frame_scan(lines, relation, fcols, "{}", row_lines)
    lines.append("    _ai = self.aggr_index")
    lines.append("    _bm = self.bound_map")
    lines.append("    _rm = self.res_map")
    lines.append("    for _group, (_ird, _res) in _net.items():")
    lines.append("        if _ird == 0 and _res == 0:")
    lines.append("            continue")
    apply_body(lines, "        ")
    result_tail(lines)
    return "\n".join(lines) + "\n"


def _point_bind(engine: PointIndexEngine) -> dict[str, Any]:
    return {
        f"_sc{i}": scalar
        for i, scalar in enumerate(engine._fixed._scalars.values())
    }


# ---------------------------------------------------------------------------
# RangeIndexEngine (RPAI_INEQUALITY — VWAP)
# ---------------------------------------------------------------------------


def _range_key(engine: RangeIndexEngine) -> tuple:
    return ("range", engine._plan.query)


def _range_emit(engine: RangeIndexEngine) -> str:
    query = engine._plan.query
    spec = engine.spec
    alias = query.relations[0].alias
    relation = engine.relation
    infos = _scalar_infos(engine._fixed._scalars)

    col = repr(engine._key_col)
    key_src = f"(-_row[{col}])" if engine._key_sign == -1 else f"_row[{col}]"
    inner_alias = spec.inner_col.relation
    inner_src = _emit_row_expr(spec.inner_arg, inner_alias, "_row")
    scale, call = _peel_constant_scale(query.select[0].expr)
    res_src = _emit_row_expr(call.arg, alias, "_row")
    fixed_src = _emit_fixed_expr(spec.fixed_expr, infos)
    probe = _probe_src(spec.outer_op, "_ai", "_pv")
    inclusive_inner = engine._inclusive_inner

    def apply_body(lines: list[str], indent: str) -> None:
        # Mirrors RangeIndexEngine._apply_outer with the inclusive/
        # strict inner-θ branch resolved at compile time.
        lines.append(f"{indent}if _S.enabled:")
        lines.append(f"{indent}    _S.inc('engine.range_applies')")
        lines.append(f"{indent}_old, _pfx = _bm.fetch_add(_key, _vol)")
        if inclusive_inner:
            lines.append(f"{indent}_ai.shift_keys(_pfx, _vol, inclusive=False)")
            lines.append(f"{indent}if _res != 0:")
            lines.append(f"{indent}    _ai.add(_pfx + _old + _vol, _res)")
        else:
            lines.append(
                f"{indent}_ai.shift_keys(_pfx, _vol, inclusive=_old == 0)"
            )
            lines.append(f"{indent}if _res != 0:")
            lines.append(f"{indent}    _ai.add(_pfx, _res)")

    def result_tail(lines: list[str]) -> None:
        lines.append("    if _S.enabled:")
        lines.append("        _S.inc('engine.results')")
        lines.append("        _S.inc('engine.result_probes')")
        lines.append(f"    _pv = {fixed_src}")
        lines.append(f"    return {scale!r} * {probe}")

    lines: list[str] = []
    lines.append("def on_event(self, event):")
    lines.append("    if _S.enabled:")
    lines.append("        _S.inc('engine.events')")
    lines.append("    guard = self._quarantine")
    lines.append("    if guard is not None and not guard.admit(event):")
    lines.append("        return self.result()")
    lines.append("    _rel = event.relation")
    lines.append("    _row = event.row")
    lines.append("    _w = event.weight")
    lines.append("    _ai = self.aggr_index")
    _emit_scalar_updates(lines, "    ", infos)
    lines.append(f"    if _rel == {relation!r}:")
    lines.append(f"        _key = {key_src}")
    lines.append(f"        _vol = ({inner_src}) * _w")
    lines.append(f"        _res = ({res_src}) * _w")
    lines.append("        _bm = self.bound_map")
    apply_body(lines, "        ")
    result_tail(lines)
    lines.append("")

    lines.append("def on_batch(self, events):")
    lines.append("    if _S.enabled:")
    lines.append("        _S.inc('engine.batches')")
    lines.append("        _S.observe('engine.batch_size', len(events))")
    lines.append("    guard = self._quarantine")
    lines.append("    if guard is not None:")
    lines.append("        events = guard.admit_batch(events)")
    lines.append("        if not events:")
    lines.append("            return self.result()")
    lines.append("    _net = {}")
    lines.append("    for event in events:")
    lines.append("        _rel = event.relation")
    lines.append("        _row = event.row")
    lines.append("        _w = event.weight")
    _emit_scalar_updates(lines, "        ", infos)
    lines.append(f"        if _rel != {relation!r}:")
    lines.append("            continue")
    lines.append(f"        _key = {key_src}")
    lines.append(f"        _vol = ({inner_src}) * _w")
    lines.append(f"        _res = ({res_src}) * _w")
    lines.append("        _entry = _net.get(_key)")
    lines.append("        if _entry is None:")
    lines.append("            _net[_key] = [_vol, _res]")
    lines.append("        else:")
    lines.append("            _entry[0] += _vol")
    lines.append("            _entry[1] += _res")
    lines.append("    _ai = self.aggr_index")
    lines.append("    _bm = self.bound_map")
    lines.append("    for _key, (_vol, _res) in _net.items():")
    lines.append("        if _vol == 0 and _res == 0:")
    lines.append("            continue")
    apply_body(lines, "        ")
    result_tail(lines)
    lines.append("")

    # Columnar trigger — the range twin of the point engine's generated
    # on_frame (stored keys read straight off the key column, sign
    # applied element-wise).
    fcols: dict[str, str] = {engine._key_col: "_col0"}
    fkey_src = (
        f"-_col0[_i]" if engine._key_sign == -1 else "_col0[_i]"
    )
    finner_src = _emit_col_element(spec.inner_arg, inner_alias, fcols)
    fres_src = _emit_col_element(call.arg, alias, fcols)
    row_lines = [
        f"_key = {fkey_src}",
        f"_vol = ({finner_src}) * _w",
        f"_res = ({fres_src}) * _w",
        "_entry = _net.get(_key)",
        "if _entry is None:",
        "    _net[_key] = [_vol, _res]",
        "else:",
        "    _entry[0] += _vol",
        "    _entry[1] += _res",
    ]
    _emit_frame_scan(lines, relation, fcols, "{}", row_lines)
    lines.append("    _ai = self.aggr_index")
    lines.append("    _bm = self.bound_map")
    lines.append("    for _key, (_vol, _res) in _net.items():")
    lines.append("        if _vol == 0 and _res == 0:")
    lines.append("            continue")
    apply_body(lines, "        ")
    result_tail(lines)
    return "\n".join(lines) + "\n"


def _range_bind(engine: RangeIndexEngine) -> dict[str, Any]:
    return {
        f"_sc{i}": scalar
        for i, scalar in enumerate(engine._fixed._scalars.values())
    }


# ---------------------------------------------------------------------------
# GroupedRangeIndexEngine (RPAI_INEQUALITY with GROUP BY — grouped VWAP)
# ---------------------------------------------------------------------------
# The trigger body *is* a loop over the live per-group indexes, so the
# emitter generates that loop instead of a fixed operation sequence:
# group-key extraction and the shift boundary are hoisted out of it
# (computed once per coalesced key), the inclusive/strict inner-θ branch
# and the key sign are resolved at compile time.


def _grouped_key(engine: GroupedRangeIndexEngine) -> tuple:
    return ("grouped", engine._plan.query)


def _grouped_emit(engine: GroupedRangeIndexEngine) -> str:
    query = engine._plan.query
    spec = engine.spec
    alias = query.relations[0].alias
    relation = engine.relation
    infos = _scalar_infos(engine._fixed._scalars)

    col = repr(engine._key_col)
    key_src = f"(-_row[{col}])" if engine._key_sign == -1 else f"_row[{col}]"
    inner_alias = spec.inner_col.relation
    inner_src = _emit_row_expr(spec.inner_arg, inner_alias, "_row")
    aggregate_items = [
        item
        for item in query.select
        if any(isinstance(node, AggrCall) for node in walk_expr(item.expr))
    ]
    scale, call = _peel_constant_scale(aggregate_items[0].expr)
    res_src = _emit_row_expr(call.arg, alias, "_row")
    gcols = engine._group_columns
    if len(gcols) == 1:
        gkey_src = f"_row[{gcols[0]!r}]"
    else:
        gkey_src = "(" + ", ".join(f"_row[{c!r}]" for c in gcols) + ")"
    fixed_src = _emit_fixed_expr(spec.fixed_expr, infos)
    probe = _probe_src(spec.outer_op, "_idx", "_pv")
    inclusive_inner = engine._inclusive_inner

    def shift_prologue(lines: list[str], indent: str) -> None:
        # Mirrors GroupedRangeIndexEngine._apply_key up to the per-group
        # result placement: counters, the shared bound map's update and
        # boundary, the same range shift fanned over every live group
        # index.
        lines.append(f"{indent}if _S.enabled:")
        lines.append(f"{indent}    _S.inc('engine.grouped_applies')")
        lines.append(
            f"{indent}    _S.observe('engine.grouped_fanout', len(_gi))"
        )
        lines.append(f"{indent}_old, _pfx = _bm.fetch_add(_key, _vol)")
        if inclusive_inner:
            lines.append(f"{indent}_new = _pfx + _old + _vol")
            lines.append(f"{indent}for _idx in _gi.values():")
            lines.append(f"{indent}    _idx.shift_keys(_pfx, _vol, inclusive=False)")
        else:
            lines.append(f"{indent}_new = _pfx")
            lines.append(f"{indent}_inc = _old == 0")
            lines.append(f"{indent}for _idx in _gi.values():")
            lines.append(f"{indent}    _idx.shift_keys(_pfx, _vol, inclusive=_inc)")

    def group_add(lines: list[str], indent: str, gkey: str, res: str) -> None:
        # One group's net result contribution at the post-shift key,
        # with the lazy index creation and empty-index pruning of the
        # interpreted loop.
        lines.append(f"{indent}_idx = _gi.get({gkey})")
        lines.append(f"{indent}if _idx is None:")
        lines.append(f"{indent}    _idx = _gi[{gkey}] = _mkindex(prune_zeros=True)")
        lines.append(f"{indent}_idx.add(_new, {res})")
        lines.append(f"{indent}if not len(_idx):")
        lines.append(f"{indent}    del _gi[{gkey}]")

    def result_tail(lines: list[str]) -> None:
        # Inlined grouped result(): the fixed probe is hoisted out of
        # the per-group loop; _probe's counter site is per live group.
        lines.append("    if _S.enabled:")
        lines.append("        _S.inc('engine.results')")
        lines.append(f"    _pv = {fixed_src}")
        lines.append("    _out = {}")
        lines.append("    for _gk, _idx in self.group_indexes.items():")
        lines.append("        if _S.enabled:")
        lines.append("            _S.inc('engine.result_probes')")
        lines.append(f"        _val = {scale!r} * {probe}")
        lines.append("        if _val != 0:")
        lines.append("            _out[_gk] = _val")
        lines.append("    return _out")

    lines: list[str] = []
    lines.append("def on_event(self, event):")
    lines.append("    if _S.enabled:")
    lines.append("        _S.inc('engine.events')")
    lines.append("    guard = self._quarantine")
    lines.append("    if guard is not None and not guard.admit(event):")
    lines.append("        return self.result()")
    lines.append("    _rel = event.relation")
    lines.append("    _row = event.row")
    lines.append("    _w = event.weight")
    _emit_scalar_updates(lines, "    ", infos)
    lines.append(f"    if _rel == {relation!r}:")
    lines.append(f"        _key = {key_src}")
    lines.append(f"        _vol = ({inner_src}) * _w")
    lines.append(f"        _res = ({res_src}) * _w")
    lines.append(f"        _gkey = {gkey_src}")
    lines.append("        _gi = self.group_indexes")
    lines.append("        _bm = self.bound_map")
    shift_prologue(lines, "        ")
    lines.append("        if _res != 0:")
    group_add(lines, "            ", "_gkey", "_res")
    result_tail(lines)
    lines.append("")

    lines.append("def on_batch(self, events):")
    lines.append("    if _S.enabled:")
    lines.append("        _S.inc('engine.batches')")
    lines.append("        _S.observe('engine.batch_size', len(events))")
    lines.append("    guard = self._quarantine")
    lines.append("    if guard is not None:")
    lines.append("        events = guard.admit_batch(events)")
    lines.append("        if not events:")
    lines.append("            return self.result()")
    lines.append("    _net = {}")
    lines.append("    for event in events:")
    lines.append("        _rel = event.relation")
    lines.append("        _row = event.row")
    lines.append("        _w = event.weight")
    _emit_scalar_updates(lines, "        ", infos)
    lines.append(f"        if _rel != {relation!r}:")
    lines.append("            continue")
    lines.append(f"        _key = {key_src}")
    lines.append(f"        _vol = ({inner_src}) * _w")
    lines.append(f"        _res = ({res_src}) * _w")
    lines.append(f"        _gkey = {gkey_src}")
    lines.append("        _entry = _net.get(_key)")
    lines.append("        if _entry is None:")
    lines.append("            _entry = _net[_key] = [0.0, {}]")
    lines.append("        _entry[0] += _vol")
    lines.append("        _pg = _entry[1]")
    lines.append("        _pg[_gkey] = _pg.get(_gkey, 0) + _res")
    lines.append("    _gi = self.group_indexes")
    lines.append("    _bm = self.bound_map")
    lines.append("    for _key, (_vol, _pg) in _net.items():")
    lines.append("        if _vol == 0 and all(_r == 0 for _r in _pg.values()):")
    lines.append("            continue")
    shift_prologue(lines, "        ")
    lines.append("        for _gkey, _res in _pg.items():")
    lines.append("            if _res == 0:")
    lines.append("                continue")
    group_add(lines, "            ", "_gkey", "_res")
    result_tail(lines)
    lines.append("")

    # Columnar trigger: same netting as on_batch off the typed columns.
    fcols: dict[str, str] = {engine._key_col: "_col0"}
    fkey_src = "-_col0[_i]" if engine._key_sign == -1 else "_col0[_i]"
    finner_src = _emit_col_element(spec.inner_arg, inner_alias, fcols)
    fres_src = _emit_col_element(call.arg, alias, fcols)
    for column in gcols:
        if column not in fcols:
            fcols[column] = f"_col{len(fcols)}"
    if len(gcols) == 1:
        fgkey_src = f"{fcols[gcols[0]]}[_i]"
    else:
        fgkey_src = "(" + ", ".join(f"{fcols[c]}[_i]" for c in gcols) + ")"
    row_lines = [
        f"_key = {fkey_src}",
        f"_vol = ({finner_src}) * _w",
        f"_res = ({fres_src}) * _w",
        f"_gkey = {fgkey_src}",
        "_entry = _net.get(_key)",
        "if _entry is None:",
        "    _entry = _net[_key] = [0.0, {}]",
        "_entry[0] += _vol",
        "_pg = _entry[1]",
        "_pg[_gkey] = _pg.get(_gkey, 0) + _res",
    ]
    _emit_frame_scan(lines, relation, fcols, "{}", row_lines)
    lines.append("    _gi = self.group_indexes")
    lines.append("    _bm = self.bound_map")
    lines.append("    for _key, (_vol, _pg) in _net.items():")
    lines.append("        if _vol == 0 and all(_r == 0 for _r in _pg.values()):")
    lines.append("            continue")
    shift_prologue(lines, "        ")
    lines.append("        for _gkey, _res in _pg.items():")
    lines.append("            if _res == 0:")
    lines.append("                continue")
    group_add(lines, "            ", "_gkey", "_res")
    result_tail(lines)
    return "\n".join(lines) + "\n"


def _grouped_bind(engine: GroupedRangeIndexEngine) -> dict[str, Any]:
    bindings: dict[str, Any] = {
        f"_sc{i}": scalar
        for i, scalar in enumerate(engine._fixed._scalars.values())
    }
    bindings["_mkindex"] = engine._index_cls
    return bindings


# ---------------------------------------------------------------------------
# GeneralAlgorithmEngine (SQ1 / SQ2)
# ---------------------------------------------------------------------------


class _CorrInfo:
    """Static description of one correlated subquery (Algorithm 3)."""

    __slots__ = ("name", "func", "relation", "theta", "g_expr",
                 "inner_key_src", "inner_arg_src", "scale")

    def __init__(
        self, name: str, sub: AggrQuery, correlated: Any, outer_alias: str
    ) -> None:
        self.name = name
        self.func = correlated.func
        if self.func not in ("SUM", "COUNT", "AVG"):
            raise UnsupportedTriggerError(
                f"correlated {self.func} needs the ordered bound map walk"
            )
        self.relation = correlated.relation
        self.theta = correlated.theta
        self.scale = correlated.scale
        inner_alias = sub.relations[0].alias
        pred = sub.where
        assert isinstance(pred, Comparison)  # _CorrelatedSubquery enforces
        f_expr, _theta, g_expr = correlated._split_predicate(
            pred, inner_alias, outer_alias
        )
        self.g_expr = g_expr
        self.inner_key_src = _emit_row_expr(f_expr, inner_alias, "_row")
        call = sub.select[0].expr
        if isinstance(call, Arith):  # constant-scaled aggregate
            _scale, call = _peel_constant_scale(call)
        assert isinstance(call, AggrCall)
        self.inner_arg_src = _emit_row_expr(call.arg, inner_alias, "_row")

    def value_src(self, g_src: str) -> str:
        """Inline of ``_CorrelatedSubquery.value(g)``."""
        scale = repr(self.scale)
        if self.func == "SUM":
            return f"({scale} * {self.name}.free_sum[{g_src}])"
        if self.func == "COUNT":
            return f"({scale} * {self.name}.free_count[{g_src}])"
        return (
            f"({scale} * (({self.name}.free_sum[{g_src}] / "
            f"{self.name}.free_count[{g_src}]) "
            f"if {self.name}.free_count[{g_src}] else 0))"
        )


def _ga_statics(engine: GeneralAlgorithmEngine):
    """Static emission inputs for the general algorithm; raises
    :class:`UnsupportedTriggerError` on shapes that need the
    interpreted paths (correlated MIN/MAX)."""
    query = engine.query
    alias = engine.alias
    infos = _scalar_infos(engine._scalars)
    corr_infos: dict[AggrQuery, _CorrInfo] = {}
    for i, (sub, correlated) in enumerate(engine._correlated.items()):
        corr_infos[sub] = _CorrInfo(f"_c{i}", sub, correlated, alias)

    def side_src(expr: Expr, row: str) -> str:
        if isinstance(expr, Const):
            return repr(expr.value)
        if isinstance(expr, ColumnRef):
            if expr.relation != alias:
                raise UnsupportedTriggerError(f"unexpected alias in {expr}")
            return f"{row}[{expr.column!r}]"
        if isinstance(expr, Arith):
            return (
                f"({side_src(expr.left, row)} {expr.op} "
                f"{side_src(expr.right, row)})"
            )
        if isinstance(expr, SubqueryExpr):
            if expr.query in corr_infos:
                info = corr_infos[expr.query]
                g_src = _emit_row_expr(info.g_expr, alias, row)
                return info.value_src(g_src)
            info = infos[expr.query]
            return _scalar_value_src(info.name, info.func)
        raise UnsupportedTriggerError(f"unsupported predicate operand {expr!r}")

    predicates = []
    for conjunct in query.conjuncts():
        if not isinstance(conjunct, Comparison):
            raise UnsupportedTriggerError("non-conjunctive predicate")
        op = "!=" if conjunct.op == "<>" else conjunct.op
        op = "==" if op == "=" else op
        predicates.append(
            f"({side_src(conjunct.left, '_orow')} {op} "
            f"{side_src(conjunct.right, '_orow')})"
        )
    return infos, corr_infos, predicates


def _ga_key(engine: GeneralAlgorithmEngine) -> tuple:
    return ("general", engine.query)


def _ga_emit(engine: GeneralAlgorithmEngine) -> str:
    query = engine.query
    relation = engine.relation
    alias = engine.alias
    infos, corr_infos, predicates = _ga_statics(engine)

    cols = engine._group_columns
    group_src = "(" + ", ".join(f"_row[{c!r}]" for c in cols) + ("," if len(cols) == 1 else "") + ")"
    _scale, call = _peel_constant_scale(query.select[0].expr)
    res_arg_src = _emit_row_expr(call.arg, alias, "_row")
    theta_ops = {"=": "==", "<>": "!="}

    def emit_free_pass(lines: list[str], indent: str, info: _CorrInfo,
                       val: str, wgt: str) -> None:
        op = theta_ops.get(info.theta, info.theta)
        lines.append(f"{indent}_fs = {info.name}.free_sum")
        lines.append(f"{indent}_fc = {info.name}.free_count")
        lines.append(f"{indent}for _g in _fs:")
        lines.append(f"{indent}    if _k {op} _g:")
        lines.append(f"{indent}        _fs[_g] += {val}")
        lines.append(f"{indent}        _fc[_g] += {wgt}")

    def emit_recompute(lines: list[str]) -> None:
        # Mirrors GeneralAlgorithmEngine._recompute with the predicate
        # closures unrolled to plain comparisons.
        lines.append("    if _S.enabled:")
        lines.append("        _S.inc('engine.result_recomputes')")
        lines.append("        _S.observe('engine.result_map_size', len(self._res_sum))")
        lines.append("    _total = 0")
        lines.append("    _count = 0")
        lines.append("    _rcnt = self._res_count")
        lines.append("    _rrep = self._res_repr")
        lines.append("    for _gkey, _gsum in self._res_sum.items():")
        lines.append("        _orow = _rrep[_gkey]")
        for pred in predicates:
            lines.append(f"        if not {pred}:")
            lines.append("            continue")
        lines.append("        _total += _gsum")
        lines.append("        _count += _rcnt[_gkey]")
        if engine._result_func == "SUM":
            lines.append(f"    _result = {engine._result_scale!r} * _total")
        elif engine._result_func == "COUNT":
            lines.append(f"    _result = {engine._result_scale!r} * _count")
        else:
            lines.append(
                f"    _result = {engine._result_scale!r} * "
                "(_total / _count if _count else 0)"
            )
        lines.append("    self._result = _result")
        lines.append("    return _result")

    lines: list[str] = []
    lines.append("def on_event(self, event):")
    lines.append("    if _S.enabled:")
    lines.append("        _S.inc('engine.events')")
    lines.append("    guard = self._quarantine")
    lines.append("    if guard is not None and not guard.admit(event):")
    lines.append("        return self.result()")
    lines.append("    _rel = event.relation")
    lines.append("    _row = event.row")
    lines.append("    _w = event.weight")
    _emit_scalar_updates(lines, "    ", infos)
    for info in corr_infos.values():
        lines.append(f"    if _rel == {info.relation!r}:")
        lines.append(f"        _k = {info.inner_key_src}")
        lines.append(f"        _v = ({info.inner_arg_src}) * _w")
        lines.append(f"        {info.name}.bound_sum.add(_k, _v)")
        lines.append(f"        {info.name}.bound_count.add(_k, _w)")
        emit_free_pass(lines, "        ", info, "_v", "_w")
    lines.append(f"    if _rel == {relation!r}:")
    lines.append(f"        _key = {group_src}")
    lines.append(f"        _val = {res_arg_src}")
    lines.append("        self._apply_outer_group(_key, _val * _w, _w)")
    emit_recompute(lines)
    lines.append("")

    lines.append("def on_batch(self, events):")
    lines.append("    if _S.enabled:")
    lines.append("        _S.inc('engine.batches')")
    lines.append("        _S.observe('engine.batch_size', len(events))")
    lines.append("    guard = self._quarantine")
    lines.append("    if guard is not None:")
    lines.append("        events = guard.admit_batch(events)")
    lines.append("        if not events:")
    lines.append("            return self.result()")
    for i in range(len(corr_infos)):
        lines.append(f"    _net{i} = {{}}")
    lines.append("    _onet = {}")
    lines.append("    _oorder = []")
    lines.append("    for event in events:")
    lines.append("        _rel = event.relation")
    lines.append("        _row = event.row")
    lines.append("        _w = event.weight")
    _emit_scalar_updates(lines, "        ", infos)
    for i, info in enumerate(corr_infos.values()):
        lines.append(f"        if _rel == {info.relation!r}:")
        lines.append(f"            _k = {info.inner_key_src}")
        lines.append(f"            _v = ({info.inner_arg_src}) * _w")
        lines.append(f"            _entry = _net{i}.get(_k)")
        lines.append("            if _entry is None:")
        lines.append(f"                _net{i}[_k] = [_v, _w]")
        lines.append("            else:")
        lines.append("                _entry[0] += _v")
        lines.append("                _entry[1] += _w")
    lines.append(f"        if _rel == {relation!r}:")
    lines.append(f"            _key = {group_src}")
    lines.append(f"            _val = {res_arg_src}")
    lines.append("            _entry = _onet.get(_key)")
    lines.append("            if _entry is None:")
    lines.append("                _onet[_key] = [_val * _w, _w]")
    lines.append("                _oorder.append(_key)")
    lines.append("            else:")
    lines.append("                _entry[0] += _val * _w")
    lines.append("                _entry[1] += _w")
    lines.append("    if _S.enabled and events:")
    nets = " + ".join(
        [f"len(_net{i})" for i in range(len(corr_infos))] + ["len(_onet)"]
    )
    lines.append(f"        _S.observe('engine.batch_coalesced_keys', {nets})")
    for i, info in enumerate(corr_infos.values()):
        lines.append(f"    for _k, (_v, _wn) in _net{i}.items():")
        lines.append("        if _v == 0 and _wn == 0:")
        lines.append("            continue")
        lines.append(f"        {info.name}.bound_sum.add(_k, _v)")
        lines.append(f"        {info.name}.bound_count.add(_k, _wn)")
        emit_free_pass(lines, "        ", info, "_v", "_wn")
    lines.append("    _rcnt = self._res_count")
    lines.append("    for _key in _oorder:")
    lines.append("        _sd, _cd = _onet[_key]")
    lines.append("        if _cd == 0 and _key not in _rcnt:")
    lines.append("            continue")
    lines.append("        if _sd == 0 and _cd == 0:")
    lines.append("            continue")
    lines.append("        self._apply_outer_group(_key, _sd, int(_cd))")
    emit_recompute(lines)
    return "\n".join(lines) + "\n"


def _ga_bind(engine: GeneralAlgorithmEngine) -> dict[str, Any]:
    bindings: dict[str, Any] = {
        f"_sc{i}": scalar for i, scalar in enumerate(engine._scalars.values())
    }
    bindings.update(
        {f"_c{i}": c for i, c in enumerate(engine._correlated.values())}
    )
    return bindings


# ---------------------------------------------------------------------------
# ConjunctiveIndexEngine (RPAI_CONJUNCTIVE — MST)
# ---------------------------------------------------------------------------
# Algorithm 4's per-relation factor-sum recombination is unrolled at
# compile time: each relation side's ShiftedSide.apply becomes one
# bound-map update, one shift and one add over its statically known
# column count (key sign and inclusive/strict resolved per side), and
# the result expression's term × factor-sum products are emitted as one
# flat arithmetic expression in term order.  Side objects, bound maps
# and the column indexes are bound as globals at install time — the
# restore path rebuilds the sides before re-specializing, so the
# bindings always reference the live structures.


def _conj_key(engine: ConjunctiveIndexEngine) -> tuple:
    return ("conjunctive", engine._plan.query)


def _conj_emit(engine: ConjunctiveIndexEngine) -> str:
    query = engine._plan.query
    infos = _scalar_infos(engine._scalars)
    aliases = list(engine._sides)
    alias_pos = {a: k for k, a in enumerate(aliases)}

    class _SideInfo:
        __slots__ = ("k", "alias", "spec", "attr_col", "inner_src",
                     "factor_srcs", "count_index", "key_sign", "inclusive")

    side_infos: dict[str, _SideInfo] = {}
    for alias in aliases:
        info = _SideInfo()
        info.k = alias_pos[alias]
        info.alias = alias
        spec = engine._specs[alias]
        info.spec = spec
        info.attr_col = spec.outer_col.column
        info.inner_src = _emit_row_expr(
            spec.inner_arg, spec.inner_col.relation, "_row"
        )
        info.factor_srcs = [
            _emit_row_expr(f, alias, "_row") for f in engine._factor_exprs[alias]
        ]
        info.count_index = len(info.factor_srcs)
        side = engine._sides[alias]
        info.key_sign = side.key_sign
        info.inclusive = side.inclusive
        side_infos[alias] = info

    def emit_apply(
        lines: list[str], indent: str, info: _SideInfo,
        wgt: str, deltas: list[str],
    ) -> None:
        # ShiftedSide.apply, same operation order: the bound-map update
        # (whose descent yields the boundary), one range shift, one
        # point update carrying every column's delta, the weight total.
        k = info.k
        lines.append(f"{indent}_key = -_att" if info.key_sign == -1
                     else f"{indent}_key = _att")
        lines.append(f"{indent}_old, _pfx = _s{k}_bm.fetch_add(_key, {wgt})")
        if info.inclusive:
            lines.append(f"{indent}_s{k}_ix.shift_keys(_pfx, {wgt}, inclusive=False)")
            new = f"_pfx + _old + {wgt}"
        else:
            lines.append(
                f"{indent}_s{k}_ix.shift_keys(_pfx, {wgt}, inclusive=_old == 0)"
            )
            new = "_pfx"
        lines.append(f"{indent}if {' or '.join(f'{d} != 0' for d in deltas)}:")
        lines.append(f"{indent}    _s{k}_ix.add({new}, {', '.join(deltas)})")
        lines.append(f"{indent}_s{k}.total_weight += {wgt}")

    def result_tail(lines: list[str]) -> None:
        # Inlined result(): one probe per side returns every column's
        # qualifying sum (term usage notwithstanding, matching the
        # interpreted probe order), then the decomposed terms recombine
        # as one flat expression per term.
        lines.append("    if _S.enabled:")
        lines.append("        _S.inc('engine.results')")
        for alias in aliases:
            info = side_infos[alias]
            k = info.k
            fixed_src = _emit_fixed_expr(info.spec.fixed_expr, infos)
            lines.append(f"    _p{k} = {fixed_src}")
            targets = ", ".join(f"_q{k}_{j}" for j in range(info.count_index + 1))
            probe = _column_probe_src(
                info.spec.outer_op, f"_s{k}_ix", f"_p{k}", info.count_index + 1
            )
            lines.append(f"    {targets} = {probe}")
        lines.append("    _t = 0.0")
        for coef, plan_entry in engine._term_plan:
            factors = [repr(coef)]
            for alias, factor_index in plan_entry.items():
                info = side_infos[alias]
                j = info.count_index if factor_index is None else factor_index
                factors.append(f"_q{info.k}_{j}")
            lines.append(f"    _t += ({' * '.join(factors)})")
        lines.append(f"    return {engine._scale!r} * _t")

    relations = list(engine._alias_of_relation)

    lines: list[str] = []
    lines.append("def on_event(self, event):")
    lines.append("    if _S.enabled:")
    lines.append("        _S.inc('engine.events')")
    lines.append("    guard = self._quarantine")
    lines.append("    if guard is not None and not guard.admit(event):")
    lines.append("        return self.result()")
    lines.append("    _rel = event.relation")
    lines.append("    _row = event.row")
    lines.append("    _w = event.weight")
    _emit_scalar_updates(lines, "    ", infos)
    branch = "if"
    for relation in relations:
        lines.append(f"    {branch} _rel == {relation!r}:")
        branch = "elif"
        for alias in engine._alias_of_relation[relation]:
            info = side_infos[alias]
            lines.append(f"        _att = _row[{info.attr_col!r}]")
            lines.append(f"        _wgt = ({info.inner_src}) * _w")
            deltas = []
            for j, factor_src in enumerate(info.factor_srcs):
                lines.append(f"        _d{j} = ({factor_src}) * _w")
                deltas.append(f"_d{j}")
            deltas.append("_w")  # the count index
            emit_apply(lines, "        ", info, "_wgt", deltas)
    result_tail(lines)
    lines.append("")

    lines.append("def on_batch(self, events):")
    lines.append("    if _S.enabled:")
    lines.append("        _S.inc('engine.batches')")
    lines.append("        _S.observe('engine.batch_size', len(events))")
    lines.append("    guard = self._quarantine")
    lines.append("    if guard is not None:")
    lines.append("        events = guard.admit_batch(events)")
    lines.append("        if not events:")
    lines.append("            return self.result()")
    for k in range(len(aliases)):
        lines.append(f"    _n{k} = {{}}")
    lines.append("    for event in events:")
    lines.append("        _rel = event.relation")
    lines.append("        _row = event.row")
    lines.append("        _w = event.weight")
    _emit_scalar_updates(lines, "        ", infos)
    branch = "if"
    for relation in relations:
        lines.append(f"        {branch} _rel == {relation!r}:")
        branch = "elif"
        for alias in engine._alias_of_relation[relation]:
            info = side_infos[alias]
            k = info.k
            lines.append(f"            _att = _row[{info.attr_col!r}]")
            lines.append(f"            _wgt = ({info.inner_src}) * _w")
            entry = ["_wgt"]
            for j, factor_src in enumerate(info.factor_srcs):
                lines.append(f"            _d{j} = ({factor_src}) * _w")
                entry.append(f"_d{j}")
            entry.append("_w")
            lines.append(f"            _e = _n{k}.get(_att)")
            lines.append("            if _e is None:")
            lines.append(f"                _n{k}[_att] = [{', '.join(entry)}]")
            lines.append("            else:")
            for slot, src in enumerate(entry):
                lines.append(f"                _e[{slot}] += {src}")
    lines.append("    if _S.enabled and events:")
    nets = " + ".join(f"len(_n{k})" for k in range(len(aliases)))
    lines.append(f"        _S.observe('engine.batch_coalesced_keys', {nets})")
    for alias in aliases:
        info = side_infos[alias]
        k = info.k
        slots = info.count_index + 2  # weight + factors + count
        lines.append(f"    for _att, _e in _n{k}.items():")
        zero = " and ".join(f"_e[{slot}] == 0" for slot in range(slots))
        lines.append(f"        if {zero}:")
        lines.append("            continue")
        lines.append("        _wgt = _e[0]")
        deltas = []
        for j in range(info.count_index + 1):
            lines.append(f"        _d{j} = _e[{j + 1}]")
            deltas.append(f"_d{j}")
        emit_apply(lines, "        ", info, "_wgt", deltas)
    result_tail(lines)
    return "\n".join(lines) + "\n"


def _conj_bind(engine: ConjunctiveIndexEngine) -> dict[str, Any]:
    bindings: dict[str, Any] = {
        f"_sc{i}": scalar for i, scalar in enumerate(engine._scalars.values())
    }
    for k, side in enumerate(engine._sides.values()):
        bindings[f"_s{k}"] = side
        bindings[f"_s{k}_bm"] = side.bound_map
        bindings[f"_s{k}_ix"] = side.index
    return bindings


# ---------------------------------------------------------------------------
# Hand-written per-query engines (PSP / NQ1 / NQ2 / Q17 / Q18)
# ---------------------------------------------------------------------------
# These engines are already specialized by hand, but their interpreted
# on_event still pays attribute chains and method binding per event.
# The emitters below are static sources mirroring each trigger body
# with the hot structures *and their bound methods* pre-bound as
# compile-time globals (safe: every one is assigned once in __init__
# and mutated in place; __setstate__ re-specializes, rebinding to the
# restored structures) and the result read inlined.  Scalars the
# trigger reassigns (running totals, cached results) must stay
# attribute accesses.  Only on_event is emitted — the inherited
# default on_batch loops over the compiled instance on_event, which
# keeps the wrapper counters identical to the interpreted class.

_PSP_SOURCE = """\
def on_event(self, event):
    if _S.enabled:
        _S.inc('engine.events')
    guard = self._quarantine
    if guard is not None and not guard.admit(event):
        return self.result()
    _rel = event.relation
    if _rel == 'bids':
        _row = event.row
        _x = event.weight
        _v = _row['volume']
        _bids_add(_v, _x * _row['price'], _x)
        _bids.total_volume += _x * _v
    elif _rel == 'asks':
        _row = event.row
        _x = event.weight
        _v = _row['volume']
        _asks_add(_v, _x * _row['price'], _x)
        _asks.total_volume += _x * _v
    if _S.enabled:
        _S.inc('engine.results')
    _ask_sum, _ask_count = _asks_suffix(0.0001 * _asks.total_volume)
    _bid_sum, _bid_count = _bids_suffix(0.0001 * _bids.total_volume)
    return _bid_count * _ask_sum - _ask_count * _bid_sum
"""


def _psp_key(engine: PSPRpaiEngine) -> tuple:
    return ("hand", "PSPRpaiEngine")


def _psp_emit(engine: PSPRpaiEngine) -> str:
    return _PSP_SOURCE


def _psp_bind(engine: PSPRpaiEngine) -> dict[str, Any]:
    bids = engine.sides["bids"]
    asks = engine.sides["asks"]
    return {
        "_bids": bids,
        "_asks": asks,
        "_bids_add": bids.index.add,
        "_asks_add": asks.index.add,
        "_bids_suffix": bids.index.suffix_sum,
        "_asks_suffix": asks.index.suffix_sum,
    }


_NQ1_SOURCE = """\
def on_event(self, event):
    if _S.enabled:
        _S.inc('engine.events')
    guard = self._quarantine
    if guard is not None and not guard.admit(event):
        return self.result()
    if event.relation != 'bids':
        if _S.enabled:
            _S.inc('engine.results')
        _fk = _floor(0.75 * self.total) * _M + (_M - 1)
        return _aggr_total() - _aggr_get_sum(_fk)
    _row = event.row
    _x = event.weight
    _price = _row['price']
    _volume = _row['volume']
    _total = self.total
    _star_old = (
        None if _total == 0
        else _pv_first_above(_total / 4)
    )
    _old_res = _res_get(_price, 0)
    if _old_res != 0:
        _aggr_add(_ev_get_sum(_price) * _M + _price, -_old_res)
    _pv_add(_price, _x * _volume)
    _total += _x * _volume
    self.total = _total
    _new_res = _old_res + _x * _price * _volume
    if _new_res:
        _res_map[_price] = _new_res
    else:
        _res_pop(_price, None)
    _star_new = (
        None if _total == 0
        else _pv_first_above(_total / 4)
    )
    _cand = {_price: None}
    if _star_old is not None and _star_new is not None and _star_old != _star_new:
        _lo = min(_star_old, _star_new)
        _hi = max(_star_old, _star_new)
        for _p, _v in _pv_range_items(_lo, _hi, lo_inclusive=True, hi_inclusive=False):
            _cand[int(_p)] = None
    for _p in sorted(_cand):
        _eligible = _star_new is not None and _p >= _star_new
        _target = _pv_get(_p, 0) if _eligible else 0
        _delta = _target - _ev_get(_p, 0)
        if _delta == 0:
            continue
        _aggr_shift(_ev_get_sum(_p, inclusive=False) * _M + (_p - 1), _delta * _M)
        _ev_add(_p, _delta)
    if _new_res != 0:
        _aggr_add(_ev_get_sum(_price) * _M + _price, _new_res)
    if _S.enabled:
        _S.inc('engine.results')
    _fk = _floor(0.75 * _total) * _M + (_M - 1)
    return _aggr_total() - _aggr_get_sum(_fk)
"""


def _nq1_key(engine: NQ1RpaiEngine) -> tuple:
    return ("hand", "NQ1RpaiEngine")


def _nq1_emit(engine: NQ1RpaiEngine) -> str:
    return _NQ1_SOURCE


_NQ2_SOURCE = """\
def on_event(self, event):
    if _S.enabled:
        _S.inc('engine.events')
    guard = self._quarantine
    if guard is not None and not guard.admit(event):
        return self.result()
    if event.relation != 'bids':
        return self._result
    _row = event.row
    _x = event.weight
    _price = _row['price']
    _volume = _row['volume']
    _pv_add(_price, _x * _volume)
    _total = self.total + _x * _volume
    self.total = _total
    _new_res = _res_get(_price, 0) + _x * _price * _volume
    if _new_res:
        _res_map[_price] = _new_res
    else:
        _res_pop(_price, None)
    _t = 0
    _lhs = 0.75 * _total
    _first_above = _pv_first_above
    _get_sum = _pv_get_sum
    for _p, _res in _res_map.items():
        _star = _first_above(0.25 * _get_sum(_p))
        if _star is None:
            _rhs = 0
        else:
            _rhs = _total - _get_sum(_star, inclusive=False)
        if _lhs < _rhs:
            _t += _res
    self._result = _t
    return _t
"""


def _nq2_key(engine: NQ2RpaiEngine) -> tuple:
    return ("hand", "NQ2RpaiEngine")


def _nq2_emit(engine: NQ2RpaiEngine) -> str:
    return _NQ2_SOURCE


def _nq1_bind(engine: NQ1RpaiEngine) -> dict[str, Any]:
    import math

    from repro.engine.queries.nq import _M

    pv, ev, aggr = engine.price_vol, engine.elig_vol, engine.aggr
    return {
        "_M": _M,
        "_floor": math.floor,
        "_res_map": engine.res_map,
        "_res_get": engine.res_map.get,
        "_res_pop": engine.res_map.pop,
        "_pv_add": pv.add,
        "_pv_get": pv.get,
        "_pv_first_above": pv.first_key_with_prefix_above,
        "_pv_range_items": pv.range_items,
        "_ev_add": ev.add,
        "_ev_get": ev.get,
        "_ev_get_sum": ev.get_sum,
        "_aggr_add": aggr.add,
        "_aggr_shift": aggr.shift_keys,
        "_aggr_total": aggr.total_sum,
        "_aggr_get_sum": aggr.get_sum,
    }


def _nq2_bind(engine: NQ2RpaiEngine) -> dict[str, Any]:
    pv = engine.price_vol
    return {
        "_res_map": engine.res_map,
        "_res_get": engine.res_map.get,
        "_res_pop": engine.res_map.pop,
        "_pv_add": pv.add,
        "_pv_get_sum": pv.get_sum,
        "_pv_first_above": pv.first_key_with_prefix_above,
    }


_Q17_SOURCE = """\
def on_event(self, event):
    if _S.enabled:
        _S.inc('engine.events')
    guard = self._quarantine
    if guard is not None and not guard.admit(event):
        return self.result()
    _rel = event.relation
    _row = event.row
    _x = event.weight
    if _rel == 'part':
        if _row['brand'] == _brand and _row['container'] == _container:
            _pk = _row['partkey']
            _g = _groups_get(_pk)
            if _g is None:
                _g = _groups[_pk] = _PartGroup()
            if _x == 1:
                _qual_add(_pk)
                _g.ensure_tree()
                self._total += _g.contribution()
            else:
                _qual_discard(_pk)
                self._total -= _g.contribution()
                _g.drop_tree()
    elif _rel == 'lineitem':
        _pk = _row['partkey']
        _g = _groups_get(_pk)
        if _g is None:
            _g = _groups[_pk] = _PartGroup()
        _tracked = _pk in _qualifying
        if _tracked:
            self._total -= _g.contribution()
        _q = _row['quantity']
        _pd = _x * _row['extendedprice']
        _dom = _g.domain
        _val = _dom.get(_q, 0) + _pd
        if _val:
            _dom[_q] = _val
        else:
            _dom.pop(_q, None)
        _g.quantity_sum += _x * _q
        _g.count += _x
        _tr = _g.tree
        if _tr is not None:
            _tr.add(_q, _pd)
        if _tracked:
            self._total += _g.contribution()
    if _S.enabled:
        _S.inc('engine.results')
    return self._total / 7.0
"""


def _q17_key(engine: Q17RpaiEngine) -> tuple:
    return ("hand", "Q17RpaiEngine")


def _q17_emit(engine: Q17RpaiEngine) -> str:
    return _Q17_SOURCE


def _q17_bind(engine: Q17RpaiEngine) -> dict[str, Any]:
    from repro.engine.queries.tpch import _PartGroup

    return {
        "_PartGroup": _PartGroup,
        "_brand": engine.brand,
        "_container": engine.container,
        "_groups": engine._groups,
        "_groups_get": engine._groups.get,
        "_qualifying": engine._qualifying,
        "_qual_add": engine._qualifying.add,
        "_qual_discard": engine._qualifying.discard,
    }


# The Q18 emitter goes beyond hoisting: ``_refresh`` is inlined into
# the lineitem and orders branches, specialized to what each branch
# just did.  A lineitem update already holds the new order quantity, so
# the re-read of ``_order_quantity`` folds away; an orders delete just
# popped the order's customer, so its re-activation test is dead and
# only the retraction remains.  Dict and set operations carry no obs
# counters, so counter identity with the interpreted engine holds; the
# differential suite checks the per-event trace.
_Q18_SOURCE = """\
def _refresh(_ok):
    _prev = _active.pop(_ok, None)
    if _prev is not None:
        _ck = _prev[0]
        _rem = _result[_ck] - _prev[1]
        if _rem:
            _result[_ck] = _rem
        else:
            del _result[_ck]
    _q = _order_quantity.get(_ok, 0)
    _ck = _order_customer.get(_ok)
    if _q > _threshold and _ck is not None and _ck in _customers:
        _active[_ok] = (_ck, _q)
        _result[_ck] = _result.get(_ck, 0) + _q

def on_event(self, event):
    if _S.enabled:
        _S.inc('engine.events')
    guard = self._quarantine
    if guard is not None and not guard.admit(event):
        return self.result()
    _rel = event.relation
    _row = event.row
    _x = event.weight
    if _rel == 'lineitem':
        _ok = _row['orderkey']
        _nq = _order_quantity.get(_ok, 0) + _x * _row['quantity']
        _order_quantity[_ok] = _nq
        if _nq == 0:
            del _order_quantity[_ok]
        _prev = _active.pop(_ok, None)
        if _prev is not None:
            _pck = _prev[0]
            _rem = _result[_pck] - _prev[1]
            if _rem:
                _result[_pck] = _rem
            else:
                del _result[_pck]
        if _nq > _threshold:
            _ck = _order_customer.get(_ok)
            if _ck is not None and _ck in _customers:
                _active[_ok] = (_ck, _nq)
                _result[_ck] = _result.get(_ck, 0) + _nq
    elif _rel == 'orders':
        _ok = _row['orderkey']
        _ck = _row['custkey']
        _prev = _active.pop(_ok, None)
        if _prev is not None:
            _pck = _prev[0]
            _rem = _result[_pck] - _prev[1]
            if _rem:
                _result[_pck] = _rem
            else:
                del _result[_pck]
        if _x == 1:
            _order_customer[_ok] = _ck
            _customer_orders.setdefault(_ck, set()).add(_ok)
            if _ck in _customers:
                _q = _order_quantity.get(_ok, 0)
                if _q > _threshold:
                    _active[_ok] = (_ck, _q)
                    _result[_ck] = _result.get(_ck, 0) + _q
        else:
            _order_customer.pop(_ok, None)
            _customer_orders.get(_ck, set()).discard(_ok)
    elif _rel == 'customer':
        _ck = _row['custkey']
        if _x == 1:
            _customers.add(_ck)
        else:
            _customers.discard(_ck)
        for _ok in list(_customer_orders.get(_ck, ())):
            _refresh(_ok)
    if _S.enabled:
        _S.inc('engine.results')
    return dict(_result)
"""


def _q18_key(engine: Q18RpaiEngine) -> tuple:
    return ("hand", "Q18RpaiEngine")


def _q18_emit(engine: Q18RpaiEngine) -> str:
    return _Q18_SOURCE


def _q18_bind(engine: Q18RpaiEngine) -> dict[str, Any]:
    return {
        "_threshold": engine.threshold,
        "_order_quantity": engine._order_quantity,
        "_order_customer": engine._order_customer,
        "_customer_orders": engine._customer_orders,
        "_customers": engine._customers,
        "_active": engine._active,
        "_result": engine._result,
    }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

_EMITTERS: dict[type, tuple[Callable, Callable, Callable]] = {
    PointIndexEngine: (_point_key, _point_emit, _point_bind),
    RangeIndexEngine: (_range_key, _range_emit, _range_bind),
    GroupedRangeIndexEngine: (_grouped_key, _grouped_emit, _grouped_bind),
    GeneralAlgorithmEngine: (_ga_key, _ga_emit, _ga_bind),
    ConjunctiveIndexEngine: (_conj_key, _conj_emit, _conj_bind),
    PSPRpaiEngine: (_psp_key, _psp_emit, _psp_bind),
    NQ1RpaiEngine: (_nq1_key, _nq1_emit, _nq1_bind),
    NQ2RpaiEngine: (_nq2_key, _nq2_emit, _nq2_bind),
    Q17RpaiEngine: (_q17_key, _q17_emit, _q17_bind),
    Q18RpaiEngine: (_q18_key, _q18_emit, _q18_bind),
}


def maybe_specialize(engine) -> bool:
    """Install a compiled trigger when the process-wide default says so
    (the registry/restore entry point)."""
    if not _ENABLED:
        return False
    return specialize(engine)


def specialize(engine) -> bool:
    """Compile-and-install the specialized trigger for ``engine``.

    Returns True when compiled triggers were installed; False (with the
    ``codegen.unsupported`` counter bumped) when the engine class or
    query shape has no emitter.  Installation is idempotent: the
    compiled code object is cached per (engine class, query) key, so
    further engines of the same shape only pay a dict lookup and an
    ``exec`` of the cached code object.
    """
    emitters = _EMITTERS.get(type(engine))
    if emitters is None:
        if _SINK.enabled:
            _SINK.inc("codegen.unsupported")
        return False
    key_fn, emit_fn, bind_fn = emitters
    try:
        key = key_fn(engine)
    except UnsupportedTriggerError:
        if _SINK.enabled:
            _SINK.inc("codegen.unsupported")
        return False
    entry = _CACHE.get(key)
    if entry is _UNSUPPORTED:
        if _SINK.enabled:
            _SINK.inc("codegen.unsupported")
        return False
    if entry is None:
        if _SINK.enabled:
            _SINK.inc("codegen.cache_misses")
        start = time.perf_counter()
        try:
            source = emit_fn(engine)
        except UnsupportedTriggerError:
            _CACHE[key] = _UNSUPPORTED
            if _SINK.enabled:
                _SINK.inc("codegen.unsupported")
            return False
        code = compile(source, f"<codegen:{type(engine).__name__}>", "exec")
        entry = _CACHE[key] = _Entry(key, source, code)
        if _SINK.enabled:
            _SINK.observe("codegen.compile_seconds", time.perf_counter() - start)
    else:
        if _SINK.enabled:
            _SINK.inc("codegen.cache_hits")
    namespace: dict[str, Any] = {"_S": _SINK}
    namespace.update(bind_fn(engine))
    exec(entry.code, namespace)
    # Install every trigger the emitter defined (on_event always; the
    # loop-emitting engines also generate on_batch and on_frame; the
    # hand-written-engine emitters define on_event only and inherit the
    # default batch/frame decode, which dispatches to the compiled
    # instance on_event).
    for attr in _rt._TRIGGER_ATTRS:
        trigger = namespace.get(attr)
        if trigger is not None:
            setattr(engine, attr, types.MethodType(trigger, engine))
    engine.trigger_mode = _rt.COMPILED
    engine._codegen_key = key
    if _SINK.enabled:
        _SINK.inc("codegen.installed")
    return True


def uninstall(engine) -> None:
    """Remove compiled triggers from ``engine`` (interpreted mode)."""
    _rt.uninstall(engine)


def generated_source(engine) -> str | None:
    """The trigger source compiled for ``engine``, or None when the
    engine runs interpreted."""
    key = getattr(engine, "_codegen_key", None)
    if key is None:
        return None
    entry = _CACHE.get(key)
    if entry is None or entry is _UNSUPPORTED:
        return None
    return entry.source
