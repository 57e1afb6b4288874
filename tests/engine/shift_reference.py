"""A shifted side's move as it stood before Algorithm 1 ran top down:
the reference the one-pass kernel and triggers are checked against.

* :func:`bottom_up_shift` — Algorithm 1 as a descent that stacks the
  path, then walks it back up re-deriving each stored key and the
  offset facing the path (a negative shift is the tree's own
  Algorithm 2, which still unwinds that way).
* :class:`ShiftThenAddSide` — a :class:`ShiftedSide` whose move is one
  :func:`bottom_up_shift` per live index, then one ``add`` per
  placement, the shift always first.
* :func:`as_reference` — an aggregate-index engine rebuilt with those
  sides and a ``result`` that probes every side on every call.
* :class:`NQ1ShiftThenAddEngine` — NQ1 whose own group changes after
  every shift of the event, by its own descent.
"""

from __future__ import annotations

import dataclasses
import types

from repro.core.rpai import RPAITree
from repro.engine.queries.common import FRAGMENT_GLOBALS, ShiftedSide
from repro.engine.queries.nq import _M, NQ1RpaiEngine
from repro.obs import SINK
from repro.query import codegen
from repro.query.rowexpr import compile_source

__all__ = ["bottom_up_shift", "ShiftThenAddSide", "as_reference", "NQ1ShiftThenAddEngine"]


def bottom_up_shift(tree, key, delta, inclusive=False) -> None:
    """``tree.shift_keys(key, delta, inclusive=inclusive)``, a positive
    shift on an RPAI tree by the stacked descent and its unwind."""
    if delta <= 0 or not isinstance(tree, RPAITree):
        tree.shift_keys(key, delta, inclusive=inclusive)
        return
    node = tree._root
    stack, quals = [], []
    remaining = key
    while node is not None:
        qualifies = node.key >= remaining if inclusive else node.key > remaining
        remaining -= node.key
        stack.append(node)
        quals.append(qualifies)
        node = node.left if qualifies else node.right
    for current, qualifies in zip(reversed(stack), reversed(quals)):
        if qualifies:
            current.key += delta
            left = current.left
            if left is not None:
                left.key -= delta
                current.min_off = left.key + left.min_off
        else:
            right = current.right
            if right is not None:
                current.max_off = right.key + right.max_off


class ShiftThenAddSide(ShiftedSide):
    """The move of Figure 2c as two operations per index: the range
    shift, then the point update at the group's key after it."""

    def emit_move(self, k, deltas):
        out = ["if _S.enabled:", "    _S.inc('engine.range_applies')"]
        if self.grouped:
            out.append(f"    _S.observe('engine.grouped_fanout', len(_gi{k}))")
        out.append(f"_old, _pfx = _bm{k}.fetch_add(_key, _wgt)")
        new = "_pfx + _old + _wgt" if self.inclusive else "_pfx"
        inclusive = "False" if self.inclusive else "_old == 0"
        if not self.grouped:
            return out + [
                f"_shift(_ix{k}, _pfx, _wgt, {inclusive})",
                f"if {' or '.join(f'{d} != 0' for d in deltas)}:",
                f"    _ix{k}.add({new}, {', '.join(deltas)})",
            ]
        if self.inclusive:
            out.append(f"_new = {new}")
            new = "_new"
        return out + [
            f"for _ix in _gi{k}.values():",
            f"    _shift(_ix, _pfx, _wgt, {inclusive})",
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

    def _bind_apply(self) -> None:
        source = "\n".join(["def apply(_s, _key, _wgt, _pl):", *("    " + line for line in self.emit_apply()), ""])
        namespace = {"_S": SINK, "_shift": bottom_up_shift, **FRAGMENT_GLOBALS}
        exec(compile_source(source, "side"), namespace)
        self.apply = types.MethodType(namespace["apply"], self)


def as_reference(engine):
    """A fresh aggregate-index ``engine`` with every shifted side moving
    by :class:`ShiftThenAddSide` and every answer probed on every
    ``result()``; its emitted functions bypass the codegen cache."""
    for side in engine.sides:
        if isinstance(side, ShiftedSide):
            side.__class__ = ShiftThenAddSide
            side._bind_apply()
    engine._answers = [dataclasses.replace(answer, kept=()) for answer in engine._answers]
    source = codegen._aggr_emit(engine)
    namespace = {**engine.bindings(), "_shift": bottom_up_shift}
    exec(compile_source(source, "codegen"), namespace)
    for attr in codegen._TRIGGER_ATTRS:
        setattr(engine, attr, types.MethodType(namespace[attr], engine))
    engine.generated_source = source
    return engine


class NQ1ShiftThenAddEngine(NQ1RpaiEngine):
    """NQ1 with every shift of an event by :func:`bottom_up_shift`, then
    the tuple's own group by its own ``add`` (and no price type check)."""

    def _bids(self, x, price, volume) -> None:
        if not 0 <= price < _M:
            return super()._bids(x, price, volume)
        price_vol, dv = self.price_vol, x * volume
        old_vol, below = price_vol.fetch_add(price, dv)
        new_vol = old_vol + dv
        self.total += dv
        old_res = self.res_map.get(price, 0)
        new_res = old_res + price * dv
        if new_res:
            self.res_map[price] = new_res
        else:
            self.res_map.pop(price, None)
        star_old = self._star
        found = price_vol.first_key_and_prefix_above(self.total / 4)
        star, star_below = found if found is not None else (None, 0)
        self._star = star
        cut_old = float("inf") if star_old is None else star_old
        cut = float("inf") if star is None else star
        moves = [(price, old_vol, new_vol, below)]
        if star_old is not None and star is not None and star_old != star:
            lo, hi = (star_old, star) if star_old < star else (star, star_old)
            prefix = price_vol.get_sum(lo, inclusive=False)
            for p, vol in price_vol.range_items(lo, hi, lo_inclusive=True, hi_inclusive=False):
                if p != price:
                    moves.append((p, vol, vol, prefix))
                prefix += vol
            moves.sort()
        for p, vol_old, vol_new, p_below in moves:
            delta = (vol_new if p >= cut else 0) - (vol_old if p >= cut_old else 0)
            if delta:
                bottom_up_shift(self.aggr, (p_below - star_below if p >= cut else 0) * _M + (p - 1), delta * _M)
        if new_res != old_res:
            rhs = below - star_below + new_vol if price >= cut else 0
            self.aggr.add(rhs * _M + price, new_res - old_res)
        self._dirty = True

    row_handlers = {"bids": (_bids, ("price", "volume"))}
