"""NQ1's trigger as it stood while the engine kept its eligible-volume
view in a map of its own: the reference the derived-view engine in
:mod:`repro.engine.queries.nq` is checked against.

Per ``bids`` event it detaches the tuple's own group from the aggregate
index, applies the tuple to the book, re-locates ``p*`` and walks every
price whose view value changed — a point read of the book and of the
view, an ``elig_sum`` probe, one range shift and one view update each —
then re-attaches the group at its new composite key ``elig_sum(p)·M +
p``.  Its ``aggr`` holds the same composite keys and group values as the
engine's on any stream whose levels stay non-negative, because both are
a function of the book.
"""

from __future__ import annotations

import math
from bisect import bisect_left

from repro.core.rpai import RPAITree
from repro.engine.base import Result
from repro.engine.queries.nq import _M, _BidBook
from repro.trees.treemap import TreeMap

__all__ = ["NQ1ViewMapEngine"]


class NQ1ViewMapEngine(_BidBook):
    """NQ1 with a maintained view map: O(log n + crossings·log n)."""

    name = "rpai"

    def __init__(self) -> None:
        super().__init__()
        self.elig_vol = TreeMap(prune_zeros=True)  # the maintained view V
        self.aggr = RPAITree(prune_zeros=True)  # rhs·M + price -> group res

    def _boundary(self) -> int | None:
        """p*: smallest price whose cumulative volume exceeds total/4
        (None iff the book is empty)."""
        if self.total == 0:
            return None
        return self.price_vol.first_key_with_prefix_above(self.total / 4)

    def _bids(self, x, price, volume) -> None:
        price_vol, elig_vol, aggr = self.price_vol, self.elig_vol, self.aggr
        elig_sum = elig_vol.get_sum

        star_old = self._boundary()

        # 1. Detach the arriving tuple's own group.
        old_res = self.res_map.get(price, 0)
        if old_res != 0:
            aggr.add(elig_sum(price) * _M + price, -old_res)

        # 2. Apply the tuple to the base view.
        price_vol.add(price, x * volume)
        self.total += x * volume
        new_res = old_res + x * price * volume
        if new_res:
            self.res_map[price] = new_res
        else:
            self.res_map.pop(price, None)

        # 3. Delta the eligible view at the tuple's price and at every
        #    price whose eligibility toggled; each delta is one shift.
        star_new = self._boundary()
        candidates: dict[int, None] = {price: None}
        if star_old is not None and star_new is not None and star_old != star_new:
            lo, hi = min(star_old, star_new), max(star_old, star_new)
            for p, _v in price_vol.range_items(lo, hi, lo_inclusive=True, hi_inclusive=False):
                candidates[int(p)] = None
        for p in sorted(candidates):
            eligible = star_new is not None and p >= star_new
            target = price_vol.get(p, 0) if eligible else 0
            delta = target - elig_vol.get(p, 0)
            if delta == 0:
                continue
            aggr.shift_keys(elig_sum(p, inclusive=False) * _M + (p - 1), delta * _M)
            elig_vol.add(p, delta)

        # 4. Re-attach the tuple's group at its new composite key.
        if new_res != 0:
            aggr.add(elig_sum(price) * _M + price, new_res)

    row_handlers = {"bids": (_bids, ("price", "volume"))}

    def _load(self, levels: list[tuple[int, int]]) -> None:
        star = self._boundary()
        cut = len(levels) if star is None else bisect_left(levels, (star,))
        eligible = levels[cut:]
        self.elig_vol = TreeMap.bulk_load(eligible, prune_zeros=True)
        rows = [(price, price * volume) for price, volume in levels[:cut]]
        elig_sum = 0
        for price, volume in eligible:
            elig_sum += volume
            rows.append((elig_sum * _M + price, price * volume))
        self.aggr = RPAITree.bulk_load(rows, prune_zeros=True)

    def result(self) -> Result:
        lhs = 0.75 * self.total
        floor_key = math.floor(lhs) * _M + (_M - 1)
        return self.aggr.total_sum() - self.aggr.get_sum(floor_key)
