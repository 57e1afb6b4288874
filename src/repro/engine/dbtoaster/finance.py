"""DBToaster-style baselines for the finance queries.

DBToaster 2.3 itself is a closed Scala/C++ code generator; the paper
presents the code it generates for these queries (Figures 1b and 2b)
and describes its behaviour for the rest (Section 5.2.1).  These
classes mirror that generated code in Python: the same materialized
maps, the same incremental map maintenance, and — crucially — the same
*re-evaluation loops* for the parts DBToaster cannot incrementalize
(connecting correlated nested aggregates to the outer query).

Per-update costs over D distinct prices (Table 1):

========  =========================================
EQ        O(D)    (Figure 1b: one loop over map1)
VWAP      O(D²)   (Figure 2b: two nested loops)
MST       O(D²)
PSP       O(D)
SQ1, SQ2  O(D²)
NQ1       O(D²)
NQ2       O(D³)
========  =========================================
"""

from __future__ import annotations

from repro.engine.base import IncrementalEngine, Result
from repro.storage.stream import Event

__all__ = [
    "EQDbtEngine",
    "VWAPDbtEngine",
    "MSTDbtEngine",
    "PSPDbtEngine",
    "SQ1DbtEngine",
    "SQ2DbtEngine",
    "NQ1DbtEngine",
    "NQ2DbtEngine",
]


def _add(map_: dict, key, delta) -> None:
    """DBToaster map update: accumulate, drop exact zeros."""
    value = map_.get(key, 0) + delta
    if value:
        map_[key] = value
    else:
        map_.pop(key, None)


class EQDbtEngine(IncrementalEngine):
    """Figure 1b: maps fully incremental, result loop over map1 — O(D)."""

    name = "dbtoaster"

    def __init__(self) -> None:
        self.map1: dict[float, float] = {}  # A -> sum(A * B)
        self.map2: float = 0  # sum(B)
        self.map3: dict[float, float] = {}  # A -> sum(B)

    def apply(self, event: Event) -> None:
        if event.relation == "R":
            t, x = event.row, event.weight
            _add(self.map1, t["A"], t["A"] * t["B"] * x)
            self.map2 += t["B"] * x
            _add(self.map3, t["A"], t["B"] * x)

    def result(self) -> Result:
        lhs_sum = 0.5 * self.map2
        res = 0.0
        for a in self.map1:
            if lhs_sum == self.map3.get(a, 0):
                res += self.map1[a]
        return res


class VWAPDbtEngine(IncrementalEngine):
    """Figure 2b: subqueries incrementalized into maps, final result
    re-evaluated with two nested loops over distinct prices — O(D²)."""

    name = "dbtoaster"

    def __init__(self) -> None:
        self.map1: dict[float, float] = {}  # price -> sum(price * volume)
        self.map2: float = 0  # sum(volume)
        self.map3: dict[float, float] = {}  # price -> sum(volume)

    def apply(self, event: Event) -> None:
        if event.relation == "bids":
            t, x = event.row, event.weight
            _add(self.map1, t["price"], t["price"] * t["volume"] * x)
            self.map2 += t["volume"] * x
            _add(self.map3, t["price"], t["volume"] * x)

    def result(self) -> Result:
        res = 0.0
        threshold = 0.75 * self.map2
        for b_price in self.map1:
            rhs_sum = 0.0
            for b2_price, volume in self.map3.items():
                if b2_price <= b_price:
                    rhs_sum += volume
            if threshold < rhs_sum:
                res += self.map1[b_price]
        return res


class _DbtSide:
    """Per-relation maps for the two-sided finance queries."""

    __slots__ = ("volume_by_price", "count_by_price", "total_volume")

    def __init__(self) -> None:
        self.volume_by_price: dict[float, float] = {}
        self.count_by_price: dict[float, int] = {}
        self.total_volume: float = 0

    def update(self, price: float, volume: float, x: int) -> None:
        _add(self.volume_by_price, price, volume * x)
        _add(self.count_by_price, price, x)
        self.total_volume += volume * x


class MSTDbtEngine(IncrementalEngine):
    """Correlated subqueries force a re-evaluation loop per side with an
    inner loop per price — O(D²) per update."""

    name = "dbtoaster"

    def __init__(self) -> None:
        self.sides = {"asks": _DbtSide(), "bids": _DbtSide()}

    def apply(self, event: Event) -> None:
        side = self.sides.get(event.relation)
        if side is not None:
            t, x = event.row, event.weight
            side.update(t["price"], t["volume"], x)

    @staticmethod
    def _qualifying(side: _DbtSide) -> tuple[float, float]:
        """(Σ price, count) over prices whose suffix volume is below a
        quarter of the total — computed by nested loops as DBToaster's
        generated code does."""
        threshold = 0.25 * side.total_volume
        price_sum = 0.0
        count = 0.0
        for price, n in side.count_by_price.items():
            rhs = 0.0
            for p2, volume in side.volume_by_price.items():
                if p2 > price:
                    rhs += volume
            if threshold > rhs:
                price_sum += price * n
                count += n
        return price_sum, count

    def result(self) -> Result:
        ask_sum, ask_count = self._qualifying(self.sides["asks"])
        bid_sum, bid_count = self._qualifying(self.sides["bids"])
        return bid_count * ask_sum - ask_count * bid_sum


class PSPDbtEngine(IncrementalEngine):
    """Uncorrelated thresholds: one linear pass per side — O(D)."""

    name = "dbtoaster"

    def __init__(self) -> None:
        # volume -> (Σ price, count) at that volume
        self.price_by_volume: dict[str, dict[float, float]] = {
            "bids": {},
            "asks": {},
        }
        self.count_by_volume: dict[str, dict[float, float]] = {
            "bids": {},
            "asks": {},
        }
        self.total_volume: dict[str, float] = {"bids": 0, "asks": 0}

    def apply(self, event: Event) -> None:
        if event.relation in self.total_volume:
            t, x = event.row, event.weight
            _add(self.price_by_volume[event.relation], t["volume"], t["price"] * x)
            _add(self.count_by_volume[event.relation], t["volume"], x)
            self.total_volume[event.relation] += t["volume"] * x

    def _qualifying(self, relation: str) -> tuple[float, float]:
        threshold = 0.0001 * self.total_volume[relation]
        price_sum = 0.0
        count = 0.0
        for volume, prices in self.price_by_volume[relation].items():
            if volume > threshold:
                price_sum += prices
                count += self.count_by_volume[relation][volume]
        return price_sum, count

    def result(self) -> Result:
        ask_sum, ask_count = self._qualifying("asks")
        bid_sum, bid_count = self._qualifying("bids")
        return bid_count * ask_sum - ask_count * bid_sum


class SQ1DbtEngine(IncrementalEngine):
    """Both predicate sides correlated: nested loops — O(D²)."""

    name = "dbtoaster"

    def __init__(self) -> None:
        self.map1: dict[float, float] = {}  # price -> sum(price * volume)
        self.map3: dict[float, float] = {}  # price -> sum(volume)

    def apply(self, event: Event) -> None:
        if event.relation == "bids":
            t, x = event.row, event.weight
            _add(self.map1, t["price"], t["price"] * t["volume"] * x)
            _add(self.map3, t["price"], t["volume"] * x)

    def result(self) -> Result:
        res = 0.0
        for b_price in self.map1:
            lhs = 0.0
            rhs = 0.0
            for p2, volume in self.map3.items():
                if p2 >= b_price:
                    lhs += volume
                if p2 <= b_price:
                    rhs += volume
            if 0.75 * lhs < rhs:
                res += self.map1[b_price]
        return res


class SQ2DbtEngine(IncrementalEngine):
    """Asymmetric inner inequality: maps keyed by price+volume — O(D²)."""

    name = "dbtoaster"

    def __init__(self) -> None:
        self.map1: dict[float, float] = {}  # price -> sum(price * volume)
        self.map2: float = 0  # sum(volume)
        self.map3: dict[float, float] = {}  # price + volume -> sum(volume)

    def apply(self, event: Event) -> None:
        if event.relation == "bids":
            t, x = event.row, event.weight
            _add(self.map1, t["price"], t["price"] * t["volume"] * x)
            self.map2 += t["volume"] * x
            _add(self.map3, t["price"] + t["volume"], t["volume"] * x)

    def result(self) -> Result:
        res = 0.0
        threshold = 0.75 * self.map2
        for b_price in self.map1:
            rhs = 0.0
            for key, volume in self.map3.items():
                if key <= b_price:
                    rhs += volume
            if threshold < rhs:
                res += self.map1[b_price]
        return res


class NQ1DbtEngine(IncrementalEngine):
    """2-level nesting, inner level uncorrelated with the outer query:
    one pass to build cumulative volumes + nested result loops — O(D²)."""

    name = "dbtoaster"

    def __init__(self) -> None:
        self.map1: dict[float, float] = {}  # price -> sum(price * volume)
        self.map2: float = 0  # sum(volume)
        self.map3: dict[float, float] = {}  # price -> sum(volume)

    def apply(self, event: Event) -> None:
        if event.relation == "bids":
            t, x = event.row, event.weight
            _add(self.map1, t["price"], t["price"] * t["volume"] * x)
            self.map2 += t["volume"] * x
            _add(self.map3, t["price"], t["volume"] * x)

    def result(self) -> Result:
        # Pass 1: cumulative volume per price (the inner-inner query).
        prices = sorted(self.map3)
        cumulative: dict[float, float] = {}
        running = 0.0
        for price in prices:
            running += self.map3[price]
            cumulative[price] = running
        inner_threshold = 0.25 * self.map2
        # Pass 2: per outer price, re-evaluate the eligible-volume sum.
        res = 0.0
        outer_threshold = 0.75 * self.map2
        for b_price in self.map1:
            rhs = 0.0
            for p2, volume in self.map3.items():
                if p2 <= b_price and inner_threshold < cumulative[p2]:
                    rhs += volume
            if outer_threshold < rhs:
                res += self.map1[b_price]
        return res


class NQ2DbtEngine(IncrementalEngine):
    """Lowest level correlated with the outermost query: three nested
    loops — O(D³) per update (Table 1)."""

    name = "dbtoaster"

    def __init__(self) -> None:
        self.map1: dict[float, float] = {}  # price -> sum(price * volume)
        self.map2: float = 0  # sum(volume)
        self.map3: dict[float, float] = {}  # price -> sum(volume)

    def apply(self, event: Event) -> None:
        if event.relation == "bids":
            t, x = event.row, event.weight
            _add(self.map1, t["price"], t["price"] * t["volume"] * x)
            self.map2 += t["volume"] * x
            _add(self.map3, t["price"], t["volume"] * x)

    def result(self) -> Result:
        res = 0.0
        outer_threshold = 0.75 * self.map2
        for b_price in self.map1:
            # Inner threshold depends on the outer tuple.
            threshold = 0.0
            for p4, volume in self.map3.items():
                if p4 <= b_price:
                    threshold += volume
            threshold *= 0.25
            rhs = 0.0
            for p2 in self.map3:
                cum = 0.0
                for p3, volume in self.map3.items():
                    if p3 <= p2:
                        cum += volume
                if threshold < cum:
                    rhs += self.map3[p2]
            if outer_threshold < rhs:
                res += self.map1[b_price]
        return res
