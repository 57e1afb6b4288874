"""A hand-derived RPAI engine for the MST (missed trades) query: the
reference the plan-built engine is checked against.

MST is the multi-relation conjunctive form of Section 4.3::

    SELECT SUM(a.price - b.price) FROM asks a, bids b
    WHERE 0.25 * (SELECT SUM(a1.volume) FROM asks a1)
            > (SELECT SUM(a2.volume) FROM asks a2 WHERE a2.price > a.price)
      AND 0.25 * (SELECT SUM(b1.volume) FROM bids b1)
            > (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price > b.price)

Four nested aggregates, two correlated — one per relation, each
correlated only on its own relation's columns, so each side gets its
own aggregate index (Algorithm 4's multi-relation form).  Because the
result is a SUM over a cross join of a *linear* expression, it
decomposes over the qualifying sets A and B::

    Σ_{a∈A, b∈B} (a.price - b.price) = |B|·Σ_A price - |A|·Σ_B price

so each side's index carries two columns — Σ price and count — the
"required sums" of Algorithm 4.  Every update is one range shift + one
point update, every result two prefix-sum probes: O(log n).
"""

from __future__ import annotations

from repro.engine.base import IncrementalEngine, Result
from repro.engine.queries.common import ShiftedSide

__all__ = ["MSTRpaiEngine"]


def _side_row(relation: str):
    """Row handler of one side: one range shift + one point update."""

    def handler(self, x, price, volume) -> None:
        self.sides[relation].apply(price, x * volume, {None: (x * price, x)})

    return handler


class MSTRpaiEngine(IncrementalEngine):
    """O(log n)-per-update MST via per-relation RPAI indexes."""

    name = "rpai"

    def __init__(self) -> None:
        # Correlation: x.price > outer.price, SUM(volume); required
        # sums per side: Σ price and count of qualifying tuples.
        self.sides = {
            "asks": ShiftedSide(">", columns=2),
            "bids": ShiftedSide(">", columns=2),
        }

    row_handlers = {
        "asks": (_side_row("asks"), ("price", "volume")),
        "bids": (_side_row("bids"), ("price", "volume")),
    }

    def result(self) -> Result:
        # Outer predicates: 0.25 * total_volume > subquery value.
        (ask_sum, ask_count), (bid_sum, bid_count) = (
            side.qualifying(">", 0.25 * side.bound_map.total_sum())[None]
            for side in (self.sides["asks"], self.sides["bids"])
        )
        return bid_count * ask_sum - ask_count * bid_sum
