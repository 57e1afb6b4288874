"""Specialized engine for the PSP (price spread) query.

PSP joins bids and asks on column-vs-moving-threshold predicates::

    SELECT SUM(a.price - b.price) FROM bids b, asks a
    WHERE b.volume > 0.0001 * (SELECT SUM(b1.volume) FROM bids b1)
      AND a.volume > 0.0001 * (SELECT SUM(a1.volume) FROM asks a1)

The nested aggregates are *uncorrelated*, but every update moves both
thresholds, so the qualifying sets change globally.  Per side we keep
one ordered index keyed by the join column (volume) whose two columns
are the required sums (Σ price, count); the result is one suffix-sum
probe per side, which returns both — O(log n) per update (this is the
PSP row of Table 1: ours O(log n), DBToaster O(n)).  Keys never shift
here; the index is an RPAI tree for its columns, not for ``shift_keys``.
"""

from __future__ import annotations

from repro.core.rpai import RPAITree
from repro.engine.base import IncrementalEngine, Result
from repro.errors import EngineStateError

__all__ = ["PSPRpaiEngine"]


class _ColumnSide:
    """One side's (Σ price, count) index keyed by volume."""

    __slots__ = ("index", "total_volume")

    def __init__(self) -> None:
        self.index = RPAITree(columns=2, prune_zeros=True)
        self.total_volume: float = 0

    def __setstate__(self, state: tuple) -> None:
        slots = state[1]
        if "index" not in slots:
            # Written when Σ price and count were two maps
            # (``price_sum``/``count``): refuse, so the snapshot loader
            # rebuilds from the log instead.
            raise EngineStateError(
                "_ColumnSide state predates the two-column index layout"
            )
        for name, value in slots.items():
            setattr(self, name, value)


def _side_row(relation: str):
    """Row handler of one side: a tuple moves (Σ price, count) at its
    volume and the side's total."""

    def handler(self, x, volume, price) -> None:
        side = self.sides[relation]
        side.index.add(volume, x * price, x)
        side.total_volume += x * volume

    return handler


class PSPRpaiEngine(IncrementalEngine):
    """O(log n)-per-update PSP via column-keyed ordered indexes."""

    name = "rpai"

    def __init__(self) -> None:
        self.sides = {"bids": _ColumnSide(), "asks": _ColumnSide()}

    row_handlers = {
        "bids": (_side_row("bids"), ("volume", "price")),
        "asks": (_side_row("asks"), ("volume", "price")),
    }

    def result(self) -> Result:
        # Per side (Σ price, count) over tuples with volume > 0.0001 * total.
        asks, bids = self.sides["asks"], self.sides["bids"]
        ask_sum, ask_count = asks.index.suffix_sum(0.0001 * asks.total_volume)
        bid_sum, bid_count = bids.index.suffix_sum(0.0001 * bids.total_volume)
        # SUM(a.price - b.price) over qualifying pairs.
        return bid_count * ask_sum - ask_count * bid_sum
