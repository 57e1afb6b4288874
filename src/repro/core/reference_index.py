"""A slow, obviously-correct aggregate index used as a testing oracle.

:class:`ReferenceIndex` keeps its entries in a sorted list and performs
every operation by brute force.  It exists so that the property-based
tests can run *the same* random operation sequence against an
:class:`~repro.core.rpai.RPAITree` (or :class:`~repro.core.pai_map.PAIMap`)
and this oracle, and require the observable state to match exactly.

Nothing in the hot engine paths uses this class.
"""

from __future__ import annotations

import bisect
from typing import Iterator

from repro.core.interfaces import shift_then_add

__all__ = ["ReferenceIndex"]


class ReferenceIndex:
    """Sorted-list implementation of the AggregateIndex protocol.

    All operations are O(n) or worse; correctness over speed.
    """

    def __init__(self, *, prune_zeros: bool = False) -> None:
        self._keys: list[float] = []
        self._values: list[float] = []
        self.prune_zeros = prune_zeros

    # -- basic map operations -------------------------------------------------

    def get(self, key: float, default: float = 0.0) -> float:
        i = bisect.bisect_left(self._keys, key)
        if i < len(self._keys) and self._keys[i] == key:
            return self._values[i]
        return default

    def put(self, key: float, value: float) -> None:
        i = bisect.bisect_left(self._keys, key)
        if i < len(self._keys) and self._keys[i] == key:
            self._values[i] = value
        else:
            self._keys.insert(i, key)
            self._values.insert(i, value)
        self._maybe_prune(key)

    def add(self, key: float, delta: float) -> None:
        self.put(key, self.get(key, 0.0) + delta)

    def delete(self, key: float) -> float:
        i = bisect.bisect_left(self._keys, key)
        if i >= len(self._keys) or self._keys[i] != key:
            raise KeyError(key)
        self._keys.pop(i)
        return self._values.pop(i)

    def _maybe_prune(self, key: float) -> None:
        if self.prune_zeros and self.get(key, None) == 0:
            self.delete(key)

    # -- aggregate operations -------------------------------------------------

    def get_sum(self, key: float, *, inclusive: bool = True) -> float:
        if inclusive:
            return sum(v for k, v in zip(self._keys, self._values) if k <= key)
        return sum(v for k, v in zip(self._keys, self._values) if k < key)

    def total_sum(self) -> float:
        return sum(self._values)

    shift_add = shift_then_add

    def shift_keys(self, key: float, delta: float, *, inclusive: bool = False) -> None:
        """Shift qualifying keys by ``delta``, merging collisions by +."""
        merged: dict[float, float] = {}
        for k, v in zip(self._keys, self._values):
            qualifies = k >= key if inclusive else k > key
            nk = k + delta if qualifies else k
            merged[nk] = merged.get(nk, 0.0) + v
        self._keys = sorted(merged)
        self._values = [merged[k] for k in self._keys]
        if self.prune_zeros:
            pairs = [(k, v) for k, v in zip(self._keys, self._values) if v != 0]
            self._keys = [k for k, _ in pairs]
            self._values = [v for _, v in pairs]

    # -- order / search helpers ----------------------------------------------

    def min_key(self) -> float:
        if not self._keys:
            raise KeyError("empty index")
        return self._keys[0]

    def max_key(self) -> float:
        if not self._keys:
            raise KeyError("empty index")
        return self._keys[-1]

    def successor(self, key: float) -> float | None:
        """Smallest key strictly greater than ``key`` (None if none)."""
        i = bisect.bisect_right(self._keys, key)
        return self._keys[i] if i < len(self._keys) else None

    def predecessor(self, key: float) -> float | None:
        """Largest key strictly smaller than ``key`` (None if none)."""
        i = bisect.bisect_left(self._keys, key)
        return self._keys[i - 1] if i > 0 else None

    def first_key_with_prefix_above(self, threshold: float) -> float | None:
        """Smallest key ``k`` with ``get_sum(k) > threshold`` (None if the
        total never exceeds it)."""
        running = 0.0
        for k, v in zip(self._keys, self._values):
            running += v
            if running > threshold:
                return k
        return None

    def range_items(
        self,
        lo: float,
        hi: float,
        *,
        lo_inclusive: bool = False,
        hi_inclusive: bool = True,
    ) -> Iterator[tuple[float, float]]:
        """Iterate entries with key in the given interval, ascending."""
        for k, v in zip(list(self._keys), list(self._values)):
            above = k >= lo if lo_inclusive else k > lo
            below = k <= hi if hi_inclusive else k < hi
            if above and below:
                yield (k, v)

    # -- iteration / dunder ----------------------------------------------------

    def items(self) -> Iterator[tuple[float, float]]:
        yield from zip(list(self._keys), list(self._values))

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: float) -> bool:
        i = bisect.bisect_left(self._keys, key)
        return i < len(self._keys) and self._keys[i] == key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        entries = ", ".join(f"{k}: {v}" for k, v in self.items())
        return f"ReferenceIndex({{{entries}}})"
