"""PAI Maps: hash-based Partial Aggregate Indexes (paper Section 2.1.3).

A PAI Map is an ordinary hash map whose *keys are aggregate values* and
whose values are the partial result aggregates the query needs.  For
queries whose correlated subquery uses only **equality** predicates
(Example 2.1), PAI Maps alone fully incrementalize the query in O(1)
per update: a tuple insertion moves exactly one aggregate key, which is
a pair of hash-map updates (Figure 1c).

For **inequality** predicates (Example 2.2), PAI Maps still work but
``get_sum`` and ``shift_keys`` must iterate over all keys, giving O(n)
per update — better than DBToaster's O(n^2), and the stepping stone to
the O(log n) RPAI tree of Section 3.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from repro.core.interfaces import shift_then_add
from repro.obs import SELFCHECK as _SELF
from repro.obs import SINK as _SINK

__all__ = ["PAIMap"]


class PAIMap:
    """Hash-map Partial Aggregate Index.

    Implements the full :class:`~repro.core.interfaces.AggregateIndex`
    protocol.  ``get``/``put``/``add``/``delete`` are amortized O(1);
    ``get_sum``/``shift_keys`` and the ordered helpers are O(n) or
    O(n log n) because a hash map has no key order.

    Args:
        prune_zeros: when True, entries whose value becomes exactly 0
            after :meth:`add` or :meth:`shift_keys` are removed.  The
            engines enable this so the index size tracks the number of
            *live* aggregate groups rather than the number of updates.
    """

    __slots__ = ("_data", "prune_zeros", "_total")

    def __init__(self, *, prune_zeros: bool = False) -> None:
        self._data: dict[float, float] = {}
        self._total: float = 0
        self.prune_zeros = prune_zeros

    @classmethod
    def bulk_load(
        cls,
        sorted_items: Iterable[tuple[float, float]],
        *,
        prune_zeros: bool = False,
    ) -> "PAIMap":
        """Build a map from key-sorted ``(key, value)`` pairs in O(n).

        A hash map has no key order, but the sorted-unique-keys contract
        is shared with :meth:`RPAITree.bulk_load` /
        :meth:`TreeMap.bulk_load` so the three index implementations
        stay drop-in interchangeable on the warm-start path.

        Raises:
            ValueError: when keys are not strictly increasing.
        """
        index = cls(prune_zeros=prune_zeros)
        previous: float | None = None
        for key, value in sorted_items:
            if previous is not None and previous >= key:
                raise ValueError(
                    f"bulk_load requires strictly increasing keys, got "
                    f"{previous!r} before {key!r}"
                )
            previous = key
            if prune_zeros and value == 0:
                continue
            index._data[key] = value
            index._total += value
        if _SELF.enabled:
            index.check_invariants()
        return index

    # -- basic map operations -------------------------------------------------

    def get(self, key: float, default: float = 0.0) -> float:
        return self._data.get(key, default)

    def put(self, key: float, value: float) -> None:
        self._total += value - self._data.get(key, 0)
        self._data[key] = value
        if self.prune_zeros and value == 0:
            del self._data[key]
        if _SELF.enabled:
            self.check_invariants()

    def add(self, key: float, delta: float) -> None:
        new = self._data.get(key, 0) + delta
        self._total += delta
        if self.prune_zeros and new == 0:
            self._data.pop(key, None)
        else:
            self._data[key] = new
        if _SELF.enabled:
            self.check_invariants()

    def delete(self, key: float) -> float:
        if key not in self._data:
            raise KeyError(key)
        value = self._data.pop(key)
        self._total -= value
        if _SELF.enabled:
            self.check_invariants()
        return value

    # -- aggregate operations -------------------------------------------------

    def get_sum(self, key: float, *, inclusive: bool = True) -> float:
        """O(n) scan over all keys (the paper's ``getSum`` for hash maps)."""
        if _SINK.enabled:
            _SINK.inc("paimap.get_sum")
            _SINK.observe("paimap.get_sum_scanned", len(self._data))
        if inclusive:
            return sum(v for k, v in self._data.items() if k <= key)
        return sum(v for k, v in self._data.items() if k < key)

    def total_sum(self) -> float:
        return self._total

    shift_add = shift_then_add

    def shift_keys(self, key: float, delta: float, *, inclusive: bool = False) -> None:
        """O(n) rebuild shifting qualifying keys; collisions merge by +."""
        if delta == 0:
            return
        if _SINK.enabled:
            _SINK.inc("paimap.shift_keys")
            _SINK.observe("paimap.shift_scanned", len(self._data))
        shifted: dict[float, float] = {}
        for k, v in self._data.items():
            qualifies = k >= key if inclusive else k > key
            nk = k + delta if qualifies else k
            shifted[nk] = shifted.get(nk, 0) + v
        if self.prune_zeros:
            shifted = {k: v for k, v in shifted.items() if v != 0}
        self._data = shifted
        self._total = sum(shifted.values())
        if _SELF.enabled:
            self.check_invariants()

    # -- order / search helpers (all O(n) or O(n log n)) ----------------------

    def min_key(self) -> float:
        if not self._data:
            raise KeyError("empty index")
        return min(self._data)

    def max_key(self) -> float:
        if not self._data:
            raise KeyError("empty index")
        return max(self._data)

    def successor(self, key: float) -> float | None:
        candidates = [k for k in self._data if k > key]
        return min(candidates) if candidates else None

    def predecessor(self, key: float) -> float | None:
        candidates = [k for k in self._data if k < key]
        return max(candidates) if candidates else None

    def first_key_with_prefix_above(self, threshold: float) -> float | None:
        running = 0.0
        for k in sorted(self._data):
            running += self._data[k]
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
        for k in sorted(self._data):
            above = k >= lo if lo_inclusive else k > lo
            below = k <= hi if hi_inclusive else k < hi
            if above and below:
                yield (k, self._data[k])

    # -- iteration / dunder ----------------------------------------------------

    def items(self) -> Iterator[tuple[float, float]]:
        yield from sorted(self._data.items())

    def unordered_items(self) -> Iterator[tuple[float, float]]:
        """Hash-order iteration, O(n) without the sort; for scans where
        order does not matter (e.g. DBToaster-style loops)."""
        yield from self._data.items()

    # -- as source, for a caller that emits its own statements --------------

    @staticmethod
    def emit_data(index: str) -> str:
        """Source of ``index``'s dict while ``index`` is a pruning map
        and self-checks are off (so :meth:`emit_add` may update it in
        place), else ``None``.  It reads :data:`EMIT_GLOBALS`."""
        inline = f"type({index}) is _PAIMap and {index}.prune_zeros and not _SELF.enabled"
        return f"{index}._data if {inline} else None"

    @staticmethod
    def emit_add(data: str, index: str, key: str, delta: str) -> list[str]:
        """:meth:`add` as statements on ``data``, the dict
        :meth:`emit_data` read off ``index``."""
        return [
            f"_h = {data}.get({key}, 0) + {delta}",
            f"{index}._total += {delta}",
            "if _h == 0:",
            f"    {data}.pop({key}, None)",
            "else:",
            f"    {data}[{key}] = _h",
        ]

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: float) -> bool:
        return key in self._data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        entries = ", ".join(f"{k}: {v}" for k, v in self.items())
        return f"PAIMap({{{entries}}})"

    # -- validation (tests / self-check mode) -----------------------------------

    def validate(self) -> None:
        """Public invariant self-check (alias of :meth:`check_invariants`);
        runs automatically per mutation under ``REPRO_SELFCHECK=1``."""
        self.check_invariants()

    def check_invariants(self) -> None:
        """Verify the maintained total against the stored entries and the
        ``prune_zeros`` discipline (no dead zero-valued keys).

        The total is maintained incrementally (O(1) per update), so a
        drift here means a missed or double-applied delta; the tolerance
        absorbs ordinary float round-off on float-valued workloads.
        """
        if _SINK.enabled:
            _SINK.inc("selfcheck.validations")
        actual = sum(self._data.values())
        assert math.isclose(
            self._total, actual, rel_tol=1e-9, abs_tol=1e-6
        ), f"total drift: maintained {self._total}, actual {actual}"
        if self.prune_zeros:
            dead = [k for k, v in self._data.items() if v == 0]
            assert not dead, f"prune_zeros map holds zero-valued keys {dead}"


#: what :meth:`PAIMap.emit_data` and :meth:`PAIMap.emit_add` read
EMIT_GLOBALS = {"_PAIMap": PAIMap, "_SELF": _SELF}
