"""Segment tree over a dense integer key universe.

A related-work comparator (paper Section 6), not a runtime candidate:
segment trees [de Berg et al. 2008] support range-sum queries in
O(log U) but, like Fenwick trees, index positions in a fixed universe
and cannot shift the keys themselves.

It implements the full :class:`~repro.core.interfaces.AggregateIndex`
protocol so the comparison runs through the same engines and
conformance suite as the real backends.  Compared to the Fenwick
comparator it trades a lazier update path for an O(1) point read and
an eager O(log U) add:

* ``add`` walks leaf-to-root (O(log U), no pending queue), so prefix
  reads never pay a flush;
* ``get`` is a single leaf read, O(1);
* ``get_sum`` is the classic iterative bottom-up range sum, O(log U);
* ``first_key_with_prefix_above`` descends from the root, O(log U).

Like Fenwick it has prune-zeros semantics baked in (a zero value *is*
absence — the only mode the engines use), grows its universe by
doubling, and serves the order/search helpers with O(U) scans.  Out-of-universe keys — negative or
non-integer — raise the typed :class:`~repro.errors.KeyUniverseError`
instead of a bare ``IndexError``; keys at or above the current capacity
are *not* errors, they trigger :meth:`grow`.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import KeyUniverseError
from repro.obs import SELFCHECK as _SELF
from repro.obs import SINK as _SINK

__all__ = ["SegmentTree"]


class SegmentTree:
    """Iterative segment tree with point updates and range-sum queries.

    Keys are integers in ``[0, capacity)``; the tree size is rounded up
    to the next power of two and doubles on demand.

    Args:
        capacity: initial size of the key universe.
        prune_zeros: accepted for :class:`AggregateIndex` parity.  A
            segment tree cannot represent an explicit zero-valued entry
            distinctly from an absent key, so zero always means absent
            regardless of this flag; the backend selector only picks
            this backend for prune-zeros roles, where the semantics
            coincide.
    """

    __slots__ = ("_size", "_tree", "_nnz", "capacity", "prune_zeros")

    def __init__(self, capacity: int = 1024, *, prune_zeros: bool = False) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.prune_zeros = prune_zeros
        size = 1
        while size < capacity:
            size *= 2
        self._size = size
        self._tree = [0.0] * (2 * size)
        self._nnz = 0  # number of non-zero leaves, for O(1) len()

    @classmethod
    def bulk_load(
        cls,
        sorted_items: Iterable[tuple[int, float]],
        *,
        prune_zeros: bool = False,
        capacity: int | None = None,
    ) -> "SegmentTree":
        """Build from key-sorted ``(key, value)`` pairs in O(n + U).

        Leaves are written directly and the internal sums are built with
        one linear parent pass instead of n O(log U) ``add`` calls.

        Raises:
            ValueError: when keys are not strictly increasing
                non-negative integers.
        """
        items = [(k, v) for k, v in sorted_items if v != 0]
        if capacity is None:
            capacity = max(1024, items[-1][0] + 1 if items else 0)
        seg = cls(capacity, prune_zeros=prune_zeros)
        tree = seg._tree
        size = seg._size
        last = -1
        for key, value in items:
            if not isinstance(key, int) or not 0 <= key < capacity:
                raise ValueError(f"bulk_load key {key!r} outside universe [0, {capacity})")
            if key <= last:
                raise ValueError("bulk_load requires strictly increasing keys")
            last = key
            tree[size + key] = value
        for i in range(size - 1, 0, -1):
            tree[i] = tree[2 * i] + tree[2 * i + 1]
        seg._nnz = len(items)
        return seg

    def _check_key(self, key: int) -> int:
        """Validate ``key`` as a universe index, growing if needed."""
        if type(key) is not int:
            # Integer-valued floats (3.0) are accepted; anything else is
            # out of the universe by construction.
            if isinstance(key, float) and key.is_integer():
                key = int(key)
            elif isinstance(key, int):  # bool
                key = int(key)
            else:
                raise KeyUniverseError(f"key {key!r} is not a dense integer key")
        if key < 0:
            raise KeyUniverseError(f"key {key} outside universe [0, inf)")
        if key >= self.capacity:
            self.grow(key + 1)
        return key

    def grow(self, min_capacity: int) -> None:
        """Extend the key universe to at least ``min_capacity`` by
        doubling, rebuilding the internal sums in O(new capacity).
        Amortized O(1) per insert."""
        capacity = self.capacity
        while capacity < min_capacity:
            capacity *= 2
        if capacity == self.capacity:
            return
        size = 1
        while size < capacity:
            size *= 2
        old_tree = self._tree
        old_size = self._size
        tree = [0.0] * (2 * size)
        tree[size : size + old_size] = old_tree[old_size : 2 * old_size]
        for i in range(size - 1, 0, -1):
            tree[i] = tree[2 * i] + tree[2 * i + 1]
        self._tree = tree
        self._size = size
        self.capacity = capacity
        _SINK.inc("segment.grows")

    # -- basic map operations -------------------------------------------------

    def add(self, key: int, delta: float) -> None:
        """Add ``delta`` to the value at ``key``; O(log capacity)."""
        key = self._check_key(key)
        tree = self._tree
        i = key + self._size
        old = tree[i]
        new = old + delta
        if old == 0:
            if new != 0:
                self._nnz += 1
        elif new == 0:
            self._nnz -= 1
        while i >= 1:
            tree[i] += delta
            i //= 2
        if _SELF.enabled:
            self.check_invariants()

    def get(self, key: int, default: float = 0.0) -> float:
        if type(key) is not int:
            if isinstance(key, float) and key.is_integer():
                key = int(key)
            elif isinstance(key, int):
                key = int(key)
            else:
                return default
        if not 0 <= key < self.capacity:
            return default
        value = self._tree[key + self._size]
        return value if value != 0 else default

    def put(self, key: int, value: float) -> None:
        key = self._check_key(key)
        self.add(key, value - self._tree[key + self._size])

    def delete(self, key: int) -> float:
        """Remove ``key`` (zero its value) and return the old value.

        Raises:
            KeyError: if no non-zero value is stored at ``key``.
        """
        if key not in self:
            raise KeyError(key)
        value = self._tree[int(key) + self._size]
        self.add(key, -value)
        return value

    def pop(self, key: int, default: float | None = None) -> float | None:
        if key in self:
            return self.delete(key)
        return default

    # -- aggregate operations -------------------------------------------------

    def range_sum(self, lo: int, hi: int) -> float:
        """Sum of values for keys in ``[lo, hi]`` (inclusive both ends)."""
        lo = max(lo, 0)
        hi = min(hi, self.capacity - 1)
        if lo > hi:
            return 0.0
        total = 0.0
        tree = self._tree
        left = lo + self._size
        right = hi + self._size + 1
        while left < right:
            if left & 1:
                total += tree[left]
                left += 1
            if right & 1:
                right -= 1
                total += tree[right]
            left //= 2
            right //= 2
        return total

    def get_sum(self, key: float, *, inclusive: bool = True) -> float:
        """Sum of values with keys ``<= key`` (``< key`` if exclusive);
        O(log capacity).  Fractional keys floor: no integer lies in
        ``(floor(key), key]``."""
        if type(key) is not int:
            key = int(key // 1)
        upper = key if inclusive else key - 1
        return self.range_sum(0, upper)

    def total_sum(self) -> float:
        """Sum of all values — the root node, O(1)."""
        return self._tree[1]

    def suffix_sum(self, key: int, *, inclusive: bool = False) -> float:
        """Sum of values over entries with key ``> key`` (``>= key``)."""
        return self.total_sum() - self.get_sum(key, inclusive=not inclusive)

    def shift_keys(self, key: int, delta: int, *, inclusive: bool = False) -> None:
        """O(capacity): like the Fenwick backend, a positional structure
        cannot shift keys structurally, so this literally moves every
        affected entry — included to make the ablation comparison
        honest."""
        start = key if inclusive else key + 1
        size = self._size
        tree = self._tree
        moved: list[tuple[int, float]] = []
        for k in range(max(int(start), 0), self.capacity):
            value = tree[size + k]
            if value != 0:
                moved.append((k, value))
        for k, v in moved:
            if k + delta < 0:
                raise KeyUniverseError(f"shift moved key {k} outside the universe")
        for k, v in moved:
            self.add(k, -v)
        for k, v in moved:
            self.add(k + delta, v)
        _SINK.inc("segment.shift_rebuilds")

    # -- order / search helpers ------------------------------------------------

    def min_key(self) -> int:
        """Smallest live key; raises KeyError when empty.  O(U)."""
        if self._nnz:
            size = self._size
            tree = self._tree
            for k in range(self.capacity):
                if tree[size + k] != 0:
                    return k
        raise KeyError("empty index")

    def max_key(self) -> int:
        """Largest live key; raises KeyError when empty.  O(U)."""
        if self._nnz:
            size = self._size
            tree = self._tree
            for k in range(self.capacity - 1, -1, -1):
                if tree[size + k] != 0:
                    return k
        raise KeyError("empty index")

    def successor(self, key: float) -> int | None:
        """Smallest live key strictly greater than ``key``.  O(U)."""
        size = self._size
        tree = self._tree
        for k in range(max(int(key) + 1 if key >= 0 else 0, 0), self.capacity):
            if tree[size + k] != 0 and k > key:
                return k
        return None

    def predecessor(self, key: float) -> int | None:
        """Largest live key strictly smaller than ``key``.  O(U)."""
        size = self._size
        tree = self._tree
        for k in range(min(int(key), self.capacity - 1), -1, -1):
            if tree[size + k] != 0 and k < key:
                return k
        return None

    def first_key_with_prefix_above(self, threshold: float) -> int | None:
        """Smallest key ``k`` with ``get_sum(k) > threshold``, by
        descending from the root in O(log U).  Like the other backends,
        assumes all values are non-negative."""
        if not self._nnz or self._tree[1] <= threshold:
            # Empty first: with threshold < 0 the descent below would
            # otherwise "find" a key in an empty index.
            return None
        tree = self._tree
        i = 1
        remaining = threshold
        while i < self._size:
            left = 2 * i
            if tree[left] > remaining:
                i = left
            else:
                remaining -= tree[left]
                i = left + 1
        key = i - self._size
        if tree[i] == 0:
            # threshold < 0 landed on an empty leaf: the answer is the
            # first live key (its prefix already exceeds the threshold).
            return self.min_key()
        return key

    # -- iteration / dunder ----------------------------------------------------

    def items(self) -> Iterator[tuple[int, float]]:
        """Live ``(key, value)`` pairs in increasing key order."""
        size = self._size
        tree = self._tree
        for k in range(self.capacity):
            value = tree[size + k]
            if value != 0:
                yield (k, value)

    def keys(self) -> Iterator[int]:
        for k, _ in self.items():
            yield k

    def values(self) -> Iterator[float]:
        for _, v in self.items():
            yield v

    def clear(self) -> None:
        self._tree = [0.0] * (2 * self._size)
        self._nnz = 0

    def check_invariants(self) -> None:
        """O(U) structural validation: every internal node must equal the
        sum of its children and the non-zero count must match."""
        tree = self._tree
        for i in range(1, self._size):
            expected = tree[2 * i] + tree[2 * i + 1]
            if abs(tree[i] - expected) > 1e-6:
                raise AssertionError(
                    f"segment node {i}: cached {tree[i]!r} != children {expected!r}"
                )
        nnz = sum(1 for i in range(self.capacity) if tree[self._size + i] != 0)
        if nnz != self._nnz:
            raise AssertionError(f"segment nnz {self._nnz} != actual {nnz}")

    def __len__(self) -> int:
        return self._nnz

    def __bool__(self) -> bool:
        return self._nnz > 0

    def __contains__(self, key: float) -> bool:
        if isinstance(key, float) and key.is_integer():
            key = int(key)
        return (
            isinstance(key, int)
            and 0 <= key < self.capacity
            and self._tree[int(key) + self._size] != 0
        )

    def __getstate__(self) -> dict:
        return {
            "capacity": self.capacity,
            "prune_zeros": self.prune_zeros,
            "items": list(self.items()),
        }

    def __setstate__(self, state: dict) -> None:
        self.capacity = state["capacity"]
        self.prune_zeros = state["prune_zeros"]
        size = 1
        while size < self.capacity:
            size *= 2
        self._size = size
        self._tree = [0.0] * (2 * size)
        self._nnz = 0
        for key, value in state["items"]:
            self.add(key, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        entries = ", ".join(f"{k}: {v}" for k, v in self.items())
        return f"SegmentTree({{{entries}}})"
