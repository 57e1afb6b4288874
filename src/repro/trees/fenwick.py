"""Fenwick tree (Binary Indexed Tree) over a dense integer key universe.

A related-work comparator (paper Section 6), not a runtime candidate:
Fenwick trees [Fenwick 1994] answer prefix-sum queries in O(log U) over
a universe of keys ``0..capacity-1`` but have **no support for shifting
key ranges** — moving the keys of all entries above a pivot requires
rebuilding, which is exactly the gap RPAI trees fill.  The ablation
benchmark (``benchmarks/bench_rpai_ops.py``) quantifies this.

So that the comparison runs through the same engines and conformance
suite as the real backends, it implements the full
:class:`~repro.core.interfaces.AggregateIndex` protocol with
prune-zeros semantics (a zero value *is* absence — the only mode the
engines use), grows its universe by doubling, and supports the
order/search helpers the engines probe
(``first_key_with_prefix_above`` runs in O(log U) via binary lifting;
``successor``/``predecessor``/``min_key``/``max_key`` are O(U) scans).

The BIT itself is maintained **lazily**: ``add`` updates the point-value
array (O(1)) and appends the delta to a pending queue; prefix-sum reads
drain the queue first — incrementally (O(p log U)) when it is short, by
a full O(U) rebuild when ``p log U`` would exceed that.  Point reads,
iteration, ``len`` and ``total_sum`` (a maintained scalar) never touch
the BIT, so a role that only ever does point updates and point probes —
the equality-θ aggregate index with an ``=`` outer comparison — runs at
flat-array speed and pays for prefix machinery it doesn't use exactly
never.  Interleaved add/get_sum traffic drains one or two deltas per
read, the same O(log U) work eager maintenance would have done.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.core.interfaces import shift_then_add

__all__ = ["FenwickTree"]


class FenwickTree:
    """Classic BIT storing point values with prefix-sum queries.

    Args:
        capacity: initial size of the key universe; valid keys are
            ``0 <= key < capacity``.  :meth:`grow` extends it.
        prune_zeros: accepted for :class:`AggregateIndex` parity.  A
            Fenwick tree cannot represent an explicit zero-valued entry
            distinctly from an absent key, so zero always means absent
            regardless of this flag; under prune-zeros roles (the only
            mode the engines use) the semantics coincide.
    """

    __slots__ = ("_tree", "_values", "_pending", "_total", "_nnz", "capacity", "prune_zeros")

    def __init__(self, capacity: int = 1024, *, prune_zeros: bool = False) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.prune_zeros = prune_zeros
        self._tree = [0.0] * (capacity + 1)
        self._values = [0.0] * capacity  # point values, for get/rebuild
        self._pending: list[tuple[int, float]] = []  # deltas not yet in _tree
        self._total = 0.0  # maintained scalar: sum of all values
        self._nnz = 0  # number of non-zero entries, for O(1) len()

    @classmethod
    def bulk_load(
        cls,
        sorted_items: Iterable[tuple[int, float]],
        *,
        prune_zeros: bool = False,
        capacity: int | None = None,
    ) -> "FenwickTree":
        """Build from key-sorted ``(key, value)`` pairs in O(n + U).

        The BIT array is constructed with the linear-time parent
        propagation pass instead of n O(log U) ``add`` calls.

        Raises:
            ValueError: when keys are not strictly increasing integers
                in ``[0, capacity)``.
        """
        items = [(k, v) for k, v in sorted_items if v != 0]
        if capacity is None:
            capacity = max(1024, items[-1][0] + 1 if items else 0)
        tree = cls(capacity, prune_zeros=prune_zeros)
        last = -1
        for key, value in items:
            if not isinstance(key, int) or not 0 <= key < capacity:
                raise ValueError(f"bulk_load key {key!r} outside universe [0, {capacity})")
            if key <= last:
                raise ValueError("bulk_load requires strictly increasing keys")
            last = key
            tree._values[key] = value
        tree._nnz = len(items)
        tree._total = sum(v for _, v in items)
        tree._rebuild_tree()
        return tree

    def _rebuild_tree(self) -> None:
        """O(U) BIT construction from ``_values`` (supersedes and drops
        any pending deltas — they are already in ``_values``)."""
        self._pending.clear()
        tree = self._tree
        for i in range(1, self.capacity + 1):
            tree[i] = self._values[i - 1]
        for i in range(1, self.capacity + 1):
            j = i + (i & (-i))
            if j <= self.capacity:
                tree[j] += tree[i]

    def _flush(self) -> None:
        """Fold the pending deltas into the BIT before a prefix read.

        Short queues drain incrementally (O(p log U)); long ones — a
        point-update burst with no intervening prefix reads — amortize
        into one O(U) rebuild.
        """
        pending = self._pending
        if not pending:
            return
        capacity = self.capacity
        if len(pending) * capacity.bit_length() >= capacity:
            self._rebuild_tree()
            return
        tree = self._tree
        for key, delta in pending:
            i = key + 1
            while i <= capacity:
                tree[i] += delta
                i += i & (-i)
        pending.clear()

    def grow(self, min_capacity: int) -> None:
        """Extend the key universe to at least ``min_capacity`` by
        doubling, rebuilding the BIT in O(new capacity)."""
        capacity = self.capacity
        while capacity < min_capacity:
            capacity *= 2
        if capacity == self.capacity:
            return
        self._values.extend([0.0] * (capacity - self.capacity))
        self._tree = [0.0] * (capacity + 1)
        self.capacity = capacity
        self._rebuild_tree()  # rebuild from _values; drops pending too

    # -- basic map operations -------------------------------------------------

    def add(self, key: int, delta: float) -> None:
        """Add ``delta`` to the value at ``key``.

        O(1): the point array and the scalar total update immediately;
        the BIT delta is queued and folded in by the next prefix read
        (see :meth:`_flush`).
        """
        if not 0 <= key < self.capacity:
            raise IndexError(f"key {key} outside universe [0, {self.capacity})")
        values = self._values
        old = values[key]
        new = old + delta
        values[key] = new
        if old == 0:
            if new != 0:
                self._nnz += 1
        elif new == 0:
            self._nnz -= 1
        self._total += delta
        pending = self._pending
        pending.append((key, delta))
        if len(pending) >= self.capacity:
            # Bound queue memory at O(U) for prefix-free workloads; one
            # O(U) rebuild per U appends keeps add amortized O(1).
            self._rebuild_tree()

    def get(self, key: int, default: float = 0.0) -> float:
        if not 0 <= key < self.capacity:
            return default
        value = self._values[key]
        return value if value != 0 else default

    def put(self, key: int, value: float) -> None:
        self.add(key, value - self._values[key] if 0 <= key < self.capacity else value)

    def delete(self, key: int) -> float:
        """Remove ``key`` (zero its value) and return the old value.

        Raises:
            KeyError: if no non-zero value is stored at ``key``.
        """
        if not 0 <= key < self.capacity or self._values[key] == 0:
            raise KeyError(key)
        value = self._values[key]
        self.add(key, -value)
        return value

    def pop(self, key: int, default: float | None = None) -> float | None:
        if key in self:
            return self.delete(key)
        return default

    # -- aggregate operations -------------------------------------------------

    def get_sum(self, key: int, *, inclusive: bool = True) -> float:
        """Sum of values with keys ``<= key`` (``< key`` if exclusive);
        O(log capacity) plus draining any queued point updates."""
        if self._pending:
            self._flush()
        upper = key if inclusive else key - 1
        upper = min(upper, self.capacity - 1)
        total = 0.0
        tree = self._tree
        i = upper + 1
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return total

    def total_sum(self) -> float:
        """Sum of all values — a maintained scalar, O(1)."""
        return self._total

    def suffix_sum(self, key: int, *, inclusive: bool = False) -> float:
        """Sum of values over entries with key ``> key`` (``>= key``)."""
        return self.total_sum() - self.get_sum(key, inclusive=not inclusive)

    shift_add = shift_then_add

    def shift_keys(self, key: int, delta: int, *, inclusive: bool = False) -> None:
        """O(capacity): Fenwick trees cannot shift keys structurally, so
        this literally rebuilds — included to make the comparison in the
        ablation benchmark honest."""
        start = key if inclusive else key + 1
        moved: dict[int, float] = {}
        for k in range(max(start, 0), self.capacity):
            if self._values[k] != 0:
                moved[k] = self._values[k]
        for k, v in moved.items():
            self.add(k, -v)
        for k, v in moved.items():
            nk = k + delta
            if not 0 <= nk < self.capacity:
                raise IndexError(f"shift moved key {k} outside the universe")
            self.add(nk, v)

    # -- order / search helpers ------------------------------------------------

    def min_key(self) -> int:
        """Smallest live key; raises KeyError when empty.  O(U)."""
        if self._nnz:
            for k, v in enumerate(self._values):
                if v != 0:
                    return k
        raise KeyError("empty index")

    def max_key(self) -> int:
        """Largest live key; raises KeyError when empty.  O(U)."""
        if self._nnz:
            for k in range(self.capacity - 1, -1, -1):
                if self._values[k] != 0:
                    return k
        raise KeyError("empty index")

    def successor(self, key: float) -> int | None:
        """Smallest live key strictly greater than ``key``.  O(U)."""
        values = self._values
        for k in range(max(int(key) + 1 if key >= 0 else 0, 0), self.capacity):
            if values[k] != 0 and k > key:
                return k
        return None

    def predecessor(self, key: float) -> int | None:
        """Largest live key strictly smaller than ``key``.  O(U)."""
        values = self._values
        for k in range(min(int(key), self.capacity - 1), -1, -1):
            if values[k] != 0 and k < key:
                return k
        return None

    def first_key_with_prefix_above(self, threshold: float) -> int | None:
        """Smallest key ``k`` with ``get_sum(k) > threshold``, in
        O(log U) via binary lifting over the BIT.  Like the tree
        variants, assumes all values are non-negative."""
        if not self._nnz or self.total_sum() <= threshold:
            # Empty first: with threshold < 0 the prefix-sum test below
            # would otherwise "find" a key in an empty index.
            return None
        if self._pending:
            self._flush()
        # Largest pos (1-based prefix length) with prefix(pos) <= threshold.
        bit = 1
        while bit * 2 <= self.capacity:
            bit *= 2
        pos = 0
        remaining = threshold
        tree = self._tree
        while bit:
            nxt = pos + bit
            if nxt <= self.capacity and tree[nxt] <= remaining:
                pos = nxt
                remaining -= tree[nxt]
            bit >>= 1
        # prefix(pos + 1) > threshold, so 0-based key `pos` is the
        # answer — and carries positive value, unless even the empty
        # prefix exceeds the threshold (threshold < 0).
        if self._values[pos] == 0:
            return self.min_key()
        return pos

    # -- iteration / dunder ----------------------------------------------------

    def items(self) -> Iterator[tuple[int, float]]:
        """Live ``(key, value)`` pairs in increasing key order."""
        for k, v in enumerate(self._values):
            if v != 0:
                yield (k, v)

    def keys(self) -> Iterator[int]:
        for k, _ in self.items():
            yield k

    def values(self) -> Iterator[float]:
        for _, v in self.items():
            yield v

    def clear(self) -> None:
        self._tree = [0.0] * (self.capacity + 1)
        self._values = [0.0] * self.capacity
        self._pending.clear()
        self._total = 0.0
        self._nnz = 0

    def __len__(self) -> int:
        return self._nnz

    def __bool__(self) -> bool:
        return self._nnz > 0

    def __contains__(self, key: float) -> bool:
        return (
            isinstance(key, int)
            and 0 <= key < self.capacity
            and self._values[key] != 0
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        entries = ", ".join(f"{k}: {v}" for k, v in self.items())
        return f"FenwickTree({{{entries}}})"
