"""The aggregate-index interface shared by PAI maps and RPAI trees.

Section 2 of the paper identifies two operations, beyond ordinary map
``get``/``put``, that an index *keyed by aggregate values* must support
to fully incrementalize correlated nested aggregate queries:

``get_sum(k)``
    Sum of the values of all entries whose key is ``<= k`` (Figure 3).
    Used to evaluate inequality predicates like
    ``lhs_sum < rhs_sum`` directly from the index.

``shift_keys(k, d)``
    Shift every key strictly greater than ``k`` by ``d`` (Algorithm 1/2).
    Used when a base-table update changes a whole *range* of inner
    aggregate values at once — e.g. inserting a bid moves the
    ``rhs_sum`` of every outer bid with a higher price.

The implementations in this package trade these operations off exactly
as the paper's Sections 2–3 narrate (U = dense integer key universe):

=======================  ==========  ==========  ============
implementation           get/put     get_sum     shift_keys
=======================  ==========  ==========  ============
:class:`PAIMap`          O(1)        O(n)        O(n)
:class:`TreeMap`         O(log n)    O(log n)    O(n)
:class:`RPAITree`        O(log n)    O(log n)    O(log n) [*]
:class:`FenwickTree`     O(1) am.    O(log U)    O(U)
=======================  ==========  ==========  ============

[*] positive offsets always; negative offsets are O(log n) in the
aggregate-maintenance special case of Section 3.2.4 and
O(v log n) in general, where ``v`` is the number of BST violations
repaired (worst case ``v = n``, matching the paper's O(n log n) bound).
Fenwick point updates are amortized O(1) because BIT maintenance is
deferred to the next prefix read (lazy pending queue); an interleaved
add/get_sum pattern pays the usual O(log U) per update at drain time.

All three implementations additionally expose a ``bulk_load`` class
method that builds an index from key-sorted ``(key, value)`` pairs in
O(n) — the batched counterpart of n repeated ``put`` calls, used by the
engines' warm-start path.  It is not part of the protocol because the
fixed-universe substrates (Fenwick, segment tree) construct differently.
"""

from __future__ import annotations

from typing import Iterator, Protocol, runtime_checkable

__all__ = ["AggregateIndex", "Number"]

# Keys and values are numbers.  The engines in this package only ever
# store exact (int / Fraction) keys so that shifted keys land exactly on
# existing ones; floats are permitted for ad-hoc use.
Number = float  # documentation alias: "any real number type"


@runtime_checkable
class AggregateIndex(Protocol):
    """Protocol implemented by PAI maps, TreeMaps and RPAI trees.

    Keys are aggregate values (or plain column values); values are the
    partial aggregates being indexed.  Keys are unique: ``add`` merges
    into an existing entry, ``put`` overwrites.
    """

    def get(self, key: float, default: float = 0.0) -> float:
        """Return the value stored at ``key`` or ``default``."""
        ...

    def put(self, key: float, value: float) -> None:
        """Insert ``key`` or overwrite its current value."""
        ...

    def add(self, key: float, delta: float) -> None:
        """Add ``delta`` to the value at ``key`` (inserting 0 first if
        absent).  This is the hot-path operation of every trigger."""
        ...

    def delete(self, key: float) -> float:
        """Remove ``key`` and return its value.

        Raises:
            KeyError: if ``key`` is not present.
        """
        ...

    def get_sum(self, key: float, *, inclusive: bool = True) -> float:
        """Sum of values over all entries with key ``<= key``
        (``< key`` when ``inclusive=False``)."""
        ...

    def total_sum(self) -> float:
        """Sum of all values (== ``get_sum(+inf)``), in O(1)."""
        ...

    def shift_keys(self, key: float, delta: float, *, inclusive: bool = False) -> None:
        """Shift every key ``> key`` (``>= key`` when ``inclusive=True``)
        by ``delta``.  Keys that collide after the shift merge by
        addition (the Section 3.2.4 aggregate special case)."""
        ...

    def items(self) -> Iterator[tuple[float, float]]:
        """Iterate ``(key, value)`` pairs in increasing key order."""
        ...

    def __len__(self) -> int:
        ...

    def __contains__(self, key: float) -> bool:
        ...
