"""RPAI trees: Relative Partial Aggregate Indexes (paper Section 3).

An RPAI tree is a balanced binary search tree keyed by aggregate values
in which every node stores its key **relative to its parent**: the
actual key of a node is the sum of the stored keys along the path from
the root.  This single representational twist is what makes
``shift_keys`` logarithmic — adding ``d`` to one node's stored key
implicitly shifts the keys of its entire subtree (Section 3.2.1).

Each node additionally maintains:

``sum``
    the sum of the values in its subtree, which makes the prefix-sum
    query ``get_sum(k)`` logarithmic (Section 3.1, Figure 3);
``min_off`` / ``max_off``
    the minimum / maximum actual key in its subtree expressed as an
    offset from the node's *own* actual key.  These correspond to the
    paper's ``minKey``/``maxKey`` attributes (Section 3.2.3) but are
    stored frame-free, so they never need adjusting when the node's own
    stored key changes; they are used to detect BST violations after a
    negative shift.

Columns: a tree built with ``columns=k`` maps each key to *k* values
and keeps k subtree sums per node (``value``/``sum``, ``value1``/
``sum1``, ...) under one relative key, one pair of offsets and one
height.  Algorithm 4 maintains one aggregate index per "required sum"
of a relation; those indexes hold the same keys at every instant and
receive the same shifts, so they are the columns of one tree: one
``shift_keys``, one ``add(key, d0, .., dk-1)`` and one ``get_sum``
(returning all k prefix sums) per update, whatever k is.  The code that
touches payload slots is generated per width from one template
(:mod:`repro.core._rpai_kernel`); everything else lives in this module
and is shared.  At k = 1 every operation takes and returns plain
scalars.

Balancing: the paper balances with Left-Leaning Red-Black trees and
notes the scheme is interchangeable ("the same principles would apply
to B-trees as well", Section 3.2.5).  This implementation balances with
AVL rotations — the rotations carry the relative keys, subtree sums and
min/max offsets through exactly as Section 3.2.5 requires, and AVL's
delete is easier to verify exhaustively.  Heights, and therefore every
complexity bound in the paper, are identical up to constants.

Hot-path engineering (see docs/rpai_internals.md): every public
mutation runs as an iterative loop over an explicit parent stack —
no per-level Python frames or tuple returns.  ``put``/``add`` on an
existing key take an in-place fast path (adjust the value and bump
subtree sums along the stack; structure, heights and offsets are
untouched).  Inserts, deletes and negative shifts all unwind by one
rule: full rebalancing only while the structure below is still changing
(until a level keeps its height; from the first BST violation up), then
O(1)-per-level sum/offset patches.  Spliced-out nodes are pooled in a
bounded free list.  The recursive subtree helpers (``_put``/``_delete``)
survive only for the rare Algorithm 2 violation repairs, which operate
on detached subtrees.

Complexities (n = number of entries):

* ``get`` / ``put`` / ``add`` / ``delete`` — O(log n)
* ``get_sum`` / ``successor`` / ``first_key_with_prefix_above`` — O(log n)
* ``shift_keys`` with positive offset — O(log n)  (Algorithm 1)
* ``shift_keys`` with negative offset — O((1 + v) log n) where ``v`` is
  the number of BST-order violations repaired (Algorithm 2).  In the
  aggregate-maintenance special case of Section 3.2.4 (monotone keys,
  offset bounded by the deleted tuple's contribution) ``v <= 1``, so
  deletion-driven shifts stay logarithmic.
"""

from __future__ import annotations

import re
from typing import Any, Iterable, Iterator

from repro.core._rpai_kernel import compile_kernel
from repro.obs import SELFCHECK as _SELF
from repro.obs import SINK as _SINK
from repro.trees._avl import flatten, unflatten
from repro.trees._avl import height as _height

__all__ = ["RPAITree", "RPAINode"]

_MISSING = object()


class RPAITree:
    """Relative Partial Aggregate Index (paper Section 3).

    A map from unique numeric keys (aggregate values) to numeric values
    (partial aggregates) supporting logarithmic ``get_sum`` and
    ``shift_keys`` on top of the usual ordered-map operations.

    Args:
        columns: how many values each key carries.  With ``columns=1``
            (the default) values and sums are scalars; with more,
            ``put``/``add`` take one argument per column and ``get``,
            ``get_sum``, ``total_sum``, ``suffix_sum``, ``delete`` and
            ``pop`` return k-tuples.  ``RPAITree(columns=k)`` is an
            instance of ``RPAITree`` for every k.
        prune_zeros: when True, an :meth:`add` that brings an entry's
            value to exactly 0 — in every column — removes the entry.
            The query engines enable this so the index size tracks live
            aggregate groups.

    Example:
        >>> t = RPAITree()
        >>> for k, v in [(10, 3), (20, 3), (40, 2), (60, 8)]:
        ...     t.put(k, v)
        >>> t.get_sum(50)
        8
        >>> t.shift_keys(15, 100)   # shift keys > 15 up by 100
        >>> sorted(k for k, _ in t.items())
        [10, 120, 140, 160]
        >>> pairs = RPAITree(columns=2)
        >>> pairs.add(10, 3, 1)
        >>> pairs.add(20, 5, 1)
        >>> pairs.get_sum(20)
        (8, 2)
    """

    __slots__ = ("_root", "_size", "prune_zeros")

    #: number of value columns per key (a class attribute: each width is
    #: its own subclass, see :func:`_width_class`)
    columns = 1

    def __new__(cls, *, columns: int = 1, prune_zeros: bool = False) -> "RPAITree":
        if cls is RPAITree and columns != 1:
            cls = _width_class(columns)
        return object.__new__(cls)

    def __init__(self, *, columns: int = 1, prune_zeros: bool = False) -> None:
        self._root: Any = None
        self._size = 0
        self.prune_zeros = prune_zeros

    @classmethod
    def bulk_load(
        cls,
        sorted_items: Iterable[tuple],
        *,
        columns: int = 1,
        prune_zeros: bool = False,
    ) -> "RPAITree":
        """Build a tree from ``(key, value, ...)`` rows sorted by key, in O(n).

        The midpoint-recursive construction yields a height-balanced
        tree (sibling heights differ by at most one, so it is a valid
        AVL tree) and every node's key is stored directly in its
        parent's frame — no shifting or rebalancing ever runs, versus
        the O(n log n) of n repeated :meth:`put` calls.  Rows that are
        zero in every column are skipped when ``prune_zeros`` is set,
        mirroring what the per-entry path would have pruned.

        Raises:
            ValueError: when keys are not strictly increasing.
        """
        tree = cls(columns=columns, prune_zeros=prune_zeros)
        tree._load_sorted(sorted_items)
        if _SELF.enabled:
            tree.check_invariants()
        return tree

    # -- pickled state --------------------------------------------------------
    # Flat per-field sequences (repro.trees._avl.flatten), not a graph of
    # node objects: one C-level pass per field instead of one Python-level
    # reduce per node.  _dump / _load are width-specific.

    def __getstate__(self) -> tuple:
        return flatten(self.prune_zeros, self._dump())

    def __setstate__(self, state: Any) -> None:
        self.prune_zeros, fields = unflatten(state, type(self).__name__, 4 + 2 * self.columns)
        self._load(*fields)
        if _SELF.enabled:
            self.check_invariants()

    # -- basic map operations -------------------------------------------------
    # get / put / add are width-specific (repro.core._rpai_kernel).

    def delete(self, key: float) -> Any:
        """Remove ``key`` and return its value; raises KeyError if absent."""
        if _SINK.enabled:
            _SINK.inc("rpai.delete")
        value = self._remove(key)
        if value is _MISSING:
            raise KeyError(key)
        return value

    def pop(self, key: float, default: Any = None) -> Any:
        """Like :meth:`delete` but returns ``default`` instead of raising."""
        value = self._remove(key)
        if value is _MISSING:
            return default
        if _SINK.enabled:
            _SINK.inc("rpai.delete")
        return value

    def _remove(self, key: float) -> Any:
        """One descent: splice ``key`` out via the stack the search
        built; ``_MISSING`` when it is absent."""
        node = self._root
        stack: list = []
        dirs: list[bool] = []
        remaining = key
        while node is not None and remaining != node.key:
            stack.append(node)
            remaining -= node.key
            if remaining < 0:
                dirs.append(False)
                node = node.left
            else:
                dirs.append(True)
                node = node.right
        if node is None:
            return _MISSING
        value = self._splice(stack, dirs, node)
        if _SELF.enabled:
            self.check_invariants()
        return value

    # -- aggregate operations -------------------------------------------------
    # get_sum / total_sum / suffix_sum are width-specific.

    def shift_keys(self, key: float, delta: float, *, inclusive: bool = False) -> None:
        """Shift every key ``> key`` (``>= key`` if ``inclusive``) by ``delta``.

        Positive offsets follow Algorithm 1 exactly and touch O(log n)
        nodes.  Negative offsets follow Algorithm 2: the same descent,
        plus a BST-violation check against the subtree min/max offsets
        at every step of the way back up; violating entries are
        extracted and re-inserted (merging equal keys by addition),
        which is the Section 3.2.4 behaviour the engines rely on for
        tuple deletions.
        """
        if delta == 0:
            return
        if _SINK.enabled:
            _SINK.inc("rpai.shift_keys.pos" if delta > 0 else "rpai.shift_keys.neg")
            _SINK.observe("rpai.shift_magnitude", abs(delta))
            if delta < 0:
                # Violators-per-negative-shift is the paper's ``v``
                # (Section 3.2.4, expected <= 1 in aggregate usage):
                # delta the global violators counter across this shift.
                before = _SINK.counters.get("rpai.violations", 0)
                self._shift_root(key, delta, inclusive)
                _SINK.observe(
                    "rpai.neg_shift_violations",
                    _SINK.counters.get("rpai.violations", 0) - before,
                )
                if _SELF.enabled:
                    self.check_invariants()
                return
        self._shift_root(key, delta, inclusive)
        if _SELF.enabled:
            self.check_invariants()

    # -- order / search helpers ------------------------------------------------

    def min_key(self) -> float:
        """Smallest actual key; raises KeyError when empty."""
        node = self._root
        if node is None:
            raise KeyError("empty index")
        actual = node.key
        while node.left is not None:
            node = node.left
            actual += node.key
        return actual

    def max_key(self) -> float:
        """Largest actual key; raises KeyError when empty."""
        node = self._root
        if node is None:
            raise KeyError("empty index")
        actual = node.key
        while node.right is not None:
            node = node.right
            actual += node.key
        return actual

    def successor(self, key: float) -> float | None:
        """Smallest key strictly greater than ``key`` (None if none)."""
        best: float | None = None
        node = self._root
        acc: float = 0
        while node is not None:
            actual = acc + node.key
            if actual > key:
                best = actual
                acc = actual
                node = node.left
            else:
                acc = actual
                node = node.right
        return best

    def predecessor(self, key: float) -> float | None:
        """Largest key strictly smaller than ``key`` (None if none)."""
        best: float | None = None
        node = self._root
        acc: float = 0
        while node is not None:
            actual = acc + node.key
            if actual < key:
                best = actual
                acc = actual
                node = node.right
            else:
                acc = actual
                node = node.left
        return best

    def first_key_with_prefix_above(self, threshold: float) -> float | None:
        """Smallest key ``k`` such that column 0's ``get_sum(k) > threshold``.

        Used by the multi-level-nesting engines (NQ1/NQ2) to locate the
        eligibility boundary of a cumulative-volume predicate in
        O(log n).  Assumes all values are non-negative (true for the
        volume/quantity indexes the engines build).
        """
        node = self._root
        if node is None or node.sum <= threshold:
            return None
        acc: float = 0
        remaining = threshold
        while node is not None:
            actual = acc + node.key
            left_sum = node.left.sum if node.left is not None else 0
            if node.left is not None and left_sum > remaining:
                node = node.left
                acc = actual
                continue
            if left_sum + node.value > remaining:
                return actual
            remaining -= left_sum + node.value
            node = node.right
            acc = actual
        return None  # pragma: no cover - guarded by the root.sum check

    def range_items(
        self,
        lo: float,
        hi: float,
        *,
        lo_inclusive: bool = False,
        hi_inclusive: bool = True,
    ) -> Iterator[tuple[float, float]]:
        """Iterate ``(key, value)`` (column 0) with key in the interval,
        ascending.

        O(log n + m) for m reported entries.
        """
        yield from self._range(self._root, 0, lo, hi, lo_inclusive, hi_inclusive)

    # -- iteration / dunder ----------------------------------------------------

    def _walk(self) -> Iterator[tuple[float, Any]]:
        """In-order ``(actual_key, node)`` pairs."""
        stack: list[tuple[Any, float]] = []
        node = self._root
        acc: float = 0
        while stack or node is not None:
            while node is not None:
                acc = acc + node.key
                stack.append((node, acc))
                node = node.left
            node, actual = stack.pop()
            yield (actual, node)
            acc = actual
            node = node.right

    def items(self) -> Iterator[tuple[float, float]]:
        """All ``(actual_key, value)`` pairs in increasing key order.

        On a multi-column tree this is the column-0 view, so the pairs
        always feed a one-column ``bulk_load``/``add``; :meth:`rows`
        yields every column."""
        for actual, node in self._walk():
            yield (actual, node.value)

    def keys(self) -> Iterator[float]:
        for actual, _ in self._walk():
            yield actual

    def values(self) -> Iterator[float]:
        for _, v in self.items():
            yield v

    def clear(self) -> None:
        self._root = None
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._root is not None

    def __contains__(self, key: float) -> bool:
        node = self._root
        remaining = key
        while node is not None:
            if remaining == node.key:
                return True
            remaining -= node.key
            node = node.left if remaining < 0 else node.right
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        entries = ", ".join(
            f"{row[0]}: {row[1] if self.columns == 1 else row[1:]}" for row in self.rows()
        )
        return f"RPAITree({{{entries}}})"

    def height(self) -> int:
        """Current tree height (for balance diagnostics and tests)."""
        return _height(self._root)

    # -- internals --------------------------------------------------------------
    # _put_root / _splice / _shift_root and the fixTree helpers are
    # width-specific.

    def _attach(self, stack: list, dirs: list[bool], i: int, node: Any) -> None:
        """Reattach the (possibly new) root of the subtree at stack
        level ``i`` to its parent (or as the tree root for i == 0).
        Stored keys are frame-relative, so a rotation at level ``i``
        never changes what the parent pointer must carry."""
        if i == 0:
            self._root = node
        else:
            parent = stack[i - 1]
            if dirs[i - 1]:
                parent.right = node
            else:
                parent.left = node

    def _range(
        self,
        node: Any,
        acc: float,
        lo: float,
        hi: float,
        lo_inclusive: bool,
        hi_inclusive: bool,
    ) -> Iterator[tuple[float, float]]:
        if node is None:
            return
        actual = acc + node.key
        above_lo = actual >= lo if lo_inclusive else actual > lo
        below_hi = actual <= hi if hi_inclusive else actual < hi
        if above_lo:
            yield from self._range(node.left, actual, lo, hi, lo_inclusive, hi_inclusive)
        if above_lo and below_hi:
            yield (actual, node.value)
        if below_hi:
            yield from self._range(node.right, actual, lo, hi, lo_inclusive, hi_inclusive)

    # -- validation (tests / self-check mode) -----------------------------------

    def validate(self) -> None:
        """Public invariant self-check (alias of :meth:`check_invariants`).

        With ``REPRO_SELFCHECK=1`` (see :mod:`repro.obs`) this runs
        automatically after every public mutating operation.
        """
        self.check_invariants()

    def check_invariants(self) -> None:
        """Walk the whole tree verifying every structural invariant.

        Raises AssertionError on: broken BST order over *actual* keys,
        stale heights, AVL imbalance, wrong subtree sums (any column),
        or wrong min/max offsets — i.e. every node's derived fields
        equal a from-scratch recomputation.  O(n); used heavily by the
        property tests.
        """
        if _SINK.enabled:
            _SINK.inc("selfcheck.validations")
        size = self._validate(self._root, 0, None, None)
        assert size == self._size, f"size mismatch: counted {size}, stored {self._size}"


# ---------------------------------------------------------------------------
# Widths
# ---------------------------------------------------------------------------
# RPAITree itself is the one-column tree; RPAITree2, RPAITree3, ... are
# subclasses that differ only in the payload-touching methods grafted on
# below.  Classes and their node types are created on first use and are
# reachable as module attributes, which is all pickle needs to restore a
# tree of any width by reference.

_WIDTH_NAME = re.compile(r"RPAI(Tree|Node)([2-9]|[1-9][0-9])")


def _graft(cls: type, columns: int) -> type:
    """Compile the kernel for ``columns`` and install its methods on
    ``cls``; returns the node class."""
    kernel = compile_kernel(columns)
    for name, member in vars(kernel["METHODS"]).items():
        if not name.startswith("__"):
            setattr(cls, name, member)
    node = kernel["Node"]
    node.__module__ = __name__
    node.__name__ = node.__qualname__ = f"RPAINode{columns if columns > 1 else ''}"
    return node


def _width_class(columns: int) -> type:
    """The ``RPAITree`` subclass with ``columns`` value columns."""
    if columns == 1:
        return RPAITree
    if not isinstance(columns, int) or columns < 1:
        raise ValueError(f"columns must be a positive integer, got {columns!r}")
    name = f"RPAITree{columns}"
    cls = globals().get(name)
    if cls is None:
        cls = type(name, (RPAITree,), {"__slots__": (), "columns": columns,
                                       "__module__": __name__})
        node = _graft(cls, columns)
        globals()[name] = cls
        globals()[node.__name__] = node
    return cls


def __getattr__(name: str) -> Any:
    match = _WIDTH_NAME.fullmatch(name)
    if match is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _width_class(int(match[2]))
    return globals()[name]


RPAINode = _graft(RPAITree, 1)
