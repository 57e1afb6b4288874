"""An augmented TreeMap: balanced BST with absolute keys and subtree sums.

This is the Section 3.1 structure — "we augment a typical TreeMap data
structure to maintain the required information in the nodes of the
tree" — *before* the parent-relative twist of Section 3.2.  It supports
``get_sum`` in O(log n) like the RPAI tree, but ``shift_keys`` must
rewrite every qualifying key and is therefore O(n).

The query engines use it wherever an *ordered* index is needed whose
keys never shift (column-keyed indexes such as ``price -> sum(volume)``
in PSP or ``quantity -> sum(extendedprice)`` in Q17), and the ablation
benchmark uses it to isolate exactly how much of RPAI's win comes from
relative keys versus from tree-based prefix sums.

Hot-path engineering (see docs/rpai_internals.md): all mutations run as
iterative loops over an explicit parent stack instead of recursive
descent; ``put``/``add`` on an existing key take an in-place fast path
that adjusts the value and the subtree sums along the stack without any
rebalancing; inserts and deletes stop rebalancing at the first level
that keeps its height and finish with O(1)-per-level sum adjustments;
``fetch_add`` returns the old value and the exclusive prefix sum from
the same descent that applies the delta (the range triggers' bound-map
step); spliced-out nodes are pooled in a bounded free list.
The AVL rotation/rebalance machinery itself is shared with the RPAI
tree via :mod:`repro.trees._avl`.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.core.interfaces import shift_then_add
from repro.obs import SELFCHECK as _SELF
from repro.obs import SINK as _SINK
from repro.trees._avl import flatten, link, preorder, unflatten
from repro.trees._avl import height as _height
from repro.trees._avl import make_avl_ops

__all__ = ["TreeMap"]

_MISSING = object()


class _Node:
    __slots__ = ("key", "value", "sum", "height", "left", "right")

    def __init__(self, key: float, value: float) -> None:
        self.key = key
        self.value = value
        self.sum = value
        self.height = 1
        self.left: _Node | None = None
        self.right: _Node | None = None


def _update(node: _Node) -> None:
    left, right = node.left, node.right
    height = 1
    total = node.value
    if left is not None:
        if left.height >= height:
            height = left.height + 1
        total += left.sum
    if right is not None:
        if right.height >= height:
            height = right.height + 1
        total += right.sum
    node.height = height
    node.sum = total


_rotate_left, _rotate_right, _rebalance = make_avl_ops(
    _update, relative=False, rotation_counter="treemap.rotations"
)

# Bounded pool of spliced-out nodes, shared by every TreeMap in the
# process: delete-heavy workloads (order-book churn) otherwise allocate
# a fresh node object for every reinserted key.
_POOL: list[_Node] = []
_POOL_MAX = 4096


def _new_node(key: float, value: float) -> _Node:
    if _POOL:
        if _SINK.enabled:
            _SINK.inc("treemap.freelist.hits")
        node = _POOL.pop()
        node.key = key
        node.value = value
        node.sum = value
        node.height = 1
        return node
    if _SINK.enabled:
        _SINK.inc("treemap.freelist.misses")
    return _Node(key, value)


def _free_node(node: _Node) -> None:
    if len(_POOL) < _POOL_MAX:
        node.left = None
        node.right = None
        _POOL.append(node)
        if _SINK.enabled:
            _SINK.observe("treemap.freelist.depth", len(_POOL))


def _build_balanced(items: list[tuple[float, float]], lo: int, hi: int) -> _Node | None:
    """Midpoint-recursive build over ``items[lo:hi]``: height-balanced
    (valid AVL) with sums/heights computed bottom-up."""
    if lo >= hi:
        return None
    mid = (lo + hi) // 2
    node = _Node(*items[mid])
    node.left = _build_balanced(items, lo, mid)
    node.right = _build_balanced(items, mid + 1, hi)
    _update(node)
    return node


class TreeMap:
    """Ordered map with O(log n) prefix sums over values.

    Implements the same AggregateIndex protocol as :class:`PAIMap` and
    :class:`RPAITree` so engines and benchmarks can swap it in; its
    ``shift_keys`` is the O(n) collect-and-rebuild the paper ascribes to
    non-relative trees.
    """

    __slots__ = ("_root", "_size", "prune_zeros")

    def __init__(self, *, prune_zeros: bool = False) -> None:
        self._root: _Node | None = None
        self._size = 0
        self.prune_zeros = prune_zeros

    @classmethod
    def bulk_load(
        cls,
        sorted_items: Iterable[tuple[float, float]],
        *,
        prune_zeros: bool = False,
    ) -> "TreeMap":
        """Build a balanced map from key-sorted ``(key, value)`` pairs in
        O(n) — the batched counterpart of n O(log n) :meth:`put` calls.

        Raises:
            ValueError: when keys are not strictly increasing.
        """
        tree = cls(prune_zeros=prune_zeros)
        items = [(k, v) for k, v in sorted_items if not (prune_zeros and v == 0)]
        for i in range(1, len(items)):
            if items[i - 1][0] >= items[i][0]:
                raise ValueError(
                    f"bulk_load requires strictly increasing keys, got "
                    f"{items[i - 1][0]!r} before {items[i][0]!r}"
                )
        tree._root = _build_balanced(items, 0, len(items))
        tree._size = len(items)
        if _SELF.enabled:
            tree.check_invariants()
        return tree

    # -- pickled state --------------------------------------------------------
    # One flat list per field in pre-order, not a graph of node objects;
    # sums are restored as written, heights follow from the shape.

    def __getstate__(self) -> tuple:
        nodes, masks = preorder(self._root)
        return flatten(self.prune_zeros, [
            [n.key for n in nodes], masks, [n.value for n in nodes], [n.sum for n in nodes]
        ])

    def __setstate__(self, state: Any) -> None:
        self.prune_zeros, (keys, masks, values, sums) = unflatten(state, "TreeMap", 4)
        nodes = list(map(_Node, keys, values))
        for node, total in zip(nodes, sums):
            node.sum = total
        self._root = link(nodes, masks)
        self._size = len(nodes)
        if _SELF.enabled:
            self.check_invariants()

    # -- basic map operations -------------------------------------------------

    def get(self, key: float, default: float = 0.0) -> float:
        node = self._root
        while node is not None:
            if key == node.key:
                return node.value
            node = node.left if key < node.key else node.right
        return default

    def put(self, key: float, value: float) -> None:
        if _SINK.enabled:
            _SINK.inc("treemap.put")
        self._put_root(key, value, replace=True)
        if _SELF.enabled:
            self.check_invariants()

    def add(self, key: float, delta: float) -> None:
        if _SINK.enabled:
            _SINK.inc("treemap.add")
        self._put_root(key, delta, replace=False)
        if _SELF.enabled:
            self.check_invariants()

    def fetch_add(self, key: float, delta: float) -> tuple[float, float]:
        """:meth:`add`, returning what the descent passes on its way:
        ``(old value at key, sum of values over keys < key)`` — i.e.
        ``get(key, 0)`` and ``get_sum(key, inclusive=False)`` as they
        were *before* the delta, for the price of the add alone."""
        if _SINK.enabled:
            _SINK.inc("treemap.add")
        node = self._root
        prefix: float = 0
        if node is None:
            if not (self.prune_zeros and delta == 0):
                self._root = _new_node(key, delta)
                self._size = 1
            return 0, prefix
        stack: list[_Node] = []
        dirs: list[bool] = []
        while True:
            if key == node.key:
                left = node.left
                if left is not None:
                    prefix += left.sum
                old = node.value
                if self.prune_zeros and old + delta == 0:
                    self._splice(stack, dirs, node)
                elif delta:
                    node.value = old + delta
                    node.sum += delta
                    for ancestor in stack:
                        ancestor.sum += delta
                break
            stack.append(node)
            if key < node.key:
                dirs.append(False)
                child = node.left
            else:
                dirs.append(True)
                prefix += node.value
                child = node.left
                if child is not None:
                    prefix += child.sum
                child = node.right
            if child is None:
                old = 0
                if not (self.prune_zeros and delta == 0):
                    self._insert_leaf(stack, dirs, key, delta)
                break
            node = child
        if _SELF.enabled:
            self.check_invariants()
        return old, prefix

    def delete(self, key: float) -> float:
        if _SINK.enabled:
            _SINK.inc("treemap.delete")
        value = self._remove(key)
        if value is _MISSING:
            raise KeyError(key)
        return value

    def pop(self, key: float, default: float | None = None) -> float | None:
        value = self._remove(key)
        if value is _MISSING:
            return default
        if _SINK.enabled:
            _SINK.inc("treemap.delete")
        return value

    def _remove(self, key: float):
        """One descent: splice ``key`` out via the stack the search
        built; ``_MISSING`` when it is absent."""
        node = self._root
        stack: list[_Node] = []
        dirs: list[bool] = []
        while node is not None and key != node.key:
            stack.append(node)
            if key < node.key:
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

    def get_sum(self, key: float, *, inclusive: bool = True) -> float:
        if _SINK.enabled:
            _SINK.inc("treemap.get_sum")
        total: float = 0
        node = self._root
        while node is not None:
            qualifies = node.key <= key if inclusive else node.key < key
            if qualifies:
                total += node.value
                if node.left is not None:
                    total += node.left.sum
                node = node.right
            else:
                node = node.left
        return total

    def total_sum(self) -> float:
        return self._root.sum if self._root is not None else 0

    def suffix_sum(self, key: float, *, inclusive: bool = False) -> float:
        return self.total_sum() - self.get_sum(key, inclusive=not inclusive)

    shift_add = shift_then_add

    def shift_keys(self, key: float, delta: float, *, inclusive: bool = False) -> None:
        """O(n): collect entries, shift the qualifying keys, rebuild.

        The rebuild merges the kept and shifted runs (both key-sorted)
        directly into a balanced tree, so the whole operation is one
        O(n) pass rather than n O(log n) re-insertions.  Keys that
        collide after the shift merge by addition (the Section 3.2.4
        aggregate special case); merges to zero are pruned under
        ``prune_zeros``.
        """
        if delta == 0 or self._root is None:
            return
        moved: list[tuple[float, float]] = []
        kept: list[tuple[float, float]] = []
        for k, v in self.items():
            qualifies = k >= key if inclusive else k > key
            (moved if qualifies else kept).append((k, v))
        if _SINK.enabled:
            _SINK.inc("treemap.shift_keys")
            _SINK.observe("treemap.shift_moved", len(moved))
        shifted = [(k + delta, v) for k, v in moved]
        merged: list[tuple[float, float]] = []
        i = j = 0
        prune = self.prune_zeros
        while i < len(kept) or j < len(shifted):
            if j >= len(shifted) or (i < len(kept) and kept[i][0] < shifted[j][0]):
                entry = kept[i]
                i += 1
            elif i >= len(kept) or shifted[j][0] < kept[i][0]:
                entry = shifted[j]
                j += 1
            else:  # equal keys collide: merge by addition
                entry = (kept[i][0], kept[i][1] + shifted[j][1])
                i += 1
                j += 1
            if prune and entry[1] == 0:
                continue
            merged.append(entry)
        self._root = _build_balanced(merged, 0, len(merged))
        self._size = len(merged)
        if _SELF.enabled:
            self.check_invariants()

    # -- order / search helpers ------------------------------------------------

    def min_key(self) -> float:
        node = self._root
        if node is None:
            raise KeyError("empty index")
        while node.left is not None:
            node = node.left
        return node.key

    def max_key(self) -> float:
        node = self._root
        if node is None:
            raise KeyError("empty index")
        while node.right is not None:
            node = node.right
        return node.key

    def successor(self, key: float) -> float | None:
        best: float | None = None
        node = self._root
        while node is not None:
            if node.key > key:
                best = node.key
                node = node.left
            else:
                node = node.right
        return best

    def predecessor(self, key: float) -> float | None:
        best: float | None = None
        node = self._root
        while node is not None:
            if node.key < key:
                best = node.key
                node = node.right
            else:
                node = node.left
        return best

    def first_key_with_prefix_above(self, threshold: float) -> float | None:
        node = self._root
        if node is None or node.sum <= threshold:
            return None
        remaining = threshold
        while node is not None:
            left_sum = node.left.sum if node.left is not None else 0
            if node.left is not None and left_sum > remaining:
                node = node.left
                continue
            if left_sum + node.value > remaining:
                return node.key
            remaining -= left_sum + node.value
            node = node.right
        return None  # pragma: no cover

    def first_key_and_prefix_above(self, threshold: float) -> tuple[float, float] | None:
        """:meth:`first_key_with_prefix_above` together with the sum of
        the values over keys below that key — ``(key, get_sum(key,
        inclusive=False))`` — from the same descent; ``None`` where the
        other returns ``None``."""
        node = self._root
        if node is None or node.sum <= threshold:
            return None
        remaining = threshold
        below: float = 0
        while node is not None:
            left_sum = node.left.sum if node.left is not None else 0
            if node.left is not None and left_sum > remaining:
                node = node.left
                continue
            if left_sum + node.value > remaining:
                return node.key, below + left_sum
            remaining -= left_sum + node.value
            below += left_sum + node.value
            node = node.right
        return None  # pragma: no cover

    def range_items(
        self,
        lo: float,
        hi: float,
        *,
        lo_inclusive: bool = False,
        hi_inclusive: bool = True,
    ) -> Iterator[tuple[float, float]]:
        yield from self._range(self._root, lo, hi, lo_inclusive, hi_inclusive)

    # -- iteration / dunder ----------------------------------------------------

    def items(self) -> Iterator[tuple[float, float]]:
        node = self._root
        stack: list[_Node] = []
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield (node.key, node.value)
            node = node.right

    def keys(self) -> Iterator[float]:
        for k, _ in self.items():
            yield k

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
        while node is not None:
            if key == node.key:
                return True
            node = node.left if key < node.key else node.right
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        entries = ", ".join(f"{k}: {v}" for k, v in self.items())
        return f"TreeMap({{{entries}}})"

    # -- internals --------------------------------------------------------------

    def _attach(self, stack: list[_Node], dirs: list[bool], i: int, node: _Node | None) -> None:
        """Reattach the (possibly new) root of the subtree at stack
        level ``i`` to its parent (or as the tree root for i == 0)."""
        if i == 0:
            self._root = node
        else:
            parent = stack[i - 1]
            if dirs[i - 1]:
                parent.right = node
            else:
                parent.left = node

    def _put_root(self, key: float, value: float, *, replace: bool) -> None:
        """Iterative insert/merge of ``(key, value)``, prune-aware.

        Existing keys take the fast path: set/merge the value in place
        and bump the subtree sums along the parent stack — no height or
        balance work, since the structure is unchanged.  A value that
        lands on exactly 0 under ``prune_zeros`` splices the node out
        via the already-built stack instead.
        """
        node = self._root
        prune = self.prune_zeros
        if node is None:
            if prune and value == 0:
                return
            self._root = _new_node(key, value)
            self._size = 1
            return
        stack: list[_Node] = []
        dirs: list[bool] = []
        while True:
            if key == node.key:
                new = value if replace else node.value + value
                if prune and new == 0:
                    self._splice(stack, dirs, node)
                    return
                delta = new - node.value
                node.value = new
                if delta:
                    node.sum += delta
                    for ancestor in stack:
                        ancestor.sum += delta
                return
            stack.append(node)
            if key < node.key:
                dirs.append(False)
                child = node.left
            else:
                dirs.append(True)
                child = node.right
            if child is None:
                break
            node = child
        if prune and value == 0:
            return
        self._insert_leaf(stack, dirs, key, value)

    def _insert_leaf(self, stack: list[_Node], dirs: list[bool], key: float, value: float) -> None:
        """Attach a new leaf under ``stack[-1]`` and unwind: full
        rebalance until a level keeps its height (AVL insert needs at
        most one rotation, after which every ancestor keeps its
        pre-insert height), then sums-only increments."""
        leaf = _new_node(key, value)
        self._size += 1
        if dirs[-1]:
            stack[-1].right = leaf
        else:
            stack[-1].left = leaf
        i = len(stack) - 1
        while i >= 0:
            current = stack[i]
            old_height = current.height
            balanced = _rebalance(current)
            if balanced is not current:
                self._attach(stack, dirs, i, balanced)
            i -= 1
            if balanced.height == old_height:
                break
        while i >= 0:
            stack[i].sum += value
            i -= 1

    def _splice(self, stack: list[_Node], dirs: list[bool], node: _Node) -> float:
        """Remove ``node`` (found at the bottom of ``stack``) and repair
        the path; returns the removed value.

        The unwind rebalances only until a level keeps its height — no
        ancestor's height or balance can change after that — and the
        rest just lose the removed value from their sums.  In the
        two-children case the levels below ``node`` lose the in-order
        successor's value (it moved up into ``node``); from ``node`` up
        they lose ``node``'s own.
        """
        value = node.value
        target = -1
        if node.left is not None and node.right is not None:
            target = len(stack)
            stack.append(node)
            dirs.append(True)
            doomed = node.right
            while doomed.left is not None:
                stack.append(doomed)
                dirs.append(False)
                doomed = doomed.left
            replacement = doomed.right
            gone = doomed.value
            node.key = doomed.key
            node.value = gone
        else:
            doomed = node
            replacement = node.right if node.left is None else node.left
            gone = value
        if stack:
            parent = stack[-1]
            if dirs[-1]:
                parent.right = replacement
            else:
                parent.left = replacement
        else:
            self._root = replacement
        _free_node(doomed)
        self._size -= 1
        i = len(stack) - 1
        while i >= 0:
            current = stack[i]
            old_height = current.height
            balanced = _rebalance(current)
            if balanced is not current:
                self._attach(stack, dirs, i, balanced)
            i -= 1
            if balanced.height == old_height:
                break
        while i >= 0:
            stack[i].sum -= gone if i > target else value
            i -= 1
        return value

    def _range(
        self,
        node: _Node | None,
        lo: float,
        hi: float,
        lo_inclusive: bool,
        hi_inclusive: bool,
    ) -> Iterator[tuple[float, float]]:
        if node is None:
            return
        above_lo = node.key >= lo if lo_inclusive else node.key > lo
        below_hi = node.key <= hi if hi_inclusive else node.key < hi
        if above_lo:
            yield from self._range(node.left, lo, hi, lo_inclusive, hi_inclusive)
        if above_lo and below_hi:
            yield (node.key, node.value)
        if below_hi:
            yield from self._range(node.right, lo, hi, lo_inclusive, hi_inclusive)

    # -- validation (tests / self-check mode) -----------------------------------

    def validate(self) -> None:
        """Public invariant self-check (alias of :meth:`check_invariants`);
        runs automatically per mutation under ``REPRO_SELFCHECK=1``."""
        self.check_invariants()

    def check_invariants(self) -> None:
        """Verify BST order, AVL balance, heights and subtree sums."""
        if _SINK.enabled:
            _SINK.inc("selfcheck.validations")
        size = self._validate(self._root, None, None)
        assert size == self._size, "size mismatch"

    def _validate(self, node: _Node | None, lo: float | None, hi: float | None) -> int:
        if node is None:
            return 0
        assert lo is None or node.key > lo, "BST violation"
        assert hi is None or node.key < hi, "BST violation"
        left_size = self._validate(node.left, lo, node.key)
        right_size = self._validate(node.right, node.key, hi)
        assert node.height == 1 + max(_height(node.left), _height(node.right))
        assert abs(_height(node.left) - _height(node.right)) <= 1, "AVL imbalance"
        expected = node.value
        if node.left is not None:
            expected += node.left.sum
        if node.right is not None:
            expected += node.right.sum
        assert node.sum == expected, "sum mismatch"
        return left_size + right_size + 1
