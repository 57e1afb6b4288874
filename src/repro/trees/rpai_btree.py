"""RPAI over a B-tree (paper Section 3.2.5: "the same principles would
apply to B-trees as well").

Layout: a classic order-``2t`` B-tree in which every child pointer
carries an **offset** — the displacement of the child's key frame
relative to its parent's.  A node's stored keys are relative to its own
frame, so the actual key of an element is the sum of the offsets along
its path plus the stored key.  Shifting an entire child subtree is then
``offsets[i] += d`` — O(1) — and ``shift_keys(k, d)`` touches one seam
path: O(t · log_t n).

Each node also caches its subtree's value ``sum`` and its min/max key
(relative to its own frame), giving O(t · log_t n) ``get_sum`` and
violation detection.

Scope relative to :class:`~repro.core.rpai.RPAITree` (the package
default): positive shifts and order-preserving negative shifts are
fully logarithmic; a negative shift that *breaks* key order (possible
only when the offset exceeds the gap at the boundary — the Section
3.2.4 merge case) is detected along the seam and handled by an O(n)
bulk rebuild with merge-on-collision.  B-tree nodes must keep uniform
leaf depth, which rules out the binary tree's local extract-and-
reinsert repair; the AVL-based RPAITree remains the structure the
engines use, and this variant exists for the Section 3.2.5 claim and
the wide-node ablation.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator

from repro.core.interfaces import shift_then_add
from repro.obs import SELFCHECK as _SELF
from repro.obs import SINK as _SINK

__all__ = ["RPAIBTree"]


class _BNode:
    __slots__ = ("keys", "values", "children", "offsets", "sum", "size", "min_rel", "max_rel")

    def __init__(self) -> None:
        self.keys: list[float] = []
        self.values: list[float] = []
        self.children: list["_BNode"] | None = None  # None for leaves
        self.offsets: list[float] | None = None
        self.sum: float = 0
        self.size: int = 0
        self.min_rel: float = 0
        self.max_rel: float = 0

    @property
    def leaf(self) -> bool:
        return self.children is None

    def refresh(self) -> None:
        """Recompute cached aggregates from keys/values/children."""
        total = sum(self.values)
        count = len(self.keys)
        if self.children is not None:
            assert self.offsets is not None
            for child in self.children:
                total += child.sum
                count += child.size
            self.min_rel = self.offsets[0] + self.children[0].min_rel
            self.max_rel = self.offsets[-1] + self.children[-1].max_rel
        else:
            self.min_rel = self.keys[0] if self.keys else 0
            self.max_rel = self.keys[-1] if self.keys else 0
        self.sum = total
        self.size = count


class RPAIBTree:
    """B-tree Relative Partial Aggregate Index.

    Args:
        min_degree: the B-tree ``t``; nodes hold t-1 .. 2t-1 keys.
        prune_zeros: remove entries whose value becomes exactly 0.
    """

    def __init__(self, *, min_degree: int = 16, prune_zeros: bool = False) -> None:
        if min_degree < 2:
            raise ValueError("min_degree must be >= 2")
        self.t = min_degree
        self.prune_zeros = prune_zeros
        self._root = _BNode()
        self._root.refresh()

    @classmethod
    def bulk_load(
        cls,
        sorted_items: Iterable[tuple[float, float]],
        *,
        prune_zeros: bool = False,
        min_degree: int = 16,
    ) -> "RPAIBTree":
        """Build from key-sorted ``(key, value)`` pairs.

        Sequential insertion of ascending keys only ever touches the
        rightmost path, so this runs in O(n log_t n) with small
        constants — adequate for the warm-start path; this backend has
        no O(n) linear build the way the array-backed ones do.

        Raises:
            ValueError: when keys are not strictly increasing.
        """
        tree = cls(min_degree=min_degree, prune_zeros=prune_zeros)
        last: float | None = None
        for key, value in sorted_items:
            if last is not None and key <= last:
                raise ValueError("bulk_load requires strictly increasing keys")
            last = key
            if prune_zeros and value == 0:
                continue
            tree._insert(key, value, replace=True)
        if _SELF.enabled:
            tree.check_invariants()
        return tree

    # -- basic map operations -------------------------------------------------

    def get(self, key: float, default: float = 0.0) -> float:
        node = self._root
        remaining = key
        while True:
            index = bisect.bisect_left(node.keys, remaining)
            if index < len(node.keys) and node.keys[index] == remaining:
                return node.values[index]
            if node.leaf:
                return default
            assert node.children is not None and node.offsets is not None
            remaining -= node.offsets[index]
            node = node.children[index]

    def __contains__(self, key: float) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel  # type: ignore[arg-type]

    def put(self, key: float, value: float) -> None:
        if self.prune_zeros and value == 0:
            if key in self:
                self.delete(key)
            return
        self._insert(key, value, replace=True)
        if _SELF.enabled:
            self.check_invariants()

    def add(self, key: float, delta: float) -> None:
        if self.prune_zeros:
            current = self.get(key, None)  # type: ignore[arg-type]
            if current is None:
                if delta == 0:
                    return
            elif current + delta == 0:
                self.delete(key)
                return
        self._insert(key, delta, replace=False)
        if _SELF.enabled:
            self.check_invariants()

    def delete(self, key: float) -> float:
        value = self._delete(self._root, key)
        root = self._root
        if not root.keys and root.children is not None:
            # Height shrinks: promote the only child, folding its offset
            # into its contents' frame (the child becomes the root, whose
            # frame is absolute).
            assert root.offsets is not None
            child = root.children[0]
            offset = root.offsets[0]
            _rebase(child, offset)
            self._root = child
        if _SELF.enabled:
            self.check_invariants()
        return value

    def pop(self, key: float, default: float | None = None) -> float | None:
        if key in self:
            return self.delete(key)
        return default

    # -- aggregate operations -------------------------------------------------

    def get_sum(self, key: float, *, inclusive: bool = True) -> float:
        total: float = 0
        node = self._root
        remaining = key
        while True:
            if inclusive:
                boundary = bisect.bisect_right(node.keys, remaining)
            else:
                boundary = bisect.bisect_left(node.keys, remaining)
            total += sum(node.values[:boundary])
            if node.leaf:
                return total
            assert node.children is not None and node.offsets is not None
            for child_index in range(boundary):
                total += node.children[child_index].sum
            remaining -= node.offsets[boundary]
            node = node.children[boundary]

    def total_sum(self) -> float:
        return self._root.sum

    def suffix_sum(self, key: float, *, inclusive: bool = False) -> float:
        return self.total_sum() - self.get_sum(key, inclusive=not inclusive)

    shift_add = shift_then_add

    def shift_keys(self, key: float, delta: float, *, inclusive: bool = False) -> None:
        """Shift qualifying keys by ``delta``.

        Positive deltas and order-preserving negative deltas are
        O(t log n).  An order-breaking negative delta is detected on the
        seam and resolved by an O(n) rebuild with merge-on-collision.
        """
        if delta == 0 or self._root.size == 0:
            return
        violated = self._shift(self._root, key, delta, inclusive)
        if violated:
            self._rebuild_merging()
        if _SELF.enabled:
            self.check_invariants()

    # -- order / search helpers ------------------------------------------------

    def min_key(self) -> float:
        if self._root.size == 0:
            raise KeyError("empty index")
        return self._root.min_rel

    def max_key(self) -> float:
        if self._root.size == 0:
            raise KeyError("empty index")
        return self._root.max_rel

    def successor(self, key: float) -> float | None:
        """Smallest key strictly greater than ``key``; O(t log_t n)."""
        node = self._root
        if node.size == 0:
            return None
        remaining = key
        best: float | None = None
        while True:
            index = bisect.bisect_right(node.keys, remaining)
            if index < len(node.keys):
                best = (key - remaining) + node.keys[index]
            if node.leaf:
                return best
            assert node.children is not None and node.offsets is not None
            remaining -= node.offsets[index]
            node = node.children[index]

    def predecessor(self, key: float) -> float | None:
        """Largest key strictly smaller than ``key``; O(t log_t n)."""
        node = self._root
        if node.size == 0:
            return None
        remaining = key
        best: float | None = None
        while True:
            index = bisect.bisect_left(node.keys, remaining)
            if index > 0:
                best = (key - remaining) + node.keys[index - 1]
            if node.leaf:
                return best
            assert node.children is not None and node.offsets is not None
            remaining -= node.offsets[index]
            node = node.children[index]

    def first_key_with_prefix_above(self, threshold: float) -> float | None:
        """Smallest key ``k`` with ``get_sum(k) > threshold``, descending
        through the cached subtree sums in O(t log_t n).  Like the other
        backends, assumes all values are non-negative."""
        node = self._root
        if node.size == 0 or node.sum <= threshold:
            # Empty first: with threshold < 0 the descent below would
            # otherwise "find" a key in an empty index.
            return None
        base: float = 0
        remaining = threshold
        while True:
            if node.leaf:
                for key, value in zip(node.keys, node.values):
                    if value > remaining:
                        return base + key
                    remaining -= value
                return None  # unreachable while values are non-negative
            assert node.children is not None and node.offsets is not None
            descended = False
            for index, child in enumerate(node.children):
                if child.sum > remaining:
                    base += node.offsets[index]
                    node = child
                    descended = True
                    break
                remaining -= child.sum
                if index < len(node.keys):
                    if node.values[index] > remaining:
                        return base + node.keys[index]
                    remaining -= node.values[index]
            if not descended:
                return None  # unreachable while values are non-negative

    def items(self) -> Iterator[tuple[float, float]]:
        yield from self._items(self._root, 0)

    def keys(self) -> Iterator[float]:
        for key, _ in self.items():
            yield key

    def values(self) -> Iterator[float]:
        for _, value in self.items():
            yield value

    def clear(self) -> None:
        self._root = _BNode()
        self._root.refresh()

    def __len__(self) -> int:
        return self._root.size

    def __bool__(self) -> bool:
        return self._root.size > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        entries = ", ".join(f"{k}: {v}" for k, v in self.items())
        return f"RPAIBTree({{{entries}}})"

    # -- internals: insert ------------------------------------------------------

    def _insert(self, key: float, value: float, *, replace: bool) -> None:
        root = self._root
        if len(root.keys) == 2 * self.t - 1:
            new_root = _BNode()
            new_root.children = [root]
            new_root.offsets = [0]
            self._split_child(new_root, 0)
            self._root = new_root
        self._insert_nonfull(self._root, key, value, replace)

    def _split_child(self, parent: _BNode, index: int) -> None:
        """Split the full child at ``index``; the sibling inherits the
        child's frame, so no keys are rebased."""
        t = self.t
        assert parent.children is not None and parent.offsets is not None
        child = parent.children[index]
        offset = parent.offsets[index]
        sibling = _BNode()
        sibling.keys = child.keys[t:]
        sibling.values = child.values[t:]
        if not child.leaf:
            assert child.children is not None and child.offsets is not None
            sibling.children = child.children[t:]
            sibling.offsets = child.offsets[t:]
            child.children = child.children[:t]
            child.offsets = child.offsets[:t]
        median_key = child.keys[t - 1]
        median_value = child.values[t - 1]
        child.keys = child.keys[: t - 1]
        child.values = child.values[: t - 1]
        child.refresh()
        sibling.refresh()
        parent.keys.insert(index, median_key + offset)
        parent.values.insert(index, median_value)
        parent.children.insert(index + 1, sibling)
        parent.offsets.insert(index + 1, offset)
        parent.refresh()

    def _insert_nonfull(self, node: _BNode, key: float, value: float, replace: bool) -> None:
        index = bisect.bisect_left(node.keys, key)
        if index < len(node.keys) and node.keys[index] == key:
            node.values[index] = value if replace else node.values[index] + value
            node.refresh()
            return
        if node.leaf:
            node.keys.insert(index, key)
            node.values.insert(index, value)
            node.refresh()
            return
        assert node.children is not None and node.offsets is not None
        if len(node.children[index].keys) == 2 * self.t - 1:
            self._split_child(node, index)
            if key == node.keys[index]:
                node.values[index] = value if replace else node.values[index] + value
                node.refresh()
                return
            if key > node.keys[index]:
                index += 1
        self._insert_nonfull(node.children[index], key - node.offsets[index], value, replace)
        node.refresh()

    # -- internals: delete -------------------------------------------------------

    def _delete(self, node: _BNode, key: float) -> float:
        index = bisect.bisect_left(node.keys, key)
        if index < len(node.keys) and node.keys[index] == key:
            if node.leaf:
                node.keys.pop(index)
                value = node.values.pop(index)
                node.refresh()
                return value
            value = node.values[index]
            self._delete_internal_key(node, index)
            node.refresh()
            return value
        if node.leaf:
            raise KeyError(key)
        assert node.children is not None and node.offsets is not None
        index = self._ensure_degree(node, index, key)
        result = self._delete(node.children[index], key - node.offsets[index])
        node.refresh()
        return result

    def _delete_internal_key(self, node: _BNode, index: int) -> None:
        """Remove keys[index] of an internal node via predecessor /
        successor / merge, as in CLRS."""
        t = self.t
        assert node.children is not None and node.offsets is not None
        left, right = node.children[index], node.children[index + 1]
        if len(left.keys) >= t:
            pred_key, pred_value = _max_entry(left)
            node.keys[index] = pred_key + node.offsets[index]
            node.values[index] = pred_value
            self._delete(left, pred_key)
        elif len(right.keys) >= t:
            succ_key, succ_value = _min_entry(right)
            node.keys[index] = succ_key + node.offsets[index + 1]
            node.values[index] = succ_value
            self._delete(right, succ_key)
        else:
            target = node.keys[index] - node.offsets[index]
            self._merge_children(node, index)
            self._delete(node.children[index], target)

    def _ensure_degree(self, node: _BNode, index: int, key: float) -> int:
        """Guarantee children[index] has >= t keys before descending;
        returns the (possibly changed) child index for ``key``."""
        t = self.t
        assert node.children is not None and node.offsets is not None
        if len(node.children[index].keys) >= t:
            return index
        if index > 0 and len(node.children[index - 1].keys) >= t:
            self._borrow_from_left(node, index)
            return index
        if index < len(node.children) - 1 and len(node.children[index + 1].keys) >= t:
            self._borrow_from_right(node, index)
            return index
        if index > 0:
            self._merge_children(node, index - 1)
            return index - 1
        self._merge_children(node, index)
        return index

    def _borrow_from_left(self, node: _BNode, index: int) -> None:
        assert node.children is not None and node.offsets is not None
        child = node.children[index]
        left = node.children[index - 1]
        child_offset = node.offsets[index]
        left_offset = node.offsets[index - 1]
        # Separator key moves down into child (rebased to child frame).
        child.keys.insert(0, node.keys[index - 1] - child_offset)
        child.values.insert(0, node.values[index - 1])
        if not child.leaf:
            assert child.children is not None and child.offsets is not None
            assert left.children is not None and left.offsets is not None
            moved = left.children.pop()
            moved_offset = left.offsets.pop()
            child.children.insert(0, moved)
            child.offsets.insert(0, moved_offset + left_offset - child_offset)
        # Left's max key moves up as the new separator (rebased to node).
        node.keys[index - 1] = left.keys.pop() + left_offset
        node.values[index - 1] = left.values.pop()
        left.refresh()
        child.refresh()

    def _borrow_from_right(self, node: _BNode, index: int) -> None:
        assert node.children is not None and node.offsets is not None
        child = node.children[index]
        right = node.children[index + 1]
        child_offset = node.offsets[index]
        right_offset = node.offsets[index + 1]
        child.keys.append(node.keys[index] - child_offset)
        child.values.append(node.values[index])
        if not child.leaf:
            assert child.children is not None and child.offsets is not None
            assert right.children is not None and right.offsets is not None
            moved = right.children.pop(0)
            moved_offset = right.offsets.pop(0)
            child.children.append(moved)
            child.offsets.append(moved_offset + right_offset - child_offset)
        node.keys[index] = right.keys.pop(0) + right_offset
        node.values[index] = right.values.pop(0)
        right.refresh()
        child.refresh()

    def _merge_children(self, node: _BNode, index: int) -> None:
        """Merge children[index], separator key, children[index+1]."""
        assert node.children is not None and node.offsets is not None
        left = node.children[index]
        right = node.children.pop(index + 1)
        left_offset = node.offsets[index]
        right_offset = node.offsets.pop(index + 1)
        rebase = right_offset - left_offset
        left.keys.append(node.keys.pop(index) - left_offset)
        left.values.append(node.values.pop(index))
        left.keys.extend(k + rebase for k in right.keys)
        left.values.extend(right.values)
        if not left.leaf:
            assert left.children is not None and left.offsets is not None
            assert right.children is not None and right.offsets is not None
            left.children.extend(right.children)
            left.offsets.extend(o + rebase for o in right.offsets)
        left.refresh()

    # -- internals: shift ---------------------------------------------------------

    def _shift(self, node: _BNode, key: float, delta: float, inclusive: bool) -> bool:
        """Apply the shift along the seam; returns True when key order
        was violated somewhere (negative deltas only)."""
        if inclusive:
            boundary = bisect.bisect_left(node.keys, key)
        else:
            boundary = bisect.bisect_right(node.keys, key)
        for index in range(boundary, len(node.keys)):
            node.keys[index] += delta
        violated = False
        if node.children is not None:
            assert node.offsets is not None
            for index in range(boundary + 1, len(node.children)):
                node.offsets[index] += delta
            violated = self._shift(
                node.children[boundary], key - node.offsets[boundary], delta, inclusive
            )
        node.refresh()
        if delta < 0 and not violated:
            violated = self._seam_violated(node, boundary)
        return violated

    @staticmethod
    def _seam_violated(node: _BNode, boundary: int) -> bool:
        """Order checks across the shift seam at this node."""
        if boundary < len(node.keys):
            if boundary > 0 and node.keys[boundary] <= node.keys[boundary - 1]:
                return True
            if node.children is not None:
                assert node.offsets is not None
                child_max = node.offsets[boundary] + node.children[boundary].max_rel
                if node.children[boundary].size and node.keys[boundary] <= child_max:
                    return True
        if boundary > 0 and node.children is not None:
            assert node.offsets is not None
            child = node.children[boundary]
            if child.size:
                child_min = node.offsets[boundary] + child.min_rel
                if child_min <= node.keys[boundary - 1]:
                    return True
        return False

    def _rebuild_merging(self) -> None:
        """O(n) fallback: collect items (merging equal keys by addition)
        and bulk-reload."""
        _SINK.inc("btree.shift_rebuilds")
        merged: dict[float, float] = {}
        for key, value in self.items():
            merged[key] = merged.get(key, 0) + value
        if self.prune_zeros:
            merged = {k: v for k, v in merged.items() if v != 0}
        self._root = _BNode()
        self._root.refresh()
        for key in sorted(merged):
            self._insert(key, merged[key], replace=True)

    # -- iteration / validation -----------------------------------------------------

    def _items(self, node: _BNode, base: float) -> Iterator[tuple[float, float]]:
        if node.leaf:
            for key, value in zip(node.keys, node.values):
                yield (base + key, value)
            return
        assert node.children is not None and node.offsets is not None
        for index, (key, value) in enumerate(zip(node.keys, node.values)):
            yield from self._items(node.children[index], base + node.offsets[index])
            yield (base + key, value)
        yield from self._items(node.children[-1], base + node.offsets[-1])

    def check_invariants(self) -> None:
        """Verify B-tree structure, key order over actual keys, cached
        sums/sizes/min/max, and uniform leaf depth."""
        depth = self._validate(self._root, 0, None, None, is_root=True)
        assert depth >= 0

    def _validate(
        self,
        node: _BNode,
        base: float,
        lo: float | None,
        hi: float | None,
        *,
        is_root: bool,
    ) -> int:
        t = self.t
        if not is_root:
            assert len(node.keys) >= t - 1, "underfull node"
        assert len(node.keys) <= 2 * t - 1, "overfull node"
        assert len(node.keys) == len(node.values)
        actual_keys = [base + k for k in node.keys]
        assert actual_keys == sorted(set(actual_keys)), "key disorder"
        for key in actual_keys:
            assert lo is None or key > lo, "range violation"
            assert hi is None or key < hi, "range violation"
        expected_sum = sum(node.values)
        expected_size = len(node.keys)
        if node.leaf:
            depth = 0
        else:
            assert node.children is not None and node.offsets is not None
            assert len(node.children) == len(node.keys) + 1
            assert len(node.offsets) == len(node.children)
            depths = set()
            for index, child in enumerate(node.children):
                child_base = base + node.offsets[index]
                child_lo = actual_keys[index - 1] if index > 0 else lo
                child_hi = actual_keys[index] if index < len(actual_keys) else hi
                depths.add(
                    self._validate(child, child_base, child_lo, child_hi, is_root=False)
                )
                expected_sum += child.sum
                expected_size += child.size
            assert len(depths) == 1, "non-uniform leaf depth"
            depth = depths.pop() + 1
        assert node.sum == expected_sum, "sum cache stale"
        assert node.size == expected_size, "size cache stale"
        if node.size:
            all_keys = [k for k, _ in self._items(node, base)]
            assert base + node.min_rel == all_keys[0], "min cache stale"
            assert base + node.max_rel == all_keys[-1], "max cache stale"
        return depth


def _rebase(node: _BNode, offset: float) -> None:
    """Fold ``offset`` into a node's own frame (used on root collapse)."""
    if offset == 0:
        return
    node.keys = [k + offset for k in node.keys]
    if node.offsets is not None:
        node.offsets = [o + offset for o in node.offsets]
    node.refresh()


def _min_entry(node: _BNode) -> tuple[float, float]:
    """(key, value) of the subtree minimum, relative to node's frame."""
    base: float = 0
    while not node.leaf:
        assert node.children is not None and node.offsets is not None
        base += node.offsets[0]
        node = node.children[0]
    return base + node.keys[0], node.values[0]


def _max_entry(node: _BNode) -> tuple[float, float]:
    base: float = 0
    while not node.leaf:
        assert node.children is not None and node.offsets is not None
        base += node.offsets[-1]
        node = node.children[-1]
    return base + node.keys[-1], node.values[-1]
