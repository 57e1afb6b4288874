"""The width-generic half of :mod:`repro.core.rpai`: every function that
reads or writes a node's *payload* (``value``/``sum``), written once as
a source template and compiled per column count ``k``.

An RPAI tree with k payload columns keeps, per node, ``value``/``sum``
for column 0 and ``value1``/``sum1`` ... for the others — plain slots,
updated by straight-line statements — beside one relative key, one pair
of min/max offsets and one height.  Python has no way to say "these k
statements" without a loop or a polymorphic payload object, and both
cost more per node visit than a second tree does (see
docs/rpai_internals.md, "Columns"), so the per-column statements are
*generated*: the template below is ordinary Python except for two
markers that :func:`expand` rewrites.

``$``
    the column suffix (``""``, ``"1"``, ``"2"`` ...).  A line that
    contains ``$`` outside a group is emitted once per column::

        total$ += left.sum$      ->   total += left.sum
                                      total1 += left.sum1

``{{sep|body}}``
    ``body`` once per column, joined by ``sep``, inside one line::

        def add(self, key, {{, |delta$}}):  ->  def add(self, key, delta, delta1):
        if prune and {{ and |new$ == 0}}:   ->  if prune and new == 0 and new1 == 0:

At k = 1 the expansion is exactly the scalar code a hand-written
single-column tree would contain; ``return ({{, |total$}})`` is a bare
scalar there and a k-tuple otherwise.  Key, offset, height, rotation
and unwinding logic carries no marker: it exists once, for every width.

The three unwinds (insert, delete, negative shift) share one rule: do
full ``_update``/rebalance work only while the structure below is still
changing, then finish with O(1)-per-level patches — a sum adjustment
and a refresh of the one offset that faces the path.
"""

from __future__ import annotations

import linecache
import re
from typing import Any

from repro.obs import SELFCHECK, SINK
from repro.trees._avl import height, link, make_avl_ops, preorder

__all__ = ["compile_kernel", "expand", "POOLS"]

#: Bounded pools of spliced-out nodes, one per column count (node
#: classes differ in their slots), shared by every tree in the process.
#: Order-book workloads delete and reinsert price levels constantly;
#: recycling node objects avoids an allocator round-trip per churned
#: entry.
POOLS: dict[int, list] = {}

_GROUP = re.compile(r"\{\{(.*?)\|(.*?)\}\}")


def expand(template: str, columns: int) -> str:
    """Rewrite the ``$`` / ``{{sep|body}}`` markers for ``columns``."""
    suffixes = [""] + [str(j) for j in range(1, columns)]

    def group(match: re.Match) -> str:
        return match[1].join(match[2].replace("$", s) for s in suffixes)

    out: list[str] = []
    for line in template.splitlines():
        if "{{" in line:
            out.append(_GROUP.sub(group, line))
        elif "$" in line:
            out.extend(line.replace("$", s) for s in suffixes)
        else:
            out.append(line)
    return "\n".join(out) + "\n"


def compile_kernel(columns: int) -> dict[str, Any]:
    """Compile the kernel for one width; returns its namespace (the
    ``Node`` class, the ``METHODS`` to graft onto the tree class, and
    the module-level helpers)."""
    source = expand(KERNEL, columns)
    filename = f"<rpai kernel, {columns} column{'s' * (columns != 1)}>"
    # Registered so tracebacks and pdb show the generated lines.
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace: dict[str, Any] = {
        "_SINK": SINK,
        "_SELF": SELFCHECK,
        "_height": height,
        "make_avl_ops": make_avl_ops,
        "preorder": preorder,
        "link": link,
        "_POOL": POOLS.setdefault(columns, []),
    }
    exec(compile(source, filename, "exec"), namespace)
    return namespace


KERNEL = '''
class Node:
    """A single tree node.  All fields are package-internal.

    Attributes:
        key: key relative to the parent's actual key (the root's key is
            relative to zero, i.e. absolute).
        value, value1, ...: the stored partial aggregates, one per column.
        sum, sum1, ...: per-column sums of the values over this subtree.
        min_off: (minimum actual key in subtree) - (this node's actual key).
        max_off: (maximum actual key in subtree) - (this node's actual key).
        height: AVL height (leaf = 1).
    """

    __slots__ = ("key", {{, |"value$", "sum$"}}, "min_off", "max_off", "height", "left", "right")

    def __init__(self, key, {{, |value$}}):
        self.key = key
        self.value$ = value$
        self.sum$ = value$
        self.min_off = 0
        self.max_off = 0
        self.height = 1
        self.left = None
        self.right = None


def _update(node):
    """Recompute the derived fields of ``node`` from its children.

    Children must already be up to date.  ``min_off``/``max_off`` are
    offsets from the node's own actual key, so they depend only on the
    children's stored (relative) keys and offsets.
    """
    left, right = node.left, node.right
    height = 1
    total$ = node.value$
    if left is not None:
        if left.height >= height:
            height = left.height + 1
        total$ += left.sum$
    if right is not None:
        if right.height >= height:
            height = right.height + 1
        total$ += right.sum$
    node.height = height
    node.sum$ = total$
    node.min_off = left.key + left.min_off if left is not None else 0
    node.max_off = right.key + right.max_off if right is not None else 0


_rotate_left, _rotate_right, _rebalance = make_avl_ops(
    _update, relative=True, rotation_counter="rpai.rotations"
)

_POOL_MAX = 4096


def _new_node(key, {{, |value$}}):
    if _POOL:
        if _SINK.enabled:
            _SINK.inc("rpai.freelist.hits")
        node = _POOL.pop()
        node.key = key
        node.value$ = value$
        node.sum$ = value$
        node.min_off = 0
        node.max_off = 0
        node.height = 1
        return node
    if _SINK.enabled:
        _SINK.inc("rpai.freelist.misses")
    return Node(key, {{, |value$}})


def _free_node(node):
    if len(_POOL) < _POOL_MAX:
        node.left = None
        node.right = None
        _POOL.append(node)
        if _SINK.enabled:
            _SINK.observe("rpai.freelist.depth", len(_POOL))


def _balance_any(node):
    """Restore the AVL property at ``node`` when its children are valid
    AVL trees of *arbitrary* height difference.

    Negative ``shift_keys`` repairs (Algorithm 2's ``fixTree``) can
    change a subtree's height by more than one, so the single-step
    rebalance used by put/delete is not sufficient on the way
    back up.  This is the classical AVL concatenation repair: rotate the
    heavy side up and recursively re-balance the demoted child; the
    height gap shrinks at every level, so the cost is
    O(gap * log n).
    """
    if node is None:
        return None
    _update(node)
    while True:
        left_h = _height(node.left)
        right_h = _height(node.right)
        if left_h - right_h > 1:
            left = node.left
            if _height(left.right) > _height(left.left):
                node.left = _rotate_left(left)
            node = _rotate_right(node)
            node.right = _balance_any(node.right)
            _update(node)
        elif right_h - left_h > 1:
            right = node.right
            if _height(right.left) > _height(right.right):
                node.right = _rotate_right(right)
            node = _rotate_left(node)
            node.left = _balance_any(node.left)
            _update(node)
        else:
            return node


def _min_entry(node):
    """``(key, value...)`` of the minimum entry of ``node``'s subtree;
    the key is expressed relative to ``node``'s parent frame."""
    rel = node.key
    while node.left is not None:
        node = node.left
        rel += node.key
    return rel, {{, |node.value$}}


def _max_entry(node):
    """``(key, value...)`` of the maximum entry, key relative to the
    parent frame."""
    rel = node.key
    while node.right is not None:
        node = node.right
        rel += node.key
    return rel, {{, |node.value$}}


def _build_relative(items, lo, hi, parent_actual):
    """Midpoint-recursive build of a relative-key subtree over
    ``items[lo:hi]``; ``parent_actual`` is the actual key of the frame
    the subtree root's stored key must be expressed in."""
    if lo >= hi:
        return None
    mid = (lo + hi) // 2
    key, {{, |value$}} = items[mid]
    node = Node(key - parent_actual, {{, |value$}})
    node.left = _build_relative(items, lo, mid, key)
    node.right = _build_relative(items, mid + 1, hi, key)
    _update(node)
    return node


def _subtree_find(node, key):
    """The node holding ``key`` (parent-frame) in a subtree, or None."""
    remaining = key
    while node is not None:
        if remaining == node.key:
            return node
        remaining -= node.key
        node = node.left if remaining < 0 else node.right
    return None


class METHODS:
    """Grafted onto the tree class of this width (see rpai._graft)."""

    def _load_sorted(self, sorted_items):
        prune = self.prune_zeros
        items = [
            (key, {{, |value$}})
            for key, {{, |value$}} in sorted_items
            if not (prune and {{ and |value$ == 0}})
        ]
        for i in range(1, len(items)):
            if items[i - 1][0] >= items[i][0]:
                raise ValueError(
                    f"bulk_load requires strictly increasing keys, got "
                    f"{items[i - 1][0]!r} before {items[i][0]!r}"
                )
        self._root = _build_relative(items, 0, len(items), 0)
        self._size = len(items)

    # -- pickled state --------------------------------------------------------

    def _dump(self):
        """``[keys, min offsets, max offsets, child masks, values, sums,
        values1, ...]``, nodes in pre-order.  Offsets are stored per
        *edge*: a node without a left (right) child has ``min_off``
        (``max_off``) ``0`` by construction."""
        nodes, masks = preorder(self._root)
        return [[n.key for n in nodes],
                [n.min_off for n in nodes if n.left is not None],
                [n.max_off for n in nodes if n.right is not None], masks,
                {{, |[n.value$ for n in nodes], [n.sum$ for n in nodes]}}]

    def _load(self, keys, min_offs, max_offs, masks, {{, |values$, sums$}}):
        """Rebuild node for node: keys, offsets and sums are taken as
        written, never recomputed."""
        nodes = list(map(Node, keys, {{, |values$}}))
        min_off, max_off = iter(min_offs), iter(max_offs)
        for node, mask, {{, |sum$}} in zip(nodes, masks, {{, |sums$}}):
            node.sum$ = sum$
            if mask & 1:
                node.min_off = next(min_off)
            if mask & 2:
                node.max_off = next(max_off)
        self._root = link(nodes, masks)
        self._size = len(nodes)

    # -- basic map operations -------------------------------------------------

    def get(self, key, default=0.0):
        """Return the value stored at ``key`` (all columns of it, as a
        tuple, when the tree has several), or ``default``."""
        node = self._root
        remaining = key
        while node is not None:
            if remaining == node.key:
                return ({{, |node.value$}})
            remaining -= node.key
            node = node.left if remaining < 0 else node.right
        return default

    def put(self, key, {{, |value$}}):
        """Insert ``key`` with one value per column, overwriting any
        existing entry."""
        if _SINK.enabled:
            _SINK.inc("rpai.put")
        self._put_root(key, {{, |value$}}, replace=True)
        if _SELF.enabled:
            self.check_invariants()

    def add(self, key, {{, |delta$}}):
        """Add one delta per column to the entry at ``key`` (inserting
        if absent) — one descent whatever the column count."""
        if _SINK.enabled:
            _SINK.inc("rpai.add")
        self._put_root(key, {{, |delta$}}, replace=False)
        if _SELF.enabled:
            self.check_invariants()

    # -- aggregate operations -------------------------------------------------

    def get_sum(self, key, *, inclusive=True):
        """Per-column sums of values over entries with key ``<= key``
        (or ``< key``), from one descent.

        This is the paper's ``getSum`` (Figure 3): descend the tree and
        absorb whole left subtrees (via their stored sums) whenever the
        current node qualifies.
        """
        if _SINK.enabled:
            _SINK.inc("rpai.get_sum")
        total$ = 0
        node = self._root
        remaining = key
        while node is not None:
            qualifies = node.key <= remaining if inclusive else node.key < remaining
            remaining -= node.key
            if qualifies:
                total$ += node.value$
                left = node.left
                if left is not None:
                    total$ += left.sum$
                node = node.right
            else:
                node = node.left
        return ({{, |total$}})

    def total_sum(self):
        """Per-column sums of all values, in O(1)."""
        root = self._root
        return ({{, |root.sum$}}) if root is not None else ({{, |0}})

    def suffix_sum(self, key, *, inclusive=False):
        """Per-column sums over entries with key ``> key`` (or ``>= key``)."""
        {{, |total$}} = self.get_sum(key, inclusive=not inclusive)
        root = self._root
        if root is None:
            return ({{, |0}})
        return ({{, |root.sum$ - total$}})

    def rows(self):
        """All ``(actual_key, value, value1, ...)`` rows in increasing
        key order — every column, where :meth:`items` is column 0."""
        for actual, node in self._walk():
            yield (actual, {{, |node.value$}})

    # -- internals --------------------------------------------------------------

    def _put_root(self, key, {{, |value$}}, *, replace):
        """Iterative insert/merge of one row, prune-aware.

        Existing keys take the fast path: set/merge the values in place
        and bump the subtree sums along the parent stack.  The structure
        — and with it every height and min/max offset — is unchanged, so
        no rebalancing or offset work happens at all.  A row landing on
        exactly 0 in every column under ``prune_zeros`` splices the node
        out via the already-built stack instead.

        New keys attach a leaf and unwind with full rebalancing only
        until the subtree height stabilizes (AVL insert performs at most
        one rotation, which restores the pre-insert height); the
        remaining ancestors need just a sum increment plus a refresh of
        the one offset facing the descent side.
        """
        node = self._root
        prune = self.prune_zeros
        if node is None:
            if prune and {{ and |value$ == 0}}:
                return
            self._root = _new_node(key, {{, |value$}})
            self._size = 1
            return
        stack = []
        dirs = []
        remaining = key
        while True:
            if remaining == node.key:
                new$ = value$ if replace else node.value$ + value$
                if prune and {{ and |new$ == 0}}:
                    self._splice(stack, dirs, node)
                    return
                delta$ = new$ - node.value$
                node.value$ = new$
                if {{ or |delta$}}:
                    node.sum$ += delta$
                    for ancestor in stack:
                        ancestor.sum$ += delta$
                return
            remaining -= node.key
            stack.append(node)
            if remaining < 0:
                dirs.append(False)
                child = node.left
            else:
                dirs.append(True)
                child = node.right
            if child is None:
                break
            node = child
        if prune and {{ and |value$ == 0}}:
            return
        leaf = _new_node(remaining, {{, |value$}})
        self._size += 1
        if dirs[-1]:
            node.right = leaf
        else:
            node.left = leaf
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
        # Light phase: heights are stable above, but subtree sums grow by
        # the inserted row and the offset facing the descent side must
        # track the (possibly rotated) child's new stored key.
        while i >= 0:
            current = stack[i]
            current.sum$ += value$
            if dirs[i]:
                child = current.right
                current.max_off = child.key + child.max_off
            else:
                child = current.left
                current.min_off = child.key + child.min_off
            i -= 1

    def _splice(self, stack, dirs, node):
        """Remove ``node`` (found at the bottom of ``stack``) and repair
        the path; returns the removed value(s).

        The two-children case walks on to the in-order successor,
        splices it out, and moves its entry into ``node`` — which shifts
        ``node``'s stored key by the successor's relative offset, so
        both children are re-based to keep their actual keys fixed.

        The unwind rebalances only until a level keeps its height: no
        ancestor's height or balance can change after that, so the rest
        lose the removed row from their sums and refresh the offset that
        faces the path.  Below ``node`` the removed row is the
        successor's; from ``node`` up it is ``node``'s own.
        """
        value$ = node.value$
        target = -1
        if node.left is not None and node.right is not None:
            target = len(stack)
            stack.append(node)
            dirs.append(True)
            doomed = node.right
            rel = doomed.key  # successor's actual key, in node's frame
            while doomed.left is not None:
                stack.append(doomed)
                dirs.append(False)
                doomed = doomed.left
                rel += doomed.key
            replacement = doomed.right
            gone$ = doomed.value$
            node.value$ = gone$
        else:
            doomed = node
            replacement = node.right if node.left is None else node.left
            gone$ = value$
        if replacement is not None:
            replacement.key += doomed.key
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
        if target >= 0:
            # Stored keys are frame-relative, so the re-base commutes
            # with whatever rotates below; the untouched left subtree's
            # offset is final here, the right one's is the facing offset
            # the unwind refreshes anyway.
            node.key += rel
            node.left.key -= rel
            node.min_off -= rel
            if node.right is not None:
                node.right.key -= rel
        i = len(stack) - 1
        while i >= 0:
            current = stack[i]
            if i == target:
                gone$ = value$
            old_height = current.height
            balanced = _rebalance(current)
            if balanced is not current:
                self._attach(stack, dirs, i, balanced)
            i -= 1
            if balanced.height == old_height:
                break
        while i >= 0:
            current = stack[i]
            if i == target:
                gone$ = value$
            current.sum$ -= gone$
            if dirs[i]:
                child = current.right
                current.max_off = child.key + child.max_off
            else:
                child = current.left
                current.min_off = child.key + child.min_off
            i -= 1
        return ({{, |value$}})

    def _shift_root(self, key, delta, inclusive):
        """Algorithm 1 / 2 as one iterative pass.

        The descent is single-path: a qualifying node shifts (itself and
        implicitly its whole right subtree) and recurses only into its
        left subtree; a non-qualifying node recurses only right.  The
        structure, sums and heights are untouched unless a negative
        shift pushes a key across a neighbour, so the unwind patches
        stored keys and the one offset facing the visited child.  For
        ``delta < 0`` (Algorithm 2) each level also checks that offset
        for a BST violation; from the first violating level up, the
        unwind re-derives every field, runs the fixTree extraction where
        needed and repairs heights.
        """
        node = self._root
        if node is None:
            return
        stack = []
        quals = []
        remaining = key
        while node is not None:
            qualifies = node.key >= remaining if inclusive else node.key > remaining
            remaining -= node.key
            stack.append(node)
            quals.append(qualifies)
            node = node.left if qualifies else node.right
        i = len(stack) - 1
        if delta > 0:
            while i >= 0:
                current = stack[i]
                if quals[i]:
                    current.key += delta
                    left = current.left
                    if left is not None:
                        left.key -= delta
                        current.min_off = left.key + left.min_off
                else:
                    right = current.right
                    if right is not None:
                        current.max_off = right.key + right.max_off
                i -= 1
            return
        while i >= 0:
            current = stack[i]
            if quals[i]:
                current.key += delta
                left = current.left
                if left is not None:
                    left.key -= delta
                    if left.key + left.max_off >= 0:
                        fixed = self._fix_from_left(current)
                        break
                    current.min_off = left.key + left.min_off
            else:
                right = current.right
                if right is not None:
                    if right.key + right.min_off <= 0:
                        fixed = self._fix_from_right(current)
                        break
                    current.max_off = right.key + right.max_off
            i -= 1
        else:
            return
        # A repair happened at level i: heights (by more than one) and
        # offsets may differ all the way up.
        dirs = [not qualifies for qualifies in quals]
        self._attach(stack, dirs, i, _balance_any(fixed))
        for i in range(i - 1, -1, -1):
            current = stack[i]
            if quals[i]:
                current.key += delta
                left = current.left
                if left is not None:
                    left.key -= delta
                _update(current)
                if left is not None and left.key + left.max_off >= 0:
                    fixed = self._fix_from_left(current)
                else:
                    fixed = current
            else:
                _update(current)
                right = current.right
                if right is not None and right.key + right.min_off <= 0:
                    fixed = self._fix_from_right(current)
                else:
                    fixed = current
            self._attach(stack, dirs, i, _balance_any(fixed))

    def _put(self, node, key, {{, |value$}}):
        """Recursive merge-by-addition into a *detached* subtree;
        ``key`` is expressed in the subtree root's parent frame.  Used
        only by the fixTree repair path — the public mutations are
        iterative."""
        if node is None:
            self._size += 1
            return _new_node(key, {{, |value$}})
        if key == node.key:
            node.value$ += value$
            _update(node)
            return node
        if key < node.key:
            node.left = self._put(node.left, key - node.key, {{, |value$}})
        else:
            node.right = self._put(node.right, key - node.key, {{, |value$}})
        return _rebalance(node)

    def _delete(self, node, key):
        """Recursive removal from a *detached* subtree (parent-frame
        ``key``); returns the new subtree root.  Used only by the
        fixTree repair path."""
        if node is None:
            raise KeyError(key)
        if key < node.key:
            node.left = self._delete(node.left, key - node.key)
        elif key > node.key:
            node.right = self._delete(node.right, key - node.key)
        else:
            if node.left is None or node.right is None:
                self._size -= 1
                replacement = node.right if node.left is None else node.left
                if replacement is not None:
                    replacement.key += node.key
                _free_node(node)
                return replacement
            # Two children: replace with the in-order successor.  The
            # node's stored key moves by the successor's offset, so both
            # children are re-based to keep their actual keys fixed.
            successor_rel, {{, |successor_value$}} = _min_entry(node.right)
            node.right = self._delete(node.right, successor_rel)
            node.value$ = successor_value$
            node.key += successor_rel
            node.left.key -= successor_rel
            if node.right is not None:
                node.right.key -= successor_rel
        return _rebalance(node)

    def _fix_from_left(self, node):
        """Restore the BST property when the left subtree contains keys
        ``>=`` the node's key (paper's ``fixTreeFromLeft``).

        Rather than detaching the whole left subtree, only the violating
        entries are extracted (largest first) and re-inserted, so the
        cost is O(v log n) for v violators.  Re-insertion uses merge
        semantics: an entry landing exactly on an existing key adds its
        values, which realises the Section 3.2.4 duplicate-collapse.
        """
        violators = []
        while node.left is not None and node.left.key + node.left.max_off >= 0:
            rel, {{, |value$}} = _max_entry(node.left)  # rel is in node's frame, >= 0
            node.left = self._delete(node.left, rel)
            violators.append((rel + node.key, {{, |value$}}))  # parent-frame key
        return self._reinsert_all(node, violators)

    def _fix_from_right(self, node):
        """Mirror image of :meth:`_fix_from_left` for right-side
        violations (keys ``<=`` the node's key in the right subtree)."""
        violators = []
        while node.right is not None and node.right.key + node.right.min_off <= 0:
            rel, {{, |value$}} = _min_entry(node.right)  # rel is in node's frame, <= 0
            node.right = self._delete(node.right, rel)
            violators.append((rel + node.key, {{, |value$}}))  # parent-frame key
        return self._reinsert_all(node, violators)

    def _reinsert_all(self, node, violators):
        """Re-balance ``node`` after an extraction and merge the
        extracted rows (parent-frame keys) back in.  Honors
        ``prune_zeros``: a merge that cancels an existing entry in every
        column deletes it instead."""
        if _SINK.enabled:
            _SINK.inc("rpai.fix_tree")
            _SINK.inc("rpai.violations", len(violators))
        result = _balance_any(node)
        prune = self.prune_zeros
        for key, {{, |value$}} in violators:
            if prune:
                found = _subtree_find(result, key)
                if found is None:
                    if {{ and |value$ == 0}}:
                        continue
                elif {{ and |found.value$ + value$ == 0}}:
                    result = self._delete(result, key)
                    continue
            result = self._put(result, key, {{, |value$}})
        return result

    # -- validation (tests / self-check mode) -----------------------------------

    def _validate(self, node, acc, lo, hi):
        if node is None:
            return 0
        actual = acc + node.key
        assert lo is None or actual > lo, f"BST violation: {actual} <= {lo}"
        assert hi is None or actual < hi, f"BST violation: {actual} >= {hi}"
        left_size = self._validate(node.left, actual, lo, actual)
        right_size = self._validate(node.right, actual, actual, hi)
        expected_height = 1 + max(_height(node.left), _height(node.right))
        assert node.height == expected_height, "stale height"
        balance = _height(node.left) - _height(node.right)
        assert -1 <= balance <= 1, f"AVL imbalance {balance} at key {actual}"
        expected_sum$ = node.value$
        expected_min = 0
        expected_max = 0
        if node.left is not None:
            expected_sum$ += node.left.sum$
            expected_min = node.left.key + node.left.min_off
        if node.right is not None:
            expected_sum$ += node.right.sum$
            expected_max = node.right.key + node.right.max_off
        assert node.sum$ == expected_sum$, f"sum$ mismatch at key {actual}"
        assert node.min_off == expected_min, f"min_off mismatch at key {actual}"
        assert node.max_off == expected_max, f"max_off mismatch at key {actual}"
        return left_size + right_size + 1
'''
