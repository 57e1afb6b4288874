"""Shared AVL machinery for the augmented trees.

:class:`~repro.core.rpai.RPAITree` (parent-relative keys, Section 3.2)
and :class:`~repro.trees.treemap.TreeMap` (absolute keys, Section 3.1)
balance identically — same height bookkeeping, same single/double
rotation cases — and differ only in what a rotation must do to the
*keys* of the moved nodes.  This module holds that logic once:

* :func:`height` — the null-safe AVL height accessor;
* :func:`make_avl_ops` — a factory that specializes ``rotate_left`` /
  ``rotate_right`` / ``rebalance`` closures for one node family, given
  its ``update`` function (recompute derived fields from children) and
  whether its keys are parent-relative;
* :func:`preorder` / :func:`link` / :func:`flatten` / :func:`unflatten`
  — the pickled form of both trees: one flat sequence per node field,
  in pre-order, under a layout stamp (docs/rpai_internals.md §11.5).

Specializing via closures (rather than flags checked per call) keeps
the per-rotation cost identical to the previously duplicated
hand-written versions; both tree modules bind the returned functions at
import time.

The node classes themselves stay per-module (their ``__slots__``
differ: RPAI nodes carry ``min_off``/``max_off``), but every node
family used here must expose ``key``, ``height``, ``left`` and
``right`` attributes.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable

from repro.errors import EngineStateError
from repro.obs import SINK as _SINK

__all__ = ["height", "make_avl_ops", "preorder", "link", "flatten", "unflatten"]

#: stamp of the pickled tree state
FLAT_LAYOUT = "repro.tree/preorder-1"


def height(node: Any) -> int:
    """AVL height of ``node`` (0 for None, leaves are 1)."""
    return node.height if node is not None else 0


def make_avl_ops(
    update: Callable[[Any], None],
    *,
    relative: bool,
    rotation_counter: str,
) -> tuple[Callable, Callable, Callable]:
    """Build ``(rotate_left, rotate_right, rebalance)`` for one tree type.

    Args:
        update: recompute a node's derived fields (height, subtree sum,
            offsets) from its children; children must be up to date.
        relative: True for parent-relative keys (RPAI trees) — rotations
            then re-express every moved node's key in its *new* parent's
            frame (see docs/rpai_internals.md for the derivation); False
            for absolute keys (TreeMap), where rotations move pointers
            only.
        rotation_counter: :mod:`repro.obs` counter incremented per
            rotation (e.g. ``"rpai.rotations"``).

    Returns:
        The three closures.  ``rebalance`` performs the standard AVL
        single-step repair (children's heights differ from the node's
        cached height by at most one more than allowed) and refreshes
        the node's derived fields; it returns the possibly-new subtree
        root, which the caller must reattach.
    """
    if relative:

        def rotate_left(h: Any) -> Any:
            if _SINK.enabled:
                _SINK.inc(rotation_counter)
            x = h.right
            xk = x.key
            h.right = x.left
            if h.right is not None:
                h.right.key += xk
            x.key += h.key
            h.key = -xk
            x.left = h
            update(h)
            update(x)
            return x

        def rotate_right(h: Any) -> Any:
            if _SINK.enabled:
                _SINK.inc(rotation_counter)
            x = h.left
            xk = x.key
            h.left = x.right
            if h.left is not None:
                h.left.key += xk
            x.key += h.key
            h.key = -xk
            x.right = h
            update(h)
            update(x)
            return x

    else:

        def rotate_left(h: Any) -> Any:
            if _SINK.enabled:
                _SINK.inc(rotation_counter)
            x = h.right
            h.right = x.left
            x.left = h
            update(h)
            update(x)
            return x

        def rotate_right(h: Any) -> Any:
            if _SINK.enabled:
                _SINK.inc(rotation_counter)
            x = h.left
            h.left = x.right
            x.right = h
            update(h)
            update(x)
            return x

    def rebalance(node: Any) -> Any:
        update(node)
        left, right = node.left, node.right
        balance = (left.height if left is not None else 0) - (
            right.height if right is not None else 0
        )
        if balance > 1:
            if height(left.left) < height(left.right):
                node.left = rotate_left(left)
            return rotate_right(node)
        if balance < -1:
            if height(right.right) < height(right.left):
                node.right = rotate_right(right)
            return rotate_left(node)
        return node

    return rotate_left, rotate_right, rebalance


def preorder(root: Any) -> tuple[list, bytes]:
    """The nodes under ``root`` in pre-order and, per node, its child
    mask (1 = left, 2 = right) — together enough to rebuild the shape."""
    nodes, masks = [], []
    stack = [] if root is None else [root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        mask = 0
        if node.right is not None:
            stack.append(node.right)
            mask = 2
        if node.left is not None:
            stack.append(node.left)
            mask += 1
        masks.append(mask)
    return nodes, bytes(masks)


def link(nodes: list, masks: bytes) -> Any:
    """Inverse of :func:`preorder`: hang fresh nodes together in the
    recorded shape and derive their heights from it; returns the root."""
    pending: list = []  # (parent, is_right) child slots to fill, next one last
    for node, mask in zip(nodes, masks):
        if pending:
            parent, is_right = pending.pop()
            if is_right:
                parent.right = node
            else:
                parent.left = node
        if mask & 2:
            pending.append((node, True))
        if mask & 1:
            pending.append((node, False))
    for node in reversed(nodes):  # children before parents
        node.height = 1 + max(height(node.left), height(node.right))
    return nodes[0] if nodes else None


def flatten(prune_zeros: bool, fields: list) -> tuple:
    """A tree's pickled state from its per-field value lists.  A field
    of exact ``float`` becomes an ``array('d')``, of exact ``int`` the
    narrowest signed array that holds it (the ``colbatch`` column rule);
    anything else — mixed ``int``/``float``, ints beyond int64, the mask
    bytes — stays as it is, so every value keeps its type and bits."""
    for index, values in enumerate(fields):
        kinds = set(map(type, values)) if type(values) is list else ()
        if kinds == {float}:
            fields[index] = array("d", values)
        elif kinds == {int}:
            for code in "bhiq":
                try:
                    fields[index] = array(code, values)
                    break
                except OverflowError:  # first value too wide for this code
                    pass
    return (FLAT_LAYOUT, prune_zeros, fields)


def unflatten(state: Any, owner: str, width: int) -> tuple[bool, list]:
    """``(prune_zeros, field lists)`` of a :func:`flatten` state, or
    :class:`~repro.errors.EngineStateError` for anything else (another
    stamp, the object graph earlier versions pickled) — which recovery
    treats like an unloadable snapshot: rebuild and replay."""
    if not (isinstance(state, tuple) and len(state) == 3 and state[0] == FLAT_LAYOUT):
        raise EngineStateError(f"{owner} state is not in layout {FLAT_LAYOUT!r}")
    if len(state[2]) != width:
        raise EngineStateError(f"{owner} state has {len(state[2])} fields, expected {width}")
    return state[1], [f.tolist() if isinstance(f, array) else f for f in state[2]]
