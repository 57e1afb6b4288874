"""``RPAITree.shift_add`` is ``shift_keys`` then ``add``, and the top-down
Algorithm 1 is the stacked one, node for node.

Each step applies one ``shift_add`` to a tree, the two operations to a
copy, and the stacked shift (:func:`~tests.engine.shift_reference.bottom_up_shift`)
plus the add to a third copy; all three must hold the same nodes —
keys, offsets, sums, values and shape (``_dump()``).  Trees carry 1–3
columns, with ``prune_zeros`` on and off; pivots sit on keys, between
them and outside them; the placement lands on an entry the pass
visits, on an entry off its path, on no entry, in the gap the shift
opens, or zeroes an entry; shifts are positive, zero and negative.
Everything runs with the self-check flag on, so each mutation also
re-derives every node's fields.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.rpai import RPAITree

from tests.engine.shift_reference import bottom_up_shift

SMALL = st.integers(-3, 3)


def nodes(tree: RPAITree) -> tuple:
    return tree._size, tree._dump()


@st.composite
def steps(draw, tree: RPAITree, columns: int) -> tuple:
    """One ``shift_add``'s arguments, drawn against the tree's keys."""
    keys = [row[0] for row in tree.rows()]
    near = st.sampled_from(keys) if keys else st.integers(-40, 70)
    if draw(st.booleans()):
        pivot = draw(near) + draw(st.sampled_from([0, -1, 1]))  # on or beside a key
    else:
        pivot = draw(st.integers(-60, 90))
    delta = draw(st.sampled_from([1, 2, 5, 13, 0, -1, -4]))
    inclusive = draw(st.booleans())
    at = draw(st.one_of(
        st.just(pivot), st.just(pivot + delta), near, near.map(lambda k: k + delta),
        st.integers(-60, 100),
    ))
    values = draw(st.tuples(*[SMALL] * columns))
    if keys and draw(st.booleans()):
        # the values that zero the entry at ``at`` after the shift, if any
        shifted = pickle.loads(pickle.dumps(tree))
        shifted.shift_keys(pivot, delta, inclusive=inclusive)
        held = shifted.get(at, None)
        if held is not None:
            values = tuple(-v for v in (held if columns > 1 else (held,)))
    return pivot, delta, inclusive, at, values


class TestShiftAddIsShiftThenAdd:
    @given(data=st.data(), columns=st.integers(1, 3), prune=st.booleans(),
           rows=st.lists(st.tuples(st.integers(-40, 70), SMALL), max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_node_for_node(self, data, columns, prune, rows):
        obs.enable_selfcheck()
        try:
            fused = RPAITree(columns=columns, prune_zeros=prune)
            for key, value in rows:
                fused.add(key, *[value] * columns)
            apart = pickle.loads(pickle.dumps(fused))
            stacked = pickle.loads(pickle.dumps(fused))
            for _ in range(data.draw(st.integers(1, 12))):
                pivot, delta, inclusive, at, values = data.draw(steps(fused, columns))
                fused.shift_add(pivot, delta, inclusive, at, *values)
                apart.shift_keys(pivot, delta, inclusive=inclusive)
                bottom_up_shift(stacked, pivot, delta, inclusive)
                if any(values):
                    apart.add(at, *values)
                    stacked.add(at, *values)
                assert nodes(fused) == nodes(apart) == nodes(stacked)
        finally:
            obs.disable_selfcheck()
