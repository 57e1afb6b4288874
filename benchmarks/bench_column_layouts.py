"""Two layout measurements behind the k-column RPAI tree
(docs/rpai_internals.md §9.5, ROADMAP item 4b).

    python3 benchmarks/bench_column_layouts.py [--repeats 5]

1. **Where to keep a relation's required sums.**  Hand replicas of the
   MST trigger over the layer benchmark's order book (seed 1, 40k
   events; 10k warm, 20k timed).  All four run the same bound-map step
   and the same shift / add / probe sequence; they differ only in how
   the two required sums (Σ price, count) are stored:

   ``two-trees``    two one-column RPAITrees per side (one per sum)
   ``complex``      one one-column tree whose value is a C-level pair
   ``pair-object``  one one-column tree whose value is a Python object
                    with ``__add__``
   ``columns``      one two-column tree (``value``/``sum`` and
                    ``value1``/``sum1`` slots)

2. **Pointer nodes vs a struct-of-arrays slab.**  The same ``get_sum``
   descent over the same 3.5k-key tree shape, once through node
   objects with slots and once through parallel lists indexed by node
   number.  Both visit the same nodes; the question is whether a list
   subscript is cheaper than a slot load in CPython.

Numbers are medians of ``--repeats`` interleaved repeats; nothing is
gated — this script documents a design decision.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "layers")]

from layerbench import streams  # noqa: E402

from repro.core.rpai import RPAITree  # noqa: E402
from repro.trees.treemap import TreeMap  # noqa: E402

LAYOUTS = ("two-trees", "complex", "pair-object", "columns")


class Pair:
    """A Python-level (Σ price, count) payload the unchanged one-column
    tree can add, subtract and compare with zero."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __add__(self, other):
        if not isinstance(other, Pair):  # the tree's ``total = 0`` seed
            return self
        return Pair(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        return Pair(self.a - other.a, self.b - other.b)

    def __eq__(self, other):
        if not isinstance(other, Pair):
            return self.a == other and self.b == other
        return self.a == other.a and self.b == other.b

    def __bool__(self):
        return self.a != 0 or self.b != 0


class Side:
    def __init__(self, layout: str) -> None:
        self.bound_map = TreeMap(prune_zeros=True)
        self.total = 0
        self.index = RPAITree(columns=2 if layout == "columns" else 1, prune_zeros=True)
        if layout == "two-trees":
            self.counts = RPAITree(prune_zeros=True)


def make_trigger(layout: str):
    sides = {"asks": Side(layout), "bids": Side(layout)}
    asks, bids = sides["asks"], sides["bids"]

    def bound(side, key, weight):
        old = side.bound_map.get(key, 0)
        prefix = side.bound_map.get_sum(key, inclusive=False)
        side.bound_map.add(key, weight)
        side.total += weight
        return old, prefix

    if layout == "two-trees":
        def on_event(event):
            side = sides[event.relation]
            row, w = event.row, event.weight
            price = row["price"]
            weight = row["volume"] * w
            old, prefix = bound(side, -price, weight)
            inclusive = old == 0
            side.index.shift_keys(prefix, weight, inclusive=inclusive)
            side.index.add(prefix, price * w)
            side.counts.shift_keys(prefix, weight, inclusive=inclusive)
            side.counts.add(prefix, w)
            pa, pb = 0.25 * asks.total, 0.25 * bids.total
            return (bids.counts.get_sum(pb, inclusive=False) * asks.index.get_sum(pa, inclusive=False)
                    - asks.counts.get_sum(pa, inclusive=False) * bids.index.get_sum(pb, inclusive=False))

    elif layout == "columns":
        def on_event(event):
            side = sides[event.relation]
            row, w = event.row, event.weight
            price = row["price"]
            weight = row["volume"] * w
            old, prefix = bound(side, -price, weight)
            side.index.shift_keys(prefix, weight, inclusive=old == 0)
            side.index.add(prefix, price * w, w)
            ask_sum, ask_count = asks.index.get_sum(0.25 * asks.total, inclusive=False)
            bid_sum, bid_count = bids.index.get_sum(0.25 * bids.total, inclusive=False)
            return bid_count * ask_sum - ask_count * bid_sum

    else:
        if layout == "complex":
            make, zero = complex, complex(0, 0)
            first, second = (lambda v: v.real), (lambda v: v.imag)
        else:
            make, zero = Pair, Pair(0, 0)
            first, second = (lambda v: v.a), (lambda v: v.b)

        def on_event(event):
            side = sides[event.relation]
            row, w = event.row, event.weight
            price = row["price"]
            weight = row["volume"] * w
            old, prefix = bound(side, -price, weight)
            side.index.shift_keys(prefix, weight, inclusive=old == 0)
            side.index.add(prefix, make(price * w, w))
            a = asks.index.get_sum(0.25 * asks.total, inclusive=False) or zero
            b = bids.index.get_sum(0.25 * bids.total, inclusive=False) or zero
            return second(b) * first(a) - second(a) * first(b)

    return on_event


def measure_layouts(repeats: int) -> None:
    book = streams.order_book(1, 40_000)
    warm, timed = book[:10_000], book[10_000:30_000]
    times: dict[str, list[float]] = {layout: [] for layout in LAYOUTS}
    final = {}
    for _ in range(repeats):
        for layout in LAYOUTS:  # interleaved
            on_event = make_trigger(layout)
            for event in warm:
                on_event(event)
            gc.collect()
            start = time.perf_counter()
            for event in timed:
                result = on_event(event)
            times[layout].append((time.perf_counter() - start) / len(timed) * 1e6)
            final[layout] = result
    print("MST trigger replica, us/event (median [min, max]):")
    for layout in LAYOUTS:
        same = abs(final[layout] - final["two-trees"]) <= 1e-9 * abs(final["two-trees"])
        print(f"  {layout:12s} {statistics.median(times[layout]):6.2f}  "
              f"[{min(times[layout]):.2f}, {max(times[layout]):.2f}]  "
              f"final result {'matches' if same else 'DIFFERS'}")


def measure_slab(repeats: int) -> None:
    tree = RPAITree.bulk_load([(3 * k + 1, k % 7 + 1) for k in range(3_500)])
    probes = [3 * k for k in range(0, 3_500, 7)]

    # The same shape as parallel lists: node i's fields at index i,
    # children as indices (-1 = none).
    keys, values, sums, lefts, rights = [], [], [], [], []

    def number(node) -> int:
        if node is None:
            return -1
        me = len(keys)
        for column, field in ((keys, node.key), (values, node.value), (sums, node.sum)):
            column.append(field)
        lefts.append(-1)
        rights.append(-1)
        lefts[me] = number(node.left)
        rights[me] = number(node.right)
        return me

    root = number(tree._root)

    def slab_get_sum(key):
        total = 0
        node = root
        remaining = key
        while node >= 0:
            node_key = keys[node]
            qualifies = node_key <= remaining
            remaining -= node_key
            if qualifies:
                total += values[node]
                left = lefts[node]
                if left >= 0:
                    total += sums[left]
                node = rights[node]
            else:
                node = lefts[node]
        return total

    assert all(slab_get_sum(p) == tree.get_sum(p) for p in probes)
    pointer, slab = [], []
    get_sum = tree.get_sum
    for _ in range(repeats):
        for fn, out in ((get_sum, pointer), (slab_get_sum, slab)):  # interleaved
            gc.collect()
            start = time.perf_counter()
            for _lap in range(20):
                for probe in probes:
                    fn(probe)
            out.append((time.perf_counter() - start) / (20 * len(probes)) * 1e6)
    print("get_sum over 3,500 keys, us/call (median [min, max]):")
    print(f"  pointer nodes (slots)   {statistics.median(pointer):.3f}  [{min(pointer):.3f}, {max(pointer):.3f}]")
    print(f"  struct-of-arrays slab   {statistics.median(slab):.3f}  [{min(slab):.3f}, {max(slab):.3f}]")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    measure_layouts(args.repeats)
    measure_slab(args.repeats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
