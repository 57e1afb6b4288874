"""Seed -> input streams.  The program under test receives only the
generated events; the same seed always gives the same streams.

Sizes are the full-scale ones; ``scale`` shrinks them for ``--smoke``.
"""

from __future__ import annotations

import random

from repro.storage.stream import Event
from repro.workloads import (
    OrderBookConfig,
    TPCHConfig,
    generate_bids_only,
    generate_order_book,
    generate_tpch,
)

#: events the TPC-H generator emits at scale factor 1.0
TPCH_EVENTS_PER_SF = 70_250


def order_book(seed: int, events: int, *, bids_only: bool = False) -> list[Event]:
    """The tree workload: 4000 price levels, one retraction per five
    events (negative ``shift_keys`` and ``fix_tree``).  The market price
    walks four times faster than the generator's default, so a stream
    of tens of thousands of events crosses the price range many times
    and the seed changes the inputs without changing the work profile
    (with the default step a 20k-event side crosses it about once, and
    range-sharding skew then depends on the seed)."""
    config = OrderBookConfig(
        events=events, price_levels=4000, volume_max=100, delete_ratio=0.2, seed=seed,
        walk_step=0.08,
    )
    return list(generate_bids_only(config) if bids_only else generate_order_book(config))


def relation_ab(seed: int, events: int) -> list[Event]:
    """``R(A, B)`` for EQ: 500 correlation groups, 10% retractions."""
    rng = random.Random(seed)
    out: list[Event] = []
    live: list[dict] = []
    while len(out) < events:
        if live and rng.random() < 0.1:
            out.append(Event("R", live.pop(rng.randrange(len(live))), -1))
        else:
            row = {"A": rng.randint(1, 500), "B": rng.randint(1, 50)}
            live.append(row)
            out.append(Event("R", row, +1))
    return out


def tpch(seed: int, events: int) -> list[Event]:
    """Reference tables first, then the lineitem stream."""
    return list(generate_tpch(TPCHConfig(scale_factor=events / TPCH_EVENTS_PER_SF, seed=seed)))


def serve_feed(seed: int, events: int) -> list[Event]:
    """Order book and TPC-H interleaved 3:2, so every ingest batch feeds
    the scalar queries (VWAP, PSP) and the grouped one (Q18)."""
    book = order_book(seed, events * 3 // 5)
    rows = tpch(seed + 1, events * 2 // 5)
    out: list[Event] = []
    i = j = 0
    while i < len(book) or j < len(rows):
        out.extend(book[i : i + 3])
        out.extend(rows[j : j + 2])
        i += 3
        j += 2
    return out


def chunks(items: list, size: int) -> list[list]:
    return [items[i : i + size] for i in range(0, len(items), size)]


def segments(items: list, parts: int) -> list[list]:
    """``parts`` nearly equal consecutive slices (the check points lie
    at their ends)."""
    bounds = [len(items) * k // parts for k in range(parts + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]
