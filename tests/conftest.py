"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.engine.aggr_index import AggregateIndexEngine
from repro.query.planner import QueryPlan, Strategy
from repro.storage.stream import Event, Stream


def make_bid(price: int, volume: int, *, ts: int = 0, bid_id: int = 0, broker: int = 1) -> dict:
    """A bids/asks row with the non-essential attributes defaulted."""
    return {
        "timestamp": ts,
        "id": bid_id,
        "broker_id": broker,
        "volume": volume,
        "price": price,
    }


def bid_events(pairs, relation: str = "bids") -> Stream:
    """Insert-only stream from (price, volume) pairs."""
    return Stream(
        Event(relation, make_bid(price, volume, ts=i, bid_id=i + 1), +1)
        for i, (price, volume) in enumerate(pairs)
    )


def random_bid_stream(
    count: int,
    *,
    relation: str = "bids",
    price_levels: int = 20,
    volume_max: int = 9,
    delete_probability: float = 0.25,
    seed: int = 0,
) -> Stream:
    """Random insert/delete stream (deletes always target live rows)."""
    rng = random.Random(seed)
    events: list[Event] = []
    live: list[dict] = []
    ident = 0
    while len(events) < count:
        if live and rng.random() < delete_probability:
            events.append(Event(relation, live.pop(rng.randrange(len(live))), -1))
        else:
            ident += 1
            row = make_bid(
                rng.randint(1, price_levels),
                rng.randint(1, volume_max),
                ts=ident,
                bid_id=ident,
            )
            live.append(row)
            events.append(Event(relation, row, +1))
    return Stream(events)


def two_sided(bids) -> list[Event]:
    """A one-sided book made two-sided: every third row (and its
    retraction) moved to ``asks``."""
    return [
        Event("asks", event.row, event.weight) if event.row["id"] % 3 == 0 else event
        for event in bids
    ]


def free_map_engine(query) -> AggregateIndexEngine:
    """``query`` on the free-map side (Section 4.2's general algorithm),
    whatever it classifies as: VWAP and EQ run there too."""
    return AggregateIndexEngine(QueryPlan(Strategy.GENERAL, query))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)
