"""NQ1's eligible view derived from the book, against the view map it
replaced, and NQ1's composite-key domain.

The engine keeps no map of the view V(p) = vol(p) for p >= p*: a view
prefix is a difference of two book prefixes, and each view delta is one
range shift that also moves the tuple's own group.  The reference
(:mod:`tests.engine.nq1_reference`) is the trigger that kept the view in
a map and detached and re-attached the own group on every event.  Both
aggregate indexes hold composite keys ``elig_sum(p)·M + p``, a function
of the book alone, so their items agree even where the tree shapes
differ.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.queries.nq import _M, NQ1RpaiEngine
from repro.engine.registry import build_engine
from repro.errors import KeyUniverseError, ReproError
from repro.storage.stream import Event, Stream

from tests.conftest import make_bid
from tests.engine.nq1_reference import NQ1ViewMapEngine


def _typed(value):
    return type(value), value


def long_book(seed: int, levels: int, count: int) -> list[Event]:
    """``count`` integer ``bids`` events over ``levels`` prices (price 0
    among them at some seeds): 30 % retractions of live rows, duplicate
    rows, levels emptied at once, and rows as heavy as the whole book at
    the lowest or highest price, which move p* across many levels when
    they come and when they go."""
    rng = random.Random(seed)
    prices = sorted(rng.sample(range(3 * levels), levels))
    events: list[Event] = []
    live: list[dict] = []
    total = 0

    def insert(row: dict) -> None:
        nonlocal total
        live.append(row)
        total += row["volume"]
        events.append(Event("bids", row, +1))

    def retract(row: dict) -> None:
        nonlocal total
        live.remove(row)
        total -= row["volume"]
        events.append(Event("bids", row, -1))

    while len(events) < count:
        roll = rng.random()
        if live and roll < 0.30:
            retract(live[rng.randrange(len(live))])
        elif live and roll < 0.38:
            insert(dict(rng.choice(live)))
        elif live and roll < 0.41:
            price = rng.choice(live)["price"]
            for row in [row for row in live if row["price"] == price]:
                retract(row)
        elif roll < 0.44:
            price = prices[0] if rng.random() < 0.5 else prices[-1]
            insert(make_bid(price, total + 1, ts=len(events), bid_id=len(events)))
        else:
            insert(make_bid(rng.choice(prices), rng.randint(1, 9), ts=len(events), bid_id=len(events)))
    return events


class TestDerivedViewIsTheViewMap:
    @given(
        seed=st.integers(0, 2**32 - 1),
        levels=st.integers(5, 200),
        count=st.integers(2_000, 2_400),
    )
    @settings(max_examples=12, deadline=None)
    def test_every_result_and_every_key(self, seed, levels, count):
        engine, reference = NQ1RpaiEngine(), NQ1ViewMapEngine()
        for event in long_book(seed, levels, count):
            assert _typed(engine.on_event(event)) == _typed(reference.on_event(event))
            assert [(_typed(k), _typed(v)) for k, v in engine.aggr.items()] == [
                (_typed(k), _typed(v)) for k, v in reference.aggr.items()
            ]
            assert engine._star == reference._boundary()

    @pytest.mark.parametrize("shape", ["batch", "frame", "warm+pickle"])
    def test_call_shapes(self, shape):
        events = long_book(seed=7, levels=40, count=2_000)
        engine, reference = NQ1RpaiEngine(), NQ1ViewMapEngine()
        if shape == "warm+pickle":
            engine.warm_start(Stream(events[:1_000]))
            reference.warm_start(Stream(events[:1_000]))
            engine = pickle.loads(pickle.dumps(engine))
            events = events[1_000:]
        for start in range(0, len(events), 64):
            chunk = events[start : start + 64]
            if shape == "frame":
                from repro.storage.colbatch import ColumnarFrame

                got = engine.on_frame(ColumnarFrame.from_events(chunk))
            else:
                got = engine.on_batch(chunk)
            assert _typed(got) == _typed(reference.on_batch(chunk))
        assert list(engine.aggr.items()) == list(reference.aggr.items())


#: ROADMAP item 19(c)'s price set: three small prices, 2⁴⁵ − 1, and four
#: prices at or past the composite key's stride.
_SMALL = (1, 2, 3, _M - 1)
_PAST = (_M, _M + 1, _M + 2, 2 * _M + 1)


def _book(seed: int, prices: tuple[int, ...], count: int) -> list[Event]:
    rng = random.Random(seed)
    events: list[Event] = []
    live: list[dict] = []
    for index in range(count):
        if live and rng.random() < 0.3:
            events.append(Event("bids", live.pop(rng.randrange(len(live))), -1))
        else:
            row = make_bid(rng.choice(prices), rng.randint(1, 9), ts=index, bid_id=index)
            live.append(row)
            events.append(Event("bids", row, +1))
    return events


class TestPriceDomain:
    @pytest.mark.parametrize("seed", range(3))
    def test_prices_below_the_stride_agree_with_naive(self, seed):
        events = _book(seed, _SMALL, 40)
        engine, naive = build_engine("NQ1", "rpai"), build_engine("NQ1", "recompute")
        for event in events:
            assert _typed(engine.on_event(event)) == _typed(naive.on_event(event))

    @pytest.mark.parametrize("price", [*_PAST, -1])
    def test_a_price_past_the_stride_is_refused_before_any_change(self, price):
        engine = build_engine("NQ1", "rpai")
        for event in _book(5, _SMALL, 30):
            engine.on_event(event)
        before = pickle.dumps(engine)
        expected = engine.result()
        bad = Event("bids", make_bid(price, 4, ts=99, bid_id=99), +1)
        with pytest.raises(KeyUniverseError, match="price"):
            engine.on_event(bad)
        assert isinstance(KeyUniverseError("x"), ReproError)
        assert pickle.dumps(engine) == before
        assert engine.result() == expected

    def test_a_price_that_is_not_an_int_is_refused_before_any_change(self):
        """The pivot ``elig_below·M + (p − 1)`` separates groups only for
        int prices: this book read 13.5 where the query's answer is 2.5."""
        book = [make_bid(price, volume, ts=i, bid_id=i)
                for i, (price, volume) in enumerate([(2.2, 5), (2.5, 1), (1, 1)])]
        engine = build_engine("NQ1", "rpai")
        engine.on_event(Event("bids", book[2], +1))
        before = pickle.dumps(engine)
        for row in book[:2]:
            with pytest.raises(KeyUniverseError, match="int price"):
                engine.on_event(Event("bids", row, +1))
            assert pickle.dumps(engine) == before
        with pytest.raises(KeyUniverseError):
            build_engine("NQ1", "rpai").warm_start(Stream([Event("bids", row, +1) for row in book]))

    def test_the_warm_start_refuses_it_too(self):
        from repro.engine.queries import nq

        events = _book(6, _SMALL + (_M,), 60)
        assert nq._net_bids(events) is None
        with pytest.raises(KeyUniverseError):
            build_engine("NQ1", "rpai").warm_start(Stream(events))
        # NQ2 keeps no composite key: the replay it is sent to answers.
        warm, replayed = build_engine("NQ2", "rpai"), build_engine("NQ2", "rpai")
        assert warm.warm_start(Stream(events)) == replayed.process(Stream(events))
