"""Batched execution vs the per-event oracle.

The ``on_batch`` contract: its return value equals what the last
``on_event`` of the same chunk would have returned.  So for every
registered query the batched trace over any chunking of the stream must
match the per-event ``results_trace`` at every batch boundary — that is
the acceptance bar for the delta-coalesced overrides, and the default
fallback makes it hold trivially for engines without one.

Also covered here: ``warm_start`` (bulk-load construction of the index
engines) must leave the engine in exactly the state the trigger path
would have produced, including for all further incremental updates.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.aggr_index import build_single_index_engine
from repro.engine.registry import build_engine
from repro.storage.stream import Event, Stream
from repro.workloads import get_query

from tests.conftest import make_bid, random_bid_stream
from tests.engine.test_differential import CASES, assert_results_equal
from tests.engine.test_hypothesis_streams import bid_streams

BATCH_SIZES = [1, 2, 3, 7, 16, 1000]


def _assert_batched_matches_trace(name: str, build, stream, batch_size: int) -> None:
    trace = build().results_trace(stream)
    batched = build().batched_results_trace(stream, batch_size)
    assert len(batched) == (len(stream) + batch_size - 1) // batch_size
    for chunk_index, actual in enumerate(batched):
        boundary = min(len(trace), (chunk_index + 1) * batch_size) - 1
        assert_results_equal(name, boundary, trace[boundary], actual)


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_rpai_batched_matches_per_event(name, batch_size):
    """Every rpai-strategy engine (point/range/grouped index engines,
    the conjunctive compiler, and the specialized triggers via their
    default fallback) at every boundary of every chunking."""
    _assert_batched_matches_trace(
        name, lambda: build_engine(name, "rpai"), CASES[name](), batch_size
    )


@pytest.mark.parametrize("name", ["VWAP", "SQ1", "MST", "Q18"])
def test_dbtoaster_batched_fallback(name):
    """The baseline engines only have the default ``apply`` loop — the
    contract must hold there too."""
    _assert_batched_matches_trace(
        name, lambda: build_engine(name, "dbtoaster"), CASES[name](), 5
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_random_batch_splits(name):
    """Uneven chunkings: feed the stream through on_batch in randomly
    sized pieces and compare against per-event at every boundary."""
    stream = CASES[name]()
    events = list(stream)
    trace = build_engine(name, "rpai").results_trace(stream)
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(3):
        engine = build_engine(name, "rpai")
        position = 0
        while position < len(events):
            size = rng.randint(1, 9)
            chunk = events[position : position + size]
            position += len(chunk)
            actual = engine.on_batch(chunk)
            assert_results_equal(name, position - 1, trace[position - 1], actual)


class TestBatchedProperties:
    """Hypothesis streams *and* hypothesis batch splits for the two
    engines with hand-written coalescing triggers."""

    @given(events=bid_streams(), batch_size=st.integers(1, 12))
    @settings(max_examples=80, deadline=None)
    def test_range_index_engine(self, events, batch_size):
        query = get_query("VWAP").ast
        trace = build_single_index_engine(query).results_trace(Stream(events))
        batched = build_single_index_engine(query).batched_results_trace(
            Stream(events), batch_size
        )
        for chunk_index, actual in enumerate(batched):
            boundary = min(len(trace), (chunk_index + 1) * batch_size) - 1
            assert actual == trace[boundary]

    @given(events=bid_streams(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_splits(self, events, data):
        query = get_query("VWAP").ast
        trace = build_single_index_engine(query).results_trace(Stream(events))
        engine = build_single_index_engine(query)
        position = 0
        while position < len(events):
            size = data.draw(st.integers(1, len(events) - position))
            actual = engine.on_batch(events[position : position + size])
            position += size
            assert actual == trace[position - 1]


class TestWarmStart:
    @pytest.mark.parametrize("name", ["EQ", "VWAP", "NQ1", "NQ2"])
    @pytest.mark.parametrize("cut", [0, 1, 60, 150])
    def test_prefix_warm_start_then_incremental(self, name, cut):
        """warm_start over an insert-only prefix, then per-event over
        the rest, must reproduce the full per-event trace."""
        if name == "EQ":
            from tests.engine.test_differential import _eq_stream

            inserts = [e for e in _eq_stream(400, seed=44) if e.weight == 1]
            tail = _eq_stream(120, seed=45)
        else:
            inserts = list(random_bid_stream(200, seed=46, delete_probability=0.0))
            tail = random_bid_stream(120, seed=47)
        cut = min(cut, len(inserts))
        events = inserts[:cut] + list(tail)
        trace = build_engine(name, "rpai").results_trace(Stream(events))
        warm = build_engine(name, "rpai")
        result = warm.warm_start(Stream(events[:cut]))
        if cut:
            assert result == trace[cut - 1]
        for offset, event in enumerate(events[cut:]):
            assert warm.on_event(event) == trace[cut + offset]

    def test_warm_start_requires_fresh_engine(self):
        from repro.errors import EngineStateError

        stream = random_bid_stream(30, seed=48, delete_probability=0.0)
        for name in ("VWAP", "NQ1", "NQ2"):
            engine = build_engine(name, "rpai")
            engine.process(stream)
            with pytest.raises(EngineStateError):
                engine.warm_start(stream)

    def test_default_warm_start_is_replay(self):
        """Engines without a bulk path fall back to trigger replay."""
        stream = random_bid_stream(40, seed=49, delete_probability=0.0)
        replayed = build_engine("VWAP", "dbtoaster")
        final = replayed.warm_start(stream)
        oracle = build_engine("VWAP", "dbtoaster")
        assert final == oracle.process(stream)


@st.composite
def book_streams(draw):
    """``bids`` inserts and live-row retractions, duplicate rows (an
    equal row inserted twice), a few ``asks`` rows the engines skip, and
    at least one price emptied: every live row at a drawn price is
    retracted at a drawn point of the stream."""
    count = draw(st.integers(min_value=2, max_value=60))
    events: list[Event] = []
    live: list[dict] = []
    emptied = False
    for index in range(count):
        choice = draw(st.sampled_from(("insert", "insert", "duplicate", "delete", "empty", "asks")))
        if choice == "asks":
            events.append(Event("asks", make_bid(draw(st.integers(1, 6)), 1, ts=index), +1))
        elif choice == "duplicate" and live:
            row = dict(draw(st.sampled_from(live)))
            live.append(row)
            events.append(Event("bids", row, +1))
        elif choice == "delete" and live:
            events.append(Event("bids", live.pop(draw(st.integers(0, len(live) - 1))), -1))
        elif choice == "empty" and live:
            price = draw(st.sampled_from(live))["price"]
            events.extend(Event("bids", row, -1) for row in live if row["price"] == price)
            live = [row for row in live if row["price"] != price]
            emptied = True
        else:
            # Price 0 is a level whose Σ price·volume is 0.
            row = make_bid(draw(st.integers(0, 6)), draw(st.integers(1, 5)), ts=index, bid_id=index)
            live.append(row)
            events.append(Event("bids", row, +1))
    if not emptied:  # a price no other row uses comes and goes
        row = make_bid(7, 3, ts=count, bid_id=count)
        events += [Event("bids", row, +1), Event("bids", row, -1)]
    return events


def _typed(value):
    return type(value), value


def _book_state(engine) -> tuple:
    """What NQ1 and NQ2 keep, with every number's type."""
    state = [
        _typed(engine.total),
        sorted((price, _typed(res)) for price, res in engine.res_map.items()),
        [(_typed(k), _typed(v)) for k, v in engine.price_vol.items()],
    ]
    for name in ("elig_vol", "aggr"):
        if hasattr(engine, name):
            state.append([(_typed(k), _typed(v)) for k, v in getattr(engine, name).items()])
    return tuple(state)


def _assert_warm_is_replay(name: str, events: list[Event], cut: int) -> None:
    warm, replayed = build_engine(name, "rpai"), build_engine(name, "rpai")
    loaded = warm.warm_start(Stream(events[:cut]))
    expected = replayed.result()
    for event in events[:cut]:
        expected = replayed.on_event(event)
    assert _typed(loaded) == _typed(expected)
    assert _book_state(warm) == _book_state(replayed)
    for event in events[cut:]:
        assert _typed(warm.on_event(event)) == _typed(replayed.on_event(event))
    assert _book_state(warm) == _book_state(replayed)


class TestBookWarmStart:
    """NQ1's and NQ2's bulk warm start is the per-event replay: the
    warm result, every later result and the maintained maps and trees,
    to the type."""

    @pytest.mark.parametrize("name", ["NQ1", "NQ2"])
    @given(events=book_streams())
    @settings(max_examples=60, deadline=None)
    def test_bulk_build_is_the_replay(self, name, events):
        from repro.engine.queries import nq

        assert nq._net_bids(events) is not None
        for cut in sorted({0, 1, len(events) // 2, len(events)}):
            _assert_warm_is_replay(name, events, cut)

    @pytest.mark.parametrize("name", ["NQ1", "NQ2"])
    @pytest.mark.parametrize(
        "odd",
        [
            Event("bids", make_bid(3, 2.5, ts=90, bid_id=90), +1),
            Event("bids", make_bid(3.0, 2, ts=91, bid_id=91), +1),
            Event("bids", make_bid(9, 4, ts=92, bid_id=92), -1),
        ],
        ids=["float-volume", "float-price", "retraction-first"],
    )
    def test_off_domain_streams_take_the_replay(self, name, odd):
        from repro.engine.queries import nq

        events = [odd, *random_bid_stream(80, price_levels=12, seed=51)]
        assert nq._net_bids(events) is None
        if name == "NQ1" and type(odd.row["price"]) is not int:
            # NQ1's composite keys need int prices: the replay refuses
            # the row, so the warm start it is sent to refuses it too.
            from repro.errors import KeyUniverseError

            with pytest.raises(KeyUniverseError):
                build_engine(name, "rpai").on_event(odd)
            with pytest.raises(KeyUniverseError):
                build_engine(name, "rpai").warm_start(Stream(events))
            return
        for cut in (1, 40, len(events)):
            _assert_warm_is_replay(name, events, cut)


def test_batch_size_must_be_positive():
    from repro.errors import EngineStateError

    stream = random_bid_stream(10, seed=50)
    with pytest.raises(EngineStateError):
        list(stream.batches(0))
