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
from repro.storage.stream import Stream
from repro.workloads import get_query

from tests.conftest import random_bid_stream
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
    @pytest.mark.parametrize("name", ["EQ", "VWAP"])
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

        engine = build_engine("VWAP", "rpai")
        stream = random_bid_stream(30, seed=48, delete_probability=0.0)
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


def test_batch_size_must_be_positive():
    from repro.errors import EngineStateError

    stream = random_bid_stream(10, seed=50)
    with pytest.raises(EngineStateError):
        list(stream.batches(0))
