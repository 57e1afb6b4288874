"""Property-based engine testing: hypothesis generates arbitrary
insert/delete bid streams (deletes always target live rows) and every
incremental engine must match the naive interpreter event-by-event.

These complement the fixed-seed differential tests with adversarial
shapes: heavy duplicates, monotone prices, all-same-price streams,
immediate retractions.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.aggr_index import build_single_index_engine
from repro.engine.naive import NaiveEngine
from repro.engine.queries.nq import NQ1RpaiEngine
from repro.storage.stream import Event
from repro.workloads.queries import QUERIES

from tests.conftest import free_map_engine, make_bid


@st.composite
def bid_streams(draw, max_events: int = 35, price_levels: int = 8, volume_max: int = 5):
    """Insert/delete streams where deletes always hit a live row."""
    count = draw(st.integers(min_value=1, max_value=max_events))
    events: list[Event] = []
    live: list[dict] = []
    for index in range(count):
        delete = len(live) > 0 and draw(st.booleans())
        if delete:
            victim = live.pop(draw(st.integers(0, len(live) - 1)))
            events.append(Event("bids", victim, -1))
        else:
            row = make_bid(
                draw(st.integers(1, price_levels)),
                draw(st.integers(1, volume_max)),
                ts=index,
                bid_id=index,
            )
            live.append(row)
            events.append(Event("bids", row, +1))
    return events


def _assert_trace_equal(query_name: str, engine, events) -> None:
    qd = QUERIES[query_name]
    naive = NaiveEngine(qd.ast, qd.schema_map())
    for index, event in enumerate(events):
        expected = naive.on_event(event)
        actual = engine.on_event(event)
        assert actual == expected, (
            f"{query_name} event {index} ({event.weight:+} {dict(event.row)}): "
            f"naive={expected} got={actual}"
        )


class TestVWAPProperties:
    @given(events=bid_streams())
    @settings(max_examples=120, deadline=None)
    def test_range_index_engine(self, events):
        _assert_trace_equal("VWAP", build_single_index_engine(QUERIES["VWAP"].ast), events)

    @given(events=bid_streams())
    @settings(max_examples=80, deadline=None)
    def test_general_algorithm(self, events):
        _assert_trace_equal("VWAP", free_map_engine(QUERIES["VWAP"].ast), events)


class TestGeneralAlgorithmProperties:
    @given(events=bid_streams())
    @settings(max_examples=80, deadline=None)
    def test_sq1(self, events):
        _assert_trace_equal("SQ1", free_map_engine(QUERIES["SQ1"].ast), events)

    @given(events=bid_streams())
    @settings(max_examples=80, deadline=None)
    def test_sq2(self, events):
        _assert_trace_equal("SQ2", free_map_engine(QUERIES["SQ2"].ast), events)


class TestNQ1Properties:
    @given(events=bid_streams(max_events=25, price_levels=6, volume_max=4))
    @settings(max_examples=60, deadline=None)
    def test_nq1_engine(self, events):
        _assert_trace_equal("NQ1", NQ1RpaiEngine(), events)


class TestEQProperties:
    @st.composite
    @staticmethod
    def eq_streams(draw):
        count = draw(st.integers(1, 40))
        events: list[Event] = []
        live: list[dict] = []
        for _ in range(count):
            delete = len(live) > 0 and draw(st.booleans())
            if delete:
                victim = live.pop(draw(st.integers(0, len(live) - 1)))
                events.append(Event("R", victim, -1))
            else:
                row = {"A": draw(st.integers(1, 4)), "B": draw(st.integers(1, 3))}
                live.append(row)
                events.append(Event("R", row, +1))
        return events

    @given(events=eq_streams())
    @settings(max_examples=120, deadline=None)
    def test_point_index_engine(self, events):
        _assert_trace_equal("EQ", build_single_index_engine(QUERIES["EQ"].ast), events)
