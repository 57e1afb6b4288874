"""The one aggregate-index engine across its plan shapes.

EQ (one point side), VWAP (one shifted side), grouped VWAP (one shifted
side fanned over GROUP BY keys), MST (two two-column shifted sides),
PSP (two two-column threshold sides), TPC-H Q17 (one grouped
threshold side) and TPC-H Q18 (one membership side) all run through
:class:`~repro.engine.aggr_index.AggregateIndexEngine` and the one
emitter.  Every shape × trigger flavor (per event, batched, columnar
frames) must be bit-identical to the naive engine, before and after a
pickle round-trip mid-stream, with ``set_codegen(False)`` (the
``interpreted`` ids: the switch the layered benchmark's probes still
flip) having no effect; and what only one of the replaced classes had — bulk-load
``warm_start``, the generated ``on_frame`` — must hold for all of them.
VWAP divided by 7.0 pins the result scale as written: ``x / 7.0`` is
not ``x * (1 / 7.0)``.
"""

from __future__ import annotations

import functools
import random

import pytest

from repro.engine.aggr_index import AggregateIndexEngine, build_single_index_engine
from repro.engine.naive import NaiveEngine
from repro.errors import EngineStateError, QueryParseError
from repro.query import codegen
from repro.query.parser import parse_query
from repro.storage import schema as schemas
from repro.storage.colbatch import ColumnarFrame
from repro.storage.stream import Event, Stream
from repro.workloads import get_query
from repro.workloads.tpch import Q17_BRAND, Q17_CONTAINER

from tests.conftest import random_bid_stream
from tests.engine.test_columns import FLAVORS, book, drive
from tests.engine.test_sharding import GROUPED_VWAP

MODES = pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "interpreted"])


def bids(count: int, seed: int) -> list:
    """Few price levels and many retractions: keys empty out, shifted
    aggregate keys collide, groups come and go."""
    return list(random_bid_stream(
        count, price_levels=12, volume_max=9, delete_probability=0.3, seed=seed
    ))


def pairs(count: int, seed: int) -> list:
    """EQ's relation as two groups with few live rows and small sums, so
    that one group's sum equals half the total (EQ's predicate) at some
    chunk boundaries."""
    rng = random.Random(seed)
    events, live = [], []
    while len(events) < count:
        if live and rng.random() < 0.45:
            events.append(Event("R", live.pop(rng.randrange(len(live))), -1))
        else:
            live.append({"A": rng.randint(1, 2), "B": rng.randint(1, 2)})
            events.append(Event("R", live[-1], +1))
    return events


def parts_and_lineitems(count: int, seed: int) -> list:
    """Q17's relations over four parts, with retractions: parts arrive
    after their lineitems, leave, come back, now and then twice over,
    and quantities straddle a fifth of their part's average."""
    rng = random.Random(seed)
    events, live = [], []
    while len(events) < count:
        if live and rng.random() < 0.3:
            events.append(Event(*live.pop(rng.randrange(len(live))), -1))
            continue
        if rng.random() < 0.2:
            hit = rng.random() < 0.7
            row = {
                "partkey": rng.randint(1, 4),
                "brand": Q17_BRAND if hit else "Brand#11",
                "container": Q17_CONTAINER if hit else "SM BOX",
            }
            live.append(("part", row))
        else:
            quantity = rng.choice((1, 2, 10, 40))
            row = {
                "orderkey": 1,
                "partkey": rng.randint(1, 4),
                "quantity": quantity,
                "extendedprice": quantity * 7,
            }
            live.append(("lineitem", row))
        events.append(Event(*live[-1], +1))
    return events


def customers_orders_lineitems(count: int, seed: int) -> list:
    """Q18's relations over three customers and four orderkeys, with
    retractions: nothing is unique, so rows repeat, an orderkey links
    several customers, and per-order quantity sums cross 300 both ways."""
    rng = random.Random(seed)
    events, live = [], []
    while len(events) < count:
        if live and rng.random() < 0.3:
            events.append(Event(*live.pop(rng.randrange(len(live))), -1))
            continue
        pick = rng.random()
        if pick < 0.15:
            live.append(("customer", {"custkey": rng.randint(1, 3), "name": "c"}))
        elif pick < 0.35:
            row = {"orderkey": rng.randint(1, 4), "custkey": rng.randint(1, 3),
                   "orderdate": 0, "totalprice": 0}
            live.append(("orders", row))
        else:
            row = {"orderkey": rng.randint(1, 4), "partkey": 1,
                   "quantity": rng.choice((20, 90, 150)), "extendedprice": 7}
            live.append(("lineitem", row))
        events.append(Event(*live[-1], +1))
    return events


VWAP_SEVENTHS = get_query("VWAP").sql.replace(
    "SUM(b.price * b.volume)", "SUM(b.price * b.volume) / 7.0"
)

#: shape -> (query AST, naive schema map, event list factory)
SHAPES = {
    "EQ": (get_query("EQ").ast, get_query("EQ").schema_map(), pairs),
    "VWAP": (get_query("VWAP").ast, get_query("VWAP").schema_map(), bids),
    "VWAP/7.0": (parse_query(VWAP_SEVENTHS), {"bids": schemas.BIDS}, bids),
    "grouped": (parse_query(GROUPED_VWAP), {"bids": schemas.BIDS}, bids),
    "MST": (get_query("MST").ast, get_query("MST").schema_map(), book),
    "PSP": (get_query("PSP").ast, get_query("PSP").schema_map(), book),
    "Q17": (get_query("Q17").ast, get_query("Q17").schema_map(), parts_and_lineitems),
    "Q18": (get_query("Q18").ast, get_query("Q18").schema_map(), customers_orders_lineitems),
}
SHAPE = pytest.mark.parametrize("shape", SHAPES)


def build(shape: str, compiled: bool) -> AggregateIndexEngine:
    codegen.set_codegen(compiled)
    engine = build_single_index_engine(SHAPES[shape][0])
    assert engine.trigger_mode == "compiled"
    return engine


def naive_trace(shape: str, events: list) -> list:
    query, schema_map, _ = SHAPES[shape]
    return drive(NaiveEngine(query, schema_map), events, "event")


@functools.cache
def naive_results(shape: str, count: int, seed: int) -> list:
    """:func:`naive_trace` of the shape's own stream, computed once for
    every flavor."""
    return naive_trace(shape, SHAPES[shape][2](count, seed))


def identical(left, right) -> bool:
    """Same types, same values, same group keys — ``1 == 1.0`` is not
    identity."""
    if isinstance(left, list):
        return len(left) == len(right) and all(map(identical, left, right))
    if isinstance(left, dict):
        return left.keys() == right.keys() and all(
            identical(value, right[key]) for key, value in left.items()
        )
    return type(left) is type(right) and left == right


class TestAgainstNaive:
    @SHAPE
    @MODES
    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_bit_identical_with_a_restore_mid_stream(self, shape, compiled, flavor):
        events = SHAPES[shape][2](160, 81)
        expected = naive_results(shape, 160, 81)
        assert any(expected), "the stream must exercise a non-empty result"
        assert drive(build(shape, compiled), events, flavor) == expected
        assert drive(build(shape, compiled), events, flavor, restore_at=4) == expected


class TestModesAgree:
    @SHAPE
    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_compiled_equals_interpreted_to_the_type(self, shape, flavor):
        """Each flavor, restored mid-stream, equals the per-event path to
        the type and the naive engine in value (the interpreted twin
        this was named for is gone; naive sums keep ints)."""
        events = SHAPES[shape][2](160, 82)
        compiled = drive(build(shape, True), events, flavor, restore_at=3)
        assert identical(compiled, drive(build(shape, True), events, "event"))
        assert compiled == naive_results(shape, 160, 82)


class TestWarmStart:
    @SHAPE
    @MODES
    def test_bulk_load_equals_replay(self, shape, compiled):
        events = SHAPES[shape][2](200, 83)
        head, tail = events[:120], events[120:]
        replayed = build(shape, compiled)
        for event in head:
            replayed.on_event(event)
        loaded = build(shape, compiled)
        assert identical(loaded.warm_start(Stream(head)), replayed.result())
        assert identical(drive(loaded, tail, "event"), drive(replayed, tail, "event"))

    @SHAPE
    @MODES
    def test_refuses_an_engine_that_has_seen_events(self, shape, compiled):
        events = SHAPES[shape][2](40, 84)
        engine = build(shape, compiled)
        engine.on_batch(events[:20])
        with pytest.raises(EngineStateError):
            engine.warm_start(Stream(events[20:]))

    @MODES
    def test_refuses_an_engine_that_has_seen_only_group_rows(self, compiled):
        """Customer rows reach no Q18 key, only the side's group rows."""
        engine = build("Q18", compiled)
        engine.on_event(Event("customer", {"custkey": 1, "name": "c"}))
        with pytest.raises(EngineStateError):
            engine.warm_start(Stream(customers_orders_lineitems(20, 84)))

    def test_mst_bulk_load_builds_both_sides_without_a_shift(self):
        from repro import obs

        events = book(200, 85)
        obs.enable()
        obs.reset()
        try:
            engine = build("MST", True)
            engine.warm_start(Stream(events))
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
            obs.reset()
        assert not any(name.startswith("rpai.shift_keys") for name in counters)
        assert all(len(side.index) for side in engine.sides)


class TestFrames:
    @SHAPE
    def test_generated_frame_path_equals_batch_of_the_decoded_frame(self, shape):
        events = SHAPES[shape][2](192, 86)
        by_frame, by_batch = build(shape, True), build(shape, True)
        assert "def apply_frame(" in codegen.generated_source(by_frame)
        for start in range(0, len(events), 24):
            frame = ColumnarFrame.from_events(events[start : start + 24])
            assert not frame.fallback
            assert identical(by_frame.on_frame(frame), by_batch.on_batch(frame.events()))

    def test_frame_with_fallback_rows_takes_the_batch_path(self):
        events = book(48, 87)
        ragged = dict(events[5].row, note="not in the block layout")
        events[5] = Event(events[5].relation, ragged, events[5].weight)
        frame = ColumnarFrame.from_events(events)
        assert frame.fallback
        by_frame, by_batch = build("MST", True), build("MST", True)
        assert identical(by_frame.on_frame(frame), by_batch.on_batch(events))


class TestQueriesWhoseTextDoesNotParseBack:
    """A query's text is for reading: ``0.00001`` prints as ``1e-05``
    and an apostrophe unescaped, and neither parses.  A snapshot pickles
    the query tree, so such queries build, pickle and restore."""

    Q17_SQL = get_query("Q17").sql
    CASES = {
        "PSP-0.00001": (get_query("PSP").sql.replace("0.0001", "0.00001"), "PSP", book),
        "Q17-apostrophe": (
            Q17_SQL.replace(f"'{Q17_CONTAINER}'", "'O''Brien'"), "Q17", parts_and_lineitems,
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    @MODES
    def test_build_pickle_restore(self, case, compiled):
        sql, shape, stream = self.CASES[case]
        query = parse_query(sql)
        with pytest.raises(QueryParseError):
            parse_query(str(query))
        renamed = {Q17_CONTAINER: "O'Brien"}
        events = [
            Event(e.relation, {k: renamed.get(v, v) for k, v in e.row.items()}, e.weight)
            for e in stream(160, 87)
        ]
        expected = drive(NaiveEngine(query, SHAPES[shape][1]), events, "batch")
        assert any(expected)
        codegen.set_codegen(compiled)
        engine = build_single_index_engine(query)
        assert drive(engine, events, "batch", restore_at=4) == expected
