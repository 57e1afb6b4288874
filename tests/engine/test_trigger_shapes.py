"""One differential for the three call shapes.

``IncrementalEngine`` derives ``on_event`` / ``on_batch`` / ``on_frame``
from an engine's ``apply*`` and ``result``; the contract is that
``on_batch(chunk)`` returns what the last ``on_event`` of the chunk
would have, and ``on_frame(ColumnarFrame.from_events(chunk))`` what
``on_batch(chunk)`` does — same types, same values, same group keys.
Checked here for every registry query under every strategy, over one
mixed stream of every workload relation (so each engine sees blocks it
reads, blocks it ignores, interleaved multi-block frames, side-channel
rows and empty frames), with and without the validation boundary, with
a pickle round trip mid-stream, and for ``warm_start``.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.engine.aggr_index import AggregateIndexEngine
from repro.engine.base import IncrementalEngine
from repro.engine.naive import NaiveEngine
from repro.engine.registry import (
    STRATEGIES,
    attach_validation,
    build_engine,
    build_sharded_engine,
)
from repro.engine.sharding import ShardedExecutor, plan_router
from repro.engine.supervision import DurableEngine
from repro.errors import EngineStateError
from repro.query import codegen
from repro.query.parser import parse_query
from repro.query.planner import classify
from repro.storage import schema as schemas
from repro.storage.colbatch import ColumnarFrame
from repro.storage.stream import Event, Stream
from repro.workloads import TPCHConfig, generate_tpch, query_names
from repro.workloads.tpch import Q17_BRAND, Q17_CONTAINER

from tests.conftest import make_bid, random_bid_stream, two_sided

QUERIES = tuple(query_names())
SHAPES = ("event", "batch", "frame")
EVERY_ENGINE = [(query, strategy) for query in QUERIES for strategy in STRATEGIES]


#: ``interpreted`` ids build under ``set_codegen(False)``, the switch the
#: layered benchmark's probes still flip: it has no effect
MODES = pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "interpreted"])


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------

#: quantities chosen so Q18's ``SUM(quantity) > 300`` and Q17's
#: ``quantity < 0.2 * AVG`` both flip within a few lineitems
_QUANTITIES = (1, 2, 10, 150, 200)


def mixed_stream(rng: random.Random, count: int, *, floats: bool = False) -> list[Event]:
    """Inserts and retractions over every workload relation, in one
    interleaved stream.  Retractions target live rows; ``partkey`` /
    ``orderkey`` / ``custkey`` stay unique among the live reference
    rows (the engines' documented key assumption).  Now and then a
    book row carries a float in an *untyped* column: schema-valid, but
    it cannot join an int column and rides a frame's side channel.
    With ``floats``, typed int columns get floats too (valid input for
    the engines' arithmetic, junk for the validation boundary)."""
    live: dict[str, list[dict]] = {}
    events: list[Event] = []

    def unique(relation: str, column: str, span: int) -> int | None:
        taken = {row[column] for row in live.get(relation, ())}
        free = [key for key in range(1, span + 1) if key not in taken]
        return rng.choice(free) if free else None

    def number(value: int) -> float | int:
        return float(value) if floats and rng.random() < 0.2 else value

    for index in range(count):
        relation = rng.choice(
            ("bids", "bids", "asks", "R", "lineitem", "lineitem", "part", "orders", "customer")
        )
        rows = live.setdefault(relation, [])
        if rows and rng.random() < 0.3:
            events.append(Event(relation, rows.pop(rng.randrange(len(rows))), -1))
            continue
        if relation in ("bids", "asks"):
            stamp = index + 0.5 if rng.random() < 0.1 else index
            row = make_bid(rng.randint(1, 6), number(rng.randint(1, 4)), ts=stamp, bid_id=index)
        elif relation == "R":
            row = {"A": rng.randint(1, 4), "B": number(rng.randint(1, 3))}
        elif relation == "lineitem":
            quantity = rng.choice(_QUANTITIES)
            row = {
                "orderkey": rng.randint(1, 4),
                "partkey": rng.randint(1, 4),
                "quantity": number(quantity),
                "extendedprice": quantity * 7,
            }
        elif relation == "part":
            partkey = unique("part", "partkey", 4)
            if partkey is None:
                continue
            hit = rng.random() < 0.6
            row = {
                "partkey": partkey,
                "brand": Q17_BRAND if hit else "Brand#11",
                "container": Q17_CONTAINER if hit else "SM CASE",
            }
        elif relation == "orders":
            orderkey = unique("orders", "orderkey", 4)
            if orderkey is None:
                continue
            row = {
                "orderkey": orderkey,
                "custkey": rng.randint(1, 3),
                "orderdate": index + 0.5 if rng.random() < 0.1 else index,
                "totalprice": 0,
            }
        else:
            custkey = unique("customer", "custkey", 3)
            if custkey is None:
                continue
            row = {"custkey": custkey, "name": f"cust{custkey}"}
        rows.append(row)
        events.append(Event(relation, row, +1))
    return events


def chunked(rng: random.Random, events: list[Event]) -> list[list[Event]]:
    """Consecutive chunks of 0–9 events (empty chunks included)."""
    chunks, start = [], 0
    while start < len(events):
        size = rng.randint(0, 9)
        chunks.append(events[start : start + size])
        start += size
    return chunks + [[]]


JUNK = (
    Event("__junk__", {"x": 1}, +1),
    Event("bids", {"price": 3}, +1),  # columns missing
    Event("lineitem", {"orderkey": 1, "partkey": 1, "quantity": "many", "extendedprice": 7}, +1),
    Event("R", {"A": 1, "B": 2, "C": 3}, +1),  # column unknown
)


def with_junk(rng: random.Random, events: list[Event]) -> list[Event]:
    out = list(events)
    for _ in range(rng.randint(1, 5)):
        out.insert(rng.randint(0, len(out)), rng.choice(JUNK))
    return out


def serve_mix(seed: int, count: int) -> list[Event]:
    """The serving benchmark's feed in small: order book and TPC-H
    interleaved 3:2, the TPC-H part itself reshuffled so reference rows
    arrive among the lineitems."""
    rng = random.Random(seed)
    book = two_sided(random_bid_stream(count * 3 // 5, seed=seed))
    rows = list(generate_tpch(TPCHConfig(scale_factor=0.004, seed=seed)))
    rows = rows[: count * 2 // 5]
    rng.shuffle(rows)
    out: list[Event] = []
    i = j = 0
    while i < len(book) or j < len(rows):
        out.extend(book[i : i + 3])
        out.extend(rows[j : j + 2])
        i += 3
        j += 2
    return out


# ---------------------------------------------------------------------------
# Driving
# ---------------------------------------------------------------------------


def identical(left, right) -> bool:
    """Same types, same values, same group keys in the same order —
    ``1 == 1.0`` is not identity."""
    if isinstance(left, list):
        return len(left) == len(right) and all(map(identical, left, right))
    if isinstance(left, dict):
        return list(left) == list(right) and all(
            identical(value, right[key]) for key, value in left.items()
        )
    return type(left) is type(right) and left == right


def drive(engine, chunks, shape: str, *, restore_at: int | None = None):
    """One result per chunk — for ``event`` the last ``on_event``'s —
    and the engine as it ended (a restore replaces it)."""
    out = []
    for index, chunk in enumerate(chunks):
        if index == restore_at:
            engine = pickle.loads(pickle.dumps(engine))
        if shape == "event":
            result = engine.result()
            for event in chunk:
                result = engine.on_event(event)
        elif shape == "batch":
            result = engine.on_batch(chunk)
        else:
            result = engine.on_frame(ColumnarFrame.from_events(chunk))
        out.append(result)
    return out, engine


def assert_shapes_agree(query, strategy, chunks, *, validate=False, restore_at=None):
    traces, rejected = {}, {}
    for shape in SHAPES:
        engine = build_engine(query, strategy)
        if validate:
            attach_validation(engine, query)
        traces[shape], engine = drive(engine, chunks, shape, restore_at=restore_at)
        if validate:
            rejected[shape] = engine.quarantine.total_rejected
    assert identical(traces["batch"], traces["event"]), (query, strategy, "batch vs event")
    assert identical(traces["frame"], traces["batch"]), (query, strategy, "frame vs batch")
    assert len(set(rejected.values())) <= 1, rejected
    return traces["event"], rejected.get("event", 0)


# ---------------------------------------------------------------------------
# The differential
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("query,strategy", EVERY_ENGINE)
class TestEveryEngine:
    @given(seed=st.integers(0, 2**32), count=st.integers(0, 40))
    @settings(max_examples=25, deadline=None)
    def test_batch_is_last_event_and_frame_is_batch(self, query, strategy, seed, count):
        rng = random.Random(seed)
        chunks = chunked(rng, mixed_stream(rng, count))
        assert_shapes_agree(query, strategy, chunks, restore_at=len(chunks) // 2)

    @given(seed=st.integers(0, 2**32), count=st.integers(1, 40))
    @settings(max_examples=10, deadline=None)
    def test_junk_is_rejected_alike_on_all_three_shapes(self, query, strategy, seed, count):
        rng = random.Random(seed)
        clean = mixed_stream(rng, count)
        dirty = with_junk(rng, clean)
        chunks = chunked(rng, dirty)
        trace, rejected = assert_shapes_agree(
            query, strategy, chunks, validate=True, restore_at=len(chunks) // 2
        )
        assert rejected == len(dirty) - len(clean)
        # ...and what is left is the clean stream.
        reference = build_engine(query, strategy)
        assert identical(trace[-1], reference.on_batch(clean))

    @given(seed=st.integers(0, 2**32), count=st.integers(0, 40))
    @settings(max_examples=10, deadline=None)
    def test_warm_start_is_replay(self, query, strategy, seed, count):
        rng = random.Random(seed)
        events = mixed_stream(rng, count)
        cut = rng.randint(0, len(events))
        warmed, replayed = build_engine(query, strategy), build_engine(query, strategy)
        loaded = warmed.warm_start(Stream(events[:cut]))
        expected = replayed.result()
        for event in events[:cut]:
            expected = replayed.on_event(event)
        assert loaded == expected
        tail = [events[cut:]]
        assert identical(drive(warmed, tail, "batch")[0], drive(replayed, tail, "batch")[0])


@pytest.mark.parametrize("query", QUERIES)
@pytest.mark.parametrize("strategy", ["rpai", "dbtoaster"])
class TestFrames:
    """Frame layouts the mixed stream reaches only by chance, pinned."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_floats_in_int_columns_take_the_side_channel(self, query, strategy, seed):
        rng = random.Random(seed)
        chunks = chunked(rng, mixed_stream(rng, 150, floats=True))
        assert any(ColumnarFrame.from_events(chunk).fallback for chunk in chunks)
        assert_shapes_agree(query, strategy, chunks, restore_at=5)
        # Under validation the same rows are junk, on every shape.
        _trace, rejected = assert_shapes_agree(query, strategy, chunks, validate=True)
        assert rejected

    @MODES
    def test_serve_mix_and_shuffled_reference_rows(self, query, strategy, compiled):
        codegen.set_codegen(compiled)
        events = serve_mix(seed=5, count=400)
        for size in (16, 64):
            chunks = [events[i : i + size] for i in range(0, len(events), size)]
            frames = [ColumnarFrame.from_events(chunk) for chunk in chunks]
            assert max(len(frame.blocks) for frame in frames) >= 4
            assert_shapes_agree(query, strategy, chunks, restore_at=3)

    def test_single_block_and_foreign_frames(self, query, strategy):
        rng = random.Random(11)
        for relation in ("bids", "asks", "R", "lineitem", "part", "orders", "customer"):
            events = [e for e in mixed_stream(rng, 400) if e.relation == relation]
            chunks = [events[i : i + 16] for i in range(0, len(events), 16)]
            assert all(len(ColumnarFrame.from_events(c).blocks) == 1 for c in chunks)
            assert_shapes_agree(query, strategy, chunks)


def _seeded_3k(query: str) -> list[Event]:
    if query in ("Q17", "Q18"):
        return list(generate_tpch(TPCHConfig(scale_factor=3000 / 70_250, seed=3)))[:3000]
    if query == "EQ":
        rng = random.Random(3)
        return [Event("R", {"A": rng.randint(1, 50), "B": rng.randint(1, 9)}) for _ in range(3000)]
    return two_sided(random_bid_stream(3000, seed=3))


@pytest.mark.parametrize("query", QUERIES)
@pytest.mark.parametrize("shape", SHAPES)
def test_one_result_per_trigger_call(query, shape):
    events = _seeded_3k(query)
    chunks = [[event] for event in events] if shape == "event" else [
        events[i : i + 64] for i in range(0, len(events), 64)
    ]
    engine = build_engine(query, "rpai")
    obs.reset()
    obs.enable()
    try:
        drive(engine, chunks, shape)
        snap = obs.snapshot()
    finally:
        obs.disable()
        obs.reset()
    counters = snap["counters"]
    assert counters["engine.results"] == len(chunks)
    if shape == "event":
        assert counters["engine.events"] == len(events)
        assert "engine.batches" not in counters
    else:
        assert counters["engine.batches"] == len(chunks)
        assert "engine.events" not in counters
        assert snap["stats"]["engine.batch_size"]["total"] == len(events)


# ---------------------------------------------------------------------------
# Q18 under bag semantics
# ---------------------------------------------------------------------------


def _customer(custkey: int, weight: int = 1) -> Event:
    return Event("customer", {"custkey": custkey, "name": f"cust{custkey}"}, weight)


def _order(orderkey: int, custkey: int, weight: int = 1) -> Event:
    row = {"orderkey": orderkey, "custkey": custkey, "orderdate": 0, "totalprice": 0}
    return Event("orders", row, weight)


def _line(orderkey: int, quantity: int, weight: int = 1) -> Event:
    row = {"orderkey": orderkey, "partkey": 1, "quantity": quantity, "extendedprice": 7}
    return Event("lineitem", row, weight)


#: nothing makes ``custkey`` or ``orderkey`` unique: duplicate rows
#: multiply the join, and one orderkey may link several customers
Q18_BAG_STREAMS = {
    "duplicate-customer": [_customer(1), _customer(1), _order(5, 1), _line(5, 301)],
    "delete-one-duplicate": [
        _customer(1), _customer(1), _order(5, 1), _line(5, 301), _customer(1, -1),
    ],
    "duplicate-order": [
        _customer(1), _order(5, 1), _order(5, 1), _line(5, 301), _line(5, 20),
        _order(5, 1, -1),
    ],
    "orderkey-under-two-customers": [
        _customer(1), _customer(2), _order(5, 1), _order(5, 2), _line(5, 301),
    ],
    "emptied-and-refilled": [
        _customer(1), _order(5, 1), _line(5, 200), _line(5, 200), _line(5, 200, -1),
        _line(5, 200, -1), _line(5, 301), _order(5, 1, -1), _order(5, 1), _customer(1, -1),
        _customer(1),
    ],
}


def _by_key(results: list) -> list:
    return [dict(sorted(result.items())) for result in results]


@MODES
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("strategy", ["rpai", "dbtoaster"])
@pytest.mark.parametrize("stream", Q18_BAG_STREAMS)
def test_q18_bag_semantics_match_naive(stream, strategy, shape, compiled):
    """Every trace equals the naive re-evaluation's, value types
    included, in every call shape, with a pickle restore mid-stream."""
    events = Q18_BAG_STREAMS[stream]
    chunks = [events[i : i + 2] for i in range(0, len(events), 2)]
    expected, _ = drive(build_engine("Q18", "recompute"), chunks, "batch")
    codegen.set_codegen(compiled)
    engine = build_engine("Q18", strategy)
    got, _ = drive(engine, chunks, shape, restore_at=len(chunks) // 2)
    assert identical(_by_key(got), _by_key(expected))


def _part(partkey: int, weight: int = 1) -> Event:
    row = {"partkey": partkey, "brand": Q17_BRAND, "container": Q17_CONTAINER}
    return Event("part", row, weight)


def _q17_line(quantity: int, price: int) -> Event:
    row = {"orderkey": 1, "partkey": 1, "quantity": quantity, "extendedprice": price}
    return Event("lineitem", row, 1)


@MODES
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("strategy", ["rpai", "dbtoaster"])
def test_q17_duplicate_part_rows_match_naive(strategy, shape, compiled):
    """A part row inserted twice joins each lineitem twice: 200 / 7,
    then 100 / 7 once one copy is deleted."""
    events = [_part(1), _part(1), _q17_line(1, 100), _q17_line(100, 5), _part(1, -1)]
    chunks = [events[i : i + 2] for i in range(0, len(events), 2)]
    expected, _ = drive(build_engine("Q17", "recompute"), chunks, "batch")
    assert expected[1:] == [200.0 / 7.0, 100.0 / 7.0]
    codegen.set_codegen(compiled)
    got, _ = drive(build_engine("Q17", strategy), chunks, shape, restore_at=1)
    assert identical(got, expected)


MAX_THRESHOLD_SQL = {
    "one-relation": """
        SELECT SUM(b.price * b.volume) FROM bids b
        WHERE b.volume > 0.5 * (SELECT MAX(b1.volume) FROM bids b1)
    """,
    "two-relation": """
        SELECT SUM(a.price - b.price) FROM bids b, asks a
        WHERE b.volume >= (SELECT MAX(b1.volume) FROM bids b1)
          AND a.volume > 0.5 * (SELECT MIN(a1.volume) FROM asks a1)
    """,
}


@MODES
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("name", MAX_THRESHOLD_SQL)
def test_min_max_threshold_matches_naive(name, shape, compiled):
    """A column threshold probed by an uncorrelated MIN/MAX scalar (an
    ordered-multiset view, not a SUM/COUNT/AVG accumulator) plans to the
    aggregate-index engine; every call shape folds the scalar in event
    order."""
    query = parse_query(MAX_THRESHOLD_SQL[name])
    events = two_sided(random_bid_stream(240, volume_max=6, seed=31))
    chunks = chunked(random.Random(31), events)
    expected, _ = drive(NaiveEngine(query, {"bids": schemas.BIDS, "asks": schemas.ASKS}), chunks, "batch")
    codegen.set_codegen(compiled)
    engine = AggregateIndexEngine(classify(query))
    assert engine.trigger_mode == "compiled"
    got, _ = drive(engine, chunks, shape, restore_at=len(chunks) // 2)
    assert got == expected


@pytest.mark.parametrize("query", ["EQ", "VWAP", "MST"])
def test_guarded_compiled_on_frame_admits_by_block(query, monkeypatch):
    """A compiled ``on_frame`` with a quarantine attached admits a clean
    typed frame by block, like the derived one: no event is decoded."""
    events = _seeded_3k(query)[:640]
    frames = [ColumnarFrame.from_events(events[i : i + 64]) for i in range(0, len(events), 64)]
    assert not any(frame.fallback for frame in frames)
    guarded, bare = build_engine(query, "rpai"), build_engine(query, "rpai")
    assert guarded.trigger_mode == "compiled"
    attach_validation(guarded, query)
    decodes = []
    decode = ColumnarFrame.events
    monkeypatch.setattr(
        ColumnarFrame, "events", lambda frame: decodes.append(frame) or decode(frame)
    )
    for frame in frames:
        assert identical(guarded.on_frame(frame), bare.on_frame(frame))
    assert decodes == []
    assert guarded.quarantine.total_rejected == 0


# ---------------------------------------------------------------------------
# One prologue: compiled triggers and composites are ``apply*`` + ``result``
# ---------------------------------------------------------------------------

CALL_SHAPES = ("on_event", "on_batch", "on_frame")
COMPOSITES = ("durable", "serial", "pool", "supervised")


def _vwap_640() -> list[Event]:
    """640 book events (VWAP reads the bids), ten 64-event batches."""
    return two_sided(random_bid_stream(640, seed=3))[:640]


def composite(kind: str, directory):
    """A VWAP engine, bare (``plain``) or driven by one of the four
    composites: serial K=3, the pools K=2."""
    if kind == "plain":
        return build_engine("VWAP", "rpai")
    if kind == "durable":
        return DurableEngine(build_engine("VWAP", "rpai"), directory)
    shards = 3 if kind == "serial" else 2
    engine = build_sharded_engine(
        "VWAP", "rpai", shards=shards, workers=0 if kind == "serial" else shards,
        plan_stream=_vwap_640(), wal_dir=directory if kind == "supervised" else None,
    )
    assert engine.shards == shards
    return engine


def close(engine) -> None:
    getattr(engine, "close", lambda: None)()


def feed(engine, events: list[Event], shape: str) -> list:
    """One result per trigger call: per event, or per 64-event chunk."""
    if shape == "event":
        return [engine.on_event(event) for event in events]
    chunks = [events[i : i + 64] for i in range(0, len(events), 64)]
    if shape == "batch":
        return [engine.on_batch(chunk) for chunk in chunks]
    return [engine.on_frame(ColumnarFrame.from_events(chunk)) for chunk in chunks]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("kind", ("plain",) + COMPOSITES)
def test_engine_counters_count_the_outermost_call_once(kind, shape, tmp_path):
    """A composite reaches its engines through ``apply*``: one outer
    call is one ``engine.events``/``batches`` and one ``engine.results``,
    and the updates applied are the events fed — never once per layer."""
    events = _vwap_640()
    reference = feed(build_engine("VWAP", "rpai"), events, shape)
    engine = composite(kind, tmp_path)
    obs.reset()
    obs.enable()
    try:
        trace = feed(engine, events, shape)
        snap = obs.snapshot()
    finally:
        obs.disable()
        obs.reset()
        close(engine)
    assert identical(trace, reference)
    counters, derived = snap["counters"], obs.derived_metrics(snap)
    calls = len(trace)
    assert counters["engine.results"] == derived["results"] == calls
    if shape == "event":
        assert counters["engine.events"] == derived["events"] == calls
        assert "engine.batches" not in counters
    else:
        assert counters["engine.batches"] == derived["batches"] == calls
        assert snap["stats"]["engine.batch_size"]["total"] == len(events)
        assert "engine.events" not in counters
    if "rpai.rotations" in counters:  # the pools' workers keep theirs
        assert derived["rotations_per_update"] == counters["rpai.rotations"] / len(events)
    probes = counters.get("engine.result_probes")
    if kind == "serial":
        # one probe per replica per merge; no replica enumerates its own
        assert counters["shard.merges"] == calls and probes == 3 * calls
    elif kind in ("plain", "durable"):
        # the result probes VWAP's one side on the first call and after
        # every call that moved it: an ``asks`` row moves nothing it reads
        size = 1 if shape == "event" else 64
        pieces = [events[i : i + size] for i in range(0, len(events), size)]
        moved = [i == 0 or any(e.relation == "bids" for e in piece) for i, piece in enumerate(pieces)]
        assert probes == sum(moved)


def own_call_shapes(engine) -> list[str]:
    """``on_*`` methods defined anywhere but ``IncrementalEngine``: on
    the instance, or on a class of its MRO."""
    found = [name for name in CALL_SHAPES if name in vars(engine)]
    for cls in type(engine).__mro__:
        if cls is not IncrementalEngine:
            found += [f"{cls.__name__}.{name}" for name in CALL_SHAPES if name in vars(cls)]
    return found


@MODES
def test_no_engine_defines_a_call_shape(compiled):
    codegen.set_codegen(compiled)
    assert build_engine("VWAP", "rpai").trigger_mode == "compiled"
    for query, strategy in EVERY_ENGINE:
        engine = build_engine(query, strategy)
        for live in (engine, pickle.loads(pickle.dumps(engine))):
            assert own_call_shapes(live) == [], (query, strategy)


@pytest.mark.parametrize("kind", COMPOSITES)
def test_no_composite_defines_a_call_shape(kind, tmp_path):
    engine = composite(kind, tmp_path)
    try:
        assert own_call_shapes(engine) == []
    finally:
        close(engine)


class TestQuarantineBelongsToTheOutermostEngine:
    """Composites feed their engines through ``apply*``, past any guard:
    a sharded executor refuses a guarded engine, a durable wrapper takes
    its one engine's quarantine over, and the registry guards the
    outermost engine only."""

    def test_durable_engine_takes_over_the_wrapped_quarantine(self, tmp_path):
        clean = _vwap_640()
        dirty = with_junk(random.Random(7), clean)
        engine = build_engine("VWAP", "rpai")
        guard = attach_validation(engine, "VWAP")
        durable = DurableEngine(engine, tmp_path)
        try:
            assert durable.quarantine is guard and engine.quarantine is None
            result = feed(durable, dirty, "batch")[-1]
        finally:
            durable.close()
        assert guard.total_rejected == len(dirty) - len(clean)
        assert identical(result, build_engine("VWAP", "rpai").on_batch(clean))

    @pytest.mark.parametrize("guarded", ["template", "replica"])
    def test_sharded_executor_refuses_a_guarded_engine(self, guarded):
        template = build_engine("VWAP", "rpai")
        router = plan_router(template, 2, _vwap_640())
        replicas = [build_engine("VWAP", "rpai") for _ in range(router.shards)]
        attach_validation(template if guarded == "template" else replicas[-1], "VWAP")
        with pytest.raises(EngineStateError):
            ShardedExecutor(template, replicas, router)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_registry_guards_the_outermost_engine(self, shards, tmp_path):
        from repro.engine.supervision import recover_result

        clean = _vwap_640()
        dirty = with_junk(random.Random(5), clean)
        engine = build_sharded_engine(
            "VWAP", "rpai", shards=shards, plan_stream=clean, wal_dir=tmp_path, validate=True
        )
        try:
            assert isinstance(engine, DurableEngine) and engine.quarantine is not None
            assert engine.engine.quarantine is None
            assert all(replica.quarantine is None for replica in getattr(engine.engine, "replicas", ()))
            result = feed(engine, dirty, "batch")[-1]
        finally:
            engine.close()
        assert engine.quarantine.total_rejected == len(dirty) - len(clean)
        expected = build_engine("VWAP", "rpai").on_batch(clean)
        assert identical(result, expected)
        # Only admitted events were logged: replay needs no quarantine.
        assert identical(recover_result("VWAP", "rpai", tmp_path)[0], expected)
