"""Columnar event batches, shared-memory rings, and the vectorized
shard data plane.

Three layers, each checked differentially against the row path it
replaces:

* :class:`ColumnarFrame` — encode/decode round-trips must reproduce the
  original event list exactly (rows, key order, weights), including
  non-conforming rows that ride the pickle side-channel;
* :meth:`ShardRouter.split_frame` — the column-routing fast path must
  partition a frame into per-shard frames whose events equal the
  per-event :meth:`ShardRouter.split` lists, broadcasts included;
* engine ``on_frame`` fast paths — feeding the same stream as frames
  must leave the engine in the same state (results and checkpoint
  bytes) as the event-list path;
* :class:`ShmRing` — SPSC byte transport across fork, wraparound and
  timeout behavior.
"""

from __future__ import annotations

import multiprocessing
import pickle
import random

import pytest

from repro.engine.aggr_index import build_single_index_engine
from repro.engine.sharding import ShardRouter, plan_router
from repro.engine.shmring import RingClosedError, RingTimeoutError, ShmRing
from repro.query.parser import parse_query
from repro.storage.colbatch import ColumnarFrame, apply_events
from repro.storage.schema import BIDS, WORKLOAD_SCHEMAS, Schema
from repro.storage.stream import Event
from repro.workloads.queries import QUERIES

from tests.conftest import make_bid, random_bid_stream


def mixed_events() -> list[Event]:
    """Insert/delete events over three relations with int, float and
    string columns plus one row per shape quirk (extra column, nested
    value) that must take the pickle fallback."""
    rows = [
        Event("bids", make_bid(7, 3, ts=1, bid_id=1), +1),
        Event("trades", {"sym": "AAPL", "px": 101.25, "qty": 5}, +1),
        Event("bids", make_bid(9, 2, ts=2, bid_id=2), +1),
        Event("trades", {"sym": "MSFT", "px": 99.5, "qty": 1}, +1),
        Event("bids", make_bid(7, 3, ts=1, bid_id=1), -1),
        # different key set for the same relation -> fallback
        Event("trades", {"sym": "IBM", "px": 50.0, "qty": 2, "venue": "X"}, +1),
        # non-scalar value -> fallback
        Event("meta", {"tags": ["a", "b"]}, +1),
        Event("bids", make_bid(4, 1, ts=3, bid_id=3), +1),
    ]
    return rows


class TestColumnarFrameRoundTrip:
    def test_events_round_trip_exactly(self):
        events = mixed_events()
        frame = ColumnarFrame.from_events(events)
        out = frame.events()
        assert out == events
        # key order inside each row must survive too (dict equality
        # alone would not check it)
        for original, decoded in zip(events, out):
            assert list(original.row.keys()) == list(decoded.row.keys())

    def test_bytes_round_trip(self):
        events = mixed_events()
        frame = ColumnarFrame.from_events(events)
        data = frame.to_bytes()
        assert ColumnarFrame.from_bytes(data).events() == events
        # encode is memoized — same object back
        assert frame.to_bytes() is data

    def test_pickle_round_trip_uses_byte_form(self):
        events = mixed_events()
        frame = ColumnarFrame.from_events(events)
        clone = pickle.loads(pickle.dumps(frame))
        assert clone.events() == events

    def test_fallback_rows_are_isolated(self):
        events = mixed_events()
        frame = ColumnarFrame.from_events(events)
        assert len(frame.fallback) == 2
        assert sum(1 for b, _ in frame.order() if b < 0) == 2

    def test_empty_frame(self):
        frame = ColumnarFrame.from_events([])
        assert len(frame) == 0
        assert ColumnarFrame.from_bytes(frame.to_bytes()).events() == []

    def test_schema_layout_matches_row_layout(self):
        events = [Event("bids", make_bid(5, 2, ts=1, bid_id=1), +1)]
        plain = ColumnarFrame.from_events(events)
        hinted = ColumnarFrame.from_events(events, schemas=WORKLOAD_SCHEMAS)
        assert hinted.events() == plain.events() == events

    def test_column_kinds_partial_schema(self):
        assert BIDS.column_kinds() is None or all(
            kind in ("i", "f", "s") for kind in BIDS.column_kinds()
        )
        full = Schema(
            "t", ("a", "b"), types={"a": int, "b": str}
        )
        assert full.column_kinds() == ("i", "s")

    def test_large_frame_compresses(self):
        events = [
            Event("bids", make_bid(p % 50, 1, ts=p, bid_id=p), +1)
            for p in range(500)
        ]
        frame = ColumnarFrame.from_events(events)
        data = frame.to_bytes()
        assert len(data) < len(pickle.dumps([e for e in events]))
        assert ColumnarFrame.from_bytes(data).events() == events


class TestDecodeBoundary:
    """``from_bytes`` input comes off a socket."""

    def test_decode_keeps_its_input_as_the_encoding(self):
        blob = ColumnarFrame.from_events(mixed_events()).to_bytes()
        frame = ColumnarFrame.from_bytes(blob)
        assert frame.to_bytes() is blob
        assert pickle.loads(pickle.dumps(frame)).events() == frame.events()

    def test_events_are_decoded_once(self):
        frame = ColumnarFrame.from_bytes(ColumnarFrame.from_events(mixed_events()).to_bytes())
        assert frame.events() is frame.events()
        assert frame.events() == mixed_events()

    def test_inflation_is_bounded(self):
        import zlib

        from repro.errors import EngineStateError
        from repro.storage.colbatch import MAX_INFLATED_BYTES

        bomb = b"\x01" + zlib.compress(bytes(MAX_INFLATED_BYTES + 1), 1)
        assert len(bomb) < 1 << 19  # 64 MiB of zeros: under 300 KiB on the wire
        with pytest.raises(EngineStateError, match="inflates"):
            ColumnarFrame.from_bytes(bomb)

    @pytest.mark.parametrize(
        "column",
        [
            ("price", "i", "d", b"\x00" * 8),  # doubles declared as an int column
            ("price", "f", "q", b"\x00" * 8),
            ("brand", "s", ((1, "b"), "b"), b"\x00"),  # a non-str "string"
            ("price", "x", "q", b"\x00" * 8),
        ],
    )
    def test_a_column_cannot_lie_about_its_kind(self, column):
        from repro.errors import EngineStateError

        payload = (1, None, [("bids", b"\x01", [column])], None)
        with pytest.raises(EngineStateError, match="column"):
            ColumnarFrame.from_bytes(b"\x00" + pickle.dumps(payload))


class TestSplitFrameDifferential:
    """Column routing == per-event routing, for every rule shape."""

    def assert_split_equal(self, router, events, spec):
        frame = ColumnarFrame.from_events(events)
        by_rows = router.split(events)
        by_cols = router.split_frame(frame, spec)
        assert len(by_cols) == len(by_rows)
        for part_frame, part_rows in zip(by_cols, by_rows):
            assert part_frame.events() == part_rows

    def test_hash_column_rule(self):
        rng = random.Random(3)
        events = [
            Event("R", {"A": rng.randint(-20, 20), "B": rng.randint(1, 5)}, +1)
            for _ in range(200)
        ]
        router = ShardRouter(3, "hash", lambda e: e.row["A"])
        self.assert_split_equal(router, events, {"R": ("column", "A")})

    def test_hash_compound_and_pin_rules(self):
        rng = random.Random(4)
        events = [
            Event("R", {"A": rng.randint(1, 9), "B": rng.randint(1, 9)}, +1)
            for _ in range(120)
        ] + [Event("other", {"x": i}, +1) for i in range(10)]
        rng.shuffle(events)

        def key(event):
            if event.relation != "R":
                return 0
            return (event.row["A"], event.row["B"])

        router = ShardRouter(4, "hash", key)
        self.assert_split_equal(
            router,
            events,
            {"R": ("columns", ("A", "B")), "*": ("pin", 0)},
        )

    def test_range_scaled_column_and_broadcast(self):
        rng = random.Random(5)
        events = [
            Event("bids", make_bid(rng.randint(1, 30), 1, ts=i, bid_id=i), +1)
            for i in range(150)
        ] + [Event("config", {"k": i}, +1) for i in range(5)]
        rng.shuffle(events)

        def key(event):
            if event.relation != "bids":
                return None  # broadcast
            return -event.row["price"]

        router = ShardRouter(
            3, "range", key, boundaries=[-20, -10]
        )
        self.assert_split_equal(
            router,
            events,
            {"bids": ("scaled_column", "price", -1), "*": ("broadcast",)},
        )

    def test_fallback_rows_route_per_event(self):
        events = mixed_events()
        router = ShardRouter(2, "hash", lambda e: e.row.get("id", 0))
        spec = {"*": ("pin", 0), "bids": ("column", "id")}
        frame = ColumnarFrame.from_events(events)
        parts = router.split_frame(frame, spec)
        rebuilt = sorted(
            (event for part in parts for event in part.events()),
            key=lambda e: repr(e),
        )
        # trades/meta events pin to shard assign_key(0); bids route by id;
        # nothing is lost or duplicated
        assert rebuilt == sorted(events, key=lambda e: repr(e))


GROUPED_VWAP = """
    SELECT b.broker_id, SUM(b.price * b.volume) FROM bids b
    WHERE 0.75 * (SELECT SUM(b1.volume) FROM bids b1)
        < (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)
    GROUP BY b.broker_id
"""


class TestEngineFramePath:
    """on_frame(frame) == on_batch(events), state and results.

    The columnar netting fast path only exists as *generated* code, and
    every aggregate-index engine runs it: the ``compiled`` variants
    re-install it first (``codegen.specialize``), the ``interpreted``
    ones run it as built.  The row-path reference runs the emitted
    ``apply_batch``: frame netting against event netting.
    """

    def _sql(self, query: str) -> str:
        return GROUPED_VWAP if query == "GROUPED" else QUERIES[query].sql

    @pytest.mark.parametrize(
        "compiled", (False, True), ids=("interpreted", "compiled")
    )
    @pytest.mark.parametrize("query", ("EQ", "VWAP", "GROUPED"))
    def test_frame_trace_matches_batch_trace(self, query, compiled):
        stream = list(
            random_bid_stream(
                240, price_levels=25, volume_max=9, delete_probability=0.3, seed=11
            )
        )
        if query == "EQ":
            stream = [
                Event("R", {"A": e.row["price"], "B": e.row["volume"]}, e.weight)
                for e in stream
            ]
        by_rows = build_single_index_engine(parse_query(self._sql(query)))
        by_cols = build_single_index_engine(parse_query(self._sql(query)))
        if compiled:  # re-installed; ``interpreted``: as built, the same path
            from repro.query import codegen

            assert codegen.specialize(by_cols)
        for start in range(0, len(stream), 32):
            chunk = stream[start : start + 32]
            expected = by_rows.on_batch(chunk)
            got = by_cols.on_frame(ColumnarFrame.from_events(chunk))
            assert got == expected
        assert pickle.dumps(by_cols.__getstate__()) == pickle.dumps(
            by_rows.__getstate__()
        )

    def test_frame_with_fallback_rows_decodes(self):
        engine = build_single_index_engine(parse_query(QUERIES["VWAP"].sql))
        reference = build_single_index_engine(parse_query(QUERIES["VWAP"].sql))
        chunk = [
            Event("bids", make_bid(5, 2, ts=1, bid_id=1), +1),
            Event("bids", {"weird": object.__class__}, +1),
        ]
        # the odd row rides the fallback channel; both paths agree
        frame = ColumnarFrame.from_events(chunk)
        assert frame.fallback
        try:
            expected = reference.on_batch(chunk)
        except Exception as exc:
            with pytest.raises(type(exc)):
                engine.on_frame(frame)
        else:
            assert engine.on_frame(frame) == expected

    def test_apply_events_dispatches(self):
        """Frames go to ``apply_frame``, event lists to ``apply_batch``;
        neither enumerates the result (nothing reads it)."""
        engine = build_single_index_engine(parse_query(QUERIES["VWAP"].sql))
        chunk = [Event("bids", make_bid(5, 2, ts=1, bid_id=1), +1)]
        calls = []
        engine.apply_frame = lambda frame: calls.append(("frame", len(frame)))
        engine.apply_batch = lambda events: calls.append(("batch", len(events)))
        engine.result = lambda: calls.append("result")
        assert apply_events(engine, ColumnarFrame.from_events(chunk)) is None
        assert apply_events(engine, chunk) is None
        assert calls == [("frame", 1), ("batch", 1)]


def _producer(ring: ShmRing, payloads: list[bytes]) -> None:
    for payload in payloads:
        ring.write(payload)


class TestShmRing:
    def test_round_trip_and_wraparound(self):
        ring = ShmRing(64)
        try:
            for i in range(50):  # cursors wrap the 64-byte data region
                payload = bytes([i]) * (7 + i % 13)
                ring.write(payload)
                assert ring.read(len(payload)) == payload
        finally:
            ring.close()

    def test_oversized_write_rejected(self):
        ring = ShmRing(32)
        try:
            with pytest.raises(ValueError):
                ring.write(b"x" * 33)
        finally:
            ring.close()

    def test_read_timeout(self):
        ring = ShmRing(32)
        try:
            with pytest.raises(RingTimeoutError):
                ring.read(4, timeout=0.05)
            assert issubclass(RingTimeoutError, OSError)
        finally:
            ring.close()

    def test_use_after_close_raises_typed_error(self):
        """I/O on a closed ring must fail with RingClosedError — an
        OSError so supervision treats it like a broken pipe — instead
        of dereferencing the released memoryview (TypeError)."""
        ring = ShmRing(64)
        ring.write(b"pending")
        ring.close()
        with pytest.raises(RingClosedError):
            ring.write(b"late")
        with pytest.raises(RingClosedError):
            ring.read(7)
        assert issubclass(RingClosedError, OSError)
        ring.close()  # close stays idempotent

    def test_cross_process_transport(self):
        context = multiprocessing.get_context("fork")
        ring = ShmRing(128)
        payloads = [bytes([i % 251]) * (40 + i % 60) for i in range(30)]
        try:
            child = context.Process(target=_producer, args=(ring, payloads))
            child.start()
            for payload in payloads:
                assert ring.read(len(payload), timeout=10.0) == payload
            child.join(timeout=10.0)
            assert child.exitcode == 0
        finally:
            ring.close()
