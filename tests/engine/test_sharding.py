"""Differential tests for the sharded execution layer.

The central guarantee: for every registered query, the sharded
executors produce **the same result object at every sample point** as
the unsharded engine — serial executor per-event, multiprocess executor
per-batch — across shard counts K ∈ {1, 2, 3, 7}, on streams with
deletions.  Queries whose correlation crosses partitions must fall back
to the plain engine rather than shard unsoundly.

``REPRO_SHARD_MP`` (used by CI) overrides the worker count of the
multiprocess differential cases.
"""

from __future__ import annotations

import os
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.aggr_index import build_single_index_engine
from repro.engine.registry import build_engine, build_sharded_engine
from repro.engine.sharding import (
    MultiprocessShardedExecutor,
    ShardRouter,
    ShardedExecutor,
    plan_router,
    stable_hash,
)
from repro.errors import EngineStateError
from repro.query.parser import parse_query
from repro.storage.colbatch import ColumnarFrame
from repro.storage.schema import WORKLOAD_SCHEMAS
from repro.storage.stream import Event, Stream
from repro.workloads import (
    OrderBookConfig,
    TPCHConfig,
    generate_bids_only,
    generate_tpch,
)

from tests.conftest import random_bid_stream

SHARD_COUNTS = (1, 2, 3, 7)
MP_WORKERS = int(os.environ.get("REPRO_SHARD_MP", "2"))

SHARDABLE = ("EQ", "VWAP", "Q17", "Q18")
FALLBACK = ("MST", "PSP", "SQ1", "SQ2", "NQ1", "NQ2")

GROUPED_VWAP = """
    SELECT b.broker_id, SUM(b.price * b.volume) FROM bids b
    WHERE 0.75 * (SELECT SUM(b1.volume) FROM bids b1)
        < (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)
    GROUP BY b.broker_id
"""


def eq_stream(count: int, seed: int) -> Stream:
    rng = random.Random(seed)
    out: list[Event] = []
    live: list[dict] = []
    while len(out) < count:
        if live and rng.random() < 0.25:
            out.append(Event("R", live.pop(rng.randrange(len(live))), -1))
        else:
            row = {"A": rng.randint(1, 40), "B": rng.randint(1, 9)}
            live.append(row)
            out.append(Event("R", row, +1))
    return Stream(out)


def stream_for(query: str, seed: int = 17, count: int = 350) -> Stream:
    if query in ("Q17", "Q18"):
        return generate_tpch(TPCHConfig(scale_factor=0.006, seed=seed))
    if query == "EQ":
        return eq_stream(count, seed)
    return random_bid_stream(
        count, price_levels=30, volume_max=9, delete_probability=0.3, seed=seed
    )


class TestSerialDifferential:
    """serial-sharded == unsharded, per event, every query, every K."""

    @pytest.mark.parametrize("query", SHARDABLE + FALLBACK)
    def test_trace_identical_for_every_k(self, query):
        stream = stream_for(query)
        reference = build_engine(query, "rpai").results_trace(stream)
        for shards in SHARD_COUNTS:
            engine = build_sharded_engine(
                query, "rpai", shards=shards, plan_stream=stream
            )
            assert engine.results_trace(stream) == reference, (query, shards)

    @pytest.mark.parametrize("query", SHARDABLE)
    def test_batched_trace_identical(self, query):
        stream = stream_for(query, seed=23)
        reference = build_engine(query, "rpai").batched_results_trace(stream, 32)
        for shards in (2, 7):
            engine = build_sharded_engine(
                query, "rpai", shards=shards, plan_stream=stream
            )
            assert engine.batched_results_trace(stream, 32) == reference

    def test_grouped_range_engine_traces(self):
        stream = random_bid_stream(
            300, price_levels=25, volume_max=9, delete_probability=0.3, seed=5
        )
        reference = build_single_index_engine(
            parse_query(GROUPED_VWAP)
        ).results_trace(stream)
        for shards in (2, 3, 7):
            template = build_single_index_engine(parse_query(GROUPED_VWAP))
            router = plan_router(template, shards, stream)
            replicas = [
                build_single_index_engine(parse_query(GROUPED_VWAP))
                for _ in range(shards)
            ]
            engine = ShardedExecutor(template, replicas, router)
            assert engine.results_trace(stream) == reference, shards

    @pytest.mark.parametrize("query", FALLBACK)
    def test_unshardable_queries_fall_back_to_single_engine(self, query):
        engine = build_sharded_engine(query, "rpai", shards=4)
        assert not isinstance(
            engine, (ShardedExecutor, MultiprocessShardedExecutor)
        )
        assert engine.shard_mode is None

    def test_shards_one_returns_plain_engine(self):
        engine = build_sharded_engine("VWAP", "rpai", shards=1)
        assert not isinstance(engine, ShardedExecutor)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    shards=st.integers(min_value=1, max_value=7),
    query=st.sampled_from(("EQ", "VWAP")),
)
def test_property_serial_sharded_equals_unsharded(seed, shards, query):
    """Randomized streams (with deletions) x random K: exact equality."""
    stream = stream_for(query, seed=seed, count=120)
    reference = build_engine(query, "rpai").results_trace(stream)
    engine = build_sharded_engine(query, "rpai", shards=shards, plan_stream=stream)
    assert engine.results_trace(stream) == reference


class TestMultiprocessDifferential:
    """Pool executor == unsharded at every batch boundary."""

    @pytest.mark.parametrize("query", SHARDABLE)
    def test_batched_trace_identical(self, query):
        stream = stream_for(query, seed=31)
        reference = build_engine(query, "rpai").batched_results_trace(stream, 64)
        engine = build_sharded_engine(
            query,
            "rpai",
            shards=MP_WORKERS,
            workers=MP_WORKERS,
            plan_stream=stream,
        )
        try:
            assert engine.batched_results_trace(stream, 64) == reference
        finally:
            engine.close()

    def test_per_event_events_match(self):
        stream = stream_for("VWAP", count=60)
        reference = build_engine("VWAP", "rpai").results_trace(stream)
        engine = build_sharded_engine(
            "VWAP", "rpai", shards=2, workers=2, plan_stream=stream
        )
        try:
            assert engine.results_trace(stream) == reference
        finally:
            engine.close()

    def test_close_is_idempotent(self):
        engine = build_sharded_engine(
            "EQ", "rpai", shards=2, workers=2, plan_stream=stream_for("EQ")
        )
        engine.close()
        engine.close()

    def test_workers_must_equal_shards(self):
        with pytest.raises(ValueError):
            build_sharded_engine(
                "VWAP", "rpai", shards=4, workers=2, plan_stream=stream_for("VWAP")
            )


class TestRouter:
    def test_stable_hash_int_passthrough(self):
        assert stable_hash(42) == 42
        assert stable_hash(-7) == -7

    def test_stable_hash_deterministic_for_strings(self):
        assert stable_hash("abc") == stable_hash("abc")
        assert stable_hash(("x", 1)) == stable_hash(("x", 1))

    def test_range_router_needs_matching_boundaries(self):
        with pytest.raises(EngineStateError):
            ShardRouter(3, "range", lambda e: 0, boundaries=[1])

    def test_range_boundaries_must_ascend(self):
        with pytest.raises(EngineStateError):
            ShardRouter(3, "range", lambda e: 0, boundaries=[5, 1])

    def test_range_assignment_is_contiguous_and_ordered(self):
        router = ShardRouter(
            3, "range", lambda e: e.row["k"], boundaries=[10, 20]
        )
        at = lambda k: router.assign(Event("R", {"k": k}))  # noqa: E731
        assert at(float("-inf")) == 0
        assert at(5) == 0
        assert at(15) == 1
        assert at(25) == 2
        # boundary keys route right, and equal keys share a shard
        assert at(10) == at(10) == 1
        assert at(20) == 2

    def test_broadcast_goes_to_every_shard(self):
        router = ShardRouter(3, "hash", lambda e: None)
        parts = router.split([Event("R", {"k": 1})])
        assert all(len(p) == 1 for p in parts)

    def test_split_preserves_relative_order(self):
        router = ShardRouter(2, "hash", lambda e: e.row["k"])
        events = [Event("R", {"k": i % 4, "seq": i}) for i in range(20)]
        for part in router.split(events):
            sequence = [e.row["seq"] for e in part]
            assert sequence == sorted(sequence)

    def test_stream_split_rejects_out_of_range(self):
        with pytest.raises(EngineStateError):
            Stream([Event("R", {"k": 1})]).split(2, lambda e: 5)


class TestShardTransportBytes:
    """Columnar frames must ship >= 5x fewer bytes per event than the
    pickled per-shard event lists they replaced, over the very chunks a
    4-shard executor ships.  Byte counts are deterministic, so this is
    an exact regression check, not a timing."""

    @pytest.mark.parametrize("query", ("VWAP", "Q17", "Q18"))
    def test_frames_beat_pickled_event_lists_5x(self, query):
        if query == "VWAP":
            stream = generate_bids_only(
                OrderBookConfig(
                    events=6000,
                    price_levels=400,
                    volume_max=100,
                    seed=81,
                    delete_ratio=0.1,
                )
            )
        else:
            stream = generate_tpch(TPCHConfig(scale_factor=0.05, seed=82))
        template = build_engine(query, "rpai")
        router = plan_router(template, 4, stream)
        spec = template.shard_routing_spec()
        pickled_bytes = frame_bytes = 0
        # 500-event batches: smaller chunks split four ways would measure
        # the frame header, not the transport.
        for batch in stream.batches(500):
            frame = ColumnarFrame.from_events(batch, schemas=WORKLOAD_SCHEMAS)
            for part in router.split_frame(frame, spec):
                if len(part):
                    pickled_bytes += len(
                        pickle.dumps(part.events(), protocol=pickle.HIGHEST_PROTOCOL)
                    )
                    frame_bytes += len(part.to_bytes())
        assert pickled_bytes / frame_bytes >= 5.0, (pickled_bytes, frame_bytes)


class TestQ18Routing:
    def test_hash_on_orderkey_with_customers_broadcast(self):
        """Q18's routing, column form and per event: orders and
        lineitems by ``orderkey``, customers to every shard, anything
        else pinned to shard 0."""
        template = build_engine("Q18", "rpai")
        assert template.shard_mode == "hash"
        assert template.shard_routing_spec() == {
            "customer": ("broadcast",),
            "orders": ("column", "orderkey"),
            "lineitem": ("column", "orderkey"),
            "*": ("pin", 0),
        }
        customer = Event("customer", {"custkey": 3, "name": "c"})
        order = Event("orders", {"orderkey": 9, "custkey": 3, "orderdate": 0, "totalprice": 0})
        part = Event("part", {"partkey": 1, "brand": "b", "container": "c"})
        assert [template.shard_routing_key(e) for e in (customer, order, part)] == [None, 9, 0]


class TestShardObservability:
    def test_serial_executor_records_shard_counters(self):
        from repro import obs

        stream = stream_for("VWAP", count=200)
        obs.enable()
        obs.reset()
        try:
            engine = build_sharded_engine(
                "VWAP", "rpai", shards=3, plan_stream=stream
            )
            engine.process(stream, batch_size=50)
            snap = obs.snapshot()
        finally:
            obs.disable()
        assert snap["counters"].get("shard.merges", 0) > 0
        assert "shard.batch_size" in snap["stats"]
        assert "shard.skew" in snap["stats"]
        assert snap["stats"]["shard.skew"]["min"] >= 1.0
        assert "shard.merge_seconds" in snap["stats"]

    def test_freelist_counters_fire(self):
        from repro import obs

        stream = random_bid_stream(
            300, price_levels=20, volume_max=9, delete_probability=0.4, seed=9
        )
        obs.enable()
        obs.reset()
        try:
            build_engine("VWAP", "rpai").process(stream)
            snap = obs.snapshot()
        finally:
            obs.disable()
        counters = snap["counters"]
        assert counters.get("rpai.freelist.misses", 0) > 0
        assert counters.get("rpai.freelist.hits", 0) > 0
        # high-water mark of the pool is the depth distribution max
        assert snap["stats"]["rpai.freelist.depth"]["max"] >= 1
