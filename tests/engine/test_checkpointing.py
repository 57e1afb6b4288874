"""Engine state checkpointing: every engine must survive a
pickle/unpickle round trip mid-stream and continue producing results
identical to an uninterrupted run.

This is an operational requirement for any long-running incremental
system (restart without replaying the whole stream) and doubles as a
test that no engine hides state in module globals.
"""

import pickle
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.registry import build_engine
from repro.workloads import (
    OrderBookConfig,
    TPCHConfig,
    generate_order_book,
    generate_tpch,
)

from tests.conftest import random_bid_stream


def _stream(name: str):
    if name in ("Q17", "Q18"):
        return generate_tpch(TPCHConfig(scale_factor=0.01, seed=44))
    if name in ("MST", "PSP"):
        return generate_order_book(
            OrderBookConfig(events=200, price_levels=30, volume_max=10, seed=45, delete_ratio=0.2)
        )
    if name == "EQ":
        import random

        from repro.storage.stream import Event, Stream

        rng = random.Random(46)
        events, live = [], []
        while len(events) < 200:
            if live and rng.random() < 0.2:
                events.append(Event("R", live.pop(rng.randrange(len(live))), -1))
            else:
                row = {"A": rng.randint(1, 6), "B": rng.randint(1, 4)}
                live.append(row)
                events.append(Event("R", row, +1))
        return Stream(events)
    return random_bid_stream(200, seed=47, delete_probability=0.2)


ALL_QUERIES = ["EQ", "VWAP", "MST", "PSP", "SQ1", "SQ2", "NQ1", "NQ2", "Q17", "Q18"]


@pytest.mark.parametrize("name", ALL_QUERIES)
def test_rpai_engine_pickle_roundtrip_mid_stream(name):
    stream = list(_stream(name))
    half = len(stream) // 2

    uninterrupted = build_engine(name, "rpai")
    for event in stream:
        expected = uninterrupted.on_event(event)

    engine = build_engine(name, "rpai")
    for event in stream[:half]:
        engine.on_event(event)
    restored = pickle.loads(pickle.dumps(engine))
    for event in stream[half:]:
        actual = restored.on_event(event)
    assert actual == expected


@pytest.mark.parametrize("name", ["VWAP", "Q18"])
def test_dbtoaster_engine_pickle_roundtrip(name):
    stream = list(_stream(name))
    engine = build_engine(name, "dbtoaster")
    for event in stream[:50]:
        engine.on_event(event)
    restored = pickle.loads(pickle.dumps(engine))
    reference = build_engine(name, "dbtoaster")
    for event in stream[:50]:
        reference.on_event(event)
    for event in stream[50:]:
        assert restored.on_event(event) == reference.on_event(event)


SHARDABLE = ("EQ", "VWAP", "Q17", "Q18")


@pytest.mark.parametrize("shards", (1, 2, 3))
@pytest.mark.parametrize("name", SHARDABLE)
def test_serial_sharded_executor_pickle_roundtrip(name, shards, tmp_path):
    """Snapshot a serial sharded executor mid-stream, restore it into a
    fresh process-equivalent object, finish the stream: bit-identical
    to an uninterrupted sharded run (and the unsharded engine)."""
    from repro.engine.registry import build_sharded_engine

    stream = list(_stream(name))
    half = len(stream) // 2

    uninterrupted = build_engine(name, "rpai")
    for event in stream:
        expected = uninterrupted.on_event(event)

    executor = build_sharded_engine(
        name, "rpai", shards=shards, plan_stream=stream
    )
    for event in stream[:half]:
        executor.on_event(event)
    restored = pickle.loads(pickle.dumps(executor))
    for event in stream[half:]:
        actual = restored.on_event(event)
    assert actual == expected


@pytest.mark.parametrize("shards", (2, 3))
@pytest.mark.parametrize("name", ("EQ", "VWAP"))
def test_supervised_executor_wal_restart_mid_stream(name, shards, tmp_path):
    """The multiprocess path can't pickle live workers; its checkpoint
    story is the WAL directory: stop mid-stream, rebuild over the same
    directory (snapshot + tail replay into fresh workers), finish."""
    from repro.engine.registry import build_sharded_engine

    stream = list(_stream(name))
    half = len(stream) // 2

    uninterrupted = build_engine(name, "rpai")
    for event in stream:
        expected = uninterrupted.on_event(event)

    wal_dir = tmp_path / "wal"
    first = build_sharded_engine(
        name, "rpai", shards=shards, workers=shards,
        plan_stream=stream, wal_dir=wal_dir, snapshot_every=3,
    )
    head = stream[:half]
    try:
        for batch in [head[i : i + 25] for i in range(0, len(head), 25)]:
            first.on_batch(batch)
    finally:
        first.close()

    second = build_sharded_engine(
        name, "rpai", shards=shards, workers=shards,
        plan_stream=stream, wal_dir=wal_dir, snapshot_every=3,
    )
    try:
        actual = second.result()
        for batch in [stream[i : i + 25] for i in range(half, len(stream), 25)]:
            actual = second.on_batch(batch)
    finally:
        second.close()
    assert actual == expected


def test_rpai_tree_pickles():
    from repro.core import RPAITree

    tree = RPAITree(prune_zeros=True)
    for key in range(100):
        tree.put(key * 3, key)
    clone = pickle.loads(pickle.dumps(tree))
    clone.check_invariants()
    assert list(clone.items()) == list(tree.items())
    clone.shift_keys(150, 7)
    tree.shift_keys(150, 7)
    assert list(clone.items()) == list(tree.items())


# -- when a durable log checkpoints --------------------------------------
#
# The default rule (``snapshot_every=None``) is size-proportional — see
# ``WriteAheadLog.checkpoint_due`` — and an explicit count keeps the
# record cadence, name for name.


def _snapshot_names(directory) -> list[int]:
    return sorted(int(path.name[9:-5]) for path in directory.glob("snapshot-*.ckpt"))


@settings(max_examples=8, deadline=None)
@given(
    name=st.sampled_from(["VWAP", "Q18"]),
    batch_size=st.sampled_from([1, 7, 64, 500]),
    seed=st.integers(0, 10_000),
    floor=st.sampled_from([1 << 10, 64 << 10]),
)
def test_default_rule_bounds_checkpoint_bytes_by_log_bytes(name, batch_size, seed, floor):
    """State that stays put (VWAP over 4k price levels, once they fill)
    and state that grows (Q18's groups): whatever the batch size, the
    checkpoint bytes written never exceed the log bytes written plus
    one checkpoint, and no checkpoint comes before the floor — read off
    the ``wal.*`` byte counters, as ``repro stats`` shows them."""
    from repro import obs
    from repro.engine.supervision import DurableEngine

    if name == "VWAP":
        stream = random_bid_stream(
            8000, price_levels=4000, volume_max=50, delete_probability=0.45, seed=seed
        )
    else:
        stream = generate_tpch(TPCHConfig(scale_factor=0.12, seed=seed))
    was_enabled = obs.SINK.enabled
    obs.enable()
    obs.reset()
    try:
        with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as root:
            patch.setattr("repro.storage.wal.CHECKPOINT_FLOOR", floor)
            durable = DurableEngine(build_engine(name, "rpai"), root)
            wal = durable.wal
            checkpoints, logged_at_last = 0, 0
            for batch in stream.batches(batch_size):
                durable.on_batch(batch)
                counters = obs.snapshot()["counters"]
                logged = counters["wal.appended_bytes"]
                if counters.get("wal.snapshots", 0) > checkpoints:
                    checkpoints = counters["wal.snapshots"]
                    assert logged - logged_at_last >= floor
                    logged_at_last = logged
                    assert wal.tail_bytes == 0
                assert counters.get("wal.checkpoint_bytes", 0) <= logged + wal.checkpoint_bytes
                assert wal.tail_bytes == logged - logged_at_last
            assert checkpoints >= (2 if floor < 64 << 10 else 1)
            wal.close()
    finally:
        obs.reset()
        if not was_enabled:
            obs.disable()


def test_explicit_cadence_keeps_its_snapshot_names_on_a_durable_engine(tmp_path):
    """``snapshot_every=k`` is the record cadence it always was: these
    names are what the commit before the size rule leaves behind."""
    from repro.engine.supervision import DurableEngine

    batches = list(random_bid_stream(14 * 20, seed=47, delete_probability=0.2).batches(20))
    factory = lambda: build_engine("VWAP", "rpai")  # noqa: E731
    durable = DurableEngine(factory(), tmp_path, snapshot_every=3)
    for batch in batches[:10]:
        durable.on_batch(batch)
    assert _snapshot_names(tmp_path) == [6, 9]
    durable.close()
    assert _snapshot_names(tmp_path) == [9, 10]
    with DurableEngine.recover(factory, tmp_path, snapshot_every=3) as durable:
        assert durable.recovered_records == 0
        for batch in batches[10:]:
            durable.on_batch(batch)
        assert _snapshot_names(tmp_path) == [10, 13]
    assert _snapshot_names(tmp_path) == [13, 14]


@pytest.mark.parametrize("degrade", [False, True], ids=["live", "degraded"])
def test_explicit_cadence_keeps_its_snapshot_names_on_supervised_shards(tmp_path, degrade):
    from repro.engine.registry import build_sharded_engine
    from repro.faults import FaultPlan, KillSpec

    stream = _stream("EQ")
    plan = FaultPlan(kills=(KillSpec(shard=0, after_events=40),)) if degrade else None
    engine = build_sharded_engine(
        "EQ", "rpai", shards=2, workers=2, plan_stream=stream, wal_dir=tmp_path,
        snapshot_every=4, max_respawns=0 if degrade else 3, fault_plan=plan, validate=False,
    )
    try:
        for batch in stream.batches(20):
            engine.on_batch(batch)
        assert engine.degraded == degrade
        running = [_snapshot_names(tmp_path / f"shard-{i}") for i in range(2)]
    finally:
        engine.close()
    closed = [_snapshot_names(tmp_path / f"shard-{i}") for i in range(2)]
    # Degrading skips the checkpoint of the batch it happens in, so the
    # cadence restarts one record later: 5, 9 instead of 4, 8.
    if degrade:
        assert (running, closed) == ([[5, 9], [5, 9]], [[9, 10], [9, 10]])
    else:
        assert (running, closed) == ([[4, 8], [4, 8]], [[8, 10], [8, 10]])
