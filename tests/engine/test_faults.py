"""Fault-tolerance: chaos differential suite, supervision, quarantine.

The central guarantee mirrors the sharding differential tests, under
adversity: for every registered query and K ∈ {2, 3}, a run through the
fault-tolerant executor with a seeded fault plan — worker kills,
dropped and duplicated pipe messages, corrupted snapshot files,
schema-violating junk events — produces **exactly** the result of a
clean unsharded run.  Recovery must go through the write-ahead log
(snapshot + tail replay), junk must land in the quarantine rather than
any engine, and every fault and recovery must leave an obs-counter
trail.

Worker processes make these tests heavier than the in-process suites;
streams are kept small (a few hundred events) and the fork start
method keeps spawn cost low.
"""

from __future__ import annotations

import pickle
import random
import shutil
import sys
import types
from pathlib import Path

import pytest

from repro import obs
from repro.engine.aggr_index import AggregateIndexEngine
from repro.engine.base import Quarantine
from repro.engine.queries.common import ShiftedSide
from repro.engine.registry import attach_validation, build_engine, build_sharded_engine
from repro.engine.supervision import DurableEngine, recover_result
from repro.errors import EngineStateError, QuarantineOverflowError, ShardWorkerError
from repro.faults import (
    BadEventSpec,
    CorruptSnapshotSpec,
    DuplicateSpec,
    FaultInjector,
    FaultPlan,
    KillSpec,
)
from repro.query.planner import classify
from repro.storage.stream import Event, Stream
from repro.storage.wal import WriteAheadLog
from repro.workloads import (
    OrderBookConfig,
    TPCHConfig,
    generate_order_book,
    generate_tpch,
    get_query,
)

from tests.conftest import random_bid_stream

ALL_QUERIES = ("EQ", "VWAP", "MST", "PSP", "SQ1", "SQ2", "NQ1", "NQ2", "Q17", "Q18")
SHARDABLE = ("EQ", "VWAP", "Q17", "Q18")


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


def clean_result(query: str, stream: Stream, batch_size: int = 32):
    engine = build_engine(query, "rpai")
    result = engine.result()
    for batch in stream.batches(batch_size):
        result = engine.on_batch(batch)
    return result


def run_chaos(query: str, shards: int, seed: int, tmp_path, **kwargs):
    """One chaos run; returns (final_result, obs counters, engine)."""
    stream = stream_for(query)
    relations = tuple(get_query(query).schema_map())
    plan = FaultPlan.seeded(
        seed, shards=shards, events=len(stream), relations=relations
    )
    obs.enable()
    obs.reset()
    try:
        engine = build_sharded_engine(
            query,
            "rpai",
            shards=shards,
            workers=shards,
            plan_stream=stream,
            wal_dir=tmp_path / f"chaos-{query}-{shards}-{seed}",
            snapshot_every=3,
            fault_plan=plan,
            **kwargs,
        )
        supervised = hasattr(engine, "degraded")
        injector = None if supervised else FaultInjector(plan)
        try:
            result = engine.result()
            for batch in stream.batches(32):
                if injector is not None:
                    # unshardable fallback: no transport to fault, but the
                    # quarantine boundary still faces the junk events
                    batch = injector.splice_bad_events(batch)
                result = engine.on_batch(batch)
        finally:
            closer = getattr(engine, "close", None)
            if closer is not None:
                closer()
        counters = obs.snapshot()["counters"]
    finally:
        obs.disable()
    return result, counters, engine


class TestChaosDifferential:
    """faulty run result == clean run result, every query, K ∈ {2, 3}."""

    @pytest.mark.parametrize("shards", (2, 3))
    @pytest.mark.parametrize("query", ALL_QUERIES)
    def test_exact_result_under_faults(self, query, shards, tmp_path):
        expected = clean_result(query, stream_for(query))
        result, counters, _ = run_chaos(query, shards, seed=101, tmp_path=tmp_path)
        assert result == expected
        # the junk events were injected and diverted, not applied
        assert counters.get("faults.bad_events", 0) >= 1
        assert counters.get("engine.quarantined", 0) == counters["faults.bad_events"]

    @pytest.mark.parametrize("seed", (7, 101, 202))
    def test_recovery_trail_visible(self, seed, tmp_path):
        """Shardable query: kills/drops actually strike and the obs trail
        shows the supervisor recovering through the WAL."""
        expected = clean_result("EQ", stream_for("EQ"))
        result, counters, engine = run_chaos("EQ", 2, seed=seed, tmp_path=tmp_path)
        assert result == expected
        assert not engine.degraded
        assert counters["supervisor.worker_failures"] >= 1
        assert counters["supervisor.respawns"] == counters["supervisor.worker_failures"]
        assert counters["wal.recoveries"] >= counters["supervisor.respawns"]
        assert counters["faults.drops"] == 1
        assert counters["faults.duplicates"] == 1
        assert counters["faults.snapshot_corruptions"] == 1

    def test_corrupt_snapshot_falls_back(self, tmp_path):
        """A corrupted snapshot is skipped during recovery (counter) and
        the result still matches exactly."""
        expected = clean_result("EQ", stream_for("EQ"))
        plan = FaultPlan(
            kills=(KillSpec(shard=0, after_events=120),),
            corrupt_snapshots=tuple(
                # corrupt every snapshot shard 0 writes: recovery must do
                # a full log replay from an empty engine
                CorruptSnapshotSpec(shard=0, index=i)
                for i in range(16)
            ),
        )
        stream = stream_for("EQ")
        obs.enable()
        obs.reset()
        try:
            engine = build_sharded_engine(
                "EQ", "rpai", shards=2, workers=2, plan_stream=stream,
                wal_dir=tmp_path / "wal", snapshot_every=2, fault_plan=plan,
            )
            try:
                for batch in stream.batches(32):
                    result = engine.on_batch(batch)
            finally:
                engine.close()
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
        assert result == expected
        assert counters["wal.snapshot_corrupt"] >= 1
        assert counters["supervisor.respawns"] >= 1


class TestSupervision:
    def test_duplicate_messages_are_deduplicated(self, tmp_path):
        expected = clean_result("EQ", stream_for("EQ"))
        plan = FaultPlan(duplicates=tuple(
            DuplicateSpec(shard=s, seq=q) for s in (0, 1) for q in (1, 2, 3)
        ))
        stream = stream_for("EQ")
        engine = build_sharded_engine(
            "EQ", "rpai", shards=2, workers=2, plan_stream=stream,
            wal_dir=tmp_path / "wal", fault_plan=plan, validate=False,
        )
        try:
            for batch in stream.batches(32):
                result = engine.on_batch(batch)
        finally:
            engine.close()
        assert result == expected

    def test_degrades_to_serial_after_budget(self, tmp_path):
        """Respawn budget 0 + an early kill: the executor must fall back
        to the serial path, recovered from the WAL, and stay exact."""
        expected = clean_result("EQ", stream_for("EQ"))
        plan = FaultPlan(kills=(KillSpec(shard=0, after_events=40),))
        stream = stream_for("EQ")
        obs.enable()
        obs.reset()
        try:
            engine = build_sharded_engine(
                "EQ", "rpai", shards=2, workers=2, plan_stream=stream,
                wal_dir=tmp_path / "wal", snapshot_every=4,
                max_respawns=0, fault_plan=plan, validate=False,
            )
            try:
                for batch in stream.batches(32):
                    result = engine.on_batch(batch)
                assert engine.degraded
            finally:
                engine.close()
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
        assert result == expected
        assert counters["supervisor.degraded"] == 1
        # degraded runs keep logging: offline recovery still works
        recovered, stats = recover_result("EQ", "rpai", tmp_path / "wal")
        assert recovered == expected
        assert stats["shards"] == 2

    def test_seeded_plan_exhausts_budget_and_degrades(self, tmp_path):
        """End-to-end degradation ladder under a *seeded* plan: with
        more kill incarnations than the respawn budget, every respawned
        worker dies again, the budget runs out, and the executor falls
        back mp→serial — bit-identical result, full supervisor.* trail,
        and the WAL still supports offline recovery afterwards."""
        expected = clean_result("EQ", stream_for("EQ"))
        stream = stream_for("EQ")
        plan = FaultPlan.seeded(
            31337,
            shards=2,
            events=len(stream),
            kills=1,
            drops=0,
            duplicates=0,
            corrupt_snapshots=0,
            bad_events=0,
            incarnations=6,
        )
        # the seed expands one kill into one spec per incarnation
        assert len(plan.kills) == 6
        assert {k.incarnation for k in plan.kills} == set(range(6))
        assert len({k.shard for k in plan.kills}) == 1
        obs.enable()
        obs.reset()
        try:
            engine = build_sharded_engine(
                "EQ", "rpai", shards=2, workers=2, plan_stream=stream,
                wal_dir=tmp_path / "wal", snapshot_every=4,
                max_respawns=2, fault_plan=plan, validate=False,
            )
            try:
                for batch in stream.batches(32):
                    result = engine.on_batch(batch)
                assert engine.degraded
            finally:
                engine.close()
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
        assert result == expected
        assert counters["supervisor.degraded"] == 1
        # budget 2: initial death + 2 respawned deaths = 3 failures,
        # exactly 2 successful respawns before the ladder gives up
        assert counters["supervisor.worker_failures"] >= 3
        assert counters["supervisor.respawns"] == 2
        assert counters["wal.recoveries"] >= counters["supervisor.respawns"]
        # degraded runs keep logging: offline recovery matches too
        recovered, stats = recover_result("EQ", "rpai", tmp_path / "wal")
        assert recovered == expected
        assert stats["shards"] == 2

    def test_repeated_kills_consume_budget_then_degrade(self, tmp_path):
        """A worker that dies in every incarnation exhausts the respawn
        budget; the run must still finish exactly via the serial path."""
        expected = clean_result("EQ", stream_for("EQ"))
        plan = FaultPlan(kills=tuple(
            KillSpec(shard=0, after_events=30, incarnation=i) for i in range(8)
        ))
        stream = stream_for("EQ")
        engine = build_sharded_engine(
            "EQ", "rpai", shards=2, workers=2, plan_stream=stream,
            wal_dir=tmp_path / "wal", snapshot_every=4,
            max_respawns=2, fault_plan=plan, validate=False,
        )
        try:
            for batch in stream.batches(32):
                result = engine.on_batch(batch)
            assert engine.degraded
        finally:
            engine.close()
        assert result == expected

    def test_restart_resumes_from_wal_dir(self, tmp_path):
        """Close mid-stream, rebuild over the same directory, finish:
        bit-identical to an uninterrupted run (whole-process crash)."""
        stream = stream_for("VWAP")
        expected = clean_result("VWAP", stream)
        batches = list(stream.batches(32))
        wal_dir = tmp_path / "wal"
        first = build_sharded_engine(
            "VWAP", "rpai", shards=2, workers=2, plan_stream=stream,
            wal_dir=wal_dir, snapshot_every=3,
        )
        try:
            for batch in batches[: len(batches) // 2]:
                first.on_batch(batch)
        finally:
            first.close()
        second = build_sharded_engine(
            "VWAP", "rpai", shards=2, workers=2, plan_stream=stream,
            wal_dir=wal_dir, snapshot_every=3,
        )
        try:
            result = second.result()  # state restored before any new event
            for batch in batches[len(batches) // 2 :]:
                result = second.on_batch(batch)
        finally:
            second.close()
        assert result == expected

    def test_worker_error_is_typed(self):
        """A deterministic engine failure inside a worker surfaces as a
        ShardWorkerError carrying shard, type and traceback — not a bare
        EOFError or a hang."""
        engine = build_sharded_engine("EQ", "rpai", shards=2, workers=2)
        try:
            with pytest.raises(ShardWorkerError) as info:
                # routes fine (has the routing column A) but breaks the
                # trigger inside the worker (missing column B)
                engine.on_batch([Event("R", {"A": 1}, +1)])
        finally:
            engine.close()
        assert info.value.shard in (0, 1)
        assert info.value.exc_type  # e.g. KeyError
        assert "Traceback" in (info.value.worker_traceback or "")

    def test_close_is_idempotent(self, tmp_path):
        engine = build_sharded_engine(
            "EQ", "rpai", shards=2, workers=2,
            wal_dir=tmp_path / "wal",
        )
        engine.on_batch(list(stream_for("EQ"))[:20])
        engine.close()
        engine.close()  # second close must be a no-op
        for process in engine._processes:
            assert not process.is_alive()


class TestDurableEngine:
    def test_recover_resumes_exactly(self, tmp_path):
        stream = stream_for("SQ1")
        expected = clean_result("SQ1", stream)
        batches = list(stream.batches(32))
        with DurableEngine(
            build_engine("SQ1", "rpai"), tmp_path, snapshot_every=3
        ) as durable:
            for batch in batches[:5]:
                durable.on_batch(batch)
        recovered = DurableEngine.recover(
            lambda: build_engine("SQ1", "rpai"), tmp_path, snapshot_every=3
        )
        with recovered:
            result = recovered.result()
            for batch in batches[5:]:
                result = recovered.on_batch(batch)
        assert result == expected

    def test_recover_survives_missing_snapshot(self, tmp_path):
        """Delete every snapshot: recovery degrades to a full replay."""
        stream = stream_for("SQ1")
        batches = list(stream.batches(32))
        with DurableEngine(
            build_engine("SQ1", "rpai"), tmp_path, snapshot_every=2
        ) as durable:
            for batch in batches[:4]:
                expected = durable.on_batch(batch)
        for snapshot in tmp_path.glob("snapshot-*.ckpt"):
            snapshot.unlink()
        recovered = DurableEngine.recover(
            lambda: build_engine("SQ1", "rpai"), tmp_path
        )
        with recovered:
            assert recovered.recovered_records == 4
            assert recovered.result() == expected


    def test_only_two_snapshots_are_kept_and_either_recovers(self, tmp_path):
        """Ten checkpoints leave two files; with the newest corrupted
        the older one plus a longer tail gives the same engine."""
        stream = stream_for("VWAP")
        batches = list(stream.batches(16))[:10]
        durable = DurableEngine(build_engine("VWAP", "rpai"), tmp_path, snapshot_every=1)
        for batch in batches:
            expected = durable.on_batch(batch)
        durable.wal.close()  # crash
        snapshots = sorted(tmp_path.glob("snapshot-*.ckpt"))
        assert [path.name for path in snapshots] == [
            "snapshot-000000000009.ckpt", "snapshot-000000000010.ckpt"
        ]
        data = bytearray(snapshots[-1].read_bytes())
        data[len(data) // 2] ^= 0xFF
        snapshots[-1].write_bytes(bytes(data))
        recovered = DurableEngine.recover(lambda: build_engine("VWAP", "rpai"), tmp_path)
        with recovered:
            assert recovered.recovered_records == 1
            assert recovered.result() == expected

    @pytest.mark.parametrize("snapshot_every", [8, None], ids=["every-8-records", "size-rule"])
    def test_crash_loop_still_checkpoints(self, tmp_path, monkeypatch, snapshot_every):
        """A process that dies more often than it checkpoints must not
        replay its whole history at every start: what is due is counted
        from the newest checkpoint on disk, not from the head the log
        happened to have when it was opened."""
        floor = 4096
        if snapshot_every is None:
            monkeypatch.setattr("repro.storage.wal.CHECKPOINT_FLOOR", floor)
        batches = list(stream_for("VWAP").batches(8))[:40]
        factory = lambda: build_engine("VWAP", "rpai")  # noqa: E731
        longest_record = 0
        for start in range(0, 40, 5):
            durable = DurableEngine.recover(factory, tmp_path, snapshot_every=snapshot_every)
            if snapshot_every is None:
                tail = durable.wal.tail_bytes
                assert tail < max(durable.wal.checkpoint_bytes, floor) + longest_record
            else:
                assert durable.recovered_records < snapshot_every
            for batch in batches[start:start + 5]:
                before = (tmp_path / "wal.log").stat().st_size
                expected = durable.on_batch(batch)
                longest_record = max(longest_record, (tmp_path / "wal.log").stat().st_size - before)
            durable.wal.close()  # crash: no final checkpoint
        assert list(tmp_path.glob("snapshot-*.ckpt"))
        with DurableEngine.recover(factory, tmp_path, snapshot_every=snapshot_every) as durable:
            assert durable.result() == expected


def plant_unloadable_snapshot(directory) -> None:
    """Write, at the log head of the WAL under ``directory``, a
    CRC-valid snapshot that pickles a class whose module no longer
    exists — what a snapshot taken before a class was deleted looks
    like to the code that deleted it."""
    module = types.ModuleType("repro_removed_since_snapshot")
    exec("class Gone:\n    pass", module.__dict__)
    sys.modules[module.__name__] = module
    try:
        payload = pickle.dumps(module.Gone())
    finally:
        del sys.modules[module.__name__]
    with pytest.raises(ModuleNotFoundError):
        pickle.loads(payload)
    with WriteAheadLog(directory) as wal:
        wal.snapshot(payload)


def stale_shifted_sides(engine):
    """Re-lay an aggregate-index engine's sides the way ``ShiftedSide``
    was before the index moved under ``group_indexes``: one ``index``
    attribute and a running ``total_weight``."""
    for position, side in enumerate(engine.sides):
        state = dict(side.__dict__)
        state["index"] = state.pop("group_indexes")[None]
        state["total_weight"] = side.bound_map.total_sum()
        stale = object.__new__(ShiftedSide)
        stale.__dict__.update(state)
        engine.sides[position] = stale
    return engine


class _StalePerClassState:
    """Pickles as an ``AggregateIndexEngine`` whose state is the dict
    the per-shape classes it replaced (``PointIndexEngine`` /
    ``RangeIndexEngine``) wrote: structures at the top level, no
    ``sides``."""

    def __init__(self, engine) -> None:
        (side,) = engine.sides
        self.state = {
            "plan": classify(engine.query),
            "index_cls": engine._index_cls,
            "name": engine.name,
            "fixed_scalars": {sub: sc.aggregate for sub, sc in engine._scalars.items()},
            "bound_map": side.bound_map,
            "aggr_index": side.index,
        }
        if hasattr(side, "res_map"):
            self.state["res_map"] = side.res_map

    def __reduce__(self):
        return (object.__new__, (AggregateIndexEngine,), self.state)


def plant_stale_layout_snapshot(directory, engine, make_stale) -> None:
    """Write, at the log head of the WAL under ``directory``, a snapshot
    of ``engine`` in a previous state layout.  Every class in it still
    exists, so it unpickles cleanly unless ``__setstate__`` refuses the
    shape."""
    payload = pickle.dumps(make_stale(engine))
    with pytest.raises(EngineStateError):
        pickle.loads(payload)
    with WriteAheadLog(directory) as wal:
        wal.snapshot(payload)


class TestUnloadableSnapshot:
    """A snapshot that passes its CRC but no longer unpickles is skipped
    like a corrupt one: rebuild from the factory, replay the whole log."""

    @pytest.mark.parametrize(
        "query, make_stale",
        [
            ("EQ", _StalePerClassState),
            ("VWAP", _StalePerClassState),
            ("MST", stale_shifted_sides),
        ],
    )
    def test_stale_state_layout_falls_back_to_the_log(self, tmp_path, query, make_stale):
        """A snapshot whose classes all still exist but whose state has
        a previous layout must not be half-restored (the re-specialized
        trigger would bind attributes that are no longer there): the
        engine or side refuses it with a typed error and recovery
        replays."""
        if query == "EQ":
            # churn that cancels out, then Figure 1c's two matching groups
            rows = [{"A": i % 9 + 1, "B": i % 4 + 1} for i in range(170)]
            stream = Stream(
                [Event("R", row, +1) for row in rows]
                + [Event("R", row, -1) for row in rows]
                + [Event("R", {"A": 1, "B": 2}, +1), Event("R", {"A": 2, "B": 2}, +1)]
            )
        else:
            stream = Stream(list(generate_order_book(OrderBookConfig(
                events=350, price_levels=30, volume_max=9, seed=17, delete_ratio=0.3,
            ))))
        expected = clean_result(query, stream)
        assert expected != 0
        with DurableEngine(
            build_engine(query, "rpai"), tmp_path, snapshot_every=3
        ) as durable:
            for batch in stream.batches(32):
                durable.on_batch(batch)
            live = durable.engine
        plant_stale_layout_snapshot(tmp_path, live, make_stale)
        obs.enable()
        obs.reset()
        try:
            recovered, stats = recover_result(query, "rpai", tmp_path)
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
        assert recovered == expected
        assert counters["wal.snapshot_unloadable"] == 1
        shard = stats["per_shard"][0]
        assert shard["snapshot_seq"] is None
        assert shard["records_replayed"] == shard["head_seq"]

    def test_snapshot_written_before_the_flat_tree_state(self, tmp_path):
        """``data/vwap-pr15/`` holds a real checkpoint of this
        very run taken by the code before trees pickled as flat stamped
        state: every class in it still exists, the node graph unpickles,
        and the first tree's ``__setstate__`` refuses the unstamped
        layout — so recovery replays instead of adopting nodes whose
        fields the current kernels may read differently."""
        stream = Stream(list(generate_order_book(OrderBookConfig(
            events=350, price_levels=30, volume_max=9, seed=17, delete_ratio=0.3,
        ))))
        expected = clean_result("VWAP", stream)
        with DurableEngine(
            build_engine("VWAP", "rpai"), tmp_path, snapshot_every=1000
        ) as durable:
            for batch in stream.batches(32):
                durable.on_batch(batch)
        with WriteAheadLog(tmp_path) as wal:
            covered, payload = wal.load_latest_snapshot(
                directory=Path(__file__).parent / "data" / "vwap-pr15"
            )
            assert covered == wal.seq
            with pytest.raises(EngineStateError, match="layout"):
                pickle.loads(payload)
            wal.snapshot(payload)
        obs.enable()
        obs.reset()
        try:
            recovered, stats = recover_result("VWAP", "rpai", tmp_path)
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
        assert recovered == expected
        assert counters["wal.snapshot_unloadable"] == 1
        assert stats["per_shard"][0]["snapshot_seq"] is None

    @pytest.mark.parametrize(
        "query, stream",
        [
            ("PSP", lambda: Stream(list(generate_order_book(OrderBookConfig(
                events=350, price_levels=30, volume_max=9, seed=17, delete_ratio=0.3,
            ))))),
            ("Q17", lambda: generate_tpch(TPCHConfig(scale_factor=0.004, seed=17))),
            ("Q18", lambda: generate_tpch(TPCHConfig(scale_factor=0.004, seed=17))),
        ],
        ids=["PSP", "Q17", "Q18"],
    )
    def test_log_written_by_a_deleted_hand_written_class(self, tmp_path, query, stream):
        """``data/<query>-handwritten/`` is this very run's durable log,
        checkpoints included, as written when the query ran through a
        hand-written engine class that no longer exists.  The snapshot
        passes its CRC and fails to unpickle: recovery counts it,
        rebuilds the engine from the query's plan and replays the whole
        log to the clean result."""
        source = Path(__file__).parent / "data" / f"{query.lower()}-handwritten"
        shutil.copytree(source, tmp_path / "wal")
        expected = clean_result(query, stream())
        obs.enable()
        obs.reset()
        try:
            recovered, stats = recover_result(query, "rpai", tmp_path / "wal")
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
        assert recovered == expected
        assert counters["wal.snapshot_unloadable"] == 1
        shard = stats["per_shard"][0]
        assert shard["snapshot_seq"] is None
        assert shard["records_replayed"] == shard["head_seq"] > 0

    def test_log_written_before_the_point_side_held_dicts(self, tmp_path):
        """``data/eq-pr30/`` is this very run's durable log (batch and
        frame records, checkpoints at 8 and 12 of 14 records), written
        while a point side's bound and result maps were ``PAIMap``\\s.
        The checkpoint still loads, migrated by ``PointSide.__setstate__``,
        and its tail replays to the clean result bit for bit."""
        rng = random.Random(30)
        events, live = [], []
        while len(events) < 320:
            if live and rng.random() < 0.15:
                events.append(Event("R", live.pop(rng.randrange(len(live))), -1))
            else:
                row = {"A": rng.randint(1, 40), "B": rng.randint(1, 6)}
                live.append(row)
                events.append(Event("R", row, +1))
        # one new group holding half the total B: the result is non-zero
        total = sum(row["B"] for row in live)
        while total:
            events.append(Event("R", {"A": 99, "B": min(6, total)}, +1))
            total -= min(6, total)
        expected = clean_result("EQ", Stream(events))
        assert expected == 99.0 * sum(e.row["B"] for e in events if e.row["A"] == 99)
        shutil.copytree(Path(__file__).parent / "data" / "eq-pr30", tmp_path / "wal")
        obs.enable()
        obs.reset()
        try:
            recovered, stats = recover_result("EQ", "rpai", tmp_path / "wal")
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
        assert recovered == expected
        assert counters.get("wal.snapshot_unloadable", 0) == 0
        shard = stats["per_shard"][0]
        assert (shard["snapshot_seq"], shard["head_seq"]) == (12, 14)
        assert shard["records_replayed"] == 2

    @pytest.mark.parametrize(
        "query, stream",
        [
            (query, lambda: Stream(list(generate_order_book(OrderBookConfig(
                events=350, price_levels=30, volume_max=9, seed=17, delete_ratio=0.3,
            )))))
            for query in ("VWAP", "MST", "PSP", "NQ1")
        ] + [
            (query, lambda: Stream(list(generate_tpch(TPCHConfig(scale_factor=0.004, seed=17)))))
            for query in ("Q17", "Q18")
        ],
        ids=["VWAP", "MST", "PSP", "NQ1", "Q17", "Q18"],
    )
    def test_every_side_kind_loads_a_checkpoint_written_before_the_side_contract(
        self, tmp_path, query, stream
    ):
        """``data/<query>-pr31/`` is this very run's durable log, written
        before the sides shared one contract: batch and frame records of
        32 events alternating, checkpoints two and four records before
        the head, no final checkpoint.  Each side's pickled state from
        then must still load: recovery adopts the last checkpoint and
        replays only the two-record tail, to the clean result.
        ``data/nq1-pr35/`` is the same recipe for NQ1's hand class, from
        while it kept its eligible view in a map of its own."""
        fixture = "nq1-pr35" if query == "NQ1" else f"{query.lower()}-pr31"
        shutil.copytree(Path(__file__).parent / "data" / fixture, tmp_path / "wal")
        expected = clean_result(query, stream())
        obs.enable()
        obs.reset()
        try:
            recovered, stats = recover_result(query, "rpai", tmp_path / "wal")
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
        assert recovered == expected
        assert counters.get("wal.snapshot_unloadable", 0) == 0
        shard = stats["per_shard"][0]
        assert shard["snapshot_seq"] == shard["head_seq"] - 2
        assert shard["records_replayed"] == 2

    @pytest.mark.parametrize("query, levels, volumes", [("SQ1", 30, 9), ("SQ2", 100, 3)])
    def test_general_algorithm_log_recovers_to_the_clean_result(
        self, tmp_path, query, levels, volumes
    ):
        """``data/sq1-pr38/`` and ``data/sq2-pr38/`` are this very run's
        durable log, with the recipe of the ``*-pr31`` logs (batch and
        frame records of 32 events alternating, checkpoints two and four
        records before the head), written by the general algorithm's own
        engine class, which the free-map side replaced.  As with the
        ``*-handwritten`` logs, the checkpoint passes its CRC and fails
        to unpickle: recovery counts it once, rebuilds the engine from
        the query's plan and replays the whole log to the clean result."""
        stream = Stream(list(generate_order_book(OrderBookConfig(
            events=350, price_levels=levels, volume_max=volumes, seed=17, delete_ratio=0.3,
        ))))
        shutil.copytree(Path(__file__).parent / "data" / f"{query.lower()}-pr38", tmp_path / "wal")
        expected = clean_result(query, stream)
        assert expected != 0
        obs.enable()
        obs.reset()
        try:
            recovered, stats = recover_result(query, "rpai", tmp_path / "wal")
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
        assert recovered == expected
        assert counters["wal.snapshot_unloadable"] == 1
        shard = stats["per_shard"][0]
        assert shard["snapshot_seq"] is None
        assert shard["records_replayed"] == shard["head_seq"] == 11

    def test_recover_result_replays_from_zero(self, tmp_path):
        stream = stream_for("SQ1")
        expected = clean_result("SQ1", stream)
        with DurableEngine(
            build_engine("SQ1", "rpai"), tmp_path, snapshot_every=3
        ) as durable:
            for batch in stream.batches(32):
                durable.on_batch(batch)
        plant_unloadable_snapshot(tmp_path)
        obs.enable()
        obs.reset()
        try:
            recovered, stats = recover_result("SQ1", "rpai", tmp_path)
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
        assert recovered == expected
        assert counters["wal.snapshot_unloadable"] == 1
        shard = stats["per_shard"][0]
        assert shard["snapshot_seq"] is None
        assert shard["records_replayed"] == shard["head_seq"]

    def test_worker_restore_replays_from_zero(self, tmp_path):
        """Same fallback on the supervised path, where the snapshot is
        unpickled inside the worker and the log lives in the parent."""
        stream = stream_for("VWAP")
        expected = clean_result("VWAP", stream)
        batches = list(stream.batches(32))
        wal_dir = tmp_path / "wal"
        first = build_sharded_engine(
            "VWAP", "rpai", shards=2, workers=2, plan_stream=stream,
            wal_dir=wal_dir, snapshot_every=3,
        )
        try:
            for batch in batches[: len(batches) // 2]:
                first.on_batch(batch)
        finally:
            first.close()
        plant_unloadable_snapshot(wal_dir / "shard-0")
        obs.enable()
        obs.reset()
        try:
            second = build_sharded_engine(
                "VWAP", "rpai", shards=2, workers=2, plan_stream=stream,
                wal_dir=wal_dir, snapshot_every=3,
            )
            try:
                for batch in batches[len(batches) // 2 :]:
                    result = second.on_batch(batch)
            finally:
                second.close()
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
        assert result == expected
        assert counters["wal.snapshot_unloadable"] == 1
        assert counters.get("supervisor.worker_failures", 0) == 0


class TestQuarantine:
    def _schemas(self):
        return get_query("EQ").schema_map()

    def test_clean_stream_unchanged_by_validation(self):
        """Attaching the quarantine must not change results on a clean
        stream (differential: guarded vs unguarded)."""
        stream = stream_for("EQ")
        plain = build_engine("EQ", "rpai")
        guarded = build_engine("EQ", "rpai")
        attach_validation(guarded, "EQ")
        for event in stream:
            assert guarded.on_event(event) == plain.on_event(event)
        assert guarded.quarantine.total_rejected == 0

    def test_bad_events_diverted_not_applied(self):
        engine = build_engine("EQ", "rpai")
        quarantine = attach_validation(engine, "EQ")
        good = Event("R", {"A": 5, "B": 2}, +1)
        expected = engine.on_event(good)
        for bad in (
            Event("__junk__", {"x": 1}, +1),       # unknown relation
            Event("R", {"A": 5}, +1),               # missing column
            Event("R", {"A": 5, "B": 2, "C": 3}, +1),  # extra column
            Event("R", {"A": "five", "B": 2}, +1),  # type mismatch
        ):
            assert engine.on_event(bad) == expected  # result unchanged
        assert quarantine.total_rejected == 4
        assert len(quarantine.rejected) == 4
        reasons = [reason for _event, reason in quarantine.rejected]
        assert all(reasons)

    def test_ring_is_bounded(self):
        engine = build_engine("EQ", "rpai")
        quarantine = engine.attach_quarantine(self._schemas(), limit=8)
        for i in range(50):
            engine.on_event(Event("__junk__", {"i": i}, +1))
        assert quarantine.total_rejected == 50
        assert len(quarantine.rejected) == 8  # ring keeps only the tail

    def test_fail_after_overflows(self):
        engine = build_engine("EQ", "rpai")
        engine.attach_quarantine(self._schemas(), fail_after=3)
        for i in range(3):
            engine.on_event(Event("__junk__", {"i": i}, +1))
        with pytest.raises(QuarantineOverflowError):
            engine.on_event(Event("__junk__", {"overflow": True}, +1))

    def test_batch_path_filters(self):
        engine = build_engine("EQ", "rpai")
        quarantine = attach_validation(engine, "EQ")
        batch = [
            Event("R", {"A": 1, "B": 1}, +1),
            Event("__junk__", {}, +1),
            Event("R", {"A": 2, "B": 1}, +1),
        ]
        reference = build_engine("EQ", "rpai")
        expected = reference.on_batch(
            [event for event in batch if event.relation == "R"]
        )
        assert engine.on_batch(batch) == expected
        assert quarantine.total_rejected == 1

    def test_counter_fires(self):
        obs.enable()
        obs.reset()
        try:
            engine = build_engine("EQ", "rpai")
            attach_validation(engine, "EQ")
            engine.on_event(Event("__junk__", {}, +1))
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
        assert counters["engine.quarantined"] == 1

    def test_detach_restores_fast_path(self):
        engine = build_engine("EQ", "rpai")
        attach_validation(engine, "EQ")
        engine.detach_quarantine()
        assert engine.quarantine is None
        # junk now reaches the engine and fails loudly — the guard is off
        with pytest.raises(Exception):
            engine.on_event(Event("R", {"bogus": 1}, +1))

    def test_quarantine_survives_pickle(self):
        import pickle

        engine = build_engine("EQ", "rpai")
        attach_validation(engine, "EQ")
        engine.on_event(Event("__junk__", {}, +1))
        restored = pickle.loads(pickle.dumps(engine))
        assert restored.quarantine.total_rejected == 1
        restored.on_event(Event("__junk__", {}, +1))
        assert restored.quarantine.total_rejected == 2


class TestFaultPlan:
    def test_seeded_is_deterministic(self):
        a = FaultPlan.seeded(99, shards=3, events=500, relations=("R",))
        b = FaultPlan.seeded(99, shards=3, events=500, relations=("R",))
        assert a == b
        assert a != FaultPlan.seeded(100, shards=3, events=500, relations=("R",))

    def test_kills_for_matches_shard_and_incarnation(self):
        plan = FaultPlan(kills=(
            KillSpec(shard=0, after_events=10, incarnation=0),
            KillSpec(shard=0, after_events=20, incarnation=1),
            KillSpec(shard=1, after_events=30, incarnation=0),
        ))
        assert [k.after_events for k in plan.kills_for(0, 0)] == [10]
        assert [k.after_events for k in plan.kills_for(0, 1)] == [20]
        assert plan.kills_for(2, 0) == ()

    def test_splice_positions_are_global(self):
        plan = FaultPlan(bad_events=(
            BadEventSpec(at_event=5), BadEventSpec(at_event=12),
        ))
        injector = FaultInjector(plan)
        chunks = [
            [Event("R", {"A": i, "B": 1}, +1) for i in range(j, j + 8)]
            for j in (0, 8, 16)
        ]
        out = [list(injector.splice_bad_events(chunk)) for chunk in chunks]
        assert len(out[0]) == 9   # one junk event in events 0..7
        assert out[0][5].relation == "__junk__"
        assert len(out[1]) == 9   # one in events 8..15 (position 12)
        assert out[1][4].relation == "__junk__"
        assert len(out[2]) == 8   # nothing left
        # clean payload preserved in order
        for original, spliced in zip(chunks, out):
            assert [e for e in spliced if e.relation == "R"] == original
