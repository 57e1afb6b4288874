"""The durable tenant: one log, one admission, one frame for all engines.

A tenant pays for durability once per ingest batch — one WAL record
holding the received frame bytes, one block-level admission, the same
frame handed to every engine — and recovers every engine from that one
log.  These tests drive :class:`~repro.serving.server.TenantRuntime`
directly (no sockets: the network half is ``test_server.py`` and the
chaos suite) and pin the equivalences that make the sharing safe:
recovery at *every* record boundary is bit-identical to a clean run, an
engine subscribed late recovers from its birth, and block-level
admission rejects exactly what per-row admission did.
"""

from __future__ import annotations

import os
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.engine.base import Quarantine
from repro.engine.registry import attach_validation, build_engine
from repro.engine.supervision import DurableEngine, recover_result
from repro.errors import EngineStateError
from repro.serving.server import ServingConfig, TenantRuntime
from repro.storage.colbatch import ColumnarFrame
from repro.storage.schema import WORKLOAD_SCHEMAS
from repro.storage.stream import Event
from repro.storage.wal import BIRTH, FRAME, WAL_FILE, WriteAheadLog

from tests.engine.test_trigger_shapes import JUNK, identical, serve_mix, with_junk

QUERIES = ("VWAP", "PSP", "Q18")
BATCH = 16


def dirty_batches(seed: int, count: int) -> tuple[list[list[Event]], list[list[Event]]]:
    """``(clean, dirty)``: the serving feed in ``BATCH``-event batches,
    and the same batches with junk rows interleaved."""
    rng = random.Random(seed)
    events = serve_mix(seed, count)
    clean = [events[i : i + BATCH] for i in range(0, len(events), BATCH)]
    return clean, [with_junk(rng, batch) if rng.random() < 0.4 else batch for batch in clean]


def clean_results(batches: list[list[Event]], queries=QUERIES) -> dict:
    out = {}
    for query in queries:
        engine = build_engine(query, "rpai")
        out[query] = engine.result()
        for batch in batches:
            out[query] = engine.on_batch(batch)
    return out


def tenant_over(root, *, queries=QUERIES, snapshot_every: int = 5) -> TenantRuntime:
    tenant = TenantRuntime("acme", ServingConfig(wal_root=root, snapshot_every=snapshot_every))
    for query in queries:
        tenant.ensure_engine(query)
    return tenant


def feed(tenant: TenantRuntime, batches: list[list[Event]], first_seq: int = 1) -> None:
    for seq, batch in enumerate(batches, first_seq):
        # through bytes, as the server receives them
        frame = ColumnarFrame.from_bytes(ColumnarFrame.from_events(batch).to_bytes())
        assert tenant.apply("s", seq, frame)


def results(tenant: TenantRuntime) -> dict:
    return {query: engine.result() for query, engine in tenant.engines.items()}


class TestCrashRecovery:
    def test_crash_at_every_record_is_a_clean_run(self, tmp_path):
        """Kill the tenant after k ingests, for every k; a *new* runtime
        over the directory (a restarted process: nothing but the disk
        survives) holds what a clean run of the first k junk-free
        batches holds, and ends where the clean run ends."""
        clean, dirty = dirty_batches(11, 24 * BATCH)
        assert dirty != clean
        expected_end = clean_results(clean)
        for k in range(len(dirty) + 1):
            root = tmp_path / f"crash-{k}"
            tenant = tenant_over(root)
            feed(tenant, dirty[:k])
            tenant.kill()  # no final snapshot: the log tail must carry it
            revived = tenant_over(root)
            expected = clean_results(clean[:k])
            for query, result in results(revived).items():
                assert identical(result, expected[query]), (k, query)
            assert revived.applied.get("s", 0) == k
            feed(revived, dirty[k:], first_seq=k + 1)
            for query, result in results(revived).items():
                assert identical(result, expected_end[query]), (k, query)
            revived.kill()

    def test_kill_and_restart_keeps_the_quarantine_count(self, tmp_path):
        clean, dirty = dirty_batches(12, 10 * BATCH)
        tenant = tenant_over(tmp_path)
        feed(tenant, dirty)
        rejected = tenant.quarantine.total_rejected
        assert rejected == sum(map(len, dirty)) - sum(map(len, clean))
        tenant.kill()
        tenant.restart()  # replays junk too, through a scratch quarantine
        assert tenant.quarantine.total_rejected == rejected
        for query, result in results(tenant).items():
            assert identical(result, clean_results(clean)[query])
        tenant.close_engines()

    def test_late_subscriber_recovers_from_its_birth(self, tmp_path):
        clean, _ = dirty_batches(13, 64 * BATCH)
        early, late = clean[:32], clean[32:]  # Q18 joins after 512 events
        tenant = tenant_over(tmp_path, queries=("VWAP",))
        feed(tenant, early)
        tenant.ensure_engine("Q18")
        feed(tenant, late, first_seq=len(early) + 1)
        had = results(tenant)
        tenant.kill()
        for snapshot in (tmp_path / "acme" / "Q18").glob("snapshot-*.ckpt"):
            snapshot.unlink()  # the hard case: nothing but the log
        revived = tenant_over(tmp_path, queries=("VWAP", "Q18"))
        assert identical(revived.engines["Q18"].result(), had["Q18"])
        assert identical(revived.engines["VWAP"].result(), had["VWAP"])
        # ...which is what it saw since its birth, not the whole log
        assert identical(had["Q18"], clean_results(late, ("Q18",))["Q18"])
        assert not identical(had["Q18"], clean_results(clean, ("Q18",))["Q18"])
        with WriteAheadLog(tmp_path / "acme") as wal:
            kinds = [kind for _seq, kind, _payload in wal.records()]
        assert kinds.count(BIRTH) == 2 and kinds.index(BIRTH) == 0
        assert kinds.count(FRAME) == len(clean)
        # the offline path reads the same layout
        offline, stats = recover_result("Q18", "rpai", tmp_path / "acme")
        assert identical(offline, had["Q18"])
        assert stats["per_shard"][0]["records_replayed"] == len(late)

    def test_per_query_wal_layout_is_refused_not_started_empty(self, tmp_path):
        legacy = tmp_path / "acme" / "VWAP"
        with DurableEngine(build_engine("VWAP", "rpai"), legacy) as durable:
            durable.on_batch(serve_mix(3, 40))
        assert (legacy / WAL_FILE).exists()
        with pytest.raises(EngineStateError, match="repro recover"):
            TenantRuntime("acme", ServingConfig(wal_root=tmp_path))
        assert not (tmp_path / "acme" / WAL_FILE).exists()
        # and what the message says works
        result, _stats = recover_result("VWAP", "rpai", legacy)
        assert identical(result, clean_results([serve_mix(3, 40)], ("VWAP",))["VWAP"])


class TestCheckpointRule:
    """The tenant log under the default, size-proportional rule
    (``snapshot_every=None``: see ``WriteAheadLog.checkpoint_due``), and
    the record cadence an explicit count still gives."""

    FLOOR = 2048  # the real one is 64 KiB: these feeds log ~400 B a batch

    @pytest.fixture(autouse=True)
    def _small_floor(self, monkeypatch):
        monkeypatch.setattr("repro.storage.wal.CHECKPOINT_FLOOR", self.FLOOR)

    def test_crash_at_every_record_replays_at_most_one_checkpoint_of_log(self, tmp_path):
        """The crash-at-every-record harness under the default rule: a
        restarted process finds at most ``max(newest checkpoint, floor)``
        bytes of log (and the record that crossed the line) behind its
        newest checkpoint, and restores bit-identically from them."""
        clean, dirty = dirty_batches(11, 40 * BATCH)
        expected_end = clean_results(clean)
        checkpoints = set()
        for k in range(len(dirty) + 1):
            root = tmp_path / f"crash-{k}"
            tenant = tenant_over(root, snapshot_every=None)
            feed(tenant, dirty[:k])
            held = tenant.log.wal
            tenant.kill()
            revived = tenant_over(root, snapshot_every=None)
            wal = revived.log.wal
            assert (wal.seq, wal.tail_bytes, wal.checkpoint_seq, wal.checkpoint_bytes) == (
                held.seq, held.tail_bytes, held.checkpoint_seq, held.checkpoint_bytes
            )
            record = max((len(payload) + 20 for _seq, _kind, payload in wal.records()), default=0)
            assert wal.tail_bytes < max(wal.checkpoint_bytes, self.FLOOR) + record
            checkpoints.add(wal.checkpoint_seq)
            expected = clean_results(clean[:k])
            for query, result in results(revived).items():
                assert identical(result, expected[query]), (k, query)
            feed(revived, dirty[k:], first_seq=k + 1)
            for query, result in results(revived).items():
                assert identical(result, expected_end[query]), (k, query)
            revived.kill()
        # both arms of the max: the floor first, the checkpoint's own weight after
        assert len(checkpoints) >= 4

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000), batch=st.sampled_from([1, 5, 16, 90]))
    def test_three_engines_never_checkpoint_more_than_they_log(self, seed, batch):
        """Growing state (Q18's groups) beside bounded state, any batch
        size: checkpoint bytes written ≤ log bytes written + one
        checkpoint, and none before the floor."""
        events = serve_mix(seed, 1500)
        obs.enable()
        obs.reset()
        try:
            with tempfile.TemporaryDirectory() as root:
                tenant = tenant_over(Path(root), snapshot_every=None)
                wal = tenant.log.wal
                written = logged_at_last = 0
                for seq, start in enumerate(range(0, len(events), batch), 1):
                    feed(tenant, [events[start : start + batch]], first_seq=seq)
                    counters = obs.snapshot()["counters"]
                    logged = counters["wal.appended_bytes"]
                    if counters.get("wal.checkpoint_bytes", 0) > written:
                        written = counters["wal.checkpoint_bytes"]
                        assert logged - logged_at_last >= self.FLOOR
                        logged_at_last = logged
                    assert written <= logged + wal.checkpoint_bytes
                assert counters["wal.snapshots"] >= 3 * 2
                tenant.kill()
        finally:
            obs.disable()

    def test_explicit_cadence_keeps_its_snapshot_names(self, tmp_path):
        """``snapshot_every=5`` on a three-engine tenant leaves the files
        the commit before the size rule leaves, name for name."""

        def names() -> dict:
            return {
                query: sorted(int(p.name[9:-5]) for p in (tmp_path / "acme" / query).glob("*.ckpt"))
                for query in QUERIES
            }

        clean, _ = dirty_batches(14, 32 * BATCH)
        tenant = tenant_over(tmp_path)
        feed(tenant, clean[:23])
        assert names() == dict.fromkeys(QUERIES, [20, 25])  # 3 BIRTH records lead the log
        tenant.close_engines()
        assert names() == dict.fromkeys(QUERIES, [25, 26])
        revived = tenant_over(tmp_path)
        feed(revived, clean[23:], first_seq=24)
        assert names() == dict.fromkeys(QUERIES, [26, 31])
        revived.close_engines()
        assert names() == dict.fromkeys(QUERIES, [31, 35])

    def test_a_directory_changes_rules_across_restarts(self, tmp_path):
        """Payloads, names and retention did not move, so a directory
        written under the record cadence (by this commit or the one
        before it, whose files carry ordinary mtimes) resumes under the
        size rule, and the other way round."""
        clean, dirty = dirty_batches(15, 36 * BATCH)
        tenant = tenant_over(tmp_path, snapshot_every=5)
        feed(tenant, dirty[:13])
        tenant.kill()
        for path in (tmp_path / "acme").glob("*/*.ckpt"):
            os.utime(path)
        tenant = tenant_over(tmp_path, snapshot_every=None)
        assert tenant.log.wal.checkpoint_seq == 15 and tenant.log.wal.tail_bytes > 0
        feed(tenant, dirty[13:24], first_seq=14)
        assert tenant.log.wal.checkpoint_seq > 15
        tenant.kill()
        tenant = tenant_over(tmp_path, snapshot_every=5)
        feed(tenant, dirty[24:], first_seq=25)
        expected = clean_results(clean)
        for query, result in results(tenant).items():
            assert identical(result, expected[query]), query
        tenant.close_engines()
        for query in QUERIES:
            offline, _stats = recover_result(query, "rpai", tmp_path / "acme")
            assert identical(offline, expected[query]), query


class TestOncePerBatch:
    def test_one_append_one_admission_no_event_decode(self, tmp_path, monkeypatch):
        clean, _ = dirty_batches(14, 12 * BATCH)
        tenant = tenant_over(tmp_path, snapshot_every=4)
        assert not any(isinstance(engine, DurableEngine) for engine in tenant.engines.values())
        assert all(engine.quarantine is None for engine in tenant.engines.values())
        decodes, admissions = [], []
        decode, admit = ColumnarFrame.events, Quarantine.admit_frame
        monkeypatch.setattr(
            ColumnarFrame, "events", lambda self: decodes.append(1) or decode(self)
        )
        monkeypatch.setattr(
            Quarantine, "admit_frame", lambda self, f: admissions.append(1) or admit(self, f)
        )
        obs.reset()
        obs.enable()
        try:
            feed(tenant, clean)
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
            obs.reset()
        assert counters["wal.appends"] == len(clean)
        assert len(admissions) == len(clean)
        assert decodes == []
        assert counters["wal.snapshots"] == 3 * (len(clean) // 4)
        tenant.close_engines()
        for query in QUERIES:
            assert len(list((tmp_path / "acme" / query).glob("snapshot-*.ckpt"))) == 2
        assert [p.name for p in (tmp_path / "acme").iterdir() if p.is_file()] == [WAL_FILE]

    def test_logged_bytes_are_the_received_bytes(self, tmp_path):
        tenant = tenant_over(tmp_path)
        blob = ColumnarFrame.from_events(serve_mix(5, BATCH)).to_bytes()
        frame = ColumnarFrame.from_bytes(blob)
        assert frame.to_bytes() is blob  # decode keeps its input: no second encode
        tenant.apply("session-α", 7, frame)
        tenant.kill()
        with WriteAheadLog(tmp_path / "acme") as wal:
            (record,) = [r for r in wal.records() if r[1] == FRAME]
        assert record[2].endswith(blob)
        assert TenantRuntime("acme", ServingConfig(wal_root=tmp_path)).applied == {"session-α": 7}


class TestBlockAdmission:
    """Block-level admission rejects exactly what per-row admission did."""

    @pytest.mark.parametrize("seed", range(6))
    def test_same_rejections_same_results_as_per_engine_guards(self, seed):
        rng = random.Random(seed)
        _clean, dirty = dirty_batches(20 + seed, 12 * BATCH)
        dirty.append(list(JUNK))  # a batch with nothing to keep
        dirty.append([Event("bids", {"timestamp": 1, "id": 1, "broker_id": 1,
                                     "volume": 2.5, "price": 7}, +1)] * 3)  # float in an int column
        rng.shuffle(dirty)
        tenant = TenantRuntime("t", ServingConfig())
        guarded = {}
        for query in QUERIES:
            tenant.ensure_engine(query)
            guarded[query] = build_engine(query, "rpai")
            attach_validation(guarded[query], query)
        for seq, batch in enumerate(dirty, 1):
            tenant.apply("s", seq, ColumnarFrame.from_events(batch))
            for query, engine in guarded.items():
                assert identical(engine.on_batch(batch), tenant.engines[query].result())
        for engine in guarded.values():
            assert tenant.quarantine.total_rejected == engine.quarantine.total_rejected
            assert list(tenant.quarantine.rejected) == list(engine.quarantine.rejected)
        assert tenant.quarantine.total_rejected > 0

    def test_fail_after_trips_on_the_same_event(self):
        batch = serve_mix(9, 8) + [JUNK[0], JUNK[1]] + serve_mix(9, 4) + [JUNK[2]]
        by_block = Quarantine(WORKLOAD_SCHEMAS, fail_after=2)
        by_row = Quarantine(WORKLOAD_SCHEMAS, fail_after=2)
        from repro.errors import QuarantineOverflowError

        with pytest.raises(QuarantineOverflowError):
            by_row.admit_batch(batch)
        with pytest.raises(QuarantineOverflowError):
            by_block.admit_frame(ColumnarFrame.from_events(batch))
        assert list(by_block.rejected) == list(by_row.rejected)
