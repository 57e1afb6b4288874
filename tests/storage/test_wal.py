"""Write-ahead log: framing, self-healing truncation, snapshots.

The WAL is the durability primitive of the fault-tolerance layer
(`repro.storage.wal`): these tests pin its record format guarantees —
appends round-trip exactly, a torn or corrupted tail is detected via
CRC and cleanly truncated on open (never silently replayed), sequence
numbering survives reopen, and snapshot files fall back newest-to-
oldest past corrupt ones.
"""

import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import WalCorruptionError
from repro.storage.stream import Event
from repro.storage.colbatch import ColumnarFrame
from repro.storage import wal as wal_module
from repro.storage.wal import BATCH, BIRTH, FRAME, WAL_FILE, WriteAheadLog, split_cause


def _batches(n, size=4, tag="R"):
    return [
        [Event(tag, {"A": b * size + i, "B": 1}, +1) for i in range(size)]
        for b in range(n)
    ]


class TestAppendReplay:
    def test_roundtrip(self, tmp_path):
        batches = _batches(5)
        with WriteAheadLog(tmp_path) as wal:
            seqs = [wal.append(batch) for batch in batches]
            assert seqs == [1, 2, 3, 4, 5]
            replayed = list(wal.replay())
        assert [seq for seq, _ in replayed] == seqs
        assert [batch for _, batch in replayed] == batches

    def test_replay_from_start_seq(self, tmp_path):
        batches = _batches(6)
        with WriteAheadLog(tmp_path) as wal:
            for batch in batches:
                wal.append(batch)
            tail = list(wal.replay(start_seq=4))
        assert [seq for seq, _ in tail] == [5, 6]
        assert [batch for _, batch in tail] == batches[4:]

    def test_reopen_resumes_sequence(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            for batch in _batches(3):
                wal.append(batch)
        with WriteAheadLog(tmp_path) as wal:
            assert wal.seq == 3
            assert wal.append(_batches(1)[0]) == 4
            assert len(list(wal.replay())) == 4

    def test_empty_log(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            assert wal.seq == 0
            assert list(wal.replay()) == []
            assert wal.load_latest_snapshot() is None

    def test_fsync_mode(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync=True) as wal:
            for batch in _batches(3):
                wal.append(batch)
            wal.snapshot(b"state")
            assert len(list(wal.replay())) == 3


class TestRecordKinds:
    def test_frame_record_is_the_frame_bytes_behind_its_cause(self, tmp_path):
        batch = _batches(1)[0]
        frame = ColumnarFrame.from_events(batch)
        with WriteAheadLog(tmp_path) as wal:
            wal.append(frame, cause=("session-ω", 41))
            wal.append(frame)  # e.g. a shard log: no serving cause
            wal.append(batch)
            records = list(wal.records())
            replayed = list(wal.replay())
        assert [kind for _seq, kind, _payload in records] == [FRAME, FRAME, BATCH]
        assert split_cause(records[0][2]) == (("session-ω", 41), frame.to_bytes())
        assert split_cause(records[1][2]) == (None, frame.to_bytes())
        assert [type(logged) for _seq, logged in replayed] == [ColumnarFrame, ColumnarFrame, list]
        assert [logged if isinstance(logged, list) else logged.events()
                for _seq, logged in replayed] == [batch, batch, batch]

    def test_birth_records_take_a_seq_and_carry_no_batch(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            assert wal.birth("VWAP") == 1
            wal.append(_batches(1)[0])
            assert wal.birth("Q18") == 3
        with WriteAheadLog(tmp_path) as wal:  # survives reopen, numbering included
            assert wal.seq == 3
            assert [(seq, kind) for seq, kind, _ in wal.records()] == [
                (1, BIRTH), (2, BATCH), (3, BIRTH)
            ]
            assert [payload for _seq, kind, payload in wal.records() if kind == BIRTH] == [
                b"VWAP", b"Q18"
            ]
            assert [seq for seq, _batch in wal.replay()] == [2]
            assert [seq for seq, *_ in wal.records(start_seq=2)] == [3]


class TestTailCorruption:
    def test_torn_tail_truncated_on_open(self, tmp_path):
        batches = _batches(4)
        with WriteAheadLog(tmp_path) as wal:
            for batch in batches:
                wal.append(batch)
        path = tmp_path / WAL_FILE
        size = path.stat().st_size
        with open(path, "ab") as handle:
            handle.truncate(size - 7)  # tear the last record mid-payload
        with WriteAheadLog(tmp_path) as wal:
            assert wal.seq == 3  # torn record 4 dropped
            assert [seq for seq, _ in wal.replay()] == [1, 2, 3]
            assert wal.append(batches[3]) == 4  # numbering resumes cleanly
            assert [batch for _, batch in wal.replay()] == batches
        # the truncation physically removed the garbage
        assert path.stat().st_size > size - 7 - 1

    def test_corrupt_crc_stops_replay(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            for batch in _batches(3):
                wal.append(batch)
        path = tmp_path / WAL_FILE
        data = bytearray(path.read_bytes())
        data[-3] ^= 0xFF  # flip a payload byte of the last record
        path.write_bytes(bytes(data))
        with WriteAheadLog(tmp_path) as wal:
            assert wal.seq == 2
            assert [seq for seq, _ in wal.replay()] == [1, 2]

    def test_garbage_appended_after_log(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            for batch in _batches(2):
                wal.append(batch)
        path = tmp_path / WAL_FILE
        with open(path, "ab") as handle:
            handle.write(b"\x00" * 64)
        with WriteAheadLog(tmp_path) as wal:
            assert wal.seq == 2
            assert len(list(wal.replay())) == 2

    def test_strict_mode_raises(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(_batches(1)[0])
        path = tmp_path / WAL_FILE
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        wal = WriteAheadLog.__new__(WriteAheadLog)  # bypass self-healing open
        wal.directory = tmp_path
        wal._path = path
        with pytest.raises(WalCorruptionError):
            list(wal.replay(strict=True))

    def test_truncation_is_counted(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(_batches(1)[0])
        with open(tmp_path / WAL_FILE, "ab") as handle:
            handle.write(b"junk")
        obs.enable()
        obs.reset()
        try:
            WriteAheadLog(tmp_path).close()
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
        assert counters["wal.tail_truncated"] == 1


class TestSnapshots:
    def test_latest_valid_snapshot_wins(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(_batches(1)[0])
            wal.snapshot(b"old")
            wal.append(_batches(1)[0])
            path = wal.snapshot(b"new")
            assert wal.load_latest_snapshot() == (2, b"new")
            # corrupt the newest -> falls back to the older one
            data = bytearray(path.read_bytes())
            data[-1] ^= 0xFF
            path.write_bytes(bytes(data))
            assert wal.load_latest_snapshot() == (1, b"old")
            with pytest.raises(WalCorruptionError):
                wal.load_latest_snapshot(strict=True)

    def test_max_seq_filters_future_snapshots(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(_batches(1)[0])
            wal.snapshot(b"one")
            wal.append(_batches(1)[0])
            wal.snapshot(b"two")
            # a snapshot beyond a (truncated) log head must be ignored
            assert wal.load_latest_snapshot(max_seq=1) == (1, b"one")
            assert wal.load_latest_snapshot(max_seq=0) is None

    def test_truncated_snapshot_file_skipped(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(_batches(1)[0])
            path = wal.snapshot(b"payload" * 10)
            with open(path, "ab") as handle:
                handle.truncate(10)  # shorter than the framed payload
            assert wal.load_latest_snapshot() is None

    def test_explicit_covered_seq(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            for batch in _batches(3):
                wal.append(batch)
            wal.snapshot(b"early", seq=2)
            assert wal.load_latest_snapshot() == (2, b"early")
            assert list(wal.replay(start_seq=2)) != []


class TestSnapshotRetention:
    def test_ten_checkpoints_leave_two_files(self, tmp_path):
        obs.enable()
        obs.reset()
        try:
            with WriteAheadLog(tmp_path) as wal:
                for index, batch in enumerate(_batches(10)):
                    wal.append(batch)
                    wal.snapshot(b"state-%d" % index)
                counters = obs.snapshot()["counters"]
                names = sorted(p.name for p in tmp_path.glob("snapshot-*.ckpt"))
                assert names == ["snapshot-000000000009.ckpt", "snapshot-000000000010.ckpt"]
                assert counters["wal.snapshots_pruned"] == 8
                # the log itself is never truncated: replay-from-birth needs it
                assert len(list(wal.replay())) == 10
                # the newest one rots: the one kept behind it still loads
                newest = tmp_path / names[-1]
                newest.write_bytes(newest.read_bytes()[:-1] + b"\xff")
                assert wal.load_latest_snapshot() == (9, b"state-8")
        finally:
            obs.disable()

    def test_a_corrupt_predecessor_is_not_the_fallback(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            paths = []
            for index, batch in enumerate(_batches(3)):
                wal.append(batch)
                paths.append(wal.snapshot(b"state-%d" % index))
                if index == 1:  # snapshot 2 rots before snapshot 3 is taken
                    paths[1].write_bytes(paths[1].read_bytes()[:-1] + b"\xff")
            # 3 is new, 2 is corrupt and goes, 1 is the newest valid older one
            assert sorted(p.name for p in tmp_path.glob("snapshot-*.ckpt")) == [
                paths[0].name, paths[2].name
            ]

    def test_snapshots_in_another_directory(self, tmp_path):
        with WriteAheadLog(tmp_path / "log") as wal:
            wal.append(_batches(1)[0])
            path = wal.snapshot(b"elsewhere", directory=tmp_path / "log" / "VWAP")
            assert path.parent == tmp_path / "log" / "VWAP"
            assert wal.load_latest_snapshot() is None
            assert wal.load_latest_snapshot(directory=path.parent) == (1, b"elsewhere")


class TestAtomicSnapshots:
    """A crash mid-snapshot must never leave a torn .ckpt visible: the
    write goes to a .tmp sibling and the final name appears only via
    os.replace."""

    def test_crash_before_replace_leaves_no_partial(self, tmp_path, monkeypatch):
        """Kill the process between the payload write and the rename:
        the fully-written temp file must stay invisible to recovery."""
        with WriteAheadLog(tmp_path) as wal:
            wal.append(_batches(1)[0])
            wal.snapshot(b"good")
            wal.append(_batches(1)[0])

            def killed(_src, _dst):
                raise OSError("simulated crash mid-snapshot")

            monkeypatch.setattr("repro.storage.wal.os.replace", killed)
            with pytest.raises(OSError):
                wal.snapshot(b"never-published")
        monkeypatch.undo()
        # the aborted snapshot left only a .tmp sibling...
        assert list(tmp_path.glob("*.tmp"))
        assert len(list(tmp_path.glob("snapshot-*.ckpt"))) == 1
        # ...and recovery still sees exactly the old snapshot
        with WriteAheadLog(tmp_path) as wal:
            assert wal.load_latest_snapshot() == (1, b"good")

    def test_torn_tmp_never_matches_recovery_glob(self, tmp_path):
        """A partial .tmp left by a crash mid-write is not even a
        candidate during recovery (its name misses SNAPSHOT_GLOB)."""
        with WriteAheadLog(tmp_path) as wal:
            wal.append(_batches(1)[0])
            wal.snapshot(b"good")
            (tmp_path / "snapshot-000000000099.ckpt.tmp").write_bytes(b"\x00 torn")
            assert wal.load_latest_snapshot() == (1, b"good")
            # strict mode doesn't trip over it either: it is invisible
            assert wal.load_latest_snapshot(strict=True) == (1, b"good")

    def test_completed_snapshot_leaves_no_tmp(self, tmp_path):
        for fsync in (False, True):
            directory = tmp_path / f"fsync-{fsync}"
            with WriteAheadLog(directory, fsync=fsync) as wal:
                wal.append(_batches(1)[0])
                path = wal.snapshot(b"durable")
                assert path.exists()
                assert wal.load_latest_snapshot() == (1, b"durable")
                assert not list(directory.glob("*.tmp"))


def _write_state(wal):
    return wal.seq, wal.tail_bytes, wal.checkpoint_seq, wal.checkpoint_bytes


class TestCheckpointRule:
    """``checkpoint_due``: by default a checkpoint is due when the log
    tail weighs as much as the checkpoint it follows (the floor at
    least) — which bounds checkpoint bytes by log bytes and the replayed
    tail by the checkpoint, whatever the state weighs."""

    @settings(max_examples=60, deadline=None)
    @given(
        records=st.lists(st.integers(1, 3000), min_size=1, max_size=120),
        state=st.sampled_from(["constant", "growing", "shrinking"]),
        floor=st.sampled_from([512, 4096]),
    )
    def test_amplification_and_tail_are_bounded(self, records, state, floor):
        with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as root:
            patch.setattr(wal_module, "CHECKPOINT_FLOOR", floor)
            wal = WriteAheadLog(root)
            logged = checkpointed = 0
            for index, size in enumerate(records):
                before = wal.tail_bytes
                wal.birth("x" * size)
                record = wal.tail_bytes - before
                logged += record
                if wal.checkpoint_due():
                    assert wal.tail_bytes >= floor  # never before the floor
                    weight = {"constant": 2000, "growing": 40 * index, "shrinking": 9000 // (index + 1)}
                    wal.snapshot(b"s" * weight[state])
                    checkpointed += wal.checkpoint_bytes
                    assert wal.tail_bytes == 0
                assert checkpointed <= logged + wal.checkpoint_bytes
                assert wal.tail_bytes < max(wal.checkpoint_bytes, floor) + record
            assert logged == (Path(root) / WAL_FILE).stat().st_size
            wal.close()

    def test_an_explicit_count_is_the_record_cadence(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            due = []
            for batch in _batches(7):
                wal.append(batch)
                due.append(wal.checkpoint_due(3))
                if due[-1]:
                    wal.snapshot(b"state")
            assert due == [False, False, True, False, False, True, False]
            assert not wal.checkpoint_due()  # nowhere near the floor
            assert wal.checkpoint_due(0)  # clamped to every record

    @pytest.mark.parametrize("damage", ["none", "torn-tail", "snapshot-ahead-of-head"])
    def test_reopen_rebuilds_what_the_writer_held(self, tmp_path, damage):
        """Tail bytes and the newest checkpoint's seq and size come back
        from the opening scan and the snapshot names — for a tenant's
        per-engine subdirectories too."""
        wal = WriteAheadLog(tmp_path)
        states, ends = [], []
        for index, batch in enumerate(_batches(9)):
            wal.append(batch)
            ends.append((tmp_path / WAL_FILE).stat().st_size)
            if index in (2, 5):
                wal.snapshot(b"a" * (100 + index), directory=tmp_path / "A")
                wal.snapshot(b"b" * (300 + index), directory=tmp_path / "B")
                assert wal.checkpoint_bytes == 2 * 20 + 400 + 2 * index
            states.append(_write_state(wal))
        wal.close()  # crash
        expected = states[-1]
        if damage == "torn-tail":
            with open(tmp_path / WAL_FILE, "ab") as handle:
                handle.write(b"RWL1 torn")
        elif damage == "snapshot-ahead-of-head":
            # The log is cut inside record 5: the checkpoint at 6 covers
            # nothing that is left, and the one at 3 is the newest again.
            with open(tmp_path / WAL_FILE, "r+b") as handle:
                handle.truncate(ends[4] - 3)
            expected = states[3]
        with WriteAheadLog(tmp_path) as reopened:
            assert _write_state(reopened) == expected
            assert reopened.checkpoint_seq == (3 if damage == "snapshot-ahead-of-head" else 6)
            assert reopened.tail_bytes == ends[reopened.seq - 1] - ends[reopened.checkpoint_seq - 1]

    def test_a_snapshot_below_the_head_is_due_early_never_late(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            for batch in _batches(4):
                wal.append(batch)
            whole = wal.tail_bytes
            wal.snapshot(b"early", seq=2)
            assert (wal.checkpoint_seq, wal.tail_bytes) == (2, whole)
        with WriteAheadLog(tmp_path) as wal:
            assert wal.checkpoint_seq == 2 and 0 < wal.tail_bytes < whole

    def test_rewriting_a_checkpoint_does_not_count_it_twice(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(_batches(1)[0])
            wal.snapshot(b"x" * 50)
            wal.snapshot(b"y" * 70)
            assert wal.checkpoint_bytes == 20 + 70
            wal.snapshot(b"old", seq=0)  # an older one changes nothing
            assert (wal.checkpoint_seq, wal.checkpoint_bytes) == (1, 90)

    def test_the_predecessor_is_not_read_back(self, tmp_path, monkeypatch):
        """Only the first checkpoint after open verifies what it finds;
        from then on the fallback is the file this writer left, unread
        unless something wrote to it since (the retention tests above)."""
        reads = []
        real = wal_module._read_snapshot
        monkeypatch.setattr(wal_module, "_read_snapshot", lambda path: reads.append(path.name) or real(path))
        with WriteAheadLog(tmp_path) as wal:
            for index, batch in enumerate(_batches(4)):
                wal.append(batch)
                wal.snapshot(b"state-%d" % index)
            assert reads == []
        # what another writer (the parent commit) left carries no seal
        for path in tmp_path.glob("snapshot-*.ckpt"):
            os.utime(path)
        with WriteAheadLog(tmp_path) as wal:
            assert (wal.checkpoint_seq, wal.tail_bytes) == (4, 0)
            for batch in _batches(3):
                wal.append(batch)
                wal.snapshot(b"later")
            assert reads == ["snapshot-000000000004.ckpt"]
            assert sorted(p.name for p in tmp_path.glob("snapshot-*.ckpt")) == [
                "snapshot-000000000006.ckpt", "snapshot-000000000007.ckpt"
            ]
            assert wal.load_latest_snapshot() == (7, b"later")

    def test_written_bytes_are_counted(self, tmp_path):
        obs.enable()
        obs.reset()
        try:
            with WriteAheadLog(tmp_path) as wal:
                for batch in _batches(3):
                    wal.append(batch)
                    wal.snapshot(b"state" * 10)
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
        assert counters["wal.appended_bytes"] == (tmp_path / WAL_FILE).stat().st_size
        assert counters["wal.checkpoint_bytes"] == 3 * (20 + 50)
        assert counters["wal.snapshots"] == 3
