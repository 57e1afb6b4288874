"""Write-ahead log with size-proportional state snapshots.

Durability layer of :mod:`repro.engine.supervision`: one log per
*applier* — a shard of the supervised executor, a single durable
engine, or all the engines of one serving tenant — to which every batch
is appended *before* it is applied, and per-engine pickled state
checkpointed when the log written since the last checkpoint outweighs
it (:meth:`WriteAheadLog.checkpoint_due`: the log counts the bytes, so
the rule exists once).  Recovery is then the classic two-step
— load the latest *valid* snapshot, replay the log tail after it —
which reconstructs the exact engine state at the last logged record
regardless of where the process died.

Integrity is enforced at the record level so a crash mid-write (or a
corrupted file) is *detected*, never silently replayed:

* every log record is framed as ``magic | seq | payload-length |
  CRC-32(payload) | payload`` (little-endian ``<4sQII`` header); the
  magic is the record kind — :data:`BATCH` (a pickled event list),
  :data:`FRAME` (a :class:`~repro.storage.colbatch.ColumnarFrame`'s
  bytes *as received*, behind the ``(session, seq)`` of the ingest that
  caused it) or :data:`BIRTH` (the name of an engine that joined the
  log here and is never fed anything older).  Replay stops at the first
  frame whose magic, length, sequence or CRC does not check out and
  truncates the file at that offset — a torn tail heals itself and is
  reported through the ``wal.tail_truncated`` counter;
* snapshots use the same framing (``magic | covered-seq | length |
  CRC``), one directory per engine.  A snapshot that fails its CRC is
  skipped (counted under ``wal.snapshot_corrupt``) and recovery falls
  back to the next-newest valid one — or to an empty engine plus a
  replay from its birth when none survive: the log is never truncated,
  while a directory keeps only its newest two valid snapshots
  (``wal.snapshots_pruned``).

The log knows nothing about engines: payloads are event batches, and
recovery drives a caller callback.  That keeps this module importable
from the storage layer without touching the engine package.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.errors import WalCorruptionError
from repro.obs import SINK as _SINK

__all__ = ["WriteAheadLog", "WAL_FILE", "SNAPSHOT_GLOB", "CHECKPOINT_FLOOR", "BATCH", "FRAME", "BIRTH", "split_cause"]

#: record kinds (the record magic)
BATCH = b"RWL1"  # pickled event list
FRAME = b"RWF1"  # cause prefix + ColumnarFrame bytes, verbatim
BIRTH = b"RWB1"  # utf-8 name of an engine born at this seq
_SNAPSHOT_MAGIC = b"RSN1"
_HEADER = struct.Struct("<4sQII")  # magic, seq, payload length, payload crc32
_CAUSE = struct.Struct("<QH")  # ingest seq, session byte length; then the session

WAL_FILE = "wal.log"
SNAPSHOT_GLOB = "snapshot-*.ckpt"

#: refuse to allocate unbounded buffers for a garbage length field
_MAX_RECORD_BYTES = 1 << 30

#: no checkpoint is due before this many log bytes follow the last one,
#: however small that was (see :meth:`WriteAheadLog.checkpoint_due`)
CHECKPOINT_FLOOR = 64 << 10


class WriteAheadLog:
    """Append-only event log plus snapshot files.

    One instance per applier.  The writer owns the file handle; sequence
    numbers are 1-based and contiguous over the *valid* prefix of the
    log (opening an existing directory scans the log, truncates any
    torn tail, and resumes numbering from the last intact record).

    Args:
        directory: shard directory (created if missing).
        fsync: when ``True`` every append (and snapshot) is forced to
            stable storage with ``os.fsync`` — crash-safe at a
            measurable throughput cost.
        scan: called with ``(seq, kind, payload)`` for every valid
            record the opening scan passes, so a caller that needs to
            know what the log holds does not read it a second time.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        fsync: bool = False,
        scan: Callable[[int, bytes, bytes], None] | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self._path = self.directory / WAL_FILE
        self.seq = 0
        #: seq covered by the newest checkpoint, its snapshot files (one
        #: per engine) with their sizes, and the log's size at that seq
        #: and at the head — all rebuilt by the opening scan
        self.checkpoint_seq = self._checkpoint_end = self._end = 0
        self._checkpoint_files: dict[Path, int] = {}
        self._recover_end_offset(scan)
        self._handle = open(self._path, "ab")

    # -- writing -------------------------------------------------------

    def append(self, events: Any, cause: tuple[str, int] | None = None) -> int:
        """Durably append one batch; returns its sequence number.

        ``events`` is a plain event sequence (pickled as a list) or a
        :class:`~repro.storage.colbatch.ColumnarFrame`, logged as its
        wire bytes — memoized, so a frame that came off the wire or is
        about to be shipped is never encoded twice.  ``cause`` is the
        ``(session, ingest seq)`` a served frame arrived under."""
        from repro.storage.colbatch import ColumnarFrame

        if isinstance(events, ColumnarFrame):
            session, ingest_seq = cause or ("", 0)
            name = session.encode()
            self._write(FRAME, _CAUSE.pack(ingest_seq, len(name)) + name, events.to_bytes())
        else:
            self._write(BATCH, b"", pickle.dumps(list(events), protocol=pickle.HIGHEST_PROTOCOL))
        if _SINK.enabled:
            _SINK.inc("wal.appends")
            _SINK.observe("wal.record_events", len(events))
        return self.seq

    def birth(self, name: str) -> int:
        """Record that engine ``name`` joins the log here (its recovery
        replays only what follows); returns the record's seq."""
        self._write(BIRTH, b"", name.encode())
        return self.seq

    def _write(self, kind: bytes, prefix: bytes, body: bytes) -> None:
        self.seq += 1
        crc = zlib.crc32(body, zlib.crc32(prefix))
        self._handle.write(_HEADER.pack(kind, self.seq, len(prefix) + len(body), crc) + prefix)
        self._handle.write(body)
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        size = _HEADER.size + len(prefix) + len(body)
        self._end += size
        if _SINK.enabled:
            _SINK.inc("wal.appended_bytes", size)

    @property
    def tail_bytes(self) -> int:
        """Log bytes behind the newest checkpoint: what recovery replays."""
        return self._end - self._checkpoint_end

    @property
    def checkpoint_bytes(self) -> int:
        """File bytes of the newest checkpoint, all its engines together."""
        return sum(self._checkpoint_files.values())

    def checkpoint_due(self, every: int | None = None) -> bool:
        """The one checkpoint rule: the log tail weighs as much as the
        checkpoint it follows (:data:`CHECKPOINT_FLOOR` at least).  So
        checkpoint bytes written never exceed log bytes written plus one
        checkpoint, and recovery replays at most one checkpoint's worth
        of log, whatever the state weighs — a record count bounds
        neither.  ``every`` is that count, for callers that pin
        checkpoint positions."""
        if every is not None:
            return self.seq - self.checkpoint_seq >= max(1, every)
        return self.tail_bytes >= max(self.checkpoint_bytes, CHECKPOINT_FLOOR)

    def snapshot(
        self, payload: bytes, *, seq: int | None = None, directory: Path | None = None
    ) -> Path:
        """Write a snapshot covering every record up to ``seq``
        (default: the head) into ``directory`` (default: the log's).
        ``payload`` is the opaque pickled engine state; the file is
        CRC-framed like a log record.

        The write is atomic: bytes go to a ``.tmp`` sibling (whose name
        does not match :data:`SNAPSHOT_GLOB`, so recovery never sees it)
        and the final name appears only via ``os.replace``.  A crash
        mid-snapshot therefore leaves at most a stray temp file, never a
        torn ``.ckpt`` — the CRC framing remains as defense in depth
        against bit rot, not as the torn-write story.

        Then every other snapshot of the directory goes, except the
        newest older one that passes its CRC: the fallback should this
        one rot.  One still carrying the mtime stamped below was not
        written to since and is elected unread.  A ``seq`` below the
        head leaves the tail measured from the checkpoint before (due
        early, never late) until the log is next opened."""
        covered = self.seq if seq is None else seq
        directory = self.directory if directory is None else directory
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"snapshot-{covered:012d}.ckpt"
        tmp = path.with_name(path.name + ".tmp")
        header = _HEADER.pack(_SNAPSHOT_MAGIC, covered, len(payload), zlib.crc32(payload))
        with open(tmp, "wb") as handle:
            handle.write(header)
            handle.write(payload)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, path)
        # The seal: no clock hands this out, so any later write moves
        # the file's mtime off it, whatever the clock's grain.
        os.utime(path, ns=(0, 0))
        fallback = None
        for other in sorted(directory.glob(SNAPSHOT_GLOB), reverse=True):
            if other == path:
                continue
            if fallback is None and other.name < path.name and (
                other.stat().st_mtime_ns == 0 or _read_snapshot(other) is not None
            ):
                fallback = other
                continue
            other.unlink(missing_ok=True)
            if _SINK.enabled:
                _SINK.inc("wal.snapshots_pruned")
        if self.fsync:
            # The rename itself must survive a crash: fsync the
            # directory so the new name is on stable storage too.
            fd = os.open(directory, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        if covered > self.checkpoint_seq:
            self.checkpoint_seq, self._checkpoint_files = covered, {}
            if covered >= self.seq:
                self._checkpoint_end = self._end
        if covered == self.checkpoint_seq:
            self._checkpoint_files[path] = len(header) + len(payload)
        if _SINK.enabled:
            _SINK.inc("wal.snapshots")
            _SINK.inc("wal.checkpoint_bytes", len(header) + len(payload))
        return path

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- reading / recovery --------------------------------------------

    def load_latest_snapshot(
        self,
        *,
        strict: bool = False,
        max_seq: int | None = None,
        directory: Path | None = None,
    ) -> tuple[int, bytes] | None:
        """Newest snapshot of ``directory`` (default: the log's) that
        passes integrity checks, as ``(covered_seq, payload)``; ``None``
        when there is none.  Corrupt snapshots are skipped
        (``strict=True`` raises
        :class:`~repro.errors.WalCorruptionError` instead).

        ``max_seq`` ignores snapshots covering records beyond it: a
        snapshot ahead of a (truncated) log head must not be restored,
        or replay and live sequence numbering would diverge."""
        directory = self.directory if directory is None else directory
        for path in sorted(directory.glob(SNAPSHOT_GLOB), reverse=True):
            snapshot = _read_snapshot(path)
            if snapshot is None:
                if strict:
                    raise WalCorruptionError(f"snapshot {path.name} failed integrity check")
                if _SINK.enabled:
                    _SINK.inc("wal.snapshot_corrupt")
                continue
            if max_seq is not None and snapshot[0] > max_seq:
                continue
            return snapshot
        return None

    def records(
        self, start_seq: int = 0, *, strict: bool = False
    ) -> Iterator[tuple[int, bytes, bytes]]:
        """Yield ``(seq, kind, payload)`` for every valid record with
        ``seq > start_seq``, in order, payloads undecoded.

        Reads the file fresh (safe on a live writer: every append is
        flushed).  A torn or corrupt tail ends the iteration; in the
        default self-healing mode it was already truncated when the log
        was opened, and ``strict=True`` raises on it instead."""
        with open(self._path, "rb") as handle:
            while True:
                record = self._read_record(handle, strict=strict, skip_through=start_seq)
                if record is None:
                    return
                if record[0] > start_seq:
                    yield record

    def replay(self, start_seq: int = 0, *, strict: bool = False) -> Iterator[tuple[int, Any]]:
        """Yield ``(seq, batch)`` for every logged batch with
        ``seq > start_seq`` — an event list or a ``ColumnarFrame``,
        whichever was appended (:data:`BIRTH` records carry none)."""
        from repro.storage.colbatch import ColumnarFrame

        for seq, kind, payload in self.records(start_seq, strict=strict):
            if kind == FRAME:
                yield seq, ColumnarFrame.from_bytes(split_cause(payload)[1])
            elif kind == BATCH:
                yield seq, pickle.loads(payload)

    def _read_record(
        self, handle, *, strict: bool, skip_through: int = 0
    ) -> tuple[int, bytes, bytes] | None:
        """One framed record, or ``None`` at end-of-valid-log.  A record
        with ``seq <= skip_through`` is stepped over unread (the opening
        scan checked it): replaying a tail does not re-read the log."""
        header = handle.read(_HEADER.size)
        if not header:
            return None
        try:
            if len(header) < _HEADER.size:
                raise WalCorruptionError("torn record header")
            magic, seq, length, crc = _HEADER.unpack(header)
            if magic not in (BATCH, FRAME, BIRTH):
                raise WalCorruptionError(f"bad record magic {magic!r}")
            if length > _MAX_RECORD_BYTES:
                raise WalCorruptionError(f"implausible record length {length}")
            if seq <= skip_through:
                handle.seek(length, os.SEEK_CUR)
                return seq, magic, b""
            payload = handle.read(length)
            if len(payload) < length:
                raise WalCorruptionError("torn record payload")
            if zlib.crc32(payload) != crc:
                raise WalCorruptionError(f"record {seq} failed CRC check")
        except WalCorruptionError:
            if strict:
                raise
            return None
        return seq, magic, payload

    def _recover_end_offset(self, scan) -> None:
        """Scan an existing log for its valid prefix; truncate trailing
        garbage so appends resume from a clean boundary.  The newest
        checkpoint is read off the snapshot names (here and one level
        down, where a tenant's engines keep theirs); one ahead of a
        truncated head covers no record the scan passes and is none."""
        if not self._path.exists():
            return
        files: dict[int, dict[Path, int]] = {0: {}}  # covered seq -> its snapshot files
        for path in (*self.directory.glob(SNAPSHOT_GLOB), *self.directory.glob("*/" + SNAPSHOT_GLOB)):
            covered = path.name[9:-5]  # snapshot-<covered>.ckpt
            if covered.isdigit():
                files.setdefault(int(covered), {})[path] = path.stat().st_size
        with open(self._path, "rb") as handle:
            while True:
                record = self._read_record(handle, strict=False)
                if record is None:
                    break
                self.seq = record[0]
                self._end = handle.tell()
                if self.seq in files:
                    self.checkpoint_seq, self._checkpoint_end = self.seq, self._end
                if scan is not None:
                    scan(*record)
        self._checkpoint_files = files[self.checkpoint_seq]
        size = self._path.stat().st_size
        if size > self._end:
            with open(self._path, "ab") as handle:
                handle.truncate(self._end)
            if _SINK.enabled:
                _SINK.inc("wal.tail_truncated")
                _SINK.observe("wal.truncated_bytes", size - self._end)


def split_cause(payload: bytes) -> tuple[tuple[str, int] | None, bytes]:
    """A :data:`FRAME` payload as ``((session, ingest seq), frame
    bytes)``; the cause is ``None`` when it was logged without one."""
    ingest_seq, length = _CAUSE.unpack_from(payload)
    end = _CAUSE.size + length
    cause = (payload[_CAUSE.size : end].decode(), ingest_seq) if length else None
    return cause, payload[end:]


def _read_snapshot(path: Path) -> tuple[int, bytes] | None:
    """``(covered seq, payload)`` of one snapshot file, or ``None`` when
    it is torn, mislabelled or fails its CRC."""
    data = path.read_bytes()
    if len(data) < _HEADER.size:
        return None
    magic, covered, length, crc = _HEADER.unpack_from(data)
    payload = data[_HEADER.size :]
    if magic != _SNAPSHOT_MAGIC or len(payload) != length or zlib.crc32(payload) != crc:
        return None
    return covered, payload
