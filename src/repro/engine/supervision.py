"""Fault-tolerant execution: supervised shard workers and durable engines.

The sharded pool executor (:mod:`repro.engine.sharding`) made the
reproduction parallel but brittle: one worker crash surfaced as a bare
``EOFError`` and the whole run was lost.  This module adds the
production-shaped answer — *log first, apply second, supervise always*:

* :class:`SupervisedExecutor` extends
  :class:`~repro.engine.sharding.MultiprocessShardedExecutor` with a
  per-shard :class:`~repro.storage.wal.WriteAheadLog`.  Every routed
  batch is appended (CRC-framed) **before** it is shipped to the
  worker, and worker state is checkpointed when the shard's log says
  one is due (:meth:`~repro.storage.wal.WriteAheadLog.checkpoint_due`).
  When a worker dies (pipe EOF, nonzero exit, ack timeout) it
  is respawned with capped exponential backoff and restored from
  *latest valid snapshot + WAL tail* — so the in-flight batch is never
  lost and the run's final result stays bit-identical to a clean
  unsharded run.  Workers deduplicate by WAL sequence number, making
  message duplication harmless.  After ``max_respawns`` failures on one
  shard the executor **degrades** instead of dying: every shard is
  recovered in-process from its WAL and execution continues on the
  serial :class:`~repro.engine.sharding.ShardedExecutor` (the
  degradation ladder is mp → serial → typed error).

* :class:`DurableLog` is that protocol without the workers, written
  once: one WAL, the engines that apply it, ``commit`` (append → apply →
  checkpoint when due) and ``recover`` (latest
  valid snapshot + tail replay, from the engine's birth record when no
  snapshot loads).  A serving tenant holds one for all of its engines;
  :class:`DurableEngine` is its one-engine case, with a
  :meth:`DurableEngine.recover` classmethod that resumes an interrupted
  run after a process restart.

* :func:`recover_result` is the offline path (the ``repro recover``
  CLI): rebuild every shard's engine from its WAL directory and merge
  through the standard two-phase template protocol.

Fault injection (:mod:`repro.faults`) threads through both sides of the
supervised transport — worker kills in the child loop, message
drops/duplications and snapshot corruption in the parent — so the chaos
differential suite can assert exact-result recovery deterministically.
"""

from __future__ import annotations

import os
import pickle
import time
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.engine.base import IncrementalEngine, Quarantine, Result
from repro.engine.sharding import (
    MultiprocessShardedExecutor,
    ShardRouter,
    ShardedExecutor,
    _error_reply,
    _merge_result,
    _observe_split,
    _raise_worker_error,
)
from repro.errors import EngineStateError, ShardWorkerError
from repro.faults import FaultInjector, FaultPlan
from repro.obs import SINK as _SINK
from repro.storage.colbatch import ColumnarFrame, apply_events
from repro.storage.stream import Event
from repro.storage.wal import BIRTH, FRAME, WAL_FILE, WriteAheadLog, split_cause

__all__ = ["SupervisedExecutor", "DurableLog", "DurableEngine", "recover_result"]

_PICKLE = pickle.HIGHEST_PROTOCOL


class _WorkerFailure(Exception):
    """Internal: one worker is gone/unresponsive (recoverable)."""

    def __init__(self, shard: int, reason: str) -> None:
        super().__init__(f"shard {shard}: {reason}")
        self.shard = shard
        self.reason = reason


class _Degraded(Exception):
    """Internal: the executor switched to serial mid-operation."""


def _supervised_worker_main(
    conn,
    query_name: str,
    strategy: str,
    shard: int,
    ring=None,
    kill_specs: tuple = (),
) -> None:
    """Worker loop of the supervised protocol.

    Differences from the plain pool worker:

    * ``frame`` headers carry the WAL sequence number alongside the
      ring byte count.  The ring bytes are consumed **before** the
      sequence check — a duplicated message duplicates its payload in
      the ring, and skipping the read would desynchronize the cursors —
      then a message whose sequence is not beyond the last applied one
      is acknowledged but **not** re-applied (exactly-once application
      under duplication);
    * ``restore`` replaces the engine with an unpickled snapshot (or a
      fresh build) and replays the shipped WAL tail (columnar frames or
      legacy event lists); a snapshot this code cannot unpickle is
      answered with ``unloadable`` and the parent re-sends the restore
      with no snapshot and the whole log;
    * ``snapshot`` replies with the engine pickled at the current
      sequence — the parent stamps and stores it;
    * ``kill_specs`` (fault injection) hard-exit the process once the
      applied-event count of *this incarnation* crosses a threshold.
    """
    from repro.engine.registry import build_engine

    engine = build_engine(query_name, strategy)
    last_seq = 0
    applied_events = 0
    kill_after = min((k.after_events for k in kill_specs), default=None)
    kill_code = kill_specs[0].exit_code if kill_specs else 0
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        tag = message[0]
        try:
            if tag in ("frame", "frame_inline", "batch"):
                seq = message[1]
                if tag == "frame":
                    # Consume the ring payload unconditionally (see above).
                    data = ring.read(message[2])
                    payload = None
                else:
                    data, payload = None, message[2]
                if seq <= last_seq:
                    conn.send(("ok", ("duplicate", seq)))
                    continue
                if payload is None:
                    payload = ColumnarFrame.from_bytes(data)
                apply_events(engine, payload)
                last_seq = seq
                applied_events += len(payload)
                if kill_after is not None and applied_events >= kill_after:
                    os._exit(kill_code)
                conn.send(("ok", ("applied", seq)))
            elif tag == "restore":
                snapshot_payload, tail, head_seq = message[1], message[2], message[3]
                if snapshot_payload is None:
                    engine = build_engine(query_name, strategy)
                else:
                    restored = _load_snapshot(snapshot_payload)
                    if restored is None:
                        conn.send(("ok", ("unloadable", head_seq)))
                        continue
                    engine = restored
                for _seq, logged in tail:
                    apply_events(engine, logged)
                last_seq = head_seq
                conn.send(("ok", ("restored", head_seq)))
            elif tag == "snapshot":
                conn.send(("ok", (last_seq, pickle.dumps(engine, protocol=_PICKLE))))
            elif tag == "partial":
                conn.send(("ok", engine.shard_partial()))
            elif tag == "probe":
                conn.send(("ok", engine.shard_probe(message[1])))
            elif tag == "stop":
                break
            else:  # pragma: no cover - protocol misuse guard
                conn.send(("err", {"shard": shard, "type": "ProtocolError",
                                   "message": f"unknown request {tag!r}",
                                   "traceback": ""}))
        except Exception as exc:
            conn.send(_error_reply(shard, exc))
    if ring is not None:
        ring.close(unlink=False)
    conn.close()


def _load_snapshot(payload: bytes) -> IncrementalEngine | None:
    """Unpickle a CRC-valid snapshot; ``None`` when this code cannot.

    Snapshots are pickles of live engines, so one written by other code
    (a class or module since removed, a state layout a ``__setstate__``
    refuses — the trees stamp theirs) passes its CRC and then fails
    inside ``pickle.loads`` with whatever the missing piece raises —
    hence the broad catch.  The log is never compacted, so callers treat
    it like a corrupt snapshot: rebuild from the factory and replay from
    the engine's birth."""
    try:
        return pickle.loads(payload)
    except Exception:
        if _SINK.enabled:
            _SINK.inc("wal.snapshot_unloadable")
        return None


def _recover_engine(
    wal: WriteAheadLog,
    factory: Callable[[], IncrementalEngine],
    directory: Path | None = None,
    birth: int = 0,
    admit: Callable[[Any], Any] | None = None,
) -> tuple[IncrementalEngine, dict]:
    """Snapshot + tail-replay recovery into an in-process engine.

    ``directory`` holds the engine's snapshots (default: the log's own),
    ``birth`` is the sequence number it joined the log at (it is never
    fed anything older) and ``admit`` filters each logged batch the way
    the live path did.  The snapshot is only trusted up to the log head
    (a corruption that truncated the WAL *behind* a snapshot invalidates
    the snapshot too, or replay and live sequence numbering would
    diverge)."""
    snap = wal.load_latest_snapshot(max_seq=wal.seq, directory=directory)
    engine = None if snap is None else _load_snapshot(snap[1])
    snapshot_seq = None if engine is None else snap[0]
    if engine is None:
        engine = factory()
    replayed = 0
    for _seq, logged in wal.replay(start_seq=birth if snapshot_seq is None else snapshot_seq):
        apply_events(engine, logged if admit is None else admit(logged))
        replayed += 1
    if _SINK.enabled:
        _SINK.inc("wal.recoveries")
        _SINK.observe("wal.records_replayed", replayed)
    stats = {
        "snapshot_seq": snapshot_seq,
        "records_replayed": replayed,
        "head_seq": wal.seq,
    }
    return engine, stats


class SupervisedExecutor(MultiprocessShardedExecutor):
    """Multiprocess sharded executor that survives its workers.

    See the module docstring for the protocol.  Construction over a
    directory that already holds WAL data *resumes* it: every worker is
    restored from its shard's snapshot + log tail before the first new
    event, which is how a whole-process restart picks up mid-stream.

    Args:
        wal_dir: root directory; shard ``i`` logs under
            ``wal_dir/shard-i/``.
        snapshot_every: ``None`` (default) checkpoints a shard when its
            log tail outweighs its last checkpoint; an integer is the
            old cadence in WAL records per shard.
        max_respawns: per-shard respawn budget before degrading to the
            serial executor.
        backoff_base / backoff_cap: capped exponential backoff (seconds)
            between respawns of the same shard.
        fsync: force every WAL append to stable storage.
        fault_plan: optional :class:`~repro.faults.FaultPlan` threaded
            through the transport and the worker loops.
        recv_timeout: seconds to wait for a worker reply before the
            worker is declared failed (last-resort guard; death is
            normally detected via pipe EOF / liveness immediately).
    """

    def __init__(
        self,
        query_name: str,
        strategy: str,
        template: IncrementalEngine,
        router: ShardRouter,
        *,
        wal_dir: str | Path,
        snapshot_every: int | None = None,
        max_respawns: int = 3,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        fsync: bool = False,
        fault_plan: FaultPlan | None = None,
        recv_timeout: float = 60.0,
    ) -> None:
        shards = router.shards
        self.wal_dir = Path(wal_dir)
        self.snapshot_every = snapshot_every
        self.max_respawns = max(0, max_respawns)
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.recv_timeout = recv_timeout
        self._fault_plan = fault_plan
        self._injector = FaultInjector(fault_plan) if fault_plan is not None else None
        self._incarnations = [0] * shards
        self._respawn_count = [0] * shards
        self._serial: ShardedExecutor | None = None
        self._closed = False
        self._wals = [
            WriteAheadLog(self.wal_dir / f"shard-{i}", fsync=fsync)
            for i in range(shards)
        ]
        super().__init__(query_name, strategy, template, router)
        self.name = f"{template.name}-supervised{shards}"
        for index, wal in enumerate(self._wals):
            if wal.seq > 0:  # resuming an existing run
                try:
                    self._restore_worker(index)
                except _WorkerFailure as failure:
                    self._handle_failure(failure)

    # -- worker lifecycle ----------------------------------------------

    def _worker_target(self):
        return _supervised_worker_main

    def _worker_args(self, index: int, child_conn, ring) -> tuple:
        kills = (
            self._fault_plan.kills_for(index, self._incarnations[index])
            if self._fault_plan is not None
            else ()
        )
        return (child_conn, self.query_name, self.strategy, index, ring, kills)

    def _restore_worker(self, index: int) -> None:
        """Bring a (re)spawned worker to the state of its WAL head."""
        wal = self._wals[index]
        snap = wal.load_latest_snapshot(max_seq=wal.seq)
        if snap is None:
            payload, start = None, 0
        else:
            start, payload = snap
        tail = list(wal.replay(start_seq=start))
        self._connections[index].send(("restore", payload, tail, wal.seq))
        if self._recv_ok(index)[0] == "unloadable":
            # Snapshot written by other code (see _load_snapshot): the
            # worker's own count stays in the worker, so count here.
            if _SINK.enabled:
                _SINK.inc("wal.snapshot_unloadable")
            tail = list(wal.replay())
            self._connections[index].send(("restore", None, tail, wal.seq))
            self._recv_ok(index)
        if _SINK.enabled:
            _SINK.inc("wal.recoveries")
            _SINK.observe("wal.records_replayed", len(tail))

    def _recover(self, index: int) -> None:
        """Respawn + restore one shard, with capped exponential backoff;
        exhausting the respawn budget degrades the whole executor."""
        while True:
            self._respawn_count[index] += 1
            attempt = self._respawn_count[index]
            if attempt > self.max_respawns:
                self._degrade()
                return
            time.sleep(min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1))))
            self._incarnations[index] += 1
            self._spawn(index)
            try:
                self._restore_worker(index)
            except _WorkerFailure:
                continue
            if _SINK.enabled:
                _SINK.inc("supervisor.respawns")
            return

    def _degrade(self) -> None:
        """Budget exhausted: recover every shard in-process from its WAL
        and continue on the serial executor (same router, same merge)."""
        from repro.engine.registry import build_engine

        replicas = []
        for wal in self._wals:
            engine, _stats = _recover_engine(
                wal, lambda: build_engine(self.query_name, self.strategy)
            )
            replicas.append(engine)
        self._shutdown_workers()
        self._serial = ShardedExecutor(self.template, replicas, self.router)
        if _SINK.enabled:
            _SINK.inc("supervisor.degraded")

    # -- transport ------------------------------------------------------

    def _recv_ok(self, index: int, timeout: float | None = None) -> Any:
        """One reply from worker ``index``; raises :class:`_WorkerFailure`
        on death/timeout and :class:`~repro.errors.ShardWorkerError` on a
        structured (deterministic) engine error."""
        conn = self._connections[index]
        process = self._processes[index]
        deadline = time.monotonic() + (self.recv_timeout if timeout is None else timeout)
        while True:
            try:
                if conn.poll(0.02):
                    tag, payload = conn.recv()
                    if tag != "ok":
                        _raise_worker_error(index, payload)
                    return payload
            except (EOFError, OSError):
                raise _WorkerFailure(
                    index, f"pipe EOF (exitcode {process.exitcode})"
                ) from None
            if not process.is_alive() and not conn.poll(0):
                raise _WorkerFailure(index, f"worker dead (exitcode {process.exitcode})")
            if time.monotonic() > deadline:
                raise _WorkerFailure(index, "reply timeout")

    def _ship(self, index: int, seq: int, frame) -> int:
        """Send one logged frame; returns the number of acks to expect
        (0 when fault injection dropped the message in transit).

        A duplicated send re-writes the payload bytes into the ring as
        well — the worker consumes ring bytes per header before its
        sequence check, so header and payload counts must always agree.
        """
        if self._injector is not None and self._injector.should_drop(index, seq):
            return 0
        data = frame.to_bytes()  # memoized: encoded once in apply_batch
        sends = 1
        if self._injector is not None and self._injector.should_duplicate(index, seq):
            sends += 1
        ring = self._rings[index]
        for _ in range(sends):
            if len(data) <= ring.capacity:
                self._connections[index].send(("frame", seq, len(data)))
                ring.write(data)
            else:  # pragma: no cover - frames are batch-sized in practice
                self._connections[index].send(("frame_inline", seq, frame))
        return sends

    def _handle_failure(self, failure: _WorkerFailure) -> None:
        if _SINK.enabled:
            _SINK.inc("supervisor.worker_failures")
        self._recover(failure.shard)

    def _robust_request(self, index: int, message: tuple) -> Any:
        """Request/reply with one recovery retry; the restored worker
        can serve reads (partial/probe/snapshot) immediately."""
        for _attempt in range(2):
            if self._serial is not None:
                raise _Degraded
            try:
                self._connections[index].send(message)
                return self._recv_ok(index)
            except (BrokenPipeError, OSError):
                self._handle_failure(_WorkerFailure(index, "send failed"))
            except _WorkerFailure as failure:
                self._handle_failure(failure)
        raise ShardWorkerError("worker unrecoverable after respawn", shard=index)

    # -- snapshots ------------------------------------------------------

    def _snapshot_shard(self, index: int) -> None:
        wal = self._wals[index]
        if self._serial is not None:
            seq, payload = wal.seq, pickle.dumps(self._serial.replicas[index], protocol=_PICKLE)
        else:
            try:
                seq, payload = self._robust_request(index, ("snapshot",))
            except _Degraded:
                return
        path = wal.snapshot(payload, seq=seq)
        if self._injector is not None:
            self._injector.on_snapshot_written(index, path)

    def _maybe_snapshot(self) -> None:
        for index, wal in enumerate(self._wals):
            if wal.checkpoint_due(self.snapshot_every):
                self._snapshot_shard(index)

    # -- engine interface ----------------------------------------------

    def apply(self, event: Event) -> None:
        self.apply_batch([event])

    def apply_batch(self, events: Sequence[Event]) -> None:
        if self._injector is not None:
            spliced = self._injector.splice_bad_events(events)
            if spliced is not events and self._quarantine is not None:
                # splice_bad_events runs after the ``on_*`` quarantine
                # pass — so injected junk must be re-filtered here to
                # exercise the same boundary a dirty producer would hit.
                spliced = self._quarantine.admit_batch(spliced)
            events = spliced
        if self._serial is not None:
            self._serial_apply_batch(events)
            return
        parts = self._split(events)
        if _SINK.enabled:
            _observe_split(parts)
        pending: list[tuple[int, int, Any]] = []
        for index, part in enumerate(parts):
            if len(part):
                # Encode once; the same ColumnarFrame object is logged
                # (the WAL pickles it through its compact byte form) and
                # then shipped, so transport and durability share one
                # encode pass.
                frame, _data = self._encode_frame(part)
                pending.append((index, self._wals[index].append(frame), frame))
        # Log everything, then ship everything, then collect: the WAL is
        # complete before any worker can fail, so any recovery (or the
        # degrade path) reconstructs this batch exactly.
        shipped: list[tuple[int, int]] = []
        for index, seq, part in pending:
            try:
                shipped.append((index, self._ship(index, seq, part)))
            except (BrokenPipeError, OSError):
                shipped.append((index, -1))
        for index, sends in shipped:
            if self._serial is not None:
                break  # degraded mid-batch; WAL recovery covered the rest
            try:
                if sends == 0:
                    raise _WorkerFailure(index, "message lost in transit")
                if sends < 0:
                    raise _WorkerFailure(index, "send failed")
                for _ in range(sends):
                    self._recv_ok(index)
            except _WorkerFailure as failure:
                self._handle_failure(failure)
        if self._serial is None:
            self._maybe_snapshot()

    #: not the pool's: fault injection and the degraded path take events
    apply_frame = IncrementalEngine.apply_frame

    def _serial_apply_batch(self, events: Sequence[Event]) -> None:
        # Degraded mode: keep the WAL current (so `repro recover` and a
        # later restart still work), then drive the serial executor.
        for index, part in enumerate(self.router.split(events)):
            if part:
                self._wals[index].append(part)
        self._serial.apply_batch(events)
        self._maybe_snapshot()

    def result(self) -> Result:
        if self._serial is not None:
            return self._serial.result()
        try:
            partials = [
                self._robust_request(index, ("partial",))
                for index in range(self.shards)
            ]

            def probe(contexts: list[Any]) -> list[Any]:
                return [
                    self._robust_request(index, ("probe", context))
                    for index, context in enumerate(contexts)
                ]

            return _merge_result(self.template, partials, probe)
        except _Degraded:
            return self._serial.result()

    @property
    def degraded(self) -> bool:
        """Whether the executor has fallen back to serial execution."""
        return self._serial is not None

    def close(self) -> None:
        """Final snapshots, worker shutdown, WAL close (idempotent)."""
        if self._closed:
            return
        try:
            if self._serial is not None:
                for index, wal in enumerate(self._wals):
                    if wal.seq > wal.checkpoint_seq:
                        wal.snapshot(pickle.dumps(self._serial.replicas[index], protocol=_PICKLE))
            elif not self._workers_down:
                for index in range(len(self._connections)):
                    try:
                        self._snapshot_shard(index)
                    except Exception:
                        pass  # best-effort: WAL alone still recovers
        finally:
            self._shutdown_workers()
            self._closed = True
            for wal in self._wals:
                wal.close()


class DurableLog:
    """One write-ahead log and the engines that apply it — the
    durability protocol, once.

    :meth:`commit` is append → apply → checkpoint every attached engine
    when the log says one is due (``snapshot_every`` goes to
    :meth:`~repro.storage.wal.WriteAheadLog.checkpoint_due`: ``None`` is
    its size rule, an integer a record cadence); :meth:`recover` is
    latest valid snapshot + replay of the tail.  Engines are named: ``""``
    is born with the log and snapshots beside it (:class:`DurableEngine`); any
    other name is born where :meth:`attach` first sees it — a BIRTH
    record, so its recovery never replays what was logged before it
    existed — and snapshots into ``<directory>/<name>/``.
    """

    def __init__(
        self, directory: str | Path, *, fsync: bool = False, snapshot_every: int | None = None
    ) -> None:
        self.snapshot_every = snapshot_every
        self.engines: dict[str, IncrementalEngine] = {}
        #: engine name -> sequence number of its BIRTH record
        self.births: dict[str, int] = {"": 0}
        #: session -> last ingest seq logged under it (the FRAME causes):
        #: what a restarted server must not apply again
        self.applied: dict[str, int] = {}
        self.wal = WriteAheadLog(directory, fsync=fsync, scan=self._note)

    def _note(self, seq: int, kind: bytes, payload: bytes) -> None:
        """One record of the log's opening scan."""
        if kind == BIRTH:
            self.births[payload.decode()] = seq
        elif kind == FRAME and (cause := split_cause(payload)[0]) is not None:
            self.applied[cause[0]] = cause[1]

    def attach(self, name: str, engine: IncrementalEngine) -> IncrementalEngine:
        """Register a live engine; a name new to the log is born here."""
        if name not in self.births:
            self.births[name] = self.wal.birth(name)
        self.engines[name] = engine
        return engine

    def recover(self, name: str, factory: Callable, admit: Callable | None = None) -> dict:
        """Rebuild engine ``name`` from its snapshots and the log tail
        (batches pass ``admit`` first) and attach it; returns the
        recovery statistics."""
        self.engines[name], stats = _recover_engine(
            self.wal, factory, self.wal.directory / name, self.births[name], admit
        )
        return stats

    def commit(self, batch: Any, apply: Callable, cause: tuple[str, int] | None = None) -> Any:
        """Append first, apply second, checkpoint when due; returns
        what ``apply(batch)`` returned."""
        self.wal.append(batch, cause)
        output = apply(batch)
        if self.wal.checkpoint_due(self.snapshot_every):
            self.snapshot()
        return output

    def snapshot(self) -> list[Path]:
        """Checkpoint every attached engine at the current log head."""
        root = self.wal.directory
        return [
            self.wal.snapshot(pickle.dumps(engine, protocol=_PICKLE), directory=root / name)
            for name, engine in self.engines.items()
        ]

    def close(self) -> None:
        """Final checkpoint if anything was logged since the last one,
        then close the WAL; idempotent."""
        if not self.wal._handle.closed:
            if self.wal.seq > self.wal.checkpoint_seq:
                self.snapshot()
            self.wal.close()


class DurableEngine(IncrementalEngine):
    """WAL-backed wrapper for a single (possibly serial-sharded) engine:
    the one-engine :class:`DurableLog`.  Each ``apply*`` logs its
    payload, then hands it to the wrapped engine's ``apply*`` — past any
    guard of the wrapped engine, so a quarantine attached to it moves
    out to the wrapper, which admits before it logs."""

    def __init__(
        self,
        engine: IncrementalEngine,
        directory: str | Path,
        *,
        fsync: bool = False,
        snapshot_every: int | None = None,
    ) -> None:
        self._quarantine = engine.quarantine
        engine.detach_quarantine()
        self.log = DurableLog(directory, fsync=fsync, snapshot_every=snapshot_every)
        self.log.attach("", engine)
        self.wal = self.log.wal
        self.name = f"{engine.name}-wal"
        self.recovered_records = 0

    @property
    def engine(self) -> IncrementalEngine:
        return self.log.engines[""]

    def apply(self, event: Event) -> None:
        self.log.commit([event], lambda _batch: self.engine.apply(event))

    def apply_batch(self, events: Sequence[Event]) -> None:
        self.log.commit(events, self.engine.apply_batch)

    def apply_frame(self, frame: ColumnarFrame) -> None:
        self.log.commit(frame, self.engine.apply_frame)

    def result(self) -> Result:
        return self.engine.result()

    def snapshot(self) -> Path:
        """Checkpoint the wrapped engine at the current log head."""
        return self.log.snapshot()[0]

    def close(self) -> None:
        self.log.close()

    def __enter__(self) -> "DurableEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    @classmethod
    def recover(
        cls,
        factory: Callable[[], IncrementalEngine],
        directory: str | Path,
        *,
        fsync: bool = False,
        snapshot_every: int | None = None,
    ) -> "DurableEngine":
        """Resume an interrupted durable run from its directory."""
        durable = cls(factory(), directory, fsync=fsync, snapshot_every=snapshot_every)
        durable.recovered_records = durable.log.recover("", factory)["records_replayed"]
        durable.name = f"{durable.engine.name}-wal"
        return durable


def recover_result(
    query_name: str, strategy: str, wal_dir: str | Path
) -> tuple[Result, dict]:
    """Offline recovery (the ``repro recover`` subcommand).

    Rebuilds every shard engine found under ``wal_dir`` — either
    ``shard-<i>/`` subdirectories written by a
    :class:`SupervisedExecutor`, or a bare directory holding one log,
    a :class:`DurableEngine`'s or a serving tenant's (where the query's
    own snapshots and birth record apply, and logged frames pass the
    tenant's admission rule) — and returns the merged query result plus
    per-shard recovery statistics.

    A :class:`DurableEngine` log is replayed into a plain engine: the
    WAL stores raw event batches, so replay through the single engine
    reproduces the exact result whatever executor wrote the log.
    """
    from repro.engine.registry import build_engine, validation_schemas

    root = Path(wal_dir)
    factory = lambda: build_engine(query_name, strategy)  # noqa: E731
    shard_dirs = sorted(d for d in root.glob("shard-*") if d.is_dir())
    if not shard_dirs:
        if not (root / WAL_FILE).exists():
            raise EngineStateError(f"no WAL data under {root}")
        log = DurableLog(root)
        try:
            name = query_name.upper() if query_name.upper() in log.births else ""
            admit = Quarantine(validation_schemas(name)).admit_frame if name else None
            stats = log.recover(name, factory, admit)
            return log.engines[name].result(), {"shards": 1, "per_shard": [stats]}
        finally:
            log.wal.close()
    replicas, per_shard = [], []
    for directory in shard_dirs:
        with WriteAheadLog(directory) as wal:
            engine, stats = _recover_engine(wal, factory)
        replicas.append(engine)
        per_shard.append(stats)
    stats = {"shards": len(replicas), "per_shard": per_shard}
    if len(replicas) == 1:
        return replicas[0].result(), stats
    template = factory()
    result = _merge_result(
        template,
        [replica.shard_partial() for replica in replicas],
        lambda contexts: [
            replica.shard_probe(context)
            for replica, context in zip(replicas, contexts)
        ],
    )
    return result, stats
