"""Asyncio streaming subscription server.

One process serves many **tenants**; each tenant owns an isolated pool
of incremental engines (one per subscribed query), one input
quarantine, an optional :class:`~repro.engine.supervision.DurableLog`
(``wal_root/<tenant>/wal.log`` for all of its engines, snapshots under
``wal_root/<tenant>/<query>/``), and a bounded ingest queue drained by a
single worker task.  Each ingest is paid for once: decoded once, logged
once (the received frame bytes, verbatim), admitted once, handed to
every engine as the same frame, and its deltas are encoded once and
leave in one write per connection.  Clients connect over TCP with
the :mod:`~repro.serving.protocol` framing, ingest
:class:`~repro.storage.colbatch.ColumnarFrame` batches, and subscribe
to queries: an initial snapshot, then one
:mod:`~repro.serving.deltas` payload per result change.

Robustness contract (each clause is counted in ``obs`` and exercised
by the serving chaos suite):

* **Tenant isolation** — a tenant's schema-junk is diverted by the
  tenant's quarantine, and a hard engine crash marks only *that* tenant
  failed (``serve.tenant_failures``); other tenants never stall.  A
  failed (or chaos-killed) tenant restarts from its WAL
  (``serve.tenant_restarts``) and resumes serving the same delta
  sequence.
* **Backpressure** — the ingest queue is bounded; when full the
  configured policy applies: ``block`` stops reading that connection
  (TCP backpressure, ``serve.backpressure_waits``), ``shed-newest``
  drops the incoming batch (``serve.shed``, nacked so the client
  knows), ``disconnect`` drops the connection (``serve.disconnects``).
* **Slow consumers** — subscribers ACK each delta; a subscription
  lagging more than ``subscriber_buffer`` unacked deltas behind the
  query head is evicted (``serve.evicted``) instead of buffering
  without bound.  The client recovers by resubscribing, and the
  resume replay ships only the missed tail.
* **Dedup** — ingest batches carry a client-chosen ``(session, seq)``;
  a reconnecting client re-sends unacked batches and the tenant skips
  already-applied sequence numbers (``serve.dedup_skips``) — the WAL
  seq-dedup design at the network boundary.  The log records each
  batch's ``(session, seq)``, so the watermark survives a restart of
  the whole server.
* **Liveness** — the server PINGs every ``heartbeat_interval`` and
  closes connections idle past ``idle_timeout``
  (``serve.idle_closed``); a garbled or truncated frame closes the
  connection (``serve.bad_frames``) without touching engine state.
* **Drain** — shutdown stops accepting, drains every ingest queue,
  sends each subscriber a final DRAIN snapshot, and closes the engines
  (which checkpoints the WALs).
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import signal
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.engine.base import Quarantine
from repro.engine.registry import build_engine, validation_schemas
from repro.engine.supervision import DurableLog
from repro.errors import EngineStateError, ServingError, WireFormatError
from repro.obs import SINK as _SINK
from repro.serving.deltas import compute_delta, freeze
from repro.serving.protocol import (
    Message,
    MsgType,
    encode,
    error_message,
    read_message,
)
from repro.storage.colbatch import ColumnarFrame
from repro.storage.schema import WORKLOAD_SCHEMAS
from repro.storage.wal import WAL_FILE

__all__ = ["ServingConfig", "SubscriptionServer", "TenantRuntime", "QUEUE_POLICIES"]

QUEUE_POLICIES = ("block", "shed-newest", "disconnect")

#: sender-task shutdown sentinel
_CLOSE = object()


@dataclass
class ServingConfig:
    """Tunables for one :class:`SubscriptionServer`."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read back from server.port after start()
    strategy: str = "rpai"
    queue_limit: int = 64  # ingest batches buffered per tenant
    queue_policy: str = "block"  # block | shed-newest | disconnect
    subscriber_buffer: int = 128  # unacked deltas per subscription before eviction
    delta_retain: int = 512  # deltas retained per query for resume replay
    heartbeat_interval: float = 5.0
    idle_timeout: float = 30.0
    wal_root: Path | None = None  # per-tenant durability root; None = in-memory
    fsync: bool = False
    snapshot_every: int | None = None  # records per checkpoint; None = by log size
    drain_timeout: float = 10.0
    # Transport write buffer per connection: small enough that a
    # stalled reader backs the sender up into the bounded outbox (where
    # the slow-consumer eviction can see it) instead of the kernel
    # absorbing megabytes silently.
    write_buffer_high: int = 1 << 15

    def __post_init__(self) -> None:
        if self.queue_policy not in QUEUE_POLICIES:
            raise ValueError(
                f"queue_policy must be one of {QUEUE_POLICIES}, got "
                f"{self.queue_policy!r}"
            )
        if self.wal_root is not None:
            self.wal_root = Path(self.wal_root)


class Subscription:
    """One (connection, query) subscription."""

    __slots__ = ("connection", "query", "last_acked", "active")

    def __init__(self, connection: "Connection", query: str) -> None:
        self.connection = connection
        self.query = query
        self.last_acked = 0
        self.active = True


class Connection:
    """Server-side state for one client connection.

    All outbound traffic funnels through one queue of encoded bytes
    drained by a sender task, so TCP backpressure from a stalled reader
    blocks the sender — not the engines.  The sender writes everything
    queued when it wakes as one buffer: the deltas an ingest causes and
    its ACK are queued in one synchronous step, so they share a write.
    ``data_pending`` counts queued-but-unsent DELTA messages (an obs
    signal); the slow-consumer *bound* is enforced on ACK lag in the
    fan-out path, which is deterministic where transport buffering is
    not.
    """

    __slots__ = (
        "reader",
        "writer",
        "session",
        "tenant",
        "outbox",
        "data_pending",
        "subscriptions",
        "sender_task",
        "heartbeat_task",
        "closed",
        "peer",
        "last_recv",
    )

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.session: str = ""
        self.tenant: str = ""
        self.outbox: asyncio.Queue = asyncio.Queue()
        self.data_pending = 0
        self.subscriptions: dict[str, Subscription] = {}
        self.sender_task: asyncio.Task | None = None
        self.heartbeat_task: asyncio.Task | None = None
        self.closed = False
        self.last_recv = 0.0
        try:
            self.peer = writer.get_extra_info("peername")
        except Exception:  # pragma: no cover - transport quirk
            self.peer = None

    def send(self, message: Message) -> None:
        """Enqueue one outbound message (never blocks; the bound on
        delta buffering is enforced by the fan-out path)."""
        self.send_wire(encode(message), deltas=message.type is MsgType.DELTA)

    def send_wire(self, wire: bytes, deltas: int = 0) -> None:
        """Enqueue already-encoded bytes, ``deltas`` of them DELTA
        messages — a fan-out encodes once for all its subscribers."""
        if not self.closed:
            self.data_pending += deltas
            self.outbox.put_nowait((wire, deltas))


class TenantRuntime:
    """One tenant's engines, log, quarantine, ingest queue and
    subscriber registry.

    Everything here runs on the event loop; the per-tenant worker task
    applies batches and fans deltas out in one synchronous step, so
    subscribers observe a consistent (seq, delta) order and a
    SUBSCRIBE snapshot can never interleave halfway into a fan-out.
    """

    def __init__(self, name: str, config: ServingConfig) -> None:
        self.name = name
        self.config = config
        self.results: dict[str, Any] = {}
        self.delta_seq: dict[str, int] = {}
        self.delta_log: dict[str, deque] = {}
        self.subscribers: dict[str, list[Subscription]] = {}
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=config.queue_limit)
        self.applied: dict[str, int] = {}  # session -> last applied ingest seq
        #: one validation boundary for every engine: the workload's
        #: relations plus those of each query subscribed so far
        self.quarantine = Quarantine(WORKLOAD_SCHEMAS)
        self.ingested = 0
        self.failed = False
        self.worker: asyncio.Task | None = None
        self._open()

    # -- engine pool ----------------------------------------------------

    def _open(self) -> None:
        """(Re)open the tenant's log — or, in memory, an empty engine
        pool.  ``engines`` *is* the log's engine table, so a checkpoint
        covers exactly the engines the tenant feeds."""
        self.log: DurableLog | None = None
        self.engines: dict[str, Any] = {}
        if self.config.wal_root is None:
            return
        directory = self.config.wal_root / self.name
        if not (directory / WAL_FILE).exists() and any(directory.glob(f"*/{WAL_FILE}")):
            raise EngineStateError(
                f"{directory} holds one WAL per query (the layout before the "
                f"per-tenant log) and cannot be resumed; read a query's last "
                f"result with `repro recover <QUERY> --wal-dir {directory}/<QUERY>`, "
                f"then start the tenant on an empty directory"
            )
        self.log = DurableLog(
            directory, fsync=self.config.fsync, snapshot_every=self.config.snapshot_every
        )
        self.engines = self.log.engines
        # What the log holds will be (or was) applied, whether or not its
        # ACK reached the client before the process went away.
        self.applied.update(self.log.applied)

    def ensure_engine(self, query: str) -> Any:
        """Build (or recover from the log) the tenant's engine for
        ``query`` on first use."""
        engine = self.engines.get(query)
        if engine is not None:
            return engine
        self.quarantine.schemas.update(validation_schemas(query))
        factory = lambda: build_engine(query, self.config.strategy)  # noqa: E731
        if self.log is None:
            engine = self.engines[query] = factory()
        elif query in self.log.births:
            # Replay admits like the live path did, into a scratch
            # quarantine: those rejections were counted when they happened.
            self.log.recover(query, factory, Quarantine(self.quarantine.schemas).admit_frame)
            engine = self.engines[query]
        else:
            engine = self.log.attach(query, factory())
        # setdefault: across a kill/restart the cached value is "what
        # subscribers last saw", and the post-restart fan-out diffs the
        # recovered engine against it — overwriting here would mask a
        # recovery that lost state.
        self.results.setdefault(query, freeze(engine.result()))
        self.delta_seq.setdefault(query, 0)
        self.delta_log.setdefault(query, deque(maxlen=self.config.delta_retain))
        self.subscribers.setdefault(query, [])
        return engine

    # -- ingest / fan-out ----------------------------------------------

    def apply(self, session: str, seq: int, frame: ColumnarFrame) -> bool:
        """Log one ingest frame, admit it, apply it to every engine and
        fan the resulting deltas out; returns ``False`` on a dedup skip.

        Synchronous on purpose — see the class docstring."""
        if self.applied.get(session, 0) >= seq:
            if _SINK.enabled:
                _SINK.inc("serve.dedup_skips")
            return False
        cause = (session, seq)
        if self.log is None:
            outputs = self._apply_frame(frame)
        else:
            outputs = self.log.commit(frame, self._apply_frame, cause)
        self.applied[session] = seq
        self.ingested += len(frame)
        if _SINK.enabled:
            _SINK.inc("serve.ingested", len(frame))
        self._fan_out(cause, outputs)
        return True

    def _apply_frame(self, frame: ColumnarFrame) -> dict[str, Any]:
        """One admission, then the same frame to every engine; returns
        each engine's refreshed result."""
        frame = self.quarantine.admit_frame(frame)
        return {query: engine.on_frame(frame) for query, engine in self.engines.items()}

    def _fan_out(self, cause: tuple[str, int] | None, outputs: dict[str, Any]) -> None:
        """Diff every engine's result against the cached one and ship
        the deltas — each encoded once, whatever the subscriber count;
        evict subscriptions whose buffers are full."""
        for query, output in outputs.items():
            new = freeze(output)
            delta = compute_delta(self.results[query], new)
            if delta is None:
                continue
            self.results[query] = new
            self.delta_seq[query] += 1
            seq = self.delta_seq[query]
            self.delta_log[query].append((seq, delta))
            wire = encode(
                Message(MsgType.DELTA, seq, {"query": query, "delta": delta, "ingest": cause})
            )
            for sub in list(self.subscribers[query]):
                if not sub.active or sub.connection.closed:
                    self.subscribers[query].remove(sub)
                    continue
                if seq - sub.last_acked > self.config.subscriber_buffer:
                    self.evict(sub, reason="slow consumer")
                    continue
                sub.connection.send_wire(wire, deltas=1)
                if _SINK.enabled:
                    _SINK.inc("serve.deltas_sent")
            if _SINK.enabled:
                _SINK.observe("serve.fanout", len(self.subscribers[query]))

    def evict(self, sub: Subscription, *, reason: str) -> None:
        """Drop one subscription (the slow-consumer bound); the client
        is told and recovers by resubscribing."""
        sub.active = False
        with contextlib.suppress(ValueError):
            self.subscribers[sub.query].remove(sub)
        sub.connection.subscriptions.pop(sub.query, None)
        sub.connection.send(
            error_message("evicted", reason, query=sub.query)
        )
        if _SINK.enabled:
            _SINK.inc("serve.evicted")

    # -- subscription ---------------------------------------------------

    def subscribe(
        self, conn: Connection, query: str, resume_from: int | None
    ) -> None:
        """Register a subscription and send its catch-up: retained
        deltas past ``resume_from`` when they are contiguous, else a
        fresh snapshot."""
        self.ensure_engine(query)
        sub = Subscription(conn, query)
        if resume_from is not None:
            sub.last_acked = resume_from
        existing = conn.subscriptions.get(query)
        if existing is not None:
            existing.active = False
            with contextlib.suppress(ValueError):
                self.subscribers[query].remove(existing)
        conn.subscriptions[query] = sub
        self.subscribers[query].append(sub)
        head = self.delta_seq[query]
        if resume_from is not None and resume_from <= head:
            log = self.delta_log[query]
            tail = [(seq, delta) for seq, delta in log if seq > resume_from]
            contiguous = (
                resume_from == head
                or (tail and tail[0][0] == resume_from + 1)
            )
            if contiguous:
                for seq, delta in tail:
                    conn.send(
                        Message(
                            MsgType.DELTA,
                            seq,
                            {"query": query, "delta": delta, "ingest": None},
                        )
                    )
                if _SINK.enabled:
                    _SINK.inc("serve.resumes")
                    _SINK.inc("serve.deltas_sent", len(tail))
                return
        sub.last_acked = head  # the snapshot catches the subscriber up
        conn.send(
            Message(MsgType.SNAPSHOT, head, {"query": query, "result": self.results[query]})
        )
        if _SINK.enabled:
            _SINK.inc("serve.snapshots_sent")

    # -- failure / restart ----------------------------------------------

    def fail(self, detail: str) -> None:
        """Mark the tenant down and tell every subscriber; other
        tenants are untouched — that is the isolation contract."""
        if self.failed:
            return
        self.failed = True
        if _SINK.enabled:
            _SINK.inc("serve.tenant_failures")
        for subs in self.subscribers.values():
            for sub in list(subs):
                sub.active = False
                sub.connection.subscriptions.pop(sub.query, None)
                sub.connection.send(
                    error_message("tenant_failed", detail, query=sub.query)
                )
            subs.clear()

    def kill(self) -> None:
        """Simulate a hard tenant crash: drop the engines on the floor
        (open WAL handle closed, **no** final snapshot — recovery must
        come from the log tail)."""
        if self.log is not None:
            self.log.wal.close()
        self.engines.clear()
        self.failed = True

    def restart(self) -> None:
        """Rebuild every engine from the tenant log and resume
        serving.  Recovery is bit-exact, so surviving subscribers see
        no delta unless the crash actually lost state (it must not:
        append-before-apply)."""
        self._open()
        self.failed = False
        for query in list(self.results):
            self.ensure_engine(query)
        if _SINK.enabled:
            _SINK.inc("serve.tenant_restarts")
        # Honesty check: if recovery diverged, ship the correction.
        self._fan_out(None, {query: engine.result() for query, engine in self.engines.items()})

    # -- worker ---------------------------------------------------------

    async def run(self, server: "SubscriptionServer") -> None:
        """Drain the ingest queue until the shutdown sentinel."""
        while True:
            item = await self.queue.get()
            if item is None:
                return
            conn, session, seq, frame = item
            if self.failed:
                conn.send(error_message("tenant_failed", "tenant is down"))
                continue
            try:
                applied = self.apply(session, seq, frame)
            except Exception as exc:  # noqa: BLE001 - isolation boundary
                self.fail(f"{type(exc).__name__}: {exc}")
                conn.send(
                    error_message("tenant_failed", f"{type(exc).__name__}: {exc}")
                )
                continue
            conn.send(Message(MsgType.INGEST_ACK, seq, {"applied": applied}))
            injector = server.injector
            if injector is not None and injector.tenant_restart_due(
                self.name, self.ingested
            ):
                self.kill()
                self.restart()

    def close_engines(self) -> None:
        """Final checkpoint and log close (the graceful-drain path)."""
        if self.log is not None:
            self.log.close()


class SubscriptionServer:
    """The TCP front-end; see the module docstring for the contract."""

    def __init__(self, config: ServingConfig | None = None, *, injector=None):
        self.config = config or ServingConfig()
        self.injector = injector  # NetFaultInjector (tenant_restart_due)
        self.tenants: dict[str, TenantRuntime] = {}
        self.connections: set[Connection] = set()
        self._server: asyncio.AbstractServer | None = None
        self._session_counter = itertools.count(1)
        self._stopping = False

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )

    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Graceful drain: stop accepting, flush ingest queues, send
        every subscriber a final DRAIN snapshot, checkpoint and close
        the engines, close the connections."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for tenant in self.tenants.values():
            with contextlib.suppress(asyncio.QueueFull):
                tenant.queue.put_nowait(None)
            if tenant.worker is not None:
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(
                        tenant.worker, timeout=self.config.drain_timeout
                    )
        for conn in list(self.connections):
            for query, sub in list(conn.subscriptions.items()):
                tenant = self.tenants.get(conn.tenant)
                if tenant is None or not sub.active:
                    continue
                conn.send(
                    Message(
                        MsgType.DRAIN,
                        tenant.delta_seq.get(query, 0),
                        {"query": query, "result": tenant.results.get(query)},
                    )
                )
            conn.send(Message(MsgType.BYE))
        for tenant in self.tenants.values():
            tenant.close_engines()
        for conn in list(self.connections):
            await self._close_connection(conn)

    async def serve_forever(self) -> None:
        assert self._server is not None, "server not started"
        async with self._server:
            await self._server.serve_forever()

    def tenant(self, name: str) -> TenantRuntime:
        runtime = self.tenants.get(name)
        if runtime is None:
            runtime = TenantRuntime(name, self.config)
            runtime.worker = asyncio.ensure_future(runtime.run(self))
            self.tenants[name] = runtime
        return runtime

    # -- connection plumbing --------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = Connection(reader, writer)
        with contextlib.suppress(Exception):
            writer.transport.set_write_buffer_limits(
                high=self.config.write_buffer_high
            )
        self.connections.add(conn)
        conn.sender_task = asyncio.ensure_future(self._sender(conn))
        if _SINK.enabled:
            _SINK.inc("serve.connections")
        try:
            await self._reader_loop(conn)
        except (EOFError, ConnectionError, asyncio.IncompleteReadError):
            pass  # peer went away; nothing to answer
        except WireFormatError as exc:
            if _SINK.enabled:
                _SINK.inc("serve.bad_frames")
            conn.send(error_message("bad_frame", str(exc)))
        except asyncio.TimeoutError:
            if _SINK.enabled:
                _SINK.inc("serve.idle_closed")
        except ServingError as exc:  # pragma: no cover - defensive
            conn.send(error_message("protocol", str(exc)))
        finally:
            await self._close_connection(conn)

    async def _reader_loop(self, conn: Connection) -> None:
        loop = asyncio.get_running_loop()
        conn.last_recv = loop.time()
        hello = await asyncio.wait_for(
            read_message(conn.reader), timeout=self.config.idle_timeout
        )
        if hello.type is not MsgType.HELLO:
            conn.send(error_message("protocol", "expected HELLO"))
            return
        conn.tenant = str(hello.body.get("tenant") or "default")
        conn.session = str(
            hello.body.get("session") or f"s{next(self._session_counter)}"
        )
        try:
            tenant = self.tenant(conn.tenant)
        except EngineStateError as exc:  # a WAL directory this code cannot resume
            conn.send(error_message("tenant_failed", str(exc)))
            return
        conn.send(
            Message(
                MsgType.WELCOME,
                0,
                {
                    "session": conn.session,
                    "heartbeat_interval": self.config.heartbeat_interval,
                },
            )
        )
        conn.heartbeat_task = asyncio.ensure_future(self._heartbeat(conn))
        # No per-message wait_for: wrapping every read in a task would
        # yield to the event loop even when the next frame is already
        # buffered, letting the tenant worker keep pace with any burst
        # — and the bounded-queue policies would never trigger.  Idle
        # connections are reaped by the heartbeat task instead.
        while not self._stopping:
            message = await read_message(conn.reader)
            conn.last_recv = loop.time()
            if message.type is MsgType.BYE:
                return
            if message.type in (MsgType.PING, MsgType.PONG):
                if message.type is MsgType.PING:
                    conn.send(Message(MsgType.PONG))
                continue
            if message.type is MsgType.SUBSCRIBE:
                if tenant.failed:
                    conn.send(
                        error_message(
                            "tenant_failed",
                            "tenant is down",
                            query=message.body.get("query"),
                        )
                    )
                    continue
                try:
                    tenant.subscribe(
                        conn,
                        str(message.body["query"]),
                        message.body.get("resume_from"),
                    )
                except Exception as exc:  # unknown query, bad strategy…
                    conn.send(
                        error_message(
                            "protocol",
                            f"subscribe failed: {exc}",
                            query=message.body.get("query"),
                        )
                    )
                continue
            if message.type is MsgType.ACK:
                sub = conn.subscriptions.get(message.body.get("query"))
                if sub is not None and message.seq > sub.last_acked:
                    sub.last_acked = message.seq
                continue
            if message.type is MsgType.INGEST:
                await self._ingest(conn, tenant, message)
                continue
            conn.send(error_message("protocol", f"unexpected {message.type.name}"))

    async def _ingest(
        self, conn: Connection, tenant: TenantRuntime, message: Message
    ) -> None:
        if tenant.failed:
            conn.send(error_message("tenant_failed", "tenant is down"))
            return
        try:
            frame = ColumnarFrame.from_bytes(message.body["frame"])
        except Exception as exc:
            # The outer wire frame checked out but the columnar payload
            # is junk — reject the batch, keep the connection: framing
            # is still synchronised.
            if _SINK.enabled:
                _SINK.inc("serve.bad_frames")
            conn.send(error_message("bad_frame", f"bad ingest frame: {exc}"))
            return
        item = (conn, conn.session, message.seq, frame)
        queue = tenant.queue
        if not queue.full():
            queue.put_nowait(item)
            return
        policy = self.config.queue_policy
        if _SINK.enabled:
            _SINK.observe("serve.queue_depth", queue.qsize())
        if policy == "block":
            if _SINK.enabled:
                _SINK.inc("serve.backpressure_waits")
            await queue.put(item)  # stops reading this connection
        elif policy == "shed-newest":
            if _SINK.enabled:
                _SINK.inc("serve.shed")
            conn.send(
                Message(MsgType.INGEST_ACK, message.seq, {"applied": False, "shed": True})
            )
        else:  # disconnect
            if _SINK.enabled:
                _SINK.inc("serve.disconnects")
            conn.send(error_message("overloaded", "ingest queue full"))
            raise EOFError("overloaded connection dropped")

    async def _sender(self, conn: Connection) -> None:
        try:
            while True:
                items = [await conn.outbox.get()]
                while not conn.outbox.empty():  # one write for all that is queued
                    items.append(conn.outbox.get_nowait())
                closing = items[-1] is _CLOSE  # always the last thing queued
                if closing:
                    items.pop()
                conn.writer.write(b"".join(wire for wire, _ in items))
                await conn.writer.drain()
                conn.data_pending -= sum(deltas for _, deltas in items)
                if closing:
                    break
        except (ConnectionError, OSError):
            conn.closed = True

    async def _heartbeat(self, conn: Connection) -> None:
        loop = asyncio.get_running_loop()
        while not conn.closed:
            await asyncio.sleep(self.config.heartbeat_interval)
            if loop.time() - conn.last_recv > self.config.idle_timeout:
                if _SINK.enabled:
                    _SINK.inc("serve.idle_closed")
                with contextlib.suppress(Exception):
                    conn.writer.transport.abort()
                return
            conn.send(Message(MsgType.PING))

    async def _close_connection(self, conn: Connection) -> None:
        if conn.closed and conn not in self.connections:
            return
        conn.closed = True
        self.connections.discard(conn)
        tenant = self.tenants.get(conn.tenant)
        if tenant is not None:
            for sub in list(conn.subscriptions.values()):
                sub.active = False
                with contextlib.suppress(ValueError, KeyError):
                    tenant.subscribers[sub.query].remove(sub)
            conn.subscriptions.clear()
        if conn.heartbeat_task is not None:
            conn.heartbeat_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await conn.heartbeat_task
        if conn.sender_task is not None:
            conn.outbox.put_nowait(_CLOSE)
            try:
                await asyncio.wait_for(conn.sender_task, timeout=1.0)
            except (asyncio.TimeoutError, ConnectionError, OSError):
                conn.sender_task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await conn.sender_task
        with contextlib.suppress(ConnectionError, OSError):
            conn.writer.close()
            await conn.writer.wait_closed()


async def run_server(config: ServingConfig, *, ready=None) -> None:
    """Start a server and run until cancelled or signalled (the
    ``repro serve`` entry point).  ``ready`` is an optional callback
    receiving the bound port once listening.

    SIGTERM and SIGINT both trigger the graceful drain: non-interactive
    shells (CI steps, service managers) start background jobs with
    SIGINT ignored and stop them with SIGTERM, so a server that only
    drains on KeyboardInterrupt would be killed mid-flight everywhere
    except an interactive terminal."""
    server = SubscriptionServer(config)
    await server.start()
    if ready is not None:
        ready(server.port)
    loop = asyncio.get_running_loop()
    stopping = asyncio.Event()
    installed: list[signal.Signals] = []
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stopping.set)
            installed.append(sig)
        except (NotImplementedError, ValueError, RuntimeError):
            pass  # non-main thread or platform without signal support
    serving = asyncio.ensure_future(server.serve_forever())
    stop_requested = asyncio.ensure_future(stopping.wait())
    try:
        await asyncio.wait(
            {serving, stop_requested}, return_when=asyncio.FIRST_COMPLETED
        )
    except asyncio.CancelledError:
        pass
    finally:
        for task in (serving, stop_requested):
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
        for sig in installed:
            loop.remove_signal_handler(sig)
        await server.stop()
