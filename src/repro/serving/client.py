"""Asyncio subscription client with reconnect and delta folding.

The client half of the serving contract: it keeps, per subscribed
query, the folded result (snapshot ⊕ deltas, via
:mod:`~repro.serving.deltas`) and the last acked delta sequence.  On a
connection loss it reconnects with **capped exponential backoff**,
re-HELLOs under the same session id, re-subscribes with
``resume_from=last_acked`` (so the server replays only the missed
tail, or sends a fresh snapshot when the tail is gone), and re-sends
every unacked ingest batch — the server's ``(session, seq)`` dedup
makes the resend idempotent, mirroring the WAL's seq-dedup.

The optional :class:`~repro.faults.NetFaultInjector` hooks let the
chaos suite drive this exact machinery deterministically: scheduled
mid-stream disconnects, reader stalls (slow-consumer), and malformed
outbound frames.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from typing import Any, Sequence

from repro.errors import WireFormatError
from repro.serving.deltas import fold
from repro.serving.protocol import (
    Message,
    MsgType,
    encode,
    read_message,
    write_message,
)
from repro.storage.colbatch import ColumnarFrame
from repro.storage.stream import Event

__all__ = ["SubscriptionClient"]


class SubscriptionClient:
    """One tenant-scoped client connection (plus its reconnect loop).

    Usage (everything runs on one event loop)::

        client = SubscriptionClient(host, port, tenant="acme")
        await client.connect()
        await client.subscribe("VWAP")
        await client.ingest(events)
        await client.settle()          # all ingests acked, queue quiet
        client.results["VWAP"]         # folded snapshot ⊕ deltas
        await client.close()
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        tenant: str = "default",
        session: str | None = None,
        reconnect: bool = True,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        max_reconnects: int = 8,
        auto_resubscribe: bool = True,
        injector=None,
        client_index: int = 0,
    ) -> None:
        self.host = host
        self.port = port
        self.tenant = tenant
        self.session = session or f"client-{id(self):x}"
        self.reconnect = reconnect
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.max_reconnects = max_reconnects
        self.auto_resubscribe = auto_resubscribe
        self.injector = injector  # NetFaultInjector hooks (chaos suite)
        self.client_index = client_index

        #: query -> folded result (None until the snapshot arrives)
        self.results: dict[str, Any] = {}
        #: query -> last acked delta seq
        self.acked: dict[str, int] = {}
        self.subscribed: set[str] = set()
        self.evicted: set[str] = set()
        self.ingest_seq = 0
        #: unacked ingests, seq -> encoded frame bytes (resent on reconnect)
        self.pending_ingest: dict[int, bytes] = {}
        self.shed_seqs: list[int] = []
        #: (query, delta_seq, seconds) per self-caused delta (bench)
        self.delta_latencies: list[tuple[str, int, float]] = []
        self._send_times: dict[int, float] = {}

        self.deltas_seen = 0
        self.messages_seen = 0
        self.messages_sent = 0
        self.reconnects = 0
        self.bad_frames_sent = 0
        self.drained: dict[str, Any] = {}
        self.closed = False

        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._recv_task: asyncio.Task | None = None
        self._connected = asyncio.Event()

    # -- connection -----------------------------------------------------

    async def connect(self) -> None:
        """Open the connection, HELLO, await WELCOME, replay state
        (subscriptions + unacked ingests) when reconnecting."""
        try:
            await self._do_reconnect()
        except (ConnectionError, OSError, EOFError, WireFormatError):
            # e.g. a chaos-garbled HELLO got the connection dropped;
            # each fault fires once, so the backoff retry goes through
            if not self.reconnect or not await self._reconnect():
                raise
        if self._recv_task is None or self._recv_task.done():
            self._recv_task = asyncio.ensure_future(self._recv_loop())

    async def close(self) -> None:
        self.closed = True
        if self._writer is not None:
            with contextlib.suppress(ConnectionError, OSError):
                await self._send(Message(MsgType.BYE))
                self._writer.close()
                await self._writer.wait_closed()
        if self._recv_task is not None:
            self._recv_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._recv_task

    # -- requests -------------------------------------------------------

    async def subscribe(self, query: str) -> None:
        self.subscribed.add(query)
        self.evicted.discard(query)
        await self._send(
            Message(
                MsgType.SUBSCRIBE,
                0,
                {"query": query, "resume_from": self.acked.get(query)},
            )
        )

    async def ingest(self, events: Sequence[Event]) -> int:
        """Ship one batch; returns its ingest seq (acked later)."""
        self.ingest_seq += 1
        seq = self.ingest_seq
        frame = ColumnarFrame.from_events(list(events))
        wire = encode(Message(MsgType.INGEST, seq, {"frame": frame.to_bytes()}))
        self.pending_ingest[seq] = wire
        self._send_times[seq] = time.perf_counter()
        await self._send_raw(wire)
        return seq

    async def settle(self, timeout: float = 30.0) -> None:
        """Wait until every ingest is acked (or shed) and the receive
        loop has gone quiet for one scheduling beat."""
        deadline = time.monotonic() + timeout
        while self.pending_ingest:
            if time.monotonic() > deadline:
                raise asyncio.TimeoutError(
                    f"{len(self.pending_ingest)} ingests still unacked"
                )
            await asyncio.sleep(0.005)
        await asyncio.sleep(0)

    async def wait_for(self, predicate, timeout: float = 30.0) -> None:
        """Poll ``predicate()`` (over ``self``) until true."""
        deadline = time.monotonic() + timeout
        while not predicate(self):
            if time.monotonic() > deadline:
                raise asyncio.TimeoutError("predicate never became true")
            await asyncio.sleep(0.005)

    # -- receive path ---------------------------------------------------

    async def _recv_loop(self) -> None:
        while not self.closed:
            try:
                message = await read_message(self._reader)
            except (EOFError, WireFormatError, ConnectionError, OSError):
                self._connected.clear()
                if self.closed or not self.reconnect:
                    return
                if not await self._reconnect():
                    return
                continue
            self.messages_seen += 1
            await self._dispatch(message)
            if await self._maybe_inject_read_faults():
                continue

    async def _dispatch(self, message: Message) -> None:
        mtype = message.type
        if mtype is MsgType.SNAPSHOT:
            query = message.body["query"]
            self.results[query] = message.body["result"]
            self.acked[query] = message.seq
        elif mtype is MsgType.DELTA:
            query = message.body["query"]
            if query in self.acked and message.seq <= self.acked[query]:
                return  # already folded (in-flight duplicate across a resume)
            # Every result here was decoded off the wire for this client.
            self.results[query] = fold(
                self.results.get(query), message.body["delta"], in_place=True
            )
            self.acked[query] = message.seq
            self.deltas_seen += 1
            cause = message.body.get("ingest")
            if cause is not None and cause[0] == self.session:
                sent = self._send_times.get(cause[1])
                if sent is not None:
                    self.delta_latencies.append(
                        (query, message.seq, time.perf_counter() - sent)
                    )
            await self._send(Message(MsgType.ACK, message.seq, {"query": query}))
        elif mtype is MsgType.INGEST_ACK:
            self.pending_ingest.pop(message.seq, None)
            if message.body.get("shed"):
                self.shed_seqs.append(message.seq)
        elif mtype is MsgType.PING:
            await self._send(Message(MsgType.PONG))
        elif mtype is MsgType.DRAIN:
            query = message.body["query"]
            self.drained[query] = message.body["result"]
            self.results[query] = message.body["result"]
            self.acked[query] = message.seq
        elif mtype is MsgType.ERROR:
            code = message.body.get("code")
            query = message.body.get("query")
            if code == "evicted" and query:
                self.evicted.add(query)
                if self.auto_resubscribe and query in self.subscribed:
                    await self.subscribe(query)
            # other codes (tenant_failed, overloaded, bad_frame) are
            # surfaced through state the caller can inspect
            elif code == "tenant_failed" and query:
                self.evicted.add(query)
        elif mtype is MsgType.BYE:
            self.closed = True

    async def _maybe_inject_read_faults(self) -> bool:
        """Chaos hooks: scheduled stalls and mid-stream disconnects."""
        if self.injector is None:
            return False
        stall = self.injector.stall_for(self.client_index, self.messages_seen)
        if stall > 0:
            # Stop draining the socket: the server's slow-consumer
            # bound is what this exercises.
            await asyncio.sleep(stall)
        if self.injector.should_disconnect(self.client_index, self.deltas_seen):
            # Abort without a goodbye — mid-delta-stream cable pull.
            self._connected.clear()
            if self._writer is not None:
                with contextlib.suppress(Exception):
                    self._writer.transport.abort()
            if self.reconnect and not self.closed:
                return not await self._reconnect()
            return True
        return False

    async def _reconnect(self) -> bool:
        """Capped exponential backoff; resumes subscriptions from the
        last acked delta seq and re-sends unacked ingests."""
        for attempt in range(self.max_reconnects):
            await asyncio.sleep(
                min(self.backoff_cap, self.backoff_base * (2**attempt))
            )
            try:
                await self._do_reconnect()
            except (ConnectionError, OSError, EOFError, WireFormatError):
                continue
            self.reconnects += 1
            return True
        return False

    async def _do_reconnect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(self.host, self.port)
        await self._send(
            Message(
                MsgType.HELLO, 0, {"tenant": self.tenant, "session": self.session}
            )
        )
        welcome = await read_message(self._reader)
        if welcome.type is not MsgType.WELCOME:
            raise WireFormatError(f"expected WELCOME, got {welcome.type.name}")
        self._connected.set()
        for query in sorted(self.subscribed):
            await self._send(
                Message(
                    MsgType.SUBSCRIBE,
                    0,
                    {"query": query, "resume_from": self.acked.get(query)},
                )
            )
        for seq in sorted(self.pending_ingest):
            await self._send_raw(self.pending_ingest[seq])

    # -- send path ------------------------------------------------------

    async def _send(self, message: Message) -> None:
        await self._send_raw(encode(message))

    async def _send_raw(self, wire: bytes) -> None:
        self.messages_sent += 1
        if self.injector is not None:
            mode = self.injector.bad_frame(self.client_index, self.messages_sent)
            if mode == "garble":
                garbled = bytearray(wire)
                garbled[len(garbled) // 2] ^= 0xFF
                garbled[-1] ^= 0xFF
                wire = bytes(garbled)
                self.bad_frames_sent += 1
            elif mode == "truncate":
                wire = wire[: max(1, len(wire) // 3)]
                self.bad_frames_sent += 1
                self._writer.write(wire)
                with contextlib.suppress(ConnectionError, OSError):
                    await self._writer.drain()
                # A torn frame desynchronises the stream; hang up like
                # a crashing peer would.
                self._writer.transport.abort()
                self._connected.clear()
                return
        try:
            self._writer.write(wire)
            await self._writer.drain()
        except (ConnectionError, OSError):
            if not self.reconnect or self.closed:
                raise
            # The connection died under this write.  Subscriptions and
            # unacked ingests are replayed by the reconnect path, so
            # dropping the write is safe; anything else (ACK, PONG)
            # the server tolerates losing.
