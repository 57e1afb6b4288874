"""Length-prefixed, CRC-framed wire protocol for the serving layer.

Same framing discipline as the write-ahead log (:mod:`repro.storage.wal`),
lifted onto a TCP stream: every message is

    ``magic | type | seq | payload-length | CRC-32(payload) | payload``

with a little-endian ``<4sBQII`` header and a pickled body.  The CRC
and a sanity bound on the length field mean a garbled or truncated
frame is *detected* — :class:`~repro.errors.WireFormatError` — never
silently decoded into junk.  Framing errors are connection-fatal by
design: once the byte stream loses sync there is no way to find the
next frame boundary, so the server drops the connection (counted under
``serve.bad_frames``) and the client reconnects with a clean slate.

Message types (the ``seq`` header field is per-type):

========== ================ ==========================================
type        seq means        body
========== ================ ==========================================
HELLO       0                ``{tenant, session}`` — session ids are
                             client-chosen and stable across
                             reconnects (they key server-side ingest
                             dedup, mirroring WAL seq-dedup)
WELCOME     0                ``{session, heartbeat_interval}``
SUBSCRIBE   0                ``{query, resume_from?}`` — resume_from
                             is the last delta seq the client acked;
                             the server replays retained deltas past
                             it, or falls back to a fresh snapshot
SNAPSHOT    delta seq        ``{query, result}`` — full result
DELTA       delta seq        ``{query, delta, ingest}`` — one
                             :mod:`~repro.serving.deltas` payload;
                             ``ingest`` is the ``(session, seq)`` of
                             the ingest batch that caused it (latency
                             attribution in the bench)
ACK         delta seq        ``{query}``
INGEST      ingest seq       ``{frame}`` — ``ColumnarFrame.to_bytes``
INGEST_ACK  ingest seq       ``{applied, shed?}``
PING/PONG   0                ``{}``
ERROR       0                ``{code, detail?, query?}`` — codes:
                             ``bad_frame``, ``overloaded``,
                             ``evicted``, ``tenant_failed``,
                             ``protocol``
DRAIN       delta seq        ``{query, result}`` — final snapshot on
                             graceful shutdown
BYE         0                ``{}``
========== ================ ==========================================
"""

from __future__ import annotations

import asyncio
import enum
import pickle
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any

from repro.errors import WireFormatError

__all__ = [
    "MAX_FRAME_BYTES",
    "Message",
    "MsgType",
    "encode",
    "decode_body",
    "error_message",
    "read_message",
    "write_message",
]

_MAGIC = b"RSV1"
_HEADER = struct.Struct("<4sBQII")  # magic, type, seq, payload length, payload crc32
_PICKLE = pickle.HIGHEST_PROTOCOL

#: refuse to allocate for a length field no real message reaches: the
#: largest (a grouped SNAPSHOT, a 64k-event INGEST) are a few MiB
MAX_FRAME_BYTES = 1 << 24


class MsgType(enum.IntEnum):
    HELLO = 1
    WELCOME = 2
    SUBSCRIBE = 3
    SNAPSHOT = 4
    DELTA = 5
    ACK = 6
    INGEST = 7
    INGEST_ACK = 8
    PING = 9
    PONG = 10
    ERROR = 11
    DRAIN = 12
    BYE = 13


@dataclass(frozen=True)
class Message:
    """One wire message: a type, a per-type sequence number, a body."""

    type: MsgType
    seq: int = 0
    body: dict = field(default_factory=dict)


def encode(message: Message) -> bytes:
    """Frame one message into wire bytes."""
    payload = pickle.dumps(message.body, protocol=_PICKLE)
    header = _HEADER.pack(
        _MAGIC, int(message.type), message.seq, len(payload), zlib.crc32(payload)
    )
    return header + payload


def decode_body(header: bytes, payload: bytes) -> Message:
    """Decode one already-read frame; raises
    :class:`~repro.errors.WireFormatError` on any integrity failure."""
    try:
        magic, mtype, seq, length, crc = _HEADER.unpack(header)
    except struct.error as exc:
        raise WireFormatError(f"torn frame header ({len(header)} bytes)") from exc
    if magic != _MAGIC:
        raise WireFormatError(f"bad frame magic {magic!r}")
    if len(payload) != length:
        raise WireFormatError(f"torn frame payload ({len(payload)}/{length} bytes)")
    if zlib.crc32(payload) != crc:
        raise WireFormatError("frame payload failed CRC check")
    try:
        mtype = MsgType(mtype)
        body = pickle.loads(payload)
    except Exception as exc:
        raise WireFormatError(f"undecodable frame body: {exc}") from exc
    if not isinstance(body, dict):
        raise WireFormatError(f"frame body is {type(body).__name__}, expected dict")
    return Message(mtype, seq, body)


async def read_message(reader: asyncio.StreamReader) -> Message:
    """Read exactly one framed message from the stream.

    Raises:
        EOFError: the peer closed cleanly at a frame boundary.
        WireFormatError: garbled magic/CRC, an implausible length, or a
            connection torn mid-frame.
    """
    header = await reader.read(_HEADER.size)
    if not header:
        raise EOFError("connection closed")
    while len(header) < _HEADER.size:
        chunk = await reader.read(_HEADER.size - len(header))
        if not chunk:
            raise WireFormatError(f"torn frame header ({len(header)} bytes)")
        header += chunk
    try:
        _, _, _, length, _ = _HEADER.unpack(header)
    except struct.error as exc:  # pragma: no cover - size is exact above
        raise WireFormatError("torn frame header") from exc
    if length > MAX_FRAME_BYTES:
        raise WireFormatError(f"implausible frame length {length}")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise WireFormatError(
            f"torn frame payload ({len(exc.partial)}/{length} bytes)"
        ) from exc
    return decode_body(header, payload)


async def write_message(writer: asyncio.StreamWriter, message: Message) -> None:
    """Frame and send one message, honouring transport backpressure."""
    writer.write(encode(message))
    await writer.drain()


def error_message(code: str, detail: str = "", **extra: Any) -> Message:
    """Convenience constructor for ERROR messages."""
    body = {"code": code}
    if detail:
        body["detail"] = detail
    body.update(extra)
    return Message(MsgType.ERROR, 0, body)
