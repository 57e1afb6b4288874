"""Columnar event frames: the shard data plane's wire format.

A :class:`ColumnarFrame` represents one event batch as parallel typed
columns instead of one Python object per event.  Shipping pickled
``Event`` tuples over pipes makes every event pay pickle framing, a
dict header, per-key string re-serialization and a pipe syscall
share.  A frame pays those costs once per *column* — the
payload for a 500-event batch of all-int order-book rows is a handful
of ``array`` buffers plus one small pickled skeleton.

Layout
------

Events are grouped into **blocks**, one per relation (in first-seen
order).  A block stores the relation name, the column names/kinds
derived from the first conforming row, one value list per column, and
the per-row weights.  Column kinds:

* ``'i'`` — exact ``int`` values (``bool`` excluded so decode is
  type-faithful); serialized as the narrowest of ``array('b'/'h'/'i'/
  'q')`` that covers the batch's min/max.
* ``'f'`` — exact ``float`` values; serialized as ``array('d')``.
* ``'s'`` — ``str`` values; dictionary-encoded (unique strings + a
  narrow integer code column), which collapses low-cardinality columns
  like TPC-H brands/containers to ~1 byte per row.

A one-byte-per-event **order sequence** maps each event position to its
block (or to the fallback list), so decoding reproduces the original
interleaved event order exactly — the property the sharded executors'
per-replica determinism relies on.

Rows that do not conform — unknown value types, a key set differing
from the block layout, out-of-int64 magnitudes — go to a **pickle
side-channel** (``fallback``): a plain list of Events serialized the
old way.  Encode→decode therefore round-trips *any* event list
bit-exactly; the columnar path is a fast path, never a constraint.

``to_bytes``/``from_bytes`` give the explicit wire form (the serving
protocol, the shared-memory ring transport, the WAL's frame records);
both memoize it, so a frame that crosses several of them is encoded at
most once.  ``__reduce__`` routes ordinary pickling (the restore
protocol) through the same compact encoding.
"""

from __future__ import annotations

import pickle
import zlib
from array import array
from collections import deque
from itertools import repeat
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import EngineStateError
from repro.storage.stream import Event

__all__ = ["ColumnBlock", "ColumnarFrame", "apply_events"]

#: order-sequence marker for "this event lives in the pickle fallback"
FALLBACK_BLOCK = 0xFF

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

#: most a compressed frame may inflate to (``from_bytes`` input comes
#: off a socket: a few KiB of deflate can claim gigabytes)
MAX_INFLATED_BYTES = 1 << 26

#: array typecodes a column of each kind may arrive in: block-level
#: admission trusts the declared kinds
_KIND_TYPECODES = {"i": "bhiq", "f": "d"}

#: (typecode, min, max) candidates for integer columns, narrowest first
_INT_CODES = (
    ("b", -(1 << 7), (1 << 7) - 1),
    ("h", -(1 << 15), (1 << 15) - 1),
    ("i", -(1 << 31), (1 << 31) - 1),
    ("q", _INT64_MIN, _INT64_MAX),
)


def _narrowest_int_code(values: Sequence[int]) -> str:
    if not values:
        return "b"
    lo, hi = min(values), max(values)
    for code, cmin, cmax in _INT_CODES:
        if cmin <= lo and hi <= cmax:
            return code
    raise EngineStateError("integer column exceeds int64")  # pragma: no cover


def _kind_of(value: Any) -> str | None:
    """Column kind for ``value``, or ``None`` when it must fall back.

    Exact-type checks on purpose: ``bool`` (an ``int`` subclass) and
    other subclasses would not round-trip type-faithfully through a
    typed array, so they take the pickle side-channel."""
    tp = type(value)
    if tp is int:
        return "i" if _INT64_MIN <= value <= _INT64_MAX else None
    if tp is float:
        return "f"
    if tp is str:
        return "s"
    return None


class ColumnBlock:
    """One relation's columnar rows inside a frame."""

    __slots__ = ("relation", "names", "kinds", "columns", "weights")

    def __init__(
        self,
        relation: str,
        names: tuple[str, ...],
        kinds: tuple[str, ...],
        columns: list[list] | None = None,
        weights: list[int] | None = None,
    ) -> None:
        self.relation = relation
        self.names = names
        self.kinds = kinds
        self.columns = [[] for _ in names] if columns is None else columns
        self.weights = [] if weights is None else weights

    @classmethod
    def for_row(cls, relation: str, row: Any) -> "ColumnBlock | None":
        """Derive a block layout from one row, or ``None`` when the row
        cannot be stored columnar (then it — and any other first row of
        this relation — goes to the fallback)."""
        names = tuple(row.keys())
        kinds = []
        for name in names:
            kind = _kind_of(row[name])
            if kind is None:
                return None
            kinds.append(kind)
        return cls(relation, names, tuple(kinds))

    @classmethod
    def from_schema(cls, relation: str, schema: Any) -> "ColumnBlock | None":
        """Derive a block layout from a declared
        :class:`~repro.storage.schema.Schema` instead of a sample row:
        kinds come from the declared column types
        (:meth:`~repro.storage.schema.Schema.column_kinds`), so a row
        whose *values* happen to violate the declaration (a float in an
        int column) falls back rather than poisoning the layout.
        ``None`` when the schema is not fully typed."""
        kinds = schema.column_kinds()
        if kinds is None:
            return None
        return cls(relation, tuple(schema.columns), kinds)

    def empty_like(self) -> "ColumnBlock":
        return ColumnBlock(self.relation, self.names, self.kinds)

    def try_append(self, row: Any, weight: int) -> bool:
        """Append one row if it conforms to this block's layout."""
        names = self.names
        if len(row) != len(names):
            return False
        staged = []
        for name, kind in zip(names, self.kinds):
            try:
                value = row[name]
            except KeyError:
                return False
            if _kind_of(value) != kind:
                return False
            staged.append(value)
        for column, value in zip(self.columns, staged):
            column.append(value)
        self.weights.append(weight)
        return True

    def copy_row(self, source: "ColumnBlock", index: int) -> None:
        """Append row ``index`` of ``source`` (same layout) to this
        block — the no-dict gather used by frame partitioning."""
        for column, src in zip(self.columns, source.columns):
            column.append(src[index])
        self.weights.append(source.weights[index])

    def column(self, name: str) -> list:
        """Value list of column ``name`` (raises ``KeyError`` if absent)."""
        try:
            return self.columns[self.names.index(name)]
        except ValueError:
            raise KeyError(name) from None

    def row(self, index: int) -> dict:
        return {
            name: column[index] for name, column in zip(self.names, self.columns)
        }

    def __len__(self) -> int:
        return len(self.weights)


class ColumnarFrame:
    """An event batch as typed columns plus a pickle side-channel."""

    __slots__ = ("blocks", "fallback", "_seq", "_encoded", "_events")

    def __init__(
        self,
        blocks: list[ColumnBlock] | None = None,
        fallback: list[Event] | None = None,
        seq: array | None = None,
    ) -> None:
        self.blocks = [] if blocks is None else blocks
        self.fallback = [] if fallback is None else fallback
        self._seq = array("B") if seq is None else seq
        self._encoded: bytes | None = None
        self._events: list[Event] | None = None

    # -- construction ---------------------------------------------------

    @classmethod
    def from_events(
        cls,
        events: Iterable[Event],
        schemas: Any | None = None,
    ) -> "ColumnarFrame":
        """Encode an event sequence; order is preserved exactly.

        ``schemas`` (an optional ``{relation: Schema}`` mapping) lets a
        fully-typed declared schema supply the block layout; it is only
        trusted when its column order matches the first row's key order,
        so decoded rows keep their exact key order either way.
        """
        frame = cls()
        blocks = frame.blocks
        seq = frame._seq.append
        fallback = frame.fallback
        by_relation: dict[str, int] = {}
        for event in events:
            index = by_relation.get(event.relation)
            if index is None:
                block = None
                if len(blocks) < FALLBACK_BLOCK:
                    if schemas is not None:
                        schema = schemas.get(event.relation)
                        if schema is not None and tuple(schema.columns) == tuple(
                            event.row.keys()
                        ):
                            block = ColumnBlock.from_schema(event.relation, schema)
                    if block is None:
                        block = ColumnBlock.for_row(event.relation, event.row)
                if block is None:
                    by_relation[event.relation] = index = -1
                else:
                    blocks.append(block)
                    by_relation[event.relation] = index = len(blocks) - 1
            if index >= 0 and blocks[index].try_append(event.row, event.weight):
                seq(index)
            else:
                fallback.append(event)
                seq(FALLBACK_BLOCK)
        return frame

    def empty_like(self) -> "ColumnarFrame":
        """A frame with the same block layouts and no rows."""
        return ColumnarFrame([block.empty_like() for block in self.blocks])

    # -- reading --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._seq)

    def order(self) -> Iterator[tuple[int, int]]:
        """Yield ``(block_index, row_index)`` per event position, in the
        original event order; ``block_index == -1`` addresses the
        fallback list."""
        cursors = [0] * (len(self.blocks) + 1)
        for block_index in self._seq:
            if block_index == FALLBACK_BLOCK:
                row = cursors[-1]
                cursors[-1] = row + 1
                yield -1, row
            else:
                row = cursors[block_index]
                cursors[block_index] = row + 1
                yield block_index, row

    def events(self) -> list[Event]:
        """Decode back to the original event list (exact round-trip);
        memoized, so engines fed the same frame share one decode."""
        if self._events is not None:
            return self._events
        out: list[Event] = []
        blocks = self.blocks
        fallback = self.fallback
        for block_index, row_index in self.order():
            if block_index < 0:
                out.append(fallback[row_index])
            else:
                block = blocks[block_index]
                out.append(
                    Event(
                        block.relation,
                        block.row(row_index),
                        block.weights[row_index],
                    )
                )
        self._events = out
        return out

    def feed(
        self,
        handlers: Mapping[str, tuple[Callable, Sequence[str]]],
        target: Any,
        on_event: Callable[[Event], Any],
    ) -> None:
        """Call ``handler(target, weight, *column values)`` once per
        row, in the original event order, reading the typed columns
        directly — no :class:`Event` and no row dict is built.

        ``handlers`` is ``{relation: (handler, column names)}``; blocks
        of other relations (and blocks left without rows, whatever their
        layout) are skipped without touching a column, and
        side-channel rows go through ``on_event(event)``.  Each block to
        read becomes one lazy ``map(handler, …columns)``: taking its
        next item *is* the call for the block's next row.  With at most
        one such block (and no side channel) the order sequence is moot
        and the map is drained in one go; otherwise the maps are
        advanced in ``_seq`` order.  A block that lacks a declared
        column raises ``KeyError`` before any call.

        Callers: the hand-written classes' ``row_handlers``, and the
        compiled ``apply_frame`` of an aggregate-index engine whose side
        takes tuples one by one (Q17, Q18): its row functions are the
        side's own move statements.
        """
        readers: list[Iterator | None] = []
        for block in self.blocks:
            entry = handlers.get(block.relation)
            if entry is None or not block.weights:
                readers.append(None)
            else:
                handler, names = entry
                readers.append(
                    map(handler, repeat(target), block.weights, *map(block.column, names))
                )
        live = [reader for reader in readers if reader is not None]
        if not self.fallback and len(live) <= 1:
            for reader in live:
                deque(reader, maxlen=0)
            return
        side_channel = map(on_event, self.fallback)
        for block_index in self._seq:
            reader = (
                side_channel if block_index == FALLBACK_BLOCK else readers[block_index]
            )
            if reader is not None:
                next(reader)

    # -- partitioning (driven by the ShardRouter) ----------------------

    def partition(
        self,
        shards: int,
        block_assign: Sequence[Any],
        fallback_assign: Callable[[Event], int | None],
    ) -> "list[ColumnarFrame]":
        """Split into per-shard frames without decoding rows.

        ``block_assign[i]`` describes block ``i``'s routing: an ``int``
        (every row of the block goes to that shard), ``None`` (broadcast
        every row to all shards), or a per-row sequence of shard
        indices.  ``fallback_assign`` routes each side-channel event
        (``None`` = broadcast).  Every output frame preserves the
        original relative event order — the same guarantee as the
        event-list ``split``."""
        parts = [self.empty_like() for _ in range(shards)]
        part_blocks = [part.blocks for part in parts]
        for block_index, row_index in self.order():
            if block_index < 0:
                event = self.fallback[row_index]
                target = fallback_assign(event)
                for shard, part in enumerate(parts):
                    if target is None or target == shard:
                        part.fallback.append(event)
                        part._seq.append(FALLBACK_BLOCK)
                continue
            assign = block_assign[block_index]
            if assign is None:
                target = None
            elif isinstance(assign, int):
                target = assign
            else:
                target = assign[row_index]
            source = self.blocks[block_index]
            if target is None:
                for shard in range(shards):
                    part_blocks[shard][block_index].copy_row(source, row_index)
                    parts[shard]._seq.append(block_index)
            else:
                part_blocks[target][block_index].copy_row(source, row_index)
                parts[target]._seq.append(block_index)
        return parts

    # -- serialization --------------------------------------------------

    def to_bytes(self) -> bytes:
        """The compact wire form (memoized: frames are not mutated once
        they enter the transport)."""
        if self._encoded is not None:
            return self._encoded
        blocks_payload = []
        for block in self.blocks:
            columns_payload = []
            for name, kind, values in zip(block.names, block.kinds, block.columns):
                if kind == "i":
                    code = _narrowest_int_code(values)
                    columns_payload.append(
                        (name, "i", code, array(code, values).tobytes())
                    )
                elif kind == "f":
                    columns_payload.append(
                        (name, "f", "d", array("d", values).tobytes())
                    )
                else:  # 's': dictionary encoding
                    uniques: list[str] = []
                    mapping: dict[str, int] = {}
                    codes: list[int] = []
                    for value in values:
                        code_index = mapping.get(value)
                        if code_index is None:
                            code_index = mapping[value] = len(uniques)
                            uniques.append(value)
                        codes.append(code_index)
                    code = _narrowest_int_code(codes)
                    columns_payload.append(
                        (
                            name,
                            "s",
                            (tuple(uniques), code),
                            array(code, codes).tobytes(),
                        )
                    )
            blocks_payload.append(
                (
                    block.relation,
                    array("b", block.weights).tobytes(),
                    columns_payload,
                )
            )
        # The order sequence is elided on the common single-block,
        # no-fallback frame (it would be all zeros).
        seq_payload = (
            self._seq.tobytes()
            if (self.fallback or len(self.blocks) > 1)
            else None
        )
        payload = (
            len(self._seq),
            seq_payload,
            blocks_payload,
            self.fallback or None,
        )
        raw = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        # Typed columns of clustered keys compress extremely well; a
        # level-1 deflate pass is microseconds on a transport-sized
        # frame and shrinks the wire/WAL footprint further.  One flag
        # byte records whether it paid off.
        packed = zlib.compress(raw, 1) if len(raw) > 128 else raw
        self._encoded = (
            b"\x01" + packed if len(packed) < len(raw) else b"\x00" + raw
        )
        return self._encoded

    @classmethod
    def from_bytes(cls, data: bytes) -> "ColumnarFrame":
        """Decode the wire form; ``data`` stays on as the memoized
        encoding, so logging or forwarding a received frame costs no
        second ``to_bytes``."""
        body = data[1:]
        if data[:1] == b"\x01":
            inflater = zlib.decompressobj()
            body = inflater.decompress(body, MAX_INFLATED_BYTES)
            if inflater.unconsumed_tail:
                raise EngineStateError(f"frame inflates past {MAX_INFLATED_BYTES} bytes")
        length, seq_payload, blocks_payload, fallback = pickle.loads(body)
        blocks = []
        for relation, weight_bytes, columns_payload in blocks_payload:
            weights_arr = array("b")
            weights_arr.frombytes(weight_bytes)
            names, kinds, columns = [], [], []
            for name, kind, meta, column_bytes in columns_payload:
                if kind == "s":
                    uniques, code = meta
                    if not all(type(unique) is str for unique in uniques):
                        raise EngineStateError(f"column {name!r}: non-str value in a str column")
                    codes = array(code)
                    codes.frombytes(column_bytes)
                    values = [uniques[c] for c in codes]
                else:
                    if meta not in _KIND_TYPECODES.get(kind, ""):
                        raise EngineStateError(
                            f"column {name!r}: kind {kind!r} over typecode {meta!r}"
                        )
                    arr = array(meta)
                    arr.frombytes(column_bytes)
                    values = arr.tolist()
                names.append(name)
                kinds.append(kind)
                columns.append(values)
            blocks.append(
                ColumnBlock(
                    relation,
                    tuple(names),
                    tuple(kinds),
                    columns,
                    weights_arr.tolist(),
                )
            )
        if seq_payload is None:
            seq = array("B", bytes(length))
        else:
            seq = array("B")
            seq.frombytes(seq_payload)
        frame = cls(blocks, list(fallback) if fallback else [], seq)
        if type(data) is bytes:
            frame._encoded = data
        return frame

    def __reduce__(self):
        # WAL records and the restore protocol pickle frames; route them
        # through the columnar encoding instead of the slot graph.
        return (ColumnarFrame.from_bytes, (self.to_bytes(),))


def apply_events(engine, payload) -> None:
    """Apply one transported/logged batch to ``engine``.

    Payloads are either a :class:`ColumnarFrame` (columnar transport,
    frame-logging WAL) or a plain event sequence (legacy logs, degraded
    paths); this is the single entry point of shard workers and every
    replay site (worker restore, in-process recovery, offline recovery).
    It updates state only (``apply_frame``/``apply_batch``): the payload
    was admitted and counted when it was first applied, and a replay
    reads the result once, at its end."""
    if isinstance(payload, ColumnarFrame):
        engine.apply_frame(payload)
    else:
        engine.apply_batch(payload)
