"""Wire protocol framing and the result delta algebra.

The framing tests pin the same guarantees the WAL tests pin for disk
records, at the socket boundary: messages round-trip exactly, and a
garbled, truncated, or implausible frame raises a typed
:class:`~repro.errors.WireFormatError` instead of decoding junk.  The
delta tests pin the serving layer's core identity —
``fold(prev, compute_delta(prev, cur))`` is **bit-identical** to
``cur`` — including the float cases where an additive delta would not
be.
"""

from __future__ import annotations

import asyncio
import pickle

import pytest

from repro.errors import WireFormatError
from repro.serving.deltas import REMOVE, compute_delta, fold, freeze
from repro.serving.protocol import (
    MAX_FRAME_BYTES,
    Message,
    MsgType,
    encode,
    read_message,
)


def read_from_bytes(data: bytes):
    """Drive read_message over an in-memory stream."""

    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_message(reader)

    return asyncio.run(run())


class TestFraming:
    @pytest.mark.parametrize(
        "message",
        [
            Message(MsgType.HELLO, 0, {"tenant": "acme", "session": "s-1"}),
            Message(MsgType.DELTA, 42, {"query": "VWAP", "delta": ("set", 1.5)}),
            Message(MsgType.INGEST, 7, {"frame": b"\x00" * 300}),
            Message(MsgType.PING),
        ],
    )
    def test_round_trip(self, message):
        assert read_from_bytes(encode(message)) == message

    def test_messages_concatenate(self):
        first = Message(MsgType.PING)
        second = Message(MsgType.ACK, 9, {"query": "EQ"})

        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(encode(first) + encode(second))
            reader.feed_eof()
            return await read_message(reader), await read_message(reader)

        assert asyncio.run(run()) == (first, second)

    def test_clean_eof_raises_eoferror(self):
        with pytest.raises(EOFError):
            read_from_bytes(b"")

    def test_garbled_payload_fails_crc(self):
        wire = bytearray(encode(Message(MsgType.DELTA, 1, {"query": "EQ"})))
        wire[-1] ^= 0xFF
        with pytest.raises(WireFormatError, match="CRC"):
            read_from_bytes(bytes(wire))

    def test_bad_magic_rejected(self):
        wire = bytearray(encode(Message(MsgType.PING)))
        wire[0] ^= 0xFF
        with pytest.raises(WireFormatError, match="magic"):
            read_from_bytes(bytes(wire))

    def test_truncated_frame_detected(self):
        wire = encode(Message(MsgType.SNAPSHOT, 3, {"query": "VWAP", "result": 1.0}))
        with pytest.raises(WireFormatError, match="torn"):
            read_from_bytes(wire[: len(wire) - 4])

    def test_torn_header_detected(self):
        wire = encode(Message(MsgType.PING))
        with pytest.raises(WireFormatError, match="torn"):
            read_from_bytes(wire[:9])

    def test_implausible_length_rejected_before_allocation(self):
        import struct
        import zlib

        header = struct.Struct("<4sBQII").pack(
            b"RSV1", int(MsgType.PING), 0, MAX_FRAME_BYTES + 1, zlib.crc32(b"")
        )
        with pytest.raises(WireFormatError, match="implausible"):
            read_from_bytes(header)

    def test_frame_limit_is_16_mib(self):
        """Large enough for any real message, small enough that a
        garbage length field cannot make the reader allocate a gigabyte:
        one byte over is refused from the header alone."""
        import struct

        assert MAX_FRAME_BYTES == 16 << 20
        header = struct.Struct("<4sBQII").pack(b"RSV1", int(MsgType.INGEST), 1, (16 << 20) + 1, 0)
        with pytest.raises(WireFormatError, match="implausible"):
            read_from_bytes(header)  # no payload follows: nothing was awaited

    def test_non_dict_body_rejected(self):
        import struct
        import zlib

        payload = pickle.dumps([1, 2, 3])
        header = struct.Struct("<4sBQII").pack(
            b"RSV1", int(MsgType.PING), 0, len(payload), zlib.crc32(payload)
        )
        with pytest.raises(WireFormatError, match="expected dict"):
            read_from_bytes(header + payload)


def assert_bit_identical(left, right):
    """Equality plus type identity, recursively — 2 != 2.0 here."""
    assert type(left) is type(right), (left, right)
    if isinstance(left, dict):
        assert left.keys() == right.keys()
        for key in left:
            assert_bit_identical(left[key], right[key])
    else:
        assert left == right


class TestDeltaAlgebra:
    @pytest.mark.parametrize(
        "prev, cur",
        [
            (0, 0),
            (5, 9),
            (0.0, 0.25),
            (0.1 + 0.2, 0.3),  # distinct floats that are != but close
            (1, 1.0),  # type change must not be suppressed
            ({}, {"a": 1}),
            ({"a": 1, "b": 2.5}, {"a": 1, "b": 2.75, "c": 0}),
            ({"a": 1, "b": 2}, {"a": 1}),  # key removal
            ({"g": {"sum": 1.5, "count": 2}}, {"g": {"sum": 2.5, "count": 3}}),
        ],
    )
    def test_fold_inverts_compute(self, prev, cur):
        delta = compute_delta(prev, cur)
        assert_bit_identical(fold(prev, delta), cur)

    def test_no_change_ships_nothing(self):
        assert compute_delta(3.5, 3.5) is None
        assert compute_delta({"a": 1}, {"a": 1}) is None
        assert fold(7, None) == 7

    def test_int_deltas_are_additive(self):
        # exact integer addition — the mergeable-law argument
        assert compute_delta(10, 13) == ("add", 3)
        assert compute_delta(13, 10) == ("add", -3)

    def test_float_deltas_are_replacement(self):
        # 0.1 + 0.2 != 0.3 in floats; replacement dodges the drift
        kind, payload = compute_delta(0.1, 0.30000000000000004)
        assert kind == "set"
        assert payload == 0.30000000000000004

    def test_group_delta_only_ships_changes(self):
        prev = {k: k * 1.0 for k in range(100)}
        cur = dict(prev)
        cur[3] = -1.0
        del cur[7]
        cur[100] = 5.0
        kind, changes = compute_delta(prev, cur)
        assert kind == "group"
        assert changes == {3: -1.0, 7: REMOVE, 100: 5.0}
        assert_bit_identical(fold(prev, (kind, changes)), cur)

    def test_remove_sentinel_survives_pickling(self):
        delta = ("group", {"gone": REMOVE})
        revived = pickle.loads(pickle.dumps(delta))
        assert revived[1]["gone"] is REMOVE

    def test_long_fold_chain_matches_final_state(self):
        import random

        rng = random.Random(11)
        state: dict = {}
        folded: dict = {}
        for _ in range(200):
            new = dict(state)
            key = rng.randrange(12)
            if key in new and rng.random() < 0.3:
                del new[key]
            else:
                new[key] = rng.random() if rng.random() < 0.5 else rng.randrange(100)
            folded = fold(folded, compute_delta(state, new))
            state = new
        assert_bit_identical(folded, state)

    def test_freeze_detaches_nested_dicts(self):
        inner = {"sum": 1.0}
        outer = {"g": inner}
        frozen = freeze(outer)
        inner["sum"] = 9.0
        assert frozen["g"]["sum"] == 1.0

    def test_freeze_copies_a_flat_result_and_still_detaches_dict_subclasses(self):
        from collections import OrderedDict

        flat = {3: 1.5, 1: 2, "k": None}
        frozen = freeze(flat)
        assert frozen is not flat and list(frozen.items()) == list(flat.items())
        flat[3] = 0.0
        assert frozen[3] == 1.5
        inner = OrderedDict(sum=1.0)
        frozen = freeze({"a": 1, "g": inner})
        inner["sum"] = 9.0
        assert frozen == {"a": 1, "g": {"sum": 1.0}}

    def test_in_place_fold_is_the_pure_fold_on_the_callers_dict(self):
        """The client folds group deltas into the dict it owns; the pure
        fold is the oracle, and leaves its base alone."""
        import random

        rng = random.Random(12)
        state: dict = {}
        pure: dict = {}
        owned: dict = {}
        for _ in range(300):
            new = dict(state)
            for key in rng.sample(range(20), 3):
                if key in new and rng.random() < 0.4:
                    del new[key]
                else:
                    new[key] = rng.random() if rng.random() < 0.5 else rng.randrange(100)
            delta = compute_delta(state, new)
            before = dict(pure)
            folded = fold(pure, delta)
            assert pure == before and (delta is None or folded is not pure)
            pure = folded
            assert fold(owned, delta, in_place=True) is owned
            assert list(owned.items()) == list(pure.items())
            state = new
        assert_bit_identical(owned, state)
        # scalars, replacements and a non-dict base take the same path either way
        assert fold(3, ("add", 4), in_place=True) == 7
        assert fold({"a": 1}, ("set", 2.5), in_place=True) == 2.5
        assert fold(None, ("group", {"a": 1, "b": REMOVE}), in_place=True) == {"a": 1}
