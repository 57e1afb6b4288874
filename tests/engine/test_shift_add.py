"""A shifted side's move is one ``shift_add`` per index, an emptying
delete places before it shifts, and ``result`` keeps a side's answer
until the side moves or its probe value changes.

* Against the reference (:mod:`tests.engine.shift_reference`: the
  stacked shift, then a separate add; every side probed on every
  result): VWAP, MST, grouped VWAP and NQ1, per event, per batch and
  per frame, on streams with stray deletes, duplicate rows and levels
  emptied at once, every result identical to the type.  NQ1's streams
  also carry zero and negative volumes; a shifted side refuses those.
  VWAP, MST and grouped VWAP also get float volumes, in quarters: the
  two orders add the same numbers in another order, and quarters keep
  every such sum exact (NQ1's composite keys need int volumes, so its
  streams have none).
* Kept answers: after events, batches, frames, a warm start, a pickle
  restore, a shard merge and a recovery after injected faults,
  ``result()`` equals a fresh replay's.
* Non-positive contributions: a shifted side refuses a tuple whose
  inner contribution is not above 0, in every call shape, before it
  changes anything; a threshold side takes it.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.engine.aggr_index import build_single_index_engine
from repro.engine.queries.nq import NQ1RpaiEngine
from repro.engine.registry import build_engine, build_sharded_engine
from repro.engine.supervision import DurableEngine
from repro.errors import KeyUniverseError
from repro.query.parser import parse_query
from repro.storage.colbatch import ColumnarFrame
from repro.storage.stream import Event, Stream
from repro.workloads import OrderBookConfig, generate_order_book

from tests.conftest import make_bid
from tests.engine.shift_reference import NQ1ShiftThenAddEngine, as_reference
from tests.engine.test_grouped import GROUPED_VWAP

POSITIVE = (1, 2, 3, 5, 8)
INTS = POSITIVE + (0, -1, -2)
QUARTERS = (0.25, 1.5, 2.75)


def odd_book(seed: int, count: int, relations: tuple[str, ...], volumes: tuple) -> list[Event]:
    """Inserts over 12 prices (0 among them) and 3 brokers, with 25 %
    retractions of live rows, duplicates of live rows, stray deletes of
    rows never inserted, and levels emptied at once."""
    rng = random.Random(seed)
    events: list[Event] = []
    live: list[tuple[str, dict]] = []
    while len(events) < count:
        roll = rng.random()
        if live and roll < 0.25:
            relation, row = live.pop(rng.randrange(len(live)))
            events.append(Event(relation, row, -1))
        elif live and roll < 0.32:
            relation, row = rng.choice(live)
            live.append((relation, dict(row)))
            events.append(Event(relation, dict(row), +1))
        elif roll < 0.37:
            row = make_bid(rng.randint(0, 11), rng.choice(volumes), ts=len(events), bid_id=-len(events))
            events.append(Event(rng.choice(relations), row, -1))
        elif live and roll < 0.42:
            relation, row = rng.choice(live)
            for held in [held for held in live if held[0] == relation and held[1]["price"] == row["price"]]:
                live.remove(held)
                events.append(Event(relation, held[1], -1))
        else:
            row = make_bid(rng.randint(0, 11), rng.choice(volumes), ts=len(events),
                           bid_id=len(events), broker=rng.randint(1, 3))
            relation = rng.choice(relations)
            live.append((relation, row))
            events.append(Event(relation, row, +1))
    return events


def typed(result):
    if isinstance(result, dict):
        return [(key, type(value), value) for key, value in result.items()]
    return type(result), result


#: name -> (engine factory, relations, volumes)
ENGINES = {
    "VWAP": (lambda: build_engine("VWAP", "rpai"), ("bids",), POSITIVE + QUARTERS),
    "MST": (lambda: build_engine("MST", "rpai"), ("bids", "asks"), POSITIVE + QUARTERS),
    "grouped-VWAP": (lambda: build_single_index_engine(parse_query(GROUPED_VWAP)), ("bids",),
                     POSITIVE + QUARTERS),
    "NQ1": (NQ1RpaiEngine, ("bids",), INTS),
}


def reference_of(name: str):
    if name == "NQ1":
        return NQ1ShiftThenAddEngine()
    return as_reference(ENGINES[name][0]())


def drive(engine, events: list[Event], shape: str, chunk: int = 16) -> list:
    if shape == "event":
        return [engine.on_event(event) for event in events]
    pieces = [events[i : i + chunk] for i in range(0, len(events), chunk)]
    if shape == "batch":
        return [engine.on_batch(piece) for piece in pieces]
    return [engine.on_frame(ColumnarFrame.from_events(piece)) for piece in pieces]


class TestAgainstTheReference:
    @pytest.mark.parametrize("shape", ["event", "batch", "frame"])
    @pytest.mark.parametrize("name", list(ENGINES))
    @pytest.mark.parametrize("seed", range(4))
    def test_every_result_to_the_type(self, name, shape, seed):
        factory, relations, volumes = ENGINES[name]
        events = odd_book(seed, 400, relations, volumes)
        got = drive(factory(), events, shape)
        expected = drive(reference_of(name), events, shape)
        assert [typed(r) for r in got] == [typed(r) for r in expected]

    @pytest.mark.parametrize("name", ["VWAP", "MST"])
    def test_an_emptying_delete_leaves_nothing_to_repair(self, name):
        """On positive volumes only a delete that empties its key makes
        a negative shift collide: placed first, it leaves §3.2.4's
        repair nothing to do, where the reference repairs."""
        from repro import obs

        repairs = []
        for engine in (ENGINES[name][0](), reference_of(name)):
            obs.enable()
            obs.reset()
            try:
                drive(engine, book(name, 600), "event")
                repairs.append(obs.snapshot()["counters"].get("rpai.fix_tree", 0))
            finally:
                obs.disable()
        assert repairs[0] == 0 < repairs[1]


#: a query per kept side kind: one shifted side, two, two threshold sides
KEPT = ("VWAP", "MST", "PSP")


def book(query: str, count: int = 240, seed: int = 3, zeros: bool = False) -> list[Event]:
    """An order book whose deletes retract live rows, so that a batch
    and its events agree; ``zeros``, on PSP: a zero-volume row every
    fifth event, which moves a side (its count column) and not its
    probe value, so that only the stale mark makes ``result`` probe
    again (a shifted side, VWAP's and MST's, refuses such a row)."""
    config = OrderBookConfig(events=count, price_levels=25, delete_ratio=0.3, seed=seed)
    events = list(generate_order_book(config))
    for i in range(len(events) - 1, 0, -5) if zeros and query == "PSP" else ():
        row = make_bid(1 + i % 25, 0, ts=i, bid_id=-i)
        events.insert(i, Event(("bids", "asks")[i % 2], row, +1))
    return events


def replay(query: str, events: list[Event], shape: str = "batch", chunk: int = 16):
    """A fresh engine's first result, after ``events`` fed the ``shape``
    way through ``apply*`` (no result in between keeps an answer)."""
    engine = build_engine(query, "rpai")
    if shape == "event":
        for event in events:
            engine.apply(event)
    for start in range(0, len(events), chunk) if shape != "event" else ():
        piece = events[start : start + chunk]
        if shape == "batch":
            engine.apply_batch(piece)
        else:
            engine.apply_frame(ColumnarFrame.from_events(piece))
    return engine.result()


class TestKeptAnswers:
    @pytest.mark.parametrize("shape", ["event", "batch", "frame"])
    @pytest.mark.parametrize("query", KEPT)
    def test_each_call_shape(self, query, shape):
        events = book(query, 120, zeros=True)
        engine = build_engine(query, "rpai")
        chunk = 1 if shape == "event" else 8
        for end in range(chunk, len(events) + 1, chunk):
            drive(engine, events[end - chunk : end], shape, chunk)
            expected = typed(replay(query, events[:end], shape, chunk))
            assert typed(engine.result()) == expected
            assert typed(engine.result()) == expected

    @pytest.mark.parametrize("shape", ["event", "batch", "frame", "warm"])
    @pytest.mark.parametrize("query", KEPT)
    def test_a_move_marks_the_answer_stale(self, query, shape):
        """Each emitted trigger sets ``_kp{k}`` to None for the sides it
        moves, and only for those (a ``bids`` row moves no side an
        ``asks`` row feeds)."""
        events = book(query, 40, zeros=True)
        engine = build_engine(query, "rpai")
        marks = engine.result.__func__.__globals__
        kept = engine.kept()
        assert kept and all(marks[f"_kp{k}"] is None for k in kept)  # fresh: stale
        engine.result()
        if shape == "warm":
            engine.result = lambda: None  # what warm_start returns would probe
            engine.warm_start(Stream(events))
            moved = kept
        else:
            row = next(event for event in events if event.relation == "bids")
            call = {"event": engine.apply, "batch": lambda e: engine.apply_batch([e]),
                    "frame": lambda e: engine.apply_frame(ColumnarFrame.from_events([e]))}[shape]
            call(row)
            moved = [k for k, side in enumerate(engine.layout.sides) if side.feeds[0].relation == "bids"]
        assert [marks[f"_kp{k}"] is None for k in kept] == [k in moved for k in kept]

    @pytest.mark.parametrize("query", KEPT)
    def test_warm_start_after_a_result(self, query):
        events = book(query)
        engine = build_engine(query, "rpai")
        engine.result()  # keeps the empty engine's answers
        assert typed(engine.warm_start(Stream(events[:150]))) == typed(replay(query, events[:150]))
        for end, event in enumerate(events[150:], 151):
            assert typed(engine.on_event(event)) == typed(replay(query, events[:end]))

    @pytest.mark.parametrize("query", KEPT)
    def test_pickle_restore(self, query):
        events = book(query)
        engine = build_engine(query, "rpai")
        drive(engine, events[:150], "event")
        before = engine.result()
        restored = pickle.loads(pickle.dumps(engine))
        assert typed(restored.result()) == typed(before)
        for end, event in enumerate(events[150:], 151):
            assert typed(restored.on_event(event)) == typed(replay(query, events[:end]))
        # the original keeps its own answers: the restored one's moves
        # mark nothing of it
        assert typed(engine.result()) == typed(before)

    def test_shard_merge(self):
        events = book("VWAP")
        sharded = build_sharded_engine("VWAP", "rpai", shards=2, plan_stream=Stream(events))
        assert sharded.shards == 2
        for end, event in enumerate(events, 1):
            assert typed(sharded.on_event(event)) == typed(replay("VWAP", events[:end]))

    @pytest.mark.parametrize("query", KEPT)
    def test_recovery_after_a_crash(self, query, tmp_path):
        events = book(query)
        batches = [events[i : i + 16] for i in range(0, len(events), 16)]
        durable = DurableEngine(build_engine(query, "rpai"), tmp_path, snapshot_every=3)
        for batch in batches[:7]:
            durable.on_batch(batch)
        durable.result()
        # crash: the engine is dropped unclosed; the log and the last
        # snapshot are what is left
        recovered = DurableEngine.recover(lambda: build_engine(query, "rpai"), tmp_path, snapshot_every=3)
        with recovered:
            assert typed(recovered.result()) == typed(replay(query, events[: 7 * 16]))
            for index, batch in enumerate(batches[7:], 8):
                assert typed(recovered.on_batch(batch)) == typed(replay(query, events[: index * 16]))

    @pytest.mark.parametrize("query", KEPT)
    def test_injected_faults(self, query, tmp_path):
        from tests.engine.test_faults import clean_result, run_chaos, stream_for

        result, _counters, _engine = run_chaos(query, 2, seed=4, tmp_path=tmp_path)
        assert typed(result) == typed(clean_result(query, stream_for(query)))


def changed_book(seed: int, change, count: int = 120) -> list[Event]:
    """A ``count``-event order book in which every fifth inserted row,
    and its later delete, carries ``change(volume)``."""
    config = OrderBookConfig(events=count, price_levels=25, delete_ratio=0.3, seed=seed)
    changed: dict = {}
    inserts = 0
    out = []
    for event in generate_order_book(config):
        key = (event.relation, event.row["id"])
        if event.weight > 0:
            inserts += 1
            if inserts % 5 == 0:
                changed[key] = {**event.row, "volume": change(event.row["volume"])}
        out.append(Event(event.relation, changed.get(key, event.row), event.weight))
    return out


CHANGES = {"zero": lambda volume: 0, "negated": lambda volume: -volume}
#: the relations each query's shifted sides read
SHIFTED = {"VWAP": ("bids",), "MST": ("bids", "asks")}


class TestNonPositiveContributions:
    """On the books where every fifth row carries a zero or negated
    volume, MST's and VWAP's results differed from naive on up to 330
    of 360 and their call shapes from each other.  Such a row is now
    refused, whatever the call shape, and the engine is left as it was."""

    @pytest.mark.parametrize("shape", ["event", "batch", "frame", "warm"])
    @pytest.mark.parametrize("change", CHANGES)
    @pytest.mark.parametrize("query", SHIFTED)
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_a_shifted_side_refuses_them(self, seed, query, change, shape):
        events = changed_book(seed, CHANGES[change])
        bad = next(
            i for i, event in enumerate(events)
            if event.relation in SHIFTED[query] and event.row["volume"] <= 0
        )
        engine = build_engine(query, "rpai")
        if shape == "warm":
            before = pickle.dumps(engine)
            with pytest.raises(KeyUniverseError):
                engine.warm_start(Stream(events))
            assert pickle.dumps(engine) == before
            return
        chunk = 1 if shape == "event" else 16
        start = bad - bad % chunk  # the call that holds the refused row
        drive(engine, events[:start], shape, chunk)
        before = pickle.dumps(engine)
        with pytest.raises(KeyUniverseError):
            drive(engine, events[start : start + chunk], shape, chunk)
        assert pickle.dumps(engine) == before
        assert typed(engine.result()) == typed(replay(query, events[:start], "event"))

    @pytest.mark.parametrize("change", CHANGES)
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_threshold_sides_take_them(self, seed, change):
        """PSP keys its indexes by the volume itself and never shifts."""
        events = changed_book(seed, CHANGES[change])
        for shape in ("event", "batch", "frame"):
            got = drive(build_engine("PSP", "rpai"), events, shape)
            expected = drive(build_engine("PSP", "dbtoaster"), events, shape)
            assert [typed(r) for r in got] == [typed(r) for r in expected]
