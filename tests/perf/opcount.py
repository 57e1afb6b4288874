"""Interpreter cost per event, counted instead of timed.

Each *cell* drives one registry query's compiled ``rpai`` engine over
1,000 generated events (4,000 in the ``event4k`` cells) in one call
shape and counts, with ``sys.settrace`` and ``frame.f_trace_opcodes``,
the bytecodes the interpreter executes and the Python function calls it
makes, per event.
The counts do not depend on the host's load, so a change of a few
percent in a trigger's work shows where ten timed pairs cannot.  C-level
work (a ``dict`` resize, a ``sort``) is one opcode whatever it costs.

The committed table ``opcodes.json`` holds the cells keyed by the
interpreter's ``major.minor`` (bytecode differs between versions);
``test_opcount.py`` compares against it within :data:`TOLERANCE`.  A
change that moves a cell rewrites the table in the same commit::

    PYTHONPATH=src python -m tests.perf.opcount          # print the cells
    PYTHONPATH=src python -m tests.perf.opcount --write  # and store them
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
from pathlib import Path
from typing import Callable

from repro.core._rpai_kernel import POOLS
from repro.engine.registry import build_engine
from repro.obs import SELFCHECK, SINK
from repro.storage.colbatch import ColumnarFrame
from repro.storage.stream import Event
from repro.trees import treemap
from repro.workloads import OrderBookConfig, TPCHConfig, generate_order_book, generate_tpch

TABLE = Path(__file__).with_name("opcodes.json")

#: relative band a measured cell may sit from its committed value
TOLERANCE = 0.005

EVENTS = 1_000
FRAME = 64

#: TPC-H events per unit of scale factor (parts, customers, orders, lineitems)
_TPCH_EVENTS_PER_SF = 70_250


def relation_ab(events: int, seed: int = 1) -> list[Event]:
    """``R(A, B)`` for EQ: 100 correlation groups, 10 % retractions."""
    rng = random.Random(seed)
    out: list[Event] = []
    live: list[dict] = []
    while len(out) < events:
        if live and rng.random() < 0.1:
            out.append(Event("R", live.pop(rng.randrange(len(live))), -1))
        else:
            row = {"A": rng.randint(1, 100), "B": rng.randint(1, 50)}
            live.append(row)
            out.append(Event("R", row, +1))
    return out


def order_book(events: int, seed: int = 1) -> list[Event]:
    config = OrderBookConfig(events=events, price_levels=200, delete_ratio=0.2, seed=seed)
    return list(generate_order_book(config))


def order_book_4k(events: int, seed: int = 1) -> list[Event]:
    """The order book four times as long: deeper trees, so a cell shows
    how a trigger's per-level work grows with depth."""
    return order_book(4 * events, seed)


def tpch(events: int, seed: int = 1) -> list[Event]:
    """Reference tables, then lineitems: the first ``events`` of them."""
    config = TPCHConfig(scale_factor=1.5 * events / _TPCH_EVENTS_PER_SF, seed=seed)
    return list(generate_tpch(config))[:events]


#: query -> its stream
STREAMS: dict[str, Callable[[int], list[Event]]] = {
    "EQ": relation_ab,
    "VWAP": order_book,
    "MST": order_book,
    "PSP": order_book,
    "Q17": tpch,
    "Q18": tpch,
}

#: call shape -> cell suffix: one ``on_event`` per event, one
#: ``on_batch`` / ``on_frame`` per 64 events, one ``warm_start`` of the stream
SHAPES = {"event": "event", "batch": f"batch{FRAME}", "frame": f"frame{FRAME}", "warm": "warm"}

#: cell name -> (query, stream, call shape)
CELLS: dict[str, tuple[str, Callable[[int], list[Event]], str]] = {
    f"{query}/{suffix}": (query, stream, shape)
    for query, stream in STREAMS.items()
    for shape, suffix in SHAPES.items()
}
CELLS["NQ1/event"] = ("NQ1", order_book, "event")
CELLS["NQ1/warm"] = ("NQ1", order_book, "warm")
CELLS["NQ2/warm"] = ("NQ2", order_book, "warm")
# The shifted-side queries once more on a 4,000-event book.
for _query in ("VWAP", "MST", "NQ1"):
    CELLS[f"{_query}/event4k"] = (_query, order_book_4k, "event")
# The general algorithm and the hand-written NQ2: per event and batched.
for _query in ("SQ1", "SQ2", "NQ2"):
    CELLS[f"{_query}/event"] = (_query, order_book, "event")
    CELLS[f"{_query}/batch{FRAME}"] = (_query, order_book, "batch")


def measure(cell: str) -> dict[str, float]:
    """Opcodes and Python calls per event of one cell, on an engine
    built fresh after the tree node pools are drained, with
    counters, self-checks and the cyclic garbage collector off."""
    query, stream, shape = CELLS[cell]
    events = stream(EVENTS)
    engine = build_engine(query, "rpai")
    chunks = [events[i : i + FRAME] for i in range(0, len(events), FRAME)]
    if shape == "frame":
        call, items = engine.on_frame, [ColumnarFrame.from_events(chunk) for chunk in chunks]
    elif shape == "batch":
        call, items = engine.on_batch, chunks
    elif shape == "warm":
        call, items = engine.warm_start, [events]
    else:
        call, items = engine.on_event, events
    for pool in (treemap._POOL, *POOLS.values()):
        pool.clear()
    counts = [0, 0]  # opcodes, calls

    def local(frame, event, arg):
        if event == "opcode":
            counts[0] += 1
        return local

    def trace(frame, event, arg):
        frame.f_trace_opcodes = True
        counts[1] += 1
        return local

    # A collection inside the traced region would run whatever finalizers
    # earlier work left behind: collect first, then keep the collector off.
    previous, flags = sys.gettrace(), (SINK.enabled, SELFCHECK.enabled, gc.isenabled())
    SINK.enabled = SELFCHECK.enabled = False
    gc.collect()
    gc.disable()
    sys.settrace(trace)
    try:
        for item in items:
            call(item)
    finally:
        sys.settrace(previous)
        SINK.enabled, SELFCHECK.enabled = flags[:2]
        if flags[2]:
            gc.enable()
    return {
        "opcodes_per_event": round(counts[0] / len(events), 3),
        "calls_per_event": round(counts[1] / len(events), 3),
    }


def version_key() -> str:
    return "{}.{}".format(*sys.version_info[:2])


def load_table() -> dict:
    return json.loads(TABLE.read_text()) if TABLE.exists() else {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="store the cells in opcodes.json")
    args = parser.parse_args(argv)
    cells = {cell: measure(cell) for cell in CELLS}
    for cell, counts in cells.items():
        print(f"{cell:<14} {counts['opcodes_per_event']:>10.2f} opcodes/event"
              f" {counts['calls_per_event']:>9.2f} calls/event")
    if args.write:
        table = load_table()
        table[version_key()] = cells
        TABLE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
