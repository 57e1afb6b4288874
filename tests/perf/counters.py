"""Algorithmic work per query and call shape, counted by :mod:`repro.obs`.

Each *cell* drives one registry query's ``rpai`` engine over its
differential stream (``tests.engine.test_differential.CASES``) in one
call shape — one ``on_event`` per event, or one ``on_batch`` /
``on_frame`` per :data:`CHUNK` events — with the tree node pools
drained first, and records every obs counter outside the ``codegen.*``
family plus the count of every ``engine.*`` stat: rotations, shifts,
probes, applies, batches, batch sizes.  Those counts say what work the
triggers do, not how fast Python does it, so a change to how a trigger
is written must leave them exactly where they are.

The committed table ``counters.json`` holds the cells;
``tests/engine/test_codegen.py`` compares against it exactly.  A change
that moves a cell rewrites the table in the same commit and says why::

    PYTHONPATH=src python -m tests.perf.counters          # print the cells
    PYTHONPATH=src python -m tests.perf.counters --write  # and store them
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro import obs
from repro.core._rpai_kernel import POOLS
from repro.engine.registry import build_engine
from repro.storage.colbatch import ColumnarFrame
from repro.trees import treemap

from tests.engine.test_differential import CASES

TABLE = Path(__file__).with_name("counters.json")

#: the plan-built queries and the general algorithm's two
QUERIES = ("EQ", "MST", "PSP", "Q17", "Q18", "SQ1", "SQ2", "VWAP")
FLAVORS = ("event", "batch", "frame")

#: events per ``on_batch`` / ``on_frame`` call
CHUNK = 24


def drive(engine, events: list, flavor: str, chunk: int = CHUNK):
    """Feed ``events`` the ``flavor`` way; returns the final result."""
    result = engine.result()
    if flavor == "event":
        for event in events:
            result = engine.on_event(event)
        return result
    for start in range(0, len(events), chunk):
        piece = events[start : start + chunk]
        if flavor == "batch":
            result = engine.on_batch(piece)
        else:
            result = engine.on_frame(ColumnarFrame.from_events(piece))
    return result


def measure(query: str, flavor: str) -> dict[str, int]:
    """The counters of one cell: a fresh engine, the node pools drained
    (they are process-global, so whatever an earlier run left pooled
    would turn into freelist hits), obs reset."""
    events = list(CASES[query]())
    for pool in (treemap._POOL, *POOLS.values()):
        pool.clear()
    obs.enable()
    obs.reset()
    try:
        drive(build_engine(query, "rpai"), events, flavor)
        snap = obs.snapshot()
    finally:
        obs.disable()
    kept = {
        key: value for key, value in snap["counters"].items() if not key.startswith("codegen.")
    }
    kept.update((key, stat["count"]) for key, stat in snap["stats"].items() if key.startswith("engine."))
    return dict(sorted(kept.items()))


def load_table() -> dict:
    return json.loads(TABLE.read_text()) if TABLE.exists() else {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="store the cells in counters.json")
    args = parser.parse_args(argv)
    cells = {f"{query}/{flavor}": measure(query, flavor) for query in QUERIES for flavor in FLAVORS}
    for cell, counts in cells.items():
        print(cell)
        for key, value in counts.items():
            print(f"    {key:<40} {value:>10}")
    if args.write:
        TABLE.write_text(json.dumps(cells, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
