"""Per-event vs batched throughput for the RPAI engines.

Runs Figure-7 style workloads through the aggregate-index engines at
batch sizes {1, 10, 100, 1000}: batch size 1 is the paper's one
trigger-per-update model, larger sizes drive the delta-coalesced
``on_batch`` path (same results at every chunk boundary — the
differential suite in ``tests/engine/test_batched.py`` checks exactly
that).  A second section times cold engine construction: replaying an
insert-only prefix through the trigger vs ``warm_start`` (sort once +
O(n) ``bulk_load``).  A final ``ops`` section re-runs EQ and VWAP with
the :mod:`repro.obs` counters enabled — *after* all timed sections, so
the timings above always measure the instrumentation-disabled path —
and records the derived structure metrics (rotations per update vs
log2(n), violations per negative shift vs the Section 3.2.4 bound of
1).

Usage::

    PYTHONPATH=src python benchmarks/bench_batching.py [--smoke] [--out PATH]

Writes ``BENCH_batching.json`` at the repo root (override with
``--out``) and prints a summary table.  ``REPRO_BENCH_SCALE`` scales
every workload like the pytest benchmarks; ``--smoke`` forces a tiny
scale for CI.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import obs  # noqa: E402
from repro.bench.runner import run_timed  # noqa: E402
from repro.engine.registry import build_engine  # noqa: E402
from repro.storage.stream import Event, Stream  # noqa: E402
from repro.workloads import (  # noqa: E402
    OrderBookConfig,
    generate_bids_only,
    generate_order_book,
)

BATCH_SIZES = [1, 10, 100, 1000]


def scaled(n: int, scale: float, minimum: int = 20) -> int:
    return max(minimum, int(n * scale))


def eq_stream(events: int, seed: int = 70) -> Stream:
    """The Figure 7 EQ workload: point correlation on R.A ∈ [1, 500]."""
    rng = random.Random(seed)
    out: list[Event] = []
    live: list[dict] = []
    while len(out) < events:
        if live and rng.random() < 0.1:
            out.append(Event("R", live.pop(rng.randrange(len(live))), -1))
        else:
            row = {"A": rng.randint(1, 500), "B": rng.randint(1, 50)}
            live.append(row)
            out.append(Event("R", row, +1))
    return Stream(out)


def finance_stream(events: int, levels: int, seed: int, double: bool = False) -> Stream:
    config = OrderBookConfig(
        events=events,
        price_levels=levels,
        volume_max=100,
        seed=seed,
        delete_ratio=0.1,
    )
    return generate_order_book(config) if double else generate_bids_only(config)


def bench_batches(query: str, stream: Stream, repeats: int) -> dict:
    """Time the rpai engine over ``stream`` at every batch size.

    Each (query, batch size) cell keeps the best of ``repeats`` runs —
    the usual min-of-n guard against scheduler noise.
    """
    runs = []
    for batch_size in BATCH_SIZES:
        best = None
        for _ in range(repeats):
            result = run_timed(build_engine(query, "rpai"), stream, batch_size=batch_size)
            if best is None or result.seconds < best.seconds:
                best = result
        runs.append(
            {
                "batch_size": batch_size,
                "seconds": round(best.seconds, 6),
                "events_per_second": round(best.events_per_second, 1),
            }
        )
    base = runs[0]["events_per_second"] or 1e-9
    for entry in runs:
        entry["speedup_vs_per_event"] = round(entry["events_per_second"] / base, 2)
    return {
        "engine": "rpai",
        "events": len(stream),
        "runs": runs,
        "speedup_1000_vs_1": runs[-1]["speedup_vs_per_event"],
    }


def bench_warm_start(query: str, stream: Stream, repeats: int) -> dict:
    """Cold load: trigger replay vs sort-once + bulk_load."""
    inserts = Stream([e for e in stream if e.weight == 1])

    def time_best(fn) -> float:
        best = float("inf")
        for _ in range(repeats):
            engine = build_engine(query, "rpai")
            t0 = time.perf_counter()
            fn(engine)
            best = min(best, time.perf_counter() - t0)
        return best

    per_event = time_best(lambda engine: engine.process(inserts))
    bulk = time_best(lambda engine: engine.warm_start(inserts))
    return {
        "engine": "rpai",
        "events": len(inserts),
        "per_event_seconds": round(per_event, 6),
        "bulk_load_seconds": round(bulk, 6),
        "speedup": round(per_event / max(bulk, 1e-9), 2),
    }


def bench_ops(query: str, stream: Stream) -> dict:
    """One counter-instrumented pass (untimed; obs enabled only here).

    Emits the raw counter snapshot plus the derived bound checks:
    ``rotations_per_update`` against ``c * log2(n)`` and the Section
    3.2.4 ``violations_per_negative_shift <= 1`` bound (``max_...``
    is per-shift, so the bound holds iff it is <= 1).
    """
    obs.enable()
    obs.reset()
    try:
        run = run_timed(build_engine(query, "rpai"), stream)
        # Full snapshot rather than run.ops: the run delta starts after
        # engine construction and would miss the counters that fire
        # there (``codegen.*``).
        snap = obs.snapshot()
    finally:
        obs.disable()
    derived = obs.derived_metrics(snap, events=run.events)
    log2_n = math.log2(max(run.events, 2))
    entry = {
        "engine": "rpai",
        "events": run.events,
        "counters": snap.get("counters", {}),
        "derived": derived,
        "log2_n": round(log2_n, 3),
    }
    rotations = derived.get("rotations_per_update")
    if rotations is not None:
        entry["rotations_per_update_over_log2_n"] = round(rotations / log2_n, 4)
    if "max_violations_single_shift" in derived:
        entry["violation_bound_holds"] = derived["max_violations_single_shift"] <= 1
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="tiny workloads for a CI smoke run"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_batching.json",
        help="output JSON path",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timed repeats per cell (best kept)"
    )
    args = parser.parse_args(argv)

    scale = 0.05 if args.smoke else float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    repeats = 1 if args.smoke else max(1, args.repeats)

    workload_streams = {
        "EQ": eq_stream(scaled(8000, scale)),
        "VWAP": finance_stream(scaled(4000, scale), 400, seed=71),
        "MST": finance_stream(scaled(1500, scale), 200, seed=72, double=True),
    }

    report = {
        "scale": scale,
        "smoke": args.smoke,
        "batch_sizes": BATCH_SIZES,
        "workloads": {},
        "warm_start": {},
    }
    for query, stream in workload_streams.items():
        report["workloads"][query] = bench_batches(query, stream, repeats)
        print(f"[batching] {query}: ", end="")
        print(
            ", ".join(
                f"b={r['batch_size']}: {r['events_per_second']:.0f} ev/s"
                f" ({r['speedup_vs_per_event']}x)"
                for r in report["workloads"][query]["runs"]
            )
        )
    for query in ("EQ", "VWAP"):
        report["warm_start"][query] = bench_warm_start(
            query, workload_streams[query], repeats
        )
        entry = report["warm_start"][query]
        print(
            f"[warm-start] {query}: trigger replay {entry['per_event_seconds']}s, "
            f"bulk_load {entry['bulk_load_seconds']}s ({entry['speedup']}x)"
        )

    # Counters last: every timed section above ran with the obs sink
    # disabled, so enabling it here cannot perturb the numbers.
    report["ops"] = {}
    for query in ("EQ", "VWAP"):
        report["ops"][query] = bench_ops(query, workload_streams[query])
        entry = report["ops"][query]
        derived = entry["derived"]
        pieces = []
        if "rotations_per_update" in derived:
            pieces.append(
                f"rotations/update {derived['rotations_per_update']:.3f}"
                f" (log2 n = {entry['log2_n']})"
            )
        if "violations_per_negative_shift" in derived:
            pieces.append(
                f"violations/neg-shift {derived['violations_per_negative_shift']:.3f}"
                f" (max {derived['max_violations_single_shift']},"
                f" bound holds: {entry['violation_bound_holds']})"
            )
        print(f"[ops] {query}: " + ("; ".join(pieces) or "no structure counters"))

    args.out.write_text(json.dumps(report, indent=2, allow_nan=False) + "\n")
    print(f"[batching] wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
