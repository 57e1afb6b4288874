"""Compiled vs interpreted trigger throughput — the codegen gate.

Runs every registry query under the ``rpai`` strategy twice over the
same stream: once with per-query trigger codegen enabled (the default;
the planner/registry pipeline installs specialized ``on_event`` /
``on_batch`` / ``on_frame`` triggers per query) and
once with ``REPRO_CODEGEN=0`` semantics (the interpreted triggers).
Every registry query compiles — the generic engines to loop-specialized
triggers, the hand-written ones to recompiled bodies over bound
globals.  Three things are recorded per query:

* **Throughput** per trigger flavor — ``event`` (batch 1), ``batch``
  (batch 100) and ``frame`` (batch 100 encoded as columnar frames) —
  best of ``--repeats`` runs, and the compiled/interpreted speedup.
* **Result identity** — the final query result must be bit-identical
  between the two modes for every flavor (``repr`` equality, same
  discipline as the differential suites).
* **Counter identity** — one untimed instrumented pass per mode; every
  ``repro.obs`` counter except the ``codegen.*`` family itself must
  match exactly.  Compiled triggers are a *constant-factor* change:
  identical rotations, probes and shift counts, less
  interpreter overhead per event.  A counter that moves means the
  generated trigger does different algorithmic work — that is a
  correctness bug, not a speedup.

``--gate`` turns the report into a pass/fail check (exit 1 on any
query whose event-flavor speedup falls below the floor, any batched /
frame flavor below the batched floor, or any result / counter
divergence).  ``bench_compare.py`` runs this gate as part of the CI
perf job.

Usage::

    PYTHONPATH=src python benchmarks/bench_codegen.py [--smoke] [--gate]
        [--out PATH] [--repeats N]

Writes ``BENCH_codegen.json`` at the repo root (override with
``--out``).  ``REPRO_BENCH_SCALE`` scales the workloads like the other
benchmarks; ``--smoke`` forces a tiny scale for CI.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import obs  # noqa: E402
from repro.__main__ import _default_stream  # noqa: E402
from repro.bench.runner import run_timed  # noqa: E402
from repro.engine.registry import build_engine  # noqa: E402
from repro.query import codegen  # noqa: E402
from repro.workloads import query_names  # noqa: E402

#: (flavor, batch size, drive columnar frames) — one timed cell each.
FLAVORS = (("event", 1, False), ("batch", 100, False), ("frame", 100, True))
BATCH_SIZES = [size for _flavor, size, _frames in FLAVORS]
SEED = 42


def scaled(n: int, scale: float, minimum: int = 200) -> int:
    return max(minimum, int(n * scale))


def _build(query: str, *, compiled: bool):
    """Build the rpai engine with codegen forced on or off."""
    prior = codegen.codegen_enabled()
    codegen.set_codegen(compiled)
    try:
        return build_engine(query, "rpai")
    finally:
        codegen.set_codegen(prior)


def _measure_flavor(query: str, stream, *, batch_size: int, frames: bool,
                    repeats: int) -> tuple[float, str, float, str]:
    """Best throughput for each mode over ``repeats`` fresh engines,
    plus each mode's final-result ``repr`` for identity checking.

    The modes are *interleaved* (interpreted then compiled, per
    repeat): measuring all of one mode then all of the other lets host
    frequency / thermal drift between the two phases masquerade as a
    speedup or regression, which matters for the tree-dominated
    queries whose true ratio is close to 1.
    """
    interp_best, comp_best = 0.0, 0.0
    interp_repr, comp_repr = None, None
    for _ in range(repeats):
        run = run_timed(_build(query, compiled=False), stream,
                        batch_size=batch_size, frames=frames)
        interp_best = max(interp_best, run.events_per_second)
        interp_repr = repr(run.final_result)
        run = run_timed(_build(query, compiled=True), stream,
                        batch_size=batch_size, frames=frames)
        comp_best = max(comp_best, run.events_per_second)
        comp_repr = repr(run.final_result)
    return interp_best, interp_repr, comp_best, comp_repr


def _drain_node_pools() -> None:
    """The tree node freelists are process-global: whichever counter
    pass runs second would see the first pass's pooled nodes as hits.
    Clearing the pools (one per RPAI column count, one for TreeMap)
    makes the freelist counters a pure function of the pass itself."""
    from repro.core._rpai_kernel import POOLS
    from repro.trees import treemap

    for pool in (treemap._POOL, *POOLS.values()):
        pool.clear()


def _counter_pass(query: str, stream, *, compiled: bool) -> tuple[object, dict]:
    """One untimed instrumented pass; returns (final result, counters)
    with the ``codegen.*`` family stripped (it is *supposed* to differ
    between the modes — it is the instrumentation of the comparison
    itself)."""
    _drain_node_pools()
    obs.enable()
    obs.reset()
    try:
        run = run_timed(_build(query, compiled=compiled), stream, batch_size=1)
        snap = obs.snapshot()
    finally:
        obs.disable()
    counters = {
        name: value
        for name, value in snap.get("counters", {}).items()
        if not name.startswith("codegen.")
    }
    return run.final_result, counters


def bench_query(query: str, events: int, repeats: int) -> dict:
    stream = _default_stream(query, events, SEED)
    probe = _build(query, compiled=True)
    trigger_mode = probe.trigger_mode
    supported = trigger_mode == "compiled"

    runs = []
    for flavor, batch_size, frames in FLAVORS:
        interpreted, interp_repr, compiled, comp_repr = _measure_flavor(
            query, stream, batch_size=batch_size, frames=frames,
            repeats=repeats,
        )
        runs.append(
            {
                "flavor": flavor,
                "batch_size": batch_size,
                "interpreted_events_per_second": round(interpreted, 1),
                "compiled_events_per_second": round(compiled, 1),
                "speedup_compiled_vs_interpreted": round(
                    compiled / max(interpreted, 1e-9), 3
                ),
                "results_identical": comp_repr == interp_repr,
            }
        )

    interp_result, interp_counters = _counter_pass(query, stream, compiled=False)
    comp_result, comp_counters = _counter_pass(query, stream, compiled=True)
    mismatches = sorted(
        name
        for name in set(interp_counters) | set(comp_counters)
        if interp_counters.get(name) != comp_counters.get(name)
    )
    return {
        "engine": "rpai",
        "events": len(stream),
        "trigger_mode": trigger_mode,
        "supported": supported,
        "runs": runs,
        "speedup_batch1": runs[0]["speedup_compiled_vs_interpreted"],
        "results_identical": repr(comp_result) == repr(interp_result)
        and all(run["results_identical"] for run in runs),
        "counters_identical": not mismatches,
        "counter_mismatches": mismatches,
    }


def gate_report(report: dict, *, floor_supported: float,
                floor_unsupported: float,
                floor_batched: float = 0.9) -> list[str]:
    """The CI rule: compiled must not lose to interpreted.  Returns the
    failure messages (empty == gate passes).

    Compiled queries gate their event-flavor (batch-1) speedup at
    ``floor_supported`` (compiled at least matches interpreted).  The
    batched and frame flavors amortize the dispatch the compiled
    triggers remove, so their ratios sit near 1.0 and gate at the
    slightly looser ``floor_batched`` (noise allowance, not a license
    to regress).  A query that somehow did not compile runs the same
    interpreted code twice — its ratio is pure host noise and gets
    ``floor_unsupported``.  Result or counter divergence fails
    unconditionally — those are correctness bugs.
    """
    failures = []
    for query, entry in report["workloads"].items():
        for run in entry["runs"]:
            if not entry["supported"]:
                floor = floor_unsupported
            elif run["flavor"] == "event":
                floor = floor_supported
            else:
                floor = floor_batched
            speedup = run["speedup_compiled_vs_interpreted"]
            if speedup < floor:
                failures.append(
                    f"{query}: {run['flavor']}-flavor speedup {speedup:.3f}"
                    f" < floor {floor:.2f}"
                    f" ({'compiled' if entry['supported'] else 'no emitter'})"
                )
        if not entry["results_identical"]:
            failures.append(f"{query}: compiled result != interpreted result")
        if not entry["counters_identical"]:
            failures.append(
                f"{query}: counter divergence {entry['counter_mismatches']}"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="tiny workloads for a CI smoke run"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_codegen.json",
        help="output JSON path",
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="timed repeats per cell (best kept)"
    )
    parser.add_argument(
        "--gate",
        action="store_true",
        help="exit non-zero when compiled loses to interpreted anywhere",
    )
    parser.add_argument(
        "--gate-floor",
        type=float,
        default=1.0,
        help="event-flavor (batch-1) speedup floor for compiled queries",
    )
    parser.add_argument(
        "--gate-floor-batched",
        type=float,
        default=0.9,
        help="speedup floor for the batch/frame flavors, where coalescing "
        "amortizes the dispatch overhead the compiled triggers remove and "
        "the ratio hovers near 1.0",
    )
    parser.add_argument(
        "--gate-floor-unsupported",
        type=float,
        default=0.6,
        help="sanity floor for an engine class without an emitter (every "
        "registry query compiles, so this only triggers for out-of-registry "
        "engines): both modes run identical code, the ratio is pure "
        "measurement noise, and the real contract is result/counter identity",
    )
    args = parser.parse_args(argv)

    scale = 0.1 if args.smoke else float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    repeats = max(1, args.repeats)
    if args.smoke:
        # Smoke streams are a few hundred events — per-run wall time is
        # well under a millisecond and the throughput ratio is mostly
        # timer noise.  The smoke gate exists for the result/counter
        # identity checks; loosen the speedup floors so they still
        # catch a real cliff without flaking on noise.
        args.gate_floor = min(args.gate_floor, 0.8)
        args.gate_floor_batched = min(args.gate_floor_batched, 0.8)

    report = {
        "scale": scale,
        "smoke": args.smoke,
        "batch_sizes": BATCH_SIZES,
        "seed": SEED,
        "workloads": {},
    }
    for query in query_names():
        events = scaled(6000, scale)
        entry = bench_query(query, events, repeats)
        report["workloads"][query] = entry
        b1 = entry["runs"][0]
        print(
            f"[codegen] {query:<5} ({entry['trigger_mode']:<11}): "
            f"interpreted {b1['interpreted_events_per_second']:>10,.0f} ev/s, "
            f"compiled {b1['compiled_events_per_second']:>10,.0f} ev/s "
            f"({entry['speedup_batch1']}x) | "
            f"results {'OK' if entry['results_identical'] else 'DIVERGED'}, "
            f"counters {'OK' if entry['counters_identical'] else 'DIVERGED'}"
        )

    failures = gate_report(
        report,
        floor_supported=args.gate_floor,
        floor_unsupported=args.gate_floor_unsupported,
        floor_batched=args.gate_floor_batched,
    )
    report["gate"] = {
        "floor_supported": args.gate_floor,
        "floor_batched": args.gate_floor_batched,
        "floor_unsupported": args.gate_floor_unsupported,
        "failures": failures,
        "ok": not failures,
    }
    args.out.write_text(json.dumps(report, indent=2, allow_nan=False) + "\n")
    print(f"[codegen] wrote {args.out}")
    if failures:
        for message in failures:
            print(f"[codegen] GATE FAIL: {message}")
    if args.gate:
        print(f"[codegen] gate: {'PASS' if not failures else 'FAIL'}")
        return 0 if not failures else 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
