"""Regenerate the batching benchmark and diff it against the committed
artifact — the one-command form of the CI perf-regression gate.

Runs ``benchmarks/bench_batching.py`` (at smoke scale by default, full
scale with ``--full``) into a scratch file, then compares the fresh
report against the committed ``BENCH_batching.json`` with
:mod:`repro.bench.diffing` and exits non-zero on regression.

Because the committed artifact is produced at full scale and the CI run
at smoke scale, only scale-independent ratios (batching speedups, the
Section 3.2.4 violation bound) gate by default; absolute events/second
and the warm-start speedup gate too when the scales match (``--full``
on the same class of machine).

The run also measures write-ahead-log overhead (same engine and stream
with WAL off / WAL on / WAL on + fsync, through
:class:`repro.engine.supervision.DurableEngine`) and gates that the
WAL-on (fsync off) configuration stays within ``--wal-gate-factor``
(default 1.5x) of the WAL-off throughput — durability must stay an
opt-in costing tens of percent, not a 2x cliff.  The fsync row is
reported but not gated: it measures the disk, not the code.

When a committed ``BENCH_sharding.json`` exists, the run also gates the
shard-transport serialization share: the columnar frames the shm rings
ship must stay at least ``bench_sharding.TRANSPORT_GATE``x smaller per
event than the retired pickled-event-list pipe transport.  Byte counts
are deterministic, so this gate applies even when ``scaling_valid`` is
false.  Skip with ``--skip-transport-gate``.

When a committed ``BENCH_serving.json`` exists, the run also executes
the serving gate: ``benchmarks/bench_serving.py`` against a live
in-process subscription server, diffed with the serving rules in
:mod:`repro.bench.diffing` — a ``differential_ok`` flip, an overload
run that deadlocks, or overload shed/evicted counters dropping to zero
fail at any scale; p99 delta latency gates only when the scales match.
Skip with ``--skip-serving-gate``.

Usage::

    PYTHONPATH=src python benchmarks/bench_compare.py [--full]
        [--baseline PATH] [--out PATH] [--tolerance T] [--rescue R]
        [--wal-gate-factor F] [--skip-wal-gate]
        [--sharding-baseline PATH] [--skip-transport-gate]
        [--serving-baseline PATH] [--skip-serving-gate]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from bench_batching import main as run_batching  # noqa: E402

from repro.bench.diffing import compare_reports, format_diff, load_report  # noqa: E402


def measure_wal_overhead(
    events: int = 4000, repeats: int = 3, batch_size: int = 50
) -> dict:
    """Events/second for the same VWAP/rpai run with WAL off, WAL on
    (flush only), and WAL on + fsync; best of ``repeats`` each."""
    import tempfile

    from repro.bench.runner import run_timed
    from repro.engine.registry import build_engine
    from repro.engine.supervision import DurableEngine
    from repro.workloads import OrderBookConfig, generate_bids_only

    stream = generate_bids_only(
        OrderBookConfig(
            events=events,
            price_levels=max(20, events // 5),
            volume_max=100,
            seed=42,
            delete_ratio=0.1,
        )
    )

    def best(make_engine) -> float:
        rates = []
        for _ in range(repeats):
            engine = make_engine()
            try:
                rates.append(
                    run_timed(engine, stream, batch_size=batch_size).events_per_second
                )
            finally:
                closer = getattr(engine, "close", None)
                if closer is not None:
                    closer()
        return max(rates)

    rows = {}
    rows["off"] = best(lambda: build_engine("VWAP", "rpai"))
    with tempfile.TemporaryDirectory(prefix="walbench-") as scratch:
        counter = iter(range(1_000_000))

        def durable(fsync: bool):
            return DurableEngine(
                build_engine("VWAP", "rpai"),
                Path(scratch) / f"run-{next(counter)}",
                fsync=fsync,
                snapshot_every=1_000_000,  # measure the log, not pickling
            )

        rows["wal"] = best(lambda: durable(False))
        rows["wal_fsync"] = best(lambda: durable(True))
    return {
        "events": events,
        "batch_size": batch_size,
        "events_per_second": rows,
        "slowdown_wal": rows["off"] / rows["wal"],
        "slowdown_wal_fsync": rows["off"] / rows["wal_fsync"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--full",
        action="store_true",
        help="run at full scale (default: smoke scale for CI)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=REPO_ROOT / "BENCH_batching.json",
        help="committed report to gate against",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "benchmarks" / "results" / "BENCH_batching.candidate.json",
        help="where to write the fresh report (candidates live under "
        "benchmarks/results/, which is gitignored — only the committed "
        "full-scale BENCH_*.json artifacts belong at the repo root)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="allowed fractional slack below each baseline value "
        "(generous by default: CI machines are noisy)",
    )
    parser.add_argument(
        "--rescue",
        type=float,
        default=1.0,
        help="absolute speedup floor that rescues a noisy ratio check",
    )
    parser.add_argument(
        "--wal-gate-factor",
        type=float,
        default=1.5,
        help="max allowed slowdown of WAL-on (fsync off) vs WAL-off",
    )
    parser.add_argument(
        "--skip-wal-gate",
        action="store_true",
        help="skip the WAL-overhead measurement and gate",
    )
    parser.add_argument(
        "--sharding-baseline",
        type=Path,
        default=REPO_ROOT / "BENCH_sharding.json",
        help="committed sharding report whose transport section to gate against",
    )
    parser.add_argument(
        "--skip-transport-gate",
        action="store_true",
        help="skip the columnar-frame serialization-share gate",
    )
    parser.add_argument(
        "--serving-baseline",
        type=Path,
        default=REPO_ROOT / "BENCH_serving.json",
        help="committed serving report to gate against",
    )
    parser.add_argument(
        "--skip-serving-gate",
        action="store_true",
        help="skip the subscription-server latency/overload gate",
    )
    args = parser.parse_args(argv)

    if not args.baseline.exists():
        print(f"[bench-compare] no baseline at {args.baseline}; nothing to gate")
        return 0

    args.out.parent.mkdir(parents=True, exist_ok=True)
    bench_args = ["--out", str(args.out)]
    if not args.full:
        bench_args.append("--smoke")
    status = run_batching(bench_args)
    if status != 0:
        print("[bench-compare] benchmark run failed")
        return status

    report = compare_reports(
        load_report(args.baseline),
        load_report(args.out),
        tolerance=args.tolerance,
        rescue=args.rescue,
    )
    print()
    print(f"[bench-compare] {args.baseline.name} (baseline) vs {args.out.name}:")
    print(format_diff(report))
    if not report.scales_match:
        baseline_scale = load_report(args.baseline).get("scale")
        candidate_scale = load_report(args.out).get("scale")
        print(
            "[bench-compare] throughput comparison skipped (scale mismatch: "
            f"baseline scale {baseline_scale} vs candidate scale "
            f"{candidate_scale}); only scale-independent speedup ratios were "
            "gated — rerun with --full on a comparable machine for absolute "
            "events/second gating"
        )

    wal_ok = True
    if not args.skip_wal_gate:
        wal = measure_wal_overhead(events=20_000 if args.full else 4_000)
        rates = wal["events_per_second"]
        print()
        print("[bench-compare] WAL overhead (VWAP/rpai, "
              f"{wal['events']} events, batch {wal['batch_size']}):")
        print(f"  WAL off        : {rates['off']:>12,.0f} events/s")
        print(f"  WAL, fsync off : {rates['wal']:>12,.0f} events/s "
              f"({wal['slowdown_wal']:.2f}x slowdown)")
        print(f"  WAL, fsync on  : {rates['wal_fsync']:>12,.0f} events/s "
              f"({wal['slowdown_wal_fsync']:.2f}x slowdown, not gated)")
        wal_ok = wal["slowdown_wal"] <= args.wal_gate_factor
        verdict = "OK" if wal_ok else "FAIL"
        print(f"  gate           : slowdown {wal['slowdown_wal']:.2f}x "
              f"<= {args.wal_gate_factor:.2f}x ... {verdict}")

    transport_ok = True
    if not args.skip_transport_gate and args.sharding_baseline.exists():
        # Serialization share: recompute the deterministic bytes/event
        # accounting (no timing, cheap) and gate that columnar frames
        # still beat the retired pickled-list transport by the committed
        # factor.  Byte counts do not depend on cores or clock speed, so
        # this gates even on hosts where scaling_valid is false.
        from bench_sharding import TRANSPORT_GATE, build_streams, measure_transport

        baseline_transport = load_report(args.sharding_baseline).get("transport", {})
        # Always at full workload scale — smoke-sized per-shard chunks
        # can't amortize frame headers and would measure the chunk size,
        # not the transport (matches bench_sharding's transport section).
        scale = 1.0
        print()
        print(
            "[bench-compare] shard transport gate "
            f"(columnar frames vs pickled lists, >= {TRANSPORT_GATE}x):"
        )
        for query, stream in build_streams(scale).items():
            entry = measure_transport(query, stream)
            committed = baseline_transport.get(query, {}).get(
                "bytes_per_event_reduction"
            )
            verdict = "OK" if entry["gate_met"] else "FAIL"
            print(
                f"  {query:<5}: {entry['pipe_pickle_bytes_per_event']:>8} B/ev -> "
                f"{entry['frame_bytes_per_event']:>7} B/ev  "
                f"{entry['bytes_per_event_reduction']:>5}x"
                + (f" (committed {committed}x)" if committed is not None else "")
                + f" ... {verdict}"
            )
            transport_ok &= entry["gate_met"]

    serving_ok = True
    if not args.skip_serving_gate and args.serving_baseline.exists():
        from bench_serving import main as run_serving

        serving_out = args.out.with_name("BENCH_serving.candidate.json")
        serving_args = ["--out", str(serving_out)]
        if not args.full:
            serving_args.append("--smoke")
        print()
        print("[bench-compare] serving gate (delta latency, overload, differential):")
        serving_ok = run_serving(serving_args) == 0
        if serving_ok:
            serving_report = compare_reports(
                load_report(args.serving_baseline),
                load_report(serving_out),
                tolerance=args.tolerance,
                rescue=args.rescue,
            )
            print(
                f"[bench-compare] {args.serving_baseline.name} (baseline) vs "
                f"{serving_out.name}:"
            )
            print(format_diff(serving_report))
            serving_ok = serving_report.ok

    return 0 if (
        report.ok
        and wal_ok
        and transport_ok
        and serving_ok
    ) else 1


if __name__ == "__main__":
    raise SystemExit(main())
