"""Command-line interface: ``python -m repro <command>``.

Commands:

``list``
    Show the benchmark queries, their planner strategy and per-update
    cost (Table 1's analytical half).
``classify <sql | file>``
    Parse a query and print the planner's verdict.
``codegen [<query>] [--engine E] [--flavor F]``
    Print what is generated for the query: the triggers the code
    generator emits for the aggregate-index engine (EQ, VWAP, MST, PSP,
    Q17, Q18, and SQ1 and SQ2 on its free-map side), or the reason the
    engine runs hand-written code; without a query, the support table.
``run <query> [--engine E] [--events N] [--seed S] [--shards K] [--workers N]
             [--wal-dir D] [--max-respawns R] [--fsync]``
    Stream a synthetic workload through an engine and report result,
    wall time and throughput.  ``--shards K`` partitions the stream
    into K engine replicas (serial, deterministic); ``--workers N``
    additionally runs one worker process per shard.  Queries whose
    correlation crosses any partition fall back to a single engine.
    ``--wal-dir`` enables the fault-tolerant path: every batch is
    written to a per-shard write-ahead log before it is applied, worker
    state is snapshotted periodically, and dead workers are respawned
    and restored (up to ``--max-respawns`` times per shard, after which
    execution degrades to the serial executor).
``recover <query> [--engine E] --wal-dir D``
    Rebuild engine state offline from a WAL directory left by an
    interrupted ``run --wal-dir`` (or chaos run) and print the merged
    query result plus per-shard recovery statistics.
``chaos <query> [--engine E] [--events N] [--seed S] [--workers K] [--out F]``
    Chaos differential run: execute the query under a seeded fault plan
    (worker kills, dropped/duplicated messages, snapshot corruption,
    schema-violating junk events) through the supervised executor and
    assert the result equals a clean unsharded run.  Writes the obs
    counters (recoveries, respawns, quarantined events, injected
    faults) as JSON when ``--out`` is given.
``compare <query> [--events N]``
    Run every strategy on the same stream and print a comparison table;
    exits 1 when the final results are not equal values.  The naive
    baseline is skipped when N exceeds ``--recompute-cap``.
``stats <query> [--engine E] [--events N] [--seed S] [--selfcheck] [--json]``
    Run with the observability sink enabled and print the operation
    counters (tree rotations, shift_keys calls, fixTree violations, ...)
    plus the derived metrics — e.g. the Section 3.2.4 per-negative-shift
    violation bound.  ``--selfcheck`` additionally runs the structure
    invariant checks after every mutation.  The header reports the
    live aggregate-index class and the default batch size.
``serve [--port P] [--engine E] [--queue-policy P] [--wal-root D] ...``
    Run the streaming subscription server: clients ingest events over
    TCP and subscribe to queries (snapshot, then incremental result
    deltas).  ``--wal-root`` makes every tenant durable; the queue
    policy picks what happens when a tenant's bounded ingest queue is
    full (``block`` | ``shed-newest`` | ``disconnect``).
``client <query...> [--port P] [--tenant T] [--events N] [--seed S]``
    Connect to a running ``repro serve``, subscribe to the given
    queries, ingest a synthetic workload, and report the folded
    results plus delta-latency percentiles.

A library error (:class:`~repro.errors.ReproError`) ends any command
with one ``error: <message>`` line on stderr and exit status 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import Any

from repro import obs
from repro.bench.reporting import format_table
from repro.bench.runner import run_timed
from repro.engine.registry import STRATEGIES, build_engine
from repro.errors import ReproError
from repro.query.parser import parse_query
from repro.query.planner import AUTO_BATCH_SIZE, asymptotic_cost, classify
from repro.storage.stream import Stream
from repro.workloads import (
    OrderBookConfig,
    TPCHConfig,
    generate_bids_only,
    generate_order_book,
    generate_tpch,
    get_query,
    query_names,
)


def _default_stream(query_name: str, events: int, seed: int) -> Stream:
    name = query_name.upper()
    if name in ("Q17", "Q18"):
        return generate_tpch(TPCHConfig(scale_factor=events / 60_000, seed=seed))
    if name == "EQ":
        import random

        from repro.storage.stream import Event

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
    config = OrderBookConfig(
        events=events,
        price_levels=max(20, events // 5),
        volume_max=100,
        seed=seed,
        delete_ratio=0.1,
    )
    if name in ("MST", "PSP"):
        return generate_order_book(config)
    return generate_bids_only(config)


def _source_section(source: str, trigger: str) -> str:
    """The top-level ``def <trigger>(`` block of a generated source."""
    lines = source.splitlines()
    start = next(index for index, line in enumerate(lines) if line.startswith(f"def {trigger}("))
    end = len(lines)
    for index in range(start + 1, len(lines)):
        if lines[index].startswith("def "):
            end = index
            break
    return "\n".join(lines[start:end]).rstrip() + "\n"


#: ``repro codegen`` detail for engines :func:`codegen.specialize`
#: declines: the hand-written per-query classes (NQ1, NQ2) are
#: their own single definition (the DBToaster/naive baselines likewise).
_NO_EMITTER = "hand-written trigger (no emitter)"

#: ``repro codegen --flavor`` -> the generated function of that call shape
_FLAVOR_TRIGGERS = {"event": "apply", "batch": "apply_batch", "frame": "apply_frame"}


def _codegen_detail(engine) -> str:
    return "aggregate-index emitter" if engine.trigger_mode == "compiled" else _NO_EMITTER


def cmd_codegen(args: argparse.Namespace) -> int:
    from repro.query import codegen

    if args.query is None:
        # Support table: one row per registry query under the chosen
        # strategy — which class serves it and what is generated for it.
        rows = []
        for name in query_names():
            engine = build_engine(name, args.engine)
            rows.append(
                [name, type(engine).__name__, engine.trigger_mode, _codegen_detail(engine)]
            )
        print(format_table(["query", "engine", "trigger", "detail"], rows))
        return 0
    name = args.query.upper()
    if name not in query_names():
        print(f"unknown query {args.query!r}; choose from {', '.join(query_names())}")
        return 2
    engine = build_engine(name, args.engine)
    source = codegen.generated_source(engine)
    print(f"query    : {name}")
    print(f"engine   : {type(engine).__name__} ({engine.name})")
    if source is None:
        print(f"trigger  : {engine.trigger_mode}")
        print(f"reason   : {_NO_EMITTER}")
        return 0
    print(f"trigger  : {engine.trigger_mode} ({_codegen_detail(engine)})")
    print()
    if args.flavor == "all":
        print(source)
        return 0
    print(_source_section(source, _FLAVOR_TRIGGERS[args.flavor]))
    print(_source_section(source, "result"))
    return 0


def cmd_list(_args: argparse.Namespace) -> int:
    rows = []
    for name in query_names():
        qd = get_query(name)
        plan = classify(qd.ast)
        rows.append([name, plan.strategy.value, asymptotic_cost(plan), qd.description[:58]])
    print(format_table(["query", "strategy", "per-update", "description"], rows))
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    text = args.sql
    path = Path(text)
    if path.exists():
        text = path.read_text()
    query = parse_query(text)
    plan = classify(query)
    print(query.to_aggrq_notation())
    print()
    print(plan.describe())
    print("per-update cost:", asymptotic_cost(plan))
    return 0


def _auto_batch(query: str, strategy: str, *, sharded: bool) -> tuple[int, str]:
    """Default batch size when ``--batch-size`` is not given.

    The rpai engines take the per-strategy constant
    (:data:`~repro.query.planner.AUTO_BATCH_SIZE`); sharded runs floor
    it at 256 — the measured break-even of the shared-memory frame
    transport.  Other strategies keep the legacy defaults.
    """
    if strategy != "rpai":
        return (500 if sharded else 1, "")
    batch = AUTO_BATCH_SIZE[classify(get_query(query.upper()).ast).strategy]
    return (max(batch, 256) if sharded else batch), " (auto)"


def cmd_run(args: argparse.Namespace) -> int:
    from repro.engine.registry import build_sharded_engine

    stream = _default_stream(args.query, args.events, args.seed)
    workers = max(0, args.workers)
    shards = args.shards if args.shards is not None else (workers or 1)
    close = None
    if shards > 1 or workers or args.wal_dir is not None:
        engine = build_sharded_engine(
            args.query,
            args.engine,
            shards=shards,
            workers=workers,
            plan_stream=stream,
            wal_dir=args.wal_dir,
            max_respawns=args.max_respawns,
            fsync=args.fsync,
        )
        close = getattr(engine, "close", None)
        sharded = getattr(engine, "shards", None)
        if sharded is None and shards > 1:
            print(
                f"note     : {args.query.upper()}/{args.engine} is not shardable "
                "(correlated predicate crosses partitions); running unsharded"
            )
    else:
        engine = build_engine(args.query, args.engine)
    if args.batch_size is not None:
        batch_size = args.batch_size
        batch_note = ""
    else:
        # Sharded runs ship per-shard chunks (amortizing one pipe round
        # trip per chunk).
        batch_size, batch_note = _auto_batch(
            args.query, args.engine, sharded=bool(shards > 1 or workers)
        )
    try:
        run = run_timed(engine, stream, batch_size=batch_size, workers=workers)
    finally:
        if close is not None:
            close()
    print(f"query    : {args.query.upper()}")
    print(f"engine   : {engine.name}")
    if close is None and args.wal_dir is None and not (shards > 1 or workers):
        # Plain engines report their trigger mode; executors/wrappers
        # hold many replicas (each with its own mode) and stay silent.
        print(f"trigger  : {engine.trigger_mode}")
        from repro.engine.aggr_index import describe_backends

        backend = describe_backends(engine)
        if backend is not None:
            print(f"backend  : {backend}")
    print(f"batch    : {batch_size}{batch_note}")
    print(f"events   : {run.events}")
    print(f"time     : {run.seconds:.4f}s ({run.events_per_second:,.0f} events/s)")
    print(f"result   : {run.final_result}")
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    from repro.engine.supervision import recover_result

    obs.enable()
    obs.reset()
    try:
        result, stats = recover_result(args.query, args.engine, args.wal_dir)
    finally:
        snap = obs.snapshot()
        obs.disable()
    print(f"query    : {args.query.upper()}")
    print(f"engine   : {args.engine}")
    print(f"wal dir  : {args.wal_dir}")
    print(f"shards   : {stats['shards']}")
    for index, shard_stats in enumerate(stats["per_shard"]):
        snap_seq = shard_stats["snapshot_seq"]
        print(
            f"  shard {index}: snapshot at seq "
            f"{'-' if snap_seq is None else snap_seq}, "
            f"replayed {shard_stats['records_replayed']} records "
            f"(head seq {shard_stats['head_seq']})"
        )
    corrupt = snap.get("counters", {}).get("wal.snapshot_corrupt", 0)
    if corrupt:
        print(f"warning  : skipped {corrupt} corrupt snapshot file(s)")
    print(f"result   : {result}")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.engine.registry import build_sharded_engine
    from repro.faults import FaultInjector, FaultPlan

    stream = _default_stream(args.query, args.events, args.seed)
    relations = tuple(get_query(args.query.upper()).schema_map())
    batch_size = max(1, args.batch_size)

    clean = build_engine(args.query, args.engine)
    clean_result = clean.result()
    for batch in stream.batches(batch_size):
        clean_result = clean.on_batch(batch)

    obs.enable()
    obs.reset()
    plan = FaultPlan.seeded(
        args.seed, shards=args.workers, events=len(stream), relations=relations
    )
    import tempfile

    failures = []
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as wal_dir:
        engine = build_sharded_engine(
            args.query,
            args.engine,
            shards=args.workers,
            workers=args.workers,
            plan_stream=stream,
            wal_dir=wal_dir,
            snapshot_every=args.snapshot_every,
            fault_plan=plan,
        )
        supervised = hasattr(engine, "degraded")
        injector = None if supervised else FaultInjector(plan)
        try:
            result = engine.result()
            for batch in stream.batches(batch_size):
                if injector is not None:
                    # Unshardable fallback: no worker transport to fault,
                    # but junk events still stress the quarantine boundary.
                    batch = injector.splice_bad_events(batch)
                result = engine.on_batch(batch)
        finally:
            closer = getattr(engine, "close", None)
            if closer is not None:
                closer()
    snap = obs.snapshot()
    obs.disable()
    if result != clean_result:
        failures.append(f"faulty result {result!r} != clean result {clean_result!r}")
    counters = snap.get("counters", {})
    payload = {
        "query": args.query.upper(),
        "engine": args.engine,
        "events": len(stream),
        "seed": args.seed,
        "workers": args.workers,
        "supervised": supervised,
        "match": not failures,
        "counters": {
            name: counters.get(name, 0)
            for name in sorted(counters)
            if name.split(".")[0] in ("faults", "supervisor", "wal")
            or name == "engine.quarantined"
        },
    }
    if args.out is not None:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"query    : {payload['query']} ({args.engine}, seed {args.seed})")
    print(f"mode     : {'supervised x' + str(args.workers) if supervised else 'fallback (unshardable)'}")
    print(f"result   : {'MATCH' if not failures else 'MISMATCH'}")
    for name, value in payload["counters"].items():
        print(f"  {name}: {value}")
    if failures:
        print("FAIL:", "; ".join(failures))
        return 1
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.engine.aggr_index import describe_backends

    stream = _default_stream(args.query, args.events, args.seed)
    if args.batch_size is not None:
        batch_size = args.batch_size
        batch_note = ""
    else:
        batch_size, batch_note = _auto_batch(args.query, args.engine, sharded=False)
    obs.enable()
    obs.reset()
    if args.selfcheck:
        obs.enable_selfcheck()
    try:
        engine = build_engine(args.query, args.engine)
        run = run_timed(engine, stream, batch_size=batch_size)
        snap = obs.snapshot()
    finally:
        obs.disable()
        obs.disable_selfcheck()
    derived = obs.derived_metrics(snap, events=run.events)
    trigger_mode = engine.trigger_mode
    backend = describe_backends(engine)
    if args.json:
        payload = {
            "query": args.query.upper(),
            "engine": args.engine,
            "trigger_mode": trigger_mode,
            "backend": backend,
            "batch_size": batch_size,
            "batch_auto": bool(batch_note),
            "events": run.events,
            "seconds": round(run.seconds, 6),
            "ops": snap,
            "derived": derived,
        }
        print(json.dumps(payload, indent=2, allow_nan=False))
        return 0
    print(f"query    : {args.query.upper()}")
    print(f"engine   : {args.engine}")
    print(f"trigger  : {trigger_mode}")
    if backend is not None:
        print(f"backend  : {backend}")
    print(f"events   : {run.events}  (batch_size={max(1, batch_size)}{batch_note})")
    print(f"time     : {run.seconds:.4f}s")
    print(f"result   : {run.final_result}")
    print()
    counters = snap.get("counters", {})
    if counters:
        print(format_table(
            ["counter", "count"],
            [[name, counters[name]] for name in sorted(counters)],
        ))
    else:
        print("(no counters fired — engine uses no instrumented structures)")
    stats = snap.get("stats", {})
    if stats:
        print()
        print(format_table(
            ["distribution", "count", "mean", "min", "max"],
            [
                [
                    name,
                    entry["count"],
                    round(entry["mean"], 3),
                    entry.get("min", entry.get("running_min")),
                    entry.get("max", entry.get("running_max")),
                ]
                for name, entry in sorted(stats.items())
            ],
        ))
    if derived:
        print()
        rows = [[name, value] for name, value in sorted(derived.items())]
        rotations = derived.get("rotations_per_update")
        if rotations is not None and run.events > 0:
            rows.append(["log2(events)", round(math.log2(max(run.events, 2)), 2)])
        print(format_table(["derived metric", "value"], rows))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serving.server import ServingConfig, run_server

    config = ServingConfig(
        host=args.host,
        port=args.port,
        strategy=args.engine,
        queue_limit=args.queue_limit,
        queue_policy=args.queue_policy,
        subscriber_buffer=args.subscriber_buffer,
        heartbeat_interval=args.heartbeat,
        idle_timeout=args.idle_timeout,
        wal_root=args.wal_root,
        fsync=args.fsync,
        snapshot_every=args.snapshot_every,
    )
    durability = f"durable ({args.wal_root})" if args.wal_root else "in-memory"
    try:
        asyncio.run(
            run_server(
                config,
                ready=lambda port: print(
                    f"serving on {args.host}:{port} "
                    f"({args.engine}, {args.queue_policy} queue, {durability})",
                    flush=True,
                ),
            )
        )
    except KeyboardInterrupt:
        # run_server normally absorbs SIGINT via its loop signal
        # handler; this only fires where that could not be installed
        pass
    print("drained and stopped")
    return 0


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))]


def cmd_client(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serving.client import SubscriptionClient

    queries = [q.upper() for q in args.queries]
    unknown = [q for q in queries if q not in query_names()]
    if unknown:
        print(f"unknown queries {unknown}; choose from {', '.join(query_names())}")
        return 2
    # One workload stream per distinct family, concatenated: engines
    # ignore relations their query does not reference.
    events = []
    families_done = set()
    for query in queries:
        family = "tpch" if query in ("Q17", "Q18") else "eq" if query == "EQ" else "book"
        if family not in families_done and args.events > 0:  # 0: subscribe and report only
            families_done.add(family)
            events.extend(_default_stream(query, args.events, args.seed))

    async def run() -> int:
        client = SubscriptionClient(
            args.host, args.port, tenant=args.tenant, session=args.session
        )
        await client.connect()
        for query in queries:
            await client.subscribe(query)
        await client.wait_for(lambda c: set(queries) <= set(c.results), 30)
        started = time.perf_counter()
        for index in range(0, len(events), args.batch_size):
            await client.ingest(events[index : index + args.batch_size])
        await client.settle(120)
        # quiesce: no new deltas for a few beats
        stable = client.deltas_seen
        for _ in range(100):
            await asyncio.sleep(0.02)
            if client.deltas_seen == stable:
                break
            stable = client.deltas_seen
        elapsed = time.perf_counter() - started
        print(f"tenant   : {args.tenant} (session {client.session})")
        print(f"events   : {len(events)} in {elapsed:.3f}s "
              f"({len(events) / max(elapsed, 1e-9):,.0f} events/s)")
        print(f"deltas   : {client.deltas_seen} folded, "
              f"{client.reconnects} reconnects, {len(client.shed_seqs)} shed")
        latencies = [seconds for _, _, seconds in client.delta_latencies]
        if latencies:
            print(
                f"latency  : p50 {1e3 * _percentile(latencies, 0.50):.2f}ms  "
                f"p99 {1e3 * _percentile(latencies, 0.99):.2f}ms  "
                f"({len(latencies)} samples)"
            )
        for query in queries:
            result = client.results.get(query)
            if isinstance(result, dict):  # group order is fold history: print by key
                result = dict(sorted(result.items()))
            rendered = repr(result)
            if len(rendered) > 70:
                rendered = rendered[:67] + "..."
            print(f"  {query:<5}: {rendered}")
        await client.close()
        return 0

    try:
        return asyncio.run(run())
    except ConnectionRefusedError:
        print(f"no server at {args.host}:{args.port} — start one with `repro serve`")
        return 1


def cmd_compare(args: argparse.Namespace) -> int:
    stream = _default_stream(args.query, args.events, args.seed)
    rows = []
    results = {}
    for strategy in STRATEGIES:
        if strategy == "recompute" and args.events > args.recompute_cap:
            note = f"skipped: --events > --recompute-cap {args.recompute_cap}"
            rows.append([strategy, "-", "-", note])
            continue
        run = run_timed(build_engine(args.query, strategy), stream)
        results[strategy] = run.final_result
        rows.append([strategy, run.events, round(run.seconds, 4), ""])
    print(format_table(["engine", "events", "seconds", "note"], rows))
    if not engines_agree(results):
        print("WARNING: engines disagree!", results)
        return 1
    return 0


def engines_agree(results: dict[str, Any]) -> bool:
    """Whether every strategy's final result is the same value: ``==``,
    so ``20146`` and ``20146.0`` agree and a grouped result's key order
    does not count."""
    values = list(results.values())
    return all(value == values[0] for value in values[1:])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="RPAI incremental query engines (SIGMOD 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show benchmark queries and strategies")

    p_classify = sub.add_parser("classify", help="classify a SQL query")
    p_classify.add_argument("sql", help="SQL text or path to a .sql file")

    p_codegen = sub.add_parser(
        "codegen",
        help="print the generated trigger source for a query, or the "
        "per-query codegen support table when no query is given",
    )
    p_codegen.add_argument("query", nargs="?", default=None)
    p_codegen.add_argument("--engine", default="rpai", choices=STRATEGIES)
    p_codegen.add_argument(
        "--flavor",
        default="all",
        choices=("event", "batch", "frame", "all"),
        help="dump only the generated apply* of that call shape, and result",
    )

    p_run = sub.add_parser("run", help="run one engine over a synthetic stream")
    p_run.add_argument("query", choices=[n for n in query_names()] + [n.lower() for n in query_names()])
    p_run.add_argument("--engine", default="rpai", choices=STRATEGIES)
    p_run.add_argument("--events", type=int, default=2000)
    p_run.add_argument("--seed", type=int, default=42)
    p_run.add_argument(
        "--shards",
        type=int,
        default=None,
        help="partition the stream into K engine replicas (serial executor; "
        "defaults to --workers when that is set)",
    )
    p_run.add_argument(
        "--workers",
        type=int,
        default=0,
        help="run the multiprocess sharded executor with one worker "
        "process per shard (0 = in-process)",
    )
    p_run.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="events per trigger chunk (default: per-strategy constant "
        "for rpai; 1 unsharded / 500 sharded otherwise)",
    )
    p_run.add_argument(
        "--wal-dir",
        type=Path,
        default=None,
        help="write-ahead-log directory: log every batch before applying "
        "it and checkpoint periodically (enables crash recovery and, "
        "with --workers, supervised respawn of dead workers)",
    )
    p_run.add_argument(
        "--max-respawns",
        type=int,
        default=3,
        help="per-shard worker respawn budget before degrading to the "
        "serial executor (supervised path only)",
    )
    p_run.add_argument(
        "--fsync",
        action="store_true",
        help="fsync every WAL append (crash-safe, slower)",
    )

    p_recover = sub.add_parser(
        "recover", help="rebuild engine state from a write-ahead-log directory"
    )
    p_recover.add_argument("query", choices=[n for n in query_names()] + [n.lower() for n in query_names()])
    p_recover.add_argument("--engine", default="rpai", choices=STRATEGIES)
    p_recover.add_argument("--wal-dir", type=Path, required=True)

    p_chaos = sub.add_parser(
        "chaos", help="seeded fault-injection differential run"
    )
    p_chaos.add_argument("query", choices=[n for n in query_names()] + [n.lower() for n in query_names()])
    p_chaos.add_argument("--engine", default="rpai", choices=STRATEGIES)
    p_chaos.add_argument("--events", type=int, default=800)
    p_chaos.add_argument("--seed", type=int, default=42)
    p_chaos.add_argument(
        "--workers", type=int, default=2, help="shard/worker count for the run"
    )
    p_chaos.add_argument("--batch-size", type=int, default=50)
    p_chaos.add_argument(
        "--snapshot-every",
        type=int,
        default=4,
        help="checkpoint cadence in WAL records per shard",
    )
    p_chaos.add_argument(
        "--out", type=Path, default=None, help="write counters JSON here"
    )

    p_stats = sub.add_parser(
        "stats", help="run one engine with operation counters enabled"
    )
    p_stats.add_argument("query", choices=[n for n in query_names()] + [n.lower() for n in query_names()])
    p_stats.add_argument("--engine", default="rpai", choices=STRATEGIES)
    p_stats.add_argument("--events", type=int, default=2000)
    p_stats.add_argument("--seed", type=int, default=42)
    p_stats.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="events per trigger chunk (default: per-strategy constant "
        "for rpai, 1 otherwise)",
    )
    p_stats.add_argument(
        "--selfcheck",
        action="store_true",
        help="run structure invariant checks after every mutation (slow)",
    )
    p_stats.add_argument("--json", action="store_true", help="machine-readable output")

    p_serve = sub.add_parser(
        "serve", help="run the streaming subscription server"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=7878, help="TCP port (0 = ephemeral)"
    )
    p_serve.add_argument("--engine", default="rpai", choices=STRATEGIES)
    p_serve.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="ingest batches buffered per tenant before the policy applies",
    )
    p_serve.add_argument(
        "--queue-policy",
        default="block",
        choices=("block", "shed-newest", "disconnect"),
        help="what to do with ingest when a tenant's queue is full",
    )
    p_serve.add_argument(
        "--subscriber-buffer",
        type=int,
        default=128,
        help="unacked deltas a subscription may lag before eviction",
    )
    p_serve.add_argument("--heartbeat", type=float, default=5.0)
    p_serve.add_argument("--idle-timeout", type=float, default=30.0)
    p_serve.add_argument(
        "--wal-root",
        type=Path,
        default=None,
        help="per-tenant WAL root (durable tenants; recover on restart)",
    )
    p_serve.add_argument("--fsync", action="store_true")
    p_serve.add_argument(
        "--snapshot-every",
        type=int,
        default=None,
        help="checkpoint every N WAL records (default: when the log tail "
        "outweighs the last checkpoint, 64 KiB at least)",
    )

    p_client = sub.add_parser(
        "client", help="subscribe to queries on a running server and ingest"
    )
    p_client.add_argument(
        "queries", nargs="+", help="registry queries to subscribe to (e.g. VWAP Q18)"
    )
    p_client.add_argument("--host", default="127.0.0.1")
    p_client.add_argument("--port", type=int, default=7878)
    p_client.add_argument("--tenant", default="default")
    p_client.add_argument("--session", default=None)
    p_client.add_argument("--events", type=int, default=2000)
    p_client.add_argument("--seed", type=int, default=42)
    p_client.add_argument("--batch-size", type=int, default=100)

    p_compare = sub.add_parser("compare", help="run all engines on one stream")
    p_compare.add_argument("query", choices=[n for n in query_names()] + [n.lower() for n in query_names()])
    p_compare.add_argument("--events", type=int, default=1000)
    p_compare.add_argument("--seed", type=int, default=42)
    p_compare.add_argument(
        "--recompute-cap",
        type=int,
        default=200,
        help="skip the naive baseline (quadratic+ per update) above this many events",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "list": cmd_list,
        "classify": cmd_classify,
        "codegen": cmd_codegen,
        "run": cmd_run,
        "recover": cmd_recover,
        "chaos": cmd_chaos,
        "stats": cmd_stats,
        "serve": cmd_serve,
        "client": cmd_client,
        "compare": cmd_compare,
    }[args.command]
    try:
        return handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
