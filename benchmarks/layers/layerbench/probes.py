"""Per-layer probes: the harness calls each layer's *public* functions
on the workload's own events and times them from outside.

The program offers no seam inside a trigger, a supervised ``on_batch``
or the server loop, so the ladder is rebuilt here step by step: the
same calls, in the same order, one layer at a time.  Every probe runs
on every workload — a layer that is not on a workload's blocking path
still gets a real number ("what this layer costs on this data"), which
is what lets a later change predict *no movement* there.

Each number is the median of ``REPEATS`` repeats, configurations
interleaved, ``gc.collect()`` before each repeat and GC left on.
"""

from __future__ import annotations

import gc
import pickle
import statistics
import struct
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro import obs
from repro.core import PAIMap, RPAITree
from repro.engine.registry import attach_validation, build_engine, build_sharded_engine
from repro.engine.sharding import plan_router
from repro.engine.shmring import ShmRing
from repro.engine.supervision import DurableEngine
from repro.query import codegen
from repro.query.parser import parse_query
from repro.serving.deltas import compute_delta, fold, freeze
from repro.serving.protocol import Message, MsgType, decode_body, encode
from repro.storage.colbatch import ColumnarFrame, apply_events
from repro.storage.schema import WORKLOAD_SCHEMAS
from repro.storage.stream import Stream
from repro.storage.wal import WriteAheadLog
from repro.workloads import get_query

from . import streams
from .harness import all_cpus, cell, latency_summary, tree_bytes
from .inproc import Case, drive, trigger_items

REPEATS = 5
PAIRS = 3
#: events fed to a probe engine: enough for a stable per-event figure
SAMPLE = 4096
#: serving.protocol's documented frame header, ``<4sBQII``
HEADER_BYTES = struct.calcsize("<4sBQII")


@dataclass
class Profile:
    cases: list[Case]
    flavor: str
    batch: int
    #: untraced per-event time of the workload (for ``core.tree_share``)
    us_per_event: float
    scratch: Path


def median_time(fn: Callable[[], Any], repeats: int = REPEATS) -> float:
    """Median wall seconds of ``fn()``."""
    out = []
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        fn()
        out.append(time.perf_counter() - start)
    return statistics.median(out)


def run_all(profile: Profile) -> tuple[dict, int]:
    """Every probe; returns the layer cells and how many of the probes'
    own result checks (the ``*mismatch`` cells) failed."""
    layers = probe_core(profile, probe_counts(profile))
    for probe in (probe_query, probe_engine, probe_colbatch, probe_wal, probe_sharding,
                  probe_serving_path):
        layers.update(probe(profile))
    failed = sum(int(c["value"]) for name, c in layers.items() if name.endswith("mismatch"))
    return layers, failed


# ---------------------------------------------------------------------------
# core
# ---------------------------------------------------------------------------


def find_indexes(root: Any, depth: int = 5) -> list:
    """Every ``RPAITree``/``PAIMap`` reachable from an engine's state."""
    found, seen, stack = [], set(), [(root, 0)]
    while stack:
        item, level = stack.pop()
        if id(item) in seen or isinstance(item, (str, bytes, int, float, type(None))):
            continue
        seen.add(id(item))
        if isinstance(item, (RPAITree, PAIMap)):
            found.append(item)
            continue
        if level >= depth:
            continue
        if isinstance(item, dict):
            children = list(item.values())
        elif isinstance(item, (list, tuple, set, frozenset)):
            children = list(item)
        else:
            children = list(getattr(item, "__dict__", {}).values())
            for klass in type(item).__mro__:
                for slot in getattr(klass, "__slots__", ()):
                    if hasattr(item, slot):
                        children.append(getattr(item, slot))
        stack.extend((child, level + 1) for child in children)
    return found


def probe_counts(profile: Profile) -> dict:
    """The obs pass: plain engines driven the workload's way with
    ``repro.obs`` on — operation counts per event, and the final
    engines (index sizes, key distributions)."""
    codegen.clear_cache()  # so the codegen counters do not depend on what ran before
    obs.reset()
    obs.enable()
    engines, events = [], 0
    try:
        for case in profile.cases:
            engine = build_engine(case.query, "rpai")
            engine.warm_start(Stream(case.warm))
            drive(engine, trigger_items(case.events, profile.flavor, profile.batch), profile.flavor)
            engines.append(engine)
            events += case.n_timed
        snap = obs.snapshot()
    finally:
        obs.disable()
        obs.reset()
    return {"engines": engines, "events": events, "snapshot": snap}


def probe_core(profile: Profile, counts: dict) -> dict:
    indexes = [index for engine in counts["engines"] for index in find_indexes(engine)]
    trees = [index for index in indexes if isinstance(index, RPAITree)]
    items = sorted(max(trees, key=len).items()) if trees else []
    if len(items) < 64:  # no tree of note on this workload: use the stream's own keys
        weights: dict = {}
        for event in profile.cases[0].events[:SAMPLE]:
            key = next(v for v in event.row.values() if type(v) is int)
            weights[key] = weights.get(key, 0) + 1
        items = sorted(weights.items())
    keys = [key for key, _ in items][:: max(1, len(items) // 512)]
    n = len(keys)

    tree = RPAITree.bulk_load(items)
    table = PAIMap.bulk_load(items)

    per_op = lambda fn: median_time(fn) / n * 1e6  # noqa: E731
    op_us = {
        "add": per_op(lambda: [tree.add(key, 1) for key in keys]),
        "get_sum": per_op(lambda: [tree.get_sum(key) for key in keys]),
    }
    # each shift is undone at once, so the tree keeps the engine's shape;
    # the pair is timed per call (two clock reads on a multi-us op)
    pos, neg, now = [], [], time.perf_counter_ns
    for _ in range(REPEATS):
        gc.collect()
        up = down = 0
        for key in keys:
            t0 = now()
            tree.shift_keys(key, 1)
            t1 = now()
            tree.shift_keys(key, -1)
            t2 = now()
            up += t1 - t0
            down += t2 - t1
        pos.append(up / n / 1e3)
        neg.append(down / n / 1e3)
    op_us["shift_pos"] = statistics.median(pos)
    op_us["shift_neg"] = statistics.median(neg)

    counters = counts["snapshot"]["counters"]
    events = counts["events"]
    count = lambda name: counters.get(name, 0)  # noqa: E731
    ops = {
        "add": count("rpai.add") + count("rpai.put") + count("rpai.delete"),
        "get_sum": count("rpai.get_sum"),
        "shift_pos": count("rpai.shift_keys.pos"),
        "shift_neg": count("rpai.shift_keys.neg"),
    }
    tree_us = sum(ops[op] * op_us[op] for op in ops) / events
    neg_stat = counts["snapshot"]["stats"].get("rpai.neg_shift_violations", {"count": 0, "total": 0})
    allocations = count("rpai.freelist.hits") + count("rpai.freelist.misses")
    out = {f"core.rpai.{op}_us": cell(value, "us") for op, value in op_us.items()}
    out.update({
        "core.paimap.add_us": cell(per_op(lambda: [table.add(key, 1) for key in keys]), "us"),
        "core.paimap.get_us": cell(per_op(lambda: [table.get(key) for key in keys]), "us"),
        "core.rpai.ops_per_event": cell(sum(ops.values()) / events, "1/event"),
        "core.rpai.rotations_per_event": cell(count("rpai.rotations") / events, "1/event"),
        "core.rpai.violations_per_neg_shift": cell(
            neg_stat["total"] / neg_stat["count"] if neg_stat["count"] else 0.0, "count"),
        "core.rpai.freelist_hit_share": cell(
            count("rpai.freelist.hits") / allocations if allocations else 0.0, "ratio"),
        "core.index_size": cell(float(sum(len(index) for index in indexes)), "count"),
        "core.tree_share": cell(tree_us / profile.us_per_event, "ratio"),
    })
    return out


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------


def probe_query(profile: Profile) -> dict:
    queries = [case.query for case in profile.cases]

    def build_all():
        codegen.clear_cache()
        for query in queries:
            parse_query(get_query(query).sql)
            build_engine(query, "rpai")

    codegen.set_codegen(False)
    try:
        plain = [build_engine(query, "rpai") for query in queries]
    finally:
        codegen.set_codegen(True)

    def compile_all():
        codegen.clear_cache()
        for engine in plain:
            codegen.specialize(engine)

    return {
        "query.build_engine_ms": cell(median_time(build_all) * 1e3, "ms"),
        "query.codegen_compile_ms": cell(median_time(compile_all) * 1e3, "ms"),
    }


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------


def warm_engine(case: Case, *, validate: bool = False) -> Any:
    engine = build_engine(case.query, "rpai")
    if validate:
        attach_validation(engine, case.query)
    engine.warm_start(Stream(case.warm))
    return engine


def probe_engine(profile: Profile) -> dict:
    on_event_ns: list[int] = []
    frame_us, result_us, warm_us = [], [], []
    now = time.perf_counter_ns
    for case in profile.cases:
        events = case.events
        half = min(SAMPLE, len(events) // 2)
        engine = warm_engine(case)
        on_event = engine.on_event
        for event in events[:half]:
            t0 = now()
            on_event(event)
            on_event_ns.append(now() - t0)
        result_us.append(median_time(lambda: [engine.result() for _ in range(64)]) / 64 * 1e6)
        frames = [ColumnarFrame.from_events(c) for c in streams.chunks(events[half : 2 * half], 64)]
        start = time.perf_counter()
        for frame in frames:
            engine.on_frame(frame)
        frame_us.append((time.perf_counter() - start) / half * 1e6)

    # interleaved pairs: codegen on/off, quarantine on/off
    def rate(case: Case, items: list, warm_s: list | None = None, **kwargs) -> float:
        gc.collect()
        start = time.perf_counter()
        engine = warm_engine(case, **kwargs)
        if warm_s is not None:
            warm_s.append(time.perf_counter() - start)
        gc.collect()
        start = time.perf_counter()
        drive(engine, items, profile.flavor)
        return 1.0 / (time.perf_counter() - start)

    speedups, guards = {}, []
    for case in profile.cases:
        items = trigger_items(case.events[:SAMPLE], profile.flavor, profile.batch)
        compiled, interpreted, guarded, warm_s = [], [], [], []
        for _ in range(PAIRS):
            compiled.append(rate(case, items, warm_s))
            codegen.set_codegen(False)
            try:
                interpreted.append(rate(case, items))
            finally:
                codegen.set_codegen(True)
            guarded.append(rate(case, items, validate=True))
        speedups[case.query] = statistics.median(compiled) / statistics.median(interpreted)
        guards.append(statistics.median(compiled) / statistics.median(guarded))
        if case.warm:  # build + bulk load of the workload's own prefix
            warm_us.append(statistics.median(warm_s) / len(case.warm) * 1e6)
        else:  # the workload has no warm_start phase: bulk-load its own sample
            fresh = build_engine(case.query, "rpai")
            sample = Stream(case.events[:SAMPLE])
            warm_us.append(median_time(lambda: fresh.warm_start(sample), 1) / len(sample) * 1e6)

    lat = latency_summary(on_event_ns)
    out = {
        "engine.on_event_p50_us": cell(lat["p50"] / 1e3, "us"),
        "engine.on_event_p99_us": cell(lat["p99"] / 1e3, "us"),
        "engine.on_event_max_us": cell(lat["max"] / 1e3, "us"),
        "engine.on_frame_us_per_event": cell(statistics.fmean(frame_us), "us/event"),
        "engine.result_us": cell(statistics.fmean(result_us), "us"),
        "engine.warm_start_us_per_event": cell(statistics.fmean(warm_us), "us/event"),
        "engine.codegen_speedup": cell(statistics.geometric_mean(speedups.values()), "ratio"),
        "engine.quarantine_overhead_ratio": cell(statistics.geometric_mean(guards), "ratio"),
    }
    for query, value in speedups.items():
        out[f"engine.codegen_speedup.{query}"] = cell(value, "ratio")
    return out


# ---------------------------------------------------------------------------
# colbatch
# ---------------------------------------------------------------------------


def probe_colbatch(profile: Profile) -> dict:
    events = profile.cases[-1].events[:SAMPLE]
    batches = streams.chunks(events, max(profile.batch, 16))
    frames = [ColumnarFrame.from_events(batch) for batch in batches]
    blobs = [frame.to_bytes() for frame in frames]
    n = len(events)
    build_s = median_time(lambda: [ColumnarFrame.from_events(b) for b in batches])
    # to_bytes memoizes, so each repeat builds fresh frames and the build time is taken off
    encode_s = median_time(lambda: [ColumnarFrame.from_events(b).to_bytes() for b in batches]) - build_s
    return {
        "colbatch.from_events_us_per_event": cell(build_s / n * 1e6, "us/event"),
        "colbatch.to_bytes_us_per_event": cell(encode_s / n * 1e6, "us/event"),
        "colbatch.from_bytes_us_per_event": cell(
            median_time(lambda: [ColumnarFrame.from_bytes(blob) for blob in blobs]) / n * 1e6, "us/event"),
        "colbatch.bytes_per_event": cell(sum(map(len, blobs)) / n, "B/event"),
        "colbatch.fallback_rows": cell(float(sum(len(f.fallback) for f in frames)), "count"),
    }


# ---------------------------------------------------------------------------
# wal + supervision (single-engine form)
# ---------------------------------------------------------------------------


def probe_wal(profile: Profile) -> dict:
    case = profile.cases[0]
    batches = streams.chunks(case.events[: 2 * SAMPLE], max(profile.batch, 16))
    if len(batches) > 64:  # stop 8 records short of a checkpoint: recovery gets a 56-record tail
        del batches[len(batches) - len(batches) % 64 - 8 :]
    n = sum(len(batch) for batch in batches)
    root = profile.scratch / "probe-wal"

    # raw log: append, size, replay
    with WriteAheadLog(root / "log") as wal:
        now, append_ns = time.perf_counter_ns, []
        for batch in batches:
            t0 = now()
            wal.append(batch)
            append_ns.append(now() - t0)
        log_bytes = tree_bytes(root / "log")
        replay_s = median_time(lambda: list(wal.replay(0)), PAIRS)

    # bare vs durable engine over the same batches, interleaved
    bare, durable = [], []
    obs.reset()
    for pair in range(PAIRS):
        engine = warm_engine(case)
        gc.collect()
        start = time.perf_counter()
        for batch in batches:
            engine.on_batch(batch)
        bare.append(n / (time.perf_counter() - start))
        wrapped = DurableEngine(warm_engine(case), root / f"durable-{pair}")
        obs.enable()
        gc.collect()
        start = time.perf_counter()
        for batch in batches:
            wrapped.on_batch(batch)
        durable.append(n / (time.perf_counter() - start))
        obs.disable()
        wrapped.wal.close()  # crash: no final snapshot
    counters = obs.snapshot()["counters"]
    obs.reset()
    image = root / f"durable-{PAIRS - 1}"
    with DurableEngine(wrapped.engine, root / "snapshot") as final_state:
        snapshot_s = median_time(final_state.snapshot, PAIRS)
        snapshot_bytes = final_state.snapshot().stat().st_size

    # recovery, split the way supervision._recover_engine does it
    with WriteAheadLog(image) as wal:
        t0 = time.perf_counter()
        covered, payload = wal.load_latest_snapshot(max_seq=wal.seq) or (0, None)
        engine = pickle.loads(payload) if payload is not None else warm_engine(case)
        t1 = time.perf_counter()
        replayed = 0
        for _seq, logged in wal.replay(start_seq=covered):
            apply_events(engine, logged)
            replayed += 1
        t2 = time.perf_counter()
    ok = engine.result() == wrapped.engine.result()
    return {
        "wal.append_us_per_batch": cell(statistics.median(append_ns) / 1e3, "us"),
        "wal.bytes_per_event": cell(log_bytes / n, "B/event"),
        "wal.replay_us_per_event": cell(replay_s / n * 1e6, "us/event"),
        "wal.snapshot_ms": cell(snapshot_s * 1e3, "ms"),
        "wal.snapshot_bytes": cell(float(snapshot_bytes), "B"),
        "wal.appends": cell(counters.get("wal.appends", 0) / PAIRS, "count"),
        "wal.snapshots": cell(counters.get("wal.snapshots", 0) / PAIRS, "count"),
        "supervision.bare_eps": cell(statistics.median(bare), "events/s"),
        "supervision.durable_eps": cell(statistics.median(durable), "events/s"),
        "supervision.durable_overhead_ratio": cell(
            statistics.median(bare) / statistics.median(durable), "ratio"),
        "supervision.recover_snapshot_load_ms": cell((t1 - t0) * 1e3, "ms"),
        "supervision.recover_tail_replay_ms": cell((t2 - t1) * 1e3, "ms"),
        "supervision.records_replayed": cell(float(replayed), "count"),
        "supervision.recover_mismatch": cell(float(not ok), "count"),
    }


# ---------------------------------------------------------------------------
# sharding
# ---------------------------------------------------------------------------


def probe_sharding(profile: Profile) -> dict:
    shardable = [c for c in profile.cases if build_engine(c.query, "rpai").shard_mode]
    case = shardable[0]
    events = case.events[: 2 * SAMPLE]
    batches = streams.chunks(events, max(profile.batch, 64))
    n = len(events)
    plan = Stream(case.warm + events)
    template = build_engine(case.query, "rpai")
    router = plan_router(template, 2, plan)
    spec = template.shard_routing_spec()
    frames = [ColumnarFrame.from_events(b, schemas=WORKLOAD_SCHEMAS) for b in batches]
    if spec is not None:
        split_s = median_time(lambda: [router.split_frame(f, spec) for f in frames])
        parts = [part for f in frames for part in router.split_frame(f, spec) if len(part)]
    else:
        split_s = median_time(lambda: [router.split(b) for b in batches])
        parts = [ColumnarFrame.from_events(p) for b in batches for p in router.split(b) if p]
    blobs = [part.to_bytes() for part in parts]

    ring = ShmRing()
    try:
        def roundtrip():
            for blob in blobs:
                ring.write(blob)
                ring.read(len(blob))
        ring_s = median_time(roundtrip)
    finally:
        ring.close()

    def sharded_rate(workers: int) -> tuple[float, Any, dict]:
        engine = build_sharded_engine(case.query, "rpai", shards=2, workers=workers, plan_stream=plan)
        try:
            for chunk in streams.chunks(case.warm, 256):
                engine.on_batch(chunk)
            obs.reset()
            obs.enable()
            gc.collect()
            start = time.perf_counter()
            for batch in batches:
                result = engine.on_batch(batch)
            seconds = time.perf_counter() - start
            obs.disable()
            merge_s = median_time(engine.result) if not workers else 0.0
            return n / seconds, result, {"obs": obs.snapshot(), "merge_s": merge_s}
        finally:
            obs.disable()
            closer = getattr(engine, "close", None)
            if closer is not None:
                closer()

    single, serial, pool = [], [], []
    for _ in range(PAIRS):
        engine = warm_engine(case) if case.warm else build_engine(case.query, "rpai")
        gc.collect()
        start = time.perf_counter()
        for batch in batches:
            want = engine.on_batch(batch)
        single.append(n / (time.perf_counter() - start))
        rate, got_serial, serial_info = sharded_rate(0)
        serial.append(rate)
        with all_cpus():  # the 1-vs-2-worker cell is about the second CPU
            rate, got_pool, pool_info = sharded_rate(2)
        pool.append(rate)
    obs.reset()
    shipped = pool_info["obs"]["counters"].get("shard.bytes_shipped", 0)
    skew = pool_info["obs"]["stats"].get("shard.skew", {"mean": 1.0})["mean"]
    mismatch = (got_serial != want) + (got_pool != want)
    return {
        "sharding.split_frame_us_per_event": cell(split_s / n * 1e6, "us/event"),
        "sharding.ring_roundtrip_us_per_frame": cell(ring_s / len(blobs) * 1e6, "us"),
        "sharding.merge_us_per_result": cell(serial_info["merge_s"] * 1e6, "us"),
        "sharding.bytes_shipped_per_event": cell(shipped / n, "B/event"),
        "sharding.skew": cell(skew, "ratio"),
        "sharding.serial_k2_eps": cell(statistics.median(serial), "events/s"),
        "sharding.mp_k2_eps": cell(statistics.median(pool), "events/s"),
        "sharding.mp_k2_over_single": cell(
            statistics.median(pool) / statistics.median(single), "ratio"),
        "sharding.mismatch": cell(float(mismatch), "count"),
    }


# ---------------------------------------------------------------------------
# protocol + deltas: the serving path replayed in process
# ---------------------------------------------------------------------------


def probe_serving_path(profile: Profile, batch_size: int = 16) -> dict:
    """One ingest batch through every step ``repro serve`` and the
    client take, in order, each step timed on its own: client
    ``from_events`` -> ``to_bytes`` -> ``encode``; server ``decode_body``
    -> ``from_bytes`` -> ``events`` -> per engine (WAL append +
    ``on_batch`` through ``DurableEngine``, ``result`` + ``freeze``,
    ``compute_delta``, ``encode``); client ``decode_body`` -> ``fold``.
    ``server.accounted_ms`` is the sum of the per-step medians."""
    queries = [case.query for case in profile.cases]
    # the server applies every batch to every engine: one shared feed,
    # the workload's distinct streams interleaved
    distinct = {id(case.timed_events[0][0]): case.events[: SAMPLE // 2] for case in profile.cases}
    feed = [event for group in zip(*distinct.values()) for event in group]
    batches = streams.chunks(feed, batch_size)
    root = profile.scratch / "probe-serve"
    engines = {}
    for case in profile.cases:
        engine = warm_engine(case, validate=True)
        engines[case.query] = DurableEngine(engine, root / case.query)
    cached = {q: freeze(e.result()) for q, e in engines.items()}
    folded = dict(cached)

    steps: dict[str, list[int]] = {}
    now = time.perf_counter_ns

    def lap(name: str, start: int) -> int:
        end = now()
        steps.setdefault(name, []).append(end - start)
        return end

    def ship(query: str, seq: int, delta: Any) -> int:
        """One delta from the server's encode to the client's fold."""
        t0 = now()
        wire = encode(Message(MsgType.DELTA, seq, {"query": query, "delta": delta, "ingest": ("A", seq)}))
        t1 = lap("delta.encode", t0)
        back = decode_body(wire[:HEADER_BYTES], wire[HEADER_BYTES:])
        t2 = lap("delta.decode", t1)
        folded[query] = fold(folded[query], back.body["delta"])
        lap("delta.fold", t2)
        return len(wire)

    ingest_bytes = delta_bytes = deltas = empty = 0
    for seq, batch in enumerate(batches, 1):
        t = now()
        frame = ColumnarFrame.from_events(batch)
        t = lap("colbatch.from_events", t)
        blob = frame.to_bytes()
        t = lap("colbatch.to_bytes", t)
        wire = encode(Message(MsgType.INGEST, seq, {"frame": blob}))
        t = lap("protocol.encode_ingest", t)
        message = decode_body(wire[:HEADER_BYTES], wire[HEADER_BYTES:])
        t = lap("protocol.decode_ingest", t)
        events = ColumnarFrame.from_bytes(message.body["frame"]).events()
        lap("colbatch.from_bytes", t)
        ingest_bytes += len(wire)
        engine_ns = compute_ns = 0
        for query in queries:
            t0 = now()
            engines[query].on_batch(events)
            new = freeze(engines[query].result())
            t1 = now()
            delta = compute_delta(cached[query], new)
            engine_ns += t1 - t0
            compute_ns += now() - t1
            if delta is None:
                empty += 1
                continue
            cached[query] = new
            deltas += 1
            delta_bytes += ship(query, seq, delta)
        steps.setdefault("batch.engine", []).append(engine_ns)
        steps.setdefault("batch.compute", []).append(compute_ns)
    for engine in engines.values():
        engine.wal.close()
    mismatch = sum(folded[q] != engines[q].result() for q in queries)
    if not deltas:  # this data never changed a result: time a full-replacement delta instead
        delta_bytes = sum(ship(q, 0, ("set", cached[q])) for q in queries) // len(queries)

    med = lambda name: statistics.median(steps[name]) / 1e3  # noqa: E731  (us)
    per_batch = deltas / len(batches)  # mean deltas one batch causes
    accounted_us = sum(
        med(name) * (per_batch if name.startswith("delta.") else 1.0) for name in steps
    )
    return {
        "protocol.encode_ingest_us": cell(med("protocol.encode_ingest"), "us"),
        "protocol.decode_ingest_us": cell(med("protocol.decode_ingest"), "us"),
        "protocol.encode_delta_us": cell(med("delta.encode"), "us"),
        "protocol.decode_delta_us": cell(med("delta.decode"), "us"),
        "protocol.ingest_wire_bytes_per_event": cell(ingest_bytes / len(feed), "B/event"),
        "protocol.delta_wire_bytes": cell(delta_bytes / max(1, deltas), "B"),
        "deltas.compute_us": cell(med("batch.compute") / len(queries), "us"),
        "deltas.fold_us": cell(med("delta.fold"), "us"),
        "deltas.empty_share": cell(empty / (empty + deltas), "ratio"),
        "server.accounted_ms": cell(accounted_us / 1e3, "ms"),
        "server.accounted_engine_ms": cell(med("batch.engine") / 1e3, "ms"),
        "server.accounted_mismatch": cell(float(mismatch), "count"),
    }
