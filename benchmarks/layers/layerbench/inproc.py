"""The three in-process workloads: ``tree_event``, ``hash_frame`` and
``durable_shard2``.

They share one shape.  A workload is a set of *cases* (one query over
one stream).  A *round* visits every case once — fresh engine, set-up
(timed), one pass over the timed part of the stream through the
workload's trigger with the result read after every call, then the
latency pass — so repeats of one case never run back to back.  Rounds
repeat until ``--seconds`` is spent; streams are never lapped.
"""

from __future__ import annotations

import gc
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro import obs
from repro.engine.naive import evaluate_query
from repro.engine.registry import build_engine, build_sharded_engine
from repro.engine.supervision import recover_result
from repro.query import codegen
from repro.query.parser import parse_query
from repro.serving.deltas import freeze
from repro.storage.colbatch import ColumnarFrame
from repro.storage.relation import Relation
from repro.storage.stream import Event, Stream
from repro.workloads import get_query

from . import streams
from .harness import (
    MIN_BEYOND,
    Tracer,
    cell,
    identical,
    latency_summary,
    peak_rss_mb,
    summary,
    tree_bytes,
)

#: evenly spaced points of the timed pass at which results are compared
CHECKPOINTS = 8
MIN_ROUNDS = 3
REFERENCE_CHUNK = 256

#: events whose from-scratch re-evaluation stays affordable, per query
#: (the naive engine is O(n^2)..O(n^3)); TPC-H uses a miniature stream
#: because a prefix of the real one is all reference rows
ORACLE_EVENTS = {"VWAP": 800, "MST": 128, "PSP": 300, "NQ1": 160, "EQ": 400,
                 "Q17": 1400, "Q18": 400}


@dataclass
class Case:
    """One query over one stream, cut into warm / timed / latency parts."""

    query: str
    warm: list[Event]
    #: CHECKPOINTS segments of trigger items (events, blobs or batches)
    timed: list[list]
    #: the same segments as plain events (reference feed)
    timed_events: list[list[Event]]
    #: trigger items of the dedicated latency pass; empty when the
    #: trigger is slow enough that the timed pass itself is timed per call
    latency: list = field(default_factory=list)
    latency_events: list[Event] = field(default_factory=list)
    oracle: list[Event] = field(default_factory=list)
    #: filled by ``reference``: expected result at each check point + final
    expected: list = field(default_factory=list)
    #: the timed part as one flat list
    events: list[Event] = field(default_factory=list)

    @property
    def n_timed(self) -> int:
        return len(self.events)


def make_case(query: str, events: list[Event], *, warm_share: float, latency_share: float,
              encode: Callable[[list[Event]], list], oracle: list[Event]) -> Case:
    n_warm = int(len(events) * warm_share)
    n_lat = int(len(events) * latency_share)
    timed = events[n_warm : len(events) - n_lat]
    tail = events[len(events) - n_lat :]
    parts = streams.segments(timed, CHECKPOINTS)
    return Case(
        query=query,
        warm=events[:n_warm],
        timed=[encode(part) for part in parts],
        timed_events=parts,
        latency=encode(tail),
        latency_events=tail,
        oracle=oracle,
        events=timed,
    )


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Default = ``tree_event``'s shape; subclasses override the parts."""

    name = ""
    flavor = "event"  # how plain engines are driven in probes: event | frame | batch
    batch = 1
    span = "engine.on_event"
    config: dict = {}

    def cases(self, seed: int, scale: float) -> list[Case]:
        raise NotImplementedError

    def open(self, case: Case, scratch: Path) -> Any:
        engine = build_engine(case.query, "rpai")
        engine.warm_start(Stream(case.warm))
        return engine

    def trigger(self, engine: Any, tracer: Tracer | None) -> Callable[[Any], Any]:
        call = self.call(engine)
        if tracer is None:
            return call
        now, add, span = time.perf_counter_ns, tracer.add, self.span

        def traced(item):
            start = now()
            result = call(item)
            add(span, start, now(), None, len(tracer.spans))
            return result

        return traced

    def call(self, engine: Any) -> Callable[[Any], Any]:
        return engine.on_event

    def finish(self, engine: Any, case: Case, final: Any, scratch: Path) -> tuple[dict, int]:
        """Tear down; returns (extra per-round numbers, failed checks)."""
        return {}, 0


class TreeEvent(Workload):
    name = "tree_event"
    config = {"events_per_query": 40_000, "price_levels": 4000, "delete_ratio": 0.2,
              "warm_share": 0.25, "latency_share": 0.25, "batch": 1}

    def cases(self, seed: int, scale: float) -> list[Case]:
        book = streams.order_book(seed, int(self.config["events_per_query"] * scale))
        return [
            make_case(query, book, warm_share=self.config["warm_share"],
                      latency_share=self.config["latency_share"],
                      encode=list, oracle=book[: ORACLE_EVENTS[query]])
            for query in ("VWAP", "MST", "PSP", "NQ1")
        ]


class HashFrame(Workload):
    name = "hash_frame"
    flavor = "frame"
    batch = 64
    span = "bench.blob"
    config = {"eq_events": 160_000, "tpch_events": 140_000, "warm_share": 0.25, "batch": 64}

    def cases(self, seed: int, scale: float) -> list[Case]:
        ab = streams.relation_ab(seed, int(self.config["eq_events"] * scale))
        rows = streams.tpch(seed + 1, int(self.config["tpch_events"] * scale))
        return [
            make_case(query, events, warm_share=self.config["warm_share"], latency_share=0.0,
                      encode=encode_blobs, oracle=oracle)
            for query, events, oracle in (
                ("EQ", ab, ab[: ORACLE_EVENTS["EQ"]]),
                ("Q17", rows, streams.tpch(seed + 2, ORACLE_EVENTS["Q17"])),
                ("Q18", rows, streams.tpch(seed + 2, ORACLE_EVENTS["Q18"])),
            )
        ]

    def trigger(self, engine: Any, tracer: Tracer | None) -> Callable[[Any], Any]:
        from_bytes, on_frame = ColumnarFrame.from_bytes, engine.on_frame
        if tracer is None:
            return lambda blob: on_frame(from_bytes(blob))
        now, add = time.perf_counter_ns, tracer.add

        def traced(blob):
            t0 = now()
            frame = from_bytes(blob)
            t1 = now()
            result = on_frame(frame)
            t2 = now()
            batch_id = len(tracer.spans)
            root = add("bench.blob", t0, t2, None, batch_id)
            add("colbatch.from_bytes", t0, t1, root, batch_id)
            add("engine.on_frame", t1, t2, root, batch_id)
            return result

        return traced


def encode_blobs(events: list[Event], batch: int = 64) -> list[bytes]:
    return [ColumnarFrame.from_events(chunk).to_bytes() for chunk in streams.chunks(events, batch)]


class DurableShard2(Workload):
    name = "durable_shard2"
    flavor = "batch"
    batch = 64
    span = "supervision.on_batch"
    #: fsync and snapshot_every are build_sharded_engine's defaults
    config = {"vwap_events": 24_000, "q18_events": 42_000, "batch": 64, "shards": 2,
              "workers": 2, "fsync": False, "snapshot_every": 16}

    def cases(self, seed: int, scale: float) -> list[Case]:
        bids = streams.order_book(seed, int(self.config["vwap_events"] * scale), bids_only=True)
        rows = streams.tpch(seed + 1, int(self.config["q18_events"] * scale))
        return [
            make_case(query, events, warm_share=0.0, latency_share=0.0,
                      encode=lambda part: streams.chunks(part, 64), oracle=oracle)
            for query, events, oracle in (
                ("VWAP", bids, bids[: ORACLE_EVENTS["VWAP"]]),
                ("Q18", rows, streams.tpch(seed + 2, ORACLE_EVENTS["Q18"])),
            )
        ]

    def open(self, case: Case, scratch: Path) -> Any:
        return build_sharded_engine(
            case.query, "rpai", shards=2, workers=2,
            plan_stream=Stream(case.events), wal_dir=scratch / "wal",
        )

    def call(self, engine: Any) -> Callable[[Any], Any]:
        return engine.on_batch

    def finish(self, engine: Any, case: Case, final: Any, scratch: Path) -> tuple[dict, int]:
        # The crash image is what a kill -9 at this instant would leave:
        # every append is flushed, and no final snapshot has been taken.
        image = scratch / "image"
        shutil.copytree(scratch / "wal", image)
        failed = int(getattr(engine, "degraded", False))
        engine.close()
        wal_bytes = tree_bytes(image)
        start = time.perf_counter()
        recovered, _stats = recover_result(case.query, "rpai", image)
        recover_s = time.perf_counter() - start
        failed += not identical(recovered, final)
        shutil.rmtree(scratch / "wal")
        shutil.rmtree(image)
        return {"recover_s": recover_s, "wal_bytes": wal_bytes}, failed


WORKLOADS = {w.name: w for w in (TreeEvent(), HashFrame(), DurableShard2())}


# ---------------------------------------------------------------------------
# Reference results
# ---------------------------------------------------------------------------


def recompute(query: str, events: list[Event]) -> Any:
    """One from-scratch evaluation by the naive interpreter."""
    definition = get_query(query)
    relations = {name: Relation(schema) for name, schema in definition.schema_map().items()}
    for event in events:
        relation = relations.get(event.relation)
        if relation is not None:
            relation.apply(event.row, event.weight)
    return evaluate_query(definition.ast, relations, {})


def trigger_items(events: list[Event], flavor: str, batch: int) -> list:
    """The events as the items a trigger of this flavor takes."""
    if flavor == "event":
        return events
    if flavor == "frame":
        return encode_blobs(events, batch)
    return streams.chunks(events, batch)


def drive(engine: Any, items: list, flavor: str) -> Any:
    """Feed a plain engine the way the workload's trigger does."""
    result = engine.result()
    if flavor == "event":
        for event in items:
            result = engine.on_event(event)
    elif flavor == "frame":
        for blob in items:
            result = engine.on_frame(ColumnarFrame.from_bytes(blob))
    else:
        for chunk in items:
            result = engine.on_batch(chunk)
    return result


def reference(workload: Workload, case: Case) -> int:
    """Fill ``case.expected`` from a clean unsharded ``rpai`` engine fed
    through ``on_batch`` (a different trigger than any workload times),
    and check the ``rpai`` engine against the recompute oracle on the
    case's oracle events.  Returns the number of failed oracle checks."""
    engine = build_engine(case.query, "rpai")
    for chunk in streams.chunks(case.warm, REFERENCE_CHUNK):
        engine.on_batch(chunk)
    case.expected = []
    for segment in case.timed_events:
        for chunk in streams.chunks(segment, REFERENCE_CHUNK):
            engine.on_batch(chunk)
        case.expected.append(freeze(engine.result()))
    for chunk in streams.chunks(case.latency_events, REFERENCE_CHUNK):
        engine.on_batch(chunk)
    case.expected.append(freeze(engine.result()))
    oracle = recompute(case.query, case.oracle)
    fast = drive(build_engine(case.query, "rpai"),
                 trigger_items(case.oracle, workload.flavor, workload.batch), workload.flavor)
    # recompute yields ints where rpai yields integral floats: compare values
    return int(oracle != fast)


# ---------------------------------------------------------------------------
# One round
# ---------------------------------------------------------------------------


def timed_pass(trigger: Callable, segments: list[list], per_call: bool):
    """Run the trigger over every item, keeping the result at the end of
    each segment.  ``per_call`` wraps only the trigger in
    ``perf_counter_ns`` (the latency samples); the pass as a whole is
    timed either way."""
    checkpoints: list = []
    samples: list[int] = []
    result = None
    start = time.perf_counter()
    if per_call:
        now, keep = time.perf_counter_ns, samples.append
        for segment in segments:
            for item in segment:
                t0 = now()
                result = trigger(item)
                keep(now() - t0)
            checkpoints.append(freeze(result))
    else:
        for segment in segments:
            for item in segment:
                result = trigger(item)
            checkpoints.append(freeze(result))
    return time.perf_counter() - start, checkpoints, samples


def run_round(workload: Workload, cases: list[Case], scratch: Path,
              tracer: Tracer | None = None) -> dict:
    out = {"setup_s": 0.0, "events": 0, "events_all": 0, "seconds": 0.0, "calls": 0,
           "failed": 0, "cases": {}}
    for case in cases:
        gc.collect()
        codegen.clear_cache()  # every set-up pays parse + plan + codegen compile
        start = time.perf_counter()
        parse_query(get_query(case.query).sql)
        engine = workload.open(case, scratch)
        setup = time.perf_counter() - start
        trigger = workload.trigger(engine, tracer)
        seconds, seen, samples = timed_pass(trigger, case.timed, per_call=not case.latency)
        if case.latency:
            _, tail, samples = timed_pass(trigger, [case.latency], per_call=True)
            seen += tail
        else:
            seen.append(seen[-1])
        extras, failed = workload.finish(engine, case, seen[-1], scratch)
        failed += sum(not identical(got, want) for got, want in zip(seen, case.expected))
        out["setup_s"] += setup
        out["events"] += case.n_timed
        out["events_all"] += case.n_timed + len(case.latency_events)
        out["seconds"] += seconds
        out["calls"] += sum(len(s) for s in case.timed) + len(case.latency)
        out["failed"] += failed
        out["cases"][case.query] = {"eps": case.n_timed / seconds, "samples": samples, **extras}
    return out


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, scale: float, trace: bool, scratch: Path) -> dict:
    workload = WORKLOADS[name]
    cases = workload.cases(seed, scale)
    failed = sum(reference(workload, case) for case in cases)
    attempted = len(cases)  # oracle checks

    rounds: list[dict] = []
    traced_rounds: list[dict] = []
    tracer = Tracer() if trace else None
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        rounds.append(run_round(workload, cases, scratch))
        if trace:  # interleave traced and untraced rounds
            obs.enable()
            try:
                traced_rounds.append(run_round(workload, cases, scratch, tracer))
            finally:
                obs.disable()
            if len(rounds) >= MIN_ROUNDS:
                break
    for done in rounds + traced_rounds:
        attempted += done["calls"] + len(cases) * (CHECKPOINTS + 1)
        failed += done["failed"]

    metrics = end_to_end(cases, rounds)
    # the highest percentile the pooled samples support, next to the p99
    tops = [latency_summary([s for r in rounds for s in r["cases"][c.query]["samples"]]) for c in cases]
    result = {
        "config": dict(workload.config, queries=[c.query for c in cases], rounds=len(rounds)),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "layers": {
            "bench.update_p99_us": metrics["update_p99_us"],
            "bench.update_top_percentile": cell(min(t["top_pct"] for t in tops), "%"),
            "bench.update_top_us": cell(statistics.fmean(t["top"] for t in tops) / 1e3, "us"),
        },
    }
    if trace:
        from . import probes

        layers = result["layers"]
        for case in cases:
            per_round = [r["cases"][case.query]["eps"] for r in rounds]
            layers[f"engine.eps.{case.query}"] = summary(per_round, "events/s")
        rate = lambda rs: statistics.median(r["events"] / r["seconds"] for r in rs)  # noqa: E731
        layers["bench.trace_overhead_ratio"] = cell(rate(traced_rounds) / rate(rounds), "ratio")
        layers.update(span_layers(tracer, traced_rounds))
        probed, probe_failures = probes.run_all(probes.Profile(
            cases=cases, flavor=workload.flavor, batch=workload.batch,
            us_per_event=1e6 / metrics["refresh_rate_eps"]["value"], scratch=scratch,
        ))
        layers.update(probed)
        result["failed"] += probe_failures
        result["tracer"] = tracer
        result["obs"] = obs.snapshot()
        obs.reset()
    return result


def end_to_end(cases: list[Case], rounds: list[dict]) -> dict:
    def latency(key: str) -> dict:
        """Mean over the cases of each case's percentile: cases differ
        several-fold in cost, so a percentile of the mixed population
        would sit on the boundary between two cases.  The value is the
        median over the rounds when one round supports a p99 (>= 10
        samples beyond it in every case), else the percentile of the
        samples pooled over all rounds."""
        def mean(rs: list[dict]) -> float:
            return statistics.fmean(
                latency_summary([s for r in rs for s in r["cases"][c.query]["samples"]])[key]
                for c in cases
            ) / 1e3

        per_round = [mean([r]) for r in rounds]
        supported = all(
            len(r["cases"][c.query]["samples"]) >= 100 * MIN_BEYOND for r in rounds for c in cases
        )
        return summary(per_round, "us", None if supported else mean(rounds))

    rss = peak_rss_mb() + peak_rss_mb(resource.RUSAGE_CHILDREN)
    events = sum(r["events"] for r in rounds) / len(rounds)
    metrics = {
        "setup_s": summary([r["setup_s"] for r in rounds], "s"),
        "refresh_rate_eps": summary([r["events"] / r["seconds"] for r in rounds], "events/s"),
        "update_p50_us": latency("p50"),
        "update_p99_us": latency("p99"),
        "peak_rss_mb": cell(rss, "MiB"),
        "delta_p50_ms": None,
        "delta_p99_ms": None,
        "recover_s": None,
        "wal_bytes_per_event": None,
        "wire_bytes_per_event": None,
    }
    if "recover_s" in rounds[0]["cases"][cases[0].query]:  # the workload crashes and recovers
        extra = lambda key: [sum(c[key] for c in r["cases"].values()) for r in rounds]  # noqa: E731
        metrics["recover_s"] = summary(extra("recover_s"), "s")
        metrics["wal_bytes_per_event"] = summary([b / events for b in extra("wal_bytes")], "B/event")
    return metrics


def span_layers(tracer: Tracer, traced_rounds: list[dict]) -> dict:
    """Self time of each span name per event of the traced rounds."""
    events = sum(r["events_all"] for r in traced_rounds)
    return {
        f"span.{name}.self_us_per_event": cell(times["self_ns"] / 1e3 / events, "us/event")
        for name, times in tracer.self_times().items()
    }
