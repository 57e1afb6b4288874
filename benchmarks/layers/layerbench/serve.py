"""``serve_open``: ``python -m repro serve`` as a separate process, two
``SubscriptionClient`` connections on one tenant, an open loop.

The generator is this one process (no threads): connection A ingests
and subscribes, connection B only subscribes.  Phase 1 sends 16-event
batches on a fixed schedule — each batch is timed from when it was
*due*, so a server stall is charged to every batch it delays — and
phase 2 keeps at most ``WINDOW`` ingests in flight to find the
saturation rate.  No timed phase contains a sleep-polling helper
(``settle``/``wait_for`` poll every 5 ms): waiting is on an event the
receive path sets.
"""

from __future__ import annotations

import asyncio
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

from repro.engine.registry import build_engine
from repro.serving.client import SubscriptionClient
from repro.serving.protocol import MsgType

from . import streams
from .harness import (
    OpenLoop,
    Tracer,
    cell,
    cpu_seconds,
    identical,
    latency_summary,
    peak_rss_mb,
    python_env,
    summary,
    tree_bytes,
)
from .inproc import make_case

QUERIES = ("VWAP", "PSP", "Q18")
BATCH = 16
#: the gated fixed rate, batches/s (4,000 events/s)
RATE = 250
#: the traced sweep; the highest rate with p99 under the limit and no
#: backlog is ``server.sustainable_rate_bps``
SWEEP = (100, 250, 400)
P99_LIMIT_MS = 250.0
WINDOW = 8
#: an open-loop phase is cut into at most this many windows of at least
#: this length; the gated p50/p99 are medians over the windows
WINDOWS = 7
WINDOW_SECONDS = 2.0
BOOTS = 5
#: stream sizing only: batches/s the saturation phase is assumed not to exceed
SATURATION_CAP = 2500
QUIESCE_TIMEOUT = 60.0
CONFIG = {"queries": list(QUERIES), "batch": BATCH, "rate_bps": RATE, "window": WINDOW,
          "clients": 2, "fsync": False, "snapshot_every": 64, "queue_policy": "block",
          "heartbeat_s": 3600,
          "p99_limit_ms": P99_LIMIT_MS}


class CountingReader:
    """Counts the bytes a client reads from its socket."""

    def __init__(self, reader: asyncio.StreamReader) -> None:
        self.reader = reader
        self.count = 0

    async def read(self, n: int = -1) -> bytes:
        data = await self.reader.read(n)
        self.count += len(data)
        return data

    async def readexactly(self, n: int) -> bytes:
        data = await self.reader.readexactly(n)
        self.count += len(data)
        return data


class BenchClient(SubscriptionClient):
    """The public client plus what the bench must see from outside: when
    each DELTA was folded, when each ingest was acked, bytes on the
    socket, and an event to wait on instead of a polling sleep."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, reconnect=False, **kwargs)
        self.folded: list[tuple[int, float]] = []  # (causing ingest seq, folded at)
        self.acked_at: dict[int, float] = {}
        self.bytes_out = 0
        self.changed = asyncio.Event()
        #: hand control back after every message, so a burst of buffered
        #: deltas cannot hold the open-loop sender past its due time
        self.yield_each = False

    async def _do_reconnect(self) -> None:
        await super()._do_reconnect()
        self._reader = CountingReader(self._reader)

    @property
    def bytes_in(self) -> int:
        return self._reader.count

    async def _send_raw(self, wire: bytes) -> None:
        self.bytes_out += len(wire)
        await super()._send_raw(wire)

    async def _dispatch(self, message) -> None:
        await super()._dispatch(message)
        if message.type is MsgType.DELTA:
            cause = message.body.get("ingest")
            if cause is not None:
                self.folded.append((cause[1], time.perf_counter()))
        elif message.type is MsgType.INGEST_ACK:
            self.acked_at[message.seq] = time.perf_counter()
        self.changed.set()
        if self.yield_each:
            await asyncio.sleep(0)

    async def until(self, predicate: Callable[[], bool], timeout: float = QUIESCE_TIMEOUT) -> bool:
        """Wait, without polling, until ``predicate()`` holds."""
        async def wait() -> None:
            while not predicate():
                self.changed.clear()
                await self.changed.wait()
        try:
            await asyncio.wait_for(wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False


class Server:
    """One ``repro serve`` process with a WAL root inside the checkout."""

    def __init__(self, wal_root: Path) -> None:
        self.wal_root = wal_root
        self.process = subprocess.Popen(
            # heartbeats off: PING/PONG timing would make the wire byte count
            # differ from run to run; everything else is the CLI default
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--wal-root", str(wal_root),
             "--heartbeat", "3600", "--idle-timeout", "7200"],
            stdout=subprocess.PIPE, env=python_env(), text=True,
        )
        line = self.process.stdout.readline()  # "serving on 127.0.0.1:PORT (...)"
        try:
            self.port = int(line.split()[2].rsplit(":", 1)[1])
        except (IndexError, ValueError):
            self.stop()
            raise RuntimeError(f"repro serve did not come up: {line!r}") from None

    def stop(self) -> tuple[float, float]:
        """Drain and stop; returns the process's (peak RSS MiB, CPU s)."""
        before = cpu_seconds(resource.RUSAGE_CHILDREN)
        self.process.terminate()
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        # children's ru_maxrss is the largest child reaped so far: the
        # measured server, which alone has applied a stream
        return peak_rss_mb(resource.RUSAGE_CHILDREN), cpu_seconds(resource.RUSAGE_CHILDREN) - before


async def connect_pair(port: int) -> tuple[BenchClient, BenchClient]:
    """A ingests and subscribes, B only subscribes; returns once both
    hold a SNAPSHOT of every query."""
    pair = []
    for session in ("A", "B"):
        client = BenchClient("127.0.0.1", port, tenant="bench", session=session)
        await client.connect()
        for query in QUERIES:
            await client.subscribe(query)
        pair.append(client)
    for client in pair:
        if not await client.until(lambda: len(client.results) == len(QUERIES)):
            raise RuntimeError("no SNAPSHOT from the server")
    return pair[0], pair[1]


async def quiesce(a: BenchClient, b: BenchClient) -> int:
    """Every ingest acked and B caught up with A; returns the number of
    ingests still unacked at the deadline."""
    await a.until(lambda: not a.pending_ingest)
    await b.until(lambda: all(b.acked.get(q, 0) >= a.acked.get(q, 0) for q in QUERIES))
    return len(a.pending_ingest)


class Run:
    """State of one serve_open run: the feed cursor and what was sent."""

    def __init__(self, a: BenchClient, b: BenchClient, batches: list[list]):
        self.a, self.b, self.batches = a, b, batches
        self.tracer: Tracer | None = None  # set for the phases that record spans
        self.cursor = 0
        self.due: dict[int, float] = {}
        self.unacked = 0

    def wire_bytes(self) -> int:
        return sum(c.bytes_in + c.bytes_out for c in (self.a, self.b))

    async def send(self, due: float) -> None:
        """Ingest the next batch; ``due`` is when it was meant to go."""
        a = self.a
        self.due[a.ingest_seq + 1] = due
        t0 = time.perf_counter_ns()
        await a.ingest(self.batches[self.cursor])
        if self.tracer is not None:
            self.tracer.add("client.ingest", t0, time.perf_counter_ns(), None, a.ingest_seq)
        self.cursor += 1

    async def settle(self, first_seq: int) -> None:
        """End of a phase: wait for everything in flight, then (traced)
        record each batch's due -> acked span."""
        a = self.a
        self.unacked += await quiesce(a, self.b)
        if self.tracer is not None:
            for seq in range(first_seq, a.ingest_seq + 1):
                if seq in a.acked_at:
                    self.tracer.add("serve.batch", int(self.due[seq] * 1e9),
                                    int(a.acked_at[seq] * 1e9), None, seq)

    async def open_loop(self, rate: int, seconds: float) -> dict:
        a, b = self.a, self.b
        count = min(int(rate * seconds), len(self.batches) - self.cursor)
        first_seq = a.ingest_seq + 1
        marks = (len(a.folded), len(b.folded))
        wire0, events0 = self.wire_bytes(), self.cursor * BATCH
        a.yield_each = b.yield_each = True
        pacer = OpenLoop(rate, time.perf_counter() + 0.05)
        for index in range(count):
            await self.send(await pacer.wait(index))
        backlog = len(a.pending_ingest)
        await self.settle(first_seq)
        a.yield_each = b.yield_each = False
        # the phase cut into windows: each is one repeat of the latency
        # measurement, long enough to keep >= 10 samples beyond its p99
        windows = max(1, min(WINDOWS, int(count / rate / WINDOW_SECONDS)))
        samples: list[list[float]] = [[] for _ in range(windows)]
        for client, mark in ((a, marks[0]), (b, marks[1])):
            for seq, at in client.folded[mark:]:
                samples[(seq - first_seq) * windows // count].append((at - self.due[seq]) * 1e3)
        acks = [(a.acked_at[seq] - self.due[seq]) * 1e3
                for seq in range(first_seq, a.ingest_seq + 1) if seq in a.acked_at]
        return {
            "rate": rate, "batches": count,
            "latency": latency_summary([x for window in samples for x in window]),
            "windows": [latency_summary(window) for window in samples],
            "ack_p50_ms": statistics.median(acks), "backlog": backlog,
            "late_p99_ms": latency_summary(pacer.late)["p99"] * 1e3,
            "wire_bytes_per_event": (self.wire_bytes() - wire0) / (self.cursor * BATCH - events0),
        }

    async def saturate(self, seconds: float) -> dict:
        """At most WINDOW ingests in flight; the rate is the median over
        one-second windows of the events acked in each."""
        a = self.a
        first, first_seq, cpu0 = self.cursor, a.ingest_seq + 1, time.process_time()
        start = time.perf_counter()
        marks = [(start, len(a.acked_at))]
        while time.perf_counter() - start < seconds and self.cursor < len(self.batches):
            if len(a.pending_ingest) >= WINDOW:
                await a.until(lambda: len(a.pending_ingest) < WINDOW)
            await self.send(time.perf_counter())
            if time.perf_counter() - marks[-1][0] >= 1.0:
                marks.append((time.perf_counter(), len(a.acked_at)))
        await self.settle(first_seq)
        events = (self.cursor - first) * BATCH
        rates = [(n1 - n0) * BATCH / (t1 - t0) for (t0, n0), (t1, n1) in zip(marks, marks[1:])]
        return {
            "rates": rates or [events / (time.perf_counter() - start)],
            "client_cpu_s_per_kevent": (time.process_time() - cpu0) / events * 1e3,
            "exhausted": self.cursor >= len(self.batches),
        }


def clean_results(batches: list[list]) -> dict[str, Any]:
    """What a clean single engine per query says after the same batches."""
    out = {}
    for query in QUERIES:
        engine = build_engine(query, "rpai")
        result = engine.result()
        for batch in batches:
            result = engine.on_batch(batch)
        out[query] = result
    return out


async def drive(seed: int, seconds: float, scale: float, trace: bool, scratch: Path) -> dict:
    # untraced: 70% open loop at RATE, 30% saturation; traced: five equal
    # phases — the three sweep rates, saturation, saturation with spans
    fifth = seconds / 5
    plan = sum(rate * fifth for rate in SWEEP) if trace else RATE * seconds * 0.7
    n_batches = int(plan + SATURATION_CAP * (2 * fifth if trace else seconds * 0.3))
    batches = streams.chunks(streams.serve_feed(seed, n_batches * BATCH), BATCH)

    setups, server = [], None
    try:
        for boot in range(max(2, int(BOOTS * min(1.0, scale * 4)))):
            if server is not None:
                await a.close()
                await b.close()
                server.stop()
            start = time.perf_counter()
            server = Server(scratch / f"wal-{boot}")
            a, b = await connect_pair(server.port)
            setups.append(time.perf_counter() - start)

        tracer = Tracer() if trace else None
        run = Run(a, b, batches)
        phases, saturation, traced_saturation = [], None, None
        if trace:
            for rate in SWEEP:
                phases.append(await run.open_loop(rate, fifth))
            saturation = await run.saturate(fifth)
            run.tracer = tracer
            traced_saturation = await run.saturate(fifth)
            wal_bytes = None
        else:
            phases.append(await run.open_loop(RATE, seconds * 0.7))
            wal_bytes = tree_bytes(server.wal_root) / (run.cursor * BATCH)
            saturation = await run.saturate(seconds * 0.3)

        shed, evicted = len(a.shed_seqs), len(a.evicted) + len(b.evicted)
        folded = {session: dict(client.results) for session, client in (("A", a), ("B", b))}
        await a.close()
        await b.close()
    finally:
        rss_mb, server_cpu = server.stop() if server is not None else (0.0, 0.0)

    sent = batches[: run.cursor]
    expected = clean_results(sent)
    mismatches = sum(
        not identical(results.get(query), expected[query])
        for results in folded.values() for query in QUERIES
    )
    gated = next(p for p in phases if p["rate"] == RATE)
    return {
        "setups": setups, "phases": phases, "gated": gated, "saturation": saturation,
        "traced_saturation": traced_saturation, "wal_bytes_per_event": wal_bytes,
        "rss_mb": rss_mb, "server_cpu_s_per_kevent": server_cpu / (run.cursor * BATCH) * 1e3,
        "shed": shed, "evicted": evicted, "unacked": run.unacked, "mismatches": mismatches,
        "attempted": run.cursor + 2 * len(QUERIES), "tracer": tracer, "sent": sent,
    }


def run(name: str, seed: int, seconds: float, scale: float, trace: bool, scratch: Path) -> dict:
    out = asyncio.run(drive(seed, seconds, scale, trace, scratch))
    gated, saturation = out["gated"], out["saturation"]
    eps = statistics.median(saturation["rates"])
    metrics = {
        "setup_s": summary(out["setups"], "s"),
        "refresh_rate_eps": summary(saturation["rates"], "events/s"),
        "update_p50_us": summary([w["p50"] * 1e3 for w in gated["windows"]], "us"),
        "update_p99_us": summary([w["p99"] * 1e3 for w in gated["windows"]], "us"),
        "peak_rss_mb": cell(out["rss_mb"], "MiB"),
        "delta_p50_ms": summary([w["p50"] for w in gated["windows"]], "ms"),
        "delta_p99_ms": summary([w["p99"] for w in gated["windows"]], "ms"),
        "recover_s": None,
        "wal_bytes_per_event":
            None if out["wal_bytes_per_event"] is None else cell(out["wal_bytes_per_event"], "B/event"),
        "wire_bytes_per_event": cell(gated["wire_bytes_per_event"], "B/event"),
    }
    layers = {
        "server.ack_p50_ms": cell(gated["ack_p50_ms"], "ms"),
        "server.backlog_growth": cell(float(gated["backlog"]), "count"),
        "server.cpu_s_per_kevent": cell(out["server_cpu_s_per_kevent"], "s/kevent"),
        "server.shed": cell(float(out["shed"]), "count"),
        "server.evicted": cell(float(out["evicted"]), "count"),
        "client.cpu_s_per_kevent": cell(saturation["client_cpu_s_per_kevent"], "s/kevent"),
        "bench.generator_late_p99_ms": cell(gated["late_p99_ms"], "ms"),
        "bench.update_p99_us": metrics["update_p99_us"],
        "bench.update_top_percentile": cell(gated["latency"]["top_pct"], "%"),
        "bench.update_top_us": cell(gated["latency"]["top"] * 1e3, "us"),
        "bench.delta_samples": cell(float(gated["latency"]["n"]), "count"),
        "bench.feed_exhausted": cell(float(saturation["exhausted"]), "count"),
    }
    result = {
        "config": CONFIG,
        "attempted": out["attempted"],
        "failed": out["shed"] + out["evicted"] + out["unacked"] + out["mismatches"],
        "metrics": metrics,
        "layers": layers,
    }
    if trace:
        from . import probes

        sustainable = 0
        for phase in out["phases"]:
            layers[f"server.delta_p99_ms.r{phase['rate']}"] = cell(phase["latency"]["p99"], "ms")
            layers[f"server.delta_p50_ms.r{phase['rate']}"] = cell(phase["latency"]["p50"], "ms")
            # no backlog growth: fewer ingests in flight than 50 ms of schedule
            if phase["latency"]["p99"] <= P99_LIMIT_MS and phase["backlog"] <= phase["rate"] * 0.05:
                sustainable = max(sustainable, phase["rate"])
        layers["server.sustainable_rate_bps"] = cell(float(sustainable), "1/s")
        layers["bench.trace_overhead_ratio"] = cell(
            statistics.median(out["traced_saturation"]["rates"]) / eps, "ratio")
        events = [event for batch in out["sent"][: 3 * 4096 // BATCH] for event in batch]
        cases = [make_case(q, events, warm_share=0.0, latency_share=0.0,
                           encode=lambda part: streams.chunks(part, BATCH), oracle=[])
                 for q in QUERIES]
        probed, probe_failures = probes.run_all(probes.Profile(
            cases=cases, flavor="batch", batch=BATCH,
            us_per_event=1e6 / eps, scratch=scratch,
        ))
        layers.update(probed)
        result["failed"] += probe_failures
        low = out["phases"][0]["latency"]["p50"]
        layers["server.unattributed_ms"] = cell(low - layers["server.accounted_ms"]["value"], "ms")
        result["tracer"] = out["tracer"]
        result["obs"] = {}
    return result
