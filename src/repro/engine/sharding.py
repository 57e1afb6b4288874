"""Sharded parallel execution: partitioned engine replicas + exact merge.

Single-core throughput of the RPAI engines is near the ceiling of pure
Python; the next scaling lever is partitioning the update stream itself.
DBSP-style incremental computations over key-partitioned streams
parallelize cleanly when per-shard results merge associatively, and the
aggregate-index engines here are exactly that shape — each declares its
partitioning law through the ``shard_*`` hooks on
:class:`~repro.engine.base.IncrementalEngine`:

* **hash mode** (equality / group correlation): a replica owns the
  correlation groups hashed to it.  A group's subquery value depends
  only on its own tuples, so any key-disjoint assignment is exact.
* **range mode** (inequality correlation): a replica owns one
  contiguous range of the stored correlation key.  A group's global
  subquery value is its shard-local value plus the total inner volume
  of the lower shards — a single additive offset per shard, the RPAI
  relative-key idea lifted to the shard level.  The
  :class:`ShardRouter` picks range boundaries from a planning pre-scan
  of the stream (quantile cuts of the observed keys).
* **mode None** (everything else): cross-shard correlated predicates —
  a tuple in one shard qualifying against state in another — make any
  partition unsound, so the builders fall back to a single engine.

Two executors share one interface (they are themselves
``IncrementalEngine`` subclasses, so every harness — differential
tests, benchmarks, the CLI — drives them unchanged).  Like every
engine they implement ``apply*`` + ``result``: their ``apply*`` route
and call the replicas' ``apply*``, and ``result`` is the merge, so a
call through an executor is counted and validated once, by the
executor's own ``on_*``.

* :class:`ShardedExecutor` — deterministic serial execution of the K
  replicas in one process; the correctness oracle for the parallel
  path and the differential tests.
* :class:`MultiprocessShardedExecutor` — K long-lived worker
  processes, one replica each, fed coalesced per-shard columnar frames
  (applied through the engines' ``apply_frame`` fast path) and merged
  in the parent through the same two-phase protocol.

Merging is template-driven: a *template* engine of the same query
(never fed an event) gathers the replicas' picklable partials, derives
per-shard probe contexts (``shard_contexts``), and folds partials plus
probe answers into the final result (``shard_combine``) using the laws
in :mod:`repro.engine.mergeable`.  All workload measures are integers,
so the merged results are bit-identical to the unsharded engine's.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
import zlib
from bisect import bisect_right
from typing import Any, Callable, Iterable, Sequence

from repro.engine.base import IncrementalEngine, Result
from repro.engine.shmring import DEFAULT_CAPACITY, ShmRing
from repro.errors import EngineStateError, ShardWorkerError
from repro.obs import SINK as _SINK
from repro.storage.colbatch import ColumnarFrame, apply_events
from repro.storage.schema import WORKLOAD_SCHEMAS
from repro.storage.stream import Event, Stream

__all__ = [
    "stable_hash",
    "ShardRouter",
    "ShardedExecutor",
    "MultiprocessShardedExecutor",
    "plan_router",
]


def _normalize_key(key: Any) -> Any:
    """Collapse numerically-equal routing keys onto one canonical value.

    ``1``, ``1.0`` and ``True`` are equal under ``==`` (and as dict/group
    keys inside the engines), so they MUST route to the same shard — a
    mixed-type stream that hashed ``1`` by value but ``1.0`` by
    ``crc32(repr(...))`` would split one correlation group across
    replicas and silently corrupt hash-sharded results.  Integral floats
    and bools become ints; tuples normalize recursively (compound group
    keys); everything else is returned unchanged.
    """
    if isinstance(key, bool):
        return int(key)
    if isinstance(key, float) and key.is_integer():
        return int(key)
    if isinstance(key, tuple):
        return tuple(_normalize_key(part) for part in key)
    return key


def stable_hash(key: Any) -> int:
    """Deterministic, process-independent hash for routing keys.

    Python's builtin ``hash`` is salted per process (``PYTHONHASHSEED``),
    which would make shard assignment differ between the serial oracle
    and the worker processes.  Keys are first canonicalized with
    :func:`_normalize_key` so numerically-equal keys of different types
    agree; integers then route by value, everything else by CRC-32 of
    its ``repr`` — stable across runs and interpreters.
    """
    key = _normalize_key(key)
    if isinstance(key, int):
        return key
    return zlib.crc32(repr(key).encode("utf-8"))


class ShardRouter:
    """Assigns events to shard indices for one engine's partition law.

    ``assign(event)`` returns the shard index, or ``None`` when the
    event must be broadcast to every replica (the engine returned a
    ``None`` routing key — reference data all replicas need).

    Construction goes through :func:`plan_router`, which reads the
    engine's ``shard_mode``: hash routers need no planning; range
    routers take ``shards - 1`` ascending boundary keys and assign by
    binary search, so shard ``i`` owns the ``i``-th contiguous key
    range in ascending stored-key order — the order the offset
    accumulation in ``shard_contexts`` relies on.
    """

    __slots__ = ("shards", "mode", "_key_of", "_boundaries")

    def __init__(
        self,
        shards: int,
        mode: str,
        key_of: Callable[[Event], Any],
        boundaries: Sequence[float] | None = None,
    ) -> None:
        if shards < 1:
            raise EngineStateError(f"shard count must be >= 1, got {shards}")
        if mode not in ("hash", "range"):
            raise EngineStateError(f"unknown shard mode {mode!r}")
        if mode == "range":
            bounds = list(boundaries or ())
            if len(bounds) != shards - 1:
                raise EngineStateError(
                    f"range router over {shards} shards needs {shards - 1} "
                    f"boundaries, got {len(bounds)}"
                )
            if any(b >= c for b, c in zip(bounds, bounds[1:])):
                raise EngineStateError(
                    "range boundaries must be strictly ascending (a "
                    "duplicated boundary would leave its shard empty); "
                    f"got {bounds!r}"
                )
            self._boundaries = bounds
        else:
            self._boundaries = None
        self.shards = shards
        self.mode = mode
        self._key_of = key_of

    def assign_key(self, key: Any) -> int | None:
        """Shard index for a raw routing key; ``None`` broadcasts."""
        if key is None:
            return None
        if self.mode == "hash":
            return stable_hash(key) % self.shards
        return bisect_right(self._boundaries, key)

    def assign(self, event: Event) -> int | None:
        """Shard index for ``event``; ``None`` means broadcast."""
        return self.assign_key(self._key_of(event))

    def split(self, events: Iterable[Event]) -> list[list[Event]]:
        """Partition ``events`` into per-shard lists, each preserving
        the original relative order (the per-replica determinism the
        executors rely on); broadcasts land in every list."""
        parts: list[list[Event]] = [[] for _ in range(self.shards)]
        for event in events:
            index = self.assign(event)
            if index is None:
                for part in parts:
                    part.append(event)
            else:
                parts[index].append(event)
        return parts

    def split_frame(self, frame: ColumnarFrame, spec: dict) -> list[ColumnarFrame]:
        """Vectorized partition of a columnar frame into per-shard
        frames (same order guarantee as :meth:`split`).

        ``spec`` is the engine's
        :meth:`~repro.engine.base.IncrementalEngine.shard_routing_spec`
        mapping — ``{relation: rule}`` with a ``"*"`` default — whose
        rules route a whole block straight off its typed columns, so no
        row dict is ever materialized:

        * ``("column", name)`` — key is the column value;
        * ``("scaled_column", name, sign)`` — key is ``sign * value``
          (the range engines' descending-order trick);
        * ``("columns", names)`` — compound key tuple;
        * ``("pin", key)`` — every row routes by the constant key;
        * ``("broadcast",)`` — every row goes to every shard.

        Pickle-fallback events route individually through
        :meth:`assign`, and so does any block whose relation has no
        rule (a defensive decode, not a supported configuration).
        """
        block_assign = [
            self._assign_block(block, spec.get(block.relation, spec.get("*")))
            for block in frame.blocks
        ]
        return frame.partition(self.shards, block_assign, self.assign)

    def _assign_block(self, block, rule) -> int | None | list[int]:
        if rule is None:  # pragma: no cover - engines always supply "*"
            return [
                self.assign(Event(block.relation, block.row(i), block.weights[i]))
                for i in range(len(block))
            ]
        kind = rule[0]
        if kind == "broadcast":
            return None
        if kind == "pin":
            return self.assign_key(rule[1])
        if kind == "column":
            keys = block.column(rule[1])
            plain_ints = block.kinds[block.names.index(rule[1])] == "i"
        elif kind == "scaled_column":
            column, sign = block.column(rule[1]), rule[2]
            plain_ints = block.kinds[block.names.index(rule[1])] == "i"
            keys = column if sign == 1 else [sign * value for value in column]
        elif kind == "columns":
            keys = list(zip(*(block.column(name) for name in rule[1])))
            plain_ints = False
        else:
            raise EngineStateError(f"unknown routing rule {rule!r}")
        if self.mode == "hash":
            shards = self.shards
            if plain_ints:  # stable_hash(int) is the identity
                return [value % shards for value in keys]
            return [stable_hash(key) % shards for key in keys]
        boundaries = self._boundaries
        return [bisect_right(boundaries, key) for key in keys]


def plan_router(
    template: IncrementalEngine,
    shards: int,
    plan_stream: Stream | Iterable[Event] | None = None,
) -> ShardRouter | None:
    """Build the router for ``template``'s partition law, or ``None``.

    ``None`` means "do not shard": either ``shards <= 1`` was requested
    or the engine declares ``shard_mode = None`` (its correlated
    predicate crosses any partition) — callers fall back to the plain
    single engine, which is always sound.

    Range mode picks boundaries by pre-scanning ``plan_stream`` for the
    engine's routing keys and cutting at the K-quantiles, so shards see
    balanced event counts on the planning distribution.  Skewed or
    constant key distributions can collapse several quantile cuts onto
    the same key; rather than keeping duplicate boundaries (empty shards
    plus one mega-shard, silently), the duplicates are dropped and the
    router *shrinks to the effective shard count*, recording the
    degradation on the ``shard.plan_degenerate`` obs counter.  Without a
    planning stream no boundary can be chosen, which is the fully
    degenerate case: a single-shard router.
    """
    mode = template.shard_mode
    if shards <= 1 or mode is None:
        return None
    if mode == "hash":
        return ShardRouter(shards, "hash", template.shard_routing_key)
    keys = sorted(
        key
        for key in (
            template.shard_routing_key(event) for event in (plan_stream or ())
        )
        if key is not None and key != float("-inf")
    )
    boundaries: list[Any] = []
    for index in range(1, shards):
        cut = keys[(len(keys) * index) // shards] if keys else None
        # A useful cut must leave at least one planning key strictly
        # below it (the lower shard would otherwise be born empty):
        # compare against the lowest key for the first boundary and
        # against the previous boundary after that.
        if cut is not None and cut > (boundaries[-1] if boundaries else keys[0]):
            boundaries.append(cut)
    effective = len(boundaries) + 1
    if effective < shards:
        _SINK.inc("shard.plan_degenerate")
        _SINK.inc("shard.plan_shards_lost", shards - effective)
    return ShardRouter(effective, "range", template.shard_routing_key, boundaries)


def _merge_result(
    template: IncrementalEngine,
    partials: list[Any],
    probe: Callable[[list[Any]], list[Any]],
) -> Result:
    """Two-phase template-driven merge shared by both executors.

    ``probe(contexts)`` evaluates ``shard_probe`` on every replica —
    in-process for the serial executor, over pipes for the pool.
    """
    start = time.perf_counter() if _SINK.enabled else 0.0
    contexts = template.shard_contexts(partials)
    if contexts is None:
        result = template.shard_combine(partials, None)
    else:
        result = template.shard_combine(partials, probe(contexts))
    if _SINK.enabled:
        _SINK.inc("shard.merges")
        _SINK.observe("shard.merge_seconds", time.perf_counter() - start)
    return result


def _observe_split(parts: list[list[Event]]) -> None:
    """Shard-skew observability for one routed batch: per-shard batch
    sizes plus the max/mean imbalance ratio (1.0 = perfectly even)."""
    total = 0
    largest = 0
    for part in parts:
        size = len(part)
        total += size
        if size > largest:
            largest = size
        _SINK.observe("shard.batch_size", size)
    if total:
        _SINK.observe("shard.skew", largest * len(parts) / total)


class ShardedExecutor(IncrementalEngine):
    """Deterministic serial execution of K partitioned replicas.

    Functionally identical to the multiprocess executor — same router,
    same replicas, same merge — with every replica driven in-process in
    shard order.  This is the oracle the differential suite checks the
    pool executor (and the unsharded engine) against, and the
    ``--shards`` CLI path.
    """

    def __init__(
        self,
        template: IncrementalEngine,
        replicas: Sequence[IncrementalEngine],
        router: ShardRouter,
    ) -> None:
        if len(replicas) != router.shards:
            raise EngineStateError(
                f"{len(replicas)} replicas for a {router.shards}-shard router"
            )
        if any(engine.quarantine is not None for engine in (template, *replicas)):
            raise EngineStateError(
                "replicas are fed through apply*, past any quarantine: attach "
                "it to the executor instead"
            )
        self.template = template
        self.replicas = list(replicas)
        self.router = router
        self.name = f"{template.name}-sharded{router.shards}"

    @property
    def shards(self) -> int:
        return self.router.shards

    def apply(self, event: Event) -> None:
        index = self.router.assign(event)
        if index is None:
            for replica in self.replicas:
                replica.apply(event)
        else:
            self.replicas[index].apply(event)

    def apply_batch(self, events: Sequence[Event]) -> None:
        parts = self.router.split(events)
        if _SINK.enabled:
            _observe_split(parts)
        for replica, part in zip(self.replicas, parts):
            if part:
                replica.apply_batch(part)

    def result(self) -> Result:
        partials = [replica.shard_partial() for replica in self.replicas]
        return _merge_result(
            self.template,
            partials,
            lambda contexts: [
                replica.shard_probe(context)
                for replica, context in zip(self.replicas, contexts)
            ],
        )


def _error_reply(shard: int, exc: Exception) -> tuple:
    """Structured worker error: enough context to debug the failure in
    the parent without attaching to the child process."""
    return (
        "err",
        {
            "shard": shard,
            "type": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback.format_exc(),
        },
    )


def _raise_worker_error(shard: int, payload: Any) -> None:
    """Re-raise a worker's structured error reply as a typed
    :class:`~repro.errors.ShardWorkerError` in the parent."""
    if isinstance(payload, dict):
        raise ShardWorkerError(
            f"{payload.get('type', 'Exception')}: {payload.get('message', '')}",
            shard=payload.get("shard", shard),
            exc_type=payload.get("type"),
            worker_traceback=payload.get("traceback"),
        )
    raise ShardWorkerError(str(payload), shard=shard)


def _worker_main(
    conn, query_name: str, strategy: str, shard: int = 0, ring: ShmRing | None = None
) -> None:
    """Long-lived shard worker: builds its replica locally and serves
    ``frame`` / ``batch`` / ``partial`` / ``probe`` requests until
    ``stop``.

    Runs in a child process — the replica is constructed from the
    registry there, so no engine state ever crosses the fork/spawn
    boundary; only frames, partials and probe answers do.  The bulk
    lane is the shared-memory ``ring``: a ``("frame", nbytes)`` header
    on the pipe means "consume the next ``nbytes`` from the ring and
    decode them as a :class:`~repro.storage.colbatch.ColumnarFrame`";
    oversized frames arrive inline as ``("frame_inline", frame)``.
    Failures are reported as structured
    ``("err", {shard, type, message, traceback})`` replies, which the
    parent re-raises as :class:`~repro.errors.ShardWorkerError`.
    """
    from repro.engine.registry import build_engine

    engine = build_engine(query_name, strategy)
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        tag = message[0]
        try:
            if tag in ("frame", "frame_inline", "batch"):
                payload = (
                    ColumnarFrame.from_bytes(ring.read(message[1]))
                    if tag == "frame"
                    else message[1]
                )
                apply_events(engine, payload)
                conn.send(("ok", len(payload)))
            elif tag == "partial":
                conn.send(("ok", engine.shard_partial()))
            elif tag == "probe":
                conn.send(("ok", engine.shard_probe(message[1])))
            elif tag == "stop":
                break
            else:  # pragma: no cover - protocol misuse guard
                conn.send(("err", {"shard": shard, "type": "ProtocolError",
                                   "message": f"unknown request {tag!r}",
                                   "traceback": ""}))
        except Exception as exc:  # pragma: no cover - surfaced in parent
            conn.send(_error_reply(shard, exc))
    if ring is not None:
        ring.close(unlink=False)
    conn.close()


class MultiprocessShardedExecutor(IncrementalEngine):
    """K long-lived worker processes, one engine replica each.

    The parent routes events with the same :class:`ShardRouter` as the
    serial executor, encodes each shard's coalesced batch as a
    :class:`~repro.storage.colbatch.ColumnarFrame`, ships the frame
    bytes through a per-worker shared-memory :class:`ShmRing` (only a
    tiny header crosses the control pipe), and merges results with the
    same two-phase template protocol — so the pool's answers are
    identical to the serial executor's, which are identical to the
    unsharded engine's.  A frame that cannot fit its ring falls back to
    inline pipe transport; both lanes carry the identical byte form.

    Workers are spawned once and reused across batches; call
    :meth:`close` (or use the executor as a context manager) to shut
    them down.  Worker-side obs counters stay in the workers; the
    parent records routing skew, per-worker batch sizes, bytes shipped,
    encode time and merge time.
    """

    #: seconds granted to a worker for a cooperative exit before the
    #: parent escalates to ``terminate()`` and then ``kill()``
    _CLOSE_TIMEOUT = 2.0

    #: bytes of shared-memory ring per worker (bulk frame lane)
    _RING_CAPACITY = DEFAULT_CAPACITY

    def __init__(
        self,
        query_name: str,
        strategy: str,
        template: IncrementalEngine,
        router: ShardRouter,
    ) -> None:
        self.query_name = query_name
        self.strategy = strategy
        self.template = template
        self.router = router
        self._routing_spec = template.shard_routing_spec()
        self.name = f"{template.name}-mp{router.shards}"
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            self._context = multiprocessing.get_context("spawn")
        self._connections: list[Any] = []
        self._processes: list[Any] = []
        self._rings: list[ShmRing] = []
        self._workers_down = False
        try:
            for index in range(router.shards):
                self._spawn(index)
        except Exception:
            # Don't leak the workers that did start if a later spawn
            # fails — close() stops whatever made it into the lists.
            self.close()
            raise

    # -- worker lifecycle ----------------------------------------------

    def _worker_target(self) -> Callable:
        """The child-process entry point (supervised subclasses swap in
        their own protocol loop)."""
        return _worker_main

    def _worker_args(self, index: int, child_conn, ring: ShmRing) -> tuple:
        return (child_conn, self.query_name, self.strategy, index, ring)

    def _spawn(self, index: int):
        """Start (or replace) the worker at slot ``index``; returns its
        parent-side connection.  Each incarnation gets a *fresh* ring —
        a worker that died mid-consume leaves its ring cursors
        desynchronized, and a new segment is cheaper than repairing
        them."""
        parent_conn, child_conn = self._context.Pipe()
        # Created before start() so a fork child inherits the mapping
        # directly (the spawn fallback re-attaches via pickling).
        ring = ShmRing(self._RING_CAPACITY)
        process = self._context.Process(
            target=self._worker_target(),
            args=self._worker_args(index, child_conn, ring),
            daemon=True,
        )
        process.start()
        child_conn.close()
        if index < len(self._connections):
            self._reap(index)
            self._rings[index].close()
            self._connections[index] = parent_conn
            self._processes[index] = process
            self._rings[index] = ring
        else:
            self._connections.append(parent_conn)
            self._processes.append(process)
            self._rings.append(ring)
        return parent_conn

    def _reap(self, index: int) -> None:
        """Force-stop one worker and release its pipe: join with a
        timeout, escalate to ``terminate()`` then ``kill()``, drain any
        pending replies, close the connection."""
        process = self._processes[index]
        process.join(timeout=self._CLOSE_TIMEOUT)
        if process.is_alive():
            process.terminate()
            process.join(timeout=self._CLOSE_TIMEOUT)
        if process.is_alive():  # pragma: no cover - stuck in a syscall
            process.kill()
            process.join(timeout=self._CLOSE_TIMEOUT)
        conn = self._connections[index]
        try:
            while conn.poll(0):
                conn.recv()
        except (EOFError, OSError):
            pass
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass

    @property
    def shards(self) -> int:
        return self.router.shards

    def _gather(self, indices: Sequence[int]) -> list[Any]:
        out = []
        for index in indices:
            try:
                tag, payload = self._connections[index].recv()
            except EOFError:
                raise ShardWorkerError(
                    "worker pipe closed unexpectedly "
                    f"(exitcode {self._processes[index].exitcode})",
                    shard=index,
                ) from None
            if tag != "ok":
                _raise_worker_error(index, payload)
            out.append(payload)
        return out

    def _request_all(self, message: tuple) -> list[Any]:
        for conn in self._connections:
            conn.send(message)
        return self._gather(range(len(self._connections)))

    def _encode_frame(self, part) -> tuple[ColumnarFrame, bytes]:
        """Columnar-encode one shard's routed chunk (no-op when routing
        already produced a frame) and record the transport counters."""
        start = time.perf_counter() if _SINK.enabled else 0.0
        frame = (
            part
            if isinstance(part, ColumnarFrame)
            else ColumnarFrame.from_events(part, schemas=WORKLOAD_SCHEMAS)
        )
        data = frame.to_bytes()
        if _SINK.enabled:
            _SINK.observe("shard.encode_seconds", time.perf_counter() - start)
            _SINK.inc("shard.bytes_shipped", len(data))
            _SINK.inc("shard.frames_shipped")
        return frame, data

    def _send_frame(self, index: int, part) -> None:
        """Ship one chunk to worker ``index``: frame bytes through the
        ring plus a tiny pipe header, or inline when oversized."""
        frame, data = self._encode_frame(part)
        if len(data) <= self._rings[index].capacity:
            self._connections[index].send(("frame", len(data)))
            self._rings[index].write(data)
        else:  # pragma: no cover - frames are batch-sized in practice
            self._connections[index].send(("frame_inline", frame))

    def _split(self, events: Sequence[Event]) -> list:
        """Route one batch into per-shard chunks.

        When the template publishes a
        :meth:`~repro.engine.base.IncrementalEngine.shard_routing_spec`,
        the whole batch is columnar-encoded *once* and sliced into
        per-shard frames straight off the key columns (the vectorized
        path — no per-event routing-key closure calls, and the shipped
        bytes reuse the already-built blocks).  Otherwise events route
        one at a time and each shard's list is frame-encoded at ship
        time."""
        spec = self._routing_spec
        is_frame = isinstance(events, ColumnarFrame)
        if spec is None:
            return self.router.split(events.events() if is_frame else events)
        frame = events if is_frame else ColumnarFrame.from_events(events, schemas=WORKLOAD_SCHEMAS)
        return self.router.split_frame(frame, spec)

    def apply(self, event: Event) -> None:
        index = self.router.assign(event)
        targets = range(len(self._connections)) if index is None else [index]
        for target in targets:
            self._connections[target].send(("batch", [event]))
        self._gather(targets)

    def apply_batch(self, events: Sequence[Event]) -> None:
        parts = self._split(events)
        if _SINK.enabled:
            _observe_split(parts)
        busy = [index for index, part in enumerate(parts) if len(part)]
        # Ship every shard's chunk before collecting any ack so the
        # workers run concurrently; order within a pipe/ring is preserved.
        for index in busy:
            self._send_frame(index, parts[index])
        self._gather(busy)

    #: ``_split`` slices a frame straight off its key columns
    apply_frame = apply_batch

    def result(self) -> Result:
        partials = self._request_all(("partial",))

        def probe(contexts: list[Any]) -> list[Any]:
            for conn, context in zip(self._connections, contexts):
                conn.send(("probe", context))
            return self._gather(range(len(self._connections)))

        return _merge_result(self.template, partials, probe)

    def close(self) -> None:
        """Stop the workers (idempotent, safe on partial construction)."""
        self._shutdown_workers()

    def _shutdown_workers(self) -> None:
        """Stop every worker, once: cooperative first (a ``stop``
        message and a bounded join), then escalating — ``terminate()``,
        then ``kill()`` — so a wedged worker can never leak past the
        executor; pipes are drained before closing so a worker blocked
        on a full pipe buffer can exit; then the rings are released."""
        if self._workers_down:
            return
        self._workers_down = True
        for conn in self._connections:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
        for index in range(len(self._processes)):
            self._reap(index)
        for ring in self._rings:
            ring.close()

    def __enter__(self) -> "MultiprocessShardedExecutor":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass
