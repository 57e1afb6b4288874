"""Opt-in observability: operation counters, timers and invariant
self-checks for the RPAI structures and engines.

The paper's complexity claims (Section 3: O(log n) ``get``/``put``/
``add``/``delete``/``get_sum``, O((1 + v) log n) negative
``shift_keys`` with v <= 1 in the aggregate-usage case of
Section 3.2.4) are asserted by wall-clock benchmarks only; nothing in a
timing curve says *why* a run was slow.  This module counts the
operations those bounds are stated in — tree rotations, ``fixTree``
violation repairs, shift directions and magnitudes, PAI-map scans,
engine events/batches and result refreshes — so a regression that
quietly turns a log-time path linear shows up as a counter, not as a
vibe.

Design constraints:

* **Zero overhead when disabled.**  There is a single module-level sink
  (:data:`SINK`); every instrumentation site is guarded by exactly one
  attribute check (``if SINK.enabled:``) and does nothing else when the
  sink is off.  No wrapper objects sit on the hot path.
* **Plain data out.**  :meth:`ObsSink.snapshot` returns nested dicts of
  ints/floats that serialize to standard JSON (no ``Infinity``/``NaN``),
  so benchmark reports can embed them directly.

Enabling:

* counters — :func:`enable` / :func:`disable`, or ``REPRO_OBS=1`` in
  the environment at import time;
* invariant self-checks — :func:`enable_selfcheck` /
  :func:`disable_selfcheck`, or ``REPRO_SELFCHECK=1``.  With
  self-checks on, every public mutating operation on
  :class:`~repro.core.rpai.RPAITree`, :class:`~repro.trees.treemap.TreeMap`
  and :class:`~repro.core.pai_map.PAIMap` re-validates the structure's
  invariants (BST order, AVL height, subtree sums, min/max offsets,
  total consistency) — O(n) per operation, meant for test runs
  (CI runs the suite once with ``REPRO_SELFCHECK=1``).

Counter naming convention (``<structure or layer>.<operation>``):

======================================  =======================================
``rpai.put/add/delete/get_sum``         public RPAITree calls
``rpai.rotations``                      AVL rotations (left + right)
``rpai.shift_keys.pos/.neg``            shifts by direction
``rpai.fix_tree``                       ``fixTree`` repair passes (Algorithm 2)
``rpai.violations``                     BST violators extracted and re-inserted
``rpai.freelist.hits/.misses``          node allocations served from / past
                                        the recycled-node pool
``treemap.rotations``                   TreeMap AVL rotations
``treemap.shift_keys``                  O(n) collect-and-rebuild shifts
``treemap.freelist.hits/.misses``       TreeMap node-pool allocations
``shard.merges``                        sharded-executor result merges
``shard.frames_shipped``                columnar frames sent to shard workers
``shard.bytes_shipped``                 encoded frame bytes through the
                                        shared-memory rings (wire footprint)
``shard.plan_degenerate``               range plans whose quantile cuts
                                        collapsed (router shrank)
``shard.plan_shards_lost``              shards lost to collapsed cuts, summed
                                        over degenerate plans
``paimap.shift_keys``                   O(n) hash rebuild shifts
``segment.grows``                       segment-tree universe doublings
``segment.shift_rebuilds``              segment-tree collect-and-replay shifts
``btree.shift_rebuilds``                RPAIBTree rightmost-path rebuild merges
``engine.events``                       ``on_event`` calls (and nothing else: a
                                        batch's events are not counted here)
``engine.batches``                      ``on_batch`` + ``on_frame`` calls; the
                                        ``engine.batch_size`` distribution holds
                                        their event counts, so updates applied
                                        = ``engine.events`` + Σ ``batch_size``
``engine.results``                      results handed back: one per trigger call
                                        of any shape (``result()`` called
                                        directly is not a trigger and not counted)
                                        — all three count the **outermost** call
                                        only: a composite (``DurableEngine``, the
                                        sharded executors) drives its engines
                                        through ``apply*``, and WAL replay and
                                        shard workers apply without a trigger
``engine.quarantined``                  schema-violating events diverted by the
                                        validation boundary
``wal.appends/.snapshots``              write-ahead-log records / checkpoints
                                        written
``wal.appended_bytes/.checkpoint_bytes``  bytes of each; their ratio is the
                                        durable path's write amplification (≤ 1 +
                                        one checkpoint under the default rule)
``wal.recoveries``                      snapshot+tail-replay recoveries
``wal.tail_truncated``                  torn/corrupt WAL tails healed on open
``wal.snapshot_corrupt``                snapshot files skipped on bad CRC
``wal.snapshot_unloadable``             CRC-valid snapshots this code could not
                                        unpickle (rebuilt from the full log)
``supervisor.worker_failures``          shard-worker deaths/timeouts detected
``supervisor.respawns``                 workers respawned and restored
``supervisor.degraded``                 falls back to the serial executor after
                                        the respawn budget
``faults.drops/.duplicates``            injected message losses / duplications
``faults.snapshot_corruptions``         injected snapshot-file corruptions
``faults.bad_events``                   injected schema-violating events
``faults.net_disconnects``              injected mid-stream client aborts
``faults.net_stalls``                   injected reader stalls (slow consumer)
``faults.net_bad_frames``               injected garbled/truncated wire frames
``faults.net_tenant_restarts``          injected tenant kill + WAL restarts
``serve.connections``                   client connections accepted
``serve.ingested``                      ingest batches applied to a tenant
``serve.shed``                          ingest batches dropped by the
                                        ``shed-newest`` queue policy
``serve.backpressure_waits``            ingests that blocked on a full queue
                                        (``block`` policy)
``serve.disconnects``                   connections dropped by the
                                        ``disconnect`` overflow policy
``serve.evicted``                       subscriptions evicted for ACK lag
                                        past ``subscriber_buffer``
``serve.deltas_sent/.snapshots_sent``   result deltas / full snapshots fanned
                                        out to subscribers
``serve.resumes``                       re-subscriptions served by contiguous
                                        delta-log replay (vs fresh snapshot)
``serve.dedup_skips``                   duplicate ``(session, seq)`` ingests
                                        acknowledged without re-applying
``serve.bad_frames``                    malformed frames that closed their
                                        connection
``serve.idle_closed``                   connections reaped by the heartbeat
                                        idle timeout
``serve.tenant_failures``               tenants isolated after an engine crash
``serve.tenant_restarts``               tenants recovered from their WAL
``selfcheck.validations``               invariant walks performed
``codegen.cache_hits/.cache_misses``    emitted source served from /
                                        compiled past the per-query cache
``codegen.installed``                   emitted functions bound onto an
                                        aggregate-index engine (at build,
                                        restore or ``specialize``)
``codegen.unsupported``                 ``specialize`` called on an engine
                                        with no emitter (counted no-op)
======================================  =======================================

Value distributions (count/total/min/max, via :meth:`ObsSink.observe`):
``rpai.shift_magnitude``, ``rpai.neg_shift_violations`` (violators per
negative shift — the Section 3.2.4 quantity), ``treemap.shift_moved``,
``paimap.shift_scanned``, ``paimap.get_sum_scanned``,
``engine.batch_size``, ``rpai.freelist.depth`` / ``treemap.freelist.depth``
(pool depth after each release — ``max`` is the high-water mark),
``shard.batch_size`` (per-shard routed chunk sizes), ``shard.skew``
(largest shard's share of a routed batch, normalized so 1.0 = even),
``shard.merge_seconds``, ``shard.encode_seconds`` (wall-clock per
frame encode on the ship path),
``wal.record_events`` (events per WAL record),
``wal.records_replayed`` (log-tail length per recovery: under the
default checkpoint rule it tracks state size, not a record count),
``wal.truncated_bytes`` (garbage removed per tail heal),
``codegen.compile_seconds`` (wall-clock per trigger compilation —
cache hits pay none of it), ``serve.fanout`` (subscribers reached per
delta broadcast) and ``serve.queue_depth`` (tenant ingest-queue depth
sampled at each enqueue).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "ObsSink",
    "SINK",
    "SELFCHECK",
    "enable",
    "disable",
    "enabled",
    "reset",
    "snapshot",
    "enable_selfcheck",
    "disable_selfcheck",
    "selfcheck_enabled",
    "diff_snapshots",
    "derived_metrics",
]


class ObsSink:
    """Collects named counters and value distributions.

    ``counters`` maps name -> int count; ``stats`` maps name ->
    ``[count, total, min, max]`` (updated by :meth:`observe`).  All
    methods are unconditional — callers guard with ``sink.enabled`` so
    the disabled path is one attribute check.
    """

    __slots__ = ("enabled", "counters", "stats")

    def __init__(self) -> None:
        self.enabled = False
        self.counters: dict[str, int] = {}
        self.stats: dict[str, list[float]] = {}

    def inc(self, name: str, delta: int = 1) -> None:
        """Add ``delta`` to counter ``name`` (creating it at 0)."""
        self.counters[name] = self.counters.get(name, 0) + delta

    def observe(self, name: str, value: float) -> None:
        """Record one sample of a value distribution."""
        entry = self.stats.get(name)
        if entry is None:
            self.stats[name] = [1, value, value, value]
        else:
            entry[0] += 1
            entry[1] += value
            if value < entry[2]:
                entry[2] = value
            if value > entry[3]:
                entry[3] = value

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Time a block; records seconds as the ``name`` distribution."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - start)

    def reset(self) -> None:
        self.counters.clear()
        self.stats.clear()

    def snapshot(self) -> dict:
        """Plain-data copy: ``{"counters": {...}, "stats": {...}}``.

        Stats entries carry ``count``/``total``/``min``/``max``/``mean``.
        Everything is a finite int/float — safe for strict JSON.
        """
        return {
            "counters": dict(self.counters),
            "stats": {
                name: {
                    "count": entry[0],
                    "total": entry[1],
                    "min": entry[2],
                    "max": entry[3],
                    "mean": entry[1] / entry[0] if entry[0] else 0.0,
                }
                for name, entry in self.stats.items()
            },
        }


class _Flag:
    """A mutable on/off switch readable with one attribute check."""

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = False


#: The module-level sink every instrumentation site reports to.  Its
#: identity never changes; only ``SINK.enabled`` flips.
SINK = ObsSink()

#: Invariant self-check switch (see module docstring).
SELFCHECK = _Flag()


def enable() -> None:
    """Turn counter collection on (idempotent)."""
    SINK.enabled = True


def disable() -> None:
    SINK.enabled = False


def enabled() -> bool:
    return SINK.enabled


def reset() -> None:
    """Clear all collected counters and distributions."""
    SINK.reset()


def snapshot() -> dict:
    """Shorthand for ``SINK.snapshot()``."""
    return SINK.snapshot()


def enable_selfcheck() -> None:
    """Turn structure invariant self-checks on (idempotent)."""
    SELFCHECK.enabled = True


def disable_selfcheck() -> None:
    SELFCHECK.enabled = False


def selfcheck_enabled() -> bool:
    return SELFCHECK.enabled


def _env_truthy(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() not in ("", "0", "false", "no")


if _env_truthy("REPRO_OBS"):  # pragma: no cover - exercised via subprocess tests
    SINK.enabled = True
if _env_truthy("REPRO_SELFCHECK"):
    SELFCHECK.enabled = True


def diff_snapshots(before: dict, after: dict) -> dict:
    """Per-window delta between two :meth:`ObsSink.snapshot` results.

    Counter deltas are plain subtraction; stats deltas subtract
    count/total (min/max are not meaningful per-window and are reported
    from ``after`` as running extremes).  Names absent from ``before``
    count from zero.  Zero-delta entries are dropped so per-sample
    ``ops`` blocks stay small.
    """
    counters = {}
    for name, value in after.get("counters", {}).items():
        delta = value - before.get("counters", {}).get(name, 0)
        if delta:
            counters[name] = delta
    stats = {}
    for name, entry in after.get("stats", {}).items():
        prev = before.get("stats", {}).get(name, {"count": 0, "total": 0.0})
        count = entry["count"] - prev["count"]
        if count:
            total = entry["total"] - prev["total"]
            stats[name] = {
                "count": count,
                "total": total,
                "mean": total / count,
                "running_min": entry["min"],
                "running_max": entry["max"],
            }
    return {"counters": counters, "stats": stats}


def derived_metrics(snap: dict, *, events: int | None = None) -> dict:
    """Headline ratios for a snapshot: the quantities the paper's bounds
    are stated in.

    Returns (omitting entries whose denominator is zero — never emits
    ``inf``/``NaN``):

    * ``rotations_per_update`` — ``rpai.rotations`` over the updates
      applied, ``engine.events`` + Σ ``engine.batch_size`` (per-event and
      batched runs alike) unless ``events`` is given; Section 3 predicts
      this bounded by c * log2(n).
    * ``violations_per_negative_shift`` and
      ``max_violations_single_shift`` — the Section 3.2.4 ``v``
      (expected <= 1 in the aggregate-usage case).
    * ``events``/``batches``/``results`` — engine-level totals.
    """
    counters = snap.get("counters", {})
    stats = snap.get("stats", {})
    out: dict[str, float] = {}
    if events is None:
        batched = stats.get("engine.batch_size")
        events = counters.get("engine.events", 0) + (batched["total"] if batched else 0)
    if events:
        out["rotations_per_update"] = counters.get("rpai.rotations", 0) / events
    neg = stats.get("rpai.neg_shift_violations")
    if neg and neg["count"]:
        out["negative_shifts"] = neg["count"]
        out["violations_per_negative_shift"] = neg["total"] / neg["count"]
        out["max_violations_single_shift"] = neg.get("max", neg.get("running_max", 0))
    for key in ("engine.events", "engine.batches", "engine.results"):
        if counters.get(key):
            out[key.split(".", 1)[1]] = counters[key]
    return out
