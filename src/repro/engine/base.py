"""Engine interface: the execution model of paper Section 4.2.1.

Every engine consumes a stream of insert/delete events and keeps the
query result fresh after each one — "whenever a new tuple arrives, the
corresponding trigger will be called and the final result is computed
after updating the indexes".

On top of the paper's one-trigger-per-update model this base class adds
a *batched* execution path (:meth:`on_batch`): the caller hands a chunk
of events and only needs the result at the chunk boundary, which lets
engines coalesce same-key deltas and refresh the result once per chunk
instead of once per event (the standard DBToaster/DBSP batching lever).
The default implementation falls back to the per-event trigger, so the
per-event path remains the correctness oracle for every override.

Results are scalars for scalar aggregate queries and ``{group key:
value}`` dicts for grouped queries (TPC-H Q18).
"""

from __future__ import annotations

import abc
import functools
from collections import deque
from typing import Any, ClassVar, Mapping, Sequence, Union

from repro.errors import QuarantineOverflowError, SchemaError
from repro.obs import SINK as _SINK
from repro.storage.stream import Event, Stream

__all__ = ["IncrementalEngine", "Quarantine", "Result"]

Result = Union[float, dict]


class Quarantine:
    """Input-validation boundary: schema-violating events are diverted
    here instead of reaching (and corrupting) index state mid-stream.

    Attached to an engine via
    :meth:`IncrementalEngine.attach_quarantine`, after which every
    ``on_event``/``on_batch`` call validates each event's row against
    the schema of its relation before the trigger runs.  Rejected
    events are kept in a bounded ring (the most recent ``limit``
    offenders, with their :class:`~repro.errors.SchemaError` detail)
    and counted under ``engine.quarantined``; accepted events flow
    through untouched, so on a clean stream a guarded engine is
    bit-identical to an unguarded one.

    ``fail_after`` is the hard cap: tolerating a handful of malformed
    events is telemetry, tolerating an unbounded stream of them would
    silently discard the input, so crossing the cap raises
    :class:`~repro.errors.QuarantineOverflowError`.

    The quarantine is plain picklable state, so it survives engine
    snapshots (checkpointing, WAL recovery) along with the engine.
    """

    def __init__(
        self,
        schemas: Mapping[str, Any],
        *,
        limit: int = 64,
        fail_after: int | None = None,
    ) -> None:
        if limit < 1:
            raise QuarantineOverflowError(f"quarantine limit must be >= 1, got {limit}")
        self.schemas = dict(schemas)
        self.limit = limit
        self.fail_after = fail_after
        self.rejected: deque[tuple[Event, str]] = deque(maxlen=limit)
        self.total_rejected = 0

    def admit(self, event: Event) -> bool:
        """``True`` if the event is clean; quarantine it and return
        ``False`` otherwise."""
        schema = self.schemas.get(event.relation)
        try:
            if schema is None:
                raise SchemaError(f"unknown relation {event.relation!r}")
            schema.validate(event.row)
        except SchemaError as exc:
            self._reject(event, str(exc))
            return False
        return True

    def admit_batch(self, events: Sequence[Event]) -> Sequence[Event]:
        """Filter a chunk; returns it unchanged when every event is
        clean (no copy on the hot path)."""
        if all(self.admit_fast(event) for event in events):
            return events
        return [event for event in events if self.admit(event)]

    def admit_fast(self, event: Event) -> bool:
        """Validation without side effects (used for the no-copy check;
        rejection bookkeeping happens in the :meth:`admit` pass)."""
        schema = self.schemas.get(event.relation)
        if schema is None:
            return False
        try:
            schema.validate(event.row)
        except SchemaError:
            return False
        return True

    def _reject(self, event: Event, reason: str) -> None:
        self.total_rejected += 1
        self.rejected.append((event, reason))
        if _SINK.enabled:
            _SINK.inc("engine.quarantined")
        if self.fail_after is not None and self.total_rejected > self.fail_after:
            raise QuarantineOverflowError(
                f"{self.total_rejected} events quarantined (cap "
                f"{self.fail_after}); last reason: {reason}"
            )


def _count_events(fn):
    """Wrap a concrete ``on_event`` with the ``engine.events`` counter
    and the quarantine boundary.

    The disabled path is two attribute checks; applied once per class at
    definition time (see ``IncrementalEngine.__init_subclass__``)."""

    @functools.wraps(fn)
    def wrapper(self, event):
        if _SINK.enabled:
            _SINK.inc("engine.events")
        guard = self._quarantine
        if guard is not None and not guard.admit(event):
            return self.result()
        return fn(self, event)

    wrapper.__obs_instrumented__ = True
    return wrapper


def _count_batches(fn):
    """Wrap a concrete ``on_batch`` with batch count/size counters and
    the quarantine boundary."""

    @functools.wraps(fn)
    def wrapper(self, events):
        if _SINK.enabled:
            _SINK.inc("engine.batches")
            _SINK.observe("engine.batch_size", len(events))
        guard = self._quarantine
        if guard is not None:
            events = guard.admit_batch(events)
            if not events:
                return self.result()
        return fn(self, events)

    wrapper.__obs_instrumented__ = True
    return wrapper


def _count_results(fn):
    """Wrap a concrete ``result`` with the result-refresh counter."""

    @functools.wraps(fn)
    def wrapper(self):
        if _SINK.enabled:
            _SINK.inc("engine.results")
        return fn(self)

    wrapper.__obs_instrumented__ = True
    return wrapper


_INSTRUMENTERS = {
    "on_event": _count_events,
    "on_batch": _count_batches,
    "result": _count_results,
}


class IncrementalEngine(abc.ABC):
    """Base class for all execution strategies.

    Subclasses implement :meth:`on_event` (the update trigger) and
    :meth:`result` (read the maintained output).  ``on_event`` returns
    the refreshed result for convenience, matching the paper's trigger
    pseudocode which ends every trigger with the result computation.
    Engines with a batched fast path additionally override
    :meth:`on_batch`; the contract is that its return value equals what
    the last :meth:`on_event` of the same chunk would have returned.
    """

    #: human-readable strategy name used in benchmark output
    name: str = "engine"

    #: how this engine's triggers execute: ``"interpreted"`` (the class
    #: methods below) or ``"compiled"`` (specialized instance triggers
    #: installed by :mod:`repro.query.codegen`).  The class default is
    #: shadowed by an instance attribute while compiled triggers are
    #: installed.
    trigger_mode: str = "interpreted"

    #: optional input-validation boundary (see :class:`Quarantine`);
    #: ``None`` (the default) keeps the trigger path unguarded.
    _quarantine: Quarantine | None = None

    def __init_subclass__(cls, **kwargs) -> None:
        """Instrument every concrete engine with the :mod:`repro.obs`
        trigger counters (``engine.events``/``engine.batches``/
        ``engine.results``).

        Wrapping happens once, at class-definition time, and only for
        methods the class defines itself — inherited (already wrapped)
        implementations are left alone, so subclassing an engine (e.g.
        Q18DbtEngine over Q18RpaiEngine) never double-counts.
        """
        super().__init_subclass__(**kwargs)
        for method, instrument in _INSTRUMENTERS.items():
            fn = cls.__dict__.get(method)
            if fn is not None and not getattr(fn, "__obs_instrumented__", False):
                setattr(cls, method, instrument(fn))

    @abc.abstractmethod
    def on_event(self, event: Event) -> Result:
        """Apply one insert/delete and return the refreshed result."""

    @abc.abstractmethod
    def result(self) -> Result:
        """The current query output."""

    def on_batch(self, events: Sequence[Event]) -> Result:
        """Apply a chunk of events; return the result after all of them.

        The default is the per-event fallback — semantically the oracle
        for every override.  Engines that can coalesce deltas (net
        weights per key, one result refresh per chunk) override this
        with a batched trigger; intermediate per-event results are not
        observable through this path, only the boundary result is.
        """
        if _SINK.enabled:
            # Inherited default: not routed through __init_subclass__
            # wrapping (that only sees methods a class defines itself).
            _SINK.inc("engine.batches")
            _SINK.observe("engine.batch_size", len(events))
        # Per-event fallback: each on_event call runs its own quarantine
        # check (the wrapped trigger), so no batch-level filter here.
        output: Result = self.result()
        for event in events:
            output = self.on_event(event)
        return output

    def on_frame(self, frame) -> Result:
        """Apply one :class:`~repro.storage.colbatch.ColumnarFrame`.

        The default decodes and delegates to :meth:`on_batch` (which
        keeps the quarantine and obs behavior of that path).  Engines
        with a columnar fast path — netting weights per key straight
        from the typed columns — override this; the contract is exact
        result equality with ``on_batch(frame.events())``.
        """
        return self.on_batch(frame.events())

    def attach_quarantine(
        self,
        schemas: Mapping[str, Any],
        *,
        limit: int = 64,
        fail_after: int | None = None,
    ) -> Quarantine:
        """Install the input-validation boundary on this engine.

        Every subsequent ``on_event``/``on_batch`` call validates each
        event against ``schemas`` (relation name → object with a
        ``validate(row)`` raising :class:`~repro.errors.SchemaError`);
        violators are diverted to the returned :class:`Quarantine`
        instead of reaching the trigger.  Idempotent state: attaching a
        new quarantine replaces the previous one."""
        self._quarantine = Quarantine(schemas, limit=limit, fail_after=fail_after)
        return self._quarantine

    def detach_quarantine(self) -> None:
        """Remove the validation boundary (no-op when absent)."""
        self._quarantine = None

    @property
    def quarantine(self) -> Quarantine | None:
        """The attached :class:`Quarantine`, or ``None``."""
        return self._quarantine

    def process(self, stream: Stream, batch_size: int | None = None) -> Result:
        """Feed every event of ``stream``; returns the final result.

        With ``batch_size`` set (> 1), events are fed through
        :meth:`on_batch` in chunks — same final result, fewer result
        refreshes along the way.
        """
        if batch_size is not None and batch_size > 1:
            output: Result = self.result()
            for batch in stream.batches(batch_size):
                output = self.on_batch(batch)
            return output
        output = self.result()
        for event in stream:
            output = self.on_event(event)
        return output

    def results_trace(self, stream: Stream) -> list[Result]:
        """Feed the stream, recording the result after every event.

        Used by the differential tests: two engines agree iff their
        traces are identical element-wise.
        """
        return [self.on_event(event) for event in stream]

    def batched_results_trace(self, stream: Stream, batch_size: int) -> list[Result]:
        """Feed the stream in chunks, recording the result after each.

        The batched counterpart of :meth:`results_trace`: entry ``i``
        must equal ``results_trace(stream)[(i + 1) * batch_size - 1]``
        (clamped to the last event for a short final chunk) — that is
        exactly what the batched differential tests assert.
        """
        return [self.on_batch(batch) for batch in stream.batches(batch_size)]

    def warm_start(self, stream: Stream) -> Result:
        """Load an initial dataset into a fresh engine.

        The default replays the stream through the trigger path.  Index
        engines override this with an O(n)-per-index ``bulk_load``
        construction (sort once, build balanced trees directly), which
        is the intended way to stand up an engine over an existing
        table before switching to incremental updates.
        """
        return self.process(stream)

    # ------------------------------------------------------------------
    # Sharded execution protocol (see repro.engine.sharding).
    #
    # A shardable engine declares how its input stream partitions into
    # independent replicas and how the replicas' partial states combine
    # back into the exact single-engine answer.  The merge laws live in
    # repro.engine.mergeable; engines implement the five hooks below.
    # The executors drive them in two phases per result refresh:
    #
    #   1. every replica reports shard_partial() — a small picklable
    #      summary (global scalar components, per-shard totals);
    #   2. a *template* engine (same query, never fed events) turns the
    #      gathered partials into per-shard probe contexts
    #      (shard_contexts), each replica answers shard_probe(ctx), and
    #      the template folds partials + probes into the final result
    #      (shard_combine).
    #
    # Engines whose partials already carry the whole answer return None
    # from shard_contexts and the probe phase is skipped — one IPC round
    # trip instead of two in the multiprocess executor.
    #
    # ``shard_mode`` declares how events route:
    #   * "hash"  — equality/group correlation: replicas own disjoint
    #     correlation groups, any key-disjoint assignment is exact;
    #   * "range" — inequality correlation: replicas own contiguous
    #     routing-key ranges so a shard's subquery values differ from
    #     the global ones by one additive offset (the relative-index
    #     idea lifted to the shard level);
    #   * None    — not shardable: cross-shard correlated predicates
    #     make any partition unsound, executors fall back to K = 1.
    # ------------------------------------------------------------------

    #: sharded-routing mode: "hash", "range", or None (not shardable).
    shard_mode: ClassVar[str | None] = None

    def shard_routing_key(self, event: Event) -> Any:
        """Routing key of ``event`` under :attr:`shard_mode`.

        ``None`` means broadcast: the event must reach every replica
        (reference data that gates qualification, e.g. Q18 customers).
        Events that only feed globally-merged scalars should return a
        key that pins them to one replica (any constant) so their
        contribution is not double counted by the merge.
        """
        raise NotImplementedError(f"{type(self).__name__} is not shardable")

    def shard_routing_spec(self) -> dict | None:
        """Column-level form of :meth:`shard_routing_key` for the
        vectorized frame split (``ShardRouter.split_frame``).

        Returns ``{relation: rule}`` with a ``"*"`` default rule — see
        ``split_frame`` for the rule vocabulary — or ``None`` when no
        column form exists, in which case the executors fall back to
        per-event routing.  The contract: for every event, the rule of
        its relation must yield exactly ``shard_routing_key(event)``.
        """
        return None

    def shard_partial(self) -> Any:
        """Phase 1: this replica's mergeable summary (picklable)."""
        raise NotImplementedError(f"{type(self).__name__} is not shardable")

    def shard_contexts(self, partials: Sequence[Any]) -> list[Any] | None:
        """Phase 2 setup, run on the template: per-shard probe contexts
        derived from all gathered partials, or ``None`` when the
        partials alone determine the result (no probe phase)."""
        return None

    def shard_probe(self, context: Any) -> Any:
        """Phase 2: evaluate this replica's contribution under the
        globally-derived ``context`` (e.g. an offset-adjusted probe)."""
        raise NotImplementedError(f"{type(self).__name__} is not shardable")

    def shard_combine(
        self, partials: Sequence[Any], probes: Sequence[Any] | None
    ) -> Result:
        """Fold partials (and probe answers, when a probe phase ran)
        into the exact single-engine result; run on the template."""
        raise NotImplementedError(f"{type(self).__name__} is not shardable")
