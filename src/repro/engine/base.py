"""Engine interface: the execution model of paper Section 4.2.1.

Every engine consumes a stream of insert/delete events and keeps the
query result fresh — "whenever a new tuple arrives, the corresponding
trigger will be called and the final result is computed after updating
the indexes".  Those are two steps, and the contract keeps them apart:
an engine implements ``apply(event)`` (update the indexes) and
``result()`` (compute the final result), the costs the IVM literature
prices separately as update time and enumeration delay.

:class:`IncrementalEngine` derives every call shape from the two:
``on_event`` is one ``apply`` and one ``result``; ``on_batch`` hands a
chunk to ``apply_batch`` — the ``apply`` loop, or an engine's netting
override that touches each key once (the standard DBToaster/DBSP
batching lever) — and enumerates **once**, at the chunk boundary;
``on_frame`` does the same over ``apply_frame``, which reads a
:class:`~repro.storage.colbatch.ColumnarFrame`'s typed columns without
building events.  The per-event shape is the correctness oracle for the
other two.  No engine overrides an ``on_*`` method — not the emitted
triggers, not the composites that drive other engines — so the obs
counters and the quarantine run once per outer call.

Results are scalars for scalar aggregate queries and ``{group key:
value}`` dicts for grouped queries (TPC-H Q18).
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Any, Callable, ClassVar, Iterable, Mapping, Sequence, Union

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
    ``on_event``/``on_batch``/``on_frame`` call validates its input
    against the schema of each relation before the trigger runs; the
    serving tenant owns one instead and admits each ingest once for all
    of its engines.  A composite (``DurableEngine``, the sharded
    executors) reaches the engines it drives through their ``apply*``,
    past any guard, so the quarantine belongs to the outermost engine.
    Rejected
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

    def admit_frame(self, frame):
        """Filter a :class:`~repro.storage.colbatch.ColumnarFrame`;
        returns it unchanged when every row is clean.

        A typed column cannot hold a mistyped value, so a block is
        admitted by one names/kinds-vs-schema check
        (:meth:`~repro.storage.schema.Schema.admits_block`); only
        side-channel rows and the rows of a block that fails it take the
        per-row :meth:`admit`, in event order — what is rejected, why,
        and when ``fail_after`` trips are what :meth:`admit_batch` over
        ``frame.events()`` gives.  Events are decoded only to drop rows."""
        suspect = {
            index
            for index, block in enumerate(frame.blocks)
            if (schema := self.schemas.get(block.relation)) is None
            or not schema.admits_block(block.names, block.kinds)
        }
        if not suspect and not frame.fallback:
            return frame
        rejected = set()
        for position, (block_index, row_index) in enumerate(frame.order()):
            if block_index < 0:
                event = frame.fallback[row_index]
            elif block_index in suspect:
                block = frame.blocks[block_index]
                event = Event(block.relation, block.row(row_index), block.weights[row_index])
            else:
                continue
            if not self.admit(event):
                rejected.add(position)
        if not rejected:
            return frame
        kept = [event for position, event in enumerate(frame.events()) if position not in rejected]
        return type(frame).from_events(kept)

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


def _row_caller(handler: Callable, columns: Sequence[str]) -> Callable:
    """``(engine, weight, row) -> handler(engine, weight, row[c0], row[c1], …)``
    with the subscripts spelled out: a ``*itemgetter(...)(row)`` call
    costs ~0.15 µs more per event than positional arguments, which was
    5 % of a whole hand-written PSP trigger."""
    cells = ", ".join(f"row[{column!r}]" for column in columns)
    return eval(f"lambda self, x, row: handler(self, x, {cells})", {"handler": handler})


class IncrementalEngine(abc.ABC):
    """Base class for all execution strategies.

    A trigger engine implements the paper's two steps and nothing else:

    * :meth:`apply` — update the maintained state for one event.  Either
      overridden directly, or derived from :attr:`row_handlers`: one
      method per relation taking ``(weight, *columns)``, which the base
      feeds from an event's row *and* straight from a frame's typed
      columns (:meth:`apply_frame`).
    * :meth:`result` — enumerate the maintained output.  Work that is
      enumeration (a pass over every group) belongs here, behind a dirty
      flag, so a call that applies 64 events pays for it once.

    The call shapes are derived **here, once**: :meth:`on_event`,
    :meth:`on_batch`, :meth:`on_frame` and :meth:`warm_start` are each
    obs + quarantine + an ``apply*`` + one :meth:`result`.  An engine
    that can do better than the event loop for a chunk overrides
    :meth:`apply_batch` (net per key, apply once) or :meth:`apply_frame`;
    no engine overrides an ``on_*`` method.  The aggregate-index
    engine's emitted triggers are ``apply*`` + ``result`` bound per
    instance (:mod:`repro.query.codegen`), and composites — ``DurableEngine``,
    the sharded executors — implement ``apply*`` by calling the
    ``apply*`` of the engines they drive, so the prologue runs once, at
    the outermost engine, and the quarantine belongs there too.

    The batch contract: ``on_batch(chunk)`` returns what the last
    :meth:`on_event` of the chunk would have returned, ``on_frame(f)``
    what ``on_batch(f.events())`` would.
    """

    #: human-readable strategy name used in benchmark output
    name: str = "engine"

    #: how this class's triggers execute, a class constant:
    #: ``"interpreted"`` (hand-written methods: the baselines, NQ1/NQ2)
    #: or ``"compiled"`` (the aggregate-index engine's triggers, emitted
    #: by :mod:`repro.query.codegen` and bound per instance).
    trigger_mode: ClassVar[str] = "interpreted"

    #: optional input-validation boundary (see :class:`Quarantine`);
    #: ``None`` (the default) keeps the trigger path unguarded.
    _quarantine: Quarantine | None = None

    #: ``{relation: (handler, column names)}`` — the engine's state
    #: update as per-relation row handlers ``handler(self, weight,
    #: *columns)``.  Declared in the class body (plain functions, so
    #: nothing enters an instance's pickled state); relations left out
    #: are ignored.
    row_handlers: ClassVar[Mapping[str, tuple[Callable, tuple[str, ...]]]] = {}

    #: ``row_handlers`` as ``{relation: (engine, weight, row) -> None}``
    #: (see :func:`_row_caller`), built once per class.
    _row_plan: ClassVar[Mapping[str, Callable]] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        """Per class, once: precompute the row-handler plan."""
        super().__init_subclass__(**kwargs)
        handlers = cls.__dict__.get("row_handlers")
        if handlers is not None:
            cls._row_plan = {
                relation: _row_caller(handler, columns)
                for relation, (handler, columns) in handlers.items()
            }

    # -- the two steps an engine implements --------------------------------

    def apply(self, event: Event) -> None:
        """Update the maintained state for one insert/delete.

        The default routes the event's row to its relation's row
        handler; an engine without ``row_handlers`` overrides this."""
        call = self._row_plan.get(event.relation)
        if call is not None:
            call(self, event.weight, event.row)

    @abc.abstractmethod
    def result(self) -> Result:
        """The current query output."""

    def apply_batch(self, events: Iterable[Event]) -> None:
        """Update the state for a chunk of events, in order.  Engines
        that can coalesce deltas (net weights per key, touch each key
        once) override this; the event loop is the oracle."""
        apply = self.apply
        for event in events:
            apply(event)

    def apply_frame(self, frame) -> None:
        """Update the state for one
        :class:`~repro.storage.colbatch.ColumnarFrame`.

        With ``row_handlers`` the frame is read as columns
        (:meth:`ColumnarFrame.feed <repro.storage.colbatch.ColumnarFrame.feed>`:
        no ``Event`` and no row dict is built, the event order is exact,
        side-channel rows go through :meth:`apply`); a block missing a
        declared column raises ``KeyError`` before any handler ran.
        Everything else decodes to :meth:`apply_batch`."""
        if self.row_handlers:
            frame.feed(self.row_handlers, self, self.apply)
        else:
            self.apply_batch(frame.events())

    # -- the call shapes, derived once ---------------------------------------

    def on_event(self, event: Event) -> Result:
        """Apply one insert/delete and return the refreshed result."""
        if _SINK.enabled:
            _SINK.inc("engine.events")
            _SINK.inc("engine.results")
        guard = self._quarantine
        if guard is None or guard.admit(event):
            self.apply(event)
        return self.result()

    def on_batch(self, events: Sequence[Event]) -> Result:
        """Apply a chunk of events; return the result after all of them.

        One validation pass, one :meth:`apply_batch`, one
        :meth:`result`: intermediate per-event results are not
        observable through this path, only the boundary result is.
        """
        if _SINK.enabled:
            _SINK.inc("engine.batches")
            _SINK.observe("engine.batch_size", len(events))
            _SINK.inc("engine.results")
        guard = self._quarantine
        if guard is not None:
            events = guard.admit_batch(events)
            if not events:
                return self.result()
        self.apply_batch(events)
        return self.result()

    def on_frame(self, frame) -> Result:
        """Apply one :class:`~repro.storage.colbatch.ColumnarFrame`:
        one block-level admission (:meth:`Quarantine.admit_frame`) when
        a quarantine is attached, one :meth:`apply_frame`, one
        :meth:`result`."""
        if _SINK.enabled:
            _SINK.inc("engine.batches")
            _SINK.observe("engine.batch_size", len(frame))
            _SINK.inc("engine.results")
        guard = self._quarantine
        if guard is not None:
            frame = guard.admit_frame(frame)
        self.apply_frame(frame)
        return self.result()

    def attach_quarantine(
        self,
        schemas: Mapping[str, Any],
        *,
        limit: int = 64,
        fail_after: int | None = None,
    ) -> Quarantine:
        """Install the input-validation boundary on this engine.

        Every subsequent ``on_event``/``on_batch``/``on_frame`` call
        validates each event against ``schemas`` (relation name → object
        with a ``validate(row)`` raising
        :class:`~repro.errors.SchemaError`); violators are diverted to
        the returned :class:`Quarantine` instead of reaching the
        trigger.  Idempotent state: attaching a new quarantine replaces
        the previous one."""
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

        The default is one :meth:`on_batch` over the whole stream: every
        event applied, the result enumerated once.  Index engines
        override this with an O(n)-per-index ``bulk_load`` construction
        (sort once, build balanced trees directly), which is the
        intended way to stand up an engine over an existing table before
        switching to incremental updates.
        """
        return self.on_batch(list(stream))

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
