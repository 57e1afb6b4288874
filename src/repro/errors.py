"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single base class.  Subclasses are deliberately
fine-grained: the query front-end, the planner, and the engines each
raise a distinct type so that tests (and downstream users) can assert
on *why* something was rejected, not just that it was.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "QueryParseError",
    "QueryAnalysisError",
    "UnsupportedQueryError",
    "SchemaError",
    "EngineStateError",
    "DuplicateKeyError",
    "ShardWorkerError",
    "WalCorruptionError",
    "QuarantineOverflowError",
    "KeyUniverseError",
    "ServingError",
    "WireFormatError",
    "SubscriberEvictedError",
    "TenantFailedError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class QueryParseError(ReproError):
    """The SQL text could not be parsed into the AggrQ grammar.

    Carries the offending position so callers can point at the token.
    """

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class QueryAnalysisError(ReproError):
    """The query parsed, but free/bound analysis found an inconsistency.

    Examples: a column referencing an alias that is not in scope, or an
    aggregate function applied to a non-numeric expression.
    """


class UnsupportedQueryError(ReproError):
    """The query is valid but outside the class an engine supports.

    The planner raises this when asked to compile a query whose shape
    does not match Section 4.3 of the paper (for the aggregate-index
    engine) or Section 4.2 (for the general algorithm).
    """


class SchemaError(ReproError):
    """A tuple did not match the relation schema it was inserted into."""


class EngineStateError(ReproError):
    """An engine was driven incorrectly (e.g. deleting a missing tuple)."""


class DuplicateKeyError(ReproError):
    """An index insert collided with an existing key where overwrite or
    merge semantics were not requested."""


class ShardWorkerError(EngineStateError):
    """A shard worker process reported a structured failure.

    Raised in the *parent* of a sharded multiprocess run when a worker
    replies with an error instead of an ack.  Carries enough context to
    debug the failure without attaching to the child: the shard index,
    the original exception type name, and the worker-side traceback.
    """

    def __init__(
        self,
        message: str,
        *,
        shard: int | None = None,
        exc_type: str | None = None,
        worker_traceback: str | None = None,
    ) -> None:
        detail = message
        if shard is not None:
            detail = f"shard {shard}: {detail}"
        if worker_traceback:
            detail = f"{detail}\n--- worker traceback ---\n{worker_traceback}"
        super().__init__(detail)
        self.shard = shard
        self.exc_type = exc_type
        self.worker_traceback = worker_traceback


class WalCorruptionError(ReproError):
    """A write-ahead log or snapshot failed its integrity checks.

    Only raised in *strict* recovery mode; the default recovery path
    self-heals (truncates the corrupt tail, skips corrupt snapshots)
    and reports through ``obs`` counters instead.
    """


class KeyUniverseError(ReproError, IndexError):
    """A key fell outside a dense-universe backend's representable range.

    Raised by the array-backed backends (Fenwick, segment tree) for keys
    they cannot index — negative or non-integer keys, or shifts that
    would move an entry below zero.  Keys *above* the current capacity
    are not errors: those backends grow their universe by doubling.
    NQ1's engine raises it for a price its composite keys cannot hold
    (outside ``0 <= price < 2**45``), and a shifted side's triggers for a
    tuple whose inner contribution is not above 0, before it changes
    anything.

    Subclasses :class:`IndexError` so pre-existing callers that caught
    the bare built-in keep working.
    """


class QuarantineOverflowError(EngineStateError):
    """More events were quarantined than the configured hard cap.

    A handful of malformed events is tolerable telemetry; an unbounded
    stream of them means the producer is broken, and silently discarding
    the whole input would masquerade as a successful run."""


class ServingError(ReproError):
    """Base class for the streaming subscription server's errors."""


class WireFormatError(ServingError):
    """A wire frame failed its integrity checks (bad magic, implausible
    length, CRC mismatch, truncated payload, or an undecodable body).

    The serving protocol treats this as a connection-fatal condition:
    once framing is lost there is no way to resynchronise a TCP byte
    stream, so the peer is told (best-effort) and the connection is
    closed.  Engines and other connections are unaffected."""


class SubscriberEvictedError(ServingError):
    """The server evicted this subscription: the client stopped draining
    deltas and its bounded buffer filled.  Clients recover by
    re-subscribing, which yields a fresh snapshot."""


class TenantFailedError(ServingError):
    """The tenant's engine runtime is down (crashed or killed); ingest
    and subscriptions are refused until the tenant is restarted from its
    WAL.  Other tenants are unaffected — that is the isolation
    contract."""
