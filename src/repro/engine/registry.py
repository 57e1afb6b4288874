"""Engine registry: query name → {strategy → engine factory}.

This is the package's dispatch table for the evaluation: every
benchmark query can be run under three execution strategies —

* ``"recompute"`` — naive re-evaluation (Sections 2.1.1/2.2.1),
* ``"dbtoaster"`` — the DBToaster-style partially incremental baseline
  (Sections 2.1.2/2.2.2),
* ``"rpai"`` — our fully incremental engines (Sections 2.1.3/2.2.3, 4).

For queries whose shape the generic compilers cover the ``rpai`` engine
is *compiled from the AST*: EQ, VWAP, MST, PSP, Q17, Q18, SQ1 and SQ2
via the planner and the one aggregate-index engine, which installs its
per-query emitted triggers as it is built (SQ1 and SQ2 on its free-map
side, Section 4.2's general algorithm).  NQ1 and NQ2 still use
hand-written trigger classes: their strategy
(``GENERAL_NESTED``) builds no engine from a plan yet.  Q18's
``dbtoaster`` baseline is the same plan-built engine under its own name:
DBToaster maintains that uncorrelated view in O(1) too (the parity
column of Figure 7).
"""

from __future__ import annotations

from typing import Callable

from repro.engine.aggr_index import build_single_index_engine
from repro.engine.base import IncrementalEngine
from repro.engine.dbtoaster.finance import (
    EQDbtEngine,
    MSTDbtEngine,
    NQ1DbtEngine,
    NQ2DbtEngine,
    PSPDbtEngine,
    SQ1DbtEngine,
    SQ2DbtEngine,
    VWAPDbtEngine,
)
from repro.engine.dbtoaster.tpch import Q17DbtEngine
from repro.engine.naive import NaiveEngine
from repro.engine.queries.nq import NQ1RpaiEngine, NQ2RpaiEngine
from repro.workloads.queries import get_query

__all__ = [
    "build_engine",
    "build_sharded_engine",
    "attach_validation",
    "validation_schemas",
    "available_strategies",
    "STRATEGIES",
]

EngineFactory = Callable[..., IncrementalEngine]

STRATEGIES = ("recompute", "dbtoaster", "rpai")


def _naive_factory(name: str) -> EngineFactory:
    def build() -> IncrementalEngine:
        qd = get_query(name)
        return NaiveEngine(qd.ast, qd.schema_map())

    return build


def _compiled_index_factory(name: str, engine_name: str | None = None) -> EngineFactory:
    def build() -> IncrementalEngine:
        return build_single_index_engine(get_query(name).ast, name=engine_name)

    return build


_DBT: dict[str, EngineFactory] = {
    "EQ": EQDbtEngine,
    "VWAP": VWAPDbtEngine,
    "MST": MSTDbtEngine,
    "PSP": PSPDbtEngine,
    "SQ1": SQ1DbtEngine,
    "SQ2": SQ2DbtEngine,
    "NQ1": NQ1DbtEngine,
    "NQ2": NQ2DbtEngine,
    "Q17": Q17DbtEngine,
    "Q18": _compiled_index_factory("Q18", "dbtoaster"),
}

_RPAI: dict[str, EngineFactory] = {
    # Compiled from the AST by the planner + generic engines:
    "EQ": _compiled_index_factory("EQ"),
    "VWAP": _compiled_index_factory("VWAP"),
    "MST": _compiled_index_factory("MST"),
    "PSP": _compiled_index_factory("PSP"),
    "Q17": _compiled_index_factory("Q17"),
    "Q18": _compiled_index_factory("Q18"),
    "SQ1": _compiled_index_factory("SQ1"),
    "SQ2": _compiled_index_factory("SQ2"),
    # Specialized triggers (multi-level nesting):
    "NQ1": NQ1RpaiEngine,
    "NQ2": NQ2RpaiEngine,
}


def build_engine(query_name: str, strategy: str) -> IncrementalEngine:
    """Instantiate an engine for ``query_name`` under ``strategy``.

    Args:
        query_name: one of the benchmark query names (see
            :func:`repro.workloads.query_names`).
        strategy: ``"recompute"``, ``"dbtoaster"`` or ``"rpai"``.
    """
    name = query_name.upper()
    if strategy == "recompute":
        return _naive_factory(name)()
    if strategy == "dbtoaster":
        table, missing = _DBT, "no DBToaster baseline"
    elif strategy == "rpai":
        table, missing = _RPAI, "no RPAI engine"
    else:
        raise KeyError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    try:
        return table[name]()
    except KeyError:
        raise KeyError(f"{missing} for {name!r}") from None


def validation_schemas(query_name: str) -> dict:
    """The relations the validation boundary admits for ``query_name``:
    every *workload* relation, not just the ones the query references —
    benchmark streams are shared feeds (the TPC-H stream carries
    ``orders`` and ``customer`` alongside Q17's ``lineitem``/``part``),
    and events for unreferenced relations are legitimate no-ops, not
    junk.  The query's own schemas take precedence where names overlap."""
    from repro.storage.schema import WORKLOAD_SCHEMAS

    return {**WORKLOAD_SCHEMAS, **get_query(query_name.upper()).schema_map()}


def attach_validation(
    engine: IncrementalEngine,
    query_name: str,
    *,
    limit: int = 64,
    fail_after: int | None = None,
):
    """Attach the input-validation quarantine for ``query_name``
    (:func:`validation_schemas`) to ``engine`` (see
    :meth:`~repro.engine.base.IncrementalEngine.attach_quarantine`);
    returns the :class:`~repro.engine.base.Quarantine`."""
    return engine.attach_quarantine(
        validation_schemas(query_name), limit=limit, fail_after=fail_after
    )


def build_sharded_engine(
    query_name: str,
    strategy: str,
    *,
    shards: int,
    workers: int = 0,
    plan_stream=None,
    wal_dir=None,
    snapshot_every: int | None = None,
    max_respawns: int = 3,
    fsync: bool = False,
    fault_plan=None,
    validate: bool | None = None,
) -> IncrementalEngine:
    """Build a K-shard executor for ``query_name``, or fall back.

    The *template* engine (one plain :func:`build_engine` instance that
    never sees an event) declares the partition law through its
    ``shard_mode``; when it is ``None`` — a correlated predicate that
    crosses any partition — or ``shards <= 1``, the template itself is
    returned: single-engine execution is always sound, so unshardable
    queries silently run at K = 1 rather than erroring.

    Args:
        query_name / strategy: as for :func:`build_engine`.
        shards: number of engine replicas (K).
        workers: 0 for the deterministic serial executor; > 0 for the
            multiprocess pool with one long-lived worker per shard
            (``workers`` must then equal ``shards``).
        plan_stream: stream pre-scanned for range-partition boundaries
            (required for balanced range sharding; ignored by hash
            engines).
        wal_dir: enables the fault-tolerant path.  With workers the
            result is a :class:`~repro.engine.supervision.SupervisedExecutor`
            (per-shard WALs, snapshots, respawn-and-restore); without —
            including the unshardable fallback — the chosen engine is
            wrapped in a :class:`~repro.engine.supervision.DurableEngine`.
        snapshot_every / max_respawns / fsync: durable-path tuning
            (``None``: checkpoint by log size, see
            :meth:`~repro.storage.wal.WriteAheadLog.checkpoint_due`).
        fault_plan: a :class:`~repro.faults.FaultPlan` for chaos runs
            (supervised path only).
        validate: attach the schema quarantine boundary.  Default: on
            whenever a ``fault_plan`` is given (its junk events must be
            divertible), off otherwise.
    """
    from repro.engine.sharding import (
        MultiprocessShardedExecutor,
        ShardedExecutor,
        plan_router,
    )

    if validate is None:
        validate = fault_plan is not None

    def _durable(engine: IncrementalEngine) -> IncrementalEngine:
        if wal_dir is None:
            return engine
        from repro.engine.supervision import DurableEngine

        return DurableEngine(engine, wal_dir, fsync=fsync,
                             snapshot_every=snapshot_every)

    def _validated(engine: IncrementalEngine) -> IncrementalEngine:
        if validate:
            attach_validation(engine, query_name)
        return engine

    template = build_engine(query_name, strategy)
    router = plan_router(template, shards, plan_stream)
    if router is None:
        return _validated(_durable(template))
    if workers:
        if workers != shards:
            raise ValueError(
                f"the pool executor runs one worker per shard: "
                f"workers={workers} != shards={shards}"
            )
        if wal_dir is not None:
            from repro.engine.supervision import SupervisedExecutor

            return _validated(
                SupervisedExecutor(
                    query_name,
                    strategy,
                    template,
                    router,
                    wal_dir=wal_dir,
                    snapshot_every=snapshot_every,
                    max_respawns=max_respawns,
                    fsync=fsync,
                    fault_plan=fault_plan,
                )
            )
        if fault_plan is not None:
            raise ValueError("fault injection requires a wal_dir (supervised path)")
        return _validated(
            MultiprocessShardedExecutor(query_name, strategy, template, router)
        )
    if fault_plan is not None:
        raise ValueError("fault injection requires the supervised pool (workers=K)")
    # router.shards, not the requested count: a degenerate range plan
    # (skewed/constant keys) shrinks the router to its effective width.
    replicas = [build_engine(query_name, strategy) for _ in range(router.shards)]
    return _validated(_durable(ShardedExecutor(template, replicas, router)))


def available_strategies(query_name: str) -> tuple[str, ...]:
    """Strategies implemented for a query (all three, for every
    benchmark query)."""
    name = query_name.upper()
    out = ["recompute"]
    if name in _DBT:
        out.append("dbtoaster")
    if name in _RPAI:
        out.append("rpai")
    return tuple(out)
