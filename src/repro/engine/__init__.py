"""Execution engines: naive, DBToaster-style, aggregate-index (RPAI, free maps)."""

from repro.engine.aggr_index import (
    AggregateIndexEngine,
    build_single_index_engine,
    decompose_product_sum,
)
from repro.engine.base import IncrementalEngine, Result
from repro.engine.naive import NaiveEngine, evaluate_query
from repro.engine.registry import (
    STRATEGIES,
    available_strategies,
    build_engine,
    build_sharded_engine,
)
from repro.engine.sharding import (
    MultiprocessShardedExecutor,
    ShardedExecutor,
    ShardRouter,
    plan_router,
    stable_hash,
)

__all__ = [
    "IncrementalEngine",
    "Result",
    "NaiveEngine",
    "evaluate_query",
    "AggregateIndexEngine",
    "build_single_index_engine",
    "decompose_product_sum",
    "build_engine",
    "build_sharded_engine",
    "available_strategies",
    "STRATEGIES",
    "ShardRouter",
    "ShardedExecutor",
    "MultiprocessShardedExecutor",
    "plan_router",
    "stable_hash",
]
