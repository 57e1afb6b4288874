"""repro — a reproduction of *"Efficient Incrementalization of Correlated
Nested Aggregate Queries using Relative Partial Aggregate Indexes
(RPAI)"*, SIGMOD 2022.

Quick start::

    from repro import RPAITree, parse_query, build_engine
    from repro.workloads import get_query

    # The data structure directly:
    index = RPAITree()
    index.put(10, 3); index.put(20, 5)
    index.shift_keys(15, 100)      # O(log n) range key shift
    index.get_sum(200)             # O(log n) prefix sum

    # Or a full incremental query engine:
    engine = build_engine("VWAP", "rpai")
    for event in my_stream:
        fresh_result = engine.on_event(event)

Package layout (see DESIGN.md for the full inventory):

* :mod:`repro.core` — PAI maps and RPAI trees (the contribution);
* :mod:`repro.trees` — TreeMap / Fenwick / segment-tree substrates;
* :mod:`repro.query` — AggrQ grammar, SQL parser, analysis, planner;
* :mod:`repro.storage` — schemas, multiset relations, update streams;
* :mod:`repro.engine` — naive / DBToaster-style / aggregate-index
  execution engines;
* :mod:`repro.workloads` — order-book and mini-TPC-H generators plus
  the ten benchmark queries;
* :mod:`repro.bench` — measurement harness.
"""

from repro.core import PAIMap, ReferenceIndex, RPAITree
from repro.engine import (
    IncrementalEngine,
    NaiveEngine,
    available_strategies,
    build_engine,
    build_single_index_engine,
)
from repro.errors import (
    EngineStateError,
    QueryAnalysisError,
    QueryParseError,
    ReproError,
    SchemaError,
    UnsupportedQueryError,
)
from repro.query import Strategy, classify, parse_query
from repro.storage import Event, Stream
from repro.trees import FenwickTree, SegmentTree, TreeMap

__version__ = "1.0.0"

__all__ = [
    "RPAITree",
    "PAIMap",
    "ReferenceIndex",
    "TreeMap",
    "FenwickTree",
    "SegmentTree",
    "parse_query",
    "classify",
    "Strategy",
    "Event",
    "Stream",
    "IncrementalEngine",
    "NaiveEngine",
    "build_engine",
    "build_single_index_engine",
    "available_strategies",
    "ReproError",
    "QueryParseError",
    "QueryAnalysisError",
    "UnsupportedQueryError",
    "SchemaError",
    "EngineStateError",
    "__version__",
]
