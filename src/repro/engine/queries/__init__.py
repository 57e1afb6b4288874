"""Specialized RPAI trigger implementations for the benchmark queries."""

from repro.engine.queries.common import PointSide, ShiftedSide, probe_index
from repro.engine.queries.mst import MSTRpaiEngine
from repro.engine.queries.nq import NQ1RpaiEngine, NQ2RpaiEngine
from repro.engine.queries.psp import PSPRpaiEngine
from repro.engine.queries.tpch import Q17RpaiEngine, Q18RpaiEngine

__all__ = [
    "PointSide",
    "ShiftedSide",
    "probe_index",
    "MSTRpaiEngine",
    "PSPRpaiEngine",
    "NQ1RpaiEngine",
    "NQ2RpaiEngine",
    "Q17RpaiEngine",
    "Q18RpaiEngine",
]
