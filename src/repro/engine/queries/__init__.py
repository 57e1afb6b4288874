"""The sides of the aggregate-index engine, and the RPAI trigger classes
still written by hand (MST's reference class, NQ1, NQ2)."""

from repro.engine.queries.common import MembershipSide, PointSide, ShiftedSide, ThresholdSide, probe_index
from repro.engine.queries.mst import MSTRpaiEngine
from repro.engine.queries.nq import NQ1RpaiEngine, NQ2RpaiEngine

__all__ = [
    "PointSide",
    "ShiftedSide",
    "ThresholdSide",
    "MembershipSide",
    "probe_index",
    "MSTRpaiEngine",
    "NQ1RpaiEngine",
    "NQ2RpaiEngine",
]
