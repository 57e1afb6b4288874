"""The sides of the aggregate-index engine, and the RPAI trigger classes
still written by hand (NQ1, NQ2)."""

from repro.engine.queries.common import MembershipSide, PointSide, ShiftedSide, Side, ThresholdSide
from repro.engine.queries.nq import NQ1RpaiEngine, NQ2RpaiEngine

__all__ = [
    "Side",
    "PointSide",
    "ShiftedSide",
    "ThresholdSide",
    "MembershipSide",
    "NQ1RpaiEngine",
    "NQ2RpaiEngine",
]
