"""Emulated DBToaster baselines (see finance.py / tpch.py module docs)."""

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

__all__ = [
    "EQDbtEngine",
    "VWAPDbtEngine",
    "MSTDbtEngine",
    "PSPDbtEngine",
    "SQ1DbtEngine",
    "SQ2DbtEngine",
    "NQ1DbtEngine",
    "NQ2DbtEngine",
    "Q17DbtEngine",
]
