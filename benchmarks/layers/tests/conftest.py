"""Run with ``PYTHONPATH=src python -m pytest benchmarks/layers/tests -q``
(not part of tier-1)."""

import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(LAYERS.parents[1] / "src"), str(LAYERS)]
