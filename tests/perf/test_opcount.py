"""The committed opcode table holds: each cell's opcodes and Python
calls per event sit within ``TOLERANCE`` of ``opcodes.json``.

A cell that moves is not fixed by widening the band: the change that
moves it regenerates the table (``python -m tests.perf.opcount
--write``) and says which cells moved and why."""

from __future__ import annotations

import pytest

from tests.perf.opcount import CELLS, TOLERANCE, load_table, measure, version_key

TABLE = load_table().get(version_key())


@pytest.mark.skipif(TABLE is None, reason=f"no opcode table for Python {version_key()}")
@pytest.mark.parametrize("cell", list(CELLS))
def test_cell_matches_the_table(cell):
    expected = TABLE[cell]
    measured = measure(cell)
    for metric, value in expected.items():
        assert measured[metric] == pytest.approx(value, rel=TOLERANCE), (cell, metric, measured)
