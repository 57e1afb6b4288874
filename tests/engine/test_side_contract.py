"""The side contract holds: the aggregate-index engine and its emitter
never ask which side kind they hold, and the probe and the result
recombination each have one definition."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro
from repro.engine import aggr_index
from repro.engine.queries import common
from repro.engine.registry import build_engine
from repro.query import codegen, rowexpr

SRC = Path(repro.__file__).parent

#: a side-kind question: a plan predicate, Q18's old result sentinel, the
#: membership operator, or a class test
KIND_TEST = re.compile(
    r"\.(point|shifted|threshold|grouped_threshold|membership|tuplewise)\b"
    r"|terms is None"
    r'|inner_op == "IN"'
    r"|isinstance\([^)]*(PointSide|ShiftedSide|ThresholdSide|MembershipSide)\)"
)


@pytest.mark.parametrize("path", ["engine/aggr_index.py", "query/codegen.py"])
def test_shared_code_asks_no_side_its_kind(path):
    lines = (SRC / path).read_text().splitlines()
    found = [f"{path}:{n}: {line.strip()}" for n, line in enumerate(lines, 1) if KIND_TEST.search(line)]
    assert found == []


def test_probe_and_recombination_are_defined_once():
    assert not hasattr(common, "probe_index")
    assert not hasattr(rowexpr, "apply_scale")
    for name in ("_new_side", "_finish", "_combine"):
        assert not hasattr(aggr_index.AggregateIndexEngine, name)
    for kind in (common.PointSide, common.ShiftedSide, common.ThresholdSide, common.MembershipSide):
        assert "qualifying" not in vars(kind)


@pytest.mark.parametrize("query", ["EQ", "VWAP", "MST", "PSP", "Q17", "Q18"])
def test_both_modes_run_one_result_source(query):
    """``result`` and the shard functions come from one source, the
    engine's ``reads_source``, which closes the one emitted module (the
    interpreted mode that compiled it a second time is gone)."""
    engine = build_engine(query, "rpai")
    source = "\n".join(engine.reads_source()) + "\n"
    assert codegen.generated_source(engine).endswith(source)
    assert engine.result.__code__.co_filename.startswith("<codegen:")
