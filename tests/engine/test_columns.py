"""Engines whose required sums are the columns of one RPAI index (MST,
the conjunctive compiler) and PSP's column-keyed indexes: bit-identical
to the naive engine and to each other on order-book streams with
retractions, in every trigger flavor (per event, batched, columnar
frames), compiled and interpreted, before and after a pickle
round-trip."""

from __future__ import annotations

import pickle

import pytest

from repro import obs
from repro.core.rpai import RPAITree
from repro.engine.aggr_index import AggregateIndexEngine
from repro.engine.naive import NaiveEngine
from repro.engine.registry import build_engine
from repro.query import codegen
from repro.query.parser import parse_query
from repro.query.planner import classify
from repro.storage import schema as schemas
from repro.storage.colbatch import ColumnarFrame
from repro.workloads import OrderBookConfig, generate_order_book, get_query

from tests.engine.mst_reference import MSTRpaiEngine

FLAVORS = ("event", "batch", "frame")
CHUNK = 16

#: MST's predicates under a result with two distinct factors per side
#: plus MST's own count-weighted terms: required sums Σ price, Σ volume
#: and the count, i.e. three columns.
THREE_SUMS_SQL = """
    SELECT SUM(a.price * b.volume - a.volume * b.price + a.price - b.price)
    FROM asks a, bids b
    WHERE 0.25 * (SELECT SUM(a1.volume) FROM asks a1)
            > (SELECT SUM(a2.volume) FROM asks a2 WHERE a2.price > a.price)
      AND 0.25 * (SELECT SUM(b1.volume) FROM bids b1)
            > (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price > b.price)
"""


def book(events: int, seed: int, *, price_levels: int = 12) -> list:
    """Few price levels: retractions empty whole levels and shifted
    aggregate keys collide, so merges and prunes both happen."""
    return list(generate_order_book(OrderBookConfig(
        events=events, price_levels=price_levels, volume_max=9, seed=seed, delete_ratio=0.3,
    )))


def drive(engine, events: list, flavor: str, *, restore_at: int | None = None) -> list:
    """Feed ``events`` in ``CHUNK``-sized pieces the ``flavor`` way;
    returns the result after each piece.  ``restore_at`` swaps the
    engine for its own pickle round-trip before that piece."""
    results = []
    for n, start in enumerate(range(0, len(events), CHUNK)):
        piece = events[start : start + CHUNK]
        if n == restore_at:
            engine = pickle.loads(pickle.dumps(engine))
        if flavor == "event":
            for event in piece:
                result = engine.on_event(event)
        elif flavor == "batch":
            result = engine.on_batch(piece)
        else:
            result = engine.on_frame(ColumnarFrame.from_events(piece))
        results.append(result)
    return results


def naive_trace(query, events: list) -> list:
    naive = NaiveEngine(query, {"asks": schemas.ASKS, "bids": schemas.BIDS})
    return drive(naive, events, "event")


def registry_engine(name: str, compiled: bool):
    """``compiled=False`` (the ``interpreted`` ids) flips the switch the
    layered benchmark's probes still flip: it has no effect, the engine
    runs the one emitted trigger path either way."""
    codegen.set_codegen(compiled)
    engine = build_engine(name, "rpai")
    assert engine.trigger_mode == "compiled"
    return engine


class TestAgainstNaive:
    @pytest.mark.parametrize(
        "name, compiled",
        [("MST", True), ("MST", False), ("PSP", True), ("PSP", False)],
        ids=["MST-compiled", "MST-interpreted", "PSP", "PSP-interpreted"],
    )
    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_registry_engine_matches_naive(self, name, compiled, flavor):
        events = book(96, seed=71)
        expected = naive_trace(get_query(name).ast, events)
        assert drive(registry_engine(name, compiled), events, flavor) == expected
        restored = drive(registry_engine(name, compiled), events, flavor, restore_at=3)
        assert restored == expected

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_handwritten_mst_matches_naive(self, flavor):
        events = book(96, seed=72)
        expected = naive_trace(get_query("MST").ast, events)
        assert drive(MSTRpaiEngine(), events, flavor, restore_at=2) == expected


class TestHandwrittenAgainstCompiler:
    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "interpreted"])
    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_mst_engines_agree(self, compiled, flavor):
        events = book(800, seed=73, price_levels=40)
        expected = drive(MSTRpaiEngine(), events, "event")
        generic = registry_engine("MST", compiled)
        assert isinstance(generic, AggregateIndexEngine)
        assert drive(generic, events, flavor, restore_at=20) == expected


class TestThreeRequiredSums:
    """k = 3 from a real plan, not only from the structure tests."""

    def build(self, compiled: bool) -> AggregateIndexEngine:
        """Built directly from the plan; ``compiled=False`` as in
        :func:`registry_engine`."""
        codegen.set_codegen(compiled)
        engine = AggregateIndexEngine(classify(parse_query(THREE_SUMS_SQL)))
        assert engine.trigger_mode == "compiled"
        return engine

    def test_each_side_holds_one_three_column_tree(self):
        engine = self.build(compiled=True)
        for side in engine.sides:
            assert isinstance(side.index, RPAITree)
            assert side.index.columns == 3

    def test_count_column_only_when_a_term_uses_it(self):
        """Without the count-weighted terms no term multiplies by |Q|,
        so each side carries its two factor columns and no count."""
        sql = THREE_SUMS_SQL.replace(" + a.price - b.price", "")
        engine = AggregateIndexEngine(classify(parse_query(sql)))
        assert [side.index.columns for side in engine.sides] == [2, 2]
        assert not any(plan.counted for plan in engine.layout.sides)

    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "interpreted"])
    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_matches_naive(self, compiled, flavor):
        events = book(96, seed=74)
        expected = naive_trace(parse_query(THREE_SUMS_SQL), events)
        assert drive(self.build(compiled), events, flavor, restore_at=3) == expected

    def test_compiled_and_interpreted_do_the_same_index_work(self):
        events = book(400, seed=75, price_levels=30)

        def counters(compiled: bool) -> dict:
            from repro.core._rpai_kernel import POOLS
            from repro.trees import treemap

            for pool in (*POOLS.values(), treemap._POOL):
                pool.clear()
            obs.enable()
            obs.reset()
            try:
                drive(self.build(compiled), events, "event")
                snap = obs.snapshot()["counters"]
            finally:
                obs.disable()
                obs.reset()
            return {k: v for k, v in snap.items() if not k.startswith("codegen.")}

        compiled = counters(True)
        assert compiled == counters(False)
        # one shift, at most one add and one probe per event per side
        # touched, whatever the number of required sums
        assert compiled["rpai.shift_keys.pos"] + compiled["rpai.shift_keys.neg"] == len(events)
        assert compiled["rpai.add"] <= len(events)
        assert compiled["rpai.get_sum"] == 2 * len(events)
