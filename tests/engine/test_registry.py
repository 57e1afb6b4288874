"""Registry and engine-interface contract tests."""

import pickle

import pytest

from repro.__main__ import _default_stream
from repro.core.interfaces import AggregateIndex
from repro.core.pai_map import PAIMap
from repro.core.rpai import RPAITree
from repro.engine.base import IncrementalEngine
from repro.engine.registry import STRATEGIES, available_strategies, build_engine
from repro.trees.treemap import TreeMap
from repro.workloads import query_names

from tests.conftest import random_bid_stream


class TestRegistry:
    def test_strategies_constant(self):
        assert STRATEGIES == ("recompute", "dbtoaster", "rpai")

    @pytest.mark.parametrize("name", query_names())
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_every_cell_instantiates(self, name, strategy):
        engine = build_engine(name, strategy)
        assert isinstance(engine, IncrementalEngine)

    @pytest.mark.parametrize("name", query_names())
    def test_engine_names_match_strategy(self, name):
        assert build_engine(name, "recompute").name == "recompute"
        assert build_engine(name, "dbtoaster").name == "dbtoaster"
        assert build_engine(name, "rpai").name == "rpai"

    def test_case_insensitive_query_names(self):
        assert build_engine("vwap", "rpai").name == "rpai"

    def test_available_strategies_full_matrix(self):
        for name in query_names():
            assert available_strategies(name) == STRATEGIES

    def test_unknown_rejections(self):
        with pytest.raises(KeyError):
            build_engine("UNKNOWN", "rpai")
        with pytest.raises(KeyError):
            build_engine("VWAP", "mystery")


def aggregate_indexes(root) -> list:
    """Every :class:`AggregateIndex` instance reachable from ``root``
    through attributes, slots and builtin containers."""
    found: list = []
    seen: set[int] = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (str, bytes, int, float, type)):
            continue
        seen.add(id(obj))
        if isinstance(obj, AggregateIndex):
            found.append(obj)  # its nodes are the index's own business
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        else:
            stack.extend(getattr(obj, "__dict__", {}).values())
            for cls in type(obj).__mro__:
                for slot in getattr(cls, "__slots__", ()):
                    if hasattr(obj, slot):
                        stack.append(getattr(obj, slot))
    return found


class TestTwoBackends:
    """The static backend rule, as an invariant of the registry: no rpai
    engine holds an aggregate index that is not one of the two runtime
    backends (or the plain ordered map used for bound maps), and every
    engine built from a plan runs the aggregate-index engine's compiled
    triggers (the general algorithm's on its free-map side) before and
    after a snapshot restore.  The hand-written classes have
    no emitter."""

    RUNTIME_INDEXES = (PAIMap, RPAITree, TreeMap)
    TRIGGER_MODES = {
        **dict.fromkeys(("EQ", "VWAP", "MST", "PSP", "Q17", "Q18", "SQ1", "SQ2"), "compiled"),
        **dict.fromkeys(("NQ1", "NQ2"), "interpreted"),
    }

    @pytest.mark.parametrize("name", query_names())
    def test_only_runtime_indexes_and_compiled_triggers(self, name):
        engine = build_engine(name, "rpai")
        for event in _default_stream(name, 500, seed=3):
            engine.on_event(event)
        for live in (engine, pickle.loads(pickle.dumps(engine))):
            # isinstance, not type(): a k-column tree is an RPAITree.
            for index in aggregate_indexes(live):
                assert isinstance(index, self.RUNTIME_INDEXES), type(index)
            assert live.trigger_mode == self.TRIGGER_MODES[name]

    def test_mst_holds_one_tree_per_side(self):
        """Algorithm 4's required sums (Σ price, count) are the columns
        of one index per relation, not one index each."""
        engine = build_engine("MST", "rpai")
        for event in _default_stream("MST", 500, seed=3):
            engine.on_event(event)
        for live in (engine, pickle.loads(pickle.dumps(engine))):
            trees = [i for i in aggregate_indexes(live) if isinstance(i, RPAITree)]
            assert len(trees) == 2
            assert [tree.columns for tree in trees] == [2, 2]


class TestEngineInterface:
    def test_process_returns_final_result(self):
        stream = random_bid_stream(60, seed=3)
        one = build_engine("VWAP", "rpai")
        two = build_engine("VWAP", "rpai")
        final = one.process(stream)
        trace = two.results_trace(stream)
        assert len(trace) == 60
        assert trace[-1] == final

    def test_result_stable_without_events(self):
        engine = build_engine("VWAP", "rpai")
        assert engine.result() == engine.result() == 0

    def test_fresh_engines_are_independent(self):
        stream = random_bid_stream(40, seed=4)
        first = build_engine("VWAP", "rpai")
        first.process(stream)
        second = build_engine("VWAP", "rpai")
        assert second.result() == 0
