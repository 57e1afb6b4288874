"""Deterministic pytest-benchmark micro-suite for the index hot paths.

Fixed seeds and sizes so successive runs measure the same operation
sequence — these are trend trackers (``pytest --benchmark-only`` /
``--benchmark-compare``), not correctness tests, but they run in the
tier-1 suite (with tiny round counts) so the hot paths cannot silently
stop importing.  The macro regression gate is the layered benchmark
(``BENCHMARK.json``); this suite localizes *which* primitive moved when
that gate trips.
"""

import random

import pytest

from repro.core.rpai import RPAITree
from repro.trees.fenwick import FenwickTree
from repro.trees.rpai_btree import RPAIBTree
from repro.trees.segment_tree import SegmentTree
from repro.trees.treemap import TreeMap

pytest.importorskip("pytest_benchmark")

N = 1_000
SEED = 4242

# Dense keys so every backend (including Fenwick) runs the same stream.
_RNG = random.Random(SEED)
KEYS = [_RNG.randrange(0, 2_048) for _ in range(N)]
DELTAS = [_RNG.randint(-5, 5) or 1 for _ in range(N)]
PROBES = [_RNG.randrange(0, 2_200) for _ in range(N)]
SHIFT_PIVOTS = [_RNG.randrange(0, 2_048) for _ in range(100)]

BACKENDS = {
    "rpai": lambda: RPAITree(prune_zeros=True),
    "rpai_btree": lambda: RPAIBTree(prune_zeros=True),
    "treemap": lambda: TreeMap(prune_zeros=True),
    "fenwick": lambda: FenwickTree(4_096, prune_zeros=True),
    # Headroom over max(KEYS) + shift amplitude so the dense universe
    # never doubles mid-measurement.
    "segment": lambda: SegmentTree(4_096, prune_zeros=True),
}


def _loaded(make):
    index = make()
    for key, delta in zip(KEYS, DELTAS):
        index.add(key, delta)
    return index


def _bench(benchmark, fn, *, setup=None):
    """Tiny fixed-shape pedantic run: deterministic work, no calibration."""
    if setup is not None:
        benchmark.pedantic(fn, setup=setup, rounds=3, iterations=1)
    else:
        benchmark.pedantic(fn, rounds=3, iterations=1)


@pytest.fixture(params=sorted(BACKENDS), ids=str)
def make(request):
    return BACKENDS[request.param]


class TestMicroOps:
    def test_put(self, benchmark, make):
        def run():
            index = make()
            for key, delta in zip(KEYS, DELTAS):
                index.put(key, delta)
            return index

        _bench(benchmark, run)

    def test_add(self, benchmark, make):
        def run():
            return _loaded(make)

        _bench(benchmark, run)

    def test_add_existing_keys_fast_path(self, benchmark, make):
        """Re-adding to live keys: the in-place no-rebalance fast path."""
        index = _loaded(make)
        live = [k for k, _ in index.items()]
        if not live:
            pytest.skip("workload cancelled out")
        hits = [live[i % len(live)] for i in range(N)]

        def run():
            for key in hits:
                index.add(key, 2)
            for key in hits:
                index.add(key, -2)

        _bench(benchmark, run)

    def test_get_sum(self, benchmark, make):
        index = _loaded(make)

        def run():
            total = 0.0
            for probe in PROBES:
                total += index.get_sum(probe)
            return total

        _bench(benchmark, run)

    def test_shift_keys(self, benchmark, make):
        """Alternating +1/-1 shifts (net zero, keys stay in-universe)."""

        def setup():
            return (_loaded(make),), {}

        def run(index):
            for pivot in SHIFT_PIVOTS:
                index.shift_keys(pivot, 1)
                index.shift_keys(pivot, -1)

        _bench(benchmark, run, setup=setup)


class TestTriggerModes:
    """Emitted-trigger micro-benchmarks.

    One cell per query: the same fixed event stream driven through
    ``on_event``.  Localizes which *query's* generated trigger moved,
    the same way the index cells above localize structure regressions.
    The aggregate-index engine has one trigger path: the
    ``interpreted`` cells build under ``set_codegen(False)`` (the
    switch the layered benchmark's probes still flip), which has no
    effect, so they time the same code as the ``compiled`` ones.
    """

    EVENTS = 300
    # EQ/VWAP/MST cover the aggregate-index emitter's point-move and
    # range-shift fragments (one side and two); the grouped fan-out
    # fragment has its own cell below — grouped queries are built
    # directly, not through the registry.  The free-map side's cells
    # (SQ1, SQ2) are TestGeneralAlgorithm's.
    QUERIES = ("EQ", "VWAP", "MST")

    @staticmethod
    def _stream(query):
        from repro.__main__ import _default_stream

        return list(_default_stream(query, TestTriggerModes.EVENTS, SEED))

    @staticmethod
    def _engine(query, compiled):
        from repro.engine.registry import build_engine
        from repro.query import codegen

        codegen.set_codegen(compiled)
        return build_engine(query, "rpai")

    @pytest.fixture(params=QUERIES, ids=str)
    def query(self, request):
        return request.param

    @pytest.fixture(params=[False, True], ids=["interpreted", "compiled"])
    def compiled(self, request):
        return request.param

    def test_on_event(self, benchmark, query, compiled):
        events = self._stream(query)

        def setup():
            return (self._engine(query, compiled),), {}

        def run(engine):
            for event in events:
                engine.on_event(event)
            return engine.result()

        _bench(benchmark, run, setup=setup)

    def test_grouped_on_event(self, benchmark, compiled):
        """The grouped fan-out fragment's cell: a GROUP BY query has no
        registry entry, so the engine is built straight from its SQL."""
        from repro.engine.aggr_index import build_single_index_engine
        from repro.query import codegen
        from repro.query.parser import parse_query
        from tests.conftest import random_bid_stream
        from tests.engine.test_sharding import GROUPED_VWAP

        events = list(
            random_bid_stream(
                count=self.EVENTS,
                seed=SEED,
                price_levels=25,
                volume_max=9,
                delete_probability=0.3,
            )
        )

        def setup():
            engine = build_single_index_engine(parse_query(GROUPED_VWAP))
            if compiled:  # re-installed; ``interpreted``: as built, the same path
                assert codegen.specialize(engine)
            return (engine,), {}

        def run(engine):
            for event in events:
                engine.on_event(event)
            return engine.result()

        _bench(benchmark, run, setup=setup)

    def test_trigger_modes_agree_on_the_workload(self):
        """Same discipline as the backend check below: both cells must
        run the emitted triggers and do identical logical work."""
        for query in self.QUERIES:
            events = self._stream(query)
            results = {}
            for compiled in (False, True):
                engine = self._engine(query, compiled)
                assert engine.trigger_mode == "compiled", query
                for event in events:
                    engine.on_event(event)
                results[compiled] = repr(engine.result())
            assert results[True] == results[False], query


class TestGeneralAlgorithm:
    """The general algorithm's cells (§4.2: O(live groups) per update by
    design): SQ1/SQ2 per event and in 64-event batches, on the
    aggregate-index engine's free-map side."""

    EVENTS = 300

    @pytest.mark.parametrize("batch", [1, 64], ids=["event", "batch64"])
    @pytest.mark.parametrize("query", ["SQ1", "SQ2"])
    def test_refresh(self, benchmark, query, batch):
        from repro.__main__ import _default_stream
        from repro.engine.registry import build_engine

        events = list(_default_stream(query, self.EVENTS, SEED))
        chunks = [events[i : i + batch] for i in range(0, len(events), batch)]

        def setup():
            return (build_engine(query, "rpai"),), {}

        def run(engine):
            if batch == 1:
                for event in events:
                    engine.on_event(event)
            else:
                for chunk in chunks:
                    engine.on_batch(chunk)
            return engine.result()

        _bench(benchmark, run, setup=setup)


def test_backends_agree_on_the_workload():
    """The micro-suite streams must produce identical state everywhere —
    otherwise the benchmarks time different work."""
    results = {name: sorted(_loaded(make).items()) for name, make in BACKENDS.items()}
    reference = results.pop("rpai")
    for name, items in results.items():
        assert items == reference, name
