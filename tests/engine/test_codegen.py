"""Differential tests for the trigger-codegen stage.

The contract (docs/rpai_internals.md §12): the aggregate-index engine
has one trigger path, the emitted one, installed however the engine is
built.  For every registry query it must be **bit-identical** to the
naive ``recompute`` engine at every event and every batch boundary,
under invariant self-checks, under sharding (serial and multiprocess),
through pickling into workers and under a seeded chaos plan; and it
must do exactly the algorithmic work the committed counter table
(``tests/perf/counters.json``) records.  Any divergence is a
correctness bug in the emitter, not noise.

SQ1 and SQ2 (Section 4.2's general algorithm) are the same engine on
its free-map side and ride the same differentials.
``codegen.set_codegen`` has no effect on any engine: the layered
benchmark's probes still call it, and
``test_general_algorithm_ignores_the_switch`` pins that.
"""

from __future__ import annotations

import functools
import pickle

import pytest

from repro import obs
from repro.engine.registry import build_engine, build_sharded_engine
from repro.query import codegen

from tests.engine.test_differential import CASES
from tests.engine.test_sharding import stream_for
from tests.perf.counters import load_table, measure

ALL_QUERIES = sorted(CASES)
# Every plan-built query runs the aggregate-index engine's emitted
# triggers, the general algorithm's on its free-map side; the
# hand-written trigger classes are their own single definition.
GENERAL = ("SQ1", "SQ2")
COMPILED = ("EQ", "MST", "PSP", "Q17", "Q18", "VWAP") + GENERAL
SWITCHED = COMPILED
HANDWRITTEN = tuple(name for name in ALL_QUERIES if name not in SWITCHED)
FLAVORS = ("event", "batch", "frame")


def build(name: str, *, compiled: bool = True):
    """The registry's ``rpai`` engine; ``compiled=False`` first flips
    the switch the layered benchmark's probes still flip, which has no
    effect."""
    codegen.set_codegen(compiled)
    return build_engine(name, "rpai")


@functools.cache
def naive_trace(name: str, sharding: bool = False) -> list:
    """The ``recompute`` engine's per-event trace of ``name``'s
    differential stream (``sharding``: of ``stream_for(name)``),
    computed once for every test that compares with it."""
    stream = stream_for(name) if sharding else CASES[name]()
    return build_engine(name, "recompute").results_trace(stream)


def at_batches(trace: list, batch_size: int) -> list:
    """A per-event trace read at every chunk boundary: what
    ``batched_results_trace`` must return."""
    return [trace[min(start + batch_size, len(trace)) - 1] for start in range(0, len(trace), batch_size)]


def mode(name: str) -> str:
    """The ``trigger_mode`` a registry engine reports."""
    return "compiled" if name in COMPILED else "interpreted"


class TestDifferential:
    """emitted trace == naive trace, bit for bit."""

    @pytest.mark.parametrize("name", SWITCHED)
    def test_per_event_trace_identical(self, name):
        engine = build(name)
        assert engine.trigger_mode == mode(name)
        assert engine.results_trace(CASES[name]()) == naive_trace(name)

    @pytest.mark.parametrize("name", SWITCHED)
    @pytest.mark.parametrize("batch_size", (3, 32))
    def test_batched_trace_identical(self, name, batch_size):
        actual = build(name).batched_results_trace(CASES[name](), batch_size)
        assert actual == at_batches(naive_trace(name), batch_size)

    @pytest.mark.parametrize("name", SWITCHED)
    def test_trace_identical_under_selfcheck(self, name):
        """Self-checks walk the structures after every mutation — a
        compiled trigger that skipped an index maintenance step or
        mutated state out of order trips them immediately."""
        stream = CASES[name]()
        reference = naive_trace(name)
        obs.enable_selfcheck()
        try:
            engine = build(name)
            assert engine.trigger_mode == mode(name)
            assert engine.results_trace(stream) == reference
        finally:
            obs.disable_selfcheck()

    @pytest.mark.parametrize("name", SWITCHED)
    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_counters_identical(self, name, flavor):
        """One instrumented pass in every trigger flavor: every counter
        outside the ``codegen.*`` family (batches, batch sizes,
        rotations, probes, shifts) matches the committed table exactly —
        a change to how a trigger is written may not change what
        algorithmic work happens, only how fast Python executes it."""
        counts = measure(name, flavor)
        assert counts == load_table()[f"{name}/{flavor}"]
        if flavor != "event":
            assert counts["engine.batches"] == -(-len(list(CASES[name]())) // 24)
            assert counts["engine.batch_size"] == counts["engine.batches"]


#: the ways an aggregate-index engine comes to exist
BUILDS = ("registry", "single-index", "constructor", "pickle", "shard-replica")


def built(name: str, way: str):
    """``name``'s aggregate-index engine, built ``way``."""
    from repro.engine.aggr_index import AggregateIndexEngine, build_single_index_engine
    from repro.query.planner import choose_backend, classify
    from repro.workloads import get_query

    query = get_query(name).ast
    if way == "registry":
        return build_engine(name, "rpai")
    if way == "single-index":
        return build_single_index_engine(query)
    if way == "constructor":
        plan = classify(query)
        return AggregateIndexEngine(plan, choose_backend(plan))
    if way == "pickle":
        return pickle.loads(pickle.dumps(build_engine(name, "rpai")))
    # a serial executor's replica (an unshardable query runs its one engine)
    executor = build_sharded_engine(name, "rpai", shards=2, plan_stream=stream_for(name))
    return executor.replicas[-1] if hasattr(executor, "replicas") else executor


class TestOnePath:
    @pytest.mark.parametrize("way", BUILDS)
    @pytest.mark.parametrize("name", COMPILED)
    def test_every_build_runs_the_emitted_triggers(self, name, way):
        """However the engine is built, it reports the class constant
        ``compiled`` (no instance shadow) and runs the emitted module."""
        engine = built(name, way)
        assert engine.trigger_mode == "compiled"
        assert "trigger_mode" not in vars(engine)
        for attr in ("apply", "apply_batch", "apply_frame", "warm_start", "result"):
            assert getattr(engine, attr).__code__.co_filename.startswith("<codegen:"), attr
        if engine.shard_mode:
            assert engine.shard_probe.__code__.co_filename.startswith("<codegen:")

    def test_the_interpreted_twin_is_gone(self):
        from repro.engine.aggr_index import AggregateIndexEngine

        for name in ("apply", "apply_batch", "_net", "_deltas", "_update_scalars", "warm_start"):
            assert name not in vars(AggregateIndexEngine), name


class TestCache:
    def test_second_engine_hits_the_cache(self):
        codegen.clear_cache()
        obs.enable()
        obs.reset()
        try:
            build("EQ", compiled=True)
            after_first = obs.snapshot()["counters"]
            build("EQ", compiled=True)
            after_second = obs.snapshot()["counters"]
        finally:
            obs.disable()
        assert after_first.get("codegen.cache_misses") == 1
        assert after_first.get("codegen.installed") == 1
        assert after_first.get("codegen.cache_hits") is None
        assert after_second.get("codegen.cache_hits") == 1
        assert after_second.get("codegen.cache_misses") == 1
        assert after_second.get("codegen.installed") == 2

    def test_engines_without_emitter_are_counted_not_crashed(self):
        # Classes outside the emitter table (e.g. the DBToaster
        # baselines) are counted as unsupported rather than crashing.
        engine = build_engine("MST", "dbtoaster")
        obs.enable()
        obs.reset()
        try:
            assert codegen.specialize(engine) is False
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
        assert engine.trigger_mode == "interpreted"
        assert counters.get("codegen.unsupported") == 1

    def test_handwritten_engines_have_no_emitter(self):
        """The hand-written trigger classes are their own single
        definition: ``specialize`` declines them and they keep their
        class's trigger mode."""
        codegen.clear_cache()
        obs.enable()
        obs.reset()
        try:
            for name in ALL_QUERIES:
                engine = build(name)
                assert engine.trigger_mode == mode(name), name
                assert "trigger_mode" not in vars(engine)
                if name not in COMPILED:
                    assert codegen.specialize(engine) is False
                if name in HANDWRITTEN:
                    assert codegen.generated_source(engine) is None
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
        # each called directly; the engines with an emitter install as built
        assert counters.get("codegen.unsupported") == len(HANDWRITTEN)
        assert counters.get("codegen.installed") == len(COMPILED)

    @pytest.mark.parametrize("name", COMPILED)
    def test_general_algorithm_ignores_the_switch(self, name):
        """One definition: the same object layout and the same emitted
        module under ``set_codegen(True)`` and ``set_codegen(False)``,
        the general algorithm's free-map side included."""
        on, off = build(name, compiled=True), build(name, compiled=False)
        assert sorted(vars(on)) == sorted(vars(off))
        source = codegen.generated_source(on)
        assert source == codegen.generated_source(off)
        assert off.trigger_mode == "compiled"
        assert "def apply(" in source and "def result(" in source

    def test_generated_source_roundtrip(self):
        engine = build("VWAP")
        source = codegen.generated_source(engine)
        assert source is not None
        assert "def apply(" in source and "def apply_batch(" in source
        assert "def result(" in source and "def on_" not in source
        assert engine.apply.__code__.co_filename.startswith("<codegen:")


def test_traceback_shows_the_generated_trigger_line():
    """Compiled source is registered with ``linecache`` under a name of
    its own: a row missing a column fails *inside* the generated
    ``apply``, and the traceback quotes the line that read it."""
    import traceback

    from repro.storage.stream import Event

    engine = build("VWAP")
    build("EQ")  # a second source must not shadow the first
    with pytest.raises(KeyError):
        try:
            engine.on_event(Event("bids", {"price": 3}, +1))
        except KeyError:
            trace = traceback.format_exc()
            raise
    assert 'File "<codegen:' in trace and "in apply" in trace
    assert "_row['volume']" in trace


class TestGroupedCompiled:
    """The grouped fan-out fragment: per-group dispatch, generated
    frame netting, sharding."""

    @staticmethod
    def _stream(count=160, seed=33):
        from tests.conftest import random_bid_stream

        return random_bid_stream(
            count, price_levels=25, volume_max=9,
            delete_probability=0.3, seed=seed,
        )

    @staticmethod
    def _query():
        from repro.query.parser import parse_query
        from tests.engine.test_sharding import GROUPED_VWAP

        return parse_query(GROUPED_VWAP)

    def _build(self):
        from repro.engine.aggr_index import build_single_index_engine

        return build_single_index_engine(self._query())

    @staticmethod
    @functools.cache
    def _naive_trace(count: int, seed: int) -> list:
        """The naive trace of ``_stream(count, seed)``, computed once."""
        from repro.engine.naive import NaiveEngine
        from repro.storage.schema import WORKLOAD_SCHEMAS

        query, stream = TestGroupedCompiled._query(), TestGroupedCompiled._stream(count, seed)
        return NaiveEngine(query, WORKLOAD_SCHEMAS).results_trace(stream)

    def test_compiled_trace_matches_interpreted(self):
        """The emitted grouped trigger against the naive engine (the
        interpreted reference this test was named for is gone)."""
        engine = self._build()
        assert engine.trigger_mode == "compiled"
        assert engine.results_trace(self._stream()) == self._naive_trace(160, 33)

    def test_generated_frame_path_matches_event_path(self):
        from repro.storage.colbatch import ColumnarFrame

        events = list(self._stream(count=192, seed=57))
        reference = self._build()
        engine = self._build()
        source = codegen.generated_source(engine)
        assert "def apply_frame(" in source
        for start in range(0, len(events), 24):
            chunk = events[start : start + 24]
            expected = reference.on_batch(chunk)
            assert engine.on_frame(ColumnarFrame.from_events(chunk)) == expected

    @pytest.mark.parametrize("shards", (1, 2, 3))
    def test_compiled_sharded_trace_identical(self, shards):
        from repro.engine.sharding import ShardedExecutor, plan_router

        stream = self._stream(count=260, seed=29)
        reference = self._naive_trace(260, 29)
        template = self._build()
        router = plan_router(template, shards, stream)
        if router is None:
            engine = template
        else:
            replicas = [self._build() for _ in range(router.shards)]
            engine = ShardedExecutor(template, replicas, router)
        assert engine.results_trace(stream) == reference, shards


class TestPickleAndSharding:
    @pytest.mark.parametrize("name", ALL_QUERIES)
    def test_pickle_roundtrip_reinstalls_compiled_trigger(self, name):
        events = list(CASES[name]())
        half = len(events) // 2
        engine = build(name)
        for event in events[:half]:
            engine.on_event(event)
        restored = pickle.loads(pickle.dumps(engine))
        assert restored.trigger_mode == engine.trigger_mode == mode(name)
        assert codegen.generated_source(restored) == codegen.generated_source(engine)
        assert [restored.on_event(event) for event in events[half:]] == naive_trace(name)[half:]

    @pytest.mark.parametrize("name", ("EQ", "VWAP"))
    @pytest.mark.parametrize("shards", (1, 2, 3))
    def test_serial_sharded_trace_identical(self, name, shards):
        stream = stream_for(name)
        reference = naive_trace(name, sharding=True)
        engine = build_sharded_engine(
            name, "rpai", shards=shards, plan_stream=stream
        )
        assert engine.results_trace(stream) == reference, (name, shards)

    def test_multiprocess_workers_run_compiled_triggers(self):
        """K=2 pool: the template engine is pickled into the workers,
        where the engine re-installs its emitted triggers; the batched
        trace must equal the naive unsharded run."""
        stream = stream_for("EQ")
        reference = at_batches(naive_trace("EQ", sharding=True), 32)
        engine = build_sharded_engine(
            "EQ", "rpai", shards=2, workers=2, plan_stream=stream
        )
        try:
            assert engine.batched_results_trace(stream, 32) == reference
        finally:
            engine.close()

    def test_chaos_run_with_compiled_triggers_matches_clean(self, tmp_path):
        """One seeded chaos plan (worker kills, dropped/duplicated
        messages, corrupt snapshots, junk events) through the
        supervised pool: WAL recovery restores engines via pickle, each
        re-installs its emitted triggers, and the final result still
        equals a clean naive run."""
        from tests.engine.test_faults import run_chaos

        expected = naive_trace("EQ", sharding=True)[-1]
        result, counters, _ = run_chaos("EQ", 2, seed=77, tmp_path=tmp_path)
        assert result == expected
        assert counters.get("faults.bad_events", 0) >= 1


class TestCLI:
    def test_codegen_subcommand_prints_source(self, capsys):
        from repro.__main__ import main

        assert main(["codegen", "VWAP"]) == 0
        out = capsys.readouterr().out
        assert "trigger  : compiled" in out
        assert "def apply(" in out and "def result(" in out

    def test_codegen_subcommand_conjunctive_query(self, capsys):
        from repro.__main__ import main

        assert main(["codegen", "MST"]) == 0
        out = capsys.readouterr().out
        assert "trigger  : compiled" in out
        assert "def apply(" in out

    def test_codegen_support_table(self, capsys):
        from repro.__main__ import main

        assert main(["codegen"]) == 0
        rows = {
            line.split()[0]: line for line in capsys.readouterr().out.splitlines()
            if line.split() and line.split()[0] in ALL_QUERIES
        }
        assert set(rows) == set(ALL_QUERIES)
        for name in COMPILED:
            assert "compiled" in rows[name]
        for name in GENERAL:
            assert "AggregateIndexEngine" in rows[name]
        for name in HANDWRITTEN:
            assert "interpreted" in rows[name]
            assert "hand-written trigger (no emitter)" in rows[name]

    def test_codegen_subcommand_prints_the_general_algorithms_loops(self, capsys):
        from repro.__main__ import main

        assert main(["codegen", "SQ1", "--flavor", "frame"]) == 0
        out = capsys.readouterr().out
        assert "trigger  : compiled" in out
        assert "def apply_frame(self, frame):" in out and "def result(self):" in out
        # Algorithm 3 lines 14–17, θ inlined, in the answer
        assert "for _g in _fs0_1:" in out and "if _key <= _g:" in out

    def test_codegen_subcommand_handwritten_query(self, capsys):
        from repro.__main__ import main

        assert main(["codegen", "NQ1"]) == 0
        out = capsys.readouterr().out
        assert "trigger  : interpreted" in out
        assert "hand-written trigger (no emitter)" in out

    def test_codegen_flavor_dumps_frame_source(self, capsys):
        from repro.__main__ import main

        assert main(["codegen", "VWAP", "--flavor", "frame"]) == 0
        out = capsys.readouterr().out
        assert "def apply_frame(self, frame):" in out
        assert "def result(self):" in out
        assert "def apply(" not in out and "def apply_batch(" not in out

    def test_run_reports_trigger_mode(self, capsys):
        from repro.__main__ import main

        assert main(["run", "EQ", "--events", "120"]) == 0
        assert "trigger  : compiled" in capsys.readouterr().out

    def test_stats_reports_trigger_mode_and_codegen_counters(self, capsys):
        import json

        from repro.__main__ import main

        assert main(["stats", "EQ", "--events", "120", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trigger_mode"] == "compiled"
        counters = payload["ops"]["counters"]
        assert counters.get("codegen.installed", 0) >= 1
