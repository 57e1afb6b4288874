"""Differential tests for the trigger-codegen stage.

The contract (docs/rpai_internals.md §12): a compiled trigger is a
*constant-factor* specialization — for every registry query the
compiled engine must be **bit-identical** to the interpreted one at
every event, every batch boundary, under invariant self-checks, under
sharding (serial and multiprocess), through pickling into workers,
and under a seeded chaos plan.  Any divergence,
including in the obs counters outside the ``codegen.*`` family itself,
is a correctness bug in the emitter, not noise.

The general algorithm (SQ1, SQ2) has one definition and no emitter: it
rides the same differentials to pin that the codegen switch has no
meaning for it — same traces, same counters, same generated loops
either way.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro import obs
from repro.engine.registry import build_engine, build_sharded_engine
from repro.query import codegen

from tests.engine.test_differential import CASES
from tests.engine.test_sharding import stream_for

ALL_QUERIES = sorted(CASES)
# The aggregate-index engine has an emitter; the general algorithm
# generates its two loops itself, whatever the switch says; the
# hand-written trigger classes are their own single definition.
COMPILED = ("EQ", "MST", "PSP", "Q17", "Q18", "VWAP")
GENERAL = ("SQ1", "SQ2")
SWITCHED = COMPILED + GENERAL
HANDWRITTEN = tuple(name for name in ALL_QUERIES if name not in SWITCHED)
FLAVORS = ("event", "batch", "frame")


def drive(engine, events: list, flavor: str, chunk: int = 24):
    """Feed ``events`` the ``flavor`` way; returns the final result."""
    from repro.storage.colbatch import ColumnarFrame

    result = engine.result()
    if flavor == "event":
        for event in events:
            result = engine.on_event(event)
        return result
    for start in range(0, len(events), chunk):
        piece = events[start : start + chunk]
        if flavor == "batch":
            result = engine.on_batch(piece)
        else:
            result = engine.on_frame(ColumnarFrame.from_events(piece))
    return result


@pytest.fixture(autouse=True)
def _restore_codegen_state():
    """Codegen toggles are process-global (module flag + env var for
    spawned workers); never leak a test's setting into the suite."""
    prior = codegen.codegen_enabled()
    prior_env = os.environ.get("REPRO_CODEGEN")
    yield
    codegen.set_codegen(prior)
    if prior_env is None:
        os.environ.pop("REPRO_CODEGEN", None)
    else:
        os.environ["REPRO_CODEGEN"] = prior_env


def build(name: str, *, compiled: bool):
    codegen.set_codegen(compiled)
    return build_engine(name, "rpai")


def mode(name: str) -> str:
    """The ``trigger_mode`` a registry engine reports with codegen on."""
    if name in GENERAL:
        return "generated-loops"
    return "compiled" if name in COMPILED else "interpreted"


class TestDifferential:
    """compiled trace == interpreted trace, bit for bit."""

    @pytest.mark.parametrize("name", SWITCHED)
    def test_per_event_trace_identical(self, name):
        stream = CASES[name]()
        reference = build(name, compiled=False).results_trace(stream)
        engine = build(name, compiled=True)
        assert engine.trigger_mode == mode(name)
        assert engine.results_trace(stream) == reference

    @pytest.mark.parametrize("name", SWITCHED)
    @pytest.mark.parametrize("batch_size", (3, 32))
    def test_batched_trace_identical(self, name, batch_size):
        stream = CASES[name]()
        reference = build(name, compiled=False).batched_results_trace(
            stream, batch_size
        )
        actual = build(name, compiled=True).batched_results_trace(
            stream, batch_size
        )
        assert actual == reference

    @pytest.mark.parametrize("name", SWITCHED)
    def test_trace_identical_under_selfcheck(self, name):
        """Self-checks walk the structures after every mutation — a
        compiled trigger that skipped an index maintenance step or
        mutated state out of order trips them immediately."""
        stream = CASES[name]()
        reference = build(name, compiled=False).results_trace(stream)
        obs.enable_selfcheck()
        try:
            engine = build(name, compiled=True)
            assert engine.trigger_mode == mode(name)
            assert engine.results_trace(stream) == reference
        finally:
            obs.disable_selfcheck()

    @pytest.mark.parametrize("name", SWITCHED)
    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_counters_identical(self, name, flavor):
        """One instrumented pass per mode, in every trigger flavor:
        every counter outside the ``codegen.*`` family (batches, batch
        sizes, rotations, probes, shifts) must match exactly — the
        specialization may not change what algorithmic work happens,
        only how fast Python executes it."""
        events = list(CASES[name]())

        def drain_node_pools():
            # The tree node freelists are process-global: whatever the
            # first pass leaves pooled would turn into hits for the
            # second, skewing the freelist counters.  Equalize.
            from repro.core._rpai_kernel import POOLS
            from repro.trees import treemap

            for pool in (treemap._POOL, *POOLS.values()):
                pool.clear()

        def counters(compiled: bool) -> dict:
            drain_node_pools()
            obs.enable()
            obs.reset()
            try:
                drive(build(name, compiled=compiled), events, flavor)
                snap = obs.snapshot()
            finally:
                obs.disable()
            kept = {
                key: value
                for key, value in snap["counters"].items()
                if not key.startswith("codegen.")
            }
            kept.update(
                (key, stat["count"])
                for key, stat in snap["stats"].items()
                if key.startswith("engine.")
            )
            return kept

        compiled = counters(True)
        assert compiled == counters(False)
        if flavor != "event":
            assert compiled["engine.batches"] == -(-len(events) // 24)
            assert compiled["engine.batch_size"] == compiled["engine.batches"]


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

    def test_negative_cache_sentinel_counts_unsupported(self):
        codegen.clear_cache()
        engine = build("EQ", compiled=True)
        key = engine._codegen_key
        codegen.uninstall(engine)
        codegen._CACHE[key] = codegen._UNSUPPORTED
        try:
            obs.enable()
            obs.reset()
            try:
                assert codegen.specialize(engine) is False
                counters = obs.snapshot()["counters"]
            finally:
                obs.disable()
            assert engine.trigger_mode == "interpreted"
            assert counters.get("codegen.unsupported") == 1
        finally:
            codegen.clear_cache()

    def test_engines_without_emitter_are_counted_not_crashed(self):
        # Classes outside the emitter table (e.g. the DBToaster
        # baselines) are counted as unsupported rather than crashing.
        codegen.set_codegen(True)
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
        definition, and so is the general algorithm: ``specialize``
        declines them, they keep their class's trigger mode and carry no
        codegen bookkeeping."""
        codegen.clear_cache()
        obs.enable()
        obs.reset()
        try:
            for name in ALL_QUERIES:
                engine = build(name, compiled=True)
                assert engine.trigger_mode == mode(name), name
                if name not in COMPILED:
                    assert codegen.specialize(engine) is False
                    assert "trigger_mode" not in vars(engine)
                    assert not hasattr(engine, "_codegen_key")
                if name in HANDWRITTEN:
                    assert codegen.generated_source(engine) is None
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
        # once from the registry's maybe_specialize, once called directly
        assert counters.get("codegen.unsupported") == 2 * len(HANDWRITTEN + GENERAL)
        assert counters.get("codegen.installed") == len(COMPILED)

    @pytest.mark.parametrize("name", GENERAL)
    def test_general_algorithm_ignores_the_switch(self, name):
        """One definition: the same object layout and the same generated
        loops under ``set_codegen(True)`` and ``set_codegen(False)``."""
        on, off = build(name, compiled=True), build(name, compiled=False)
        assert sorted(vars(on)) == sorted(vars(off))
        source = codegen.generated_source(on)
        assert source == codegen.generated_source(off)
        assert "def _recompute(" in source and "def apply_delta(" in source
        assert "def apply(" not in source

    def test_generated_source_roundtrip(self):
        engine = build("VWAP", compiled=True)
        source = codegen.generated_source(engine)
        assert source is not None
        assert "def apply(" in source and "def apply_batch(" in source
        assert "def result(" in source and "def on_" not in source
        assert codegen.generated_source(build("VWAP", compiled=False)) is None


def test_traceback_shows_the_generated_trigger_line():
    """Compiled source is registered with ``linecache`` under a name of
    its own: a row missing a column fails *inside* the generated
    ``apply``, and the traceback quotes the line that read it."""
    import traceback

    from repro.storage.stream import Event

    engine = build("VWAP", compiled=True)
    build("EQ", compiled=True)  # a second source must not shadow the first
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

    def _stream(self, count=160, seed=33):
        from tests.conftest import random_bid_stream

        return random_bid_stream(
            count, price_levels=25, volume_max=9,
            delete_probability=0.3, seed=seed,
        )

    def _build(self):
        from repro.engine.aggr_index import build_single_index_engine
        from repro.query.parser import parse_query
        from tests.engine.test_sharding import GROUPED_VWAP

        return build_single_index_engine(parse_query(GROUPED_VWAP))

    def test_compiled_trace_matches_interpreted(self):
        stream = self._stream()
        reference = self._build().results_trace(stream)
        engine = self._build()
        codegen.set_codegen(True)
        assert codegen.specialize(engine)
        assert engine.trigger_mode == "compiled"
        assert engine.results_trace(stream) == reference

    def test_generated_frame_path_matches_event_path(self):
        from repro.storage.colbatch import ColumnarFrame

        events = list(self._stream(count=192, seed=57))
        reference = self._build()
        engine = self._build()
        codegen.set_codegen(True)
        assert codegen.specialize(engine)
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
        reference = self._build().results_trace(stream)
        template = self._build()
        codegen.set_codegen(True)
        router = plan_router(template, shards, stream)
        if router is None:
            engine = template
            assert codegen.specialize(engine)
        else:
            replicas = []
            for _ in range(router.shards):
                replica = self._build()
                assert codegen.specialize(replica)
                replicas.append(replica)
            engine = ShardedExecutor(template, replicas, router)
        assert engine.results_trace(stream) == reference, shards


class TestPickleAndSharding:
    @pytest.mark.parametrize("name", ALL_QUERIES)
    def test_pickle_roundtrip_reinstalls_compiled_trigger(self, name):
        events = list(CASES[name]())
        half = len(events) // 2
        reference = build(name, compiled=False)
        # Build the compiled engine second: build() leaves the module
        # flag set, and the restore path must see codegen enabled.
        engine = build(name, compiled=True)
        for event in events[:half]:
            engine.on_event(event)
            reference.on_event(event)
        restored = pickle.loads(pickle.dumps(engine))
        assert restored.trigger_mode == engine.trigger_mode == mode(name)
        assert codegen.generated_source(restored) == codegen.generated_source(engine)
        for event in events[half:]:
            assert restored.on_event(event) == reference.on_event(event)

    def test_pickle_under_no_codegen_stays_interpreted(self):
        engine = build("EQ", compiled=False)
        assert pickle.loads(pickle.dumps(engine)).trigger_mode == "interpreted"

    @pytest.mark.parametrize("name", ("EQ", "VWAP"))
    @pytest.mark.parametrize("shards", (1, 2, 3))
    def test_serial_sharded_trace_identical(self, name, shards):
        stream = stream_for(name)
        codegen.set_codegen(False)
        reference = build_engine(name, "rpai").results_trace(stream)
        codegen.set_codegen(True)
        engine = build_sharded_engine(
            name, "rpai", shards=shards, plan_stream=stream
        )
        assert engine.results_trace(stream) == reference, (name, shards)

    def test_multiprocess_workers_run_compiled_triggers(self):
        """K=2 pool: the template engine is pickled into the workers,
        where codegen re-installs; the batched trace must equal the
        interpreted unsharded run."""
        stream = stream_for("EQ")
        codegen.set_codegen(False)
        reference = build_engine("EQ", "rpai").batched_results_trace(stream, 32)
        codegen.set_codegen(True)
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
        supervised pool with codegen on: WAL recovery restores engines
        via pickle, codegen re-installs, and the final result still
        equals a clean interpreted run."""
        from tests.engine.test_faults import clean_result, run_chaos

        codegen.set_codegen(False)
        expected = clean_result("EQ", stream_for("EQ"))
        codegen.set_codegen(True)
        os.environ["REPRO_CODEGEN"] = "1"
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
            assert "general algorithm — loops generated at construction" in rows[name]
        for name in HANDWRITTEN:
            assert "interpreted" in rows[name]
            assert "hand-written trigger (no emitter)" in rows[name]

    def test_codegen_subcommand_prints_the_general_algorithms_loops(self, capsys):
        from repro.__main__ import main

        assert main(["codegen", "SQ1"]) == 0
        out = capsys.readouterr().out
        assert "trigger  : generated-loops" in out
        assert "def _recompute(" in out and "def apply_delta(" in out

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

    def test_run_reports_trigger_mode_and_no_codegen_flag(self, capsys):
        from repro.__main__ import main

        assert main(["run", "EQ", "--events", "120"]) == 0
        assert "trigger  : compiled" in capsys.readouterr().out
        assert main(["run", "EQ", "--events", "120", "--no-codegen"]) == 0
        assert "trigger  : interpreted" in capsys.readouterr().out

    def test_stats_reports_trigger_mode_and_codegen_counters(self, capsys):
        import json

        from repro.__main__ import main

        assert main(["stats", "EQ", "--events", "120", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trigger_mode"] == "compiled"
        counters = payload["ops"]["counters"]
        assert counters.get("codegen.installed", 0) >= 1
