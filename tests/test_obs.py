"""Tests for the opt-in observability layer (:mod:`repro.obs`).

Covers the sink itself (counters, distributions, snapshots and
per-window diffs), the guarded instrumentation in the index structures
and engines, the runner ``ops`` folding, the ``stats`` CLI subcommand
and the invariant self-check mode.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.__main__ import main
from repro.bench.runner import run_instrumented, run_timed
from repro.core.pai_map import PAIMap
from repro.core.rpai import RPAITree
from repro.engine.registry import build_engine
from repro.trees.treemap import TreeMap

from tests.conftest import random_bid_stream


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts and ends with the sink off and empty."""
    obs.disable()
    obs.disable_selfcheck()
    obs.reset()
    yield
    obs.disable()
    obs.disable_selfcheck()
    obs.reset()


class TestSink:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert not obs.selfcheck_enabled()

    def test_enable_disable(self):
        obs.enable()
        assert obs.enabled()
        obs.disable()
        assert not obs.enabled()

    def test_inc_and_snapshot(self):
        obs.SINK.inc("x")
        obs.SINK.inc("x", 4)
        snap = obs.snapshot()
        assert snap["counters"]["x"] == 5

    def test_observe_distribution(self):
        for value in (3, 1, 2):
            obs.SINK.observe("d", value)
        entry = obs.snapshot()["stats"]["d"]
        assert entry["count"] == 3
        assert entry["total"] == 6
        assert entry["min"] == 1
        assert entry["max"] == 3
        assert entry["mean"] == pytest.approx(2.0)

    def test_timer_records_seconds(self):
        with obs.SINK.timer("t"):
            pass
        entry = obs.snapshot()["stats"]["t"]
        assert entry["count"] == 1
        assert entry["min"] >= 0

    def test_reset_clears_everything(self):
        obs.SINK.inc("x")
        obs.SINK.observe("d", 1)
        obs.reset()
        snap = obs.snapshot()
        assert snap["counters"] == {}
        assert snap["stats"] == {}

    def test_snapshot_is_strict_json(self):
        obs.SINK.inc("x")
        obs.SINK.observe("d", 1.5)
        json.dumps(obs.snapshot(), allow_nan=False)


class TestDiffSnapshots:
    def test_counter_deltas(self):
        obs.SINK.inc("x", 3)
        before = obs.snapshot()
        obs.SINK.inc("x", 2)
        obs.SINK.inc("y")
        diff = obs.diff_snapshots(before, obs.snapshot())
        assert diff["counters"] == {"x": 2, "y": 1}

    def test_zero_deltas_dropped(self):
        obs.SINK.inc("x", 3)
        before = obs.snapshot()
        diff = obs.diff_snapshots(before, obs.snapshot())
        assert diff["counters"] == {}
        assert diff["stats"] == {}

    def test_stats_deltas(self):
        obs.SINK.observe("d", 10)
        before = obs.snapshot()
        obs.SINK.observe("d", 2)
        obs.SINK.observe("d", 4)
        diff = obs.diff_snapshots(before, obs.snapshot())
        entry = diff["stats"]["d"]
        assert entry["count"] == 2
        assert entry["total"] == 6
        assert entry["mean"] == pytest.approx(3.0)
        assert entry["running_max"] == 10


class TestDerivedMetrics:
    def test_zero_denominators_omitted(self):
        derived = obs.derived_metrics({"counters": {}, "stats": {}}, events=0)
        assert "rotations_per_update" not in derived
        assert "violations_per_negative_shift" not in derived
        json.dumps(derived, allow_nan=False)

    def test_ratios(self):
        snap = {
            "counters": {"rpai.rotations": 50, "engine.events": 100},
            "stats": {
                "rpai.neg_shift_violations": {
                    "count": 10, "total": 4, "min": 0, "max": 1, "mean": 0.4,
                }
            },
        }
        derived = obs.derived_metrics(snap)
        assert derived["rotations_per_update"] == pytest.approx(0.5)
        assert derived["violations_per_negative_shift"] == pytest.approx(0.4)
        assert derived["max_violations_single_shift"] == 1
        assert derived["events"] == 100

    def test_batched_updates_count_toward_rotations_per_update(self):
        """A batched run has no ``engine.events``; its updates are the
        ``engine.batch_size`` total."""
        snap = {
            "counters": {"rpai.rotations": 60, "engine.events": 20, "engine.batches": 2},
            "stats": {"engine.batch_size": {"count": 2, "total": 100, "mean": 50.0}},
        }
        derived = obs.derived_metrics(snap)
        assert derived["rotations_per_update"] == pytest.approx(0.5)


class TestStructureCounters:
    def test_rpai_counts_when_enabled(self):
        obs.enable()
        tree = RPAITree()
        for key in range(32):
            tree.add(key, 1)
        tree.get_sum(10)
        tree.shift_keys(5, 2)
        tree.shift_keys(40, -1)
        counters = obs.snapshot()["counters"]
        assert counters["rpai.add"] == 32
        assert counters["rpai.get_sum"] == 1
        assert counters["rpai.shift_keys.pos"] == 1
        assert counters["rpai.shift_keys.neg"] == 1
        assert counters["rpai.rotations"] > 0

    def test_rpai_silent_when_disabled(self):
        tree = RPAITree()
        for key in range(32):
            tree.add(key, 1)
        tree.shift_keys(5, 2)
        assert obs.snapshot()["counters"] == {}

    def test_treemap_and_paimap_counters(self):
        obs.enable()
        tm = TreeMap()
        pm = PAIMap()
        for key in range(8):
            tm.add(key, 1)
            pm.add(key, 1)
        assert obs.snapshot()["counters"]["treemap.add"] == 8
        tm.shift_keys(3, 5)
        pm.shift_keys(3, 5)
        pm.get_sum(100)
        counters = obs.snapshot()["counters"]
        # the O(n) shift is a single merge-rebuild pass: the add counter
        # stays at the 8 user-level calls, and the moved-entry count is
        # recorded as a distribution
        assert counters["treemap.add"] == 8
        assert counters["treemap.shift_keys"] == 1
        assert obs.snapshot()["stats"]["treemap.shift_moved"]["max"] == 4
        assert counters["paimap.shift_keys"] == 1
        assert counters["paimap.get_sum"] == 1

    def test_negative_shift_violation_bound(self):
        """Section 3.2.4: aggregate-usage negative shifts repair at most
        one BST violation each — the counter must agree."""
        obs.enable()
        engine = build_engine("VWAP", "rpai")
        engine.process(random_bid_stream(600, seed=11))
        snap = obs.snapshot()
        neg = snap["stats"].get("rpai.neg_shift_violations")
        assert neg is not None and neg["count"] > 0
        assert neg["max"] <= 1


class TestEngineCounters:
    def test_events_and_results_counted(self):
        obs.enable()
        stream = random_bid_stream(50, seed=7)
        engine = build_engine("VWAP", "rpai")
        engine.process(stream)
        counters = obs.snapshot()["counters"]
        assert counters["engine.events"] == 50
        assert counters["engine.results"] == 50
        assert "engine.batches" not in counters

    def test_batches_counted_once(self):
        obs.enable()
        stream = random_bid_stream(60, seed=8)
        engine = build_engine("VWAP", "rpai")
        engine.process(stream, batch_size=20)
        counters = obs.snapshot()["counters"]
        assert counters["engine.batches"] == 3
        batch_size = obs.snapshot()["stats"]["engine.batch_size"]
        assert batch_size["mean"] == pytest.approx(20.0)

    @pytest.mark.parametrize("query", ["VWAP", "EQ", "PSP", "NQ2", "SQ1", "Q17", "Q18"])
    @pytest.mark.parametrize("shape", ["batch", "frame"])
    def test_one_batch_counts_the_same_for_every_engine(self, query, shape):
        """Netting engines and apply-loop engines alike: a 64-event call
        is one batch of size 64 and one result, and no ``engine.events``."""
        from repro.storage.colbatch import ColumnarFrame
        from repro.workloads import TPCHConfig, generate_tpch

        if query in ("Q17", "Q18"):
            events = list(generate_tpch(TPCHConfig(scale_factor=0.01, seed=9)))[-64:]
        elif query == "EQ":
            from repro.storage.stream import Event

            events = [Event("R", {"A": i % 7, "B": i % 5}) for i in range(64)]
        else:
            events = list(random_bid_stream(64, seed=8))
        engine = build_engine(query, "rpai")
        obs.enable()
        if shape == "batch":
            engine.on_batch(events)
        else:
            engine.on_frame(ColumnarFrame.from_events(events))
        snap = obs.snapshot()
        counters = snap["counters"]
        assert counters["engine.batches"] == 1
        assert counters["engine.results"] == 1
        assert "engine.events" not in counters
        assert snap["stats"]["engine.batch_size"]["total"] == 64
        assert obs.derived_metrics(snap).get("rotations_per_update") is not None

    def test_subclassed_engine_counts_events_once(self):
        """Engines that inherit on_event (e.g. the Q18 DBToaster
        baseline, the plan-built engine under another name) must not
        double-count."""
        obs.enable()
        from repro.workloads import TPCHConfig, generate_tpch

        stream = generate_tpch(TPCHConfig(scale_factor=0.01, seed=9))
        engine = build_engine("Q18", "dbtoaster")
        engine.process(stream)
        assert obs.snapshot()["counters"]["engine.events"] == len(stream)


class TestRunnerOpsFolding:
    def test_run_timed_ops_none_when_disabled(self):
        run = run_timed(build_engine("VWAP", "rpai"), random_bid_stream(40, seed=3))
        assert run.ops is None

    def test_run_timed_ops_when_enabled(self):
        obs.enable()
        run = run_timed(build_engine("VWAP", "rpai"), random_bid_stream(40, seed=3))
        assert run.ops is not None
        assert run.ops["counters"]["engine.events"] == 40
        json.dumps(run.ops, allow_nan=False)

    def test_run_instrumented_per_window_ops(self):
        obs.enable()
        run = run_instrumented(
            build_engine("VWAP", "rpai"), random_bid_stream(60, seed=4), window=20
        )
        assert len(run.samples) == 3
        for sample in run.samples:
            assert sample.ops is not None
            assert sample.ops["counters"]["engine.events"] == 20

    def test_run_instrumented_ops_none_when_disabled(self):
        run = run_instrumented(
            build_engine("VWAP", "rpai"), random_bid_stream(30, seed=5), window=10
        )
        assert all(sample.ops is None for sample in run.samples)


class TestStatsCli:
    def test_stats_smoke(self, capsys):
        assert main(["stats", "VWAP", "--events", "200"]) == 0
        out = capsys.readouterr().out
        assert "rpai.rotations" in out
        assert "derived metric" in out
        assert not obs.enabled()  # CLI must restore the disabled state

    def test_stats_json(self, capsys):
        # Pin batch size 1: without the flag stats auto-tunes the batch
        # (tests/test_cli.py covers that), and the batched trigger
        # counts engine.batches rather than per-event engine.events.
        assert main(
            ["stats", "VWAP", "--events", "150", "--batch-size", "1", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["events"] == 150
        assert payload["batch_auto"] is False
        assert payload["ops"]["counters"]["engine.events"] == 150
        assert "derived" in payload

    def test_stats_selfcheck(self, capsys):
        assert main(["stats", "VWAP", "--events", "80", "--selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "selfcheck.validations" in out
        assert not obs.selfcheck_enabled()


class TestSelfcheckMode:
    def test_validate_passes_on_healthy_structures(self):
        tree = RPAITree()
        tm = TreeMap()
        pm = PAIMap()
        for key in range(16):
            tree.add(key, 1)
            tm.add(key, 1)
            pm.add(key, 1)
        tree.validate()
        tm.validate()
        pm.validate()

    def test_paimap_detects_total_drift(self):
        pm = PAIMap()
        pm.add(1, 5)
        pm._total += 3  # simulate a missed delta
        with pytest.raises(AssertionError):
            pm.validate()

    def test_paimap_detects_dead_zero_keys(self):
        pm = PAIMap(prune_zeros=True)
        pm.add(1, 5)
        pm._data[2] = 0  # violates the prune discipline
        with pytest.raises(AssertionError):
            pm.validate()

    def test_selfcheck_runs_per_mutation(self):
        obs.enable()
        obs.enable_selfcheck()
        tree = RPAITree()
        tree.put(1, 1.0)
        tree.add(2, 3.0)
        tree.shift_keys(0, 5)
        assert obs.snapshot()["counters"]["selfcheck.validations"] == 3
