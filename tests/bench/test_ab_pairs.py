"""Table arithmetic of ``benchmarks/ab_pairs.py`` on canned logs: the
before/after tables in EXPERIMENTS.md are its output, so a wrong median,
quartile, win count or verdict is a wrong claim."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location("ab_pairs", ROOT / "benchmarks" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)


def record(pair, side, workload, eps, *, ok=True, extra=None, failed=0):
    return {
        "ok": ok, "attempted": 100, "failed": failed, "pair": pair, "side": side,
        "workload": workload, "dir": side,
        "metrics": {"setup_s": 1.0, "refresh_rate_eps": eps, "update_p50_us": 1e6 / eps,
                    "peak_rss_mb": 80.0},
        "extra": extra or {},
    }


def write_log(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


class TestCompare:
    def test_medians_quartiles_and_delta(self):
        parent = [100.0, 102.0, 104.0, 106.0, 108.0]
        change = [200.0, 204.0, 208.0, 212.0, 216.0]
        numbers = ab_pairs.compare(parent, change, "higher", bound=0.25)
        assert numbers["parent"] == (101.0, 104.0, 107.0)
        assert numbers["change"] == (202.0, 208.0, 214.0)
        assert numbers["delta"] == pytest.approx(1.0)
        assert numbers["spread"] == pytest.approx(6.0 / 104.0)
        assert (numbers["won"], numbers["lost"], numbers["pairs"]) == (5, 0, 5)
        assert numbers["verdict"] == "within bound"

    def test_lower_is_better_flips_wins_and_the_verdict(self):
        parent = [10.0, 10.0, 10.0, 10.0]
        change = [14.0, 13.0, 9.0, 14.0]
        numbers = ab_pairs.compare(parent, change, "lower", bound=0.25)
        assert (numbers["won"], numbers["lost"]) == (1, 3)
        assert numbers["delta"] == pytest.approx(0.35)
        assert numbers["verdict"] == "worse than bound"
        assert ab_pairs.compare(parent, change, "higher", bound=0.25)["verdict"] == "within bound"

    def test_a_tie_counts_for_neither_side(self):
        numbers = ab_pairs.compare([5.0, 5.0, 5.0, 5.0], [5.0, 6.0, 5.0, 4.0], "higher")
        assert (numbers["won"], numbers["lost"], numbers["pairs"]) == (1, 1, 4)
        assert numbers["verdict"] is None

    def test_a_count_that_is_zero_at_the_parent_is_compared_as_is(self):
        # e.g. colbatch.fallback_rows: there is no ratio over a zero median
        numbers = ab_pairs.compare([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], "lower")
        assert (numbers["delta"], numbers["spread"], numbers["won"]) == (0.0, 0.0, 0)
        assert ab_pairs.compare([0.0, 0.0, 0.0], [2.0, 2.0, 2.0], "lower")["delta"] == 2.0

    def test_a_parent_noisier_than_the_bound_is_unresolved(self):
        parent = [50.0, 100.0, 150.0, 200.0]
        numbers = ab_pairs.compare(parent, parent, "higher", bound=0.25)
        assert numbers["spread"] > 0.25
        assert numbers["verdict"] == "unresolved"

    def test_a_single_pair_has_no_spread(self):
        numbers = ab_pairs.compare([3.0], [4.0], "higher", bound=0.25)
        assert numbers["parent"] == (3.0, 3.0, 3.0) and numbers["spread"] == 0


class TestLogs:
    def test_pairs_need_both_sides_and_the_metric(self):
        records = [
            record(0, "A", "w", 100.0, extra={"engine.eps.Q18": 1.0}),
            record(0, "B", "w", 300.0, extra={"engine.eps.Q18": 7.0}),
            record(1, "A", "w", 110.0),  # side B of pair 1 never completed
            record(2, "A", "w", 120.0),
            record(2, "B", "w", 360.0),  # no per-layer line on this pair
        ]
        assert ab_pairs.paired(records, "refresh_rate_eps") == ([100.0, 120.0], [300.0, 360.0])
        assert ab_pairs.paired(records, "engine.eps.Q18") == ([1.0], [7.0])

    def test_load_drops_failed_runs_and_counts_failed_checks(self, tmp_path):
        log = write_log(tmp_path / "log.jsonl", [
            record(0, "A", "w", 100.0),
            record(0, "B", "w", 200.0, ok=False, failed=2),
            {"ok": False, "stdout": "", "stderr": "boom", "pair": 1, "side": "A"},
        ])
        records, failed, total = ab_pairs.load(log)
        assert (len(records), failed, total) == (1, 3, 3)

    def test_e2e_prints_one_block_of_rows_per_workload(self, tmp_path, capsys):
        records = []
        for pair in range(4):
            records += [record(pair, "A", "tree_event", 100.0 + pair),
                        record(pair, "B", "tree_event", 100.0 + pair),
                        record(pair, "A", "hash_frame", 200.0 + pair),
                        record(pair, "B", "hash_frame", 800.0 + 4 * pair)]
        ab_pairs.table_e2e([write_log(tmp_path / "all.jsonl", records)])
        lines = capsys.readouterr().out.splitlines()
        rows = [line for line in lines if line.startswith("| ") and "`" in line]
        assert [line.split(" | ")[0] for line in rows] == (
            ["| tree_event"] * 4 + ["| hash_frame"] * 4
        )
        eps = next(line for line in rows if "hash_frame" in line and "refresh_rate_eps" in line)
        assert "+300.0%" in eps and "4/4 (0 lost)" in eps and eps.endswith("within bound |")
        tie = next(line for line in rows if "tree_event" in line and "refresh_rate_eps" in line)
        assert "+0.0%" in tie and "0/4 (0 lost)" in tie
        assert "16 runs, 16 completed and correct, 0 failed checks" in lines[-1]

    def test_a_label_names_a_log_without_the_workload_field(self, tmp_path, capsys):
        records = [record(p, s, None, 100.0) for p in range(2) for s in "AB"]
        for r in records:
            del r["workload"]
        ab_pairs.table_e2e(["old_run=" + write_log(tmp_path / "old.jsonl", records)])
        assert "| old_run | `setup_s` |" in capsys.readouterr().out

    def test_layer_filters_a_multi_workload_log(self, tmp_path, capsys):
        records = []
        for pair in range(3):
            for workload, scale in (("tree_event", 1.0), ("hash_frame", 10.0)):
                records += [
                    record(pair, "A", workload, 1.0, extra={"core.rpai.add_us": scale}),
                    record(pair, "B", workload, 1.0, extra={"core.rpai.add_us": scale * 2}),
                ]
        log = write_log(tmp_path / "layer.jsonl", records)
        ab_pairs.table_layer(log, ["core.rpai.add_us"], "hash_frame")
        out = capsys.readouterr().out
        assert "| `core.rpai.add_us` | 10.00 (10.00–10.00) | 20.00 (20.00–20.00) | +100.0% | 0/3 (3 lost)" in out
        ab_pairs.table_layer(log, ["engine.eps.Q18"])
        assert "| `engine.eps.Q18` | no pair has this metric" in capsys.readouterr().out


class TestSchedule:
    def test_sides_alternate_within_each_workload_of_a_pair(self):
        order = ab_pairs.schedule(2, ["tree_event", "hash_frame"])
        assert order == [
            (0, "tree_event", "A"), (0, "tree_event", "B"),
            (0, "hash_frame", "B"), (0, "hash_frame", "A"),
            (1, "tree_event", "B"), (1, "tree_event", "A"),
            (1, "hash_frame", "A"), (1, "hash_frame", "B"),
        ]

    def test_workload_argument(self):
        names = ab_pairs.workload_names()
        assert ab_pairs.parse_workloads("all") == names
        assert ab_pairs.parse_workloads("hash_frame,tree_event") == ["hash_frame", "tree_event"]
        with pytest.raises(SystemExit):
            ab_pairs.parse_workloads("hash_frame,nope")
