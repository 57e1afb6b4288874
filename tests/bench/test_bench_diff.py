"""Tests for the benchmark-report diffing gate (repro.bench.diffing)."""

import json

import pytest

from repro.bench.diffing import Check, compare_reports, format_diff, load_report


def make_report(
    *,
    scale=1.0,
    speedups=(1.0, 2.0, 4.0),
    events_per_second=(1000.0, 2000.0, 4000.0),
    warm_speedup=5.0,
    bound_holds=True,
    workloads=("EQ",),
):
    batch_sizes = [1, 10, 100][: len(speedups)]
    report = {
        "scale": scale,
        "batch_sizes": batch_sizes,
        "workloads": {},
        "warm_start": {},
        "ops": {},
    }
    for name in workloads:
        report["workloads"][name] = {
            "runs": [
                {
                    "batch_size": b,
                    "events_per_second": eps,
                    "speedup_vs_per_event": s,
                }
                for b, eps, s in zip(batch_sizes, events_per_second, speedups)
            ]
        }
        report["warm_start"][name] = {"speedup": warm_speedup}
        report["ops"][name] = {"violation_bound_holds": bound_holds}
    return report


class TestRatioChecks:
    def test_identical_reports_pass(self):
        base = make_report()
        result = compare_reports(base, make_report(), tolerance=0.1)
        assert result.ok
        assert not result.failures

    def test_within_tolerance_passes(self):
        base = make_report(speedups=(1.0, 2.0, 4.0))
        cand = make_report(speedups=(1.0, 1.9, 3.7))
        assert compare_reports(base, cand, tolerance=0.25).ok

    def test_regressed_ratio_fails(self):
        base = make_report(speedups=(1.0, 2.0, 4.0))
        cand = make_report(speedups=(1.0, 2.0, 0.5))
        result = compare_reports(base, cand, tolerance=0.25)
        assert not result.ok
        [failure] = result.failures
        assert failure.metric == "speedup[b=100]"

    def test_rescue_floor_saves_noisy_ratio(self):
        # 3.0 is way below 8.0 * 0.75 but still >= the 1.0 rescue floor:
        # the batched path is faster than per-event, so don't flap.
        base = make_report(speedups=(1.0, 2.0, 8.0))
        cand = make_report(speedups=(1.0, 2.0, 3.0))
        result = compare_reports(base, cand, tolerance=0.25, rescue=1.0)
        assert result.ok

    def test_rescue_floor_does_not_save_slower_than_per_event(self):
        base = make_report(speedups=(1.0, 2.0, 8.0))
        cand = make_report(speedups=(1.0, 2.0, 0.9))
        assert not compare_reports(base, cand, tolerance=0.25, rescue=1.0).ok

    def test_baseline_batch_size_one_never_gates(self):
        result = compare_reports(make_report(), make_report(), tolerance=0.0)
        assert not any(c.metric == "speedup[b=1]" for c in result.checks)

    def test_warm_start_regression_fails(self):
        base = make_report(warm_speedup=10.0)
        cand = make_report(warm_speedup=0.5)
        result = compare_reports(base, cand, tolerance=0.25)
        assert any(c.metric == "warm_start.speedup" for c in result.failures)


    def test_warm_start_is_informational_across_scales(self):
        """One tens-of-ms bulk load against a full-scale baseline reads
        0.7x–1.1x run to run: recorded, never failed — a missing entry
        still fails."""
        base = make_report(scale=1.0, warm_speedup=10.0)
        cand = make_report(scale=0.05, warm_speedup=0.5)
        result = compare_reports(base, cand, tolerance=0.25)
        assert result.ok
        (row,) = [c for c in result.checks if c.metric == "warm_start.speedup"]
        assert (row.status, row.baseline, row.candidate) == ("skip", 10.0, 0.5)
        del cand["warm_start"]["EQ"]
        result = compare_reports(base, cand, tolerance=0.25)
        assert any(c.metric == "warm_start" for c in result.failures)


class TestScaleGating:
    def test_throughput_gates_when_scales_match(self):
        base = make_report(events_per_second=(1000.0, 2000.0, 4000.0))
        cand = make_report(events_per_second=(100.0, 2000.0, 4000.0))
        result = compare_reports(base, cand, tolerance=0.25)
        assert result.scales_match
        assert any(c.metric == "events_per_second[b=1]" for c in result.failures)

    def test_throughput_skipped_on_scale_mismatch(self):
        base = make_report(scale=1.0, events_per_second=(1000.0, 2000.0, 4000.0))
        cand = make_report(scale=0.05, events_per_second=(1.0, 2.0, 4.0))
        result = compare_reports(base, cand, tolerance=0.25)
        assert not result.scales_match
        assert result.ok
        skips = [c for c in result.checks if c.status == "skip"]
        assert any(c.metric == "events_per_second" for c in skips)
        assert not any("events_per_second[" in c.metric for c in result.checks)


class TestStructuralChecks:
    def test_missing_workload_fails(self):
        base = make_report(workloads=("EQ", "VWAP"))
        cand = make_report(workloads=("EQ",))
        result = compare_reports(base, cand)
        assert any(
            c.workload == "VWAP" and c.note == "workload missing"
            for c in result.failures
        )

    def test_extra_candidate_workload_is_ignored(self):
        base = make_report(workloads=("EQ",))
        cand = make_report(workloads=("EQ", "NEW"))
        assert compare_reports(base, cand).ok

    def test_violation_bound_flip_fails(self):
        base = make_report(bound_holds=True)
        cand = make_report(bound_holds=False)
        result = compare_reports(base, cand)
        assert any(c.metric == "violation_bound_holds" for c in result.failures)

    def test_violation_bound_absent_in_candidate_skips(self):
        base = make_report(bound_holds=True)
        cand = make_report(bound_holds=True)
        del cand["ops"]["EQ"]["violation_bound_holds"]
        result = compare_reports(base, cand)
        assert result.ok
        assert any(
            c.metric == "violation_bound_holds" and c.status == "skip"
            for c in result.checks
        )

    def test_violation_bound_false_in_baseline_not_checked(self):
        base = make_report(bound_holds=False)
        cand = make_report(bound_holds=False)
        result = compare_reports(base, cand)
        assert not any(c.metric == "violation_bound_holds" for c in result.checks)

    def test_missing_batch_size_fails(self):
        base = make_report()
        cand = make_report()
        cand["workloads"]["EQ"]["runs"].pop()
        result = compare_reports(base, cand)
        assert any("runs[b=100]" in c.metric for c in result.failures)


def make_sharding_report(
    *,
    scale=1.0,
    scaling_valid=True,
    speedups=(1.0, 1.8, 3.2),
    events_per_second=(1000.0, 1800.0, 3200.0),
    differential_ok=True,
    workloads=("VWAP",),
):
    worker_counts = [1, 2, 4][: len(speedups)]
    report = {
        "scale": scale,
        "worker_counts": worker_counts,
        "scaling_valid": scaling_valid,
        "workloads": {},
    }
    for name in workloads:
        report["workloads"][name] = {
            "runs": [
                {
                    "workers": w,
                    "events_per_second": eps,
                    "speedup_vs_1_worker": s,
                }
                for w, eps, s in zip(worker_counts, events_per_second, speedups)
            ],
            "differential_ok": differential_ok,
            "speedup_4_vs_1": speedups[-1],
        }
    return report


class TestShardingShape:
    def test_identical_reports_pass(self):
        result = compare_reports(make_sharding_report(), make_sharding_report())
        assert result.ok
        assert any(c.metric == "speedup[w=4]" for c in result.checks)

    def test_speedup_regression_fails_when_scaling_valid(self):
        base = make_sharding_report(speedups=(1.0, 1.8, 3.2))
        cand = make_sharding_report(speedups=(1.0, 1.8, 0.4))
        result = compare_reports(base, cand, tolerance=0.25)
        assert any(c.metric == "speedup[w=4]" for c in result.failures)

    def test_scaling_invalid_candidate_suppresses_speedup(self):
        # The satellite fix: a 1-core CI host reports scaling_valid
        # false and sub-1.0 "speedups" — that must skip, not fail.
        base = make_sharding_report(speedups=(1.0, 1.8, 3.2))
        cand = make_sharding_report(
            scaling_valid=False, speedups=(1.0, 0.45, 0.4)
        )
        result = compare_reports(base, cand, tolerance=0.25)
        assert result.ok
        assert not any("speedup[w=" in c.metric for c in result.checks)
        assert any(
            c.metric == "speedup_vs_1_worker" and c.status == "skip"
            for c in result.checks
        )

    def test_scaling_invalid_baseline_suppresses_speedup(self):
        base = make_sharding_report(scaling_valid=False, speedups=(1.0, 0.5, 0.4))
        cand = make_sharding_report(speedups=(1.0, 1.8, 3.2))
        assert compare_reports(base, cand).ok

    def test_scaling_invalid_keeps_single_worker_throughput_gate(self):
        base = make_sharding_report(
            scaling_valid=False, events_per_second=(1000.0, 500.0, 400.0)
        )
        cand = make_sharding_report(
            scaling_valid=False, events_per_second=(100.0, 500.0, 400.0)
        )
        result = compare_reports(base, cand, tolerance=0.25)
        assert any(c.metric == "events_per_second[w=1]" for c in result.failures)
        assert not any(
            c.metric == "events_per_second[w=4]" for c in result.checks
        )

    def test_differential_flip_fails_even_when_scaling_invalid(self):
        base = make_sharding_report(scaling_valid=False)
        cand = make_sharding_report(scaling_valid=False, differential_ok=False)
        result = compare_reports(base, cand)
        assert any(c.metric == "differential_ok" for c in result.failures)

    def test_missing_worker_count_fails(self):
        base = make_sharding_report()
        cand = make_sharding_report()
        cand["workloads"]["VWAP"]["runs"].pop()
        result = compare_reports(base, cand)
        assert any("runs[w=4]" in c.metric for c in result.failures)

    def test_committed_sharding_artifact_diffs_cleanly(self):
        from pathlib import Path

        path = Path(__file__).resolve().parents[2] / "BENCH_sharding.json"
        report = load_report(path)
        result = compare_reports(report, report)
        assert result.ok
        assert any(
            c.metric == "speedup_vs_1_worker" and c.status == "skip"
            for c in result.checks
        ) == (not report["scaling_valid"])


class TestFormattingAndIO:
    def test_format_diff_pass_and_fail(self):
        ok = compare_reports(make_report(), make_report())
        assert "PASS" in format_diff(ok)
        bad = compare_reports(
            make_report(speedups=(1.0, 2.0, 4.0)),
            make_report(speedups=(1.0, 2.0, 0.2)),
        )
        assert "FAIL" in format_diff(bad)

    def test_to_dict_is_json_safe(self):
        result = compare_reports(make_report(), make_report())
        payload = json.loads(json.dumps(result.to_dict(), allow_nan=False))
        assert payload["ok"] is True
        assert payload["checks"]

    def test_load_report(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(make_report()))
        assert load_report(path)["scale"] == 1.0

    def test_check_dataclass_defaults(self):
        check = Check("EQ", "m", 1.0, 2.0, "pass")
        assert check.note == ""


class TestCLI:
    def test_bench_diff_subcommand(self, tmp_path, capsys):
        from repro.__main__ import main

        base_path = tmp_path / "base.json"
        cand_path = tmp_path / "cand.json"
        base_path.write_text(json.dumps(make_report()))
        cand_path.write_text(json.dumps(make_report()))
        assert main(["bench-diff", str(base_path), str(cand_path)]) == 0
        assert "PASS" in capsys.readouterr().out

        cand_path.write_text(
            json.dumps(make_report(speedups=(1.0, 2.0, 0.2)))
        )
        assert main(["bench-diff", str(base_path), str(cand_path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_bench_diff_json_output(self, tmp_path, capsys):
        from repro.__main__ import main

        base_path = tmp_path / "base.json"
        base_path.write_text(json.dumps(make_report()))
        assert main(["bench-diff", str(base_path), str(base_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True


@pytest.mark.slow
def test_bench_compare_script_smoke(tmp_path):
    """End-to-end: regenerate at smoke scale and gate against a smoke
    baseline written by the same code (exercises the --full-free path)."""
    import subprocess
    import sys
    from pathlib import Path

    repo = Path(__file__).resolve().parents[2]
    baseline = tmp_path / "baseline.json"
    out = tmp_path / "candidate.json"
    run = subprocess.run(
        [
            sys.executable,
            str(repo / "benchmarks" / "bench_batching.py"),
            "--smoke",
            "--out",
            str(baseline),
        ],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
    gate = subprocess.run(
        [
            sys.executable,
            str(repo / "benchmarks" / "bench_compare.py"),
            "--baseline",
            str(baseline),
            "--out",
            str(out),
            "--tolerance",
            "0.9",
        ],
        capture_output=True,
        text=True,
    )
    assert gate.returncode == 0, gate.stdout + gate.stderr
    assert "PASS" in gate.stdout
