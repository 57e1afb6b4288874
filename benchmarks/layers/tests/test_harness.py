"""The measurement helpers, without the program."""

import asyncio

import pytest

from layerbench.harness import (
    OpenLoop,
    Tracer,
    highest_supported,
    identical,
    latency_summary,
    percentile,
    summary,
    validate_report,
)


def test_percentile_is_nearest_rank():
    ordered = list(range(1, 101))
    assert percentile(ordered, 50) == 50
    assert percentile(ordered, 99) == 99
    assert percentile(ordered, 100) == 100
    assert percentile([7], 99) == 7
    with pytest.raises(ValueError):
        percentile([], 50)


def test_highest_percentile_needs_ten_samples_beyond_it():
    assert highest_supported(19) == 50  # 9.5 beyond the median: nothing higher
    assert highest_supported(100) == 90  # 10 beyond p90, 1 beyond p99
    assert highest_supported(999) == 90
    assert highest_supported(1_000) == 99
    assert highest_supported(10_000) == 99.9
    assert highest_supported(5_000) == 99  # 50 beyond p99, 5 beyond p99.9


def test_latency_summary_names_the_highest_supported_percentile():
    few = latency_summary(range(500))
    assert few["top_pct"] == 90
    many = latency_summary(range(5_000))
    assert many["top_pct"] == 99
    assert many["p50"] == 2_499 and many["max"] == 4_999 and many["n"] == 5_000


def test_summary_cell():
    cell = summary([1.0, 2.0, 3.0, 4.0, 5.0], "ms")
    assert cell["value"] == 3.0 and cell["n"] == 5 and cell["unit"] == "ms"
    assert cell["q1"] < cell["value"] < cell["q3"]
    assert summary([2.0], "s") == {"value": 2.0, "unit": "s", "q1": 2.0, "q3": 2.0, "n": 1}
    assert summary([1.0, 3.0], "us", value=9.0)["value"] == 9.0  # pooled value wins


def test_span_self_time_is_duration_minus_children():
    tracer = Tracer()
    root = tracer.add("batch", 0, 100, None, 1)
    tracer.add("decode", 0, 30, root, 1)
    apply_span = tracer.add("apply", 30, 90, root, 1)
    tracer.add("tree", 40, 60, apply_span, 1)
    other = tracer.add("batch", 200, 260, None, 2)
    tracer.add("decode", 200, 210, other, 2)
    times = tracer.self_times()
    assert times["batch"] == {"count": 2, "total_ns": 160, "self_ns": (100 - 30 - 60) + (60 - 10)}
    assert times["decode"] == {"count": 2, "total_ns": 40, "self_ns": 40}
    assert times["apply"]["self_ns"] == 60 - 20
    assert times["tree"]["self_ns"] == 20
    # self times partition the root spans
    assert sum(cell["self_ns"] for cell in times.values()) == 160


def test_trace_file_holds_spans_and_aggregate(tmp_path):
    import json

    tracer = Tracer()
    for index in range(5):
        tracer.add("call", index * 10, index * 10 + 4, None, index)
    tracer.dump(tmp_path / "trace.json", limit=3)
    data = json.loads((tmp_path / "trace.json").read_text())
    assert data["spans_recorded"] == 5 and data["spans_written"] == 3
    assert data["spans"][0] == {"name": "call", "start_ns": 0, "end_ns": 4, "parent": None, "batch_id": 0}
    assert data["self_times"]["call"]["count"] == 5


class FakeClock:
    """Time moves only when the pacer sleeps (plus a fixed overshoot),
    or when the test stalls it."""

    def __init__(self, overshoot: float = 0.0002):
        self.now = 100.0
        self.overshoot = overshoot

    def __call__(self) -> float:
        return self.now

    async def sleep(self, seconds: float) -> None:
        self.now += max(seconds, 0.0) + self.overshoot


def test_open_loop_keeps_the_schedule_and_reports_its_own_lateness():
    clock = FakeClock()
    pacer = OpenLoop(rate=250, start=clock.now + 0.05, clock=clock, sleep=clock.sleep)

    async def drive() -> list[float]:
        dues = []
        for index in range(50):
            if index == 20:
                clock.now += 0.030  # the system under test stalls the generator
            dues.append(await pacer.wait(index))
        return dues

    dues = asyncio.run(drive())
    # due times never move: item i is due at start + i / rate, stall or not
    assert dues == [pytest.approx(100.05 + i / 250) for i in range(50)]
    assert len(pacer.late) == 50 and min(pacer.late) >= 0.0
    # before the stall the pacer releases each item within one overshoot
    assert max(pacer.late[:20]) <= clock.overshoot + 1e-9
    # the 30 ms stall makes items 20..26 late by what is left of it ...
    assert pacer.late[20] == pytest.approx(0.030 - 0.004 + clock.overshoot, abs=3e-4)
    assert pacer.late[21] == pytest.approx(pacer.late[20] - 0.004, abs=1e-9)
    # ... and once the schedule catches up, lateness is back to the overshoot
    assert max(pacer.late[30:]) <= clock.overshoot + 1e-9


def test_identical_is_type_and_value():
    assert identical(3.0, 3.0) and not identical(3, 3.0)
    assert identical({1: 2.0, 2: 3}, {2: 3, 1: 2.0})
    assert not identical({1: 2.0}, {1: 2.0, 2: 0.0})
    assert not identical({1: 2}, {1: 2.0})


def good_report() -> dict:
    cell = {"value": 1.5, "unit": "ms", "q1": 1.0, "q3": 2.0, "n": 5}
    return {
        "workload": "tree_event", "seed": 1, "scale": "smoke", "trace": False, "claim": None,
        "noisy_host": False,
        "host": {"cpu_count": 2, "python": "3.11", "platform": "x", "commit": None, "loadavg_1m": 0.1},
        "config": {"batch": 1}, "correct": True, "attempted": 10, "failed": 0,
        "metrics": {"setup_s": dict(cell, unit="s"), "recover_s": None},
        "layers": {"core.rpai.add_us": dict(cell, unit="us")},
    }


def test_report_schema():
    assert validate_report(good_report()) == []
    bad = good_report()
    bad["metrics"]["setup_s"]["value"] = float("nan")
    assert validate_report(bad)
    bad = good_report()
    bad["claim"] = "20% faster"
    assert validate_report(bad)
    bad = good_report()
    del bad["host"]["commit"]
    assert validate_report(bad)
    bad = good_report()
    bad["layers"]["x"] = {"value": 1}
    assert validate_report(bad)
    bad = good_report()
    bad["extra"] = 1
    assert validate_report(bad)
