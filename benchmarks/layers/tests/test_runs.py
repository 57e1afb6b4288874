"""Whole ``--smoke`` runs: report schema, the contract line, and seed
determinism of streams, obs counts and byte counts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from layerbench import WORKLOADS, inproc, probes, streams
from layerbench.harness import RESULTS_DIR, ROOT, scratch_dir, validate_report

RUN = Path(__file__).resolve().parents[1] / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(workload: str, seed: int = 5, trace: int = 0, *extra: str) -> tuple[dict, dict]:
    """(contract object, full report) of one smoke run in a fresh process
    that leads a session of its own."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), "--smoke", *extra],
        cwd=ROOT, text=True, capture_output=True, timeout=170, start_new_session=True,
    )
    assert done.returncode == 0, done.stderr
    contract = json.loads(done.stdout.strip().splitlines()[-1])
    suffix = "_trace" if trace else ""
    report = json.loads((RESULTS_DIR / f"report_{workload}{suffix}.json").read_text())
    return contract, report


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_matches_schema_and_contract(workload):
    contract, report = smoke(workload)
    assert validate_report(report) == []
    assert report["scale"] == "smoke" and report["workload"] == workload
    assert set(contract) == {"correct", "attempted", "failed", "metrics"}
    assert contract["correct"] is True and contract["failed"] == 0 and contract["attempted"] >= 1
    assert list(contract["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        cell = contract["metrics"][metric["name"]]
        assert cell["unit"] == metric["unit"] and cell["value"] > 0


def test_traced_smoke_run_prints_every_per_layer_metric():
    contract, report = smoke("hash_frame", trace=1)
    assert validate_report(report) == []
    assert list(contract["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    trace = json.loads((RESULTS_DIR / "trace_hash_frame.json").read_text())
    assert {"colbatch.from_bytes", "engine.on_frame", "bench.blob"} <= set(trace["self_times"])
    assert trace["spans"][0].keys() == {"name", "start_ns", "end_ns", "parent", "batch_id"}


def live_sessions() -> set[int]:
    """Session ids of every process (zombies included) in /proc."""
    out = set()
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path("/proc", entry, "stat").read_text()
            except OSError:
                continue
            out.add(int(stat.rsplit(")", 1)[1].split()[3]))
    return out


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("workload", ["durable_shard2", "serve_open"])
def test_a_run_leaves_no_process_behind(workload):
    # the command and the measuring child each lead a session: workers,
    # the served process and multiprocessing's resource tracker (which
    # outlives the interpreter that started it) live in one of the two
    before = live_sessions()
    smoke(workload)
    assert live_sessions() <= before


def test_same_seed_same_streams_other_seed_other_streams():
    for build in (lambda s: streams.order_book(s, 2_000), lambda s: streams.relation_ab(s, 2_000),
                  lambda s: streams.tpch(s, 2_000), lambda s: streams.serve_feed(s, 2_000)):
        assert build(11) == build(11)
        assert build(11) != build(12)


def test_same_seed_same_obs_counts():
    def counts(seed: int) -> dict:
        workload = inproc.WORKLOADS["tree_event"]
        with scratch_dir("test-counts") as scratch:
            profile = probes.Profile(cases=workload.cases(seed, 0.05), flavor="event", batch=1,
                                     us_per_event=1.0, scratch=scratch)
            return probes.probe_counts(profile)["snapshot"]["counters"]

    first = counts(3)
    assert first == counts(3)
    assert first["rpai.shift_keys.neg"] > 0
    assert first != counts(4)


@pytest.mark.parametrize("workload, metric", [
    ("durable_shard2", "wal_bytes_per_event"),
    ("serve_open", "wal_bytes_per_event"),
    ("serve_open", "wire_bytes_per_event"),
])
def test_byte_counts_repeat_exactly(workload, metric, byte_runs):
    first, second, other = byte_runs(workload)
    assert first["metrics"][metric]["value"] == second["metrics"][metric]["value"]
    assert first["metrics"][metric]["value"] != other["metrics"][metric]["value"]


@pytest.fixture(scope="module")
def byte_runs():
    cache: dict = {}

    def runs(workload: str):
        if workload not in cache:
            cache[workload] = tuple(smoke(workload, seed)[1] for seed in (7, 7, 8))
        return cache[workload]

    return runs
