"""Benchmark-report diffing: the CI perf-regression gate.

Compares a freshly generated ``BENCH_batching.json``-style report (the
*candidate*) against a committed one (the *baseline*) and decides
whether the hot paths regressed.  The comparison is deliberately
two-tiered, because CI runs the benchmark at smoke scale while the
committed artifact is produced at full scale:

* **Scale-independent ratios are always compared.**  The batching
  speedups (``speedup_vs_per_event`` per batch size) measure *shape*,
  not machine speed, so they are meaningful across scales and hosts.
  A ratio check passes when the candidate is within ``tolerance`` of
  the baseline ratio — or clears the ``rescue`` floor (default 1.0:
  "the optimized path is at least not slower than the naive one"),
  which keeps tiny smoke runs from flapping on noise while still
  catching a batched path that became *slower* than per-event.
* **Absolute throughput is compared only on equal footing.**
  ``events_per_second`` cells are checked (within ``tolerance``) only
  when both reports carry the same ``scale``; otherwise those rows are
  reported as skipped, never failed.  The warm-start speedup
  (``bulk_load`` vs trigger replay) follows the same rule: it is a
  ratio, but of one bulk load that lasts tens of milliseconds at smoke
  scale, so against a full-scale baseline it reads anywhere from 0.7x
  to 1.1x run to run — it gates as a ratio on equal scales and is
  recorded as informational otherwise.

Two things fail unconditionally regardless of scale: a workload present
in the baseline but missing from the candidate (a benchmark that
silently stopped running is the easiest regression to ship), and the
Section 3.2.4 ``violation_bound_holds`` flag flipping from true to
false (that is a complexity-class regression, not noise).

**Sharding-shape reports** (``BENCH_sharding.json``: runs keyed by
``workers`` instead of ``batch_size``) are recognized per-workload and
diffed with their own rules.  The parallel speedup
(``speedup_vs_1_worker``) is only a *shape* metric on a host with
enough cores to actually run the workers in parallel; each report
records that as its top-level ``scaling_valid`` flag.  When either
side carries ``scaling_valid: false`` the speedup comparison (and the
multi-worker throughput cells, which depend on core count the same
way) is reported as skipped, never failed — a 1-core CI runner
measuring 0.4x "speedup" at 4 workers is the machine, not a
regression.  The ``differential_ok`` flag (sharded result equals the
serial reference) is scale- and core-independent, so it flipping from
true to false fails unconditionally.

Sharding reports also carry a top-level ``transport`` section: per
query, the bytes-per-event of the retired pickled-event-list pipe
transport versus the columnar frame bytes the shm rings ship, and the
``bytes_per_event_reduction`` ratio with its ``gate`` (frames must ship
at least that many times fewer bytes).  Byte counts are deterministic —
no cores, no clock — so the transport gate applies even when
``scaling_valid`` is false; a candidate whose reduction drops below the
gate fails on any host.

**Serving reports** (``BENCH_serving.json``: top-level ``benchmark:
"serving"``) gate the subscription server.  Per-query delta latency is
wall-clock, so the p99 cells (lower is better: candidate must stay
within ``tolerance`` *above* the baseline) compare only on equal
scales.  Three things are scale-independent and fail on any host: the
``differential_ok`` flag (every subscriber's folded snapshot ⊕ deltas
bit-identical to a clean engine run) flipping from true to false, the
overload run no longer completing, and the overload counters going to
zero — a baseline that shed batches and evicted the non-ACKing
subscriber against a candidate that did neither means the bounded
queue or the slow-consumer bound stopped working, which is how an
unbounded-buffer regression would present.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.bench.reporting import format_table

__all__ = ["Check", "DiffReport", "compare_reports", "format_diff", "load_report"]


@dataclass
class Check:
    """One baseline-vs-candidate comparison row."""

    workload: str
    metric: str
    baseline: object
    candidate: object
    status: str  # "pass" | "fail" | "skip"
    note: str = ""


@dataclass
class DiffReport:
    """All checks from one comparison, plus the knobs that produced them."""

    tolerance: float
    rescue: float
    scales_match: bool
    checks: list[Check] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def failures(self) -> list[Check]:
        return [c for c in self.checks if c.status == "fail"]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "tolerance": self.tolerance,
            "rescue": self.rescue,
            "scales_match": self.scales_match,
            "checks": [
                {
                    "workload": c.workload,
                    "metric": c.metric,
                    "baseline": c.baseline,
                    "candidate": c.candidate,
                    "status": c.status,
                    "note": c.note,
                }
                for c in self.checks
            ],
        }


def load_report(path: str | Path) -> dict:
    """Read a benchmark report JSON file."""
    return json.loads(Path(path).read_text())


def _runs_by_batch(entry: dict) -> dict[int, dict]:
    return {run["batch_size"]: run for run in entry.get("runs", [])}


def _is_sharding_entry(entry: dict) -> bool:
    """Sharding-shape workload entry: runs keyed by worker count."""
    runs = entry.get("runs", [])
    return bool(runs) and "workers" in runs[0]


def _sharding_entry_checks(
    report: DiffReport,
    name: str,
    base_entry: dict,
    cand_entry: dict,
    *,
    scaling_ok: bool,
) -> None:
    """Diff one sharding-shape workload (see the module docstring)."""
    base_runs = {run["workers"]: run for run in base_entry.get("runs", [])}
    cand_runs = {run["workers"]: run for run in cand_entry.get("runs", [])}
    for workers, base_run in sorted(base_runs.items()):
        cand_run = cand_runs.get(workers)
        if cand_run is None:
            report.checks.append(
                Check(
                    name,
                    f"runs[w={workers}]",
                    True,
                    False,
                    "fail",
                    "worker count missing",
                )
            )
            continue
        if workers <= min(base_runs):
            # The 1-worker row is the denominator; only throughput
            # applies, and that is gated like every other cell below.
            pass
        elif scaling_ok:
            _ratio_check(
                report,
                name,
                f"speedup[w={workers}]",
                base_run["speedup_vs_1_worker"],
                cand_run["speedup_vs_1_worker"],
            )
        if report.scales_match and (scaling_ok or workers <= min(base_runs)):
            _throughput_check(
                report,
                name,
                f"events_per_second[w={workers}]",
                base_run["events_per_second"],
                cand_run["events_per_second"],
            )
    if not scaling_ok:
        report.checks.append(
            Check(
                name,
                "speedup_vs_1_worker",
                base_entry.get("speedup_4_vs_1"),
                cand_entry.get("speedup_4_vs_1"),
                "skip",
                "scaling_valid false — parallel speedup not comparable",
            )
        )
    if not report.scales_match:
        report.checks.append(
            Check(
                name,
                "events_per_second",
                None,
                None,
                "skip",
                "scale mismatch — absolute throughput not comparable",
            )
        )
    if base_entry.get("differential_ok", False):
        held = cand_entry.get("differential_ok")
        if held is None:
            report.checks.append(
                Check(
                    name,
                    "differential_ok",
                    True,
                    None,
                    "skip",
                    "candidate carries no differential verdict",
                )
            )
        else:
            held = bool(held)
            report.checks.append(
                Check(
                    name,
                    "differential_ok",
                    True,
                    held,
                    "pass" if held else "fail",
                    "" if held else "sharded result no longer equals the serial reference",
                )
            )


def _is_serving_report(report: dict) -> bool:
    """Serving-shape report (``BENCH_serving.json``)."""
    return report.get("benchmark") == "serving" or "serving" in report


def _serving_checks(report: DiffReport, baseline: dict, candidate: dict) -> None:
    """Diff two serving reports (see the module docstring)."""
    cand_queries = candidate.get("serving", {})
    for query, base_entry in baseline.get("serving", {}).items():
        cand_entry = cand_queries.get(query)
        if cand_entry is None:
            report.checks.append(
                Check(query, "serving", True, False, "fail", "query missing")
            )
            continue
        base_p99 = base_entry.get("delta_latency_p99_ms")
        cand_p99 = cand_entry.get("delta_latency_p99_ms")
        if not report.scales_match:
            report.checks.append(
                Check(
                    query,
                    "delta_latency_p99_ms",
                    base_p99,
                    cand_p99,
                    "skip",
                    "scale mismatch — absolute latency not comparable",
                )
            )
            continue
        # latency is lower-is-better: the tolerance band sits above
        ceiling = base_p99 * (1.0 + report.tolerance)
        report.checks.append(
            Check(
                query,
                "delta_latency_p99_ms",
                base_p99,
                cand_p99,
                "pass" if cand_p99 <= ceiling else "fail",
                "" if cand_p99 <= ceiling else f"needs <= {ceiling:.3f} ms",
            )
        )

    base_over = baseline.get("overload", {})
    cand_over = candidate.get("overload", {})
    if base_over:
        completed = bool(cand_over.get("completed"))
        report.checks.append(
            Check(
                "overload",
                "completed",
                bool(base_over.get("completed")),
                completed,
                "pass" if completed else "fail",
                "" if completed else "overload run no longer completes (deadlock?)",
            )
        )
        for metric, what in (
            ("shed", "bounded ingest queue no longer sheds under overload"),
            ("evicted", "non-ACKing subscriber no longer evicted"),
        ):
            base_count = base_over.get(metric, 0)
            cand_count = cand_over.get(metric, 0)
            if base_count > 0:
                report.checks.append(
                    Check(
                        "overload",
                        metric,
                        base_count,
                        cand_count,
                        "pass" if cand_count > 0 else "fail",
                        "" if cand_count > 0 else what,
                    )
                )
        if base_over.get("consistent_after_shedding", False):
            held = bool(cand_over.get("consistent_after_shedding"))
            report.checks.append(
                Check(
                    "overload",
                    "consistent_after_shedding",
                    True,
                    held,
                    "pass" if held else "fail",
                    "" if held else "shedding now loses consistency, not just events",
                )
            )

    if baseline.get("differential_ok", False):
        held = bool(candidate.get("differential_ok"))
        report.checks.append(
            Check(
                "serving",
                "differential_ok",
                True,
                held,
                "pass" if held else "fail",
                ""
                if held
                else "folded subscriber state no longer matches the clean engine run",
            )
        )


def _ratio_check(
    report: DiffReport, workload: str, metric: str, base: float, cand: float
) -> None:
    """Scale-independent ratio: tolerance band with a rescue floor."""
    floor = base * (1.0 - report.tolerance)
    if cand >= floor:
        status, note = "pass", ""
    elif cand >= report.rescue:
        status = "pass"
        note = f"below baseline band but >= rescue floor {report.rescue}"
    else:
        status = "fail"
        note = f"needs >= {floor:.2f} (or rescue {report.rescue})"
    report.checks.append(Check(workload, metric, base, cand, status, note))


def _throughput_check(
    report: DiffReport, workload: str, metric: str, base: float, cand: float
) -> None:
    """Absolute events/second — only called when scales match."""
    floor = base * (1.0 - report.tolerance)
    if cand >= floor:
        report.checks.append(Check(workload, metric, base, cand, "pass"))
    else:
        report.checks.append(
            Check(workload, metric, base, cand, "fail", f"needs >= {floor:.1f}")
        )


def compare_reports(
    baseline: dict,
    candidate: dict,
    *,
    tolerance: float = 0.25,
    rescue: float = 1.0,
) -> DiffReport:
    """Diff two ``bench_batching`` reports; see the module docstring for
    the pass/fail rules.

    Args:
        baseline: the committed report (the bar to clear).
        candidate: the freshly generated report.
        tolerance: allowed fractional slack below the baseline value
            (0.25 == "within 25% is fine").
        rescue: absolute speedup floor that rescues a ratio check from
            failing even outside the tolerance band.
    """
    scales_match = baseline.get("scale") == candidate.get("scale")
    report = DiffReport(tolerance=tolerance, rescue=rescue, scales_match=scales_match)

    if _is_serving_report(baseline) or _is_serving_report(candidate):
        _serving_checks(report, baseline, candidate)
        return report

    cand_workloads = candidate.get("workloads", {})
    for name, base_entry in baseline.get("workloads", {}).items():
        cand_entry = cand_workloads.get(name)
        if cand_entry is None:
            report.checks.append(
                Check(name, "present", True, False, "fail", "workload missing")
            )
            continue
        if _is_sharding_entry(base_entry) or _is_sharding_entry(cand_entry):
            _sharding_entry_checks(
                report,
                name,
                base_entry,
                cand_entry,
                scaling_ok=bool(
                    baseline.get("scaling_valid", True)
                    and candidate.get("scaling_valid", True)
                ),
            )
            continue
        base_runs = _runs_by_batch(base_entry)
        cand_runs = _runs_by_batch(cand_entry)
        for batch_size, base_run in sorted(base_runs.items()):
            cand_run = cand_runs.get(batch_size)
            if cand_run is None:
                report.checks.append(
                    Check(
                        name,
                        f"runs[b={batch_size}]",
                        True,
                        False,
                        "fail",
                        "batch size missing",
                    )
                )
                continue
            if batch_size > min(base_runs):
                _ratio_check(
                    report,
                    name,
                    f"speedup[b={batch_size}]",
                    base_run["speedup_vs_per_event"],
                    cand_run["speedup_vs_per_event"],
                )
            if scales_match:
                _throughput_check(
                    report,
                    name,
                    f"events_per_second[b={batch_size}]",
                    base_run["events_per_second"],
                    cand_run["events_per_second"],
                )
        if not scales_match:
            report.checks.append(
                Check(
                    name,
                    "events_per_second",
                    baseline.get("scale"),
                    candidate.get("scale"),
                    "skip",
                    "scale mismatch — absolute throughput not comparable",
                )
            )

    # Transport (serialization-share) entries from BENCH_sharding.json:
    # byte counts are deterministic, so — unlike parallel speedups —
    # these gate even when either report's scaling_valid is false.
    cand_transport = candidate.get("transport", {})
    for name, base_entry in baseline.get("transport", {}).items():
        cand_entry = cand_transport.get(name)
        if cand_entry is None:
            report.checks.append(
                Check(name, "transport", True, False, "fail", "transport entry missing")
            )
            continue
        _ratio_check(
            report,
            name,
            "transport.bytes_reduction",
            base_entry["bytes_per_event_reduction"],
            cand_entry["bytes_per_event_reduction"],
        )
        gate = base_entry.get("gate", 5.0)
        met = cand_entry["bytes_per_event_reduction"] >= gate
        report.checks.append(
            Check(
                name,
                f"transport.gate[{gate}x]",
                True,
                met,
                "pass" if met else "fail",
                ""
                if met
                else "columnar frames no longer beat pickled event lists "
                "by the gate factor",
            )
        )

    cand_warm = candidate.get("warm_start", {})
    for name, base_entry in baseline.get("warm_start", {}).items():
        cand_entry = cand_warm.get(name)
        if cand_entry is None:
            report.checks.append(
                Check(
                    name, "warm_start", True, False, "fail", "warm-start entry missing"
                )
            )
            continue
        if scales_match:
            _ratio_check(
                report,
                name,
                "warm_start.speedup",
                base_entry["speedup"],
                cand_entry["speedup"],
            )
        else:
            report.checks.append(
                Check(
                    name,
                    "warm_start.speedup",
                    base_entry["speedup"],
                    cand_entry["speedup"],
                    "skip",
                    "scale mismatch — informational only",
                )
            )

    cand_ops = candidate.get("ops", {})
    for name, base_entry in baseline.get("ops", {}).items():
        if not base_entry.get("violation_bound_holds", False):
            continue
        cand_entry = cand_ops.get(name)
        if cand_entry is None or "violation_bound_holds" not in cand_entry:
            # No negative shifts at the candidate's scale — nothing to
            # judge; the flag only regresses if it is present and false.
            report.checks.append(
                Check(
                    name,
                    "violation_bound_holds",
                    True,
                    None,
                    "skip",
                    "no negative shifts observed in candidate",
                )
            )
            continue
        held = bool(cand_entry["violation_bound_holds"])
        report.checks.append(
            Check(
                name,
                "violation_bound_holds",
                True,
                held,
                "pass" if held else "fail",
                "" if held else "Section 3.2.4 v <= 1 bound no longer holds",
            )
        )

    return report


def format_diff(report: DiffReport) -> str:
    """Render a :class:`DiffReport` as the usual ASCII table plus a
    one-line verdict."""
    rows = [
        [c.workload, c.metric, c.baseline, c.candidate, c.status.upper(), c.note]
        for c in report.checks
    ]
    table = format_table(
        ["workload", "metric", "baseline", "candidate", "status", "note"], rows
    )
    failures = report.failures
    if failures:
        verdict = f"FAIL: {len(failures)} regression(s) out of {len(report.checks)} checks"
    else:
        skipped = sum(1 for c in report.checks if c.status == "skip")
        verdict = (
            f"PASS: {len(report.checks) - skipped} checks passed"
            + (f", {skipped} skipped (not comparable)" if skipped else "")
        )
    return table + "\n" + verdict
