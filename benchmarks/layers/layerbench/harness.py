"""Measurement helpers shared by every workload: order statistics,
spans, the open-loop pacer, the host fingerprint and the report schema.

Nothing here imports ``repro`` — the unit tests under ``../tests`` run
these helpers without the program.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

ROOT = Path(__file__).resolve().parents[3]
RESULTS_DIR = ROOT / "benchmarks" / "results" / "layers"

#: a percentile is only reported when at least this many samples lie
#: beyond it (choosing-metrics §1)
MIN_BEYOND = 10
_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)


# ---------------------------------------------------------------------------
# Order statistics
# ---------------------------------------------------------------------------


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[max(1, _rank(len(ordered), pct)) - 1]


def _rank(n: int, pct: float) -> int:
    """1-based nearest rank of the percentile (rounded first: 99.9% of
    1000 must be 999, not 999.0000000000001 -> 1000)."""
    return min(n, math.ceil(round(pct * n / 100.0, 6)))


def highest_supported(n: int) -> float:
    """Highest ladder percentile with >= MIN_BEYOND samples beyond it
    (50 when even the median is unsupported)."""
    best = _LADDER[0]
    for pct in _LADDER:
        if n - _rank(n, pct) >= MIN_BEYOND:
            best = pct
    return best


def latency_summary(samples: Sequence[float]) -> dict:
    """p50, p99 (the gated one), the highest supported percentile, max."""
    ordered = sorted(samples)
    top = highest_supported(len(ordered))
    return {
        "n": len(ordered),
        "p50": percentile(ordered, 50),
        "p99": percentile(ordered, 99),
        "top_pct": top,
        "top": percentile(ordered, top),
        "max": ordered[-1],
    }


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def cell(value: float, unit: str) -> dict:
    """A report cell for a number measured once."""
    return summary([value], unit)


def summary(values: Sequence[float], unit: str, value: float | None = None) -> dict:
    """One report cell: median (or the given pooled ``value``) with the
    quartiles of the per-repeat values and their count."""
    q1, q3 = quartiles(values)
    return {
        "value": statistics.median(values) if value is None else value,
        "unit": unit,
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory spans recorded by the harness around each call into a
    layer's public function; written out once, at exit."""

    def __init__(self) -> None:
        #: [name, start_ns, end_ns, parent index | None, batch_id | None]
        self.spans: list[list] = []

    def add(self, name: str, start: int, end: int, parent: int | None = None,
            batch_id: int | None = None) -> int:
        self.spans.append([name, start, end, parent, batch_id])
        return len(self.spans) - 1

    def self_times(self) -> dict[str, dict]:
        """Per span name: count, total duration, and self time (duration
        minus the part covered by child spans), all in ns."""
        child_ns = [0] * len(self.spans)
        for _name, start, end, parent, _batch in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for index, (name, start, end, _parent, _batch) in enumerate(self.spans):
            cell = out.setdefault(name, {"count": 0, "total_ns": 0, "self_ns": 0})
            cell["count"] += 1
            cell["total_ns"] += end - start
            cell["self_ns"] += end - start - child_ns[index]
        return out

    def dump(self, path: Path, limit: int = 20_000) -> None:
        """Write the first ``limit`` spans plus the aggregate of all."""
        keys = ("name", "start_ns", "end_ns", "parent", "batch_id")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(dump_json({
            "spans_recorded": len(self.spans),
            "spans_written": min(limit, len(self.spans)),
            "self_times": self.self_times(),
            "spans": [dict(zip(keys, span)) for span in self.spans[:limit]],
        }))


# ---------------------------------------------------------------------------
# Open loop
# ---------------------------------------------------------------------------


class OpenLoop:
    """Fixed-rate schedule: item ``i`` is due at ``start + i / rate``
    whatever the system under test does, so a stall is charged to every
    item it delays.  ``wait`` sleeps until shortly before the due time
    and then yields to the event loop without sleeping (asyncio timers
    round up to a millisecond); ``late`` records how far past due each
    item was released — the generator's own error."""

    def __init__(self, rate: float, start: float,
                 clock: Callable[[], float] = time.perf_counter,
                 sleep: Callable = asyncio.sleep, spin: float = 0.0015) -> None:
        self.rate = rate
        self.start = start
        self.clock = clock
        self.sleep = sleep
        self.spin = spin
        self.late: list[float] = []

    def due(self, index: int) -> float:
        return self.start + index / self.rate

    async def wait(self, index: int) -> float:
        due = self.due(index)
        while True:
            remaining = due - self.clock()
            if remaining <= 0:
                break
            await self.sleep(remaining - self.spin if remaining > self.spin else 0)
        self.late.append(self.clock() - due)
        return due


# ---------------------------------------------------------------------------
# Results, files, host
# ---------------------------------------------------------------------------


def identical(left: Any, right: Any) -> bool:
    """Bit-identity of two query results: same types, same values, and
    for grouped results the same key set."""
    if type(left) is not type(right):
        return False
    if isinstance(left, dict):
        return left.keys() == right.keys() and all(
            identical(value, right[key]) for key, value in left.items()
        )
    return left == right


def tree_bytes(path: Path) -> int:
    """Bytes of all regular files under ``path``."""
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _dirs, names in os.walk(path)
        for name in names
    )


@contextmanager
def scratch_dir(label: str) -> Iterator[Path]:
    """A private directory inside the checkout (WALs, crash images),
    removed on exit."""
    path = RESULTS_DIR / "tmp" / f"{label}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


_unpinned_cpus: set[int] | None = None


def pin_to_one_cpu() -> int | None:
    """Keep this process, and every process it starts from here on, on
    one CPU.  The host lends its second vCPU only some of the time (two
    spinning processes together do 1.0x to 1.9x the work of one, in
    spells of minutes), so whatever needs two CPUs at once — two shard
    workers, a server and its generator — measures that spell, not the
    program.  On one CPU the same work is done in turn and repeats."""
    global _unpinned_cpus
    if not hasattr(os, "sched_setaffinity"):
        return None
    _unpinned_cpus = os.sched_getaffinity(0)
    cpu = min(_unpinned_cpus)
    os.sched_setaffinity(0, {cpu})
    return cpu


@contextmanager
def all_cpus() -> Iterator[None]:
    """Undo the pin inside the block: for the one probe whose subject is
    the gain from a second CPU."""
    if _unpinned_cpus is None:
        yield
        return
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, _unpinned_cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, pinned)


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """``ru_maxrss`` in MiB (Linux reports KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def cpu_seconds(who: int = resource.RUSAGE_SELF) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def host_fingerprint() -> dict:
    commit = None
    if (ROOT / ".git").exists():  # never let git search above the checkout
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, text=True,
                capture_output=True, timeout=5, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "loadavg_1m": os.getloadavg()[0],
    }


def dump_json(value: Any) -> str:
    return json.dumps(value, allow_nan=False, indent=1, sort_keys=True) + "\n"


_CELL_KEYS = {"value", "unit", "q1", "q3", "n"}
_REPORT_KEYS = {
    "workload", "seed", "scale", "trace", "claim", "noisy_host", "host", "config",
    "correct", "attempted", "failed", "metrics", "layers",
}
_HOST_KEYS = {"cpu_count", "python", "platform", "commit", "loadavg_1m"}


def validate_report(report: dict) -> list[str]:
    """Schema check of one report; returns the list of violations."""
    problems = []
    if set(report) != _REPORT_KEYS:
        problems.append(f"report keys {sorted(set(report) ^ _REPORT_KEYS)} missing/extra")
        return problems
    if set(report["host"]) != _HOST_KEYS:
        problems.append("host fingerprint keys differ")
    if report["scale"] not in ("full", "smoke"):
        problems.append(f"scale {report['scale']!r}")
    if report["claim"] is not None:
        problems.append("this benchmark claims no gain")
    for section in ("metrics", "layers"):
        for name, cell in report[section].items():
            if cell is None:
                continue  # the workload has no such phase
            if not isinstance(cell, dict) or not _CELL_KEYS <= set(cell):
                problems.append(f"{section}.{name}: not a cell")
                continue
            for key in ("value", "q1", "q3"):
                number = cell[key]
                if isinstance(number, bool) or not isinstance(number, (int, float)) \
                        or not math.isfinite(number):
                    problems.append(f"{section}.{name}.{key}: {number!r}")
            if not isinstance(cell["unit"], str) or not cell["unit"]:
                problems.append(f"{section}.{name}: unit")
    return problems


def python_env() -> dict:
    """Environment for child processes that must import ``repro``."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
