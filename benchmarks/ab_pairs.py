"""Alternating parent/change pairs of the layered benchmark, and the
before/after tables made from them (choosing-metrics guide §8).

    python3 benchmarks/ab_pairs.py run LOG.jsonl PARENT_DIR CHANGE_DIR
            [--n 10] [--workload NAME[,NAME...]|all] [--seed 1] [--trace 0|1] [--seconds S]
    python3 benchmarks/ab_pairs.py e2e   [LABEL=]LOG.jsonl [[LABEL=]LOG.jsonl ...]
    python3 benchmarks/ab_pairs.py layer LOG.jsonl [--workload NAME] METRIC [METRIC ...]

``run`` executes ``benchmarks/layers/run.py`` in two checkouts in turn
and appends one JSON line per run (the contract's end-to-end metrics
plus every per-layer line of the printed report: ``core.*``,
``engine.*``, ``wal*``, ``supervision.*``, ``server.*``, … —
:data:`LAYER_PREFIXES`).
A pair runs every named workload (``all``: the four of
``BENCHMARK.json``) on both sides, the two sides of one workload back
to back, and which side goes first swaps from pair to pair and from
workload to workload.  Run it on an otherwise idle host: the benchmark
pins itself to one CPU and anything else running shows up in the
numbers.

``e2e`` prints a markdown table of the four end-to-end metrics, one
block of rows per workload found in the logs (a ``LABEL=`` names the
runs of a log that predates the ``workload`` field); ``layer`` one of
named per-layer metrics from a ``--trace 1`` log: medians and quartiles
per side, how many pairs the change won and lost (a tie is neither),
the parent's own spread, and — for end-to-end metrics — the verdict
against the bound ``BENCHMARK.json`` fixes.  EXPERIMENTS.md's
before/after tables are this output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: report lines kept with a run, by prefix (the ladder's layer names)
LAYER_PREFIXES = (
    "core.", "query.", "engine.", "colbatch.", "wal", "supervision.", "sharding.",
    "protocol.", "deltas.", "server.", "client.", "span.", "wire_",
)


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workload_names() -> list[str]:
    return [workload["name"] for workload in benchmark_spec()["workloads"]]


def parse_workloads(value: str) -> list[str]:
    """``all`` or a comma list, checked against ``BENCHMARK.json``."""
    known = workload_names()
    names = known if value == "all" else [name for name in value.split(",") if name]
    unknown = [name for name in names if name not in known]
    if unknown or not names:
        raise SystemExit(f"unknown workload(s) {unknown}; choose from {known} or 'all'")
    return names


def run_once(directory: str, workload: str, args: argparse.Namespace) -> dict:
    command = [sys.executable, "benchmarks/layers/run.py", "--workload", workload,
               "--seed", str(args.seed), "--trace", str(args.trace)]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    done = subprocess.run(command, cwd=directory, text=True, capture_output=True)
    lines = done.stdout.strip().splitlines()
    try:
        contract = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"ok": False, "stdout": done.stdout[-2000:], "stderr": done.stderr[-2000:]}
    extra = {}
    for line in lines:
        if line.startswith(LAYER_PREFIXES):
            name, value = line.split()[:2]
            if value != "null":
                extra[name] = float(value)
    return {
        "ok": done.returncode == 0 and contract["correct"],
        "attempted": contract["attempted"],
        "failed": contract["failed"],
        "metrics": {name: cell["value"] for name, cell in contract["metrics"].items()},
        "extra": extra,
    }


def schedule(n: int, workloads: list[str]) -> list[tuple[int, str, str]]:
    """``(pair, workload, side)`` in execution order: both sides of a
    workload back to back, the first side alternating."""
    order = []
    for pair in range(n):
        for position, workload in enumerate(workloads):
            sides = ["A", "B"] if (pair + position) % 2 == 0 else ["B", "A"]
            order.extend((pair, workload, side) for side in sides)
    return order


def run_pairs(args: argparse.Namespace) -> int:
    directories = {"A": args.parent, "B": args.change}
    bad = 0
    with open(args.log, "a") as log:
        for pair, workload, side in schedule(args.n, parse_workloads(args.workload)):
            record = run_once(directories[side], workload, args)
            record.update(pair=pair, side=side, dir=directories[side], workload=workload)
            bad += not record["ok"]
            log.write(json.dumps(record) + "\n")
            log.flush()
    return 1 if bad else 0


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def load(path: str) -> tuple[list[dict], int, int]:
    records = [json.loads(line) for line in open(path)]
    failed = sum(record.get("failed", 1) for record in records)
    return [r for r in records if r.get("ok")], failed, len(records)


def paired(records: list[dict], name: str) -> tuple[list[float], list[float]]:
    """The metric on both sides of every pair that has it on both."""
    sides: dict[str, dict[int, float]] = {"A": {}, "B": {}}
    for record in records:
        value = record["metrics"].get(name, record["extra"].get(name))
        if value is not None:
            sides[record["side"]][record["pair"]] = value
    pairs = sorted(set(sides["A"]) & set(sides["B"]))
    return [sides["A"][p] for p in pairs], [sides["B"][p] for p in pairs]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(parent: list[float], change: list[float], better: str,
            bound: float | None = None) -> dict:
    """The numbers of one table row.  ``delta`` is the change's median
    over the parent's, minus one; ``won``/``lost`` count pairs (a tie is
    neither); ``spread`` is the parent's IQR over its median; the
    verdict reads ``delta`` against ``bound`` — *unresolved* when the
    parent's own spread exceeds the bound."""
    pq, cq = quartiles(parent), quartiles(change)
    base = pq[1] or 1.0  # a count whose median is zero is compared as is
    delta = (cq[1] - pq[1]) / base
    sign = 1 if better == "higher" else -1
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    lost = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    spread = (pq[2] - pq[0]) / base
    verdict = None
    if bound is not None:
        verdict = ("worse than bound" if -sign * delta > bound
                   else "unresolved" if spread > bound else "within bound")
    return {"parent": pq, "change": cq, "delta": delta, "won": won, "lost": lost,
            "pairs": len(parent), "spread": spread, "verdict": verdict}


def show(value: float) -> str:
    if value >= 1000:
        return f"{value:,.0f}"
    return f"{value:.1f}" if value >= 100 else f"{value:.2f}" if value >= 10 else f"{value:.3f}"


def row(cells: list[str], parent: list[float], change: list[float], better: str,
        bound: float | None = None) -> str:
    if not parent:
        return "| " + " | ".join(cells + ["no pair has this metric on both sides"]) + " |"
    numbers = compare(parent, change, better, bound)
    pq, cq = numbers["parent"], numbers["change"]
    cells = cells + [
        f"{show(pq[1])} ({show(pq[0])}–{show(pq[2])})",
        f"{show(cq[1])} ({show(cq[0])}–{show(cq[2])})",
        f"{numbers['delta']:+.1%}",
        f"{numbers['won']}/{numbers['pairs']} ({numbers['lost']} lost)",
        f"{numbers['spread']:.1%}",
    ]
    if bound is not None:
        cells.append(numbers["verdict"])
    return "| " + " | ".join(cells) + " |"


def table_e2e(specs: list[str]) -> int:
    spec = benchmark_spec()
    print("| workload | metric | parent: median (q1–q3) | change: median (q1–q3) "
          "| change / parent | pairs won by change | parent IQR / median | vs bound |")
    print("|---|---|---|---|---|---|---|---|")
    for item in specs:
        label, _, path = item.rpartition("=")
        records, failed, total = load(path)
        by_workload: dict[str, list[dict]] = {}
        for record in records:
            by_workload.setdefault(record.get("workload", label or path), []).append(record)
        for workload, rows in by_workload.items():
            for metric in spec["end_to_end"]:
                parent, change = paired(rows, metric["name"])
                print(row([workload, f"`{metric['name']}`"], parent, change,
                          metric["better"], metric["bound"]))
        print(f"<!-- {label or path}: {total} runs, {len(records)} completed and correct, "
              f"{failed} failed checks -->")
    return 0


def table_layer(path: str, names: list[str], workload: str | None = None) -> int:
    spec = benchmark_spec()
    better = {m["name"]: m["better"] for m in spec["per_layer"] + spec["end_to_end"]}
    records, failed, total = load(path)
    if workload is not None:
        records = [r for r in records if r.get("workload") == workload]
    print("| metric | parent: median (q1–q3) | change: median (q1–q3) "
          "| change / parent | pairs won by change | parent IQR / median |")
    print("|---|---|---|---|---|---|")
    for name in names:
        parent, change = paired(records, name)
        direction = better.get(name, "higher" if ".eps" in name else "lower")
        print(row([f"`{name}`"], parent, change, direction))
    print(f"<!-- {total} runs, {len(records)} completed and correct, {failed} failed checks -->")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run")
    run.add_argument("log")
    run.add_argument("parent")
    run.add_argument("change")
    run.add_argument("--n", type=int, default=10)
    run.add_argument("--workload", default="tree_event",
                     help="a BENCHMARK.json workload, a comma list of them, or 'all'")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--trace", type=int, default=0)
    run.add_argument("--seconds", type=float, default=None)
    e2e = commands.add_parser("e2e")
    e2e.add_argument("logs", nargs="+", metavar="[LABEL=]LOG")
    layer = commands.add_parser("layer")
    layer.add_argument("log")
    layer.add_argument("--workload", default=None,
                       help="only this workload's runs of a multi-workload log")
    layer.add_argument("metrics", nargs="+")
    args = parser.parse_args()
    if args.command == "run":
        return run_pairs(args)
    if args.command == "e2e":
        return table_e2e(args.logs)
    return table_layer(args.log, args.metrics, args.workload)


if __name__ == "__main__":
    sys.exit(main())
