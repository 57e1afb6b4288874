"""Alternating parent/change pairs of the layered benchmark, and the
before/after tables made from them (choosing-metrics guide §8).

    python3 benchmarks/ab_pairs.py run LOG.jsonl PARENT_DIR CHANGE_DIR
            [--n 10] [--workload tree_event] [--seed 1] [--trace 0|1] [--seconds S]
    python3 benchmarks/ab_pairs.py e2e   LABEL=LOG.jsonl [LABEL=LOG.jsonl ...]
    python3 benchmarks/ab_pairs.py layer LOG.jsonl METRIC [METRIC ...]

``run`` executes ``benchmarks/layers/run.py`` in two checkouts in turn,
swapping which side goes first on every pair, and appends one JSON line
per run (the contract's end-to-end metrics plus every ``engine.eps.*`` /
``core.*`` line of the printed report).  Run it on an otherwise idle
host: the benchmark pins itself to one CPU and anything else running
shows up in the numbers.

``e2e`` prints a markdown table of the four end-to-end metrics per log,
``layer`` one of named per-layer metrics from a ``--trace 1`` log:
medians and quartiles per side, how many pairs the change won, the
parent's own spread, and — for end-to-end metrics — the verdict against
the bound ``BENCHMARK.json`` fixes.  EXPERIMENTS.md's "Required sums as
columns" tables are this output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(directory: str, args: argparse.Namespace) -> dict:
    command = [sys.executable, "benchmarks/layers/run.py", "--workload", args.workload,
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
        if line.startswith(("engine.eps.", "core.")):
            name, value = line.split()[:2]
            extra[name] = float(value)
    return {
        "ok": done.returncode == 0 and contract["correct"],
        "attempted": contract["attempted"],
        "failed": contract["failed"],
        "metrics": {name: cell["value"] for name, cell in contract["metrics"].items()},
        "extra": extra,
    }


def run_pairs(args: argparse.Namespace) -> int:
    with open(args.log, "a") as log:
        for pair in range(args.n):
            sides = [("A", args.parent), ("B", args.change)]
            if pair % 2:
                sides.reverse()
            for side, directory in sides:
                record = run_once(directory, args)
                record.update(pair=pair, side=side, dir=directory)
                log.write(json.dumps(record) + "\n")
                log.flush()
    return 0


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def load(path: str) -> tuple[list[dict], int, int]:
    records = [json.loads(line) for line in open(path)]
    failed = sum(record.get("failed", 1) for record in records)
    return [r for r in records if r.get("ok")], failed, len(records)


def paired(records: list[dict], name: str) -> tuple[list[float], list[float]]:
    def value(record: dict) -> float:
        return record["metrics"].get(name, record["extra"].get(name))

    parent = {r["pair"]: value(r) for r in records if r["side"] == "A"}
    change = {r["pair"]: value(r) for r in records if r["side"] == "B"}
    pairs = sorted(set(parent) & set(change))
    return [parent[p] for p in pairs], [change[p] for p in pairs]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def show(value: float) -> str:
    if value >= 1000:
        return f"{value:,.0f}"
    return f"{value:.1f}" if value >= 100 else f"{value:.2f}" if value >= 10 else f"{value:.3f}"


def row(cells: list[str], parent: list[float], change: list[float], better: str,
        bound: float | None = None) -> str:
    pq, cq = quartiles(parent), quartiles(change)
    delta = cq[1] / pq[1] - 1
    if better == "higher":
        wins = sum(c > p for p, c in zip(parent, change))
        worse = -delta
    else:
        wins = sum(c < p for p, c in zip(parent, change))
        worse = delta
    spread = (pq[2] - pq[0]) / pq[1]
    cells = cells + [
        f"{show(pq[1])} ({show(pq[0])}–{show(pq[2])})",
        f"{show(cq[1])} ({show(cq[0])}–{show(cq[2])})",
        f"{delta:+.1%}", f"{wins}/{len(parent)}", f"{spread:.1%}",
    ]
    if bound is not None:
        cells.append("worse than bound" if worse > bound
                     else "unresolved" if spread > bound else "within bound")
    return "| " + " | ".join(cells) + " |"


def table_e2e(specs: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("| workload | metric | parent: median (q1–q3) | change: median (q1–q3) "
          "| change / parent | pairs won by change | parent IQR / median | vs bound |")
    print("|---|---|---|---|---|---|---|---|")
    for item in specs:
        label, path = item.split("=", 1)
        records, failed, total = load(path)
        for metric in spec["end_to_end"]:
            parent, change = paired(records, metric["name"])
            print(row([label, f"`{metric['name']}`"], parent, change,
                      metric["better"], metric["bound"]))
        print(f"<!-- {label}: {total} runs, {len(records)} completed and correct, "
              f"{failed} failed checks -->")
    return 0


def table_layer(path: str, names: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["per_layer"] + spec["end_to_end"]}
    records, failed, total = load(path)
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
    run.add_argument("--workload", default="tree_event")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--trace", type=int, default=0)
    run.add_argument("--seconds", type=float, default=None)
    e2e = commands.add_parser("e2e")
    e2e.add_argument("logs", nargs="+", metavar="LABEL=LOG")
    layer = commands.add_parser("layer")
    layer.add_argument("log")
    layer.add_argument("metrics", nargs="+")
    args = parser.parse_args()
    if args.command == "run":
        return run_pairs(args)
    if args.command == "e2e":
        return table_e2e(args.logs)
    return table_layer(args.log, args.metrics)


if __name__ == "__main__":
    sys.exit(main())
