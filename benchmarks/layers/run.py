"""The repo's benchmark: one command, four workloads, one ladder.

    python3 benchmarks/layers/run.py --workload <name> --seed <n>
                                     [--seconds S] [--trace [0|1]] [--smoke]
    python3 benchmarks/layers/run.py --smoke            # all workloads, tiny
    python3 benchmarks/layers/run.py --check-repeat     # two full sets, compared

A run generates the workload from the seed, drives the program through
the public functions of each layer, checks every result bit-identical
to a reference, writes the full report to
``benchmarks/results/layers/report_<workload>.json`` and prints, as the
last line of stdout, the contract object ``{correct, attempted, failed,
metrics}`` — the end-to-end metrics of ``BENCHMARK.json`` (``--trace
0``) or its per-layer metrics (``--trace 1``).  The measuring happens in
a child process pinned to one CPU; the command returns once every
process that child started has ended.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SMOKE_SCALE = 0.15
SMOKE_SECONDS = 1.5


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measuring time of the run (default {spec['run_seconds']})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: the per-layer pass (obs counts, spans, layer probes)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scale, same code paths; numbers are flagged scale=smoke")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run two full sets back to back and compare their medians")
    parser.add_argument("--inner", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.spec = spec
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(spec["run_seconds"])
    return args


def run_one(args: argparse.Namespace) -> int:
    from layerbench import harness, inproc, serve

    host = harness.host_fingerprint()
    pinned_cpu = harness.pin_to_one_cpu()
    scale = SMOKE_SCALE if args.smoke else 1.0
    with harness.scratch_dir(args.workload) as scratch:
        runner = serve.run if args.workload == "serve_open" else inproc.run
        result = runner(args.workload, args.seed, args.seconds, scale, bool(args.trace), scratch)
    tracer = result.pop("tracer", None)
    obs_snapshot = result.pop("obs", None)
    attempted, failed = result["attempted"], result["failed"]
    result["layers"]["bench.failed_ops_share"] = harness.summary([failed / attempted], "ratio")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": "smoke" if args.smoke else "full",
        "trace": bool(args.trace),
        "claim": None,
        "noisy_host": host["loadavg_1m"] > host["cpu_count"],
        "host": host,
        "config": dict(result["config"], seconds=args.seconds, pinned_cpu=pinned_cpu),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
        "layers": result["layers"],
    }
    problems = harness.validate_report(report)
    harness.RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    suffix = "_trace" if args.trace else ""
    (harness.RESULTS_DIR / f"report_{args.workload}{suffix}.json").write_text(harness.dump_json(report))
    if tracer is not None:
        tracer.dump(harness.RESULTS_DIR / f"trace_{args.workload}.json")
        (harness.RESULTS_DIR / f"obs_{args.workload}.json").write_text(harness.dump_json(obs_snapshot))

    print(f"# {args.workload} seed={args.seed} scale={report['scale']} trace={args.trace} "
          f"noisy_host={report['noisy_host']}")
    for section in ("metrics", "layers"):
        for name, cell in sorted(report[section].items()):
            if cell is None:
                print(f"{name:46s} null")
            else:
                print(f"{name:46s} {cell['value']:.6g} {cell['unit']}  "
                      f"[q1 {cell['q1']:.6g}, q3 {cell['q3']:.6g}, n {cell['n']}]")
    for problem in problems:
        print(f"SCHEMA: {problem}", file=sys.stderr)

    wanted = args.spec["per_layer"] if args.trace else args.spec["end_to_end"]
    source = report["layers"] if args.trace else report["metrics"]
    missing = [m["name"] for m in wanted if source.get(m["name"]) is None]
    if missing:
        print(f"metrics missing from the run: {missing}", file=sys.stderr)
        return 1
    contract = {
        "correct": report["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": source[m["name"]]["value"], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(contract, allow_nan=False))
    return 0 if report["correct"] and not problems else 1


# ---------------------------------------------------------------------------
# Process hygiene: one workload = one child process, and nothing it
# started outlives this command
# ---------------------------------------------------------------------------

PR_SET_CHILD_SUBREAPER = 36
ORPHAN_GRACE_S = 5.0


def supervise(argv: list[str]) -> int:
    """Run the workload in a fresh child process (so ``ru_maxrss`` is the
    workload's own) that leads a session of its own, and return only
    when every process of that session has ended.  The interpreter does
    not wait for multiprocessing's resource tracker (started by the
    first ``ShmRing``), which therefore outlives it; as the sub-reaper
    this process adopts such orphans, gives them a moment to finish,
    kills what is left and reaps all of them."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # not Linux: orphans go to init
        pass
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    command = [sys.executable, str(HERE / "run.py"), *argv, "--inner"]
    workload = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    try:
        return workload.wait()
    finally:
        if workload.poll() is None:
            # interrupted.  The tracker ignores SIGTERM and, once the rest
            # is gone, unlinks the shared-memory rings they left behind.
            os.killpg(workload.pid, signal.SIGTERM)
        reap_session(workload.pid, ORPHAN_GRACE_S)


def reap_session(pgid: int, grace: float) -> None:
    """Reap every descendant; after ``grace`` seconds kill the session's
    process group first."""
    deadline = time.monotonic() + grace
    while time.monotonic() < deadline:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # nothing left
        if pid == 0:
            time.sleep(0.005)
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def child(workload: str, args: argparse.Namespace, seed: int) -> dict | None:
    """One workload in a fresh process; returns its contract object."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, text=True, capture_output=True)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        print(f"{workload}: exit code {done.returncode}")
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_suite(args: argparse.Namespace) -> int:
    status = 0
    for workload in (w["name"] for w in args.spec["workloads"]):
        contract = child(workload, args, args.seed)
        if contract is None or not contract["correct"]:
            status = 1
            continue
        print(f"# {workload} (scale={'smoke' if args.smoke else 'full'})")
        for name, cell in contract["metrics"].items():
            print(f"{name:46s} {cell['value']:.6g} {cell['unit']}")
    return status


def check_repeat(args: argparse.Namespace) -> int:
    """Two full sets on the current tree; every end-to-end metric of
    every workload must agree within its own bound."""
    status = 0
    print(f"{'workload':16s} {'metric':18s} {'first':>12s} {'second':>12s} {'gap':>8s} {'bound':>6s}")
    for workload in (w["name"] for w in args.spec["workloads"]):
        first, second = child(workload, args, args.seed), child(workload, args, args.seed)
        if first is None or second is None:
            status = 1
            continue
        for metric in args.spec["end_to_end"]:
            a = first["metrics"][metric["name"]]["value"]
            b = second["metrics"][metric["name"]]["value"]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            verdict = "" if abs(worse) <= metric["bound"] else "  DISAGREE"
            status |= bool(verdict)
            print(f"{workload:16s} {metric['name']:18s} {a:12.5g} {b:12.5g} "
                  f"{worse:+8.1%} {metric['bound']:6.0%}{verdict}")
    return status


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    args = parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    os.chdir(ROOT)
    if args.check_repeat:
        return check_repeat(args)
    if args.workload is None:
        return run_suite(args)
    if not args.inner:
        return supervise(sys.argv[1:] if argv is None else argv)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
