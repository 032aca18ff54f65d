#!/usr/bin/env python3
"""The repo's one benchmark: cold mockup, warm what-if, campaign throughput.

    python3 bench/run.py                      every workload, untraced and
                                              traced, cross-checked
    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
                                              one run (what the driver calls)
    python3 bench/run.py --repeat 10 --trace 0 --out A.json
                                              a run set for compare.py

Each run is a fresh ``workloads.py`` process (``PYTHONHASHSEED=0``,
default GC settings, one client, closed loop, inline ``workers=0``).
Every metric named in ``BENCHMARK.json`` is printed by name with its
unit, the run's outputs are checked, and the last line of standard
output is the run's result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "workloads.py")

SETUP_REPEATS = 5            # set-up is timed this often; median reported
WORKER_TIMEOUT_S = 170       # a run must end within the driver's 180 s


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def fingerprint() -> dict:
    def cpu_model() -> Optional[str]:
        try:
            with open("/proc/cpuinfo") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or None

    def commit() -> Optional[str]:
        if not os.path.exists(os.path.join(ROOT, ".git")):
            return None           # an exported checkout: git would look up
        try:
            out = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], timeout=10,
                capture_output=True, text=True, check=True)
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip()

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "commit": commit(),
        "load_1min_at_start": os.getloadavg()[0],
    }


def spawn_worker(args: List[str]) -> dict:
    """Run one worker process; its last stdout line is a JSON document."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned_at = time.time()
    proc = subprocess.run(
        [sys.executable, WORKER, *args], env=env, cwd=ROOT, text=True,
        stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    try:
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        raise RuntimeError("worker printed no result document") from exc
    doc["setup_s"] = doc["ready_at"] - spawned_at
    return doc


def run_once(workload: str, seed: int, seconds: float, trace: int,
             quick: bool, trace_out: Optional[str]) -> dict:
    """One measured run plus the extra set-ups that steady ``setup_s``."""
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        args.append("--quick")
    started = time.perf_counter()
    setups = [spawn_worker(args + ["--setup-only"])["setup_s"]
              for _ in range(SETUP_REPEATS - 1)]
    if trace and trace_out:
        args += ["--trace-out", trace_out]
    doc = spawn_worker(args)
    doc["setup_samples"] = setups + [doc["setup_s"]]
    doc["setup_s"] = statistics.median(doc["setup_samples"])
    doc["wall_s"] = time.perf_counter() - started
    return doc


def result_line(doc: dict, contract: dict) -> dict:
    """The driver's result object for one run; raises if the run did not
    emit exactly the metrics ``BENCHMARK.json`` declares for its mode."""
    metrics = dict(doc["metrics"])
    if doc["trace"]:
        declared = contract["per_layer"]
    else:
        declared = contract["end_to_end"]
        metrics["setup_s"] = {"value": doc["setup_s"], "unit": "s"}
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise RuntimeError(
            f"{doc['workload']} trace={doc['trace']}: metrics differ from "
            f"BENCHMARK.json (missing {missing}, undeclared {extra}, "
            f"unit mismatch {units})")
    return {"correct": all(doc["checks"].values()) and not doc["failed"],
            "attempted": doc["attempted"], "failed": doc["failed"],
            "metrics": metrics}


def report(doc: dict, result: dict) -> None:
    mode = "traced" if doc["trace"] else "untraced"
    print(f"== {doc['workload']}  seed {doc['seed']}  {mode}"
          f"{'  QUICK (not a measurement)' if doc['quick'] else ''}  "
          f"wall {doc['wall_s']:.1f} s")
    for name, metric in result["metrics"].items():
        print(f"  {name:38s} {metric['value']:>16.6f} {metric['unit']}")
    for name, digest in doc["digests"].items():
        if digest:
            print(f"  {name:38s} {digest[:16]}")
    print(f"  {'sim_mockup_s':38s} {doc['sim_mockup_s']:>16.3f} sim-s")
    print(f"  {'events':38s} {doc['events']:>16d} count")
    failed_checks = [n for n, ok in doc["checks"].items() if not ok]
    print(f"  checks: {len(doc['checks']) - len(failed_checks)} passed"
          + (f", FAILED {failed_checks}" if failed_checks else "")
          + f"; operations: {doc['attempted']} attempted, "
            f"{doc['failed']} failed")
    for failure in doc["failures"]:
        print(f"  failure: {failure}")


def same_simulation(untraced: dict, traced: dict) -> List[str]:
    """Tracing must not change what was simulated."""
    problems = []
    for key in ("digests", "sim_mockup_s", "events"):
        if untraced[key] != traced[key]:
            problems.append(f"{untraced['workload']}: {key} differs between "
                            f"the untraced and the traced run")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench/run.py: no src/repro beside bench/ - nothing to "
              "measure", file=sys.stderr)
        return 2
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="default: every workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="default: an untraced then a traced run, "
                             "cross-checked")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds SEED..SEED+N-1")
    parser.add_argument("--quick", action="store_true",
                        help="S-DC everywhere, cut counts: smoke test only")
    parser.add_argument("--out", help="write every run's document here")
    parser.add_argument("--trace-out",
                        help="write the traced run's spans here")
    args = parser.parse_args(argv)

    modes = [0, 1] if args.trace is None else [args.trace]
    stamp = fingerprint()
    print("fingerprint: " + json.dumps(stamp))
    runs, problems = [], []
    result = None
    try:
        for workload in ([args.workload] if args.workload else names):
            for seed in range(args.seed, args.seed + args.repeat):
                pair = {}
                for trace in modes:
                    doc = run_once(workload, seed, args.seconds, trace,
                                   args.quick, args.trace_out)
                    result = result_line(doc, contract)
                    doc["result"] = result
                    report(doc, result)
                    runs.append(doc)
                    pair[trace] = doc
                if len(pair) == 2:
                    problems += same_simulation(pair[0], pair[1])
                    ratio = (sum(map(sum, pair[1]["stage_walls"].values()))
                             / sum(map(sum, pair[0]["stage_walls"].values())))
                    print(f"  measured tracing overhead: traced stages took "
                          f"{ratio:.3f}x the untraced run's")
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"fingerprint": stamp, "runs": runs}, fh, indent=1)
    for problem in problems:
        print(f"MISMATCH {problem}")
    if problems:
        result["correct"] = False
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
