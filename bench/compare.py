#!/usr/bin/env python3
"""Compare two run sets written by ``run.py --out``.

    python3 bench/compare.py A.json B.json

One row per (workload, end-to-end metric): both medians, the bound from
``BENCHMARK.json`` and a verdict for B against A —

``ok``          B's median is not worse than A's by more than the bound
``worse``       it is
``unresolved``  the run-to-run spread (quartile distance over median, the
                wider of the two sets) exceeds the bound and B is not a
                clean sweep of A, or a set has too few runs for quartiles

and a flag for anything that says the two sets did not simulate the same
thing: a digest, ``sim_mockup_s`` or event-count difference between any
runs of one (workload, trace mode) - the inputs are pinned, so all of
them should agree - or more failed operations in B.
Exits 1 if any row is ``worse`` or anything is flagged.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_RUNS = 4                 # fewer cannot give quartiles worth the name


def load(path: str) -> List[dict]:
    with open(path) as fh:
        return json.load(fh)["runs"]


def spread(values: List[float]) -> Optional[float]:
    """Quartile distance as a share of the median; None if too few."""
    if len(values) < MIN_RUNS:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def judge(a: List[float], b: List[float], better: str,
          bound: float) -> Tuple[str, float]:
    """Verdict for B against A, and how much worse B's median is."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (med_b - med_a) / med_a
    spreads = [spread(a), spread(b)]
    if None in spreads:
        return "unresolved", worse_by
    clean_sweep = (max(b) < min(a) if better == "lower"
                   else min(b) > max(a))
    if max(spreads) > bound and not clean_sweep:
        return "unresolved", worse_by
    return ("worse" if worse_by > bound else "ok"), worse_by


def by_workload(runs: List[dict], metric: str) -> Dict[str, List[float]]:
    out: Dict[str, List[float]] = {}
    for run in runs:
        if not run["trace"]:
            out.setdefault(run["workload"], []).append(
                run["result"]["metrics"][metric]["value"])
    return out


def simulated(runs: List[dict]) -> Dict[tuple, set]:
    """What each (workload, trace mode) simulated, over all its runs.
    Inputs are pinned, so every run of a workload should agree."""
    out: Dict[tuple, set] = {}
    for run in runs:
        out.setdefault((run["workload"], run["trace"]), set()).add(
            json.dumps([run["digests"], run["sim_mockup_s"], run["events"]],
                       sort_keys=True))
    return out


def failed_share(runs: List[dict], workload: str) -> float:
    mine = [r for r in runs if r["workload"] == workload]
    attempted = sum(r["attempted"] for r in mine)
    return sum(r["failed"] for r in mine) / attempted if attempted else 0.0


def simulation_flags(a: List[dict], b: List[dict]) -> List[str]:
    flags = []
    in_a, in_b = simulated(a), simulated(b)
    for key in sorted(set(in_a) & set(in_b)):
        if in_a[key] != in_b[key] or len(in_a[key]) > 1:
            flags.append(
                f"{key[0]} trace {key[1]}: digests, sim_mockup_s or events "
                f"differ ({len(in_a[key] | in_b[key])} distinct outcomes "
                f"over both sets)")
    for run in b:
        if not run["result"]["correct"]:
            flags.append(f"{run['workload']} seed {run['seed']} trace "
                         f"{run['trace']}: B's run failed its own checks")
    for workload in sorted({r["workload"] for r in a + b}):
        was, now = failed_share(a, workload), failed_share(b, workload)
        if now > was:
            flags.append(f"{workload}: failed share rose "
                         f"({was:.4f} -> {now:.4f})")
    return flags


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = load(argv[0]), load(argv[1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    print(f"{'workload':14s} {'metric':16s} {'unit':5s} {'A median':>12s} "
          f"{'B median':>12s} {'B worse by':>10s} {'bound':>6s} "
          f"{'spread A/B':>13s}  verdict")
    worse = 0
    for metric in contract["end_to_end"]:
        in_a = by_workload(a, metric["name"])
        in_b = by_workload(b, metric["name"])
        for workload in sorted(set(in_a) & set(in_b)):
            va, vb = in_a[workload], in_b[workload]
            verdict, worse_by = judge(va, vb, metric["better"],
                                      metric["bound"])
            worse += verdict == "worse"
            spreads = "/".join("n/a" if s is None else f"{s:.1%}"
                               for s in (spread(va), spread(vb)))
            print(f"{workload:14s} {metric['name']:16s} {metric['unit']:5s} "
                  f"{statistics.median(va):12.4f} "
                  f"{statistics.median(vb):12.4f} {worse_by:>+10.1%} "
                  f"{metric['bound']:>6.0%} {spreads:>13s}  {verdict}")
    flags = simulation_flags(a, b)
    for flag in flags:
        print(f"FLAG {flag}")
    print(f"{worse} worse, {len(flags)} flagged")
    return 1 if worse or flags else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
