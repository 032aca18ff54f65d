"""The benchmark's workloads: one flow, three scales, two request kinds.

Every workload runs the flow a user of this system runs — boot a mockup
cold, perturb it, take a warm image, serve requests from the image —
so every end-to-end metric is measured in every workload:

====================  ===============================================
stage (timed)         what runs
====================  ===============================================
``boot``              fresh ``CrystalNet().prepare()`` + ``mockup()``
``churn``             session resets on the spines + ``converge()``
``capture``           ``snapshot(net)``
``materialize``       ``WhatIfServer(snap).materialize()``
``request``           one ``submit()``+``drain()`` verdict, or
``campaign``          one ``CampaignRunner.run()``
====================  ===============================================

This module is the worker: ``run.py`` starts it in a fresh process per
run and reads one JSON document from its standard output.  It uses only
the public ``repro.*`` API; with ``--trace 1`` the boundaries in
:mod:`layers` are wrapped before any emulation is built.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional

import layers

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro import topology                                       # noqa: E402
from repro.campaign import CampaignConfig, CampaignRunner        # noqa: E402
from repro.config import RouteMap, RouteMapClause, render_config  # noqa: E402
from repro.core import CrystalNet                                # noqa: E402
from repro.firmware.bgp.messages import PathAttributes           # noqa: E402
from repro.serve import ServeError, WhatIfServer                 # noqa: E402
from repro.snapshot import (ConfigReload, LinkCut, PolicyEdit,   # noqa: E402
                            SessionReset, network_fibs, snapshot)

# ``--seconds`` sizes the repeatable stages: counts below are for
# NOMINAL_SECONDS and scale linearly (never below one).  One L-DC boot,
# capture and materialization take ~36 s here and cannot be cut shorter,
# so ``whatif-ldc`` measures for longer than the others at any setting.
NOMINAL_SECONDS = 20

WORKLOADS = {
    # Largest working set (~600k events, ~900 MB): route volume, FIB
    # writes, GC and pickle dominate boot, capture and materialize.
    "whatif-ldc": dict(preset="LDC", num_vms=12, rounds=1, churns=1,
                       images=1, kind="verdict", requests=12),
    # Small working set (~40k events, ~35 MB): per-device fixed cost
    # dominates.  A GC or RIB-layout change should move whatif-ldc and
    # not this; a per-event dispatch change should move both.
    "whatif-mdc": dict(preset="MDC", num_vms=4, rounds=8, churns=6,
                       images=4, kind="verdict", requests=64),
    # Many short COW forks of a small image: chaos engine, health
    # monitor, invariants, timeline, and the *read* side of
    # firmware.fib/net.trie where the what-if workloads are write-heavy.
    "campaign-sdc": dict(preset="SDC", num_vms=3, rounds=8, churns=6,
                         images=10, kind="campaign", requests=12),
}

# The smoke test's sizing: every preset is S-DC and counts are cut.
# Quick numbers are never reported as measurements.
QUICK = dict(preset="SDC", num_vms=3, rounds=3, churns=1, images=1)
QUICK_REQUESTS = {"verdict": 8, "campaign": 4}

# What ``--seed`` may and may not vary.  The emulation's own seed (boot
# jitter, timer phases, VM recovery times) and the campaign's master seed
# decide how much simulated work an operation is: across emulation seeds
# 1-4 the *same* L-DC session-reset or policy-edit verdict took 0.3-1.25 s
# (how long the reset session takes to come back is a timer draw), and a
# 12-scenario campaign 11-16 s; across campaign master seeds 1-7 it ran
# 31-47 evaluations in 16-28 s.  No bound a regression gate could use
# holds over that, so both are pinned, simulated state repeats exactly
# from run to run, and ``--seed`` orders the requests: every verdict
# forks from the same image, so order must not matter - and is checked
# not to, by the order-independent verdict digest and by the spread of
# the request metrics across seeds.
EMULATION_SEED = 7
CAMPAIGN_SEED = 7
CAMPAIGN_BATCH = 4

CHURN_SPINES = 4
CHURN_SESSIONS = 4
DELTA_KINDS = ("link-cut", "session-reset", "policy-edit", "config-reload")


def _sha(doc) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()


def plan(workload: str, seconds: float, quick: bool) -> dict:
    """Stage counts for one run — a pure function of its arguments."""
    spec = dict(WORKLOADS[workload])
    if quick:
        spec.update(QUICK, requests=QUICK_REQUESTS[spec["kind"]])
        return spec
    scale = seconds / NOMINAL_SECONDS
    for key in ("rounds", "churns", "images", "requests"):
        spec[key] = max(1, round(spec[key] * scale))
    if spec["kind"] == "verdict":
        # Whole multiples of the four delta kinds keep the mix fixed.
        spec["requests"] = max(4, spec["requests"] // 4 * 4)
    return spec


class Harness:
    """Times operations (with a full span around each when tracing) and
    keeps the run's tally of operations, failures and self-checks."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.walls: Dict[str, List[float]] = {}
        self.attempted = 0
        self.failures: List[str] = []
        self.checks: Dict[str, bool] = {}

    def timed(self, stage: str, fn: Callable, request: str,
              collect: bool = True, operations: int = 1):
        """Time ``fn()``, which attempts ``operations`` operations.
        Unless told not to, collect garbage first (untimed): whether a
        full collection of a 900 MB heap lands inside a 4 s stage is
        otherwise luck - a 20% spread."""
        if collect:
            gc.collect()
        self.attempted += operations
        span = (self.tracer.span(stage, request) if self.tracer
                else contextlib.nullcontext())
        with span:
            start = time.perf_counter()
            out = fn()
            wall = time.perf_counter() - start
        self.walls.setdefault(stage, []).append(wall)
        return out


# -- generated inputs --------------------------------------------------------

def _strided(items: list, count: int, offset: int = 0) -> list:
    """``count`` items evenly spread over ``items`` (wrapping if short)."""
    step = max(1, len(items) // count)
    return [items[(offset + i * step) % len(items)] for i in range(count)]


def _edited_config(net, device: str, edit: Callable) -> str:
    config = copy.deepcopy(net.configs[device])
    edit(config)
    return render_config(config)


def _prefer_first_neighbor(config) -> None:
    config.route_maps["BENCH_PREFER"] = RouteMap(
        "BENCH_PREFER", [RouteMapClause(set_local_pref=200)])
    config.bgp.neighbors[0].import_policy = "BENCH_PREFER"


def _single_path(config) -> None:
    config.bgp.max_paths = 1


def make_deltas(net, count: int, seed: int) -> list:
    """``count`` what-if deltas, a quarter of each kind, order shuffled
    by ``seed``; the set itself depends only on the topology."""
    per_kind = count // len(DELTA_KINDS)
    spine_links = sorted(sorted(pair) for pair in net.links
                         if any(dev.startswith("spn-") for dev in pair))
    fabric = sorted(name for name in net.emulated
                    if name.startswith(("tor-", "lf-")))
    # Config edits go to ToRs: every ToR has ECMP to lose, which a leaf
    # with one spine per plane (S-DC) has not.
    tors = [name for name in fabric if name.startswith("tor-")]
    deltas = [LinkCut(a, b) for a, b in _strided(spine_links, per_kind)]
    for device in _strided(fabric, per_kind):
        peer = net.configs[device].bgp.neighbors[0].peer_ip
        deltas.append(SessionReset(device, str(peer)))
    for device in _strided(tors, per_kind):
        deltas.append(PolicyEdit(device, _edited_config(
            net, device, _prefer_first_neighbor)))
    for device in _strided(tors, per_kind, offset=1):
        deltas.append(ConfigReload(device, _edited_config(
            net, device, _single_path)))
    random.Random(seed).shuffle(deltas)
    return deltas


def churn_resets(net) -> list:
    spines = sorted(n for n in net.emulated if n.startswith("spn-"))
    return [SessionReset(spine, str(neighbor.peer_ip))
            for spine in spines[:CHURN_SPINES]
            for neighbor in net.configs[spine].bgp.neighbors[:CHURN_SESSIONS]]


def fib_digest(net) -> str:
    return _sha(network_fibs(net))


# -- the flow ----------------------------------------------------------------

def boot_stage(harness: Harness, workload: str, spec: dict):
    """Identical cold rounds; returns the last net and what it simulated."""
    topo = topology.build_clos(getattr(topology, spec["preset"])())

    def boot():
        net = CrystalNet(emulation_id=f"bench-{workload}",
                         seed=EMULATION_SEED)
        net.prepare(topo, num_vms=spec["num_vms"])
        net.mockup()
        return net

    net, rounds = None, []
    for index in range(spec["rounds"]):
        # Each round starts as a fresh process would.
        net = None
        PathAttributes.clear_intern_table()
        net = harness.timed("boot", boot, f"boot#{index}")
        if not net.mocked_up:
            harness.failures.append(f"boot#{index}: not route-ready")
        rounds.append((fib_digest(net), net.metrics.mockup_latency))
    harness.checks["route_ready"] = not harness.failures
    harness.checks["rounds_identical"] = len(set(rounds)) == 1
    return net, rounds[-1]


def churn_stage(harness: Harness, net, spec: dict, fibs_at_boot: str) -> None:
    """The withdraw/re-advertise path on the live (not forked) net."""
    resets = churn_resets(net)

    def churn():
        for reset in resets:
            reset.apply(net)
        net.converge()

    for index in range(spec["churns"]):
        harness.timed("churn", churn, f"churn#{index}")
    harness.checks["churn_restores_fibs"] = fib_digest(net) == fibs_at_boot


def image_stage(harness: Harness, net, spec: dict):
    """Capture the converged net and materialize it; the last snapshot
    and its (open) server are what the requests run against."""
    snap = server = None
    for index in range(spec["images"]):
        if server is not None:
            server.close()
        snap = harness.timed("capture", lambda: snapshot(net),
                             f"image#{index}")
        server = WhatIfServer(snap)
        harness.timed("materialize", server.materialize, f"image#{index}")
    return snap, server


def verdict_stage(harness: Harness, net, server, count: int,
                  seed: int) -> dict:
    deltas = make_deltas(net, count, seed)
    reports, rows = [], []
    for index, delta in enumerate(deltas):
        def request():
            server.submit(delta)
            return server.drain()[0]
        try:
            verdict = harness.timed("request", request, f"verdict#{index}",
                                    collect=False)
        except ServeError as exc:
            harness.failures.append(f"verdict#{index}: {exc}")
            continue
        report = verdict["report"]
        if not report["converged"]:
            harness.failures.append(f"verdict#{index}: did not converge")
        reports.append(report)
        rows.append({
            "kind": report["delta"]["kind"],
            "changed_entries": report["fibdiff"]["changed_entries"],
            "fork_s": verdict["timing"]["fork_seconds"]})
    harness.checks["deltas_move_routes"] = all(
        row["changed_entries"] > 0 for row in rows
        if row["kind"] != "session-reset")
    # The first delta again, untimed: a verdict must repeat exactly.
    server.submit(deltas[0])
    harness.checks["resubmission_identical"] = (
        len(reports) == len(deltas)
        and _sha(server.drain()[0]["report"]) == _sha(reports[0]))
    # Sorted by delta: the digest must not depend on request order.
    return {"verdict_rows": rows, "verdicts_digest": _sha(sorted(
        reports, key=lambda r: json.dumps(r["delta"], sort_keys=True)))}


def campaign_stage(harness: Harness, snap, count: int) -> dict:
    runner = CampaignRunner(snap, CampaignConfig(
        scenarios=count, batch=CAMPAIGN_BATCH, seed=CAMPAIGN_SEED,
        workers=0, monitor_spares=1))
    corpus = harness.timed("campaign", runner.run, "campaign#0",
                           operations=count)
    harness.checks["campaign_ran_all"] = (
        corpus.scenarios_run == len(runner.history) == count)
    return {"manifest_digest": _sha(corpus.manifest()),
            "campaign": {
                "scenarios": corpus.scenarios_run,
                "evaluations": corpus.stats["evaluations"],
                "scenario_walls": [row["wall"] for row in runner.history]}}


def run_flow(workload: str, seed: int, spec: dict, harness: Harness) -> dict:
    net, (fibs_at_boot, sim_mockup_s) = boot_stage(harness, workload, spec)
    churn_stage(harness, net, spec, fibs_at_boot)
    snap, server = image_stage(harness, net, spec)
    header = snap.describe()
    flow = {
        "fib_digest": fibs_at_boot, "verdicts_digest": "",
        "manifest_digest": "", "verdict_rows": [],
        "sim_mockup_s": sim_mockup_s,
        "event_seq": header["event_seq"],
        "payload_mb": header["payload_bytes"] / 2**20,
        "bgp_counts": {
            name: sum(sample["value"] for sample in net.metrics_dump()[
                f"repro_bgp_{name}_total"]["samples"])
            for name in ("updates_rx", "updates_tx", "decision_runs")},
    }
    if spec["kind"] == "verdict":
        flow.update(verdict_stage(harness, net, server, spec["requests"],
                                  seed))
    server.close()          # before a campaign materializes its own image
    if spec["kind"] == "campaign":
        flow.update(campaign_stage(harness, snap, spec["requests"]))
    return flow


# -- metrics -----------------------------------------------------------------

def _p50(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values: List[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def request_stats(walls: Dict[str, List[float]], flow: dict) -> dict:
    """Caller-observed request latency and throughput.

    A verdict's latency is its ``submit``-to-``drain`` wall.  A campaign
    exposes no per-request wall to its caller, so latency is the
    runner's own per-scenario wall (``history``: batch wall over batch
    size, minimization excluded) while throughput is scenarios over the
    whole ``run()`` wall, minimization included.
    """
    if "campaign" in flow:
        latencies = flow["campaign"]["scenario_walls"]
        count, total = flow["campaign"]["scenarios"], walls["campaign"][0]
    else:
        latencies = walls["request"]
        count, total = len(latencies), sum(latencies)
    return {"p50": _p50(latencies), "p90": _p90(latencies),
            "per_s": count / total if total else 0.0}


def end_to_end_metrics(walls: Dict[str, List[float]], flow: dict) -> dict:
    requests = request_stats(walls, flow)
    return {
        "cold_wall_s": (_p50(walls["boot"]), "s"),
        "churn_wall_s": (_p50(walls["churn"]), "s"),
        "capture_s": (_p50(walls["capture"]), "s"),
        "materialize_s": (_p50(walls["materialize"]), "s"),
        "request_p50_s": (requests["p50"], "s"),
        "request_p90_s": (requests["p90"], "s"),
        "requests_per_s": (requests["per_s"], "1/s"),
        "peak_rss_mb": (resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer_metrics(tracer, walls: Dict[str, List[float]],
                      flow: dict) -> dict:
    totals = tracer.top_level_totals()
    counters = totals["counters"]
    stages = [s for s in tracer.spans if s["parent"] is None]
    traced_wall = sum(s["end"] - s["start"] for s in stages)
    metrics = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.calls"] = (totals["calls"][layer], "count")
        metrics[f"{layer}.self_s"] = (totals["self_s"][layer], "s")
    added = (sum(totals["calls"].values()) * tracer.crossing_s
             + counters["trace.nested_calls"] * tracer.nested_s)
    boot_events = sum(s["counters"].get("sim.engine.events", 0)
                      for s in stages if s["name"] == "boot")
    rows = flow["verdict_rows"]
    latencies = walls.get("request", [])
    children = tracer.child_totals if rows else []
    by_kind = {kind: [] for kind in DELTA_KINDS}
    for row, latency in zip(rows, latencies):
        by_kind[row["kind"]].append(latency)
    campaign = flow.get("campaign", {"scenarios": 0, "evaluations": 0})
    campaign_wall = sum(walls.get("campaign", []))
    metrics.update({
        "sim.engine.events": (counters["sim.engine.events"], "count"),
        "sim.engine.us_per_event": (
            1e6 * sum(walls["boot"]) / boot_events if boot_events else 0.0,
            "us"),
        "sim.mockup_s": (flow["sim_mockup_s"], "sim-s"),
        "gc.collections": (totals["calls"]["gc"], "count"),
        "gc.gen2_collections": (counters["gc.gen2_collections"], "count"),
        "snapshot.state.payload_mb": (flow["payload_mb"], "MB"),
        "snapshot.deltas.changed_entries": (
            sum(row["changed_entries"] for row in rows), "count"),
        "serve.fork_s": (_p50([row["fork_s"] for row in rows]), "s"),
        "serve.child_s": (_p50(children), "s"),
        "serve.overhead_s": (_p50(
            [lat - child for lat, child in zip(latencies, children)]), "s"),
        **{f"serve.verdict_p50_s.{kind}": (_p50(values), "s")
           for kind, values in by_kind.items()},
        "campaign.evaluations": (campaign["evaluations"], "count"),
        "campaign.evals_per_s": (
            campaign["evaluations"] / campaign_wall if campaign_wall else 0.0,
            "1/s"),
        "campaign.minimize_share": (
            1 - campaign["scenarios"] / campaign["evaluations"]
            if campaign["evaluations"] else 0.0, "ratio"),
        **{f"firmware.bgp.daemon.{name}": (value, "count")
           for name, value in flow["bgp_counts"].items()},
        "trace.wall_s": (traced_wall, "s"),
        "trace.attributed_share": (
            1 - totals["self_s"]["bench"] / traced_wall, "ratio"),
        "trace.overhead_ratio": (traced_wall / (traced_wall - added), "ratio"),
    })
    return metrics


# -- entry point -------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once set-up is done (times set-up)")
    parser.add_argument("--trace-out",
                        help="write the traced run's spans here (JSON)")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = layers.tracer()
        tracer.install()
    ready_at = time.time()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    spec = plan(args.workload, args.seconds, args.quick)
    harness = Harness(tracer)
    flow = run_flow(args.workload, args.seed, spec, harness)
    if tracer is None:
        metrics = end_to_end_metrics(harness.walls, flow)
    else:
        metrics = per_layer_metrics(tracer, harness.walls, flow)
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                json.dump({"layers": tracer.names, "spans": tracer.spans},
                          fh)
    doc = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "quick": args.quick,
        "ready_at": ready_at, "plan": spec,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "stage_walls": harness.walls,
        "verdict_rows": flow["verdict_rows"],
        "digests": {key: flow[key] for key in
                    ("fib_digest", "verdicts_digest", "manifest_digest")},
        "sim_mockup_s": flow["sim_mockup_s"],
        "events": flow["event_seq"],
        "checks": harness.checks,
        "attempted": harness.attempted,
        "failed": len(harness.failures),
        "failures": harness.failures,
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
