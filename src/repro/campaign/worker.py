"""Scenario execution: warm forks, COW children, and the explorer pool.

Mirrors :mod:`repro.serve`'s engine: the campaign driver materializes
the warm snapshot into a live emulation **once**, then evaluates every
scenario in an ``os.fork`` child that inherits the converged image
copy-on-write, runs the fault schedule against its private copy, and
pipes the pickled :func:`run_scenario` result back before ``_exit``.
``workers=N`` spawns N explorer processes (fork start method, so they
share the materialized image too) draining a scenario queue — the
many-cheap-explorers half of the architecture; the driver process is
the one prioritizer.  Platforms without ``os.fork`` transparently fall
back to unpickling the snapshot per scenario: slower, identical
results.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import time
import traceback
from typing import List, Optional, Tuple, TYPE_CHECKING

from ..chaos import ChaosEngine, FaultSchedule
from ..sim import gcpolicy
from ..snapshot import Snapshot, cow_call, discard, fork
from .signature import scenario_signature, signature_hash

if TYPE_CHECKING:  # pragma: no cover
    from .runner import CampaignConfig

__all__ = ["CampaignError", "ScenarioEvaluator", "run_scenario"]

_HAS_COW = hasattr(os, "fork")

# Result-queue poll granularity and the post-death silence window after
# which the pool is declared broken (same rationale as repro.serve:
# surviving explorers may still be draining the backlog).
_DEAD_POLL = 1.0
_DEAD_GRACE = 15.0
_RESULT_TIMEOUT = 600.0


class CampaignError(Exception):
    """Campaign runner failure (dead explorer, broken scenario child...)."""


def run_scenario(net, schedule: FaultSchedule,
                 cfg: "CampaignConfig") -> dict:
    """Drive one fault schedule on a (forked) emulation; pure data out.

    The result dict is a pure function of (snapshot, schedule, config):
    coverage elements, their hash, the pinned replayable report, and
    sim-clock bookkeeping — no wall-clock values.
    """
    started = net.env.now
    monitor = None
    if cfg.monitor_spares is not None:
        from ..core.health import HealthMonitor
        monitor = HealthMonitor(net, check_interval=cfg.monitor_interval,
                                spares=cfg.monitor_spares)
        monitor.start()
        if cfg.monitor_settle > 0:
            net.run(cfg.monitor_settle)
    net.enable_timeline()
    engine = ChaosEngine(net, monitor=monitor, seed=schedule.seed,
                         spec=cfg.spec)
    report = engine.run(schedule=schedule)
    elements = scenario_signature(engine, report)
    return {
        "elements": list(elements),
        "sig_hash": signature_hash(elements),
        "report_json": report.to_json(),
        "faults": len(report.faults),
        "recovered": sum(1 for f in report.faults if f.recovered),
        "sim_seconds": round(net.env.now - started, 3),
    }


def _cow_eval(net, schedule: FaultSchedule, cfg: "CampaignConfig") -> dict:
    """One scenario in a copy-on-write child of the materialized net
    (:func:`repro.snapshot.cow_call`)."""
    result, _cost = cow_call(lambda: run_scenario(net, schedule, cfg),
                             f"scenario (schedule seed {schedule.seed})",
                             CampaignError)
    return result


def _pool_worker(snap: Snapshot, net, cfg, requests, results) -> None:
    """Explorer main loop: (index, schedule) in, (index, result) out."""
    while True:
        item = requests.get()
        if item is None:
            return
        index, schedule = item
        try:
            if net is not None:
                result = _cow_eval(net, schedule, cfg)
            else:
                result = run_scenario(fork(snap), schedule, cfg)
            results.put(("ok", index, result))
        except Exception:
            results.put(("error", index, traceback.format_exc()))


class ScenarioEvaluator:
    """Deterministic scenario evaluation over one warm snapshot."""

    def __init__(self, snap: Snapshot, cfg: "CampaignConfig"):
        self.snap = snap
        self.cfg = cfg
        self.evals = 0
        self._net = None
        self._procs: List[multiprocessing.Process] = []
        self._requests = None
        self._results = None
        if cfg.workers and _HAS_COW and cfg.use_cow:
            self._materialize()
            ctx = multiprocessing.get_context("fork")
            self._requests = ctx.Queue()
            self._results = ctx.Queue()
            for i in range(cfg.workers):
                proc = ctx.Process(
                    target=_pool_worker,
                    args=(snap, self._net, cfg, self._requests,
                          self._results),
                    name=f"repro-campaign-{i}", daemon=True)
                proc.start()
                self._procs.append(proc)

    def _materialize(self) -> None:
        if self._net is None:
            with gcpolicy.frozen_image():
                net = fork(self.snap)
            self._net = net

    # -- evaluation --------------------------------------------------------

    def eval_one(self, schedule: FaultSchedule) -> dict:
        """One scenario, in this process's COW child (or a fresh fork)."""
        self.evals += 1
        if _HAS_COW and self.cfg.use_cow:
            self._materialize()
            return _cow_eval(self._net, schedule, self.cfg)
        return run_scenario(fork(self.snap), schedule, self.cfg)

    def eval_batch(self, items: List[Tuple[int, FaultSchedule]]
                   ) -> List[Tuple[int, dict]]:
        """Evaluate a batch; always returns results in index order, so
        corpus evolution is independent of explorer completion order."""
        if not self._procs:
            return [(index, self.eval_one(schedule))
                    for index, schedule in items]
        for item in items:
            self._requests.put(item)
        self.evals += len(items)
        collected = {}
        errors: List[str] = []
        outstanding = len(items)
        deadline = time.monotonic() + _RESULT_TIMEOUT
        silent_since = time.monotonic()
        while outstanding:
            try:
                status, index, payload = self._results.get(
                    timeout=_DEAD_POLL)
            except queue.Empty:
                now = time.monotonic()
                dead = [p for p in self._procs if not p.is_alive()]
                if dead and (len(dead) == len(self._procs)
                             or now - silent_since >= _DEAD_GRACE):
                    names = ", ".join(
                        f"{p.name} (exitcode {p.exitcode})" for p in dead)
                    raise CampaignError(
                        f"campaign explorer(s) died holding scenarios: "
                        f"{names}; {outstanding} result(s) lost") from None
                if now >= deadline:
                    raise CampaignError(
                        f"no scenario result within {_RESULT_TIMEOUT}s "
                        f"({outstanding} outstanding)") from None
                continue
            silent_since = time.monotonic()
            outstanding -= 1
            if status == "ok":
                collected[index] = payload
            else:
                errors.append(f"scenario {index}: {payload}")
        if errors:
            raise CampaignError("scenario(s) failed:\n" + "\n".join(errors))
        return sorted(collected.items())

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        for _ in self._procs:
            self._requests.put(None)
        for proc in self._procs:
            proc.join(timeout=10.0)
            if proc.is_alive():
                proc.terminate()
        self._procs = []
        if self._net is not None:
            discard(self._net, site="campaign-close")
            self._net = None
            gcpolicy.release_image()

    def __enter__(self) -> "ScenarioEvaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
