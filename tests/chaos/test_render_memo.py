"""Render reuse is invisible: a chaos run with the shared render memo
must be byte-identical to one that renders every read fresh.

The chaos engine and its invariant checker share one caller-owned memo
(``InvariantChecker.memo``) for golden capture, ``check()`` and every
timeline sample; ``memo = None`` is the render-everything-fresh path.
The pinned schedule covers every fault that replaces or rewrites a
device's tables: a VM crash recovered onto a warm spare (new FIB and
Loc-RIB objects), a firmware crash and restart (container OOM), a
corrupted config reload and its repair, a BGP session reset, and a link
flap.  Both vendor orders run, since vendor timers shape the churn.
"""

import pytest

from repro.chaos import (ChaosEngine, ChaosSpec, Fault, FaultSchedule,
                         InvariantChecker)
from tests.chaos.conftest import build_emulation

pytestmark = pytest.mark.chaos

VENDOR_ORDERS = {
    "default": None,
    "inverted": {"tor": "ctnr-a", "leaf": "ctnr-b", "spine": "ctnr-b",
                 "border": "ctnr-b", "wan": "vm-b"},
}

SPEC = ChaosSpec(recovery_timeout=2400.0)

SCHEDULE = FaultSchedule([
    Fault(kind="vm-crash", time=20.0, target="cx-memo-vm1"),
    Fault(kind="container-oom", time=400.0, pick=0.3),
    Fault(kind="reload-failure", time=800.0, pick=0.6),
    Fault(kind="bgp-reset", time=1200.0, pick=0.45),
    Fault(kind="link-flap", time=1600.0, pick=0.7),
], seed=350)


def _run(vendors, memoized):
    net, monitor = build_emulation("cx-memo", 350, vendors=vendors)
    net.enable_timeline()
    checker = InvariantChecker(net, monitor)
    if not memoized:
        checker.memo = None
    engine = ChaosEngine(net, monitor, seed=350, spec=SPEC, checker=checker)
    samples, reused, last = [], [], {}
    if memoized:
        # Every memoized sample must equal a fresh PullStates read; count
        # the FIB renders handed back unchanged (same object) as well.
        pull = net.pull_states

        def checked_pull(device=None, memo=None):
            states = pull(device, memo=memo)
            if memo is not None:
                samples.append(states == pull(device))
                for name, doc in states.items():
                    fib = doc.get("fib")
                    reused.append(fib is not None and last.get(name) is fib)
                    last[name] = fib
            return states

        net.pull_states = checked_pull
    report = engine.run(schedule=SCHEDULE)
    fresh_fibs = {name: record.guest.pull_fib()
                  for name, record in net.devices.items()
                  if record.kind != "speaker"}
    return {
        "report": report.to_json(),
        "verdicts": [[v.to_dict() for v in f.invariants]
                     for f in report.faults],
        "timeline": net.timeline.to_json(),
        "blast": engine.blast_report(),
        "samples": samples,
        "reused": reused,
        "fibs_match": checker._current_fibs() == fresh_fibs,
        "kinds": {f.kind for f in report.faults
                  if f.target not in ("", "(none)")},
        "spare_swaps": sum(1 for a in monitor.alerts
                           if a.kind == "spare-swap"),
    }


@pytest.fixture(scope="module", params=sorted(VENDOR_ORDERS))
def runs(request):
    vendors = VENDOR_ORDERS[request.param]
    return _run(vendors, memoized=True), _run(vendors, memoized=False)


def test_schedule_exercises_every_table_replacing_fault(runs):
    memo, _ = runs
    assert memo["kinds"] == {"vm-crash", "container-oom", "reload-failure",
                             "bgp-reset", "link-flap"}
    assert memo["spare_swaps"] >= 1    # the VM crash landed on a spare


def test_report_and_verdicts_byte_identical(runs):
    memo, fresh = runs
    assert memo["report"] == fresh["report"]
    assert memo["verdicts"] == fresh["verdicts"]


def test_timeline_and_blast_byte_identical(runs):
    memo, fresh = runs
    assert memo["timeline"] == fresh["timeline"]
    assert memo["blast"] == fresh["blast"]
    assert '"churned_prefixes": 0,' not in memo["blast"]    # real churn


def test_every_memoized_sample_equals_a_fresh_read(runs):
    memo, fresh = runs
    assert memo["samples"] and all(memo["samples"])
    assert sum(memo["reused"]) > len(memo["reused"]) // 2   # memo is live
    assert not fresh["samples"]
    assert memo["fibs_match"] and fresh["fibs_match"]
