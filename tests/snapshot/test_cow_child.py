"""Copy-on-write children that fail to deliver, and what they cost.

A verdict or scenario runs in an ``os.fork`` child of the materialized
image (:func:`repro.snapshot.cow_call`).  Whatever stops that child
from delivering — ``fork()`` refused, the child killed part-way through
writing its result — must end in the caller's typed error naming the
lost work, never in a raw ``OSError``/``UnpicklingError`` or a leaked
descriptor; and every verdict reports what its child cost.
"""

import errno
import os
import pickle
import re
import signal

import pytest

from repro.campaign import CampaignConfig
from repro.campaign.worker import CampaignError, ScenarioEvaluator
from repro.chaos import FaultSchedule
from repro.serve import ServeError, WhatIfServer
from repro.snapshot import LinkCut

from .conftest import spine_link

if not hasattr(os, "fork"):  # pragma: no cover
    pytest.skip("copy-on-write children need fork", allow_module_level=True)


def half_written_then_killed(obj, fh, protocol=None):
    """``pickle.dump`` for a child that dies mid-write: half the bytes
    reach the pipe, then SIGKILL."""
    blob = pickle.dumps(obj, protocol=protocol)
    fh.write(blob[:len(blob) // 2])
    fh.flush()
    os.kill(os.getpid(), signal.SIGKILL)


def refused_fork():
    raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def sent_bytes(message: str) -> int:
    return int(re.search(r"after sending (\d+) bytes", message).group(1))


def test_verdict_child_killed_mid_write(warm_lab, monkeypatch):
    _mix, net, snap = warm_lab
    with WhatIfServer(snap) as server:
        server.materialize()
        server.submit(LinkCut(*spine_link(net)))
        monkeypatch.setattr(pickle, "dump", half_written_then_killed)
        with pytest.raises(ServeError,
                           match=r"^ticket 0: the child was killed by "
                                 r"SIGKILL") as excinfo:
            server.drain()
    assert sent_bytes(str(excinfo.value)) > 0


def test_scenario_child_killed_mid_write(warm_lab, monkeypatch):
    _mix, _net, snap = warm_lab
    with ScenarioEvaluator(snap, CampaignConfig(workers=0)) as evaluator:
        evaluator._materialize()
        monkeypatch.setattr(pickle, "dump", half_written_then_killed)
        with pytest.raises(CampaignError,
                           match=r"^scenario \(schedule seed 5\): the child "
                                 r"was killed by SIGKILL") as excinfo:
            evaluator.eval_one(FaultSchedule([], seed=5))
    assert sent_bytes(str(excinfo.value)) > 0


def test_refused_fork_leaks_no_descriptor(warm_lab, monkeypatch):
    _mix, net, snap = warm_lab
    with WhatIfServer(snap) as server, \
            ScenarioEvaluator(snap, CampaignConfig(workers=0)) as evaluator:
        server.materialize()
        evaluator._materialize()
        server.submit(LinkCut(*spine_link(net)))
        before = open_fds()
        monkeypatch.setattr(os, "fork", refused_fork)
        with pytest.raises(ServeError, match=r"^ticket 0: cannot fork"):
            server.drain()
        with pytest.raises(CampaignError,
                           match=r"^scenario \(schedule seed 6\): cannot "
                                 r"fork"):
            evaluator.eval_one(FaultSchedule([], seed=6))
        assert open_fds() == before


def test_verdict_timing_reports_the_child_cost(warm_lab):
    _mix, net, snap = warm_lab
    with WhatIfServer(snap) as server:
        server.submit(LinkCut(*spine_link(net)))
        verdict, = server.drain()
    timing = verdict["timing"]
    assert timing["child_cpu_seconds"] > 0
    assert timing["child_minor_faults"] > 0
    assert 0 < timing["fork_seconds"] <= timing["verdict_seconds"]
