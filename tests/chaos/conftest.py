"""Shared builders for the chaos regression suite.

Every scenario needs the same substrate: a mocked-up clos emulation with a
health monitor attached.  Seeds are pinned per test so failures replay
exactly; a short post-mockup run lets the spare pool fill and keepalive
schedules settle before faults start.
"""

import dataclasses

import pytest

from repro.core import CrystalNet, HealthMonitor
from repro.topology import SDC, build_clos


def build_emulation(emulation_id, seed, *, spares=1, check_interval=5.0,
                    mockup=True, settle=200.0, vendors=None):
    params = SDC() if vendors is None else dataclasses.replace(
        SDC(), vendors=vendors)
    net = CrystalNet(emulation_id=emulation_id, seed=seed)
    net.prepare(build_clos(params))
    if mockup:
        net.mockup()
    monitor = HealthMonitor(net, check_interval=check_interval, spares=spares)
    monitor.start()
    if mockup and settle:
        net.run(settle)
    return net, monitor


@pytest.fixture
def emulation_factory():
    return build_emulation
