"""``repro.sim.gcpolicy``: the bulk-phase scope and freeze ownership.

The policy's contract: no full (generation-2) collection starts inside
a bulk phase, the interpreter's own GC settings come back exactly as
the caller left them, garbage is deferred rather than leaked, and the
process-wide freeze is thawed by the last holder only.
"""

import contextlib
import gc
import weakref

import pytest

from repro.campaign import CampaignConfig, CampaignRunner
from repro.core import CrystalNet
from repro.serve import WhatIfServer
from repro.sim import Environment, gcpolicy
from repro.snapshot import SessionReset, SnapshotError, fork, snapshot
from repro.topology import SDC, build_clos


@contextlib.contextmanager
def full_collections():
    """Counts generation-2 collections started while the block runs."""
    seen = []

    def probe(phase, info):
        if phase == "start" and info["generation"] == 2:
            seen.append(info)

    gc.callbacks.append(probe)
    try:
        yield seen
    finally:
        gc.callbacks.remove(probe)


@contextlib.contextmanager
def gc_settings(enabled: bool, thresholds: tuple):
    """Run the block under distinctive GC settings, then put the
    session's own back."""
    was_enabled, was_thresholds = gc.isenabled(), gc.get_threshold()
    (gc.enable if enabled else gc.disable)()
    gc.set_threshold(*thresholds)
    try:
        yield
    finally:
        gc.set_threshold(*was_thresholds)
        (gc.enable if was_enabled else gc.disable)()


def prepared_net(emulation_id: str) -> CrystalNet:
    net = CrystalNet(emulation_id=emulation_id, seed=11)
    net.prepare(build_clos(SDC()))
    return net


def first_session(net) -> SessionReset:
    spine = sorted(n for n in net.emulated if n.startswith("spn-"))[0]
    peer = net.configs[spine].bgp.neighbors[0].peer_ip
    return SessionReset(spine, str(peer))


@pytest.fixture(scope="module")
def lab():
    net = prepared_net("t-gcpolicy")
    net.mockup()
    return net, snapshot(net)


# -- no full collection inside a bulk phase ----------------------------------

def double_the_heap(kept: list) -> None:
    """At least double the number of live containers: undeferred, the
    collector starts a full pass once ~85k allocations (11 x 11 x 700)
    have grown the heap by a quarter."""
    kept.extend([] for _ in range(max(300_000, len(gc.get_objects()))))


def run_doubling_the_heap() -> list:
    """One ``Environment.run()`` whose callback doubles the heap;
    returns the full passes it saw."""
    env = Environment()
    env.call_later(1.0, double_the_heap, [])
    gc.collect()
    with full_collections() as seen:
        env.run()
    return seen


def test_probe_sees_the_collections_the_scope_defers(monkeypatch):
    """Control: the same run without the scope does pay full passes, so
    the zeros below are the scope's doing, not a blind probe."""
    monkeypatch.setattr(gcpolicy, "bulk_phase", contextlib.nullcontext)
    assert run_doubling_the_heap()


def test_no_full_collection_inside_a_run():
    assert not run_doubling_the_heap()


def test_no_full_collection_inside_bulk_phases():
    net = prepared_net("t-gcpolicy-phases")
    # Each phase starts from a collected heap, as a caller that had just
    # crossed a phase boundary would.
    gc.collect()
    with full_collections() as seen:
        net.mockup()
    assert not seen, "mockup()"

    first_session(net).apply(net)
    gc.collect()
    with full_collections() as seen:
        net.converge()
    assert not seen, "converge()"

    gc.collect()
    with full_collections() as seen:
        snap = snapshot(net)
    assert not seen, "snapshot()"

    gc.collect()
    with full_collections() as seen:
        fork(snap)
    assert not seen, "fork()"


def test_materialize_collects_before_the_unpickle_only(lab, monkeypatch):
    _net, snap = lab
    at_fork = []
    with full_collections() as seen:
        def counting_fork(snap):
            at_fork.append(len(seen))
            return fork(snap)
        monkeypatch.setattr("repro.serve.fork", counting_fork)
        with WhatIfServer(snap) as server:
            server.materialize()
            # The one explicit purge ran before the image existed; the
            # image itself is frozen, never walked.
            assert at_fork == [1] and len(seen) == 1
            assert gc.get_freeze_count() > 0


# -- the caller's settings come back bit for bit ------------------------------

@pytest.mark.parametrize("enabled", [True, False],
                         ids=["gc-enabled", "gc-disabled-like-a-cow-child"])
def test_settings_restored_after_normal_exit(enabled):
    with gc_settings(enabled, (701, 11, 12)):
        env = Environment()
        inside = []
        env.call_later(1.0, lambda: inside.append(
            (gc.isenabled(), gc.get_threshold())))
        env.run()
        assert gc.isenabled() is enabled
        assert gc.get_threshold() == (701, 11, 12)
    (was_enabled, thresholds), = inside
    assert was_enabled is enabled          # the scope never flips it
    assert thresholds[:2] == (701, 11)     # young generations untouched
    assert thresholds[2] > 10 ** 9         # full passes deferred


def test_settings_restored_when_nested():
    with gc_settings(True, (702, 12, 13)):
        with gcpolicy.bulk_phase():
            deferred = gc.get_threshold()
            with gcpolicy.bulk_phase():
                Environment().run(until=5.0)
                assert gc.get_threshold() == deferred
            # Leaving an inner scope must not resume full collections.
            assert gc.get_threshold() == deferred
        assert gc.get_threshold() == (702, 12, 13)


def test_settings_restored_after_exceptions(lab):
    net, _snap = lab
    with gc_settings(True, (703, 13, 14)):
        def boom():
            raise ValueError("callback failed")
        env = Environment()
        env.call_later(1.0, boom)
        with pytest.raises(ValueError):
            env.run()
        assert gc.get_threshold() == (703, 13, 14)

        busy = fork(snapshot(net))
        first_session(busy).apply(busy)
        with pytest.raises(SnapshotError, match="not quiescent"):
            snapshot(busy)
        assert gc.get_threshold() == (703, 13, 14)
        assert gc.isenabled()


# -- deferral, not a leak -----------------------------------------------------

class _Node:
    def __init__(self):
        self.ring = self


def test_cycle_dropped_mid_run_is_reclaimed_by_the_next_full_pass():
    env = Environment()
    held, alive = [], []

    def plant():
        node = _Node()
        held.append(node)
        alive.append(weakref.ref(node))
        del node
        gc.collect(1)       # survives young collections: now old
        held.clear()        # ... and garbage only a full pass can see

    env.call_later(1.0, plant)
    env.call_later(2.0, double_the_heap, [])
    with full_collections() as seen:
        env.run()
    assert not seen
    assert alive[0]() is not None
    gc.collect()
    assert alive[0]() is None


# -- freeze ownership ---------------------------------------------------------

def test_last_holder_thaws(lab):
    _net, snap = lab
    assert gcpolicy._holders == 0 and gc.get_freeze_count() == 0
    first, second = WhatIfServer(snap), WhatIfServer(snap)
    first.materialize()
    second.materialize()
    runner = CampaignRunner(snap, CampaignConfig(
        scenarios=2, batch=2, seed=3, workers=0, monitor_spares=1))
    runner.run()            # materializes and releases its own image
    assert gc.get_freeze_count() > 0
    first.close()
    assert gc.get_freeze_count() > 0, \
        "closing one server thawed the image the other still serves from"
    first.close()           # idempotent: must not release twice
    assert gcpolicy._holders == 1
    second.close()
    assert gcpolicy._holders == 0 and gc.get_freeze_count() == 0


def test_failed_build_holds_nothing():
    with pytest.raises(KeyError):
        with gcpolicy.frozen_image():
            raise KeyError("build failed")
    assert gcpolicy._holders == 0 and gc.get_freeze_count() == 0
    with pytest.raises(RuntimeError, match="without"):
        gcpolicy.release_image()
