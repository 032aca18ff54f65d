"""``repro.sim.gcpolicy``: the bulk-phase scope and freeze ownership.

The policy's contract: no full (generation-2) collection starts inside
a bulk phase, no collection of any generation starts while a warm image
is built or a snapshot pickled, the interpreter's own GC settings come
back exactly as the caller left them, garbage is deferred rather than
leaked, and the process-wide freeze is thawed by the last holder only.
"""

import contextlib
import gc
import json
import pickle
import weakref

import pytest

from repro.campaign import CampaignConfig, CampaignRunner
from repro.campaign.worker import ScenarioEvaluator
from repro.core import CrystalNet
from repro.serve import WhatIfServer
from repro.sim import Environment, gcpolicy
from repro.snapshot import SessionReset, SnapshotError, fork, snapshot
from repro.topology import SDC, build_clos


@contextlib.contextmanager
def full_collections(generations=(2,)):
    """Counts collections of ``generations`` started while the block
    runs (by default full, generation-2 ones)."""
    seen = []

    def probe(phase, info):
        if phase == "start" and info["generation"] in generations:
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


def build_images(snap, monkeypatch) -> list:
    """Every collection started while a server and a campaign evaluator
    materialize ``snap``, and while ``snapshot()`` pickles the server's
    image.  Not counted: the last holder's release, which collects by
    design, and the one young pass the pickle's allocation count may
    start right after it."""
    server = WhatIfServer(snap)
    evaluator = ScenarioEvaluator(snap, CampaignConfig(workers=0))
    dumps = pickle.dumps
    def probed_dumps(*args, **kwargs):
        with full_collections(generations=(0, 1, 2)) as inside:
            payload = dumps(*args, **kwargs)
        seen.extend(inside)
        return payload

    try:
        with full_collections(generations=(0, 1, 2)) as seen:
            server.materialize()
            evaluator._materialize()
        assert gc.get_freeze_count() > 0
        with monkeypatch.context() as patched:
            patched.setattr(pickle, "dumps", probed_dumps)
            snapshot(server._net)
    finally:
        evaluator.close()
        server.close()
    return seen


def test_probe_sees_the_collections_the_build_scope_stops(lab, monkeypatch):
    """Control: without the scope the same builds do start collections,
    so the zero below is the scope's doing, not a blind probe."""
    _net, snap = lab
    monkeypatch.setattr(gcpolicy, "collector_stopped", contextlib.nullcontext)
    assert build_images(snap, monkeypatch)


def test_images_and_snapshots_start_no_collection(lab, monkeypatch):
    _net, snap = lab
    assert not build_images(snap, monkeypatch)
    # The freeze emptied the young generations the build filled, so no
    # pass is left owing either.
    assert gcpolicy._holders == 0 and gc.get_freeze_count() == 0


def test_the_image_is_frozen_as_it_is_built(lab):
    _net, snap = lab
    with WhatIfServer(snap) as server:
        server.materialize()
        # gc.get_objects() lists generations 0-2, never the permanent one.
        tracked = {id(obj) for obj in gc.get_objects()}
        assert id(server._net) not in tracked
        assert id(server._cache.memo) not in tracked
        # The freeze also emptied the young generation the build filled.
        assert gc.get_count()[0] < 700


def warm_path(net, snap) -> tuple:
    """The warm path's observable output: a snapshot payload, the FIB
    render a materialized image starts from, and one verdict."""
    with WhatIfServer(snap) as server:
        server.materialize()
        fibs = json.dumps(server._cache(server._net), sort_keys=True)
        server.submit(first_session(net))
        reports = [verdict["report"] for verdict in server.drain()]
    return snapshot(net).payload, fibs, reports


def test_scopes_change_no_warm_state(lab, monkeypatch):
    net, snap = lab
    scoped = warm_path(net, snap)
    monkeypatch.setattr(gcpolicy, "bulk_phase", contextlib.nullcontext)
    monkeypatch.setattr(gcpolicy, "collector_stopped", contextlib.nullcontext)
    assert warm_path(net, snap) == scoped


# -- the caller's settings come back bit for bit ------------------------------

def inside_a_run(_net, probe) -> None:
    env = Environment()
    env.call_later(1.0, probe)
    env.run()


def inside_an_image_build(_net, probe) -> None:
    with gcpolicy.frozen_image():
        probe()
    gcpolicy.release_image()


def inside_a_snapshot(net, probe, monkeypatch) -> None:
    dumps = pickle.dumps

    def probing_dumps(*args, **kwargs):
        probe()
        return dumps(*args, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(pickle, "dumps", probing_dumps)
        snapshot(net)


def deferring_full_passes(thresholds) -> bool:
    return thresholds[:2] == (701, 11) and thresholds[2] > 10 ** 9


def stopped(thresholds) -> bool:
    return thresholds == (0, 11, 12)


SCOPES = {
    "run": (inside_a_run, deferring_full_passes),
    "frozen-image": (inside_an_image_build, stopped),
    "snapshot": (inside_a_snapshot, stopped),
}


@pytest.mark.parametrize("enabled", [True, False],
                         ids=["gc-enabled", "gc-disabled-like-a-cow-child"])
def test_settings_restored_after_normal_exit(enabled, lab, monkeypatch):
    net, _snap = lab
    for scope, (enter, expected_inside) in SCOPES.items():
        args = (monkeypatch,) if scope == "snapshot" else ()
        with gc_settings(enabled, (701, 11, 12)):
            inside = []
            enter(net, lambda: inside.append(
                (gc.isenabled(), gc.get_threshold())), *args)
            assert gc.isenabled() is enabled, scope
            assert gc.get_threshold() == (701, 11, 12), scope
        (was_enabled, thresholds), = inside
        assert was_enabled is enabled, scope   # the scope never flips it
        assert expected_inside(thresholds), (scope, thresholds)


def test_settings_restored_when_nested(lab):
    net, _snap = lab
    with gc_settings(True, (702, 12, 13)):
        with gcpolicy.bulk_phase():
            deferred = gc.get_threshold()
            with gcpolicy.bulk_phase():
                Environment().run(until=5.0)
                assert gc.get_threshold() == deferred
            # Leaving an inner scope must not resume full collections.
            assert gc.get_threshold() == deferred
            snapshot(net)
            assert gc.get_threshold() == deferred
            with gcpolicy.frozen_image():
                assert gc.get_threshold() == (0,) + deferred[1:]
                # fork() opens a bulk phase inside the build.
                fork(snapshot(net))
                assert gc.get_threshold() == (0,) + deferred[1:]
            gcpolicy.release_image()
            assert gc.get_threshold() == deferred
        assert gc.get_threshold() == (702, 12, 13)
        with gcpolicy.frozen_image():
            with gcpolicy.bulk_phase():
                assert gc.get_threshold() == (0, 12, gcpolicy._NEVER)
            with gcpolicy.collector_stopped():
                assert gc.get_threshold() == (0, 12, 13)
            assert gc.get_threshold() == (0, 12, 13)
        gcpolicy.release_image()
        assert gc.get_threshold() == (702, 12, 13)


class _Unpicklable:
    def __reduce__(self):
        raise TypeError("refuses to pickle")


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

        broken = fork(snapshot(net))
        broken.unpicklable = _Unpicklable()
        with pytest.raises(SnapshotError, match="not serializable"):
            snapshot(broken)
        assert gc.get_threshold() == (703, 13, 14)

        with pytest.raises(KeyError):
            with gcpolicy.frozen_image():
                raise KeyError("build failed")
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


def test_garbage_predating_an_image_is_reclaimed_by_its_last_release(lab):
    _net, snap = lab
    node = _Node()
    alive = weakref.ref(node)
    del node                # garbage only a collection can see
    assert gcpolicy._holders == 0
    with WhatIfServer(snap) as first, WhatIfServer(snap) as second:
        first.materialize()
        second.materialize()
        gc.collect()        # the cycle was frozen with the image
        assert alive() is not None
        first.close()
        gc.collect()
        assert alive() is not None
        second.close()      # the last release thaws and collects
        assert alive() is None


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
