"""Snapshot refusals: every way a warm snapshot must fail loudly.

A warm snapshot that silently captured a half-converged, mid-window, or
generator-owning emulation would produce forks whose verdicts are
fiction.  These tests pin each guard.
"""

import pytest

from repro.core import CrystalNet
from repro.obs.schema import SCHEMA_VERSION, SchemaMismatch
from repro.provenance.dump import dump_json
from repro.sim.shard import ShardError
from repro.snapshot import Snapshot, SnapshotError, fork, load, save, snapshot
from repro.snapshot.state import PAYLOAD_FORMAT
from repro.topology import SDC, build_clos


def test_refuses_before_mockup():
    net = CrystalNet(emulation_id="t-refuse-cold", seed=11)
    net.prepare(build_clos(SDC()))
    with pytest.raises(SnapshotError, match="mockup"):
        snapshot(net)
    net.destroy()


def test_refuses_live_generator_process(warm_lab):
    """Generator processes (health monitor, in-flight reload) own
    unpicklable frames and mean the network is mid-transition."""
    mix, net, snap = warm_lab
    twin = fork(snap)

    def loiter():
        yield twin.env.timeout(30.0)

    twin.env.process(loiter(), name="test-loiterer")
    with pytest.raises(SnapshotError, match="test-loiterer"):
        snapshot(twin)


def test_refuses_sharded_backend():
    net = CrystalNet(emulation_id="t-refuse-shard", seed=11, shards=1)
    try:
        net.prepare(build_clos(SDC()))
        net.mockup()
        with pytest.raises(ShardError, match="snapshot"):
            snapshot(net)
    finally:
        net.close()


def test_fork_refuses_cold_descriptor_kind():
    cold = Snapshot(header={"schema_version": SCHEMA_VERSION,
                            "kind": "cold-snapshot"},
                    payload=b"")
    with pytest.raises(SnapshotError, match="cold"):
        fork(cold)


def test_fork_refuses_schema_mismatch():
    alien = Snapshot(header={"schema_version": SCHEMA_VERSION + 999,
                             "kind": "warm-snapshot"},
                     payload=b"")
    with pytest.raises(SchemaMismatch):
        fork(alien)


def test_load_refuses_garbage(tmp_path):
    path = tmp_path / "garbage.snap"
    path.write_bytes(b"this is not a snapshot at all\n" * 4)
    with pytest.raises(SnapshotError, match="not a warm snapshot"):
        load(str(path))


def test_load_refuses_corrupt_header(tmp_path):
    path = tmp_path / "corrupt.snap"
    path.write_bytes(b"repro-warm-snapshot\n{not json\n")
    with pytest.raises(SnapshotError, match="corrupt"):
        load(str(path))


def test_load_refuses_truncated_payload(warm_lab, tmp_path):
    mix, net, snap = warm_lab
    path = tmp_path / "truncated.snap"
    save(snap, str(path))
    whole = path.read_bytes()
    path.write_bytes(whole[:-1024])
    with pytest.raises(SnapshotError, match="truncated"):
        load(str(path))


# A payload that cannot unpickle: a format check that ran after
# pickle.loads would surface UnpicklingError, not SnapshotError.
_NOT_A_PICKLE = b"not a pickle"


def _with_format(snap, payload_format):
    """``snap``'s header with ``payload_format`` replaced; ``None``
    drops the field, as headers written before it existed lack it."""
    header = {k: v for k, v in snap.header.items()
              if k != "payload_format"}
    if payload_format is not None:
        header["payload_format"] = payload_format
    return Snapshot(header=header, payload=_NOT_A_PICKLE)


def _write(snap, path) -> str:
    # save() writes whatever header it is given, so it can forge one.
    save(snap, str(path))
    return str(path)


def test_refuses_payload_without_format_field(warm_lab, tmp_path):
    """A header shaped like the ones written before the payload layout
    was stamped (dataclass-state hops in flat chain tuples) is refused
    by name, before its payload is unpickled."""
    mix, net, snap = warm_lab
    old = _with_format(snap, None)
    expected = f"payload format none .* expected format {PAYLOAD_FORMAT}"
    with pytest.raises(SnapshotError, match=expected):
        fork(old)
    with pytest.raises(SnapshotError, match=expected):
        load(_write(old, tmp_path / "old.snap"))


def test_refuses_other_payload_format(warm_lab, tmp_path):
    mix, net, snap = warm_lab
    other = _with_format(snap, PAYLOAD_FORMAT + 1)
    expected = (f"payload format {PAYLOAD_FORMAT + 1} is not the expected "
                f"format {PAYLOAD_FORMAT}")
    with pytest.raises(SnapshotError, match=expected):
        fork(other)
    with pytest.raises(SnapshotError, match=expected):
        load(_write(other, tmp_path / "other.snap"))


def test_stamped_snapshot_saves_loads_and_forks(warm_lab, tmp_path):
    mix, net, snap = warm_lab
    assert snap.header["payload_format"] == PAYLOAD_FORMAT
    path = str(tmp_path / "warm.snap")
    save(snap, path)
    twin = fork(load(path))
    assert dump_json(twin) == dump_json(net)
