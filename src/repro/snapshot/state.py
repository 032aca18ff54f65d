"""Warm full-state snapshots of converged mockups.

Complement of :mod:`repro.core.snapshot` (the *cold* path, which saves a
reconstructable JSON descriptor and re-pays convergence on restore): a
warm snapshot serializes the **entire live emulation** — the simulation
engine (event heap, cancellable timers, RNG streams, sim clock), every
device guest (BGP daemons, Loc-RIB/Adj-RIB-In/Out, FIBs, TCP-lite
sessions, their provenance chains), the virtual underlay, and the
observability registries — so :func:`fork` materializes an independent,
runnable mockup in O(state) instead of O(convergence).

Format: a one-line JSON header (``schema_version``- and
``payload_format``-stamped, readable without unpickling) followed by a
pickle payload.  Interned
:class:`~repro.firmware.bgp.messages.PathAttributes` are rebuilt through
``intern()`` on load (see its ``__reduce__``), which both repairs the
PYTHONHASHSEED-dependent hashes across processes and gives sibling
forks in one process copy-on-write sharing of the attribute tables —
N forks of an L-DC mockup share one canonical attribute set per
distinct path instead of N copies.

Snapshots are taken **at quiescence only**: the converged object graph
is generator-free (every long-lived loop in the codebase is a
callback/timer chain), while transient boot/convergence work runs as
generator processes that cannot be pickled.  :func:`snapshot` therefore
refuses when the control plane is still busy, when generator processes
(health monitor, in-flight reload) sit on the event heap, and on the
sharded backend (:func:`repro.sim.shard.forbid_snapshot` — a shard
worker is mid-window and holds only its own devices).
"""

from __future__ import annotations

import json
import pickle
import traceback
from dataclasses import dataclass
from typing import List

from ..obs import SimEventHook
from ..obs.flight import write_flight_artifact
from ..obs.schema import SCHEMA_VERSION, check_schema
from ..sim import gcpolicy
from ..sim.engine import Process
from ..sim.shard import forbid_snapshot

__all__ = ["Snapshot", "SnapshotError", "snapshot", "fork", "discard",
           "save", "load", "SNAPSHOT_KIND", "PAYLOAD_FORMAT"]

SNAPSHOT_KIND = "warm-snapshot"

# Layout of the pickled object graph, stamped into every header and
# checked before anything is unpickled.  Bump it whenever a type in the
# snapshot graph changes how it pickles: a payload of another layout
# would not fail to unpickle, it would unpickle into garbage.  Headers
# without the field hold layout 1 (dataclass-state provenance hops in
# flat chain tuples); layout 2 pickles named-tuple hops in cons-list
# chains (see repro.provenance.chain).
PAYLOAD_FORMAT = 2

# The header line is ASCII JSON; the payload is an opaque pickle.
_MAGIC = b"repro-warm-snapshot\n"


class SnapshotError(Exception):
    """The emulation cannot be (or is not a valid) warm snapshot."""


@dataclass(frozen=True)
class Snapshot:
    """One warm snapshot: introspectable header + opaque state payload."""

    header: dict
    payload: bytes

    @property
    def emulation_id(self) -> str:
        return self.header["emulation_id"]

    @property
    def sim_time(self) -> float:
        return self.header["sim_time"]

    def describe(self) -> dict:
        """The header (safe to log/export; never unpickles)."""
        return dict(self.header)


def _live_processes(env) -> List[str]:
    """Names of generator processes waiting on heap-scheduled events.

    A converged mockup has none: everything long-lived is a
    callback/timer chain.  Anything found here (health monitor loop,
    in-flight reload/recovery) owns a generator frame, which pickle
    cannot serialize — and which means the network is mid-transition
    anyway.
    """
    names = []
    for _when, _seq, event in env._heap:
        callbacks = event.callbacks or ()
        owners = [event] + [getattr(cb, "__self__", None) for cb in callbacks]
        for owner in owners:
            if isinstance(owner, Process):
                names.append(owner.name or "<anonymous>")
    return sorted(set(names))


def snapshot(net) -> Snapshot:
    """Capture a converged mockup as a forkable warm snapshot.

    Refuses unless the emulation is mocked up, unsharded, and quiescent
    (``converge()`` first after any perturbation).
    """
    forbid_snapshot(net)           # sharded / mid-window restriction
    if not getattr(net, "mocked_up", False):
        raise SnapshotError("nothing to snapshot: run mockup() first")
    if not net._all_quiescent():
        raise SnapshotError(
            "emulation is not quiescent: control-plane work is still "
            "outstanding; run converge() before snapshotting")
    busy = _live_processes(net.env)
    if busy:
        raise SnapshotError(
            f"live simulation processes cannot be snapshotted: "
            f"{', '.join(busy)} (stop the health monitor / let in-flight "
            f"operations finish first)")
    try:
        # The pickler's temporaries are acyclic and die with the call,
        # so a collection inside it would walk the net for nothing.
        # What does survive (the instance __dict__s a first pickle
        # materializes) gets the one young pass that follows the scope.
        with gcpolicy.collector_stopped():
            payload = pickle.dumps(net, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise SnapshotError(f"emulation state is not serializable: "
                            f"{exc!r}") from exc
    header = {
        "schema_version": SCHEMA_VERSION,
        "kind": SNAPSHOT_KIND,
        "emulation_id": net.emulation_id,
        "topology": net.topology.name if net.topology is not None else None,
        "sim_time": net.env.now,
        "event_seq": net.env._seq,
        "devices": len(net.devices),
        "links": len(net.links),
        "payload_bytes": len(payload),
        "pickle_protocol": pickle.HIGHEST_PROTOCOL,
        "payload_format": PAYLOAD_FORMAT,
    }
    return Snapshot(header=header, payload=payload)


def fork(snap: Snapshot) -> "CrystalNet":
    """Materialize an independent mockup from a warm snapshot.

    O(state), not O(convergence): the returned emulation resumes at the
    snapshot's sim clock with the full event heap, RNG streams, and
    converged RIBs/FIBs intact — apply a delta and ``converge()`` to
    re-run only the perturbed region.  Sibling forks in one process
    share interned attribute tables copy-on-write.
    """
    check_schema(snap.header, source="warm snapshot")
    if snap.header.get("kind") != SNAPSHOT_KIND:
        raise SnapshotError(
            f"not a warm snapshot (kind={snap.header.get('kind')!r}); "
            f"cold descriptors restore via repro.core.snapshot.restore")
    _check_payload_format(snap.header, source="warm snapshot")
    with gcpolicy.bulk_phase():
        net = pickle.loads(snap.payload)
        _rebuild_observability(net)
    return net


def _check_payload_format(header: dict, source: str) -> None:
    """Refuse a payload of another layout before unpickling it."""
    found = header.get("payload_format")
    if found != PAYLOAD_FORMAT:
        shown = ("none (written before payload formats were stamped)"
                 if found is None else repr(found))
        raise SnapshotError(
            f"{source}: payload format {shown} is not the expected "
            f"format {PAYLOAD_FORMAT}; re-capture the image with this "
            f"version")


def _rebuild_observability(net) -> None:
    """Recompute state-derived gauges for the restoring process.

    The donor's last readings travel inside the pickled registries and
    would otherwise be reported as live: the sim-heap gauge and
    events/sec window restart from this process
    (:meth:`SimEventHook.reset`), and the per-subsystem memory census
    (``repro_mem_entries``) is re-sampled from the restored graph.
    """
    hook = getattr(net.env, "event_hook", None)
    if isinstance(hook, SimEventHook):
        hook.reset()
    net._mem.sample(net)


def discard(net, site: str) -> None:
    """Tear down a materialized fork whose holder is closing.

    The holder still has a worker pool to stop and a GC hold to release,
    so a ``destroy()`` that fails is recorded rather than raised: counted
    in the fork's ``repro_swallowed_errors_total``, written to its event
    log and flight recorder — and, because the fork is dropped next, the
    flight ring is persisted when ``$REPRO_FLIGHT_DIR`` is set.
    """
    try:
        net.destroy()
    except Exception as exc:
        obs = net.obs
        obs.metrics.counter(
            "repro_swallowed_errors_total",
            "Exceptions caught and suppressed, by device and site",
        ).inc(device=net.emulation_id, site=site)
        obs.events.emit("swallowed-error", subject=net.emulation_id,
                        message=repr(exc), site=site)
        obs.flight.note("swallowed-error", subject=net.emulation_id,
                        site=site, message=repr(exc),
                        traceback=traceback.format_exc())
        write_flight_artifact([obs.flight.snapshot()],
                              f"{site}-destroy-failed: {exc!r}")


def save(snap: Snapshot, path: str) -> None:
    """Write magic + JSON header line + pickle payload."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(json.dumps(snap.header, sort_keys=True).encode("ascii"))
        fh.write(b"\n")
        fh.write(snap.payload)


def load(path: str) -> Snapshot:
    """Read a snapshot written by :func:`save` (header is validated;
    the payload stays opaque until :func:`fork`)."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise SnapshotError(f"{path}: not a warm snapshot file")
        header_line = fh.readline()
        try:
            header = json.loads(header_line)
        except ValueError as exc:
            raise SnapshotError(f"{path}: corrupt snapshot header") from exc
        check_schema(header, source=path)
        if header.get("kind") != SNAPSHOT_KIND:
            raise SnapshotError(f"{path}: kind={header.get('kind')!r} is "
                                f"not a warm snapshot")
        _check_payload_format(header, source=path)
        payload = fh.read()
    expected = header.get("payload_bytes")
    if expected is not None and expected != len(payload):
        raise SnapshotError(f"{path}: truncated payload "
                            f"({len(payload)} of {expected} bytes)")
    return Snapshot(header=header, payload=payload)
