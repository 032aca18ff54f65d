"""What-if deltas and incremental reconvergence.

A :class:`Delta` is one hypothetical change an operator wants validated
before rollout: a fiber cut, a config commit, a policy edit, a chaos
fault.  :func:`apply_delta` applies it to a (usually forked) mockup and
re-runs **only the perturbed region** to route-ready — the daemons keep
their converged RIBs and dirty-set machinery, so reconvergence cost
scales with the blast radius, not the network.

Determinism contract: applying the same delta at the same sim instant to
a warm fork and to a cold-booted mockup produces byte-identical
trajectories (same event times, same FIBs, same provenance) — the
fidelity gate ``tests/snapshot`` pins.  Reports therefore separate the
deterministic verdict core (fibdiff, convergence, blame) from wall-clock
timing, which is measured by the caller where needed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional

from ..firmware.fib import device_memo
from ..net.ip import IPv4Address
from ..obs.schema import SCHEMA_VERSION
from ..verify.fibdiff import FibComparator, fibdiff_doc

__all__ = [
    "Delta",
    "LinkCut",
    "LinkRestore",
    "ConfigReload",
    "PolicyEdit",
    "SessionReset",
    "ReconvergenceReport",
    "apply_delta",
    "network_fibs",
]

# Sim-seconds a link-level fault needs before the control plane can even
# notice it: BGP liveness is keepalive/hold-timer driven, so the run
# horizon must cover the slowest vendor hold timer before quiescence
# polling starts (the pre-horizon network is quiescent *and* stale).
HOLD_TIMER_HORIZON = 90.0


class Delta:
    """Base what-if change; subclasses define :meth:`apply`.

    ``horizon`` (a class attribute, so subclass dataclass fields stay
    purely positional) is how far to run the clock unconditionally
    after applying, before convergence polling takes over — zero for
    changes that act instantly (config/policy), the hold-timer horizon
    for silent faults a timer must detect.  :meth:`apply` may return a
    float to override the horizon for this application (e.g. a link cut
    that delivered carrier-loss to both endpoints needs no hold-timer
    wait); returning ``None`` keeps the class default.
    """

    horizon = 0.0

    def apply(self, net) -> Optional[float]:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class LinkCut(Delta):
    """Cut the topology link between two devices (fiber-cut what-if).

    A real fiber cut is detected two ways: instantly, as carrier loss on
    the two endpoint ports (fast external fallover), or — when the
    optics lie — by the BGP hold timer.  ``apply`` models the common
    fast path: it cuts the link, then delivers carrier-loss by resetting
    the BGP sessions riding it on both endpoints, so reconvergence
    starts immediately instead of after :data:`HOLD_TIMER_HORIZON`
    sim-seconds of keepalive traffic.  The final FIBs are identical
    either way (the same sessions drop, the same routes withdraw); only
    detection latency differs.  When either endpoint's session cannot be
    reset (a speaker, no BGP over the link), the hold-timer horizon is
    kept so the silent-fault semantics still hold.
    """

    dev_a: str
    dev_b: str
    horizon = HOLD_TIMER_HORIZON

    def apply(self, net) -> Optional[float]:
        net.disconnect(self.dev_a, self.dev_b)
        return _carrier_loss(net, self.dev_a, self.dev_b)

    def describe(self) -> dict:
        return {"kind": "link-cut", "a": self.dev_a, "b": self.dev_b}


def _carrier_loss(net, dev_a: str, dev_b: str) -> Optional[float]:
    """Reset the BGP sessions crossing a just-cut link on both endpoints.

    Returns ``0.0`` (detection was immediate, no hold-timer horizon
    needed) when both sides had a session over the link and both resets
    landed; ``None`` (keep the hold-timer horizon) otherwise.
    """
    link = getattr(net, "links", {}).get(frozenset((dev_a, dev_b)))
    devices = getattr(net, "devices", None)
    if link is None or devices is None:
        return None
    rec_a, rec_b = devices.get(dev_a), devices.get(dev_b)
    if rec_a is None or rec_b is None:
        return None
    if link.a.netns is rec_a.netns:
        ep_a, ep_b = link.a, link.b
    elif link.b.netns is rec_a.netns:
        ep_a, ep_b = link.b, link.a
    else:
        return None
    for rec, peer_rec, peer_ep in ((rec_a, rec_b, ep_b),
                                   (rec_b, rec_a, ep_a)):
        bgp = getattr(rec.guest, "bgp", None)
        peer_stack = getattr(peer_rec.guest, "stack", None)
        peer_addrs = getattr(peer_stack, "addresses", None)
        peer = peer_addrs.get(peer_ep.ifname) if peer_addrs else None
        if (bgp is None or peer is None
                or not bgp.reset_session(peer.address, reason="link-down")):
            return None
    return 0.0


@dataclass(frozen=True)
class LinkRestore(Delta):
    """Re-connect a previously cut link."""

    dev_a: str
    dev_b: str

    def apply(self, net) -> None:
        net.connect(self.dev_a, self.dev_b)

    def describe(self) -> dict:
        return {"kind": "link-restore", "a": self.dev_a, "b": self.dev_b}


@dataclass(frozen=True)
class ConfigReload(Delta):
    """Commit a new device configuration through the warm path."""

    device: str
    config_text: str

    def apply(self, net) -> None:
        net.warm_reload(self.device, self.config_text)

    def describe(self) -> dict:
        return {"kind": "config-reload", "device": self.device,
                "config_sha": _short_sha(self.config_text)}


@dataclass(frozen=True)
class PolicyEdit(Delta):
    """A config commit whose only intent is a routing-policy change.

    Mechanically identical to :class:`ConfigReload` (the warm path
    diffs the whole config), but verdicts carry the sharper label so a
    review queue can distinguish policy pushes from full commits.
    """

    device: str
    config_text: str

    def apply(self, net) -> None:
        net.warm_reload(self.device, self.config_text)

    def describe(self) -> dict:
        return {"kind": "policy-edit", "device": self.device,
                "config_sha": _short_sha(self.config_text)}


@dataclass(frozen=True)
class SessionReset(Delta):
    """Chaos fault: hard-reset one BGP session (``clear ip bgp``)."""

    device: str
    peer_ip: str

    def apply(self, net) -> None:
        guest = net.devices[self.device].guest
        if guest is None or guest.bgp is None:
            raise ValueError(f"{self.device}: no BGP daemon to reset")
        if not guest.bgp.reset_session(IPv4Address(self.peer_ip),
                                       reason="what-if-reset"):
            raise ValueError(f"{self.device}: no session to {self.peer_ip}")

    def describe(self) -> dict:
        return {"kind": "session-reset", "device": self.device,
                "peer": self.peer_ip}


def _short_sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def network_fibs(net, memo: Optional[Dict[str, dict]] = None
                 ) -> Dict[str, list]:
    """Per-device raw FIBs, the :mod:`repro.verify.fibdiff` input shape.

    On an unsharded net this reads each device's FIB directly
    (``DeviceOS.pull_fib``) instead of rendering the full PullStates
    document — a verdict diffs two of these per request, and the RIB
    snapshot the full document carries dwarfs the FIB itself.  ``memo``
    is a caller-owned network render memo (see
    :func:`repro.firmware.fib.device_memo`): devices whose FIB is
    unchanged since the memo's last read return the *same* list object
    (see :func:`repro.firmware.fib.reuse_render`).
    """
    if getattr(net, "_coordinator", None) is not None:
        return {name: states.get("fib", [])
                for name, states in net.pull_states().items()}
    out: Dict[str, list] = {}
    for name, record in net.devices.items():
        guest = record.guest
        if guest is None:
            continue
        puller = getattr(guest, "pull_fib", None)
        out[name] = (puller(device_memo(memo, name))
                     if puller is not None else [])
    return out


@dataclass(frozen=True)
class ReconvergenceReport:
    """Deterministic outcome of one delta on one mockup."""

    delta: dict
    converged: bool
    start_time: float            # sim clock when the delta was applied
    end_time: float              # sim clock at route-ready
    quiet_after: float           # sim-seconds from apply to quiescence
    fibdiff: dict                # fibdiff_doc(before, after)
    blame: dict                  # churn attribution (timeline or fib-derived)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "whatif-report",
            "delta": self.delta,
            "converged": self.converged,
            "window": {"start": self.start_time, "end": self.end_time},
            "quiet_after": self.quiet_after,
            "fibdiff": self.fibdiff,
            "blame": self.blame,
        }


def apply_delta(net, delta: Delta, timeout: float = 1800.0,
                comparator: Optional[FibComparator] = None,
                fib_reader=None) -> ReconvergenceReport:
    """Apply one delta and incrementally reconverge to route-ready.

    Works identically on a warm fork and on a cold mockup (that symmetry
    *is* the fidelity gate).  The clock first runs out the delta's
    detection horizon (hold timers for silent faults; ``apply`` may
    shorten it when detection was immediate), then polls quiescence
    exactly like ``mockup()``'s route-ready wait.

    ``fib_reader`` substitutes :func:`network_fibs` for the before/after
    captures; it must return the identical document for identical FIBs
    (``repro.serve`` passes a cache that reuses the warm parent's
    renders for devices whose FIB version did not move).
    """
    reader = network_fibs if fib_reader is None else fib_reader
    before = reader(net)
    start = net.env.now
    if net.timeline is not None:
        net.record_timeline("pre-delta")
    override = delta.apply(net)
    horizon = delta.horizon if override is None else float(override)
    if horizon > 0.0:
        net.run(horizon)
    quiet_after = net.converge(timeout=timeout)
    end = net.env.now
    after = reader(net)
    diff = fibdiff_doc(before, after, comparator=comparator)
    blame = _blame(net, delta, diff, start, end)
    return ReconvergenceReport(
        delta=delta.describe(), converged=True,
        start_time=start, end_time=end, quiet_after=quiet_after,
        fibdiff=diff, blame=blame)


def _blame(net, delta: Delta, diff: dict, start: float, end: float) -> dict:
    """Churn attribution for the verdict.

    With the timeline recorder armed this is the full netscope blame
    (per-device churned prefixes and convergence instants); without it,
    a fib-derived summary — same top-line numbers, no time series.
    """
    ref = ":".join(str(v) for v in delta.describe().values())
    if net.timeline is not None:
        return net.timeline.blame(ref, start, end).to_dict()
    devices = diff["devices_changed"]
    churned = sorted({(d["device"], d["prefix"])
                      for d in diff["differences"]})
    return {
        "fault": ref,
        "window": {"start": start, "end": end},
        "devices": len(devices),
        "churned_prefixes": len(churned),
        "churned": {device: sorted(p for d, p in churned if d == device)
                    for device in devices},
    }
