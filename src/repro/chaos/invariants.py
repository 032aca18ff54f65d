"""Emulation invariants checked after every fault-recovery cycle.

CrystalNet's promise is that the emulated region's control-plane state is
faithful to production *even while the substrate misbehaves*.  The checker
encodes that promise as machine-checked invariants over a live
:class:`~repro.core.orchestrator.CrystalNet`:

* **route-ready** — every emulated device is back to ``running`` and the
  control plane has re-converged (all expected BGP sessions established,
  all daemons quiescent).
* **fib-golden** — every device FIB matches the pre-fault golden snapshot
  (via the non-determinism-aware :class:`~repro.verify.fibdiff.FibComparator`).
* **spare-pool** — the warm spare pool never leaks or double-books a VM:
  no VM object is referenced twice, pools never exceed their configured
  level, and nothing dead sits in the pool.
* **speaker-static** — no speaker-learned route exists that is absent from
  that speaker's static announcement set (speakers are *static*, §5.1; a
  phantom route means boundary state was corrupted during recovery).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple, TYPE_CHECKING

from ..snapshot.deltas import network_fibs
from ..verify.fibdiff import FibComparator, RawFib

if TYPE_CHECKING:  # pragma: no cover
    from ..core.health import HealthMonitor
    from ..core.orchestrator import CrystalNet

__all__ = ["InvariantVerdict", "InvariantChecker", "InvariantViolation"]


class InvariantViolation(AssertionError):
    """Raised by :meth:`InvariantChecker.assert_all` on any red verdict."""


@dataclass(frozen=True)
class InvariantVerdict:
    """Outcome of one invariant evaluation."""

    name: str
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "detail": self.detail}


class InvariantChecker:
    """Asserts emulation invariants against a live CrystalNet instance."""

    def __init__(self, net: "CrystalNet",
                 monitor: Optional["HealthMonitor"] = None,
                 nondeterministic_prefixes: Iterable[str] = ()):
        self.net = net
        self.monitor = monitor
        self.comparator = FibComparator(nondeterministic_prefixes)
        self.golden: Optional[Dict[str, RawFib]] = None
        # Per-device render memo (``CrystalNet.pull_states(memo=...)``),
        # shared with the ChaosEngine driving this checker.  Lives here,
        # never on the net: a net nobody samples holds no renders.  None
        # renders every read fresh.
        self.memo: Optional[Dict[str, dict]] = {}
        # speaker-side interface IP value -> (speaker name, static prefixes)
        self._speaker_static: Dict[int, Tuple[str, Set[str]]] = {}

    # -- golden state ----------------------------------------------------

    def snapshot_golden(self) -> Dict[str, RawFib]:
        """Capture the pre-fault FIBs and the speakers' static sets."""
        self.golden = self._current_fibs()
        self._speaker_static = self._speaker_static_sets()
        return self.golden

    def _current_fibs(self) -> Dict[str, RawFib]:
        devices = self.net.devices
        return {name: fib
                for name, fib in network_fibs(self.net, self.memo).items()
                if devices[name].kind != "speaker"}

    def _speaker_static_sets(self) -> Dict[int, Tuple[str, Set[str]]]:
        out: Dict[int, Tuple[str, Set[str]]] = {}
        emulated = set(self.net.emulated)
        for speaker in self.net.speakers:
            static = {str(route.prefix)
                      for routes in self.net.speaker_routes
                      .get(speaker, {}).values()
                      for route in routes}
            for link in self.net.topology.links_of(speaker):
                neighbor, _ = link.other_end(speaker)
                if neighbor not in emulated:
                    continue
                speaker_ip = link.address_of(speaker)
                if speaker_ip is not None:
                    out[speaker_ip.value] = (speaker, static)
        return out

    # -- readiness (cheap poll used while awaiting recovery) -------------

    def system_ready(self) -> bool:
        """True when every recovery path has finished and routes settled."""
        net = self.net
        if any(vm.state != "running" for vm in net.vms.values()):
            return False
        if self.monitor is not None and self.monitor.busy():
            return False
        for record in net.devices.values():
            if record.status != "running":
                return False
        return net._control_plane_ready()

    # -- the invariants --------------------------------------------------

    def check(self) -> List[InvariantVerdict]:
        """Evaluate every invariant; never raises — returns verdicts."""
        return [
            self._check_route_ready(),
            self._check_fib_golden(),
            self._check_spare_pool(),
            self._check_speaker_static(),
        ]

    def assert_all(self) -> List[InvariantVerdict]:
        verdicts = self.check()
        failed = [v for v in verdicts if not v.passed]
        if failed:
            raise InvariantViolation(
                "; ".join(f"{v.name}: {v.detail}" for v in failed))
        return verdicts

    def _check_route_ready(self) -> InvariantVerdict:
        name = "route-ready"
        bad = {n: r.status for n, r in self.net.devices.items()
               if r.status != "running"}
        if bad:
            return InvariantVerdict(name, False,
                                    f"devices not running: {bad}")
        if any(vm.state != "running" for vm in self.net.vms.values()):
            states = {n: vm.state for n, vm in self.net.vms.items()
                      if vm.state != "running"}
            return InvariantVerdict(name, False, f"VMs not running: {states}")
        if not self.net._control_plane_ready():
            return InvariantVerdict(name, False,
                                    "control plane not converged "
                                    "(sessions down or daemons busy)")
        return InvariantVerdict(name, True)

    def _check_fib_golden(self) -> InvariantVerdict:
        name = "fib-golden"
        if self.golden is None:
            return InvariantVerdict(name, False, "no golden snapshot taken")
        diffs = self.comparator.diff(self.golden, self._current_fibs())
        if diffs:
            shown = "; ".join(str(d) for d in diffs[:5])
            more = f" (+{len(diffs) - 5} more)" if len(diffs) > 5 else ""
            return InvariantVerdict(name, False,
                                    f"{len(diffs)} FIB divergences from "
                                    f"golden: {shown}{more}")
        return InvariantVerdict(name, True)

    def _check_spare_pool(self) -> InvariantVerdict:
        name = "spare-pool"
        if self.monitor is None:
            return InvariantVerdict(name, True, "no health monitor attached")
        monitor = self.monitor
        problems: List[str] = []
        seen_ids: Set[int] = set()
        active_ids = {id(vm) for vm in self.net.vms.values()}
        for sku, pool in monitor._spare_pool.items():
            if len(pool) > monitor.spares:
                problems.append(f"pool[{sku}] over level: "
                                f"{len(pool)}>{monitor.spares}")
            for vm in pool:
                if vm is None:
                    continue  # reserved slot, spawn in flight
                if id(vm) in seen_ids:
                    problems.append(f"{vm.name} pooled twice")
                seen_ids.add(id(vm))
                if id(vm) in active_ids:
                    problems.append(f"{vm.name} both pooled and active")
                if vm.state not in ("running", "provisioning"):
                    problems.append(f"{vm.name} pooled while {vm.state}")
        # A VM serving two logical slots means a recovery double-booked it.
        by_id: Dict[int, int] = {}
        for vm in self.net.vms.values():
            by_id[id(vm)] = by_id.get(id(vm), 0) + 1
        for vm in self.net.vms.values():
            if by_id[id(vm)] > 1:
                problems.append(f"{vm.name} backs {by_id[id(vm)]} "
                                f"logical VMs")
                break
        if problems:
            return InvariantVerdict(name, False, "; ".join(sorted(set(problems))))
        return InvariantVerdict(name, True)

    def _check_speaker_static(self) -> InvariantVerdict:
        name = "speaker-static"
        phantoms: List[str] = []
        for dev_name, record in self.net.devices.items():
            guest = record.guest
            bgp = getattr(guest, "bgp", None)
            if bgp is None:
                continue
            for prefix, _best, multi in bgp.loc_rib.items():
                for route in multi:
                    if route.peer_ip is None:
                        continue
                    entry = self._speaker_static.get(route.peer_ip.value)
                    if entry is None:
                        continue
                    speaker, static = entry
                    if str(prefix) not in static:
                        phantoms.append(
                            f"{dev_name} learned {prefix} from {speaker} "
                            f"which never announced it")
        if phantoms:
            shown = "; ".join(phantoms[:5])
            return InvariantVerdict(name, False,
                                    f"{len(phantoms)} phantom speaker "
                                    f"routes: {shown}")
        return InvariantVerdict(name, True)
