"""The deterministic chaos engine.

Drives a live :class:`~repro.core.orchestrator.CrystalNet` (plus its
:class:`~repro.core.health.HealthMonitor`) through a seeded fault schedule:
VM crashes, container OOM-kills, link cuts and flaps, BGP session resets,
corrupted config reloads, and health-probe clock skew — all injected
through the orchestrator/cloud/monitor public APIs, exactly the recovery
paths production operators depend on (§6.2, §8.3).

Determinism contract: the engine never reads wall clock or global RNG
state.  Fault times, kinds, and victim selection derive from the run seed;
victims resolve against *sorted* candidate lists; every timestamp in the
resulting :class:`~repro.chaos.report.ChaosReport` is sim-clock relative
to the run start.  Running the same seeded scenario twice on identically
seeded emulations yields byte-identical report JSON — so any failure
becomes a pinned-seed regression test.
"""

from __future__ import annotations

import json
from typing import List, Optional, TYPE_CHECKING

from ..net.ip import IPv4Address
from ..obs import NULL_OBS
from .invariants import InvariantChecker
from .report import ChaosReport, FaultRecord
from .spec import ChaosSpec, Fault, FaultSchedule

if TYPE_CHECKING:  # pragma: no cover
    from ..core.health import HealthMonitor
    from ..core.orchestrator import CrystalNet
    from ..provenance import BlastRadius

__all__ = ["ChaosEngine", "ChaosError", "CORRUPTED_CONFIG"]

# What a truncated/garbled config transfer leaves behind; guaranteed to be
# rejected by every vendor grammar (no hostname, unknown line).
CORRUPTED_CONFIG = "@@ chaos: config corrupted in transfer @@\n"

# Granularity of the recovery-wait polling loop (sim-seconds).
RECOVERY_POLL = 5.0

# Recovery latencies run seconds-to-minutes (§8.3); buckets cover both the
# warm-spare fast path and the reboot-bounded slow path.
RECOVERY_BUCKETS = (5.0, 15.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1200.0,
                    2400.0)


class ChaosError(Exception):
    """Invalid chaos-engine operation (no candidates, bad schedule...)."""


class ChaosEngine:
    """Seed-driven fault injector + recovery auditor for one emulation."""

    def __init__(self, net: "CrystalNet",
                 monitor: Optional["HealthMonitor"] = None,
                 seed: int = 0, spec: Optional[ChaosSpec] = None,
                 checker: Optional[InvariantChecker] = None):
        self.net = net
        self.env = net.env
        self.monitor = monitor
        self.seed = seed
        self.spec = spec or ChaosSpec()
        self.checker = checker or InvariantChecker(net, monitor)
        self.records: List[FaultRecord] = []
        self._t0: Optional[float] = None
        self.obs = getattr(net, "obs", NULL_OBS)
        self._m_faults = self.obs.metrics.counter(
            "repro_chaos_faults_total", "Faults injected, by kind")
        self._m_recovery = self.obs.metrics.histogram(
            "repro_chaos_recovery_latency_seconds",
            "Fault-to-recovered latency per fault, by kind",
            buckets=RECOVERY_BUCKETS)
        self._m_unrecovered = self.obs.metrics.counter(
            "repro_chaos_unrecovered_total",
            "Faults that never recovered within the timeout, by kind")
        self._spans: dict = {}    # id(record) -> open fault span
        # Blast-radius attribution (requires net.enable_timeline()): one
        # BlastRadius per settled fault, keyed by the fault's provenance
        # id.  Kept off FaultRecord so ChaosReport JSON stays byte-stable.
        self.blast: List["BlastRadius"] = []
        self._fault_refs: dict = {}   # id(record) -> provenance id
        # Per-victim pre-fault configs for reload-failure repair.  Keyed
        # by target (not a single slot): two un-settled reload failures
        # must each repair with their *own* victim's good config, and a
        # second fault on the same victim must not capture the corrupted
        # text the first one shipped.
        self._good_configs: dict = {}   # victim -> pre-fault config text

    # ------------------------------------------------------------------
    # Top-level drivers
    # ------------------------------------------------------------------

    def run(self, n_faults: Optional[int] = None,
            schedule: Optional[FaultSchedule] = None) -> ChaosReport:
        """Inject a whole schedule, awaiting recovery + checking invariants
        after each fault.  Blocking: drives the simulation clock."""
        if schedule is None:
            if n_faults is None:
                raise ChaosError("run() needs n_faults or an explicit "
                                 "schedule")
            schedule = FaultSchedule.generate(self.seed, self.spec, n_faults)
        self._ensure_started()
        for fault in schedule:
            if fault.time is not None:
                target_time = self._t0 + fault.time
                if target_time > self.env.now:
                    self.env.run(until=target_time)
            record = self.inject(fault)
            self.settle(record)
        return self.finish()

    def replay(self, report: ChaosReport) -> ChaosReport:
        """Re-run a recorded timeline (targets pinned) on this emulation."""
        return self.run(schedule=report.schedule())

    def finish(self) -> ChaosReport:
        # Close the books on any fault injected without a matching
        # settle() (campaign schedules drive bare inject() freely): open
        # spans are finished, and the per-record side tables are cleared
        # so a long-lived engine never accumulates unbounded bookkeeping.
        for span in self._spans.values():
            span.annotate(settled=False)
            span.finish()
        self._spans.clear()
        self._fault_refs.clear()
        self._good_configs.clear()
        return ChaosReport(seed=self.seed, spec=self.spec,
                           faults=list(self.records))

    # ------------------------------------------------------------------
    # Baseline
    # ------------------------------------------------------------------

    def _ensure_started(self) -> None:
        if self._t0 is not None:
            return
        self._t0 = self.env.now
        if self.checker.golden is None and self.net.devices:
            self.checker.snapshot_golden()

    # ------------------------------------------------------------------
    # Injection
    # ------------------------------------------------------------------

    def inject(self, fault: Fault) -> FaultRecord:
        """Resolve the victim and apply one fault at the current sim time."""
        self._ensure_started()
        apply = getattr(self, "_inject_" + fault.kind.replace("-", "_"))
        record = FaultRecord(time=round(self.env.now - self._t0, 3),
                             kind=fault.kind, target="", detail="")
        self._sample("pre-fault")   # blast-radius baseline
        apply(fault, record)
        self.records.append(record)
        fault_ref = f"fault:{fault.kind}:{record.target}@{record.time:g}"
        self._fault_refs[id(record)] = fault_ref
        self._m_faults.inc(kind=fault.kind)
        self._spans[id(record)] = self.obs.tracer.begin(
            f"fault:{fault.kind}", track="chaos", target=record.target,
            provenance=fault_ref)
        self.obs.events.emit("chaos", subject=record.target,
                             message=record.detail, fault=fault.kind,
                             provenance=fault_ref)
        return record

    def _resolve(self, fault: Fault, candidates: List[str],
                 record: FaultRecord, empty_detail: str) -> Optional[str]:
        """Pick the victim, or record a deterministic no-op and return None.

        Pinned targets (replays, scenario tests) are validated against
        the live candidate list: a recorded schedule replayed on a
        diverged topology must degrade to a recorded ``(none)`` skip,
        not raise ``KeyError`` deep inside an injector.
        """
        if fault.target is not None:
            if fault.target in candidates:
                return fault.target
            record.target = "(none)"
            record.detail = (f"pinned target {fault.target!r} absent from "
                             f"live candidates; fault skipped")
            return None
        if not candidates:
            record.target, record.detail = "(none)", empty_detail
            return None
        return candidates[int(fault.pick * len(candidates)) % len(candidates)]

    def _inject_vm_crash(self, fault: Fault, record: FaultRecord) -> None:
        lab = self.net.lab_server
        candidates = sorted(
            name for name, vm in self.net.vms.items()
            if vm.state == "running" and vm is not lab)
        victim = self._resolve(fault, candidates, record, "no running VMs")
        if victim is None:
            return
        vm = self.net.vms[victim]
        hosted = sum(1 for r in self.net.devices.values() if r.vm is vm)
        vm.cloud.fail_vm(victim)
        record.target = victim
        record.detail = f"crashed ({hosted} devices hosted)"

    def _inject_container_oom(self, fault: Fault, record: FaultRecord) -> None:
        candidates = sorted(
            name for name, r in self.net.devices.items()
            if r.kind == "device" and r.sandbox is not None
            and r.sandbox.state == "running")
        victim = self._resolve(fault, candidates, record,
                               "no running sandboxes")
        if victim is None:
            return
        self.net.devices[victim].sandbox.oom_kill()
        record.target = victim
        record.detail = "device sandbox OOM-killed"

    def _link_candidates(self) -> List[str]:
        return sorted("|".join(sorted(pair))
                      for pair, link in self.net.links.items() if link.up)

    def _inject_link_down(self, fault: Fault, record: FaultRecord) -> None:
        target = self._resolve(fault, self._link_candidates(), record,
                               "no links up")
        if target is None:
            return
        dev_a, dev_b = target.split("|")
        self.net.disconnect(dev_a, dev_b)
        record.target = target
        record.detail = f"fiber cut; repair in {self.spec.link_outage:g}s"

    def _inject_link_flap(self, fault: Fault, record: FaultRecord) -> None:
        target = self._resolve(fault, self._link_candidates(), record,
                               "no links up")
        if target is None:
            return
        dev_a, dev_b = target.split("|")
        self.net.disconnect(dev_a, dev_b)
        record.target = target
        record.detail = (f"{self.spec.flap_count} flap cycles at "
                         f"{self.spec.flap_interval:g}s")

    def _inject_bgp_reset(self, fault: Fault, record: FaultRecord) -> None:
        candidates: List[str] = []
        for name in sorted(self.net.devices):
            bgp = getattr(self.net.devices[name].guest, "bgp", None)
            if bgp is None:
                continue
            for peer_value in sorted(bgp.sessions):
                if bgp.sessions[peer_value].state == "established":
                    candidates.append(f"{name}@{IPv4Address(peer_value)}")
        target = self._resolve(fault, candidates, record,
                               "no established sessions")
        if target is None:
            return
        device, peer = target.split("@")
        bgp = self.net.devices[device].guest.bgp
        bgp.reset_session(IPv4Address(peer))
        record.target = target
        record.detail = "session hard-reset; FSM retries on its own timers"

    def _inject_reload_failure(self, fault: Fault,
                               record: FaultRecord) -> None:
        candidates = sorted(
            name for name, r in self.net.devices.items()
            if r.kind == "device" and r.status == "running")
        victim = self._resolve(fault, candidates, record,
                               "no running devices")
        if victim is None:
            return
        # setdefault: a second un-settled fault on the same victim must
        # keep the original good config, not the corrupted text the
        # first fault already shipped into config_texts.
        self._good_configs.setdefault(victim, self.net.config_texts[victim])
        self.net.reload(victim, config_text=CORRUPTED_CONFIG)
        record.target = victim
        record.detail = (f"reload shipped corrupted config; firmware "
                         f"{self.net.devices[victim].status}")

    def _inject_probe_skew(self, fault: Fault, record: FaultRecord) -> None:
        record.target = "health-monitor"
        if self.monitor is None:
            record.detail = "no monitor attached; skew is a no-op"
            return
        self.monitor.skew_probe(self.spec.probe_skew)
        record.detail = f"next sweep delayed {self.spec.probe_skew:g}s"

    # ------------------------------------------------------------------
    # Recovery + invariants
    # ------------------------------------------------------------------

    def settle(self, record: FaultRecord) -> FaultRecord:
        """Repair what the fault model repairs, wait for the system to
        recover, then evaluate every invariant into the record."""
        injected_at = self.env.now
        fault_ref = self._fault_refs.pop(id(record), "")
        self._repair(record)
        deadline = injected_at + self.spec.recovery_timeout
        ready_at = self._await_ready(deadline)
        while ready_at is not None:
            if self.spec.settle > 0:
                self.env.run(until=self.env.now + self.spec.settle)
            if self.checker.system_ready():
                break
            # Readiness regressed during the settle window — e.g. a
            # stale BGP session only collapses once post-repair traffic
            # exposes the sequence gap.  Recovery counts only when it
            # survives a settle window.
            ready_at = self._await_ready(deadline)
        if ready_at is not None:
            record.recovery_latency = round(ready_at - injected_at, 3)
            self._m_recovery.observe(record.recovery_latency,
                                     kind=record.kind)
        else:
            self._m_unrecovered.inc(kind=record.kind)
        blast = self._blame(record, fault_ref, injected_at)
        span = self._spans.pop(id(record), None)
        if span is not None:
            if blast is not None:
                span.annotate(churned_prefixes=blast.churned_prefix_count,
                              churned_devices=len(blast.churned))
            if record.recovery_latency is not None:
                span.annotate(recovery_latency=record.recovery_latency)
                span.finish(end=injected_at + record.recovery_latency)
            else:
                span.annotate(recovered=False)
                span.finish()
        record.invariants = self.checker.check()
        return record

    def _sample(self, label: str) -> None:
        """Commit one timeline snapshot (no-op without enable_timeline)."""
        timeline = getattr(self.net, "timeline", None)
        if timeline is not None and self.net.devices:
            # The checker's render memo, shared with golden capture and
            # check(): between two recovery polls almost no device's
            # tables move, so a sample re-renders only those that did.
            memo = self.checker.memo
            timeline.record(label, self.net.pull_states(memo=memo),
                            memo=memo)

    def _blame(self, record: FaultRecord, fault_ref: str,
               injected_at: float) -> Optional["BlastRadius"]:
        """Attribute the settle window's FIB churn to this fault."""
        timeline = getattr(self.net, "timeline", None)
        if timeline is None or not fault_ref:
            return None
        self._sample(f"settled:{fault_ref}")
        blast = timeline.blame(fault_ref, injected_at, self.env.now)
        self.blast.append(blast)
        self.obs.events.emit(
            "chaos", subject=record.target,
            message=(f"blast radius: {blast.churned_prefix_count} prefixes "
                     f"on {len(blast.churned)} devices"),
            fault=record.kind, provenance=fault_ref)
        return blast

    def blast_report(self) -> str:
        """Deterministic JSON of every fault's blast radius (for
        ``netscope blame``)."""
        payload = {"version": 1,
                   "blast": [b.to_dict() for b in self.blast]}
        return json.dumps(payload, indent=2, sort_keys=True)

    def _repair(self, record: FaultRecord) -> None:
        """The 'repair crew' half of fault models that need one."""
        if record.target in ("", "(none)"):
            return
        if record.kind == "link-down":
            dev_a, dev_b = record.target.split("|")
            self.env.run(until=self.env.now + self.spec.link_outage)
            self.net.connect(dev_a, dev_b)
        elif record.kind == "link-flap":
            dev_a, dev_b = record.target.split("|")
            for cycle in range(self.spec.flap_count):
                self.env.run(until=self.env.now + self.spec.flap_interval)
                self.net.connect(dev_a, dev_b)
                self.env.run(until=self.env.now + self.spec.flap_interval)
                if cycle < self.spec.flap_count - 1:
                    self.net.disconnect(dev_a, dev_b)
        elif record.kind == "reload-failure":
            # The operator notices the crash and re-ships the good
            # config — *this* victim's, popped so a later repair of an
            # overlapping fault cannot re-use it for the wrong device.
            good = self._good_configs.pop(record.target, None)
            self.env.run(until=self.env.now + 5.0)
            if good is None:
                # Already repaired (double settle of one record): the
                # current config_texts entry is the good config again.
                good = self.net.config_texts[record.target]
            self.net.reload(record.target, config_text=good)

    def _await_ready(self, deadline: float) -> Optional[float]:
        while True:
            self._sample("chaos-poll")
            if self.checker.system_ready():
                return self.env.now
            if self.env.now >= deadline:
                return None
            self.env.run(until=min(deadline, self.env.now + RECOVERY_POLL))
