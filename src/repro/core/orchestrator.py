"""The CrystalNet orchestrator — "the brain" (§3.2).

Implements the Table 2 API over the simulated cloud substrate:

* **Provision** — Prepare (boundary computation, config generation, speaker
  route snapshots, VM planning + spawning), Mockup (PhyNet layer, virtual
  links, device/speaker boot, management plane), Clear, Destroy.
* **Control** — Reload, Connect, Disconnect, InjectPackets.
* **Monitor** — PullStates, PullConfig, PullPackets, List, Login.

All heavy operations are aggressively batched and parallelized: VM spawns
run concurrently, PhyNet containers start in one wave, links are wired in
batches, device sandboxes boot in a second wave.  Latency metrics
(network-ready / route-ready / mockup / clear, §8.1) are recorded on the
emulation object so the Figure 8/9 benchmarks can read them off directly.
"""

from __future__ import annotations

import functools
import os
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..boundary.safety import BoundaryVerdict, classify_boundary
from ..boundary.search import find_safe_dc_boundary
from ..boundary.speaker import SpeakerOS, SpeakerRoute
from ..config.dialects import parse_config, render_config
from ..config.generator import ConfigGenerator
from ..config.model import DeviceConfig
from ..firmware.device import DeviceOS, PacketRecord
from ..firmware.fib import device_memo
from ..firmware.vendors.profiles import VendorProfile, get_vendor
from ..net.ip import IPv4Address
from ..obs import EnvClock, MemoryMonitor, NULL_MEMORY_MONITOR, Observability
from ..obs.critpath import CriticalPathRecorder, NULL_CRITPATH
from ..obs.flight import write_flight_artifact
from ..obs.schema import SCHEMA_VERSION
from ..provenance import (
    NULL_PROVENANCE,
    ProvenanceTracker,
    StateTimeline,
    explain_prefix,
)
from ..sim import Environment, Event, gcpolicy
from ..topology.graph import Topology
from ..verify.batfish import ControlPlaneSimulator
from ..virt.cloud import Cloud, VirtualMachine, VmSku
from ..virt.container import Container, DockerEngine, PHYNET_IMAGE
from ..virt.fanout import FanoutSwitch, HardwareDevice
from ..virt.links import DataLink, Endpoint, LinkFabric
from ..virt.mgmt import LoginSession, ManagementPlane
from ..virt.netns import NetworkNamespace
from .planner import PlacementPlan, plan_vms

__all__ = ["CrystalNet", "EmulatedDevice", "EmulationMetrics",
           "GhostGuest", "OrchestratorError"]

# Orchestrator-side wall-clock cost of issuing one batch of link-creation
# RPCs (the aggressive batching of §6.2).
LINK_BATCH_SIZE = 100
LINK_BATCH_LATENCY = 2.0
# One-time per-VM overlay setup (kernel modules, docker networks), cpu-s.
VM_OVERLAY_INIT_COST = 25.0
# Per-VM fixed cleanup plus per-container teardown cost for Clear, cpu-s.
VM_CLEAR_BASE_COST = 20.0
CONTAINER_TEARDOWN_COST = 0.3
# Route-ready detection: control plane must be stable this long (§8.1).
ROUTE_READY_SETTLE = 10.0
ROUTE_READY_POLL = 5.0
# The on-premise lab server hosting fanout-attached hardware (§4.1).  It is
# owned outright, so it bills nothing per hour.
LAB_SERVER_SKU = VmSku("OnPrem_Lab", cores=16, memory_gb=64,
                       price_per_hour=0.0)


class OrchestratorError(Exception):
    """Invalid orchestrator operation."""


def _neighbor_shutdown(guest, peer_ip: IPv4Address) -> bool:
    """True if ``guest``'s BGP config shuts down (or lacks) this peering."""
    config = getattr(guest, "config", None)
    if config is None or config.bgp is None:
        return False
    for neighbor in config.bgp.neighbors:
        if neighbor.peer_ip == peer_ip:
            return neighbor.shutdown
    return True  # not configured: the session can never establish


@dataclass
class EmulationMetrics:
    """The §8 performance metrics for one emulation run."""

    prepare_latency: float = 0.0
    network_ready_latency: float = 0.0
    route_ready_latency: float = 0.0
    clear_latency: float = 0.0
    vm_count: int = 0
    device_count: int = 0
    speaker_count: int = 0
    link_count: int = 0
    hourly_cost_usd: float = 0.0

    @property
    def mockup_latency(self) -> float:
        return self.network_ready_latency + self.route_ready_latency


class GhostGuest:
    """Stand-in guest for a device another shard worker owns.

    The sharded backend (:mod:`repro.sim.shard`) boots the full mockup
    skeleton in every worker — containers, namespaces, links — so phase
    barriers and CPU-queue contention match the single-process run, but
    only *owned* devices get a real OS.  Foreign devices get this inert
    placeholder: it reports ``running`` (its owner's worker vouches for
    the real boot state during readiness polls), is always quiescent,
    runs no protocols, and exposes the parsed config so neighbor checks
    (:func:`_neighbor_shutdown`) see the same peering intent as the real
    guest would."""

    def __init__(self, hostname: str, kind: str, config: DeviceConfig):
        self.hostname = hostname
        self.kind = kind
        self.config = config
        self.status = "stopped"
        self.bgp = None
        self.container = None

    def on_start(self, container) -> None:
        self.container = container
        self.status = "running"

    def on_stop(self) -> None:
        if self.status != "crashed":
            self.status = "stopped"

    @property
    def is_quiescent(self) -> bool:
        return True

    def pull_states(self) -> dict:
        return {"hostname": self.hostname, "status": self.status,
                "ghost": True}

    def execute(self, command: str) -> str:
        return (f"% {self.hostname} is owned by another shard worker; "
                f"log in via its owner")


@dataclass
class EmulatedDevice:
    """Runtime record of one emulated device (or speaker)."""

    name: str
    kind: str                      # device | speaker
    vendor: Optional[VendorProfile]
    vm: VirtualMachine
    netns: NetworkNamespace
    phynet: Container
    sandbox: Optional[Container] = None
    guest: object = None           # DeviceOS | SpeakerOS

    @property
    def status(self) -> str:
        if self.guest is None:
            return "not-started"
        return self.guest.status


class CrystalNet:
    """One emulation instance (create one per emulated network)."""

    def __init__(self, env: Optional[Environment] = None,
                 cloud: Optional[Cloud] = None, seed: int = 17,
                 emulation_id: str = "emu", use_ovs: bool = False,
                 clouds: Optional[List[Cloud]] = None,
                 obs: Optional[Observability] = None,
                 provenance: bool = True,
                 shards: Optional[int] = None,
                 critpath: Optional[bool] = None):
        """``clouds``: run the emulation across several (federated) clouds
        (§3.1); VMs are spread round-robin and cross-cloud links punch the
        NATs automatically.  Defaults to a single cloud.

        ``shards``: run Mockup on the sharded parallel backend
        (:mod:`repro.sim.shard`) with this many worker processes.  Defaults
        to the ``REPRO_SHARDS`` environment variable; ``None``/unset keeps
        the single-process path.  Sharded runs produce byte-identical
        FIB/provenance output for any shard count.

        ``obs``: the observability hub (metrics registry, tracer, event
        log) threaded through every subsystem.  Defaults to a fresh hub on
        this emulation's sim clock; pass :data:`repro.obs.NULL_OBS` to run
        fully uninstrumented.

        ``provenance``: route-provenance tracing (repro.provenance) —
        causal hop chains on every RIB/FIB entry, queryable via
        :meth:`explain` and the ``netscope`` CLI.  Chains are excluded
        from route equality, so tracing never alters protocol behaviour;
        pass False to skip chain bookkeeping entirely.

        ``critpath``: causal critical-path recording (repro.obs.critpath)
        — every scheduled event remembers its scheduling parent, so
        :meth:`critical_path` can explain where convergence time went.
        Defaults to the ``REPRO_CRITPATH`` environment variable (``1``
        enables); when off, the engine pays one identity check per
        dispatched event."""
        self.env = env or Environment()
        self.obs = (obs if obs is not None
                    else Observability(self.env)).bind(self.env)
        self.prov = (ProvenanceTracker(obs=self.obs) if provenance
                     else NULL_PROVENANCE)
        # Optional RIB/FIB history; armed by enable_timeline().
        self.timeline: Optional[StateTimeline] = None
        self._phase_gauge = self.obs.metrics.gauge(
            "repro_phase_latency_seconds",
            "Latency of the most recent run of each orchestrator phase")
        self._m_ops = self.obs.metrics.counter(
            "repro_orchestrator_ops_total",
            "Table 2 control/monitor API invocations by operation")
        # Per-subsystem memory gauges, refreshed at route-ready polls
        # (workers re-create theirs with their shard label on fork).
        self._mem = (MemoryMonitor(self.obs) if self.obs.enabled
                     else NULL_MEMORY_MONITOR)
        # Causal critical-path recording (repro.obs.critpath).  The live
        # recorder installs itself as env.critpath; disabled runs keep
        # that engine field None so the dispatch loop stays at one
        # identity check per event.
        if critpath is None:
            critpath = os.environ.get("REPRO_CRITPATH", "").strip() == "1"
        self.critpath = (CriticalPathRecorder(self.env) if critpath
                         else NULL_CRITPATH)
        # Convergence-window endpoints for critical-path analysis
        # (mockup begin / quiescence onset, in sim time).
        self._mockup_start: Optional[float] = None
        self._quiet_since: Optional[float] = None
        if clouds:
            from ..virt.federation import CloudFederation
            federation = CloudFederation(self.env)
            for member in clouds:
                federation.join(member)
            self.clouds = list(clouds)
            self.cloud = clouds[0]
        else:
            self.cloud = cloud or Cloud(self.env, seed=seed)
            self.clouds = [self.cloud]
        for member in self.clouds:
            # Clouds created before this emulation default to the null
            # hub; adopt ours so virt-layer metrics (VXLAN tunnels,
            # container lifecycle) land in the same registry.
            if not getattr(member.obs, "enabled", False):
                member.obs = self.obs
        self.rng = random.Random(seed)
        self.emulation_id = emulation_id
        self.fabric = LinkFabric(self.env, self.cloud, use_ovs=use_ovs,
                                 name=emulation_id)
        self.mgmt = ManagementPlane(self.env)
        self.metrics = EmulationMetrics()

        self.topology: Optional[Topology] = None
        self.emulated: List[str] = []
        self.speakers: List[str] = []
        self.verdict: Optional[BoundaryVerdict] = None
        self.configs: Dict[str, DeviceConfig] = {}
        self.config_texts: Dict[str, str] = {}
        self.speaker_routes: Dict[str, Dict[int, List[SpeakerRoute]]] = {}
        self.placement: Optional[PlacementPlan] = None
        self.vms: Dict[str, VirtualMachine] = {}
        self.devices: Dict[str, EmulatedDevice] = {}
        self.links: Dict[frozenset, DataLink] = {}
        self.vendor_overrides: Dict[str, VendorProfile] = {}
        # Real-hardware integration (§4.1): device name -> HardwareDevice.
        self.hardware: Dict[str, HardwareDevice] = {}
        self.fanout: Optional[FanoutSwitch] = None
        self.lab_server: Optional[VirtualMachine] = None
        self.prepared = False
        self.mocked_up = False

        # Sharded parallel backend (repro.sim.shard).
        if shards is None:
            raw = os.environ.get("REPRO_SHARDS", "").strip()
            if raw:
                try:
                    shards = int(raw)
                except ValueError:
                    raise OrchestratorError(
                        f"REPRO_SHARDS must be an integer, got {raw!r}")
        if shards is not None and shards < 1:
            raise OrchestratorError(f"need at least one shard, got {shards}")
        self.shards = shards
        self._coordinator = None       # parent-side ShardCoordinator
        self._shard_ctx = None         # worker-side ShardWorkerContext

    @property
    def events(self) -> List[str]:
        """Legacy string view of the structured event log (bounded; see
        ``self.obs.events`` for the typed records)."""
        return self.obs.events.formatted()

    # ------------------------------------------------------------------
    # Prepare
    # ------------------------------------------------------------------

    def prepare(self, topology: Topology,
                must_have: Optional[Iterable[str]] = None,
                num_vms: Optional[int] = None,
                fib_capacity_by_role: Optional[Dict[str, int]] = None,
                vendor_overrides: Optional[Dict[str, VendorProfile]] = None,
                emulated_override: Optional[Iterable[str]] = None,
                group_by_vendor: bool = True,
                hardware: Optional[Iterable[str]] = None,
                ) -> "CrystalNet":
        """Blocking Prepare: runs the simulation until VMs are up."""
        done = self.env.process(self.prepare_async(
            topology, must_have=must_have, num_vms=num_vms,
            fib_capacity_by_role=fib_capacity_by_role,
            vendor_overrides=vendor_overrides,
            emulated_override=emulated_override,
            group_by_vendor=group_by_vendor,
            hardware=hardware), name="prepare")
        self.env.run(until=done)
        return self

    def prepare_async(self, topology: Topology,
                      must_have: Optional[Iterable[str]] = None,
                      num_vms: Optional[int] = None,
                      fib_capacity_by_role: Optional[Dict[str, int]] = None,
                      vendor_overrides: Optional[Dict[str, VendorProfile]] = None,
                      emulated_override: Optional[Iterable[str]] = None,
                      group_by_vendor: bool = True,
                      hardware: Optional[Iterable[str]] = None):
        """Gather info and spawn VMs (a simulation process).

        The emulated set is, in order of precedence: ``emulated_override``
        verbatim (researchers may deliberately pick an *unsafe* boundary —
        the verdict still reports it), else Algorithm 1 grown from
        ``must_have``, else every administered device (role != "wan").
        """
        start = self.env.now
        span = self.obs.tracer.begin("prepare", track="orchestrator")
        self.topology = topology
        self.vendor_overrides = dict(vendor_overrides or {})

        # 1. Boundary: a safe superset of the must-have devices.
        if emulated_override is not None:
            self.emulated = sorted(emulated_override)
        elif must_have is None:
            self.emulated = sorted(d.name for d in topology
                                   if d.role != "wan")
        else:
            self.emulated = find_safe_dc_boundary(topology, must_have)
        self.verdict = classify_boundary(topology, self.emulated)
        self.speakers = self.verdict.speaker_devices
        self._log(f"boundary: {len(self.emulated)} emulated, "
                  f"{len(self.speakers)} speakers, safe={self.verdict.safe} "
                  f"({self.verdict.rule})")

        # 2. Configurations (production generator) for the full topology.
        generator = ConfigGenerator(topology,
                                    fib_capacity_by_role=fib_capacity_by_role)
        self.configs = generator.generate_all()
        for name in self.emulated:
            self.config_texts[name] = render_config(self.configs[name])

        # 3. Speaker route snapshots from the idealized full-network
        #    simulation (Prepare pulls "routing states snapshots", §6.1).
        simulator = ControlPlaneSimulator(topology, self.configs)
        emulated_set = set(self.emulated)
        for speaker in self.speakers:
            per_peer: Dict[int, List[SpeakerRoute]] = {}
            for link in topology.links_of(speaker):
                neighbor, _if = link.other_end(speaker)
                if neighbor not in emulated_set:
                    continue
                peer_ip = link.address_of(speaker)
                announcements = [
                    SpeakerRoute(prefix=pfx, as_path=path)
                    for pfx, path in simulator.announcements_to(speaker,
                                                                neighbor)]
                # Key by the *speaker-side* address: that is the local IP the
                # speaker's session uses... sessions are keyed by the peer
                # (boundary device) address.
                boundary_ip = link.address_of(neighbor)
                per_peer[boundary_ip.value] = announcements
            self.speaker_routes[speaker] = per_peer

        # 4. VM planning.
        hardware_set = set(hardware or ())
        unknown_hw = hardware_set - set(self.emulated)
        if unknown_hw:
            raise OrchestratorError(
                f"hardware devices {sorted(unknown_hw)} are not in the "
                f"emulated set")
        for name in sorted(hardware_set):
            self.hardware[name] = HardwareDevice(
                name=name, ports=sorted(topology.interfaces_of(name)))
        vendors = {name: self._vendor_of(name).name for name in self.emulated
                   if name not in hardware_set}
        self.placement = plan_vms(vendors, self.speakers,
                                  emulation_id=self.emulation_id,
                                  num_vms=num_vms,
                                  group_by_vendor=group_by_vendor)

        # 5. Spawn VMs on-demand, in parallel (round-robin over clouds).
        homes = {plan.name: self.clouds[i % len(self.clouds)]
                 for i, plan in enumerate(self.placement.vms)}
        spawn_events = [homes[plan.name].spawn_vm(plan.name, plan.sku)
                        for plan in self.placement.vms]
        if self.hardware:
            # The fanout switch tunnels each hardware port to a virtual
            # interface on an on-premise server we bridge into the overlay.
            self.fanout = FanoutSwitch(self.env)
            spawn_events.append(self.cloud.spawn_vm(
                f"{self.emulation_id}-lab0", LAB_SERVER_SKU))
        yield self.env.all_of(spawn_events)
        for plan in self.placement.vms:
            vm = homes[plan.name].vm(plan.name)
            self.vms[plan.name] = vm
            engine = DockerEngine(self.env, vm, obs=self.obs)
            engine.pull_image(PHYNET_IMAGE)
            if plan.vendor_group == "mixed":
                for device in plan.devices:
                    engine.pull_image(self._vendor_of(device).image)
            elif plan.vendor_group != "speakers":
                engine.pull_image(get_vendor(plan.vendor_group).image)
        if self.hardware:
            lab_name = f"{self.emulation_id}-lab0"
            self.lab_server = self.cloud.vm(lab_name)
            self.vms[lab_name] = self.lab_server
            engine = DockerEngine(self.env, self.lab_server, obs=self.obs)
            engine.pull_image(PHYNET_IMAGE)
            for name in self.hardware:
                engine.pull_image(self._vendor_of(name).image)
        self.metrics.prepare_latency = self.env.now - start
        self.metrics.vm_count = len(self.vms)
        self.metrics.hourly_cost_usd = self.placement.hourly_cost_usd()
        self.metrics.device_count = len(self.emulated)
        self.metrics.speaker_count = len(self.speakers)
        self.prepared = True
        span.annotate(vms=len(self.vms), devices=len(self.emulated),
                      speakers=len(self.speakers)).finish()
        self._phase_gauge.set(self.metrics.prepare_latency, phase="prepare")
        self._log(f"prepare done: {len(self.vms)} VMs "
                  f"(${self.metrics.hourly_cost_usd:.2f}/h)")
        return self

    # ------------------------------------------------------------------
    # Mockup
    # ------------------------------------------------------------------

    def mockup(self, route_ready_timeout: float = 3600.0) -> "CrystalNet":
        if self.shards is not None and self._shard_ctx is None:
            return self._mockup_sharded(route_ready_timeout)
        done = self.env.process(self.mockup_async(route_ready_timeout),
                                name="mockup")
        self.env.run(until=done)
        return self

    def _mockup_sharded(self, route_ready_timeout: float) -> "CrystalNet":
        """Mockup on the parallel backend: fork K workers, coordinate.

        The parent becomes a pure coordinator — its own sim clock stays at
        the end of Prepare and its device table stays empty; monitor calls
        (:meth:`pull_states`, :meth:`explain`, :meth:`network_dump`) are
        served by the workers and merged deterministically.  Interactive
        control (reload/connect/chaos/...) needs the single-process path.
        """
        from ..sim.shard import ShardCoordinator
        from .planner import plan_shards
        if not self.prepared:
            raise OrchestratorError("call prepare() before mockup()")
        if self.mocked_up:
            raise OrchestratorError("already mocked up; Clear first")
        if self.hardware:
            raise OrchestratorError(
                "the sharded backend (REPRO_SHARDS) does not support "
                "fanout-attached hardware devices")
        if len(self.clouds) > 1:
            raise OrchestratorError(
                "the sharded backend (REPRO_SHARDS) does not support "
                "multi-cloud federation")
        plan = plan_shards(self.placement, self.shards,
                           topology=self.topology)
        self._log(f"sharded mockup: {self.shards} shards, "
                  f"devices per shard {plan.device_counts()}")
        self._coordinator = ShardCoordinator(
            self, plan, route_ready_timeout=route_ready_timeout)
        result = self._coordinator.run_mockup()
        # Analysis window for critical_path(): every worker recorded the
        # same mockup-start sim time (replicated skeleton), and the
        # coordinator adjudicated one quiescence onset for the fleet.
        self._mockup_start = result.shard_stats[0].get("mockup_start")
        self._quiet_since = result.quiet_since
        self.metrics.network_ready_latency = result.network_ready_latency
        self.metrics.route_ready_latency = result.route_ready_latency
        self.metrics.link_count = result.link_count
        self._phase_gauge.set(result.network_ready_latency,
                              phase="network-ready")
        self._phase_gauge.set(result.route_ready_latency,
                              phase="route-ready")
        self._phase_gauge.set(self.metrics.mockup_latency, phase="mockup")
        self.mocked_up = True
        self._log(f"route-ready in {result.route_ready_latency:.1f}s "
                  f"({self.shards} shards)")
        return self

    def close(self) -> None:
        """Shut down shard workers, if any (no-op on the normal path)."""
        if self._coordinator is not None:
            self._coordinator.shutdown()
            self._coordinator = None

    def mockup_async(self, route_ready_timeout: float = 3600.0):
        """Create the emulation (a simulation process)."""
        if not self.prepared:
            raise OrchestratorError("call prepare() before mockup()")
        if self.mocked_up:
            raise OrchestratorError("already mocked up; Clear first")
        start = self.env.now
        self._mockup_start = start
        tracer = self.obs.tracer
        mockup_span = tracer.begin("mockup", track="orchestrator")
        net_ready_span = tracer.begin("network-ready", track="orchestrator",
                                      parent=mockup_span)

        # Per-VM overlay initialization (kernel modules, docker networking).
        yield self.env.all_of([vm.cpu.execute(VM_OVERLAY_INIT_COST)
                               for vm in self.vms.values()])

        # Phase 1a: PhyNet containers (hold namespaces + tooling, §4.1).
        phynet_events: List[Event] = []
        speaker_set = set(self.speakers)
        for name in self.emulated + self.speakers:
            if name in self.hardware:
                vm = self.lab_server
                netns = self.fanout.attach(self.hardware[name])
                kind = "hardware"
            else:
                vm = self.vms[self.placement.vm_of(name)]
                netns = NetworkNamespace(name)
                kind = "speaker" if name in speaker_set else "device"
            phynet = vm.docker.create(f"phynet-{name}", PHYNET_IMAGE,
                                      netns=netns)
            self.devices[name] = EmulatedDevice(
                name=name,
                kind=kind,
                vendor=(None if kind == "speaker" else self._vendor_of(name)),
                vm=vm, netns=netns, phynet=phynet)
            phynet_events.append(phynet.start())
        yield self.env.all_of(phynet_events)

        # Phase 1b: virtual links (batched).
        participants = set(self.emulated) | set(self.speakers)
        batch = 0
        for link in self.topology.links:
            if link.dev_a not in participants or link.dev_b not in participants:
                continue
            rec_a, rec_b = self.devices[link.dev_a], self.devices[link.dev_b]
            data_link = self.fabric.connect(
                Endpoint(rec_a.vm, rec_a.netns, link.if_a),
                Endpoint(rec_b.vm, rec_b.netns, link.if_b))
            self.links[frozenset((link.dev_a, link.dev_b))] = data_link
            batch += 1
            if batch % LINK_BATCH_SIZE == 0:
                pause = self.env.timeout(LINK_BATCH_LATENCY)
                pause.name = "link-batch"  # critpath waterfall label
                yield pause
        # Links are up once every VM has drained its setup work: a zero-cost
        # task on a FCFS CPU completes after everything queued before it.
        yield self.env.all_of([vm.cpu.execute(0.0)
                               for vm in self.vms.values()])
        self.metrics.link_count = len(self.links)
        self.metrics.network_ready_latency = self.env.now - start
        net_ready_span.annotate(links=len(self.links)).finish()
        self._phase_gauge.set(self.metrics.network_ready_latency,
                              phase="network-ready")
        self._log(f"network-ready in {self.metrics.network_ready_latency:.1f}s "
                  f"({len(self.links)} links)")
        # Route-ready covers everything from network-ready to control-plane
        # quiescence (§8.1), including the device boots below.
        route_ready_span = tracer.begin("route-ready", track="orchestrator",
                                        parent=mockup_span)

        # Phase 2: boot device software + speakers, wire management plane.
        boot_events: List[Event] = []
        for name, record in self.devices.items():
            boot_events.append(self._boot_guest(record, parent=mockup_span))
        yield self.env.all_of(boot_events)

        if self._shard_ctx is not None:
            # Shard worker: route-readiness is adjudicated by the
            # coordinator from per-shard verdicts sampled at the same poll
            # cadence; this process just records where the wait began.
            self._shard_ctx.mockup_start = start
            self._shard_ctx.wait_start = self.env.now
            self._shard_ctx.route_ready_span = route_ready_span
            self._shard_ctx.mockup_span = mockup_span
            return self

        # Route-ready: wait for control-plane quiescence (§8.1).
        yield from self._wait_route_ready(start, route_ready_timeout,
                                          route_ready_span)
        self.mocked_up = True
        self.record_timeline("route-ready")
        mockup_span.annotate(devices=len(self.devices)).finish()
        self._phase_gauge.set(self.metrics.mockup_latency, phase="mockup")
        return self

    def _boot_guest(self, record: EmulatedDevice,
                    parent: Optional[object] = None) -> Event:
        name = record.name
        # Drawn before any branching: every shard worker consumes the
        # orchestrator seed stream for *all* devices in the same order, so
        # a device's firmware RNG seed never depends on the shard count
        # (ghosts simply discard theirs).
        seed = self.rng.getrandbits(32)
        ctx = self._shard_ctx
        if ctx is not None and name not in ctx.owned:
            if record.kind == "speaker":
                guest = GhostGuest(name, record.kind,
                                   self._speaker_config(name))
                sandbox = record.vm.docker.create(
                    f"speaker-{name}", PHYNET_IMAGE,
                    netns=record.netns, guest=guest)
            else:
                guest = GhostGuest(name, record.kind, self.configs[name])
                sandbox = record.vm.docker.create(
                    f"os-{name}", record.vendor.image,
                    netns=record.netns, guest=guest)
        elif record.kind == "speaker":
            guest = SpeakerOS(self.env, name,
                              self._speaker_config(name),
                              self.speaker_routes.get(name, {}),
                              seed=seed,
                              prov=self.prov, obs=self.obs)
            image = PHYNET_IMAGE  # ExaBGP-style: negligible footprint
            sandbox = record.vm.docker.create(f"speaker-{name}", image,
                                              netns=record.netns, guest=guest)
        else:
            vendor = record.vendor
            guest = DeviceOS(self.env, name, vendor,
                             self.config_texts[name],
                             seed=seed,
                             obs=self.obs, prov=self.prov,
                             on_crash=functools.partial(
                                 self._note_firmware_crash, name))
            sandbox = record.vm.docker.create(f"os-{name}", vendor.image,
                                              netns=record.netns, guest=guest)
        record.sandbox = sandbox
        record.guest = guest
        self.mgmt.register_device(name, record.vm, sandbox, guest.execute)
        span = self.obs.tracer.begin("boot", track="boot", parent=parent,
                                     device=name, kind=record.kind)
        started = sandbox.start()
        started.add_callback(lambda _e: span.finish())
        return started

    def _wait_route_ready(self, mockup_start: float, timeout: float,
                          span: Optional[object] = None):
        network_ready_at = mockup_start + self.metrics.network_ready_latency
        deadline = self.env.now + timeout
        quiet_since: Optional[float] = None
        while self.env.now < deadline:
            self._mem.poll(self)
            if self._control_plane_ready():
                if quiet_since is None:
                    quiet_since = self.env.now
                elif self.env.now - quiet_since >= ROUTE_READY_SETTLE:
                    # Converged: force a final walk so the memory gauges
                    # report the exact settled state (poll() decimates).
                    self._mem.sample(self)
                    self._quiet_since = quiet_since
                    self.metrics.route_ready_latency = (
                        quiet_since - network_ready_at)
                    if span is not None:
                        # The span ends at quiescence *onset*, not at
                        # detection, so its duration equals the §8.1 metric.
                        span.finish(end=quiet_since)
                    self._phase_gauge.set(self.metrics.route_ready_latency,
                                          phase="route-ready")
                    self._log(f"route-ready in "
                              f"{self.metrics.route_ready_latency:.1f}s")
                    return
            else:
                quiet_since = None
            pause = self.env.timeout(ROUTE_READY_POLL)
            pause.name = "route-ready-poll"  # classified idle, not work
            yield pause
        if span is not None:
            span.annotate(timed_out=True).finish()
        # The black box outlives the exception: recent phase transitions,
        # polls, and swallowed errors, persisted if $REPRO_FLIGHT_DIR is
        # set (see repro.obs.flight).
        _doc, flight_path = write_flight_artifact(
            [self.obs.flight.snapshot()], "route-ready-timeout")
        hint = f"; flight recorder: {flight_path}" if flight_path else ""
        raise OrchestratorError(
            f"routes did not stabilize within {timeout}s; "
            f"statuses={ {n: r.status for n, r in self.devices.items()} }"
            f"{hint}")

    def _control_plane_ready(self) -> bool:
        alive: Set[str] = set()
        for name, record in self.devices.items():
            if record.status in ("running",):
                alive.add(name)
            elif record.status == "crashed":
                continue
            elif record.kind == "speaker" and record.status == "running":
                alive.add(name)
        for name, record in self.devices.items():
            guest = record.guest
            if guest is None:
                return False
            if record.status == "booting":
                return False
            if record.status == "crashed":
                continue
            if not guest.is_quiescent:
                return False
            # Every session toward a live neighbor must be established.
            if record.kind in ("device", "hardware") and guest.bgp is not None:
                expected = self._expected_peers(name, alive)
                established = {
                    IPv4Address(peer_value).value
                    for peer_value, session in guest.bgp.sessions.items()
                    if session.state == "established"}
                if not expected <= established:
                    return False
        return True

    def _expected_peers(self, name: str, alive: Set[str]) -> Set[int]:
        expected: Set[int] = set()
        my_guest = self.devices[name].guest
        for link in self.topology.links_of(name):
            neighbor, _ = link.other_end(name)
            if neighbor not in alive or neighbor == name:
                continue
            pair = frozenset((name, neighbor))
            data_link = self.links.get(pair)
            if data_link is None or not data_link.up:
                continue
            local_ip = link.address_of(name)
            peer_ip = link.address_of(neighbor)
            if peer_ip is None or local_ip is None:
                continue
            # Administratively-shut-down peerings (on either side) are not
            # expected to establish.
            peer_guest = self.devices[neighbor].guest
            if (_neighbor_shutdown(my_guest, peer_ip)
                    or _neighbor_shutdown(peer_guest, local_ip)):
                continue
            expected.add(peer_ip.value)
        return expected

    def _speaker_config(self, name: str) -> DeviceConfig:
        """A speaker's minimal config: boundary-facing interfaces + peers."""
        full = self.configs[name]
        emulated_set = set(self.emulated)
        config = DeviceConfig(hostname=name, vendor="ctnr-b")
        keep_ifaces = {"lo0"}
        keep_peers = set()
        for link in self.topology.links_of(name):
            neighbor, _ = link.other_end(name)
            if neighbor in emulated_set:
                local_if = (link.if_a if link.dev_a == name else link.if_b)
                keep_ifaces.add(local_if)
                keep_peers.add(link.address_of(neighbor).value)
        config.interfaces = [i for i in full.interfaces
                             if i.name in keep_ifaces]
        if full.bgp is not None:
            from ..config.model import BgpConfig
            config.bgp = BgpConfig(
                asn=full.bgp.asn, router_id=full.bgp.router_id,
                neighbors=[n for n in full.bgp.neighbors
                           if n.peer_ip.value in keep_peers])
        return config

    # ------------------------------------------------------------------
    # Sharded backend: worker-process side (see repro.sim.shard)
    # ------------------------------------------------------------------

    def _enter_shard_worker(self, shard_id: int, plan, lookahead: float):
        """Turn this (forked) process into shard ``shard_id``'s worker."""
        from ..sim.shard import ShardWorkerContext
        from ..virt.shard_channel import ShardRouter
        owned_vms = set(plan.owned_vms(shard_id))
        owned = {name for name, vm_name in self.placement.assignment.items()
                 if vm_name in owned_vms}
        router = ShardRouter(shard_id, owned_vms, lookahead, obs=self.obs)
        self.cloud.shard_router = router
        if router.trace_enabled:
            # Route owned VMs' ingress through the router so a delivery
            # that came over the channel runs under its trace context
            # (local arrivals pass straight through; see deliver_traced).
            for vm_name in owned_vms:
                vm = self.cloud.vms.get(vm_name)
                if vm is not None:
                    vm.ingress_tap = router.deliver_traced
        if self.obs.enabled:
            # Re-key the fork-inherited telemetry to this worker.
            self._mem = MemoryMonitor(self.obs, shard=str(shard_id))
            self.obs.flight.shard = shard_id
        if self.env.critpath is not None:
            # The recorder (and its prepare-phase forest) came through
            # the fork; only its shard label needs this worker's id.
            self.env.critpath.shard = shard_id
        ctx = ShardWorkerContext(shard_id=shard_id, shards=plan.shards,
                                 owned=owned, router=router)
        self._shard_ctx = ctx
        self._coordinator = None
        return ctx

    def _sample_memory(self) -> Optional[dict]:
        """Refresh the per-subsystem memory gauges (worker poll cadence,
        decimated; :meth:`_finish_shard_mockup` forces the final walk)."""
        return self._mem.poll(self)

    def _shard_local_ready(self) -> bool:
        """This shard's contribution to :meth:`_control_plane_ready`.

        The check decomposes per device, so the conjunction of every
        shard's local verdict equals the single-process global verdict:
        ghosts count as alive (their boot state is vouched for by their
        owner's verdict at the same poll time) unless their owner reported
        them crashed, which the coordinator broadcasts.
        """
        ctx = self._shard_ctx
        owned = ctx.owned
        alive: Set[str] = set()
        for name, record in self.devices.items():
            if name in owned:
                if record.status == "running":
                    alive.add(name)
            elif name not in ctx.remote_crashed:
                alive.add(name)
        for name, record in self.devices.items():
            if name not in owned:
                continue
            guest = record.guest
            if guest is None:
                return False
            if record.status == "booting":
                return False
            if record.status == "crashed":
                continue
            if not guest.is_quiescent:
                return False
            if record.kind in ("device", "hardware") and guest.bgp is not None:
                expected = self._expected_peers(name, alive)
                established = {
                    IPv4Address(peer_value).value
                    for peer_value, session in guest.bgp.sessions.items()
                    if session.state == "established"}
                if not expected <= established:
                    return False
        return True

    def _finish_shard_mockup(self, quiet_since: float,
                             route_ready_latency: float) -> None:
        """Seal a worker's mockup once the coordinator declared readiness."""
        ctx = self._shard_ctx
        # Final memory walk: the converged gauge values ship with this
        # worker's registry at finalize (poll-time sampling is decimated).
        self._mem.sample(self)
        self._mockup_start = ctx.mockup_start
        self._quiet_since = quiet_since
        self.metrics.route_ready_latency = route_ready_latency
        if ctx.route_ready_span is not None:
            ctx.route_ready_span.finish(end=quiet_since)
        if ctx.mockup_span is not None:
            # env.now here is the detection poll — the same instant the
            # single-process loop returns from its route-ready wait — so
            # the span ends exactly where the unsharded mockup span does
            # and the cross-worker span merge dedupes them to one.
            ctx.mockup_span.annotate(devices=len(self.devices)).finish()
        self._phase_gauge.set(route_ready_latency, phase="route-ready")
        self._phase_gauge.set(self.metrics.mockup_latency, phase="mockup")
        self.mocked_up = True
        self.record_timeline("route-ready")
        self._log(f"route-ready in {route_ready_latency:.1f}s "
                  f"(shard {ctx.shard_id})")

    # ------------------------------------------------------------------
    # Clear / Destroy
    # ------------------------------------------------------------------

    def clear(self) -> "CrystalNet":
        self._forbid_sharded("clear")
        done = self.env.process(self.clear_async(), name="clear")
        self.env.run(until=done)
        return self

    def clear_async(self):
        """Reset VMs to a clean state; keep them for the next Mockup."""
        start = self.env.now
        span = self.obs.tracer.begin("clear", track="orchestrator")
        containers_per_vm: Dict[str, int] = {}
        for record in self.devices.values():
            if record.sandbox is not None:
                record.vm.docker.remove(record.sandbox.name)
                containers_per_vm[record.vm.name] = (
                    containers_per_vm.get(record.vm.name, 0) + 1)
            record.vm.docker.remove(record.phynet.name)
            containers_per_vm[record.vm.name] = (
                containers_per_vm.get(record.vm.name, 0) + 1)
            self.mgmt.unregister_device(record.name)
        for data_link in list(self.links.values()):
            self.fabric.destroy(data_link)
        self.links.clear()
        self.devices.clear()
        # Cleanup cost: container teardown batched across VMs, in parallel.
        teardown = [
            vm.cpu.execute(VM_CLEAR_BASE_COST
                           + CONTAINER_TEARDOWN_COST
                           * containers_per_vm.get(vm.name, 0))
            for vm in self.vms.values()]
        if teardown:
            yield self.env.all_of(teardown)
        self.metrics.clear_latency = self.env.now - start
        self.mocked_up = False
        span.finish()
        self._phase_gauge.set(self.metrics.clear_latency, phase="clear")
        self._log(f"clear in {self.metrics.clear_latency:.1f}s")
        return self

    def destroy(self) -> None:
        """Erase everything including the VMs."""
        if self._coordinator is not None:
            # Sharded: the mockup state lives in the (now discarded)
            # workers; there is nothing parent-side to Clear.
            self.close()
            self.mocked_up = False
        if self.mocked_up:
            self.clear()
        for name, vm in list(self.vms.items()):
            vm.cloud.delete_vm(name)
        self.vms.clear()
        self.prepared = False
        self._log("destroyed")

    # ------------------------------------------------------------------
    # Control functions
    # ------------------------------------------------------------------

    def reload(self, device: str, config_text: Optional[str] = None,
               vendor: Optional[VendorProfile] = None) -> float:
        """Reboot one device with new software/config (blocking).

        Returns the reload latency.  Thanks to the two-layer design the
        PhyNet namespace (interfaces, links) survives, so this is seconds,
        not minutes (§8.3).
        """
        # Checked here too: reload_async is a generator, so its own guard
        # only fires once the process is actually stepped.
        self._forbid_sharded("reload")
        done = self.env.process(
            self.reload_async(device, config_text=config_text, vendor=vendor),
            name=f"reload:{device}")
        return self.env.run(until=done)

    def reload_async(self, device: str, config_text: Optional[str] = None,
                     vendor: Optional[VendorProfile] = None):
        """Reload as a simulation process (usable from other processes —
        health recovery, chaos injection).  Returns the reload latency."""
        self._forbid_sharded("reload")
        record = self._device_record(device)
        if record.kind == "speaker":
            raise OrchestratorError(f"{device} is a speaker; reconfigure "
                                    f"the boundary instead")
        self._m_ops.inc(op="reload")
        self._log(f"reload {device}", kind="control", subject=device,
                  op="reload")
        start = self.env.now
        guest: DeviceOS = record.guest
        if config_text is not None:
            self.config_texts[device] = config_text
            guest.config_text = config_text
        if vendor is not None:
            # Firmware upgrade: swap the guest for one running the new image.
            record.vm.docker.remove(record.sandbox.name)
            new_guest = DeviceOS(self.env, device, vendor,
                                 self.config_texts[device],
                                 seed=self.rng.getrandbits(32),
                                 obs=self.obs, prov=self.prov)
            sandbox = record.vm.docker.create(f"os-{device}", vendor.image,
                                              netns=record.netns,
                                              guest=new_guest)
            record.sandbox = sandbox
            record.guest = new_guest
            record.vendor = vendor
            self.mgmt.unregister_device(device)
            self.mgmt.register_device(device, record.vm, sandbox,
                                      new_guest.execute)
            yield sandbox.start()
        else:
            yield record.sandbox.restart()
        return self.env.now - start

    def warm_reload(self, device: str, config_text: str) -> None:
        """Apply a config change to a running device without a reboot.

        The incremental-reconvergence path of the what-if engine
        (:mod:`repro.snapshot`): the BGP daemon keeps its converged RIBs
        and sessions and re-processes only what the new configuration
        perturbs (see :meth:`BgpDaemon.warm_reload
        <repro.firmware.bgp.daemon.BgpDaemon.warm_reload>`).  Changes the
        warm path cannot express — interfaces, FIB capacity, vendor
        identity — raise; use :meth:`reload` (cold) for those.
        """
        self._forbid_sharded("warm_reload")
        record = self._device_record(device)
        if record.kind == "speaker":
            raise OrchestratorError(f"{device} is a speaker; reconfigure "
                                    f"the boundary instead")
        guest: DeviceOS = record.guest
        if (guest is None or guest.status != "running"
                or guest.bgp is None):
            raise OrchestratorError(
                f"{device} is not running a warm-reloadable daemon; "
                f"use reload()")
        new_config = parse_config(
            config_text, guest.vendor.name,
            firmware_version=guest.vendor.acl_firmware_version)
        old_config = guest.config
        if new_config.interfaces != old_config.interfaces:
            raise OrchestratorError(
                f"{device}: interface changes require a cold reload()")
        if new_config.fib_capacity != old_config.fib_capacity:
            raise OrchestratorError(
                f"{device}: FIB capacity changes require a cold reload()")
        self._m_ops.inc(op="warm-reload")
        self._log(f"warm-reload {device}", kind="control", subject=device,
                  op="warm-reload")
        self.config_texts[device] = config_text
        guest.config_text = config_text
        guest.bgp.warm_reload(new_config)
        guest.config = new_config
        guest._apply_transit_acl()

    def connect(self, dev_a: str, dev_b: str) -> None:
        """(Re-)connect the topology link between two devices."""
        self._forbid_sharded("connect")
        link = self.links.get(frozenset((dev_a, dev_b)))
        if link is None:
            raise OrchestratorError(f"no provisioned link {dev_a}<->{dev_b}")
        self._m_ops.inc(op="connect")
        self._log(f"connect {dev_a}<->{dev_b}", kind="control",
                  subject=f"{dev_a}|{dev_b}", op="connect")
        self.fabric.reconnect(link)

    def disconnect(self, dev_a: str, dev_b: str) -> None:
        """Cut the link between two devices (fiber-cut injection)."""
        self._forbid_sharded("disconnect")
        link = self.links.get(frozenset((dev_a, dev_b)))
        if link is None:
            raise OrchestratorError(f"no provisioned link {dev_a}<->{dev_b}")
        self._m_ops.inc(op="disconnect")
        self._log(f"disconnect {dev_a}<->{dev_b}", kind="control",
                  subject=f"{dev_a}|{dev_b}", op="disconnect")
        self.fabric.disconnect(link)

    def inject_packets(self, device: str, src: str | IPv4Address,
                       dst: str | IPv4Address, signature: str,
                       count: int = 1, interval: float = 0.1) -> None:
        """Inject ``count`` signed probes at ``device`` (§3.3)."""
        self._forbid_sharded("inject_packets")
        record = self._device_record(device)
        if record.kind == "speaker":
            raise OrchestratorError("packets are injected at emulated "
                                    "devices, not speakers")
        guest: DeviceOS = record.guest
        self._m_ops.inc(float(count), op="inject-packets")
        src_ip = IPv4Address(src) if isinstance(src, str) else src
        dst_ip = IPv4Address(dst) if isinstance(dst, str) else dst
        for i in range(count):
            self.env.call_later(
                i * interval,
                guest.inject_packet, src_ip, dst_ip, signature)

    # ------------------------------------------------------------------
    # Monitor functions
    # ------------------------------------------------------------------

    def list_devices(self) -> List[dict]:
        if self._coordinator is not None:
            # The device records live in the workers; identity comes from
            # the plan, liveness from the merged per-device states.
            states = self._coordinator.pull_states()
            speaker_set = set(self.speakers)
            listing = []
            for name in self.emulated + self.speakers:
                kind = ("hardware" if name in self.hardware
                        else "speaker" if name in speaker_set else "device")
                vendor = None if kind == "speaker" else self._vendor_of(name)
                listing.append({
                    "name": name, "kind": kind,
                    "vendor": vendor.name if vendor else "speaker",
                    "vm": self.placement.vm_of(name),
                    "status": states.get(name, {}).get("status", "unknown")})
            return listing
        return [{"name": r.name, "kind": r.kind,
                 "vendor": r.vendor.name if r.vendor else "speaker",
                 "vm": r.vm.name, "status": r.status}
                for r in self.devices.values()]

    def enable_timeline(self) -> StateTimeline:
        """Arm the RIB/FIB timeline recorder (repro.provenance).

        Once enabled, the orchestrator records a network-wide snapshot at
        route-ready and after every convergence, and the chaos engine
        samples it through each fault's settle window — the data
        ``netscope diff``/``blame`` render."""
        if self.timeline is None:
            self.timeline = StateTimeline(clock=EnvClock(self.env),
                                          obs=self.obs)
        return self.timeline

    def record_timeline(self, label: str) -> None:
        """Commit one timeline snapshot (no-op unless enabled)."""
        if self.timeline is not None and self.devices:
            self.timeline.record(label, self.pull_states())

    def explain(self, device: str, prefix) -> dict:
        """The causal chain behind one device's view of one prefix
        (origin announcement → policy/decision verdicts → FIB install);
        see :mod:`repro.provenance` and the ``netscope`` CLI."""
        if self._coordinator is not None:
            return self._coordinator.explain(device, str(prefix))
        return explain_prefix(self, device, prefix)

    def network_dump(self, prefixes=None) -> dict:
        """The full provenance document (``netscope explain``'s input).

        In sharded mode this merges per-worker fragments; the result is
        byte-identical (via :func:`repro.provenance.dump.dump_json`) to the
        single-process document."""
        from ..provenance.dump import network_dump
        if self._coordinator is not None:
            return self._coordinator.network_dump(prefixes)
        return network_dump(self, prefixes)

    def metrics_dump(self) -> dict:
        """Metric snapshot: the local registry, or in sharded mode the
        deterministic merge of every worker's registry (counters and
        histograms summed, gauges from the lowest shard)."""
        if self._coordinator is not None:
            return self._coordinator.merged_metrics()
        return self.obs.metrics.to_dict()

    def trace_dump(self) -> dict:
        """The canonical span document for this run.

        Both paths go through :func:`repro.obs.merge.merge_span_dumps`
        (a single-dump "merge" just canonicalizes: chronological order,
        renumbered ids, wall annotations dropped), so for a pinned seed
        the sharded merge is byte-identical to the single-process dump.
        """
        from ..obs.merge import merge_span_dumps
        if self._coordinator is not None:
            spans = self._coordinator.merged_spans()
        else:
            spans = merge_span_dumps(
                [[span.to_dict() for span in self.obs.tracer.spans]])
        return {"version": 1, "schema_version": SCHEMA_VERSION,
                "spans": spans}

    def window_profile(self) -> dict:
        """Per-shard window-protocol profiles + the fleet aggregate
        (``netscope windows``'s input).  Empty on the unsharded path —
        there is no window protocol to profile."""
        from ..obs.windows import WindowProfiler
        profiles = (list(self._coordinator.window_profiles)
                    if self._coordinator is not None else [])
        return {"version": 1, "schema_version": SCHEMA_VERSION,
                "shards": profiles,
                "aggregate": WindowProfiler.aggregate(profiles)}

    def channel_traces(self) -> dict:
        """Merged cross-shard causal traces (deterministic for a pinned
        seed at a given shard count; empty on the unsharded path)."""
        from ..obs.merge import merge_channel_traces
        if self._coordinator is not None:
            return self._coordinator.channel_traces()
        return merge_channel_traces([])

    def critical_path(self, k: int = 5) -> dict:
        """The analyzed critical-path document for the last mockup
        (``netscope critpath``'s input): top-``k`` sim-time-weighted
        causal chains from boot to route-ready, with a per-phase /
        per-device waterfall, slack, and attribution coverage.

        Needs ``critpath=True`` / ``REPRO_CRITPATH=1``.  For a pinned
        seed the document is byte-identical whatever the shard count —
        chains are canonicalized to event content, so process-local ids
        and the replicated skeleton's duplicates collapse.
        """
        from ..obs.critpath import analyze
        if not self.critpath.enabled:
            raise OrchestratorError(
                "critical-path recording is off; construct with "
                "critpath=True or set REPRO_CRITPATH=1")
        if self._coordinator is not None:
            exports, start, horizon = self._coordinator.critical_paths()
            return analyze(exports, start=start, horizon=horizon, k=k)
        return analyze([self.critpath.export(horizon=self._quiet_since)],
                       start=self._mockup_start,
                       horizon=self._quiet_since, k=k)

    def memory_report(self) -> dict:
        """Where the bytes go, from the ``repro_mem_entries`` gauges.

        Partitioned subsystems (Loc-RIB, Adj-RIB-Out, FIB) are summed
        across shards — ghosts contribute nothing, so the totals equal
        the unsharded run's.  Process-local subsystems (interned
        attributes, event heap) report the per-shard maximum: every
        worker holds its own copy, so summing would overstate any one
        process's footprint.
        """
        from ..obs.memory import SUBSYSTEMS
        family = self.metrics_dump().get("repro_mem_entries", {})
        per_shard: Dict[str, Dict[str, float]] = {}
        for sample in family.get("samples", ()):
            labels = sample.get("labels", {})
            shard = labels.get("shard", "0")
            per_shard.setdefault(shard, {})[labels.get("subsystem", "?")] = \
                sample.get("value", 0)
        partitioned = ("loc-rib", "adj-rib-out", "fib")
        network = {s: sum(per_shard[k].get(s, 0) for k in per_shard)
                   for s in partitioned}
        process_max = {s: max((per_shard[k].get(s, 0) for k in per_shard),
                              default=0)
                       for s in SUBSYSTEMS if s not in partitioned}
        return {"version": 1, "schema_version": SCHEMA_VERSION,
                "per_shard": {k: per_shard[k] for k in sorted(per_shard)},
                "network": network, "process_max": process_max}

    def pull_states(self, device: Optional[str] = None,
                    memo: Optional[Dict[str, dict]] = None) -> dict:
        """PullStates for one device, or ``{device: document}`` for all.

        ``memo`` is a caller-owned network render memo
        (:func:`repro.firmware.fib.device_memo`) kept by code that samples
        repeatedly (the chaos engine); each device reuses its FIB
        and Loc-RIB renders from it while those tables are unchanged (see
        :func:`repro.firmware.fib.reuse_render`).  Renders are shared and
        read-only.  The sharded path ignores it.
        """
        if self._coordinator is not None:
            states = self._coordinator.pull_states()
            if device is not None:
                if device not in states:
                    raise OrchestratorError(
                        f"unknown device {device!r} (not emulated)")
                return states[device]
            # Same iteration order as the single-process path: the device
            # table is populated in emulated-then-speakers order.
            return {name: states[name]
                    for name in self.emulated + self.speakers
                    if name in states}
        if device is not None:
            return self._device_record(device).guest.pull_states(
                device_memo(memo, device))
        return {name: record.guest.pull_states(device_memo(memo, name))
                for name, record in self.devices.items()
                if record.guest is not None}

    def pull_config(self, device: str) -> str:
        self._forbid_sharded("pull_config")
        record = self._device_record(device)
        if record.kind == "speaker":
            raise OrchestratorError(f"{device} is a speaker")
        return record.guest.config_text

    def pull_packets(self, signature: Optional[str] = None,
                     clean: bool = True) -> List[PacketRecord]:
        self._forbid_sharded("pull_packets")
        records: List[PacketRecord] = []
        for device in self.devices.values():
            for container in (device.sandbox, device.phynet):
                if container is None:
                    continue
                kept = []
                for packet in container.captures:
                    if signature is None or packet.signature == signature:
                        records.append(packet)
                    elif clean:
                        kept.append(packet)
                if clean:
                    container.captures[:] = kept if signature else []
        records.sort(key=lambda r: (r.signature, r.time))
        return records

    def login(self, device: str) -> LoginSession:
        self._forbid_sharded("login")
        return self.mgmt.login(device)

    def run(self, seconds: float) -> None:
        """Advance the emulation clock (convenience wrapper)."""
        self._forbid_sharded("run")
        self.env.run(until=self.env.now + seconds)

    def converge(self, timeout: float = 1800.0,
                 settle: float = ROUTE_READY_SETTLE) -> float:
        """Run until the control plane stabilizes again (after a change)."""
        self._forbid_sharded("converge")
        start = self.env.now
        deadline = start + timeout
        quiet_since: Optional[float] = None
        # One scope across the polls: each env.run() returning would
        # otherwise be a phase boundary where a deferred full
        # collection may land.
        with gcpolicy.bulk_phase():
            while self.env.now < deadline:
                if self._all_quiescent():
                    if quiet_since is None:
                        quiet_since = self.env.now
                    elif self.env.now - quiet_since >= settle:
                        self.record_timeline("converged")
                        return quiet_since - start
                else:
                    quiet_since = None
                self.env.run(
                    until=min(deadline, self.env.now + ROUTE_READY_POLL))
        raise OrchestratorError(f"no convergence within {timeout}s")

    def _all_quiescent(self) -> bool:
        return all(r.guest is not None and r.status != "booting"
                   and r.guest.is_quiescent
                   for r in self.devices.values())

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _forbid_sharded(self, op: str) -> None:
        if self._coordinator is not None:
            raise OrchestratorError(
                f"{op} is not available on the sharded backend "
                f"(REPRO_SHARDS): the mockup state lives in the worker "
                f"processes; run unsharded for interactive control")

    def _vendor_of(self, name: str) -> VendorProfile:
        if name in self.vendor_overrides:
            return self.vendor_overrides[name]
        return get_vendor(self.topology.device(name).vendor)

    def _device_record(self, name: str) -> EmulatedDevice:
        record = self.devices.get(name)
        if record is None:
            raise OrchestratorError(f"unknown device {name!r} (not emulated)")
        return record

    def _note_firmware_crash(self, name: str, reason: str) -> None:
        # A named method (handed to guests via functools.partial) rather
        # than a per-device lambda, so converged mockups stay picklable.
        self._log(f"{name} CRASHED: {reason}",
                  kind="firmware-crash", subject=name)

    def _log(self, message: str, kind: str = "orchestrator",
             subject: str = "", **fields) -> None:
        self.obs.events.emit(kind, subject=subject, message=message,
                             **fields)
        # Mirror into the flight-recorder ring: phase transitions are
        # exactly the breadcrumbs a post-mortem wants first.
        self.obs.flight.note(kind, subject=subject, message=message)
