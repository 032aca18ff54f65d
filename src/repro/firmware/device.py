"""The device OS: vendor firmware packaged as a container guest.

A :class:`DeviceOS` is what runs inside a device sandbox container: it binds
the PhyNet namespace, parses its (textual) production configuration with the
vendor's grammar, brings up the host stack, and — after the vendor's boot
delay — starts the routing daemon.  Rebooting the container restarts the OS
while the namespace, interfaces, and links persist (the two-layer design,
§4.1/§8.3).

Telemetry: every packet the stack sees is offered to the capture filter; the
packets CrystalNet injected (they carry a signature, §3.3) are recorded into
the container's capture buffer for PullPackets.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Callable, List, Optional

from ..config.dialects import parse_config
from ..config.model import DeviceConfig
from ..net.ip import IPv4Address
from ..net.packet import Ipv4Packet
from ..net.stream import StreamManager
from ..obs import NULL_OBS
from ..provenance.chain import NULL_PROVENANCE
from ..sim import Environment
from ..virt.container import Container
from .bgp.daemon import BgpDaemon
from .cli import VendorCli
from .fib import Fib, reuse_render
from .netstack import HostStack
from .vendors.profiles import VendorProfile
from .worker import SerialWorker

__all__ = ["DeviceOS", "PacketRecord"]

# Name of the ACL applied to transit traffic when present in the config.
TRANSIT_ACL = "FORWARD"


class _AclPermitFilter:
    """Picklable packet filter: permit exactly what ``acl`` permits.

    Installed as ``HostStack.packet_filter`` for the device's lifetime —
    a lambda here would make every ACL-bearing device unsnapshottable.
    """

    __slots__ = ("acl",)

    def __init__(self, acl):
        self.acl = acl

    def __call__(self, src: IPv4Address, dst: IPv4Address) -> bool:
        return self.acl.evaluate(src, dst) == "permit"


@dataclass
class PacketRecord:
    """One captured telemetry packet at one device."""

    time: float
    device: str
    ifname: str
    event: str           # rx | tx
    src: IPv4Address
    dst: IPv4Address
    ttl: int
    signature: str


class DeviceOS:
    """Vendor firmware instance (container guest)."""

    def __init__(self, env: Environment, hostname: str, vendor: VendorProfile,
                 config_text: str, seed: Optional[int] = None,
                 on_crash: Optional[Callable[[str], None]] = None,
                 obs=NULL_OBS, prov=NULL_PROVENANCE):
        self.env = env
        self.hostname = hostname
        self.vendor = vendor
        self.config_text = config_text
        # crc32, not hash(): str hash() is salted per interpreter, and the
        # old ``seed or ...`` idiom also discarded an explicit ``seed=0``.
        self.rng = random.Random(seed if seed is not None
                                 else zlib.crc32(hostname.encode()) & 0xFFFFFF)
        self.on_crash = on_crash
        self.obs = obs
        self.prov = prov

        self.status = "stopped"  # stopped|booting|running|crashed
        self.container: Optional[Container] = None
        self.config: Optional[DeviceConfig] = None
        self.stack: Optional[HostStack] = None
        self.streams: Optional[StreamManager] = None
        self.worker: Optional[SerialWorker] = None
        self.bgp: Optional[BgpDaemon] = None
        self.cli: Optional[VendorCli] = None
        self.boot_count = 0
        self.booted_at: Optional[float] = None
        self.config_errors: List[str] = []

    # -- Guest protocol ------------------------------------------------------

    def on_start(self, container: Container) -> None:
        self.container = container
        self.boot_count += 1
        self.status = "booting"
        self.config_errors = []
        try:
            self.config = parse_config(
                self.config_text, self.vendor.name,
                firmware_version=self.vendor.acl_firmware_version)
        except Exception as exc:
            self.status = "crashed"
            self.config_errors.append(f"config parse failed: {exc}")
            if self.on_crash is not None:
                self.on_crash(str(exc))
            return

        fib = Fib(capacity=self.config.fib_capacity,
                  overflow_policy=self.vendor.fib_overflow_policy)
        self.stack = HostStack(self.env, self.hostname, fib=fib)
        self.stack.attach(container.netns)
        self.stack.capture_hook = self._capture
        if self.vendor.has_quirk("arp-refresh-failure"):
            self.stack.arp_refresh_enabled = False
        for iface in self.config.interfaces:
            if iface.shutdown:
                continue
            try:
                self.stack.configure_interface(
                    iface.name, iface.address, iface.prefix_length)
            except Exception as exc:
                # Config references a port the hardware doesn't have: real
                # firmware logs and continues.
                self.config_errors.append(str(exc))
        self._apply_transit_acl()

        self.streams = StreamManager(self.env, self.stack)
        self.worker = SerialWorker(self.env, container.vm.cpu,
                                   name=f"{self.hostname}.worker")
        self.cli = VendorCli(self)
        # Vendor software initialization delay before protocols come up.
        # A named Timer (same single heap push as call_later) so the
        # critical-path recorder labels this edge as the device's boot
        # delay rather than an anonymous timeout.
        delay = self.rng.uniform(*self.vendor.boot_delay_range)
        self.env.timer(delay, self._start_protocols, self.boot_count)

    def on_stop(self) -> None:
        if self.bgp is not None:
            self.bgp.stop()
            self.bgp = None
        if self.worker is not None:
            self.worker.stop()
            self.worker = None
        if self.streams is not None:
            self.streams.shutdown()
            self.streams = None
        if self.stack is not None:
            self.stack.detach()
            self.stack = None
        if self.status != "crashed":
            self.status = "stopped"

    # -- protocol lifecycle -----------------------------------------------------

    def _start_protocols(self, boot_id: int) -> None:
        if boot_id != self.boot_count or self.status != "booting":
            return  # superseded by a reload/stop meanwhile
        if self._kernel_conflict():
            # §6.2: a co-located other-vendor image tuned kernel checksum
            # settings; our frames are now corrupted on this shared kernel.
            # The device *looks* healthy but nothing it sends survives.
            self.config_errors.append(
                "kernel checksum settings changed by co-located vendor; "
                "packet I/O corrupted")
            self.stack.detach()
            self.status = "running"
            self.booted_at = self.env.now
            return
        if self.config is not None and self.config.bgp is not None:
            self.bgp = BgpDaemon(
                self.env, self.stack, self.streams, self.config, self.vendor,
                self.worker, rng=random.Random(self.rng.getrandbits(32)),
                on_crash=self._crashed, obs=self.obs, prov=self.prov)
            self.bgp.start()
        self.status = "running"
        self.booted_at = self.env.now

    def _kernel_conflict(self) -> bool:
        """True when a co-located different-vendor guest applied the kernel
        checksum tweak this firmware cannot tolerate (§6.2)."""
        if self.container is None or self.vendor.kernel_checksum_tweak:
            return False
        docker = self.container.vm.docker
        if docker is None:
            return False
        for other in docker.containers.values():
            if other is self.container or other.state != "running":
                continue
            vendor = getattr(other.guest, "vendor", None)
            if (vendor is not None and vendor.kernel_checksum_tweak
                    and vendor.name != self.vendor.name):
                return True
        return False

    def _crashed(self, reason: str) -> None:
        self.status = "crashed"
        if self.on_crash is not None:
            self.on_crash(reason)

    # -- helpers ----------------------------------------------------------------

    def _apply_transit_acl(self) -> None:
        acl = (self.config.acls.get(TRANSIT_ACL)
               if self.config is not None else None)
        if acl is None:
            self.stack.packet_filter = None
            return
        self.stack.packet_filter = _AclPermitFilter(acl)

    def _capture(self, ifname: str, event: str, packet: Ipv4Packet) -> None:
        if packet.signature is None or self.container is None:
            return
        self.container.captures.append(PacketRecord(
            time=self.env.now, device=self.hostname, ifname=ifname,
            event=event, src=packet.src, dst=packet.dst, ttl=packet.ttl,
            signature=packet.signature))

    # -- introspection / control --------------------------------------------------

    @property
    def is_quiescent(self) -> bool:
        if self.status in ("stopped", "crashed"):
            return True
        if self.status == "booting":
            return False
        return self.bgp is None or self.bgp.is_quiescent()

    def pull_fib(self, memo: Optional[dict] = None) -> list:
        """The rendered FIB alone — the ``pull_states()["fib"]`` payload
        without the RIB snapshot (what-if verdicts diff thousands of FIBs
        and must not pay for the rest of the state document).

        ``memo`` is a caller-owned per-device dict: with it, the render is
        reused while ``(stack.fib identity, Fib.version)`` holds (see
        :func:`~repro.firmware.fib.reuse_render`).  Never store one on the
        device — it would ride into every snapshot of the net."""
        if self.stack is None:
            return []
        return reuse_render(memo, "fib", self.stack.fib, self._render_fib)

    def _render_fib(self) -> list:
        return [
            (str(p), sorted(str(h.ip) if h.ip else f"dev:{h.interface}"
                            for h in hops))
            for p, hops in self.stack.fib.routes()]

    def pull_states(self, memo: Optional[dict] = None) -> dict:
        """The PullStates payload: FIB, RIB summary, sessions, resources.

        ``memo`` (caller-owned, per device) lets the FIB and Loc-RIB
        renders be reused while their tables are unchanged; status,
        counters, sessions and errors are always rendered fresh."""
        out = {
            "hostname": self.hostname,
            "vendor": self.vendor.name,
            "status": self.status,
            "config_errors": list(self.config_errors),
        }
        if self.stack is not None:
            out["fib"] = self.pull_fib(memo)
            out["counters"] = dict(self.stack.counters)
            out["fib_overflow_drops"] = self.stack.fib.overflow_drops
        if self.bgp is not None:
            out["bgp"] = self.bgp.rib_snapshot(memo)
        return out

    def inject_packet(self, src: IPv4Address, dst: IPv4Address,
                      signature: str, protocol: str = "probe") -> None:
        """Send one signed probe as if it entered at this device."""
        if self.stack is None:
            raise RuntimeError(f"{self.hostname} is not running")
        self.stack.send_ip(Ipv4Packet(src=src, dst=dst, protocol=protocol,
                                      signature=signature))

    def execute(self, command: str) -> str:
        if self.cli is None:
            return f"% {self.hostname}: device not available"
        return self.cli.execute(command)
