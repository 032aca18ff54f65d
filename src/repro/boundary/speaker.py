"""Static speaker devices (§5.1): the emulation boundary agents.

A speaker replaces one external device (e.g. the upstream WAN router).  It
keeps links and BGP sessions alive with boundary devices and injects a
configured set of route announcements — but it is *static*: it records what
it hears and never reacts, so the emulation makes no assumptions about
external devices' policies.  (Modelled on ExaBGP 3.4.17, §6.2.)

The recorded announcements are what Lemma 5.1's empirical check inspects:
in a safe boundary, nothing a speaker receives would ever need to re-enter
the emulated region.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..config.model import BgpNeighborConfig, DeviceConfig
from ..net.ip import IPv4Address, Prefix
from ..net.stream import StreamManager
from ..firmware.bgp.messages import (
    BGP_PORT,
    PathAttributes,
    UpdateMessage,
)
from ..firmware.bgp.session import BgpSession
from ..firmware.netstack import HostStack, StackError
from ..obs import NULL_OBS
from ..provenance.chain import NULL_PROVENANCE
from ..sim import Environment
from ..virt.container import Container

__all__ = ["SpeakerRoute", "ReceivedRoute", "SpeakerOS"]


@dataclass(frozen=True)
class SpeakerRoute:
    """One announcement a speaker injects (taken from production snapshots
    during Prepare)."""

    prefix: Prefix
    as_path: Tuple[int, ...]


@dataclass
class ReceivedRoute:
    """One announcement a speaker heard from inside the emulation."""

    time: float
    peer_ip: IPv4Address
    prefix: Prefix
    as_path: Tuple[int, ...]
    withdrawn: bool = False


class SpeakerOS:
    """Container guest implementing the static speaker."""

    def __init__(self, env: Environment, hostname: str, config: DeviceConfig,
                 announcements: "List[SpeakerRoute] | Dict[int, List[SpeakerRoute]]",
                 seed: Optional[int] = None, prov=NULL_PROVENANCE,
                 obs=NULL_OBS):
        if config.bgp is None:
            raise ValueError(f"speaker {hostname} needs a BGP config")
        self.env = env
        self.hostname = hostname
        self.config = config
        self.prov = prov
        self.obs = obs
        # Either one list for all peers, or a dict keyed by peer IP value
        # (Prepare computes per-boundary-device snapshots, §6.1).
        self.announcements = announcements
        # The default seed must be stable across processes: Python's str
        # hash() is salted per interpreter, so it cannot seed anything that
        # two subprocesses (or two emulation shards) need to agree on.
        self.rng = random.Random(seed if seed is not None
                                 else zlib.crc32(hostname.encode()) & 0xFFFFFF)
        self._m_swallowed = obs.metrics.counter(
            "repro_swallowed_errors_total",
            "Exceptions caught and suppressed, by device and site")
        self.status = "stopped"
        self.container: Optional[Container] = None
        self.stack: Optional[HostStack] = None
        self.streams: Optional[StreamManager] = None
        self.sessions: Dict[int, BgpSession] = {}
        self.received: List[ReceivedRoute] = []

    # -- Guest protocol ---------------------------------------------------

    def on_start(self, container: Container) -> None:
        self.container = container
        self.status = "running"
        self.stack = HostStack(self.env, self.hostname)
        self.stack.attach(container.netns)
        for iface in self.config.interfaces:
            if not iface.shutdown:
                try:
                    self.stack.configure_interface(
                        iface.name, iface.address, iface.prefix_length)
                except StackError as exc:
                    # Config references a port the namespace doesn't have;
                    # real ExaBGP logs and continues.  Swallowed — but
                    # visibly: counted and recorded to the event log.
                    self._m_swallowed.inc(device=self.hostname,
                                          site="speaker-configure-interface")
                    self.obs.events.emit(
                        "swallowed-error", subject=self.hostname,
                        message=str(exc),
                        site="speaker-configure-interface")
                    self.obs.flight.note(
                        "swallowed-error", subject=self.hostname,
                        site="speaker-configure-interface",
                        message=str(exc))
        self.streams = StreamManager(self.env, self.stack)
        self.streams.listen(BGP_PORT, self._on_accept)
        bgp = self.config.bgp
        for neighbor in bgp.neighbors:
            session = BgpSession(
                self.env, self.streams, neighbor,
                local_asn=bgp.asn, router_id=bgp.router_id,
                hold_time=90.0, keepalive_interval=20.0, connect_retry=5.0,
                rng=self.rng,
                on_established=self._on_established,
                on_down=self._on_down,
                on_update=self._on_update,
            )
            session.hostname = self.hostname
            self.sessions[neighbor.peer_ip.value] = session
            session.start(initiator=self._initiates_to(neighbor.peer_ip))

    def on_stop(self) -> None:
        for session in self.sessions.values():
            session.stop()
        self.sessions.clear()
        if self.streams is not None:
            self.streams.shutdown()
            self.streams = None
        if self.stack is not None:
            self.stack.detach()
            self.stack = None
        self.status = "stopped"

    def _initiates_to(self, peer_ip: IPv4Address) -> bool:
        try:
            return self.stack.source_address_for(peer_ip).value < peer_ip.value
        except StackError:
            # No usable source address (yet): default to initiating.
            return True

    def _on_accept(self, conn) -> None:
        session = self.sessions.get(conn.remote_ip.value)
        if session is None:
            conn.close()
        else:
            session.accept(conn)

    # -- static behaviour --------------------------------------------------

    def _announcements_for(self, peer_ip: IPv4Address) -> List[SpeakerRoute]:
        if isinstance(self.announcements, dict):
            return self.announcements.get(peer_ip.value, [])
        return list(self.announcements)

    def _on_established(self, session: BgpSession) -> None:
        """Announce the configured snapshot; nothing else, ever."""
        routes = self._announcements_for(session.peer_ip)
        if not routes:
            return
        local_ip = self.stack.source_address_for(session.peer_ip)
        groups: Dict[Tuple[int, ...], List[Prefix]] = {}
        for route in routes:
            groups.setdefault(route.as_path, []).append(route.prefix)
        prov = self.prov
        for as_path, prefixes in groups.items():
            chains: Tuple[tuple, ...] = ()
            if prov.enabled:
                # The speaker is the origin from the emulation's point of
                # view: every chain entering through the boundary roots
                # at a causal id minted here (§5.1 static snapshot).
                chains = tuple(
                    prov.originate(self.hostname, prefix, self.env.now,
                                   detail="speaker-snapshot")
                    for prefix in prefixes)
            session.send_update(UpdateMessage(
                nlri=tuple(prefixes),
                attrs=PathAttributes(as_path=as_path, next_hop=local_ip),
                provenance=chains))

    def _on_down(self, _session: BgpSession, _reason: str) -> None:
        pass  # static: reconnection is handled by the FSM itself

    def _on_update(self, session: BgpSession, update: UpdateMessage) -> None:
        """Record received routes for analysis; do not react (§5.1)."""
        for prefix in update.withdrawn:
            self.received.append(ReceivedRoute(
                time=self.env.now, peer_ip=session.peer_ip, prefix=prefix,
                as_path=(), withdrawn=True))
        for prefix in update.nlri:
            self.received.append(ReceivedRoute(
                time=self.env.now, peer_ip=session.peer_ip, prefix=prefix,
                as_path=update.attrs.as_path))

    # -- introspection -----------------------------------------------------

    @property
    def is_quiescent(self) -> bool:
        return True  # speakers never generate asynchronous work

    def received_prefixes(self) -> List[Prefix]:
        return sorted({r.prefix for r in self.received if not r.withdrawn},
                      key=lambda p: p.key())

    def established_sessions(self) -> int:
        return sum(1 for s in self.sessions.values()
                   if s.state == "established")

    def pull_states(self, memo: Optional[dict] = None) -> dict:
        """PullStates for a speaker; ``memo`` is accepted for parity with
        :meth:`DeviceOS.pull_states` and unused (no FIB or Loc-RIB)."""
        return {
            "hostname": self.hostname,
            "kind": "speaker",
            "status": self.status,
            "sessions": {str(s.peer_ip): s.state
                         for s in self.sessions.values()},
            "announced": (sum(len(v) for v in self.announcements.values())
                          if isinstance(self.announcements, dict)
                          else len(self.announcements)),
            "received": len(self.received),
        }

    def execute(self, command: str) -> str:
        if command == "show received":
            lines = [f"{r.time:.1f} {r.peer_ip} "
                     f"{'withdraw' if r.withdrawn else 'announce'} "
                     f"{r.prefix} {list(r.as_path)}" for r in self.received]
            return "\n".join(lines) or "(nothing received)"
        return f"% speaker: unsupported command {command!r}"
