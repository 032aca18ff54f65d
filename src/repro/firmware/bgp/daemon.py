"""The BGP routing daemon of one emulated device.

Ties together sessions, RIBs, the decision process, policy, aggregation,
and FIB programming.  All protocol work is charged to the device's
:class:`~repro.firmware.worker.SerialWorker`, so convergence time emerges
from CPU contention on the hosting VM — the effect Figures 8/9 measure.

Vendor behaviour hooks (aggregation mode, FIB overflow policy, decision
tie-break, quirks) come from the :class:`~repro.firmware.vendors.profiles.
VendorProfile`, making distinct vendors "bug compatible" with their real
counterparts' divergences (§2).
"""

from __future__ import annotations

import os
import random
import zlib
from typing import Callable, Dict, List, Optional, Set, Tuple

from ...config.model import DeviceConfig
from ...net.ip import IPv4Address, Prefix
from ...net.stream import Connection, StreamManager
from ...obs import NULL_OBS
from ...provenance.chain import (
    NULL_PROVENANCE,
    chain_to_dicts,
    origin_ref,
)
from ...sim import Environment
from ..fib import (Fib, FibEntry, FibFullError, FirmwareCrash, NextHop,
                   reuse_render)
from ..netstack import HostStack, StackError
from ..vendors.profiles import VendorProfile
from ..worker import SerialWorker
from .decision import default_tie_breaker, explain_candidates, select
from .messages import (
    BGP_PORT,
    ORIGIN_IGP,
    PathAttributes,
    UpdateMessage,
)
from .policy import PolicyContext, apply_route_map
from .rib import AdjRibIn, AdjRibOut, LocRib, Route
from .session import BgpSession

__all__ = ["BgpDaemon"]

# How many NLRI one UPDATE message carries at most (wire MTU analogue).
MAX_NLRI_PER_UPDATE = 500

# Sentinel distinguishing "cached None (export denied)" from "cache miss".
_MISS = object()

# 0.0.0.0/0, compared against on every FIB install (quirk check).
_DEFAULT_ROUTE = Prefix(0, 0)

# Shared next-hop for locally-originated routes (immutable).
_LOCAL_NEXT_HOP = NextHop(ip=None, interface="local")


class _AdvBacklog:
    """One peer's pending-advertisement queue, drained in prefix order.

    Additions go into a membership dict; the sorted drain order is
    rebuilt lazily, only when membership changed since the last drain.
    A 10k-prefix full sync therefore pays one sort total instead of one
    ``sorted(backlog)`` per advertisement interval — same batches, same
    order, strictly less work (asserted by the fast-path equivalence
    tests).
    """

    __slots__ = ("_members", "_run", "_dirty")

    def __init__(self):
        self._members: Dict[Prefix, None] = {}
        self._run: List[Prefix] = []
        self._dirty = False

    def update(self, prefixes) -> None:
        members = self._members
        before = len(members)
        for prefix in prefixes:
            members[prefix] = None
        if len(members) != before:
            self._dirty = True

    def take(self, cap: int) -> List[Prefix]:
        """Remove and return the first ``cap`` prefixes in sorted order."""
        if self._dirty:
            self._run = sorted(self._members, key=Prefix.key)
            self._dirty = False
        batch = self._run[:cap]
        if batch:
            del self._run[:cap]
            members = self._members
            for prefix in batch:
                del members[prefix]
        return batch

    def __len__(self) -> int:
        return len(self._members)

    def __bool__(self) -> bool:
        return bool(self._members)

    def __iter__(self):
        return iter(self._members)


class BgpDaemon:
    """One device's BGP process."""

    def __init__(self, env: Environment, stack: HostStack,
                 streams: StreamManager, config: DeviceConfig,
                 vendor: VendorProfile, worker: SerialWorker,
                 rng: Optional[random.Random] = None,
                 on_crash: Optional[Callable[[str], None]] = None,
                 obs=NULL_OBS, prov=NULL_PROVENANCE):
        if config.bgp is None:
            raise ValueError(f"{config.hostname}: no BGP configuration")
        self.env = env
        self.stack = stack
        self.streams = streams
        self.config = config
        self.bgp_config = config.bgp
        self.hostname = config.hostname
        self.vendor = vendor
        self.worker = worker
        # crc32, not hash(): str hash() is salted per interpreter, so the
        # fallback seed must not depend on it (two processes emulating the
        # same device would jitter their timers differently).
        self.rng = rng or random.Random(
            zlib.crc32(config.hostname.encode()) & 0xFFFF)
        self.on_crash = on_crash
        self.obs = obs
        # Hot-path handles resolved once; with a detached hub these are the
        # shared no-op children, so every call below is a plain no-op —
        # no dict lookups, no string formatting (see repro.obs.metrics).
        device = config.hostname
        metrics = obs.metrics
        self._m_updates_rx = metrics.counter(
            "repro_bgp_updates_rx_total",
            "BGP UPDATE messages processed").labels(device=device)
        self._m_updates_tx = metrics.counter(
            "repro_bgp_updates_tx_total",
            "BGP UPDATE messages sent").labels(device=device)
        self._m_decision_runs = metrics.counter(
            "repro_bgp_decision_runs_total",
            "Decision-process executions").labels(device=device)
        self._m_decision_dirty = metrics.histogram(
            "repro_bgp_decision_dirty_prefixes",
            "Dirty prefixes consumed per decision run",
            buckets=(1, 10, 100, 1000, 10000)).labels(device=device)
        self._m_loc_rib = metrics.gauge(
            "repro_bgp_loc_rib_routes",
            "Selected Loc-RIB prefixes").labels(device=device)
        self._m_fib = metrics.gauge(
            "repro_bgp_fib_routes",
            "Installed FIB entries (all sources)").labels(device=device)
        self._m_flaps = metrics.counter(
            "repro_bgp_session_flaps_total",
            "Established sessions lost").labels(device=device)
        # Transition counting goes through the FSM hook only when a real
        # hub is attached; a None hook keeps the FSM allocation-free.
        self._m_transitions = metrics.counter(
            "repro_bgp_session_transitions_total",
            "Session FSM transitions by target state")
        self._on_transition = (self._session_transition if obs.enabled
                               else None)

        self.asn = self.bgp_config.asn
        self.router_id = self.bgp_config.router_id
        self.policy = PolicyContext.from_config(config)
        # Route provenance (repro.provenance): causal chains per RIB/FIB
        # entry.  With the null tracker every mint returns () and the
        # two side tables stay empty.
        self.prov = prov
        self.fib_prov: Dict[Prefix, tuple] = {}
        self.reject_prov: Dict[Prefix, tuple] = {}
        # Chain-with-select-hop per Loc-RIB best; kept out of the Route
        # itself so selection never pays a dataclasses.replace.
        self.select_prov: Dict[Prefix, tuple] = {}

        self.adj_in = AdjRibIn()
        self.loc_rib = LocRib()
        self.adj_out = AdjRibOut()
        self.local_routes: Dict[Prefix, Route] = {}
        self.aggregate_routes: Dict[Prefix, Route] = {}

        self.sessions: Dict[int, BgpSession] = {}
        self._dirty: Set[Prefix] = set()
        # Per-peer advertisement backlog, drained max_nlri_per_flush at a
        # time per advertisement interval (vendor send-buffer pacing).
        self._pending_adv: Dict[int, _AdvBacklog] = {}
        # Export verdicts are pure functions of (peer, best-route identity,
        # resolved local address); memoized per daemon, invalidated with
        # the policy cache via :meth:`invalidate_caches`.
        self._export_cache: Dict[tuple, Optional[PathAttributes]] = {}
        # With the suppress quirk armed, export verdicts depend on the
        # prefix even without a route-map (see _export key choice).
        self._prefix_sensitive = bool(
            self.vendor.has_quirk("suppress-announcements")
            and self.vendor.quirk_param("suppress_prefixes"))
        # Quirk flag read on every FIB install; resolved once (the vendor
        # profile is fixed for the daemon's lifetime).
        self._quirk_default_stuck = self.vendor.has_quirk(
            "default-route-stuck")
        # Resolved-NextHop memo keyed by gateway address: re-selection
        # resolves the same handful of gateways constantly, and sharing
        # the instance lets downstream tuple comparisons (FIB entry
        # equality, ECMP dedup) short-circuit on identity.
        self._nh_memo: Dict[int, NextHop] = {}
        self._decision_scheduled = False
        self._flush_scheduled = False
        self.running = False
        self.crashed = False
        self.crash_reason = ""
        self.errors: List[str] = []
        self.total_flaps = 0

        if self.vendor.tie_break == "highest-peer":
            self._tie_breaker = _highest_peer_tie_breaker
        else:
            self._tie_breaker = default_tie_breaker

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Originate local networks, open the BGP port, start sessions."""
        self.running = True
        self.streams.listen(BGP_PORT, self._on_accept)
        hostname = self.config.hostname
        for network in self.bgp_config.networks:
            self.local_routes[network] = Route(
                prefix=network,
                attrs=PathAttributes.intern(as_path=(), origin=ORIGIN_IGP),
                peer_ip=None, peer_asn=None, is_ebgp=False,
                provenance=self.prov.originate(hostname, network,
                                               self.env.now))
            self._dirty.add(network)
        for neighbor in self.bgp_config.neighbors:
            session = self._make_session(neighbor)
            self.sessions[neighbor.peer_ip.value] = session
            session.start(initiator=self._initiates_to(neighbor.peer_ip))
        self._schedule_decision()

    def _make_session(self, neighbor) -> BgpSession:
        session = BgpSession(
            self.env, self.streams, neighbor,
            local_asn=self.asn, router_id=self.router_id,
            hold_time=self.vendor.hold_time,
            keepalive_interval=self.vendor.keepalive_interval,
            connect_retry=self.vendor.connect_retry,
            rng=self.rng,
            on_established=self._on_session_established,
            on_down=self._on_session_down,
            on_update=self._on_session_update,
            on_transition=self._on_transition,
        )
        session.hostname = self.hostname
        return session

    def stop(self) -> None:
        """Graceful daemon stop: sessions close, BGP routes leave the FIB."""
        self.running = False
        for session in list(self.sessions.values()):
            session.stop()
        self.sessions.clear()
        self.streams.unlisten(BGP_PORT)
        self.stack.fib.clear_protocol("bgp")
        self.fib_prov.clear()
        self.select_prov.clear()
        self.worker.stop()

    # -- warm reconfiguration ----------------------------------------------

    def warm_reload(self, config: DeviceConfig) -> None:
        """Apply a new configuration to the live daemon, no restart.

        The warm-start entry point of the what-if engine
        (:mod:`repro.snapshot`): a forked mockup re-applies a config or
        policy edit here and re-runs only the perturbed region instead
        of cold-booting the daemon.  Semantics:

        * sessions whose peering is untouched keep running (their RIBs
          and timers are already converged state);
        * sessions whose *import* path changed are hard-reset —
          Adj-RIB-In stores post-import-policy routes, so re-learning
          through the new policy is the only faithful option (the reset
          re-converges to the same fixpoint a cold boot reaches);
        * *export*-side changes propagate via a full re-advertisement
          sweep: :meth:`_advertise` diffs against Adj-RIB-Out, so
          unchanged exports send nothing and newly-denied exports become
          withdrawals;
        * identity changes (ASN, router-id) refuse — that is a cold
          reload.
        """
        if config.bgp is None:
            raise ValueError(f"{self.hostname}: warm reload needs a BGP "
                             f"configuration")
        new_bgp = config.bgp
        if (new_bgp.asn != self.asn
                or new_bgp.router_id != self.router_id):
            raise ValueError(f"{self.hostname}: ASN/router-id change "
                             f"requires a cold reload")
        if self.crashed or not self.running:
            raise ValueError(f"{self.hostname}: daemon is not running")
        old_config, old_bgp = self.config, self.bgp_config
        self.config = config
        self.bgp_config = new_bgp
        self.policy = PolicyContext.from_config(config)
        self.invalidate_caches()
        hostname = self.hostname

        # Locally-originated networks.
        old_nets, new_nets = set(old_bgp.networks), set(new_bgp.networks)
        for network in sorted(old_nets - new_nets, key=Prefix.key):
            self.local_routes.pop(network, None)
            self._dirty.add(network)
        for network in sorted(new_nets - old_nets, key=Prefix.key):
            self.local_routes[network] = Route(
                prefix=network,
                attrs=PathAttributes.intern(as_path=(), origin=ORIGIN_IGP),
                peer_ip=None, peer_asn=None, is_ebgp=False,
                provenance=self.prov.originate(hostname, network,
                                               self.env.now))
            self._dirty.add(network)

        # Aggregates: re-derive any statement that changed or vanished
        # (dropping the cached aggregate also clears inherit-first
        # stickiness, as a fresh statement would).
        old_aggs = {a.prefix: a for a in old_bgp.aggregates}
        new_aggs = {a.prefix: a for a in new_bgp.aggregates}
        for prefix in old_aggs.keys() - new_aggs.keys():
            if self.aggregate_routes.pop(prefix, None) is not None:
                self._dirty.add(prefix)
        for prefix, agg in new_aggs.items():
            if old_aggs.get(prefix) != agg:
                self.aggregate_routes.pop(prefix, None)
                self._dirty.add(prefix)

        # Selection-mode changes re-run the decision over everything.
        if (old_bgp.multipath != new_bgp.multipath
                or old_bgp.max_paths != new_bgp.max_paths):
            self._dirty.update(self.adj_in.by_prefix)
            self._dirty.update(self.local_routes)
            self._dirty.update(self.aggregate_routes)

        # Neighbors.
        old_nbrs = {n.peer_ip.value: n for n in old_bgp.neighbors}
        new_nbrs = {n.peer_ip.value: n for n in new_bgp.neighbors}
        for key in sorted(old_nbrs.keys() - new_nbrs.keys()):
            self._drop_neighbor(key)
        for key in sorted(new_nbrs):
            neighbor = new_nbrs[key]
            old = old_nbrs.get(key)
            if old is not None and (old.remote_asn != neighbor.remote_asn
                                    or old.shutdown != neighbor.shutdown):
                # Identity/admin change: tear down and renegotiate.
                self._drop_neighbor(key)
                old = None
            if old is None:
                session = self._make_session(neighbor)
                self.sessions[key] = session
                session.start(
                    initiator=self._initiates_to(neighbor.peer_ip))
                continue
            session = self.sessions[key]
            session.neighbor = neighbor
            if self._import_path_changed(old, neighbor, old_config, config):
                session.reset("warm-reload")
        # Export-side changes surface through a full re-sync toward every
        # established session (cheap: unchanged exports diff to nothing).
        for session in self.sessions.values():
            if session.state == "established":
                self._mark_full_sync(session.peer_ip.value)
        self._schedule_decision()

    def _drop_neighbor(self, peer_key: int) -> None:
        session = self.sessions.pop(peer_key, None)
        if session is None:
            return
        session.stop()
        peer_ip = session.peer_ip
        self.adj_out.drop_peer(peer_ip)
        self._pending_adv.pop(peer_key, None)
        for prefix in self.adj_in.drop_peer(peer_ip):
            self._dirty.add(prefix)

    @staticmethod
    def _policy_closure(config: DeviceConfig, name: Optional[str]):
        """Everything an import policy's verdicts depend on, comparable."""
        if name is None:
            return None
        route_map = config.route_maps.get(name)
        if route_map is None:
            return ("missing", name)
        referenced = tuple(
            config.prefix_lists.get(clause.match_prefix_list)
            for clause in route_map.clauses
            if clause.match_prefix_list is not None)
        return (route_map, referenced)

    def _import_path_changed(self, old, new, old_config: DeviceConfig,
                             new_config: DeviceConfig) -> bool:
        if old.import_policy != new.import_policy:
            return True
        return (self._policy_closure(old_config, old.import_policy)
                != self._policy_closure(new_config, new.import_policy))

    def _crash(self, reason: str) -> None:
        if self.crashed:
            return
        self.crashed = True
        self.crash_reason = reason
        self.errors.append(f"CRASH: {reason}")
        self.obs.events.emit("firmware-crash", subject=self.config.hostname,
                             message=reason)
        self.stop()
        if self.on_crash is not None:
            self.on_crash(reason)

    def _initiates_to(self, peer_ip: IPv4Address) -> bool:
        try:
            local = self.stack.source_address_for(peer_ip)
        except StackError:
            # No usable source address (yet): default to initiating.
            return True
        return local.value < peer_ip.value

    def _on_accept(self, conn: Connection) -> None:
        session = self.sessions.get(conn.remote_ip.value)
        if session is None:
            conn.close()
            return
        session.accept(conn)

    # -- session events ------------------------------------------------------

    def _session_transition(self, session: BgpSession, old_state: str,
                            new_state: str) -> None:
        self._m_transitions.inc(device=self.config.hostname, to=new_state)
        self.obs.events.emit(
            "bgp-session", subject=f"{self.config.hostname}@{session.peer_ip}",
            old=old_state, new=new_state)

    def _on_session_established(self, session: BgpSession) -> None:
        peer_key = session.peer_ip.value
        self.worker.submit(self.vendor.session_setup_cost,
                           self._mark_full_sync, peer_key)

    def _mark_full_sync(self, peer_key: int) -> None:
        """Queue the entire table toward a newly-established peer."""
        backlog = self._pending_adv.get(peer_key)
        if backlog is None:
            backlog = self._pending_adv[peer_key] = _AdvBacklog()
        backlog.update(self.loc_rib.prefixes())
        self._schedule_flush()

    def _on_session_down(self, session: BgpSession, reason: str) -> None:
        self.total_flaps += 1
        self._m_flaps.inc()
        peer_ip = session.peer_ip
        self.adj_out.drop_peer(peer_ip)
        self._pending_adv.pop(peer_ip.value, None)

        def process() -> None:
            for prefix in self.adj_in.drop_peer(peer_ip):
                self._dirty.add(prefix)
            self._schedule_decision()

        self.worker.submit(self.vendor.update_base_cost, process)
        limit = self.vendor.quirk_param("crash_after_flaps", 3)
        if (self.vendor.has_quirk("crash-on-session-flaps")
                and self.total_flaps >= limit):
            self._crash(f"session flap limit reached ({self.total_flaps})")

    def _on_session_update(self, session: BgpSession,
                           update: UpdateMessage) -> None:
        cost = (self.vendor.update_base_cost
                + self.vendor.update_per_prefix_cost * update.route_count)
        self.worker.submit(cost, self._process_update, session, update)

    # -- inbound processing ----------------------------------------------------

    def _process_update(self, session: BgpSession,
                        update: UpdateMessage) -> None:
        if self.crashed:
            return
        self._m_updates_rx.inc()
        prov = self.prov
        prov_enabled = prov.enabled
        hostname = self.config.hostname
        peer_ip = session.peer_ip
        neighbor = session.neighbor
        peer_str = str(peer_ip) if prov_enabled else ""
        now = self.env.now
        if prov_enabled and update.withdrawn:
            withdraw_hop = prov.hop("withdraw", hostname, now, peer=peer_str)
        for prefix in update.withdrawn:
            if self.adj_in.withdraw(peer_ip, prefix):
                self._dirty.add(prefix)
                if prov_enabled:
                    self.reject_prov[prefix] = prov.append((), withdraw_hop)
        if update.nlri:
            attrs = update.attrs
            rx_chains = update.provenance
            if (attrs.contains_asn(self.asn)
                    and not self.vendor.has_quirk("allow-own-asn")):
                # Loop: discard all NLRI of this update (but leave an
                # explainable trace of the rejection).
                if prov_enabled:
                    discard_hop = prov.hop(
                        "loop-discard", hostname, now,
                        peer=peer_str, detail=f"own-asn={self.asn}")
                    for i, prefix in enumerate(update.nlri):
                        base = rx_chains[i] if i < len(rx_chains) else ()
                        self.reject_prov[prefix] = prov.append(
                            base, discard_hop)
            else:
                is_ebgp = neighbor.remote_asn != self.asn
                if is_ebgp:
                    # LOCAL_PREF is not transitive across eBGP.
                    attrs = attrs.replace(local_pref=100)
                if prov_enabled:
                    rx_hop = prov.hop(
                        "receive", hostname, now, peer=peer_str,
                        detail=(f"asn={neighbor.remote_asn} "
                                f"epoch={session.epoch}"))
                    # Import verdicts repeat heavily across an UPDATE's
                    # NLRI; share one hop per distinct verdict string.
                    import_hops: Dict[str, object] = {}
                for i, prefix in enumerate(update.nlri):
                    imported, verdict = self.policy.evaluate(
                        neighbor.import_policy, prefix, attrs, self.asn)
                    if prov_enabled:
                        base = rx_chains[i] if i < len(rx_chains) else ()
                        chain = prov.append(base, rx_hop)
                    else:
                        chain = ()
                    if imported is None:
                        # Policy rejection still clears any previous route.
                        if prov_enabled:
                            self.reject_prov[prefix] = prov.extend(
                                chain, "import-deny", hostname, now,
                                detail=verdict)
                        if self.adj_in.withdraw(peer_ip, prefix):
                            self._dirty.add(prefix)
                        continue
                    if prov_enabled:
                        hop = import_hops.get(verdict)
                        if hop is None:
                            hop = import_hops[verdict] = prov.hop(
                                "import", hostname, now, detail=verdict)
                        chain = prov.append(chain, hop)
                    self.adj_in.insert(Route(
                        prefix=prefix, attrs=imported, peer_ip=peer_ip,
                        peer_asn=neighbor.remote_asn, is_ebgp=is_ebgp,
                        provenance=chain))
                    self._dirty.add(prefix)
        if self._dirty:
            self._schedule_decision()

    # -- decision process -------------------------------------------------------

    def _schedule_decision(self) -> None:
        if self._decision_scheduled or self.crashed:
            return
        self._decision_scheduled = True
        cost = max(self.vendor.decision_cost_per_prefix * max(len(self._dirty), 1),
                   1e-4)
        self.worker.submit(cost, self._run_decision)

    def _run_decision(self) -> None:
        self._decision_scheduled = False
        if self.crashed:
            return
        dirty, self._dirty = self._dirty, set()
        self._m_decision_runs.inc()
        self._m_decision_dirty.observe(len(dirty))
        changed: Set[Prefix] = set()
        for prefix in dirty:
            if self._recompute(prefix):
                changed.add(prefix)
        changed |= self._recompute_aggregates()
        self._m_loc_rib.set(len(self.loc_rib))
        self._m_fib.set(len(self.stack.fib))
        if changed:
            for session in self.sessions.values():
                if session.state == "established":
                    backlog = self._pending_adv.get(session.peer_ip.value)
                    if backlog is None:
                        backlog = self._pending_adv[session.peer_ip.value] \
                            = _AdvBacklog()
                    backlog.update(changed)
            self._schedule_flush()
        if self._dirty:
            # Aggregation created new dirty prefixes; go again.
            self._schedule_decision()

    def _candidates(self, prefix: Prefix) -> List[Route]:
        candidates = self.adj_in.candidates(prefix)
        local = self.local_routes.get(prefix)
        if local is not None:
            candidates.append(local)
        aggregate = self.aggregate_routes.get(prefix)
        if aggregate is not None:
            candidates.append(aggregate)
        return candidates

    def _recompute(self, prefix: Prefix) -> bool:
        """Re-select for one prefix; returns True if Loc-RIB/FIB changed."""
        candidates = self._candidates(prefix)
        best, multipath = select(
            candidates,
            multipath=self.bgp_config.multipath and self.vendor.multipath,
            max_paths=self.bgp_config.max_paths,
            tie_breaker=self._tie_breaker)
        if best is None:
            removed = self.loc_rib.remove(prefix)
            if removed:
                self.select_prov.pop(prefix, None)
                self._fib_remove(prefix)
            return removed
        old_best = self.loc_rib.best(prefix)
        old_multi = self.loc_rib.multipath(prefix)
        if (old_best is not None and old_best.attrs == best.attrs
                and old_best.peer_ip == best.peer_ip
                and old_multi == multipath):
            return False
        chain: tuple = ()
        if self.prov.enabled:
            chain = self.prov.extend(
                best.provenance, "select", self.config.hostname,
                self.env.now,
                detail=(f"candidates={len(candidates)} "
                        f"multipath={len(multipath)}"))
            self.select_prov[prefix] = chain
        self.loc_rib.set(prefix, best, multipath)
        self._fib_install(prefix, multipath, chain)
        return True

    # -- aggregation ------------------------------------------------------------

    def _recompute_aggregates(self) -> Set[Prefix]:
        changed: Set[Prefix] = set()
        for agg in self.bgp_config.aggregates:
            contributors = [
                (p, self.loc_rib.best(p)) for p in self.loc_rib.prefixes()
                if agg.prefix.contains(p) and p != agg.prefix]
            contributors = [(p, r) for p, r in contributors if r is not None]
            current = self.aggregate_routes.get(agg.prefix)
            if not contributors:
                if current is not None:
                    del self.aggregate_routes[agg.prefix]
                    self._dirty.add(agg.prefix)
                continue
            if (current is not None
                    and self.vendor.aggregation_mode == "inherit-first"):
                # Sticky/timing-dependent: the first-selected contributor's
                # path is kept for as long as any contributor exists (§9).
                continue
            attrs, inherited = self._aggregate_attrs(
                [r for _p, r in contributors])
            if current is None or current.attrs != attrs:
                chain = ()
                if self.prov.enabled:
                    mode = self.vendor.aggregation_mode
                    base = inherited.provenance if inherited is not None else ()
                    refs = sorted(filter(None, (
                        origin_ref(r.provenance) for _p, r in contributors)))
                    chain = self.prov.aggregate(
                        self.config.hostname, agg.prefix, self.env.now,
                        base, detail=(f"mode={mode} "
                                      f"contributors={len(contributors)} "
                                      f"from={','.join(refs)}"))
                self.aggregate_routes[agg.prefix] = Route(
                    prefix=agg.prefix, attrs=attrs, peer_ip=None,
                    peer_asn=None, is_ebgp=False, provenance=chain)
                self._dirty.add(agg.prefix)
                if agg.summary_only:
                    # (De)activation changes contributor suppression.
                    changed |= {p for p, _ in contributors}
        return changed

    def _aggregate_attrs(self, contributors: List[Route]
                         ) -> Tuple[PathAttributes, Optional[Route]]:
        """Vendor-divergent aggregation (the Figure 1 incident).

        * ``inherit-best``: pick one contributing path and keep its AS path
          (Figure 1's R6: P3 announced with {6, 2, 1}).
        * ``inherit-first``: like inherit-best, but sticky on whichever
          contributor converged first (timing-dependent, §9).
        * ``reset-path``: empty AS path + ATOMIC_AGGREGATE (Figure 1's R7:
          P3 announced with just {7}).

        Returns (attrs, inherited-contributor); the contributor is None
        for reset-path, where no contributor's history survives — the
        exact asymmetry a provenance chain makes visible.
        """
        if self.vendor.aggregation_mode in ("inherit-best", "inherit-first"):
            best = contributors[0]
            for route in contributors[1:]:
                from .decision import compare
                best = compare(best, route, self._tie_breaker)
            return PathAttributes.intern(
                as_path=best.attrs.as_path, origin=best.attrs.origin,
                aggregator_asn=self.asn), best
        return PathAttributes.intern(as_path=(), origin=ORIGIN_IGP,
                                     atomic_aggregate=True,
                                     aggregator_asn=self.asn), None

    def _suppressed(self, prefix: Prefix) -> bool:
        for agg in self.bgp_config.aggregates:
            if (agg.summary_only and agg.prefix in self.aggregate_routes
                    and agg.prefix.contains(prefix)
                    and prefix != agg.prefix):
                return True
        return False

    # -- FIB programming -----------------------------------------------------------

    def _fib_install(self, prefix: Prefix, multipath: Tuple[Route, ...],
                     chain: tuple = ()) -> None:
        prov = self.prov
        if (self._quirk_default_stuck
                and prefix == _DEFAULT_ROUTE
                and self.stack.fib.get(prefix) is not None):
            self.errors.append("quirk: default route left stale")
            if prov.enabled:
                self.reject_prov[prefix] = prov.extend(
                    chain, "fib-stale", self.config.hostname, self.env.now,
                    detail="quirk:default-route-stuck")
            return
        hops: List[NextHop] = []
        for route in multipath:
            hop = self._resolve_next_hop(route)
            if hop is not None and hop not in hops:
                hops.append(hop)
        if not hops:
            self._fib_remove(prefix)
            if prov.enabled:
                self.reject_prov[prefix] = prov.extend(
                    chain, "next-hop-unresolved", self.config.hostname,
                    self.env.now)
            return
        try:
            installed = self.stack.fib.install(FibEntry(
                prefix=prefix, next_hops=tuple(hops), source="bgp"))
        except FibFullError as exc:
            self.errors.append(str(exc))
            if prov.enabled:
                self.reject_prov[prefix] = prov.extend(
                    chain, "fib-overflow", self.config.hostname,
                    self.env.now, detail="reject")
            return
        except FirmwareCrash as exc:
            self._crash(str(exc))
            return
        if prov.enabled:
            if installed:
                self.fib_prov[prefix] = prov.extend(
                    chain, "fib-install", self.config.hostname, self.env.now,
                    detail=f"next-hops={len(hops)}")
            else:
                self.reject_prov[prefix] = prov.extend(
                    chain, "fib-overflow", self.config.hostname,
                    self.env.now, detail="drop-silent")

    def _fib_remove(self, prefix: Prefix) -> None:
        entry = self.stack.fib.get(prefix)
        if entry is not None and entry.source == "bgp":
            self.stack.fib.remove(prefix)
            self.fib_prov.pop(prefix, None)

    def _resolve_next_hop(self, route: Route) -> Optional[NextHop]:
        if route.peer_ip is None:   # is_local, without the property hop
            return _LOCAL_NEXT_HOP
        next_hop = route.attrs.next_hop
        if next_hop is None:
            return None
        connected = self.stack.fib.lookup(next_hop)
        if connected is None or connected.source != "connected":
            return None  # next hop unresolvable
        interface = connected.next_hops[0].interface
        hop = self._nh_memo.get(next_hop.value)
        if hop is None or hop.interface != interface:
            hop = NextHop(ip=next_hop, interface=interface)
            self._nh_memo[next_hop.value] = hop
        return hop

    # -- outbound advertisement ------------------------------------------------------

    def _schedule_flush(self) -> None:
        if self._flush_scheduled or self.crashed:
            return
        self._flush_scheduled = True
        delay = self.vendor.advertisement_interval * self.rng.uniform(0.5, 1.0)
        self.env.timer(delay, self._mrai_fire)

    def _mrai_fire(self) -> None:
        # Named MRAI edge: same timer, one extra frame.  The critical-path
        # recorder classifies this label as the advertisement-interval
        # wait, which the what-if estimator re-weights.
        self.worker.submit(self.vendor.update_base_cost, self._flush)

    def _flush(self) -> None:
        self._flush_scheduled = False
        if self.crashed or not self.running:
            return
        cap = self.vendor.max_nlri_per_flush
        leftovers = False
        for session in self.sessions.values():
            if session.state != "established":
                continue
            backlog = self._pending_adv.get(session.peer_ip.value)
            if not backlog:
                continue
            batch = backlog.take(cap)
            self._advertise(session, batch)
            if backlog:
                leftovers = True
        if leftovers:
            self._schedule_flush()

    def _advertise(self, session: BgpSession, prefixes: List[Prefix]) -> None:
        prov = self.prov
        prov_enabled = prov.enabled
        peer_ip = session.peer_ip
        groups: Dict[PathAttributes, List[Prefix]] = {}
        chains: Dict[PathAttributes, List[tuple]] = {}
        withdrawals: List[Prefix] = []
        # One table fetch per batch instead of advertised/record/forget
        # dispatches per prefix.
        adv_table = self.adj_out.table(peer_ip)
        # The resolved local address is FIB-derived and nothing in this
        # batch mutates the FIB, so resolve it once per batch instead of
        # per prefix.  Unresolvable (no source address toward the peer)
        # denies every export, exactly as the per-prefix check did.
        neighbor = session.neighbor
        is_ebgp = neighbor.remote_asn != self.asn
        local_ip: Optional[IPv4Address] = None
        unreachable = False
        if is_ebgp:
            try:
                local_ip = self.stack.source_address_for(peer_ip)
            except StackError:
                unreachable = True
        if prov_enabled:
            adv_hop = prov.hop(
                "advertise", self.config.hostname, self.env.now,
                peer=str(peer_ip),
                detail=f"to-asn={session.neighbor.remote_asn}")
        for prefix in prefixes:
            attrs = None if unreachable else self._export(
                session, prefix, is_ebgp, local_ip)
            previous = adv_table.get(prefix)
            if attrs is None:
                if previous is not None:
                    withdrawals.append(prefix)
                    del adv_table[prefix]
                continue
            if previous == attrs:
                continue
            groups.setdefault(attrs, []).append(prefix)
            if prov_enabled:
                base = self.select_prov.get(prefix)
                if base is None:
                    best = self.loc_rib.best(prefix)
                    base = best.provenance if best is not None else ()
                chains.setdefault(attrs, []).append(
                    prov.append(base, adv_hop))
            adv_table[prefix] = attrs
        if withdrawals:
            session.send_update(UpdateMessage(withdrawn=tuple(withdrawals)))
            self._m_updates_tx.inc()
        for attrs, nlri in groups.items():
            nlri_chains = chains.get(attrs, ())
            for start in range(0, len(nlri), MAX_NLRI_PER_UPDATE):
                session.send_update(UpdateMessage(
                    nlri=tuple(nlri[start:start + MAX_NLRI_PER_UPDATE]),
                    attrs=attrs,
                    provenance=tuple(
                        nlri_chains[start:start + MAX_NLRI_PER_UPDATE])))
                self._m_updates_tx.inc()

    # Export memoization switch; flip with REPRO_NO_FASTPATH=1 or
    # ``BgpDaemon.export_caching = False`` (A/B runs).  Results are
    # identical either way — the computation is side-effect-free and the
    # cache key covers every input that can vary between calls.
    export_caching = True

    def invalidate_caches(self) -> None:
        """Drop memoized export/policy verdicts.

        Must be called if the policy dicts behind :attr:`policy` are
        mutated in place.  A config commit rebuilds the daemon (and with
        it both caches), so the normal reload path cannot go stale.
        """
        self._export_cache.clear()
        self.policy.invalidate()

    def _export(self, session: BgpSession, prefix: Prefix,
                is_ebgp: bool, local_ip: Optional[IPv4Address]
                ) -> Optional[PathAttributes]:
        best = self.loc_rib.best(prefix)
        if best is None:
            return None
        if self.bgp_config.aggregates and self._suppressed(prefix):
            return None
        neighbor = session.neighbor
        if not BgpDaemon.export_caching:
            return self._compute_export(neighbor, prefix, best, is_ebgp,
                                        local_ip)
        # The verdict depends on the peer (policy/ASN, via peer key), the
        # best route's attrs and provenance class (eBGP/local flags), and
        # the resolved local address (FIB-dependent) — all in the key.
        # The prefix matters only when a route-map (which can match
        # prefix-lists) or the suppress quirk is in play; without either,
        # dropping it from the key lets one verdict serve every prefix
        # sharing an attribute set.  Suppression by aggregates is checked
        # live above because aggregate activation changes it.
        cache = self._export_cache
        if neighbor.export_policy is None and not self._prefix_sensitive:
            key = (session.peer_ip.value, best.attrs, best.is_ebgp,
                   best.is_local,
                   local_ip.value if local_ip is not None else -1)
        else:
            key = (session.peer_ip.value, prefix, best.attrs, best.is_ebgp,
                   best.is_local,
                   local_ip.value if local_ip is not None else -1)
        hit = cache.get(key, _MISS)
        if hit is _MISS:
            if len(cache) > 500_000:   # runaway guard
                cache.clear()
            hit = cache[key] = self._compute_export(neighbor, prefix, best,
                                                    is_ebgp, local_ip)
        return hit

    def _compute_export(self, neighbor, prefix: Prefix, best: Route,
                        is_ebgp: bool, local_ip: Optional[IPv4Address]
                        ) -> Optional[PathAttributes]:
        # Sender-side loop avoidance: never send a path back into an AS it
        # already traversed (the property Lemma 5.1's proof leans on).
        if best.attrs.contains_asn(neighbor.remote_asn):
            return None
        if not is_ebgp and not best.is_ebgp and not best.is_local:
            return None  # no iBGP-to-iBGP reflection
        attrs = apply_route_map(self.policy, neighbor.export_policy, prefix,
                                best.attrs, self.asn)
        if attrs is None:
            return None
        suppress = self.vendor.quirk_param("suppress_prefixes")
        if (self.vendor.has_quirk("suppress-announcements") and suppress
                and any(prefix == s or s.contains(prefix) for s in suppress)):
            return None
        if is_ebgp:
            attrs = attrs.prepend(self.asn).replace(local_pref=100)
            attrs = attrs.with_next_hop(local_ip)
        return attrs

    # -- introspection --------------------------------------------------------------

    def is_quiescent(self) -> bool:
        """No protocol work outstanding (used for route-ready detection)."""
        if self.crashed:
            return True
        return (self.worker.idle and not self._dirty
                and not any(self._pending_adv.values())
                and not self._flush_scheduled
                and not self._decision_scheduled)

    def established_sessions(self) -> int:
        return sum(1 for s in self.sessions.values()
                   if s.state == "established")

    def reset_session(self, peer_ip: IPv4Address,
                      reason: str = "admin-reset") -> bool:
        """Hard-reset one session (``clear ip bgp <peer>`` / chaos hook).

        Returns False if no session toward ``peer_ip`` exists.  Routes
        learned from the peer are withdrawn via the normal session-down
        path and re-learned when the FSM re-establishes.
        """
        session = self.sessions.get(peer_ip.value)
        if session is None:
            return False
        session.reset(reason)
        return True

    def explain(self, prefix: Prefix) -> Dict[str, object]:
        """The complete causal story of one prefix on this device.

        Combines the stored provenance chain (origin announcement →
        per-hop policy verdicts → FIB install) with a lazily
        reconstructed decision contest over the current Adj-RIB-In
        candidates.  Deterministic: two pinned-seed runs produce
        identical explanations.
        """
        candidates = self._candidates(prefix)
        best = self.loc_rib.best(prefix)
        multi = self.loc_rib.multipath(prefix)
        fib_entry = self.stack.fib.get(prefix)
        fib_chain = self.fib_prov.get(prefix)
        if (fib_chain and fib_entry is not None
                and fib_entry.source == "bgp"):
            chain, state = fib_chain, "installed"
        elif best is not None:
            chain = self.select_prov.get(prefix, best.provenance)
            state = "selected"
        else:
            chain = self.reject_prov.get(prefix, ())
            state = "rejected" if chain else "unknown"
        out: Dict[str, object] = {
            "device": self.config.hostname,
            "prefix": str(prefix),
            "state": state,
            "origin": origin_ref(chain),
            "chain": chain_to_dicts(chain),
            "candidates": explain_candidates(candidates, best, multi,
                                             self._tie_breaker),
            "suppressed": self._suppressed(prefix),
        }
        if fib_entry is not None:
            out["fib"] = {
                "source": fib_entry.source,
                "next_hops": sorted(
                    str(h.ip) if h.ip else f"dev:{h.interface}"
                    for h in fib_entry.next_hops)}
        return out

    def rib_snapshot(self, memo: Optional[dict] = None) -> Dict[str, object]:
        """The PullStates ``bgp`` document.  With a caller-owned per-device
        ``memo`` the ``loc_rib`` render is reused while the Loc-RIB's
        identity and version hold; everything else is rendered fresh."""
        return {
            "asn": self.asn,
            "router_id": str(self.router_id),
            "sessions": {str(s.peer_ip): s.state
                         for s in self.sessions.values()},
            "loc_rib": reuse_render(memo, "rib", self.loc_rib,
                                    self._render_loc_rib),
            "adj_in_routes": self.adj_in.route_count(),
            "errors": list(self.errors),
        }

    def _render_loc_rib(self) -> Dict[str, list]:
        return {str(p): [list(r.attrs.as_path) for r in multi]
                for p, _b, multi in self.loc_rib.items()}


def _peer_key(route: Route) -> int:
    return route.peer_ip.value if route.peer_ip is not None else -1


def _highest_peer_tie_breaker(a: Route, b: Route) -> Route:
    """Vendor "highest-peer" decision tie-break (module-level, not a
    lambda, so daemons holding it stay picklable for warm snapshots)."""
    return a if _peer_key(a) >= _peer_key(b) else b


if os.environ.get("REPRO_NO_FASTPATH") == "1":  # pragma: no cover
    BgpDaemon.export_caching = False
