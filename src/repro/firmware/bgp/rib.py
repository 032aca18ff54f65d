"""BGP RIBs: Adj-RIB-In view, Loc-RIB, and Adj-RIB-Out bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ...net.ip import IPv4Address, Prefix
from .messages import PathAttributes

__all__ = ["Route", "AdjRibIn", "LocRib", "AdjRibOut"]


@dataclass(frozen=True)
class Route:
    """One candidate path for one prefix, as learned from one peer.

    ``peer_ip`` is None for locally-originated routes (network statements,
    aggregates).

    ``provenance`` is the causal hop chain that produced this entry, a
    cons list ``(parent_chain, hop)`` that shares its prefix with every
    other holder (see :mod:`repro.provenance.chain`); ``()`` when tracing
    is off.  It is excluded from equality so provenance-enabled and
    -disabled runs make byte-identical routing decisions.
    """

    prefix: Prefix
    attrs: PathAttributes
    peer_ip: Optional[IPv4Address]
    peer_asn: Optional[int]
    is_ebgp: bool = True
    provenance: tuple = field(default=(), compare=False, repr=False)

    @property
    def is_local(self) -> bool:
        return self.peer_ip is None


class AdjRibIn:
    """All routes accepted from peers, indexed both ways.

    ``by_prefix[prefix][peer_ip.value]`` -> Route (the decision process
    reads per-prefix candidate sets); ``by_peer[peer_ip.value]`` -> the
    prefixes learned from that peer, as an insertion-ordered dict used
    as a set (session teardown withdraws per peer without the per-call
    ``sorted()`` the old set representation needed — insertion order is
    already deterministic, and every consumer funnels the result into
    the dirty set anyway).
    """

    def __init__(self):
        self.by_prefix: Dict[Prefix, Dict[int, Route]] = {}
        self.by_peer: Dict[int, Dict[Prefix, None]] = {}

    def insert(self, route: Route) -> None:
        if route.peer_ip is None:
            raise ValueError("AdjRibIn only stores peer-learned routes")
        peer_key = route.peer_ip.value
        prefix = route.prefix
        # get-then-assign instead of setdefault: avoids allocating the
        # default dict on every (hot, usually-hit) call.
        candidates = self.by_prefix.get(prefix)
        if candidates is None:
            candidates = self.by_prefix[prefix] = {}
        candidates[peer_key] = route
        prefixes = self.by_peer.get(peer_key)
        if prefixes is None:
            prefixes = self.by_peer[peer_key] = {}
        prefixes[prefix] = None

    def withdraw(self, peer_ip: IPv4Address, prefix: Prefix) -> bool:
        peer_key = peer_ip.value
        candidates = self.by_prefix.get(prefix)
        if not candidates or peer_key not in candidates:
            return False
        del candidates[peer_key]
        if not candidates:
            del self.by_prefix[prefix]
        prefixes = self.by_peer.get(peer_key)
        if prefixes is not None:
            prefixes.pop(prefix, None)
        return True

    def drop_peer(self, peer_ip: IPv4Address) -> List[Prefix]:
        """Remove everything learned from a dead peer; returns the prefixes
        whose candidate set changed (deterministic learn order)."""
        peer_key = peer_ip.value
        prefixes = list(self.by_peer.pop(peer_key, ()))
        for prefix in prefixes:
            candidates = self.by_prefix.get(prefix)
            if candidates is not None:
                candidates.pop(peer_key, None)
                if not candidates:
                    del self.by_prefix[prefix]
        return prefixes

    def candidates(self, prefix: Prefix) -> List[Route]:
        return list(self.by_prefix.get(prefix, {}).values())

    def route_count(self) -> int:
        return sum(len(c) for c in self.by_prefix.values())

    def peer_prefixes(self, peer_ip: IPv4Address) -> Set[Prefix]:
        return set(self.by_peer.get(peer_ip.value, ()))


class LocRib:
    """Selected routes: per prefix, the best route plus its ECMP set.

    The sorted prefix ordering every exporter wants is cached behind a
    dirty flag: membership changes mark it stale, and the next
    :meth:`prefixes` call sorts once instead of every caller paying
    O(n log n) per visit.  Callers must treat the returned list as
    immutable (every in-tree consumer only iterates it).

    ``version`` moves on every ``set()`` and every effective ``remove()``,
    so an unchanged version means an unchanged table (the contract
    :func:`repro.firmware.fib.reuse_render` relies on).  It is a class
    attribute so a LocRib unpickled from a snapshot saved before the
    counter existed still reads 0; the first bump makes it per-instance.
    """

    version = 0

    def __init__(self):
        self._selected: Dict[Prefix, Tuple[Route, Tuple[Route, ...]]] = {}
        self._sorted: List[Prefix] = []
        self._order_dirty = False

    def set(self, prefix: Prefix, best: Route, multipath: Tuple[Route, ...]) -> None:
        if prefix not in self._selected:
            self._order_dirty = True
        self._selected[prefix] = (best, multipath)
        self.version += 1

    def remove(self, prefix: Prefix) -> bool:
        removed = self._selected.pop(prefix, None) is not None
        if removed:
            self._order_dirty = True
            self.version += 1
        return removed

    def best(self, prefix: Prefix) -> Optional[Route]:
        selected = self._selected.get(prefix)
        return selected[0] if selected else None

    def multipath(self, prefix: Prefix) -> Tuple[Route, ...]:
        selected = self._selected.get(prefix)
        return selected[1] if selected else ()

    def __len__(self) -> int:
        return len(self._selected)

    def prefixes(self) -> List[Prefix]:
        if self._order_dirty or len(self._sorted) != len(self._selected):
            self._sorted = sorted(self._selected, key=Prefix.key)
            self._order_dirty = False
        return self._sorted

    def items(self) -> Iterator[Tuple[Prefix, Route, Tuple[Route, ...]]]:
        for prefix in self.prefixes():
            best, multi = self._selected[prefix]
            yield prefix, best, multi

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._selected


class AdjRibOut:
    """What we have advertised to each peer (for correct withdrawals)."""

    def __init__(self):
        self._advertised: Dict[int, Dict[Prefix, PathAttributes]] = {}

    def record(self, peer_ip: IPv4Address, prefix: Prefix,
               attrs: PathAttributes) -> None:
        self._advertised.setdefault(peer_ip.value, {})[prefix] = attrs

    def forget(self, peer_ip: IPv4Address, prefix: Prefix) -> bool:
        table = self._advertised.get(peer_ip.value)
        if table is None:
            return False
        return table.pop(prefix, None) is not None

    def advertised(self, peer_ip: IPv4Address, prefix: Prefix
                   ) -> Optional[PathAttributes]:
        table = self._advertised.get(peer_ip.value)
        return None if table is None else table.get(prefix)

    def table(self, peer_ip: IPv4Address) -> Dict[Prefix, PathAttributes]:
        """The live per-peer advert dict, for batch callers that would
        otherwise pay a method call per prefix (``_advertise``)."""
        return self._advertised.setdefault(peer_ip.value, {})

    def drop_peer(self, peer_ip: IPv4Address) -> None:
        self._advertised.pop(peer_ip.value, None)

    def prefixes_for(self, peer_ip: IPv4Address) -> List[Prefix]:
        return sorted(self._advertised.get(peer_ip.value, {}),
                      key=lambda p: p.key())
