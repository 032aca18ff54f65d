"""The forwarding information base (FIB) of an emulated device.

Real switches have *finite* FIB space, and the paper's load-balancer
incident (§2) — a router silently dropping route announcements once its FIB
filled, blackholing traffic — is exactly the class of bug configuration
verifiers miss.  The FIB therefore models capacity and exposes a
vendor-controlled overflow policy:

* ``"drop-silent"``  — the route is not installed, no error (the incident).
* ``"reject"``       — installation fails loudly (an error the control plane
  can react to).
* ``"crash"``        — firmware crash (some stacks do).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..net.ip import IPv4Address, Prefix
from ..net.trie import PrefixTrie

__all__ = ["NextHop", "FibEntry", "Fib", "FibFullError", "FirmwareCrash",
           "reuse_render"]


class FibFullError(Exception):
    """Raised by the ``reject`` overflow policy."""


class FirmwareCrash(Exception):
    """Raised by the ``crash`` overflow policy; kills the device daemon."""


@dataclass(frozen=True)
class NextHop:
    """Where to send matching packets: a gateway IP (None = connected) out
    of a named interface."""

    ip: Optional[IPv4Address]
    interface: str

    def __repr__(self) -> str:  # pragma: no cover
        via = str(self.ip) if self.ip is not None else "connected"
        return f"NextHop({via} dev {self.interface})"


@dataclass(frozen=True)
class FibEntry:
    prefix: Prefix
    next_hops: Tuple[NextHop, ...]
    source: str = "bgp"  # bgp | connected | static | ospf

    def __post_init__(self):
        if not self.next_hops:
            raise ValueError(f"FIB entry {self.prefix} has no next hops")


def device_memo(memo: Optional[Dict[str, dict]], device: str
                ) -> Optional[dict]:
    """One device's slot in a caller-owned network render memo.

    A network memo maps ``device -> {key: (inputs..., render)}``; the
    keys are ``"fib"`` and ``"rib"`` (:func:`reuse_render`) and
    ``"shaped"`` (:meth:`repro.provenance.StateTimeline.state_of`).
    ``memo=None`` stays None, so every read renders fresh.
    """
    return None if memo is None else memo.setdefault(device, {})


def reuse_render(memo: Optional[dict], key: str, table, render):
    """``render()``, or the render ``memo[key]`` holds for this very table.

    Versioned tables (:class:`Fib`, :class:`~repro.firmware.bgp.rib.LocRib`)
    bump ``version`` on every mutation that can change what they render,
    so a render is reusable while ``(table identity, version)`` holds.
    The memo is owned by the caller that samples repeatedly and holds the
    table itself (so identity cannot be recycled); returned renders are
    shared and must be treated as read-only.  ``memo=None`` renders fresh.
    """
    if memo is None:
        return render()
    cached = memo.get(key)
    version = table.version
    if cached is not None and cached[0] is table and cached[1] == version:
        return cached[2]
    rendered = render()
    memo[key] = (table, version, rendered)
    return rendered


class Fib:
    """LPM table with optional capacity and an overflow policy."""

    def __init__(self, capacity: Optional[int] = None,
                 overflow_policy: str = "reject"):
        if overflow_policy not in ("drop-silent", "reject", "crash"):
            raise ValueError(f"unknown overflow policy {overflow_policy!r}")
        self._trie = PrefixTrie()
        self.capacity = capacity
        self.overflow_policy = overflow_policy
        self.installed = 0
        self.overflow_drops = 0
        # Bumped on every effective table mutation (install/remove/clear);
        # equal versions of one table guarantee equal ``routes()`` output,
        # so FIB renderers can reuse a prior render instead of
        # re-stringifying the whole table (see ``reuse_render``).
        self.version = 0
        # LPM memo: next-hop resolution and source-address selection look
        # up the same handful of addresses thousands of times between
        # table changes.  Installing or removing a prefix can only change
        # the longest match of addresses *inside* that prefix, so only
        # those memo entries are dropped — the memo stays warm through
        # the convergence churn that dominates emulation runtime.
        self._lookup_memo: Dict[int, Optional[FibEntry]] = {}

    def __len__(self) -> int:
        return len(self._trie)

    def __contains__(self, pfx: Prefix) -> bool:
        return pfx in self._trie

    def install(self, entry: FibEntry) -> bool:
        """Install (or replace) a route.  Returns False when the overflow
        policy silently dropped it."""
        existing = self._trie.get(entry.prefix)
        replacing = existing is not None
        if replacing and existing == entry:
            # Value-identical reinstall: the table is unchanged, so the
            # lookup memo stays warm (re-selection after an unrelated
            # candidate change reinstalls the same entry constantly).
            return True
        if (not replacing and self.capacity is not None
                and len(self._trie) >= self.capacity):
            self.overflow_drops += 1
            if self.overflow_policy == "drop-silent":
                return False
            if self.overflow_policy == "reject":
                raise FibFullError(
                    f"FIB full ({self.capacity} entries), cannot install "
                    f"{entry.prefix}")
            raise FirmwareCrash(
                f"FIB overflow at {self.capacity} entries")
        self._trie.insert(entry.prefix, entry)
        self.installed += 1
        self.version += 1
        self._invalidate_lookups(entry.prefix)
        return True

    def _invalidate_lookups(self, pfx: Prefix) -> None:
        memo = self._lookup_memo
        if not memo:
            return
        length = pfx.length
        network = pfx.network
        if length >= 31:
            # Host/point-to-point routes (the bulk of a Clos RIB) cover
            # at most two addresses: delete directly, skip the scan.
            memo.pop(network, None)
            if length == 31:
                memo.pop(network | 1, None)
            return
        mask = pfx.mask
        stale = [a for a in memo if (a & mask) == network]
        for a in stale:
            del memo[a]

    def remove(self, pfx: Prefix) -> bool:
        self._invalidate_lookups(pfx)
        deleted = self._trie.delete(pfx)
        if deleted:
            self.version += 1
        return deleted

    def lookup(self, addr: IPv4Address) -> Optional[FibEntry]:
        memo = self._lookup_memo
        key = addr.value
        if key in memo:
            return memo[key]
        if len(memo) > 100_000:   # runaway guard
            memo.clear()
        entry = memo[key] = self._trie.lookup(addr)
        return entry

    def get(self, pfx: Prefix) -> Optional[FibEntry]:
        return self._trie.get(pfx)

    def entries(self) -> Iterator[FibEntry]:
        return iter(self._trie.values())

    def routes(self) -> List[Tuple[Prefix, Tuple[NextHop, ...]]]:
        """Stable snapshot for PullStates / FIB comparison."""
        return sorted(
            ((entry.prefix, entry.next_hops) for entry in self._trie.values()),
            key=lambda item: item[0].key(),
        )

    def clear_protocol(self, source: str) -> int:
        """Remove all routes learned from one protocol (daemon restart)."""
        victims = [p for p, e in self._trie.items() if e.source == source]
        for pfx in victims:
            self._trie.delete(pfx)
        if victims:
            self.version += 1
        self._lookup_memo.clear()
        return len(victims)
