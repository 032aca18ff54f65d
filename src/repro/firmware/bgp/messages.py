"""BGP-4 message and path-attribute types.

Messages are semantic objects (no wire encoding), but the protocol grammar
is the real one: OPEN negotiates ASN/hold-time, UPDATE carries shared path
attributes plus packed NLRI (many prefixes per message — the batching that
makes full-datacenter convergence tractable, for the emulator exactly as for
real routers), KEEPALIVE refreshes hold timers, NOTIFICATION reports fatal
errors before close.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple

from ...net.ip import IPv4Address, Prefix

__all__ = [
    "ORIGIN_IGP",
    "ORIGIN_EGP",
    "ORIGIN_INCOMPLETE",
    "PathAttributes",
    "OpenMessage",
    "UpdateMessage",
    "KeepaliveMessage",
    "NotificationMessage",
    "BGP_PORT",
]

BGP_PORT = 179

ORIGIN_IGP = 0
ORIGIN_EGP = 1
ORIGIN_INCOMPLETE = 2


@dataclass(frozen=True, eq=False)
class PathAttributes:
    """The attribute set shared by every NLRI in one UPDATE.

    Immutable and hash-shared: thousands of RIB entries point at the same
    object, which is what keeps large emulations in memory.

    Two wall-clock fast paths live here (see DESIGN.md "Performance
    invariants"):

    * the hash is computed once at construction (attribute sets are the
      dict key of Adj-RIB-Out tables, UPDATE grouping, and the export
      caches, so per-call tuple hashing used to dominate flushes);
    * :meth:`interned` hash-conses attribute sets network-wide, so every
      device announcing the same path shares one object and equality on
      the hot path is usually a pointer comparison.

    Interning never changes routing decisions: equality stays value-based
    (``a == b`` answers the same with interning on or off; only ``a is
    b`` differs), which is what the pinned-seed equivalence tests assert.
    """

    as_path: Tuple[int, ...] = ()
    next_hop: Optional[IPv4Address] = None
    origin: int = ORIGIN_IGP
    med: int = 0
    local_pref: int = 100
    communities: FrozenSet[str] = frozenset()
    atomic_aggregate: bool = False
    aggregator_asn: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(
            (self.as_path, self.next_hop, self.origin, self.med,
             self.local_pref, self.communities, self.atomic_aggregate,
             self.aggregator_asn)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, PathAttributes):
            return NotImplemented
        return (self._hash == other._hash
                and self.as_path == other.as_path
                and self.next_hop == other.next_hop
                and self.origin == other.origin
                and self.med == other.med
                and self.local_pref == other.local_pref
                and self.communities == other.communities
                and self.atomic_aggregate == other.atomic_aggregate
                and self.aggregator_asn == other.aggregator_asn)

    # -- pickling ----------------------------------------------------------

    def __reduce__(self):
        """Pickle by field values, rebuild through :meth:`intern`.

        Two reasons not to pickle the instance dict verbatim: the
        precomputed ``_hash`` is PYTHONHASHSEED-dependent (``communities``
        is a frozenset of strings), so a verbatim restore in another
        process would corrupt every dict keyed by attribute sets; and
        routing ``intern()`` on load means all snapshots restored into
        one process share one canonical instance per attribute set —
        the copy-on-write sharing between sibling forks.
        """
        return (_restore_attrs, (
            self.as_path, self.next_hop, self.origin, self.med,
            self.local_pref, tuple(sorted(self.communities)),
            self.atomic_aggregate, self.aggregator_asn))

    # -- interning ---------------------------------------------------------

    def interned(self) -> "PathAttributes":
        """The canonical shared instance equal to ``self``."""
        if not PathAttributes.interning:
            return self
        table = PathAttributes._intern_table
        if len(table) > 1_000_000:   # runaway guard; never hit in practice
            table.clear()
        canonical = table.get(self)
        if canonical is None:
            table[self] = canonical = self
        return canonical

    @classmethod
    def intern(cls, **fields) -> "PathAttributes":
        """Interning constructor: build-or-share in one call."""
        return cls(**fields).interned()

    @classmethod
    def clear_intern_table(cls) -> None:
        cls._intern_table.clear()
        cls._derive_table.clear()

    def _derived(self, key: tuple, build) -> "PathAttributes":
        table = PathAttributes._derive_table
        hit = table.get(key)
        if hit is None:
            if len(table) > 1_000_000:   # runaway guard
                table.clear()
            hit = table[key] = build().interned()
        return hit

    # -- accessors / derivations -------------------------------------------

    def path_length(self) -> int:
        return len(self.as_path)

    def contains_asn(self, asn: int) -> bool:
        return asn in self.as_path

    def _build_prepend(self, asn: int, count: int) -> "PathAttributes":
        return PathAttributes(
            as_path=(asn,) * count + self.as_path,
            next_hop=self.next_hop,
            origin=self.origin,
            med=self.med,
            local_pref=self.local_pref,
            communities=self.communities,
            atomic_aggregate=self.atomic_aggregate,
            aggregator_asn=self.aggregator_asn,
        )

    def prepend(self, asn: int, count: int = 1) -> "PathAttributes":
        if not PathAttributes.interning:
            return self._build_prepend(asn, count)
        return self._derived((self, "prepend", asn, count),
                             lambda: self._build_prepend(asn, count))

    def _build_next_hop(self, next_hop: IPv4Address) -> "PathAttributes":
        return PathAttributes(
            as_path=self.as_path,
            next_hop=next_hop,
            origin=self.origin,
            med=self.med,
            local_pref=self.local_pref,
            communities=self.communities,
            atomic_aggregate=self.atomic_aggregate,
            aggregator_asn=self.aggregator_asn,
        )

    def with_next_hop(self, next_hop: IPv4Address) -> "PathAttributes":
        if not PathAttributes.interning:
            return self._build_next_hop(next_hop)
        return self._derived((self, "next-hop", next_hop.value),
                             lambda: self._build_next_hop(next_hop))

    def _build_replace(self, changes: dict) -> "PathAttributes":
        base = {
            "as_path": self.as_path,
            "next_hop": self.next_hop,
            "origin": self.origin,
            "med": self.med,
            "local_pref": self.local_pref,
            "communities": self.communities,
            "atomic_aggregate": self.atomic_aggregate,
            "aggregator_asn": self.aggregator_asn,
        }
        base.update(changes)
        return PathAttributes(**base)

    def replace(self, **changes) -> "PathAttributes":
        if not PathAttributes.interning:
            return self._build_replace(changes)
        # kwargs order is stable per call site, so the unsorted items
        # tuple is a perfectly good memo key (at worst two call sites
        # spelling the same change differently cache it twice).
        return self._derived(
            (self, "replace", tuple(changes.items())),
            lambda: self._build_replace(changes))


# Hash-cons table, derivation memo, and interning switch.  Assigned as
# plain class attributes AFTER the class body, never as annotated
# ClassVars: dataclass machinery records annotated ClassVars in
# ``__dataclass_fields__``, and introspection tools that walk it
# (hypothesis's pretty-printer renders every init field of a dataclass)
# would then print the whole populated intern table inside every
# instance — recursively, since the table's entries are themselves
# PathAttributes.  Flip interning with REPRO_NO_FASTPATH=1 or
# ``PathAttributes.interning = False`` (tests/benchmarks A/B runs).
# The derivation memo maps (base, op, args) -> canonical result, so the
# hot prepend/replace/with_next_hop calls skip construction entirely on
# repeat — every flush derives the same handful of attribute sets.
def _restore_attrs(as_path, next_hop, origin, med, local_pref, communities,
                   atomic_aggregate, aggregator_asn) -> PathAttributes:
    """Unpickle target of :meth:`PathAttributes.__reduce__`."""
    return PathAttributes.intern(
        as_path=as_path, next_hop=next_hop, origin=origin, med=med,
        local_pref=local_pref, communities=frozenset(communities),
        atomic_aggregate=atomic_aggregate, aggregator_asn=aggregator_asn)


PathAttributes._intern_table = {}
PathAttributes._derive_table = {}
PathAttributes.interning = True

if os.environ.get("REPRO_NO_FASTPATH") == "1":  # pragma: no cover
    PathAttributes.interning = False


@dataclass(frozen=True)
class OpenMessage:
    asn: int
    router_id: IPv4Address
    hold_time: float


@dataclass(frozen=True)
class UpdateMessage:
    """Announce ``nlri`` with shared ``attrs``; withdraw ``withdrawn``.

    ``provenance`` (when route provenance is enabled) carries one causal
    hop chain per NLRI, index-aligned with ``nlri``; each chain is a cons
    list (see :mod:`repro.provenance.chain`).  Empty when tracing is
    off.  It is metadata, not protocol state: excluded from equality
    and repr so message semantics are untouched.
    """

    nlri: Tuple[Prefix, ...] = ()
    attrs: Optional[PathAttributes] = None
    withdrawn: Tuple[Prefix, ...] = ()
    provenance: Tuple[tuple, ...] = field(default=(), compare=False,
                                          repr=False)

    def __post_init__(self):
        if self.nlri and self.attrs is None:
            raise ValueError("UPDATE with NLRI requires path attributes")

    @property
    def route_count(self) -> int:
        return len(self.nlri) + len(self.withdrawn)


@dataclass(frozen=True)
class KeepaliveMessage:
    pass


@dataclass(frozen=True)
class NotificationMessage:
    code: str
    detail: str = ""
