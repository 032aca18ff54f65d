"""IPv4 addresses and prefixes.

A tiny, fast, hashable IPv4 layer.  We do not use :mod:`ipaddress` on the hot
paths because RIB/FIB operations dominate emulation runtime: prefixes here
are interned value objects with integer internals, cheap equality, and
containment tests that are a mask-and-compare.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, List, Tuple

__all__ = ["HostPool", "IPv4Address", "Prefix", "SubnetPool", "ip",
           "prefix", "summarize"]

_MAX32 = 0xFFFFFFFF


def _parse_ipv4(text: str) -> int:
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"invalid IPv4 address {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise ValueError(f"invalid IPv4 address {text!r}")
        octet = int(part)
        if octet > 255 or (len(part) > 1 and part[0] == "0"):
            raise ValueError(f"invalid IPv4 address {text!r}")
        value = (value << 8) | octet
    return value


def _format_ipv4(value: int) -> str:
    return (f"{value >> 24}.{(value >> 16) & 0xFF}."
            f"{(value >> 8) & 0xFF}.{value & 0xFF}")


class IPv4Address:
    """An immutable IPv4 address."""

    __slots__ = ("value",)

    def __init__(self, value: int | str):
        if isinstance(value, str):
            value = _parse_ipv4(value)
        if not 0 <= value <= _MAX32:
            raise ValueError(f"IPv4 value out of range: {value}")
        object.__setattr__(self, "value", value)

    def __setattr__(self, *_args) -> None:
        raise AttributeError("IPv4Address is immutable")

    def __reduce__(self):
        # Rebuild through the constructor: slots + immutable __setattr__
        # defeat default pickling, and the sharded backend ships packets
        # between worker processes.
        return (IPv4Address, (self.value,))

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, IPv4Address)
                                 and other.value == self.value)

    def __lt__(self, other: "IPv4Address") -> bool:
        return self.value < other.value

    def __hash__(self) -> int:
        # The 32-bit value is its own perfect hash; hashing a wrapper
        # tuple here used to dominate RIB dict operations.
        return self.value

    def __str__(self) -> str:
        return _format_ipv4(self.value)

    def __repr__(self) -> str:
        return f"IPv4Address('{self}')"

    def __add__(self, offset: int) -> "IPv4Address":
        return IPv4Address(self.value + offset)

    def __int__(self) -> int:
        return self.value


class Prefix:
    """An immutable IPv4 prefix (network + mask length).

    The sort key, hash, and netmask are precomputed at construction:
    prefixes are the universal dict/set key of the RIB layers and the
    sort key of every deterministic export, so recomputing tuples per
    call shows up directly in emulation wall-clock time.
    """

    __slots__ = ("network", "length", "_key", "_hash", "_mask")

    def __init__(self, network: int | str | IPv4Address, length: int | None = None):
        if isinstance(network, str) and "/" in network:
            if length is not None:
                raise ValueError("length given twice")
            addr_text, len_text = network.split("/", 1)
            network = _parse_ipv4(addr_text)
            length = int(len_text)
        elif isinstance(network, str):
            network = _parse_ipv4(network)
        elif isinstance(network, IPv4Address):
            network = network.value
        if length is None:
            raise ValueError("prefix length required")
        if not 0 <= length <= 32:
            raise ValueError(f"invalid prefix length {length}")
        mask = (_MAX32 << (32 - length)) & _MAX32 if length else 0
        network &= mask
        key = (network, length)
        object.__setattr__(self, "network", network)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(self, "_mask", mask)

    def __setattr__(self, *_args) -> None:
        raise AttributeError("Prefix is immutable")

    def __reduce__(self):
        return (Prefix, (self.network, self.length))

    @property
    def mask(self) -> int:
        return self._mask

    @property
    def network_address(self) -> IPv4Address:
        return IPv4Address(self.network)

    @property
    def broadcast_address(self) -> IPv4Address:
        return IPv4Address(self.network | (~self.mask & _MAX32))

    @property
    def num_addresses(self) -> int:
        return 1 << (32 - self.length)

    def contains(self, item: "Prefix | IPv4Address | str") -> bool:
        """True if ``item`` (address or more-specific prefix) is inside us."""
        if isinstance(item, str):
            item = Prefix(item, 32) if "/" not in item else Prefix(item)
        if isinstance(item, IPv4Address):
            return (item.value & self._mask) == self.network
        return (item.length >= self.length
                and (item.network & self._mask) == self.network)

    __contains__ = contains

    def overlaps(self, other: "Prefix") -> bool:
        return self.contains(other) or other.contains(self)

    def subnets(self, new_length: int) -> Iterator["Prefix"]:
        """All subnets of this prefix at ``new_length``."""
        if new_length < self.length or new_length > 32:
            raise ValueError(f"cannot split /{self.length} into /{new_length}")
        step = 1 << (32 - new_length)
        for net in range(self.network, self.network + self.num_addresses, step):
            yield Prefix(net, new_length)

    def supernet(self, new_length: int | None = None) -> "Prefix":
        """The enclosing prefix at ``new_length`` (default: one bit shorter)."""
        if new_length is None:
            new_length = self.length - 1
        if new_length < 0 or new_length > self.length:
            raise ValueError(f"invalid supernet length {new_length} for /{self.length}")
        return Prefix(self.network, new_length)

    def hosts(self) -> Iterator[IPv4Address]:
        """Usable host addresses (entire range for /31 and /32)."""
        if self.length >= 31:
            for v in range(self.network, self.network + self.num_addresses):
                yield IPv4Address(v)
        else:
            for v in range(self.network + 1, self.network + self.num_addresses - 1):
                yield IPv4Address(v)

    def host_pool(self) -> "HostPool":
        """A picklable allocator over :meth:`hosts` (long-lived state)."""
        return HostPool(self)

    def subnet_pool(self, new_length: int) -> "SubnetPool":
        """A picklable allocator over :meth:`subnets` (long-lived state)."""
        return SubnetPool(self, new_length)

    def address_at(self, offset: int) -> IPv4Address:
        if offset >= self.num_addresses:
            raise ValueError(f"offset {offset} outside {self}")
        return IPv4Address(self.network + offset)

    @staticmethod
    def aggregate_pair(a: "Prefix", b: "Prefix") -> "Prefix | None":
        """The parent prefix if ``a`` and ``b`` are sibling halves, else None."""
        if a.length != b.length or a.length == 0:
            return None
        parent_a = a.supernet()
        if parent_a == b.supernet() and a != b:
            return parent_a
        return None

    def key(self) -> Tuple[int, int]:
        return self._key

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Prefix)
            and other.network == self.network
            and other.length == self.length
        )

    def __lt__(self, other: "Prefix") -> bool:
        return self._key < other._key

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{_format_ipv4(self.network)}/{self.length}"

    def __repr__(self) -> str:
        return f"Prefix('{self}')"


class HostPool:
    """Cursor-based host-address allocator over one prefix.

    Semantically ``iter(prefix.hosts())``, but a plain object with an
    integer cursor instead of a generator frame — address pools live for
    the whole emulation, and generators cannot be pickled into warm
    snapshots (:mod:`repro.snapshot`).
    """

    __slots__ = ("prefix", "_next", "_stop")

    def __init__(self, prefix: Prefix):
        self.prefix = prefix
        if prefix.length >= 31:
            self._next = prefix.network
            self._stop = prefix.network + prefix.num_addresses
        else:
            self._next = prefix.network + 1
            self._stop = prefix.network + prefix.num_addresses - 1

    def __iter__(self) -> "HostPool":
        return self

    def __next__(self) -> IPv4Address:
        if self._next >= self._stop:
            raise StopIteration
        value = self._next
        self._next = value + 1
        return IPv4Address(value)


class SubnetPool:
    """Cursor-based subnet allocator over one prefix (see :class:`HostPool`)."""

    __slots__ = ("prefix", "new_length", "_next", "_step", "_stop")

    def __init__(self, prefix: Prefix, new_length: int):
        if new_length < prefix.length or new_length > 32:
            raise ValueError(
                f"cannot split /{prefix.length} into /{new_length}")
        self.prefix = prefix
        self.new_length = new_length
        self._next = prefix.network
        self._step = 1 << (32 - new_length)
        self._stop = prefix.network + prefix.num_addresses

    def __iter__(self) -> "SubnetPool":
        return self

    def __next__(self) -> Prefix:
        if self._next >= self._stop:
            raise StopIteration
        network = self._next
        self._next = network + self._step
        return Prefix(network, self.new_length)


@lru_cache(maxsize=65536)
def ip(text: str) -> IPv4Address:
    """Interned IPv4 address constructor."""
    return IPv4Address(text)


@lru_cache(maxsize=65536)
def prefix(text: str) -> Prefix:
    """Interned prefix constructor ("10.0.0.0/8")."""
    return Prefix(text)


def summarize(prefixes: List[Prefix]) -> List[Prefix]:
    """Greedy aggregation of a prefix list into the minimal covering set.

    Repeatedly merges sibling pairs; used by the aggregation machinery and by
    tests as an oracle for vendor aggregation behaviour.
    """
    pool = sorted(set(prefixes))
    changed = True
    while changed:
        changed = False
        merged: List[Prefix] = []
        i = 0
        while i < len(pool):
            if i + 1 < len(pool):
                parent = Prefix.aggregate_pair(pool[i], pool[i + 1])
                if parent is not None:
                    merged.append(parent)
                    i += 2
                    changed = True
                    continue
            merged.append(pool[i])
            i += 1
        # Remove prefixes shadowed by an aggregate produced this round.
        pool = []
        for p in sorted(set(merged)):
            if not any(q.contains(p) and q != p for q in merged):
                pool.append(p)
    return pool
