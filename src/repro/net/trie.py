"""Binary prefix trie with longest-prefix-match lookup.

This is the FIB/RIB index used by every emulated device.  Longest-prefix
match is the single hottest operation during data-plane walks and FIB
comparison, so the trie stores raw integers and walks bits directly.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

from .ip import IPv4Address, Prefix

__all__ = ["PrefixTrie"]


class _Node:
    __slots__ = ("children", "value", "has_value")

    def __init__(self):
        self.children: list[Optional[_Node]] = [None, None]
        self.value: Any = None
        self.has_value = False


class PrefixTrie:
    """Maps :class:`Prefix` -> value with longest-prefix-match semantics."""

    def __init__(self):
        self._root = _Node()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, pfx: Prefix) -> bool:
        node = self._find(pfx)
        return node is not None and node.has_value

    def insert(self, pfx: Prefix, value: Any) -> None:
        """Insert or replace the value at ``pfx``."""
        node = self._root
        net, length = pfx.network, pfx.length
        for depth in range(length):
            bit = (net >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                child = _Node()
                node.children[bit] = child
            node = child
        if not node.has_value:
            self._size += 1
        node.value = value
        node.has_value = True

    def get(self, pfx: Prefix, default: Any = None) -> Any:
        """Exact-match lookup."""
        node = self._find(pfx)
        if node is not None and node.has_value:
            return node.value
        return default

    def __getitem__(self, pfx: Prefix) -> Any:
        node = self._find(pfx)
        if node is None or not node.has_value:
            raise KeyError(pfx)
        return node.value

    def __setitem__(self, pfx: Prefix, value: Any) -> None:
        self.insert(pfx, value)

    def delete(self, pfx: Prefix) -> bool:
        """Remove ``pfx``; returns True if it was present.

        Prunes now-empty branches so memory tracks the live table size.
        """
        path: List[Tuple[_Node, int]] = []
        node = self._root
        net, length = pfx.network, pfx.length
        for depth in range(length):
            bit = (net >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                return False
            path.append((node, bit))
            node = child
        if not node.has_value:
            return False
        node.has_value = False
        node.value = None
        self._size -= 1
        # Prune empty leaves upward.
        for parent, bit in reversed(path):
            child = parent.children[bit]
            if child.has_value or child.children[0] or child.children[1]:
                break
            parent.children[bit] = None
        return True

    def longest_match(self, addr: IPv4Address | int) -> Optional[Tuple[Prefix, Any]]:
        """The most-specific entry covering ``addr``, or None."""
        value = addr.value if isinstance(addr, IPv4Address) else addr
        node = self._root
        best: Optional[Tuple[int, Any]] = None
        covered = 0
        depth = 0
        if node.has_value:
            best = (0, node.value)
        while depth < 32:
            bit = (value >> (31 - depth)) & 1
            node = node.children[bit]
            if node is None:
                break
            covered = (covered << 1) | bit
            depth += 1
            if node.has_value:
                best = (depth, node.value)
        if best is None:
            return None
        length, found = best
        net = (value >> (32 - length)) << (32 - length) if length else 0
        return Prefix(net, length), found

    def lookup(self, addr: IPv4Address | int) -> Any:
        """LPM lookup returning just the value (None if no match)."""
        hit = self.longest_match(addr)
        return hit[1] if hit else None

    def covering(self, pfx: Prefix) -> Iterator[Tuple[Prefix, Any]]:
        """All entries that contain ``pfx``, from least to most specific."""
        node = self._root
        if node.has_value:
            yield Prefix(0, 0), node.value
        net = pfx.network
        for depth in range(pfx.length):
            bit = (net >> (31 - depth)) & 1
            node = node.children[bit]
            if node is None:
                return
            if node.has_value:
                length = depth + 1
                sub_net = (net >> (32 - length)) << (32 - length)
                yield Prefix(sub_net, length), node.value

    def subtree(self, pfx: Prefix) -> Iterator[Tuple[Prefix, Any]]:
        """All entries contained within ``pfx`` (including itself)."""
        node = self._root
        net = pfx.network
        for depth in range(pfx.length):
            bit = (net >> (31 - depth)) & 1
            node = node.children[bit]
            if node is None:
                return iter(())
        return self._preorder(
            node, net >> (32 - pfx.length) if pfx.length else 0,
            pfx.length, keyed=True)

    def items(self) -> Iterator[Tuple[Prefix, Any]]:
        """Every ``(prefix, value)`` in ascending :meth:`Prefix.key` order."""
        # A generator function, so a tracer that drains generator
        # boundaries charges the walk to this layer, not the caller.
        yield from self._preorder(self._root, 0, 0, keyed=True)

    def keys(self) -> Iterator[Prefix]:
        for pfx, _value in self.items():
            yield pfx

    def values(self) -> Iterator[Any]:
        """Every value in :meth:`items` order, without building prefixes."""
        return self._preorder(self._root, 0, 0, keyed=False)

    # -- internals -------------------------------------------------------

    def _find(self, pfx: Prefix) -> Optional[_Node]:
        node = self._root
        net, length = pfx.network, pfx.length
        for depth in range(length):
            bit = (net >> (31 - depth)) & 1
            node = node.children[bit]
            if node is None:
                return None
        return node

    @staticmethod
    def _preorder(node: _Node, path: int, depth: int,
                  keyed: bool) -> Iterator[Any]:
        """Pre-order walk from ``node`` (``depth`` bits of ``path`` deep).

        A node before its children and child 0 before child 1 is
        ascending :meth:`Prefix.key` order.  An explicit stack, not
        recursion: a recursive generator resumes one frame per trie
        level for every entry it yields.  Yields ``(Prefix, value)``
        when ``keyed``, else the bare values.
        """
        stack = [(node, path, depth)]
        pop, push = stack.pop, stack.append
        while stack:
            node, path, depth = pop()
            if node.has_value:
                if keyed:
                    yield (Prefix(path << (32 - depth) if depth else 0,
                                  depth), node.value)
                else:
                    yield node.value
            zero, one = node.children
            depth += 1
            if one is not None:
                push((one, (path << 1) | 1, depth))
            if zero is not None:
                push((zero, path << 1, depth))
