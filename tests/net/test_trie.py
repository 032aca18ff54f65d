"""Tests + property tests for the LPM prefix trie."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import IPv4Address, Prefix, PrefixTrie


def P(text):
    return Prefix(text)


class TestBasics:
    def test_insert_get_exact(self):
        trie = PrefixTrie()
        trie.insert(P("10.0.0.0/8"), "a")
        assert trie.get(P("10.0.0.0/8")) == "a"
        assert trie.get(P("10.0.0.0/16")) is None
        assert len(trie) == 1

    def test_replace_keeps_size(self):
        trie = PrefixTrie()
        trie[P("10.0.0.0/8")] = 1
        trie[P("10.0.0.0/8")] = 2
        assert trie[P("10.0.0.0/8")] == 2
        assert len(trie) == 1

    def test_getitem_keyerror(self):
        trie = PrefixTrie()
        with pytest.raises(KeyError):
            trie[P("10.0.0.0/8")]

    def test_contains(self):
        trie = PrefixTrie()
        trie.insert(P("10.0.0.0/8"), "a")
        assert P("10.0.0.0/8") in trie
        assert P("10.0.0.0/9") not in trie

    def test_delete(self):
        trie = PrefixTrie()
        trie.insert(P("10.0.0.0/8"), "a")
        assert trie.delete(P("10.0.0.0/8"))
        assert not trie.delete(P("10.0.0.0/8"))
        assert len(trie) == 0

    def test_delete_keeps_other_entries(self):
        trie = PrefixTrie()
        trie.insert(P("10.0.0.0/8"), "a")
        trie.insert(P("10.1.0.0/16"), "b")
        trie.delete(P("10.0.0.0/8"))
        assert trie.get(P("10.1.0.0/16")) == "b"
        assert trie.lookup(IPv4Address("10.1.2.3")) == "b"

    def test_default_route(self):
        trie = PrefixTrie()
        trie.insert(P("0.0.0.0/0"), "default")
        assert trie.lookup(IPv4Address("1.2.3.4")) == "default"
        assert trie.longest_match(IPv4Address("1.2.3.4"))[0] == P("0.0.0.0/0")


class TestLongestMatch:
    def test_picks_most_specific(self):
        trie = PrefixTrie()
        trie.insert(P("10.0.0.0/8"), "eight")
        trie.insert(P("10.1.0.0/16"), "sixteen")
        trie.insert(P("10.1.2.0/24"), "twentyfour")
        assert trie.lookup(IPv4Address("10.1.2.3")) == "twentyfour"
        assert trie.lookup(IPv4Address("10.1.9.9")) == "sixteen"
        assert trie.lookup(IPv4Address("10.9.9.9")) == "eight"
        assert trie.lookup(IPv4Address("11.0.0.1")) is None

    def test_match_returns_correct_prefix(self):
        trie = PrefixTrie()
        trie.insert(P("10.1.2.0/24"), "x")
        pfx, val = trie.longest_match(IPv4Address("10.1.2.200"))
        assert pfx == P("10.1.2.0/24")
        assert val == "x"

    def test_host_route_wins(self):
        trie = PrefixTrie()
        trie.insert(P("10.0.0.0/8"), "net")
        trie.insert(P("10.0.0.5/32"), "host")
        assert trie.lookup(IPv4Address("10.0.0.5")) == "host"
        assert trie.lookup(IPv4Address("10.0.0.6")) == "net"


class TestTraversal:
    def test_items_sorted_walk(self):
        trie = PrefixTrie()
        entries = {P("10.0.0.0/8"): 1, P("192.168.0.0/16"): 2, P("10.1.0.0/16"): 3}
        for k, v in entries.items():
            trie.insert(k, v)
        assert dict(trie.items()) == entries

    def test_covering(self):
        trie = PrefixTrie()
        trie.insert(P("0.0.0.0/0"), "d")
        trie.insert(P("10.0.0.0/8"), "a")
        trie.insert(P("10.1.0.0/16"), "b")
        trie.insert(P("11.0.0.0/8"), "other")
        covers = list(trie.covering(P("10.1.2.0/24")))
        assert [str(p) for p, _ in covers] == ["0.0.0.0/0", "10.0.0.0/8",
                                               "10.1.0.0/16"]

    def test_subtree(self):
        trie = PrefixTrie()
        trie.insert(P("10.0.0.0/8"), "a")
        trie.insert(P("10.1.0.0/16"), "b")
        trie.insert(P("11.0.0.0/8"), "c")
        subs = dict(trie.subtree(P("10.0.0.0/8")))
        assert subs == {P("10.0.0.0/8"): "a", P("10.1.0.0/16"): "b"}


prefix_strategy = st.builds(
    lambda net, length: Prefix(net, length),
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.integers(min_value=0, max_value=32),
)


class TestProperties:
    @given(st.dictionaries(prefix_strategy, st.integers(), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_trie_matches_dict_semantics(self, entries):
        trie = PrefixTrie()
        for pfx, value in entries.items():
            trie.insert(pfx, value)
        assert len(trie) == len(entries)
        assert dict(trie.items()) == entries
        for pfx, value in entries.items():
            assert trie.get(pfx) == value

    @given(
        st.dictionaries(prefix_strategy, st.integers(), min_size=1, max_size=40),
        st.integers(min_value=0, max_value=0xFFFFFFFF),
    )
    @settings(max_examples=80, deadline=None)
    def test_lpm_agrees_with_linear_scan(self, entries, addr_value):
        trie = PrefixTrie()
        for pfx, value in entries.items():
            trie.insert(pfx, value)
        addr = IPv4Address(addr_value)
        candidates = [p for p in entries if addr in p]
        hit = trie.longest_match(addr)
        if not candidates:
            assert hit is None
        else:
            best = max(candidates, key=lambda p: p.length)
            assert hit[0] == best
            assert hit[1] == entries[best]

    @given(st.lists(prefix_strategy, min_size=1, max_size=40, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_delete_everything_empties_trie(self, prefixes):
        trie = PrefixTrie()
        for pfx in prefixes:
            trie.insert(pfx, str(pfx))
        for pfx in prefixes:
            assert trie.delete(pfx)
        assert len(trie) == 0
        assert list(trie.items()) == []
        # Internal nodes must be pruned too.
        assert trie._root.children == [None, None]


def recursive_preorder(node, path=0, depth=0):
    """The reference walk: recursive, node before children, child 0
    before child 1."""
    if node.has_value:
        yield Prefix(path << (32 - depth) if depth else 0, depth), node.value
    for bit in (0, 1):
        child = node.children[bit]
        if child is not None:
            yield from recursive_preorder(child, (path << 1) | bit, depth + 1)


class TestWalkOrder:
    """``items``/``values``/``subtree`` share one iterative walk; FIB
    renders and dumps rely on it yielding ascending ``Prefix.key()``."""

    @given(st.dictionaries(prefix_strategy, st.integers(), max_size=80),
           st.builds(Prefix, st.integers(0, 0xFFFFFFFF), st.integers(0, 4)))
    @settings(max_examples=120, deadline=None)
    def test_walks_match_recursive_reference_in_key_order(self, entries,
                                                          within):
        trie = PrefixTrie()
        for pfx, value in entries.items():
            trie.insert(pfx, value)
        expected = sorted(entries.items(), key=lambda item: item[0].key())
        assert list(recursive_preorder(trie._root)) == expected
        assert list(trie.items()) == expected
        assert list(trie.values()) == [value for _pfx, value in expected]
        assert list(trie.keys()) == [pfx for pfx, _value in expected]
        inside = [(pfx, value) for pfx, value in expected
                  if within.contains(pfx)]
        assert list(trie.subtree(within)) == inside

    def test_subtree_of_a_missing_branch_is_empty(self):
        trie = PrefixTrie()
        trie.insert(P("10.0.0.0/8"), "a")
        assert list(trie.subtree(P("11.0.0.0/8"))) == []
        assert list(trie.subtree(P("10.0.0.0/16"))) == []

    def test_full_depth_walk(self):
        trie = PrefixTrie()
        trie.insert(P("0.0.0.0/0"), "default")
        trie.insert(P("255.255.255.255/32"), "top")
        trie.insert(P("0.0.0.0/32"), "bottom")
        assert list(trie.items()) == [(P("0.0.0.0/0"), "default"),
                                      (P("0.0.0.0/32"), "bottom"),
                                      (P("255.255.255.255/32"), "top")]
