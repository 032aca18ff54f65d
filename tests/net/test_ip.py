"""Tests for IPv4 address/prefix value objects."""

import ipaddress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import IPv4Address, Prefix
from repro.net.ip import _format_ipv4, summarize


class TestIPv4Address:
    def test_parse_and_format_roundtrip(self):
        assert str(IPv4Address("10.1.2.3")) == "10.1.2.3"
        assert int(IPv4Address("0.0.0.1")) == 1
        assert str(IPv4Address(0xFFFFFFFF)) == "255.255.255.255"

    @pytest.mark.parametrize("bad", ["1.2.3", "1.2.3.4.5", "256.0.0.1",
                                     "01.2.3.4", "a.b.c.d", "1..2.3"])
    def test_invalid_strings_rejected(self, bad):
        with pytest.raises(ValueError):
            IPv4Address(bad)

    def test_out_of_range_int_rejected(self):
        with pytest.raises(ValueError):
            IPv4Address(1 << 32)
        with pytest.raises(ValueError):
            IPv4Address(-1)

    def test_equality_and_hash(self):
        assert IPv4Address("10.0.0.1") == IPv4Address(0x0A000001)
        assert hash(IPv4Address("10.0.0.1")) == hash(IPv4Address("10.0.0.1"))
        assert IPv4Address("10.0.0.1") != IPv4Address("10.0.0.2")

    def test_ordering_and_addition(self):
        assert IPv4Address("10.0.0.1") < IPv4Address("10.0.0.2")
        assert IPv4Address("10.0.0.1") + 5 == IPv4Address("10.0.0.6")

    def test_immutable(self):
        addr = IPv4Address("10.0.0.1")
        with pytest.raises(AttributeError):
            addr.value = 5


class TestPrefix:
    def test_parse_slash_notation(self):
        p = Prefix("10.1.0.0/16")
        assert p.length == 16
        assert str(p) == "10.1.0.0/16"

    def test_host_bits_are_masked(self):
        assert str(Prefix("10.1.2.3/16")) == "10.1.0.0/16"

    def test_invalid_lengths_rejected(self):
        with pytest.raises(ValueError):
            Prefix("10.0.0.0/33")
        with pytest.raises(ValueError):
            Prefix("10.0.0.0", -1)
        with pytest.raises(ValueError):
            Prefix("10.0.0.0")  # no length

    def test_contains_address(self):
        p = Prefix("10.1.0.0/16")
        assert IPv4Address("10.1.200.3") in p
        assert IPv4Address("10.2.0.1") not in p

    def test_contains_subprefix(self):
        p = Prefix("10.0.0.0/8")
        assert Prefix("10.5.0.0/16") in p
        assert Prefix("10.0.0.0/8") in p
        assert Prefix("0.0.0.0/0") not in p

    def test_default_route_contains_everything(self):
        default = Prefix("0.0.0.0/0")
        assert IPv4Address("1.2.3.4") in default
        assert Prefix("255.0.0.0/8") in default

    def test_overlaps(self):
        assert Prefix("10.0.0.0/8").overlaps(Prefix("10.1.0.0/16"))
        assert Prefix("10.1.0.0/16").overlaps(Prefix("10.0.0.0/8"))
        assert not Prefix("10.0.0.0/16").overlaps(Prefix("10.1.0.0/16"))

    def test_subnets(self):
        subs = list(Prefix("10.0.0.0/23").subnets(24))
        assert [str(s) for s in subs] == ["10.0.0.0/24", "10.0.1.0/24"]
        with pytest.raises(ValueError):
            list(Prefix("10.0.0.0/24").subnets(23))

    def test_supernet(self):
        assert str(Prefix("10.0.1.0/24").supernet()) == "10.0.0.0/23"
        assert str(Prefix("10.1.2.0/24").supernet(8)) == "10.0.0.0/8"
        with pytest.raises(ValueError):
            Prefix("10.0.0.0/8").supernet(16)

    def test_hosts_excludes_network_and_broadcast(self):
        hosts = list(Prefix("192.168.0.0/30").hosts())
        assert [str(h) for h in hosts] == ["192.168.0.1", "192.168.0.2"]

    def test_hosts_slash31_includes_both(self):
        hosts = list(Prefix("192.168.0.0/31").hosts())
        assert [str(h) for h in hosts] == ["192.168.0.0", "192.168.0.1"]

    def test_broadcast_and_counts(self):
        p = Prefix("10.0.0.0/24")
        assert str(p.broadcast_address) == "10.0.0.255"
        assert p.num_addresses == 256

    def test_aggregate_pair(self):
        a, b = Prefix("10.0.0.0/24"), Prefix("10.0.1.0/24")
        assert Prefix.aggregate_pair(a, b) == Prefix("10.0.0.0/23")
        # Non-siblings do not merge.
        assert Prefix.aggregate_pair(Prefix("10.0.1.0/24"),
                                     Prefix("10.0.2.0/24")) is None
        # Different lengths do not merge.
        assert Prefix.aggregate_pair(Prefix("10.0.0.0/24"),
                                     Prefix("10.0.0.0/25")) is None

    def test_address_at(self):
        p = Prefix("10.0.0.0/24")
        assert str(p.address_at(10)) == "10.0.0.10"
        with pytest.raises(ValueError):
            p.address_at(256)

    def test_sorting(self):
        ps = [Prefix("10.1.0.0/16"), Prefix("10.0.0.0/8"), Prefix("10.1.0.0/24")]
        assert [str(p) for p in sorted(ps)] == [
            "10.0.0.0/8", "10.1.0.0/16", "10.1.0.0/24"]


class TestSummarize:
    def test_merges_sibling_pairs(self):
        out = summarize([Prefix("10.0.0.0/24"), Prefix("10.0.1.0/24")])
        assert out == [Prefix("10.0.0.0/23")]

    def test_merges_recursively(self):
        quarters = [Prefix(f"10.0.{i}.0/24") for i in range(4)]
        assert summarize(quarters) == [Prefix("10.0.0.0/22")]

    def test_removes_shadowed_specifics(self):
        out = summarize([Prefix("10.0.0.0/23"), Prefix("10.0.0.0/24"),
                         Prefix("10.0.1.0/24")])
        assert out == [Prefix("10.0.0.0/23")]

    def test_disjoint_stay_separate(self):
        ins = [Prefix("10.0.0.0/24"), Prefix("10.0.2.0/24")]
        assert summarize(ins) == sorted(ins)

    def test_paper_example_256_blocks(self):
        # The load-balancer incident (§2): a /16 split into 256 /24 blocks.
        blocks = list(Prefix("172.16.0.0/16").subnets(24))
        assert len(blocks) == 256
        assert summarize(blocks) == [Prefix("172.16.0.0/16")]


class TestFormatting:
    @pytest.mark.parametrize("value", [0, 255, 256, 2 ** 32 - 1])
    def test_edges_match_stdlib(self, value):
        assert _format_ipv4(value) == str(ipaddress.IPv4Address(value))

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_stdlib(self, value):
        assert _format_ipv4(value) == str(ipaddress.IPv4Address(value))
        assert str(IPv4Address(value)) == _format_ipv4(value)
