"""The version contract render reuse rests on.

``reuse_render`` hands back a memoized FIB or Loc-RIB render while
``(table identity, table.version)`` holds.  That is only sound if every
operation that changes what a table renders also moves its version:
across any operation, an unchanged ``version`` must mean an unchanged
render (equivalently, a changed render must have moved ``version``).
These properties drive arbitrary operation sequences through ``Fib``
and ``LocRib`` and check the contract — and the memoized read against a
fresh one — after every step, using the renderers PullStates uses.
"""

import pickle
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.firmware.bgp import BgpDaemon, LocRib, PathAttributes, Route
from repro.firmware.device import DeviceOS
from repro.firmware.fib import Fib, FibEntry, NextHop, reuse_render
from repro.net import IPv4Address, Prefix

PREFIXES = [Prefix(p) for p in ("10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24",
                                "10.1.2.3/32", "10.1.2.4/31",
                                "192.168.0.0/24")]
HOPS = [
    (NextHop(ip=None, interface="et0"),),
    (NextHop(ip=IPv4Address("10.9.0.1"), interface="et1"),),
    (NextHop(ip=IPv4Address("10.9.0.1"), interface="et1"),
     NextHop(ip=IPv4Address("10.9.0.3"), interface="et2")),
]
SOURCES = ("bgp", "connected")


def render_fib(fib):
    """``DeviceOS.pull_fib``'s renderer, on a bare table."""
    return DeviceOS._render_fib(SimpleNamespace(stack=SimpleNamespace(fib=fib)))


def render_rib(rib):
    """``BgpDaemon.rib_snapshot``'s ``loc_rib`` renderer, on a bare table."""
    return BgpDaemon._render_loc_rib(SimpleNamespace(loc_rib=rib))


fib_ops = st.lists(st.one_of(
    st.tuples(st.just("install"), st.integers(0, len(PREFIXES) - 1),
              st.integers(0, len(HOPS) - 1), st.sampled_from(SOURCES)),
    st.tuples(st.just("remove"), st.integers(0, len(PREFIXES) - 1)),
    st.tuples(st.just("clear"), st.sampled_from(SOURCES)),
), max_size=40)


def apply_fib(fib, op):
    if op[0] == "install":
        _, p, h, source = op
        fib.install(FibEntry(prefix=PREFIXES[p], next_hops=HOPS[h],
                             source=source))
    elif op[0] == "remove":
        fib.remove(PREFIXES[op[1]])
    else:
        fib.clear_protocol(op[1])


@given(fib_ops, st.sampled_from([None, 3]))
@settings(max_examples=200, deadline=None)
def test_fib_version_moves_whenever_render_changes(ops, capacity):
    # capacity=3 with drop-silent also covers installs the table refuses.
    fib = Fib(capacity=capacity, overflow_policy="drop-silent")
    memo = {}
    before, version = render_fib(fib), fib.version
    for op in ops:
        apply_fib(fib, op)
        after = render_fib(fib)
        if fib.version == version:
            assert after == before, op
        if after != before:
            assert fib.version != version, op
        assert reuse_render(memo, "fib", fib, lambda: render_fib(fib)) == after
        before, version = after, fib.version


rib_ops = st.lists(st.one_of(
    st.tuples(st.just("set"), st.integers(0, len(PREFIXES) - 1),
              st.lists(st.integers(1, 4), min_size=1, max_size=3)),
    st.tuples(st.just("remove"), st.integers(0, len(PREFIXES) - 1)),
), max_size=40)


def route(prefix, first_as, index):
    return Route(prefix=prefix,
                 attrs=PathAttributes(as_path=(first_as, 65000)),
                 peer_ip=IPv4Address(0x0A090000 + index),
                 peer_asn=first_as)


def apply_rib(rib, op):
    if op[0] == "set":
        _, p, paths = op
        multi = tuple(route(PREFIXES[p], a, i) for i, a in enumerate(paths))
        rib.set(PREFIXES[p], multi[0], multi)
    else:
        rib.remove(PREFIXES[op[1]])


@given(rib_ops)
@settings(max_examples=200, deadline=None)
def test_loc_rib_version_moves_whenever_render_changes(ops):
    rib = LocRib()
    memo = {}
    before, version = render_rib(rib), rib.version
    for op in ops:
        apply_rib(rib, op)
        after = render_rib(rib)
        if rib.version == version:
            assert after == before, op
        if after != before:
            assert rib.version != version, op
        assert reuse_render(memo, "rib", rib, lambda: render_rib(rib)) == after
        before, version = after, rib.version


def test_reuse_is_keyed_on_table_identity_not_version_alone():
    """A rebooted device gets a new table whose version can coincide with
    the old one's; the memo must re-render it."""
    old, new = Fib(), Fib()
    old.install(FibEntry(prefix=PREFIXES[0], next_hops=HOPS[0]))
    new.install(FibEntry(prefix=PREFIXES[1], next_hops=HOPS[1]))
    assert old.version == new.version
    memo = {}
    first = reuse_render(memo, "fib", old, lambda: render_fib(old))
    assert reuse_render(memo, "fib", old, lambda: render_fib(old)) is first
    second = reuse_render(memo, "fib", new, lambda: render_fib(new))
    assert second == render_fib(new) != first


def test_no_memo_renders_fresh():
    fib = Fib()
    fib.install(FibEntry(prefix=PREFIXES[0], next_hops=HOPS[0]))
    a = reuse_render(None, "fib", fib, lambda: render_fib(fib))
    b = reuse_render(None, "fib", fib, lambda: render_fib(fib))
    assert a == b and a is not b


def test_loc_rib_pickled_before_the_counter_existed_still_memoizes():
    """A snapshot saved before ``LocRib.version`` existed unpickles tables
    without the attribute; a memoized read must still work and still see
    the next mutation."""
    rib = LocRib()
    apply_rib(rib, ("set", 0, [1]))
    del rib.version                     # the pre-counter instance state
    old = pickle.loads(pickle.dumps(rib))
    assert "version" not in vars(old) and old.version == 0
    memo = {}
    first = reuse_render(memo, "rib", old, lambda: render_rib(old))
    assert first == render_rib(rib)
    assert reuse_render(memo, "rib", old, lambda: render_rib(old)) is first
    apply_rib(old, ("set", 1, [2]))
    assert old.version == 1
    assert reuse_render(memo, "rib", old,
                        lambda: render_rib(old)) == render_rib(old) != first
