"""Property tests for provenance chains (ISSUE 3 satellite).

Three guarantees: chains are acyclic, every chain is rooted at an origin
announcement (or aggregation) carrying a minted causal id, and two
pinned-seed runs export byte-identical provenance dumps.  Chains are
cons lists, so the tracker tests read them through ``hops()``, check
prefix sharing by identity, and compare every chain against the
flat-tuple semantics chains had before (:class:`FlatReference`).
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.provenance import (
    Hop,
    ProvenanceTracker,
    chain_to_dicts,
    hops,
    origin_ref,
)
from repro.provenance.chain import ROOT_ACTIONS
from repro.provenance.dump import dump_json, network_dump

from .conftest import build_fig1

DEVICES = st.sampled_from(["r1", "r2", "r3"])
PREFIXES = st.sampled_from(["10.0.0.0/24", "10.0.1.0/24", "10.1.0.0/23"])


# ---------------------------------------------------------------------------
# Tracker-level properties (hypothesis)
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.booleans(), DEVICES, PREFIXES),
                min_size=1, max_size=40))
def test_minted_refs_are_globally_unique(ops):
    tracker = ProvenanceTracker()
    refs = []
    chain = ()
    for time, (is_aggregate, device, prefix) in enumerate(ops):
        if is_aggregate:
            chain = tracker.aggregate(device, prefix, float(time),
                                      base=chain, detail="mode=test")
        else:
            chain = tracker.originate(device, prefix, float(time))
        refs.append(origin_ref(chain))
    assert all(refs)
    assert len(set(refs)) == len(refs)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(DEVICES, st.sampled_from(
    ["receive", "import", "select", "advertise", "fib-install"])),
    max_size=30))
def test_extend_shares_prefix_and_stays_rooted(steps):
    tracker = ProvenanceTracker()
    chain = tracker.originate("r1", "10.0.0.0/24", 0.0)
    root = hops(chain)[0]
    for time, (device, action) in enumerate(steps, start=1):
        extended = tracker.extend(chain, action, device, float(time))
        assert extended[0] is chain             # the prefix is shared
        assert hops(extended)[:-1] == hops(chain)   # append-only
        chain = extended
    unrolled = hops(chain)
    assert unrolled[0] is root
    assert unrolled[0].action in ROOT_ACTIONS
    assert origin_ref(chain) == root.ref
    # Acyclic: no hop ever repeats within one chain.
    assert len(set(unrolled)) == len(unrolled)
    # Times never run backwards.
    times = [hop.time for hop in unrolled]
    assert times == sorted(times)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=3))
def test_aggregate_reroots_blame(n_extends):
    tracker = ProvenanceTracker()
    chain = tracker.originate("r1", "10.0.0.0/24", 0.0)
    for i in range(n_extends):
        chain = tracker.extend(chain, "advertise", "r1", float(i + 1))
    aggregated = tracker.aggregate("r6", "10.0.0.0/23", 10.0, base=chain,
                                   detail="mode=inherit-best")
    # The aggregate hop carries a fresh ref and wins origin attribution.
    top = hops(aggregated)[-1]
    assert top.ref != hops(chain)[0].ref
    assert origin_ref(aggregated) == top.ref
    # ... without erasing the contributor's history.
    assert aggregated[0] is chain
    assert hops(aggregated)[:-1] == hops(chain)


class FlatReference:
    """Chains as flat hop tuples: every extension copies the chain and
    concatenates one hop.  The reference semantics cons-list chains
    must reproduce exactly, minted ids included."""

    def __init__(self):
        self._seq = {}

    def _mint(self, device, prefix):
        self._seq[device] = self._seq.get(device, 0) + 1
        return f"{device}/{prefix}#{self._seq[device]}"

    def originate(self, device, prefix, time):
        return (Hop("originate", device, time, "network",
                    ref=self._mint(device, prefix)),)

    def aggregate(self, device, prefix, time, base, detail):
        return base + (Hop("aggregate", device, time, detail,
                           ref=self._mint(device, prefix)),)

    def extend(self, chain, action, device, time, detail, peer):
        return chain + (Hop(action, device, time, detail, peer),)

    @staticmethod
    def origin_ref(chain):
        for hop in reversed(chain):
            if hop.ref:
                return hop.ref
        return ""

    @staticmethod
    def to_dicts(chain):
        return [hop.to_dict() for hop in chain]


OPS = st.lists(st.tuples(
    st.sampled_from(["originate", "extend", "append", "aggregate"]),
    st.integers(min_value=0, max_value=10**6),     # which chain / hop
    DEVICES, PREFIXES,
    st.sampled_from(["", "step=igp", "mode=reset-path"]),
    st.sampled_from(["", "10.0.0.1"])), max_size=60)


@settings(max_examples=200, deadline=None)
@given(OPS)
def test_cons_chains_match_flat_tuple_semantics(ops):
    """Over random originate/extend/append/aggregate sequences — chains
    branching off any earlier chain, hops shared across chains — every
    chain unrolls, attributes and exports exactly as its flat-tuple
    twin."""
    tracker, reference = ProvenanceTracker(), FlatReference()
    pairs = [((), ())]            # (cons chain, flat twin), all kept alive
    shared = []                   # hops built once and appended anywhere
    for time, (op, pick, device, prefix, detail, peer) in enumerate(ops):
        chain, flat = pairs[pick % len(pairs)]
        if op == "originate":
            pair = (tracker.originate(device, prefix, float(time)),
                    reference.originate(device, prefix, float(time)))
        elif op == "aggregate":
            pair = (tracker.aggregate(device, prefix, float(time),
                                      base=chain, detail=detail),
                    reference.aggregate(device, prefix, float(time),
                                        base=flat, detail=detail))
        elif op == "extend":
            pair = (tracker.extend(chain, "select", device, float(time),
                                   detail=detail, peer=peer),
                    reference.extend(flat, "select", device, float(time),
                                     detail, peer))
        else:
            if not shared or pick % 2:
                shared.append(tracker.hop("advertise", device, float(time),
                                          detail=detail, peer=peer))
            hop = shared[pick % len(shared)]
            pair = (tracker.append(chain, hop), flat + (hop,))
        pairs.append(pair)
    for chain, flat in pairs:
        assert hops(chain) == list(flat)
        assert origin_ref(chain) == reference.origin_ref(flat)
        assert chain_to_dicts(chain) == reference.to_dicts(flat)
        assert bool(chain) == bool(flat)


def test_deep_chain_pickles_and_unrolls_unchanged():
    """Cons cells nest one tuple per hop, and CPython's pickler recurses
    per level (its limit is about 1000).  The longest chain an L-DC
    mockup builds is 19 hops; 500 leaves a wide margin."""
    tracker = ProvenanceTracker()
    chain = tracker.originate("r1", "10.0.0.0/24", 0.0)
    for i in range(1, 500):
        chain = tracker.extend(chain, "advertise", f"r{i % 7}", float(i),
                               peer="10.0.0.1")
    unrolled = hops(chain)
    assert len(unrolled) == 500
    restored = pickle.loads(pickle.dumps(chain,
                                         protocol=pickle.HIGHEST_PROTOCOL))
    assert restored == chain
    assert hops(restored) == unrolled
    assert chain_to_dicts(restored) == chain_to_dicts(chain)
    assert origin_ref(restored) == origin_ref(chain) == unrolled[0].ref


# ---------------------------------------------------------------------------
# Whole-network properties on the Fig. 1 lab
# ---------------------------------------------------------------------------

def test_every_chain_is_rooted_and_acyclic(fig1_lab):
    doc = network_dump(fig1_lab)
    checked = 0
    for device, body in doc["devices"].items():
        for prefix, entry in body["prefixes"].items():
            chain = entry["chain"]
            if not chain:
                continue
            checked += 1
            first = chain[0]
            assert first["action"] in ROOT_ACTIONS, (device, prefix)
            assert first.get("ref"), (device, prefix)
            assert entry["origin"], (device, prefix)
            # Acyclic: no identical hop twice, times non-decreasing.
            seen = [tuple(sorted(hop.items())) for hop in chain]
            assert len(set(seen)) == len(seen), (device, prefix)
            times = [hop["time"] for hop in chain]
            assert times == sorted(times), (device, prefix)
    assert checked > 10  # the lab produced real chains to check


def test_installed_prefixes_explain_their_fib_entry(fig1_lab):
    doc = network_dump(fig1_lab)
    for device, body in doc["devices"].items():
        for prefix, entry in body["prefixes"].items():
            if entry["state"] != "installed":
                continue
            actions = [hop["action"] for hop in entry["chain"]]
            assert actions[-1] == "fib-install", (device, prefix)
            assert entry["fib"]["next_hops"], (device, prefix)


def test_pinned_seed_runs_dump_byte_identical(fig1_lab):
    assert dump_json(fig1_lab) == dump_json(build_fig1())


def test_chain_to_dicts_omits_empty_fields():
    tracker = ProvenanceTracker()
    chain = tracker.extend(tracker.originate("r1", "10.0.0.0/24", 0.0),
                           "select", "r1", 1.0)
    dicts = chain_to_dicts(chain)
    assert "peer" not in dicts[0] and "ref" in dicts[0]
    assert "ref" not in dicts[1] and "detail" not in dicts[1]
