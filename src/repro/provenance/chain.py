"""Route provenance: causal hop chains for control-plane state.

Every BGP UPDATE (and OSPF LSA) gets a causal id minted at origination;
as the announcement propagates, each device appends :class:`Hop` records
— received-from, policy verdict, decision step, aggregation event, FIB
install — so any Adj-RIB-In/Loc-RIB/FIB entry can answer "why is this
here?" with its complete origin-to-install history (the question the
paper's Fig. 1 incident took operators days to answer on hardware).

A chain is a persistent cons list: ``()`` is the empty chain and any
other chain is the 2-tuple ``(parent_chain, hop)``, newest hop last.
Extending a chain allocates that one 2-tuple and shares the whole
prefix, by identity, with every other holder — an UPDATE fanned out to
64 peers holds 64 cells over one common parent, not 64 copies of it.
:func:`hops` unrolls a chain origin-first.  :class:`Hop` is a named
tuple, so a warm snapshot pickles each one as its field tuple.
Determinism discipline matches the rest of the tree: ids come from
per-device sequence counters and hop times from the sim clock — never
the wall clock — so two pinned-seed runs export byte-identical
provenance dumps.

The disabled twin :data:`NULL_PROVENANCE` mirrors the ``NULL_OBS``
pattern: every mint/extend returns the empty chain, costing one method
call and nothing else.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple, Union

from ..obs import NULL_OBS

__all__ = [
    "Hop",
    "Chain",
    "ProvenanceTracker",
    "NullProvenance",
    "NULL_PROVENANCE",
    "chain_to_dicts",
    "hops",
    "origin_ref",
]

# A causal chain from origination to the current holder, as a cons list:
# ``()`` or ``(parent_chain, newest_hop)``.
Chain = Union[Tuple[()], Tuple["Chain", "Hop"]]

# Hop actions that root a chain (and therefore carry a causal ``ref``).
ROOT_ACTIONS = ("originate", "aggregate")


class Hop(NamedTuple):
    """One causal step in a route's history.

    ``action`` is a short verb (originate / receive / import /
    import-deny / select / aggregate / advertise / fib-install / ...);
    ``ref`` is the minted causal id on root hops (origination and
    aggregation) and empty elsewhere; ``detail`` carries the
    action-specific verdict (policy clause, decision step, vendor
    aggregation mode).
    """

    action: str
    device: str
    time: float
    detail: str = ""
    peer: str = ""
    ref: str = ""

    def to_dict(self) -> dict:
        out = {"action": self.action, "device": self.device,
               "time": self.time}
        if self.detail:
            out["detail"] = self.detail
        if self.peer:
            out["peer"] = self.peer
        if self.ref:
            out["ref"] = self.ref
        return out


def hops(chain: Chain) -> List[Hop]:
    """A chain's hops, origin first."""
    out = []
    while chain:
        chain, hop = chain
        out.append(hop)
    out.reverse()
    return out


def chain_to_dicts(chain: Chain) -> List[dict]:
    return [hop.to_dict() for hop in hops(chain)]


def origin_ref(chain: Chain) -> str:
    """The causal id of the most recent root hop (origination or
    aggregation) in a chain; empty for an empty chain."""
    while chain:
        chain, hop = chain
        if hop.ref:
            return hop.ref
    return ""


class ProvenanceTracker:
    """Mints causal ids and builds hop chains for one emulation.

    One tracker is shared network-wide (like the obs hub): the per-device
    sequence counters that make ids unique live here, and the tracker
    feeds hop/origin counters into the attached metrics registry.
    """

    enabled = True

    def __init__(self, obs=NULL_OBS):
        self.obs = obs
        self._seq: Dict[str, int] = {}
        metrics = obs.metrics
        self._m_origins = metrics.counter(
            "repro_provenance_origins_total",
            "Causal ids minted (originations + aggregations)").labels()
        self._m_hops = metrics.counter(
            "repro_provenance_hops_total",
            "Provenance hops appended to chains").labels()

    def _mint(self, device: str, prefix: object) -> str:
        seq = self._seq.get(device, 0) + 1
        self._seq[device] = seq
        self._m_origins.inc()
        return f"{device}/{prefix}#{seq}"

    # -- chain construction ------------------------------------------------

    def originate(self, device: str, prefix: object, time: float,
                  detail: str = "network") -> Chain:
        """Root a new chain at a local origination (network statement,
        static route, LSA origination)."""
        return ((), Hop(action="originate", device=device, time=time,
                        detail=detail, ref=self._mint(device, prefix)))

    def aggregate(self, device: str, prefix: object, time: float,
                  base: Chain, detail: str) -> Chain:
        """Root (or re-root) a chain at an aggregation event.

        ``base`` is the inherited contributor's chain for the
        inherit-best / inherit-first vendor modes, or the empty chain for
        reset-path; either way the aggregate hop mints a fresh causal id
        so blame can attribute churn to the aggregation itself.
        """
        self._m_hops.inc()
        return (base, Hop(action="aggregate", device=device, time=time,
                          detail=detail, ref=self._mint(device, prefix)))

    def extend(self, chain: Chain, action: str, device: str, time: float,
               detail: str = "", peer: str = "") -> Chain:
        self._m_hops.inc()
        return (chain, Hop(action=action, device=device, time=time,
                           detail=detail, peer=peer))

    # -- batch helpers -----------------------------------------------------
    #
    # When one event touches many prefixes (an UPDATE's NLRI list, a
    # session's advertisement flush) the appended hop is identical for
    # every prefix.  Hops are immutable, so the daemon builds it once
    # with :meth:`hop` and shares it across chains via :meth:`append` —
    # one 2-tuple cell per prefix instead of one Hop allocation.

    @staticmethod
    def hop(action: str, device: str, time: float,
            detail: str = "", peer: str = "") -> Hop:
        return Hop(action=action, device=device, time=time,
                   detail=detail, peer=peer)

    def append(self, chain: Chain, hop: Hop) -> Chain:
        self._m_hops.inc()
        return (chain, hop)


class NullProvenance:
    """Disabled tracker: every operation returns the empty chain."""

    enabled = False

    def originate(self, device: str, prefix: object, time: float,
                  detail: str = "network") -> Chain:
        return ()

    def aggregate(self, device: str, prefix: object, time: float,
                  base: Chain, detail: str) -> Chain:
        return ()

    def extend(self, chain: Chain, action: str, device: str, time: float,
               detail: str = "", peer: str = "") -> Chain:
        return ()

    @staticmethod
    def hop(action: str, device: str, time: float,
            detail: str = "", peer: str = "") -> None:
        return None

    def append(self, chain: Chain, hop: object) -> Chain:
        return ()


NULL_PROVENANCE = NullProvenance()
