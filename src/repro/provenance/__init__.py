"""repro.provenance — observability of the *emulated network*.

Where :mod:`repro.obs` watches the emulator (spans, metrics, events),
this package watches the network being emulated: causal provenance
chains on every route (:mod:`~repro.provenance.chain`), a
delta-compressed network-wide RIB/FIB timeline with diff/divergence/
blame queries (:mod:`~repro.provenance.timeline`), and the deterministic
export format the ``netscope`` CLI renders
(:mod:`~repro.provenance.dump`).
"""

from .chain import (
    NULL_PROVENANCE,
    Chain,
    Hop,
    NullProvenance,
    ProvenanceTracker,
    chain_to_dicts,
    hops,
    origin_ref,
)
from .dump import explain_prefix, network_dump
from .timeline import BlastRadius, StateTimeline, TimelineRecord

__all__ = [
    "BlastRadius",
    "Chain",
    "Hop",
    "NULL_PROVENANCE",
    "NullProvenance",
    "ProvenanceTracker",
    "StateTimeline",
    "TimelineRecord",
    "chain_to_dicts",
    "explain_prefix",
    "hops",
    "network_dump",
    "origin_ref",
]
