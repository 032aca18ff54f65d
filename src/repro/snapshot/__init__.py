"""``repro.snapshot`` — the warm-snapshot what-if engine.

Snapshot a converged mockup once (:func:`snapshot` / :func:`save`), then
:func:`fork` cheap clones per hypothetical change and reconverge
incrementally (:func:`apply_delta`) — O(state) per what-if query instead
of O(convergence).  :mod:`repro.serve` drains a queue of deltas through
forked workers on top of these primitives.
"""

from .cow import cow_call
from .deltas import (
    ConfigReload,
    Delta,
    LinkCut,
    LinkRestore,
    PolicyEdit,
    ReconvergenceReport,
    SessionReset,
    apply_delta,
    network_fibs,
)
from .state import (
    SNAPSHOT_KIND,
    Snapshot,
    SnapshotError,
    discard,
    fork,
    load,
    save,
    snapshot,
)

__all__ = [
    "ConfigReload",
    "Delta",
    "LinkCut",
    "LinkRestore",
    "PolicyEdit",
    "ReconvergenceReport",
    "SNAPSHOT_KIND",
    "SessionReset",
    "Snapshot",
    "SnapshotError",
    "apply_delta",
    "cow_call",
    "discard",
    "fork",
    "load",
    "network_fibs",
    "save",
    "snapshot",
]
