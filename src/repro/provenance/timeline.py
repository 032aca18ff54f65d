"""StateTimeline: sim-clock-indexed, delta-compressed RIB/FIB history.

Records network-wide forwarding snapshots as they evolve and answers the
questions an operator asks after an incident: what changed between t1 and
t2 (:meth:`StateTimeline.diff`), does the network still match a golden
snapshot (:meth:`divergence`), and — combined with the fault provenance
ids the chaos engine mints — which prefixes one injected fault churned
and when each device re-converged (:meth:`blame`).

Storage is delta-compressed: each :meth:`record` stores only the entries
added/removed/changed since the previous record (the first record is the
full snapshot, being a delta from the empty network).  Reconstruction
replays deltas up to a time bound, so a multi-hour chaos soak with mostly
quiet intervals stays small.

Exports are deterministic (sim times, sorted keys) and round-trip through
:meth:`to_dict` / :meth:`from_dict` so the ``netscope diff``/``blame``
CLI can operate on a saved artifact offline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..firmware.fib import device_memo
from ..obs import NULL_OBS
from ..verify.fibdiff import FibComparator, FibDifference, RawFib

__all__ = ["StateTimeline", "TimelineRecord", "BlastRadius"]

# One device's state at one instant: {"fib": {prefix: sorted hop list},
# "rib": {prefix: as-path list}}.
DeviceState = Dict[str, Dict[str, list]]
NetworkState = Dict[str, DeviceState]


@dataclass
class TimelineRecord:
    """One delta-compressed timeline entry."""

    time: float
    label: str
    # device -> {"set": {table: {prefix: value}}, "del": {table: [prefix]}}
    delta: Dict[str, dict]

    @property
    def touched(self) -> Dict[str, List[str]]:
        """Device -> sorted prefixes whose FIB changed in this record."""
        out: Dict[str, List[str]] = {}
        for device, change in self.delta.items():
            prefixes = set(change.get("set", {}).get("fib", ()))
            prefixes.update(change.get("del", {}).get("fib", ()))
            if prefixes:
                out[device] = sorted(prefixes)
        return out

    def to_dict(self) -> dict:
        return {"time": self.time, "label": self.label, "delta": self.delta}


@dataclass(frozen=True)
class BlastRadius:
    """Fault attribution: what one injected fault did to the network."""

    fault_ref: str                       # the fault's provenance id
    start: float
    end: float
    churned: Dict[str, Tuple[str, ...]]  # device -> churned FIB prefixes
    converged_at: Dict[str, float]       # device -> last FIB change time

    @property
    def churned_prefix_count(self) -> int:
        return sum(len(p) for p in self.churned.values())

    def to_dict(self) -> dict:
        return {
            "fault": self.fault_ref,
            "window": {"start": self.start, "end": self.end},
            "devices": len(self.churned),
            "churned_prefixes": self.churned_prefix_count,
            "churned": {d: list(p) for d, p in sorted(self.churned.items())},
            "converged_at": dict(sorted(self.converged_at.items())),
        }


def _zero_clock() -> float:
    """Default clock for detached timelines (picklable, unlike a lambda)."""
    return 0.0


class StateTimeline:
    """Delta-compressed recorder of network-wide RIB/FIB state."""

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 obs=NULL_OBS):
        self.clock = clock or _zero_clock
        self.obs = obs
        self.records: List[TimelineRecord] = []
        self._current: NetworkState = {}
        self.golden: Optional[Dict[str, RawFib]] = None
        self._m_records = obs.metrics.counter(
            "repro_timeline_records_total",
            "Timeline records committed").labels()
        self._m_changes = obs.metrics.counter(
            "repro_timeline_entry_changes_total",
            "Per-entry timeline deltas recorded").labels()
        self._g_prefixes = obs.metrics.gauge(
            "repro_timeline_tracked_entries",
            "RIB+FIB entries in the latest snapshot").labels()

    # -- recording ---------------------------------------------------------

    @staticmethod
    def state_of(device_states: Dict[str, dict],
                 memo: Optional[Dict[str, dict]] = None) -> NetworkState:
        """Shape ``pull_states``-style output into timeline state.

        Accepts ``{device: {"fib": [(prefix, [hops])], "bgp":
        {"loc_rib": {prefix: [as_path, ...]}}}}`` (extra keys ignored).
        With the caller-owned per-device ``memo`` that produced the
        documents (``CrystalNet.pull_states(memo=...)``), a device whose
        FIB and Loc-RIB renders are the *same objects* as at its last
        shaping gets its previous shaped state back, unbuilt.
        """
        out: NetworkState = {}
        for device, states in device_states.items():
            fib_in = states.get("fib", ())
            rib_in = (states.get("bgp", {}) or {}).get("loc_rib", {})
            slot = device_memo(memo, device)
            cached = None if slot is None else slot.get("shaped")
            if (cached is not None and cached[0] is fib_in
                    and cached[1] is rib_in):
                out[device] = cached[2]
                continue
            shaped = {"fib": {prefix: sorted(hops)
                              for prefix, hops in fib_in},
                      "rib": dict(rib_in)}
            if slot is not None:
                slot["shaped"] = (fib_in, rib_in, shaped)
            out[device] = shaped
        return out

    def record(self, label: str, device_states: Dict[str, dict],
               time: Optional[float] = None,
               memo: Optional[Dict[str, dict]] = None
               ) -> Optional[TimelineRecord]:
        """Commit a snapshot; returns the delta record (None if nothing
        changed and a record already exists).  ``memo``: see
        :meth:`state_of`."""
        state = self.state_of(device_states, memo)
        delta = self._delta(self._current, state)
        if not delta and self.records:
            return None
        record = TimelineRecord(
            time=self.clock() if time is None else time,
            label=label, delta=delta)
        self.records.append(record)
        self._current = state
        self._m_records.inc()
        changes = sum(len(prefixes)
                      for change in delta.values()
                      for tables in (change.get("set", {}),
                                     change.get("del", {}))
                      for prefixes in tables.values())
        self._m_changes.inc(changes)
        self._g_prefixes.set(sum(
            len(tables["fib"]) + len(tables["rib"])
            for tables in self._current.values()))
        self.obs.events.emit("timeline", subject=label,
                             records=len(self.records), changes=changes)
        return record

    @staticmethod
    def _delta(old: NetworkState, new: NetworkState) -> Dict[str, dict]:
        delta: Dict[str, dict] = {}
        for device in sorted(set(old) | set(new)):
            old_dev = old.get(device, {})
            new_dev = new.get(device, {})
            if old_dev is new_dev:
                continue    # reused shaped state: unchanged by identity
            sets: Dict[str, dict] = {}
            dels: Dict[str, list] = {}
            for table in ("fib", "rib"):
                old_t = old_dev.get(table, {})
                new_t = new_dev.get(table, {})
                added = {p: v for p, v in new_t.items()
                         if old_t.get(p) != v}
                removed = sorted(p for p in old_t if p not in new_t)
                if added:
                    sets[table] = dict(sorted(added.items()))
                if removed:
                    dels[table] = removed
            if sets or dels:
                change: Dict[str, dict] = {}
                if sets:
                    change["set"] = sets
                if dels:
                    change["del"] = dels
                delta[device] = change
        return delta

    # -- reconstruction ----------------------------------------------------

    def snapshot_at(self, time: Optional[float] = None) -> NetworkState:
        """Replay deltas up to (and including) ``time``; None = latest."""
        state: NetworkState = {}
        for record in self.records:
            if time is not None and record.time > time:
                break
            for device, change in record.delta.items():
                tables = state.setdefault(device, {"fib": {}, "rib": {}})
                for table, entries in change.get("set", {}).items():
                    tables[table].update(entries)
                for table, prefixes in change.get("del", {}).items():
                    for prefix in prefixes:
                        tables[table].pop(prefix, None)
        return state

    @staticmethod
    def _fibs(state: NetworkState) -> Dict[str, RawFib]:
        return {device: sorted(tables["fib"].items())
                for device, tables in state.items()}

    def fibs_at(self, time: Optional[float] = None) -> Dict[str, RawFib]:
        return self._fibs(self.snapshot_at(time))

    # -- queries -----------------------------------------------------------

    def diff(self, t1: float, t2: float,
             comparator: Optional[FibComparator] = None
             ) -> List[FibDifference]:
        """FIB differences between the states at two instants."""
        comparator = comparator or FibComparator()
        return comparator.diff(self.fibs_at(t1), self.fibs_at(t2))

    def set_golden(self, fibs: Optional[Dict[str, RawFib]] = None) -> None:
        """Pin the divergence baseline (default: the latest snapshot)."""
        self.golden = dict(fibs) if fibs is not None else self.fibs_at()

    def divergence(self, time: Optional[float] = None,
                   comparator: Optional[FibComparator] = None
                   ) -> List[FibDifference]:
        """Differences of the state at ``time`` against the golden
        snapshot (empty list when no golden is pinned or none diverge)."""
        if self.golden is None:
            return []
        comparator = comparator or FibComparator()
        return comparator.diff(self.golden, self.fibs_at(time))

    def churn(self, start: float, end: float) -> Dict[str, List[str]]:
        """Device -> FIB prefixes touched in the window (start, end]."""
        churned: Dict[str, set] = {}
        for record in self.records:
            if record.time <= start or record.time > end:
                continue
            for device, prefixes in record.touched.items():
                churned.setdefault(device, set()).update(prefixes)
        return {d: sorted(p) for d, p in sorted(churned.items())}

    def converged_at(self, start: float, end: float) -> Dict[str, float]:
        """Device -> time of its last FIB change in the window (the
        per-device convergence instant for a blast-radius report)."""
        latest: Dict[str, float] = {}
        for record in self.records:
            if record.time <= start or record.time > end:
                continue
            for device in record.touched:
                latest[device] = record.time
        return dict(sorted(latest.items()))

    def blame(self, fault_ref: str, start: float, end: float) -> BlastRadius:
        """Attribute the churn in a fault's settle window to its id."""
        churn = self.churn(start, end)
        return BlastRadius(
            fault_ref=fault_ref, start=start, end=end,
            churned={d: tuple(p) for d, p in churn.items()},
            converged_at=self.converged_at(start, end))

    # -- export ------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "records": [r.to_dict() for r in self.records],
            "golden": (None if self.golden is None else
                       {d: [[p, list(h)] for p, h in fib]
                        for d, fib in sorted(self.golden.items())}),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, doc: dict) -> "StateTimeline":
        timeline = cls()
        for raw in doc.get("records", ()):
            timeline.records.append(TimelineRecord(
                time=raw["time"], label=raw.get("label", ""),
                delta=raw.get("delta", {})))
        golden = doc.get("golden")
        if golden is not None:
            timeline.golden = {
                device: [(p, list(h)) for p, h in fib]
                for device, fib in golden.items()}
        timeline._current = timeline.snapshot_at()
        return timeline
