"""Render memos never ride on the net.

The chaos engine and invariant checker keep a caller-owned render memo
(FIB and Loc-RIB renders keyed by table identity and version).  If a
memo were ever parked on a ``DeviceOS`` or ``BgpDaemon`` instead, every
snapshot of a sampled net would pickle its renders — growing
``snapshot()`` payloads and the resident set of every long-lived donor.
Sampling a net must therefore leave its snapshot payload byte-identical
and add no attribute to any device or daemon.
"""

from repro.chaos import ChaosEngine
from repro.snapshot import snapshot

from .conftest import mockup_net


def _attribute_names(net):
    out = {}
    for name, record in net.devices.items():
        guest = record.guest
        bgp = getattr(guest, "bgp", None)
        out[name] = (sorted(vars(guest)),
                     sorted(vars(bgp)) if bgp is not None else None)
    return out


def test_sampling_leaves_snapshot_payload_and_attributes_unchanged():
    net = mockup_net("ctnr", seed=23, emulation_id="t-memo-hygiene")
    net.enable_timeline()
    net.record_timeline("baseline")
    # No health monitor: its live sweep process would block snapshot().
    engine = ChaosEngine(net, seed=23)
    records = len(net.timeline.records)
    before = snapshot(net).payload
    attributes = _attribute_names(net)

    engine.checker.snapshot_golden()
    for label in ("chaos-poll", "chaos-poll", "settled"):
        engine._sample(label)
    verdicts = engine.checker.check()

    assert all(v.passed for v in verdicts), verdicts
    assert engine.checker.memo, "the sampler should hold the renders"
    assert len(net.timeline.records) == records   # nothing changed
    assert snapshot(net).payload == before
    assert _attribute_names(net) == attributes
