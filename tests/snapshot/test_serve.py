"""``repro.serve``: queue semantics and inline/pool verdict identity.

The server's contract: verdict *content* is a pure function of
(snapshot, delta) — execution mode (inline vs. worker pool) and
completion order may change wall-clock ``timing`` but never the
deterministic ``report`` core — and admission control pushes back
instead of queueing unboundedly.
"""

import gc
import json

import pytest

from repro.campaign import CampaignConfig, ScenarioEvaluator
from repro.serve import AdmissionError, ServeError, WhatIfServer
from repro.snapshot import LinkCut, PolicyEdit
from repro.virt.cloud import CloudError

from .conftest import policy_edit_text, spine_link


@pytest.fixture()
def deltas(warm_lab):
    mix, net, snap = warm_lab
    return [
        LinkCut(*spine_link(net)),
        PolicyEdit("tor-0-0", policy_edit_text(net, "tor-0-0")),
    ]


def test_inline_drain_returns_ticket_ordered_verdicts(warm_lab, deltas):
    mix, net, snap = warm_lab
    with WhatIfServer(snap) as server:
        tickets = [server.submit(d) for d in deltas]
        assert tickets == [0, 1]
        assert server.pending == 2
        verdicts = server.drain()
        assert server.pending == 0
    assert [v["ticket"] for v in verdicts] == tickets
    for verdict, delta in zip(verdicts, deltas):
        assert verdict["kind"] == "whatif-verdict"
        assert verdict["snapshot"]["emulation_id"] == snap.emulation_id
        assert verdict["report"]["delta"] == delta.describe()
        assert verdict["report"]["converged"] is True
        assert verdict["report"]["fibdiff"]["changed_entries"] > 0


def test_pool_reports_match_inline(warm_lab, deltas):
    """Same snapshot, same deltas: a 2-worker pool must return the exact
    deterministic reports the inline mode computes (timing aside)."""
    mix, net, snap = warm_lab
    with WhatIfServer(snap) as inline:
        for d in deltas:
            inline.submit(d)
        expected = [v["report"] for v in inline.drain()]
    with WhatIfServer(snap, workers=2) as pool:
        for d in deltas:
            pool.submit(d)
        verdicts = pool.drain()
    assert [v["ticket"] for v in verdicts] == [0, 1]
    assert [v["report"] for v in verdicts] == expected


def test_admission_control_pushes_back(warm_lab, deltas):
    mix, net, snap = warm_lab
    server = WhatIfServer(snap, max_pending=1)
    try:
        server.submit(deltas[0])
        with pytest.raises(AdmissionError):
            server.submit(deltas[1])
        # Draining frees the slot.
        server.drain()
        server.submit(deltas[1])
    finally:
        server.close()


def test_submit_after_close_raises(warm_lab, deltas):
    mix, net, snap = warm_lab
    server = WhatIfServer(snap)
    server.close()
    with pytest.raises(ServeError):
        server.submit(deltas[0])


def test_max_pending_must_be_positive(warm_lab):
    mix, net, snap = warm_lab
    with pytest.raises(ValueError):
        WhatIfServer(snap, max_pending=0)


def _materialized_server(snap):
    server = WhatIfServer(snap)
    server.materialize()
    return server


def _materialized_evaluator(snap):
    evaluator = ScenarioEvaluator(snap, CampaignConfig())
    evaluator._materialize()
    return evaluator


@pytest.mark.parametrize("opened, site", [
    (_materialized_server, "whatif-close"),
    (_materialized_evaluator, "campaign-close")])
def test_close_records_a_failing_teardown(warm_lab, opened, site,
                                          monkeypatch, tmp_path):
    """``close()`` finishes its own cleanup when the image's teardown
    fails, and leaves the failure where an operator can find it."""
    mix, net, snap = warm_lab
    monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
    holder = opened(snap)
    image = holder._net

    def refuse():
        raise CloudError("unknown VM vm-0")
    image.destroy = refuse
    holder.close()
    assert holder._net is None
    assert gc.get_freeze_count() == 0            # the hold was released
    assert image.obs.metrics.value(
        "repro_swallowed_errors_total",
        device=image.emulation_id, site=site) == 1
    with open(tmp_path / f"flight-{site}-destroy-failed.json") as fh:
        notes = [entry for shard in json.load(fh)["shards"]
                 for entry in shard["entries"]
                 if entry["kind"] == "swallowed-error"]
    assert notes[-1]["detail"]["site"] == site
    assert "CloudError" in notes[-1]["detail"]["traceback"]
