"""Fast paths change wall-clock time, never state (pinned seed).

Builds the Fig. 1 lab twice — once with the wall-clock fast paths on
(attribute interning, route-map caching, export memoization) and once
with them off, the same switches ``REPRO_NO_FASTPATH=1`` flips — and
asserts every observable artifact is byte-identical: FIB snapshots, the
provenance network dump, and rendered netscope output.  Runs with both
vendor-profile assignments so both aggregation quirk paths (inherit-best
and reset-path) are covered on each side of the toggle.

The GC policy (:mod:`repro.sim.gcpolicy`) gets the same treatment with
its scopes replaced by null context managers: it has no kill switch in
``src/`` because this row shows there is nothing for one to change
(``tests/sim/test_gcpolicy.py`` does the same for the warm path:
snapshot payloads, FIB renders and verdicts).
"""

import json
import os
from contextlib import contextmanager, nullcontext

import pytest

from repro.firmware.bgp.daemon import BgpDaemon
from repro.firmware.bgp.messages import PathAttributes
from repro.firmware.bgp.policy import PolicyContext
from repro.provenance.dump import dump_json
from repro.sim import gcpolicy
from repro.tools.netscope import main as netscope

from .conftest import P3, build_fig1

VENDOR_ORDERS = [("ctnr-a", "ctnr-b"), ("ctnr-b", "ctnr-a")]


@contextmanager
def fastpaths_disabled():
    saved = (PathAttributes.interning, PolicyContext.caching,
             BgpDaemon.export_caching)
    PathAttributes.interning = False
    PolicyContext.caching = False
    BgpDaemon.export_caching = False
    try:
        yield
    finally:
        (PathAttributes.interning, PolicyContext.caching,
         BgpDaemon.export_caching) = saved
        PathAttributes.clear_intern_table()


def snapshot(vendor_r6: str, vendor_r7: str):
    """Converge one lab and freeze its externally-visible state."""
    lab = build_fig1(vendor_r6, vendor_r7)
    fibs = json.dumps({name: lab.routes(name) for name in sorted(lab.routers)},
                      sort_keys=True)
    return fibs, dump_json(lab)


@pytest.fixture(scope="module", params=VENDOR_ORDERS,
                ids=["r6=ctnr-a", "r6=ctnr-b"])
def on_off(request):
    vendor_r6, vendor_r7 = request.param
    on = snapshot(vendor_r6, vendor_r7)
    with fastpaths_disabled():
        off = snapshot(vendor_r6, vendor_r7)
    return on, off


@pytest.mark.skipif(os.environ.get("REPRO_NO_FASTPATH") == "1",
                    reason="fast paths globally disabled; both sides off")
def test_fastpath_toggles_are_live(on_off):
    # The fixture round-trips the switches; here they must be back on,
    # otherwise the "on" side of the comparison measured nothing.
    assert PathAttributes.interning
    assert PolicyContext.caching
    assert BgpDaemon.export_caching


def test_fib_snapshots_byte_identical(on_off):
    on, off = on_off
    assert on[0] == off[0]


def test_provenance_dumps_byte_identical(on_off):
    on, off = on_off
    assert on[1] == off[1]


def explained(dump: str, path, capsys) -> list:
    """``netscope explain`` of the aggregate on the three routers that
    see it, rendered from ``dump``."""
    path.write_text(dump)
    outputs = []
    for device in ("r6", "r7", "r8"):
        assert netscope(["explain", str(path), device, P3]) == 0
        outputs.append(capsys.readouterr().out)
    return outputs


def test_netscope_explain_byte_identical(on_off, tmp_path, capsys):
    (_, on), (_, off) = on_off
    assert (explained(on, tmp_path / "on.json", capsys)
            == explained(off, tmp_path / "off.json", capsys))


@pytest.mark.parametrize("vendors", VENDOR_ORDERS,
                         ids=["r6=ctnr-a", "r6=ctnr-b"])
def test_gc_scope_changes_no_state(vendors, monkeypatch, tmp_path, capsys):
    scoped = snapshot(*vendors)
    monkeypatch.setattr(gcpolicy, "bulk_phase", nullcontext)
    monkeypatch.setattr(gcpolicy, "collector_stopped", nullcontext)
    bare = snapshot(*vendors)
    assert scoped == bare                   # FIBs and provenance dump
    assert (explained(scoped[1], tmp_path / "scoped.json", capsys)
            == explained(bare[1], tmp_path / "bare.json", capsys))
