"""Smoke test for the benchmark itself (``python -m pytest bench -q``).

Outside tier-1's ``testpaths`` on purpose: it runs every workload, in
``--quick`` sizing, untraced and traced, in well under a minute.  Quick
numbers are never measurements; this only proves the plumbing — every
metric ``BENCHMARK.json`` names comes out with its unit, tracing leaves
the simulation untouched and attributes the wall, and ``compare.py``
reads what ``run.py`` writes.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def run_bench(*args):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def quick_sets(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    first, second = str(out / "first.json"), str(out / "second.json")
    both = run_bench("--out", first, "--trace-out", str(out / "spans.json"))
    assert both.returncode == 0, both.stderr
    again = run_bench("--trace", "0", "--out", second)
    assert again.returncode == 0, again.stderr
    with open(first) as fh:
        return first, second, json.load(fh), both.stdout


def test_contract_is_well_formed(contract):
    assert contract["paths"] == ["bench"]
    assert contract["command"] == ["python3", "bench/run.py"]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in contract[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])


def test_every_declared_metric_is_emitted(contract, quick_sets):
    _, _, doc, stdout = quick_sets
    assert doc["fingerprint"]["nproc"] >= 1
    workloads = {w["name"] for w in contract["workloads"]}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in contract[key]}
        runs = [r for r in doc["runs"] if r["trace"] == trace]
        assert {r["workload"] for r in runs} == workloads
        for run in runs:
            got = run["result"]["metrics"]
            assert {n: m["unit"] for n, m in got.items()} == want
            assert run["result"]["correct"], run["checks"]
            assert run["failed"] == 0
    last = json.loads(stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True


def test_tracing_attributes_the_wall_and_changes_nothing(quick_sets):
    _, _, doc, stdout = quick_sets
    assert "MISMATCH" not in stdout
    for run in doc["runs"]:
        if run["trace"]:
            metrics = run["result"]["metrics"]
            assert metrics["trace.attributed_share"]["value"] >= 0.85
            layers = sum(m["value"] for n, m in metrics.items()
                         if n.endswith(".self_s"))
            assert layers == pytest.approx(
                metrics["trace.wall_s"]["value"], rel=0.02)


def test_compare_reads_two_quick_sets(quick_sets):
    first, second, _, _ = quick_sets
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "compare.py"), first, second],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 worse, 0 flagged" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark there is nothing to
    measure: exit non-zero, print no result."""
    (tmp_path / "bench").mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (tmp_path / "bench" / name).write_text(
                open(os.path.join(HERE, name)).read())
    (tmp_path / "BENCHMARK.json").write_text(
        open(os.path.join(ROOT, "BENCHMARK.json")).read())
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload",
         "whatif-mdc", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
