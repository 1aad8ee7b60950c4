"""Tests of the benchmark itself, at smoke sizes (about a minute on 2 cores).

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the package's default test collection.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import PER_LAYER  # noqa: E402
from spans import nesting_errors, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def smoke(workload, trace, save):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke", "--save", str(save))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per workload: one untraced and two traced smoke runs, with saved records."""
    out = {}
    for w in WORKLOADS:
        saves = [tmp_path_factory.mktemp(w) / "rec.json" for _ in range(2)]
        out[w] = {"plain": smoke(w, 0, saves[0]),
                  "traced": [smoke(w, 1, s) for s in saves],
                  "records": [json.loads(s.read_text())[f"{w}/trace1"] for s in saves]}
    return out


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_every_declared_metric_is_emitted_with_its_unit(runs):
    spec = declared()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w, r in runs.items():
        for key, res in (("end_to_end", r["plain"]), ("per_layer", r["traced"][0])):
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, w
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            assert got == {m["name"]: m["unit"] for m in spec[key]}, (w, key)
    assert {m["name"] for m in spec["per_layer"]} == set(PER_LAYER)


def test_traced_spans_nest(runs):
    for w, r in runs.items():
        for rec in r["records"]:
            assert ["span_nesting", True, ""] in rec["checks"], w


def test_computed_counts_repeat_exactly(runs):
    for w, r in runs.items():
        a, b = (rec["metrics"] for rec in r["records"])
        for name in r["records"][0]["computed"]:
            assert a[name]["value"] == b[name]["value"], (w, name)


def test_traced_structure(runs):
    calls = {w: r["traced"][0]["metrics"] for w, r in runs.items()}
    roll = {w: m["kernels.mixture_roll_calls"]["value"] for w, m in calls.items()}
    assert roll == {"generate-hk": 0, "exact-law": 1, "compare-ensemble": 2}
    assert calls["exact-law"]["kernels.grow_calls"]["value"] == 0
    assert calls["compare-ensemble"]["kernels.grow_calls"]["value"] == 8  # smoke replicates
    ex = calls["exact-law"]
    assert ex["chain.passage_curve_overflow_s"]["value"] >= \
        100 * ex["chain.passage_curve_normal_s"]["value"] > 0


def test_refuses_without_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        ".work", "__pycache__"))
    proc = bench("--workload", "exact-law", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_union_of_children():
    spans = [
        {"id": "p", "parent": None, "name": "p", "start": 0.0, "end": 10.0},
        # two parallel children overlapping on [2, 3]
        {"id": "a", "parent": "p", "name": "a", "start": 1.0, "end": 3.0},
        {"id": "b", "parent": "p", "name": "b", "start": 2.0, "end": 5.0},
        {"id": "c", "parent": "b", "name": "c", "start": 2.5, "end": 4.0},
    ]
    assert self_times(spans) == {"p": 6.0, "a": 2.0, "b": 1.5, "c": 1.5}
    assert nesting_errors(spans) == []
    spans[3]["end"] = 6.0
    assert nesting_errors(spans) == ["c: outside parent b"]


def test_compare_refuses_another_kernel_path(tmp_path):
    with open(os.path.join(HERE, "baseline.json")) as fh:
        records = json.load(fh)
    for rec in records.values():
        rec["env"].update(kernel_path="numba", numba_enabled=True)
    other = tmp_path / "numba.json"
    other.write_text(json.dumps(records))
    proc = subprocess.run([sys.executable, "perfbench/compare.py", "perfbench/baseline.json",
                           str(other)], cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "kernel path differs" in proc.stderr
