"""Byte identity of every output file the package writes.

The digests pin the exact bytes of each format (header line, column
layout, float formatting, JSON indentation); they were recorded with
Python 3.11 and NumPy 2.4. A change to any writer that alters one byte
fails here.
"""

import ast
import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

import bagrowth
from bagrowth.cli import main
from bagrowth.output import write_json

DIGESTS = [
    (["generate", "--m0", "3", "--m", "2", "--t", "3000", "--seed", "1"], {
        ".edges": "d81cf5175165d885664c05e0c5da14ee19faa7741a372c876df34b862e2fdcff",
        ".hist.csv": "8d16c63a2de23228fa06fa2bd96a06decf204cdecb9b60707e7ad8015623c567",
    }),
    (["generate", "--m0", "5", "--m", "2", "--t", "500", "--seed", "3",
      "--scheme", "sequential"], {
        ".edges": "0fc734295d48eb36f05dae47750f0417b7e3a774cb86a5c2587503f46cc7f8e9",
        ".hist.csv": "ca7b6149dae223fad2929035ca9378fa63309aedb67aadd612cb9fc6a505fb7c",
    }),
    (["exact", "--m", "1", "--m0", "3", "--t", "2000"], {
        "": "6c0160f38373cf9a6fa074b928c9423abef28fe545c4c63f7496fbaa97d1178b",
    }),
    (["exact", "--m", "2", "--m0", "5", "--t", "300", "--format", "json"], {
        "": "017ca82f6e3e6302520985cf21e6d7c4ab23bd4bc0803cf793d736f55cb74f7a",
    }),
    (["steady", "--m", "2", "--k-max", "60"], {
        "": "1b94fc2429b57a02fa4b2e25b9eec90a95bb49f86abcd6b96b83a66db1a32027",
    }),
    (["steady", "--m", "1", "--k-max", "40", "--format", "json"], {
        "": "e4c1f3bf75154c7799eaf84103458907e83fdd74260065b0db7fa8186483c68a",
    }),
    (["compare", "--m0", "3", "--m", "1", "--t", "1000", "--replicates", "8",
      "--seed", "5"], {
        ".stats.csv": "6f3cf29fdd7b5b044c19f4afc7d1649edc8c0f08352869a73f715a8487369d05",
        ".report.json": "55ab26f356e63a6acac50314f4e034a047537ec4e603cfd747855fc9264e6e96",
    }),
    (["compare", "--m0", "3", "--m", "2", "--t", "300", "--replicates", "4",
      "--seed", "2"], {
        ".stats.csv": "2f01cbe88fb32e33b0b2bcbf850be6dc8e7b741a7d083372c40f396c91b506ab",
        ".report.json": "cce86b5018a8b0d9fc93ab455db3ba4a543ac57534b122241d57ec085b1b6407",
    }),
    (["compare", "--m0", "4", "--m", "2", "--t", "2000", "--replicates", "6",
      "--seed", "7", "--scheme", "sequential"], {
        ".stats.csv": "2078dc8936e3766a4979b366875d5a1aa7b04b61ada7cccbe90cf974a135ac35",
        ".report.json": "89ef9fe0e2bde27fba09b827d346f35afbad9fc100b6c6ed800f35795893ebd3",
    }),
    # the law's cap, 2264, sits far below its top degree, 20002
    (["compare", "--m0", "3", "--m", "1", "--t", "20000", "--replicates", "4",
      "--seed", "11"], {
        ".stats.csv": "809367cf6c2768f5d27450a689929b7d272ab7ed8fc8505679feeb991411317f",
        ".report.json": "07295a223cdbeea04e992ad7438bbee15652e22815af1c05743deee3de13e18c",
    }),
]
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("argv,digests", DIGESTS, ids=[" ".join(a) for a, _ in DIGESTS])
def test_cli_output_bytes(tmp_path, argv, digests):
    out = str(tmp_path / "out")
    assert main(argv + ["--out", out]) == 0
    assert {sfx: _sha256(out + sfx) for sfx in digests} == digests


@pytest.mark.parametrize("workload", ["compare-ensemble", "generate-hk"])
def test_bench_jobs_match_their_golden_digests(tmp_path, workload):
    # the benchmark's own job (argv from perfbench/workloads.py, seed 1, full
    # size) must write the files whose digests perfbench/golden.json holds
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    job = workloads.job_spec(workload, workloads.DEFAULT_SEED, str(tmp_path / "out"))
    golden = json.loads((PERFBENCH / "golden.json").read_text())[workload]
    assert main(job["argv"]) == 0
    assert {sfx: _sha256(job["out"] + sfx) for sfx in job["outputs"]} == golden


@pytest.mark.parametrize("module", ["graph", "chain", "limits", "ensemble", "_kernels"])
def test_computation_modules_write_no_files(module):
    tree = ast.parse((Path(bagrowth.__file__).parent / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            assert node.func.id != "open", f"{module}.py:{node.lineno} calls open"
        if isinstance(node, ast.Import):
            assert "json" not in [a.name for a in node.names], f"{module}.py imports json"
        if isinstance(node, ast.ImportFrom):
            assert node.module != "json", f"{module}.py imports from json"


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so the package checks with explicit raises
    for path in sorted(Path(bagrowth.__file__).parent.glob("*.py")):
        lines = [n.lineno for n in ast.walk(ast.parse(path.read_text()))
                 if isinstance(n, ast.Assert)]
        assert not lines, f"{path.name} has assert statements at lines {lines}"


@pytest.mark.parametrize("x", [float("nan"), float("inf"), -float("inf")])
def test_write_json_refuses_non_finite_numbers(tmp_path, x):
    with pytest.raises(ValueError):
        write_json(tmp_path / "x.json", {"x": x})
