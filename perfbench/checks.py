"""Output checks; a job whose checks fail counts as a failed run.

Each check returns ``(name, ok, detail)``. Golden SHA-256 hashes were
recorded for the default seed at full size; other seeds and smoke sizes
are checked through invariants only.
"""

import hashlib
import json
import os

import numpy as np

TOL = 1e-12  # criterion-2 tolerance of the package's acceptance tests
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _check(name, ok, detail=""):
    return (name, bool(ok), detail)


def golden(spec):
    with open(GOLDEN_PATH) as fh:
        want = json.load(fh)[spec["workload"]]
    out = []
    for suffix in spec["outputs"]:
        got = sha256(spec["out"] + suffix)
        out.append(_check(f"golden{suffix}", got == want[suffix], got))
    return out


def _read_rows(path, skip):
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")][skip:]
    return np.array("".join(lines).replace(",", " ").split(), dtype=np.int64).reshape(-1, 2)


def graph_outputs(spec):
    """Edge-list and histogram invariants of one generated graph."""
    m0, m, t = spec["m0"], spec["m"], spec["t"]
    n = m0 + t
    edges = _read_rows(spec["out"] + ".edges", 0)
    hist = _read_rows(spec["out"] + ".hist.csv", 1)  # after the 'k,count' line
    # signed labels -m0..-1, 1..t -> indices 0..n-1
    idx = np.where(edges < 0, edges + m0, edges + m0 - 1)
    in_range = bool(((edges >= -m0) & (edges <= t) & (edges != 0)).all())
    degree = np.bincount(idx.ravel(), minlength=n) if in_range else np.zeros(n, np.int64)
    pairs = np.sort(idx, axis=1)
    want_hist = np.bincount(degree)
    got_hist = np.zeros(max(len(want_hist), int(hist[:, 0].max()) + 1), np.int64)
    got_hist[hist[:, 0]] = hist[:, 1]
    return [
        _check("edge_count", len(edges) == m0 * (m0 - 1) // 2 + m * t, str(len(edges))),
        _check("labels_in_range", in_range),
        _check("vertex_count", len(degree) == n and bool((degree > 0).all())),
        _check("degree_sum", int(degree.sum()) == 2 * len(edges)),
        _check("no_self_loops", bool((pairs[:, 0] != pairs[:, 1]).all())),
        _check("no_parallel_edges", len(np.unique(pairs, axis=0)) == len(pairs)),
        _check("hist_total", int(hist[:, 1].sum()) == n),
        _check("hist_matches_edges", np.array_equal(got_hist[: len(want_hist)], want_hist)
               and not got_hist[len(want_hist):].any()),
    ]


def exact_law(spec, dist, law, normal, overflow, pmt):
    """Tolerance checks of the network law, first passage and closed form."""
    m0, m, t = spec["m0"], spec["m"], spec["t"]
    api = spec["api"]
    want_mean = (m0 * (m0 - 1) + 2 * m * t) / (t + m0)
    gap_normal = float(np.abs(normal - law.table[:, api["k_normal"]]).max())
    gap_overflow = float(np.abs(overflow - law.table[:, api["k_overflow"]]).max())
    return [
        _check("law_sums_to_one", abs(dist.probs_full.sum() - 1.0) <= TOL),
        _check("mean_degree", abs(dist.mean_degree - want_mean) <= TOL),
        _check("closed_form_pmt", abs(pmt - dist.probs_full[m]) <= TOL,
               f"{abs(pmt - dist.probs_full[m]):.3g}"),
        _check("passage_normal", gap_normal <= TOL, f"{gap_normal:.3g}"),
        _check("passage_overflow", gap_overflow <= TOL, f"{gap_overflow:.3g}"),
    ]


def compare_report(spec):
    with open(spec["out"] + ".report.json") as fh:
        return [_check("report_pass", json.load(fh)["pass"] is True)]


def same_bytes(name, a, b):
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return _check(name, fa.read() == fb.read())
