"""Every file bagrowth writes, in one format.

CSV files start with an optional header line, ``# bagrowth=<version>
key=value ...`` (see ``header``), then a line of column names; a float
cell is written ``%.12g`` and any other cell with ``str``. JSON files
are indented by 2, carry a ``bagrowth`` version key and end with a
newline.
"""

import json

import numpy as np

from . import __version__
from .chain import MixtureDistribution, padded
from .ensemble import EnsembleStats, FitReport
from .graph import GraphState, degree_histogram
from .limits import steady_state

EDGE_BLOCK = 4096  # edges labelled and formatted per write


def header(**kv) -> str:
    """The first line of a CSV file: the package version, then key=value pairs."""
    parts = [f"bagrowth={__version__}"] + [f"{k}={v}" for k, v in kv.items()]
    return "# " + " ".join(parts)


def _cell(v) -> str:
    return f"{v:.12g}" if isinstance(v, float) else str(v)


def write_csv(path, columns, rows, header: str = "") -> None:
    """Write `rows` under the column line, after `header` when it is given."""
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def write_json(path, obj) -> None:
    """Write obj as strict JSON: a nan or infinite number raises ValueError."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, allow_nan=False)
        fh.write("\n")


def write_edge_list(state: GraphState, path, header: str = "") -> None:
    """One edge per line, 'u v' with signed labels, insertion order."""
    lab = state.labels()
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        for lo in range(0, len(state.edges), EDGE_BLOCK):  # no labelled copy of all edges
            flat = lab[state.edges[lo:lo + EDGE_BLOCK]].ravel().tolist()
            fh.write(("%d %d\n" * (len(flat) // 2)) % tuple(flat))


def write_degree_histogram(state: GraphState, path, header: str = "") -> None:
    """CSV 'k,count' over the degrees that occur."""
    write_csv(path, ("k", "count"), sorted(degree_histogram(state).items()), header)


def _distribution_columns(dist: MixtureDistribution) -> dict:
    """The law's columns by name over dist.k, beside the steady state at the law's m."""
    pa = np.array([steady_state(int(k), dist.params.m) for k in dist.k])
    return {"k": dist.k, "p_exact": dist.probs, "p_analytic": pa,
            "abs_gap": np.abs(dist.probs - pa)}


def write_distribution_csv(dist: MixtureDistribution, path, header: str = "") -> dict:
    """CSV 'k,p_exact,p_analytic,abs_gap', p_analytic the steady state. Returns the columns."""
    cols = _distribution_columns(dist)
    write_csv(path, cols, zip(*(col.tolist() for col in cols.values())), header)
    return cols


def write_distribution_json(dist: MixtureDistribution, path) -> dict:
    """The law's columns, (m, m0, t) and tail as JSON; returns the columns."""
    cols = _distribution_columns(dist)
    write_json(path, {"m": dist.params.m, "m0": dist.params.m0, "t": dist.time,
                      **{name: col.tolist() for name, col in cols.items()},
                      "tail": dist.tail, "bagrowth": __version__})
    return cols


def write_steady_csv(m: int, k_max: int, path, header: str = "") -> None:
    """CSV 'k,p,ratio_to_prev' for k = m..k_max."""
    p = [steady_state(k, m) for k in range(m, k_max + 1)]
    ratio = [""] + [b / a for a, b in zip(p, p[1:])]
    write_csv(path, ("k", "p", "ratio_to_prev"), zip(range(m, k_max + 1), p, ratio),
              header)


def write_steady_json(m: int, k_max: int, path) -> None:
    ks = range(m, k_max + 1)
    write_json(path, {"bagrowth": __version__, "m": m, "k": list(ks),
                      "p": [steady_state(k, m) for k in ks]})


def write_stats_csv(stats: EnsembleStats, exact: MixtureDistribution, path,
                    header: str = "") -> None:
    """CSV 'k,count,freq,se,p_exact,p_limit' over the window of the ensemble's law."""
    m, n = stats.config.m, exact.k_max + 1
    stats.check_law(exact)
    counts, freq, se = (padded(x, n) for x in (stats.counts, stats.freq, stats.se))
    rows = [(k, int(counts[k]), float(freq[k]), float(se[k]), p, steady_state(k, m))
            for k, p in zip(exact.k.tolist(), exact.probs.tolist())]
    write_csv(path, ("k", "count", "freq", "se", "p_exact", "p_limit"), rows, header)


def write_report_json(report: FitReport, path, meta: dict | None = None) -> None:
    """The fit report's fields, the version, then `meta`'s extra fields."""
    write_json(path, {**report.as_dict(), "bagrowth": __version__, **(meta or {})})

