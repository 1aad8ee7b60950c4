"""The three benchmark workloads, each one job as a user runs it.

A job is one `bagrowth` CLI command (and, for exact-law, the public-API
first-passage cross-check that follows it). ``job_spec`` turns a
workload name, seed and output base into the JSON the job process reads.
Smoke sizes are tiny versions of the same jobs, for the benchmark's own
tests.
"""

DEFAULT_SEED = 1
WORKLOADS = ("generate-hk", "exact-law", "compare-ensemble")

# Per workload: sizes for the real run and for smoke mode. Real sizes keep a
# job at 2-4 s, so that a run averages over ten or more jobs. The sequential
# growth scheme has no workload: with three workloads a run can last 46 s,
# which the shared host's speed swings need.
SIZES = {
    "generate-hk": ({"t": 30_000}, {"t": 3_000}),
    # t: network law; tv: per-vertex law of vertex 1; k_normal / k_overflow:
    # first-passage degrees on either side of passage_curve's overflow switch,
    # which needs (k/2) ln(tv/k) > 600, so tv of about 3300 or more.
    "exact-law": ({"t": 10_000, "tv": 3_700, "k_normal": 300, "k_overflow": 2_000},
                  {"t": 1_000, "tv": 3_700, "k_normal": 300, "k_overflow": 2_000}),
    "compare-ensemble": ({"t": 5_000, "replicates": 20}, {"t": 1_000, "replicates": 8}),
}
COMPARE_THREADS = 2


def job_spec(name, seed, out, smoke=False):
    """Everything the job process needs: CLI argv, outputs, unit of work."""
    size = SIZES[name][1 if smoke else 0]
    seed = str(seed % 2**64)
    spec = {"workload": name, "out": out, "workers": 0,
            # golden hashes exist for the default seed at full size, and only
            # for the seeded workloads
            "golden": not smoke and seed == str(DEFAULT_SEED) and name != "exact-law"}
    if name == "generate-hk":
        m0, m = 3, 2
        spec["argv"] = ["generate", "--m0", str(m0), "--m", str(m), "--t", str(size["t"]),
                        "--seed", seed, "--out", out]
        spec.update(m0=m0, m=m, t=size["t"], outputs=[".edges", ".hist.csv"],
                    items=m * size["t"], items_unit="edges grown")
    elif name == "exact-law":
        spec["argv"] = ["exact", "--m", "1", "--m0", "3", "--t", str(size["t"]),
                        "--out", out + ".csv"]
        spec.update(m0=3, m=1, t=size["t"], outputs=[".csv"], api=size,
                    # the network roll plus the per-vertex roll of vertex 1
                    items=size["t"] + size["tv"] - 1, items_unit="law time-steps rolled")
    elif name == "compare-ensemble":
        spec["argv"] = ["compare", "--m0", "3", "--m", "1", "--t", str(size["t"]),
                        "--replicates", str(size["replicates"]),
                        "--threads", str(COMPARE_THREADS), "--seed", seed, "--out", out]
        spec.update(m0=3, m=1, t=size["t"], outputs=[".stats.csv", ".report.json"],
                    items=size["replicates"], items_unit="replicates",
                    workers=COMPARE_THREADS)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return spec
