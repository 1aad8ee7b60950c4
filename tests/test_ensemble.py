import json
import subprocess
import sys

import numpy as np
import pytest
from scipy import special
from scipy import stats as sps

import bagrowth as bg
from bagrowth import ensemble, output
from bagrowth.ensemble import (
    CHI2_LEVEL,
    CHI2_TABLE_DOF,
    CHUNKSIZE,
    POOL_START_S,
    _merge_cells,
    chi2_threshold,
    fan_out,
    pool_workers,
)


def test_single_replicate_t0():
    stats = bg.run_replicates(bg.RunConfig(m0=3, m=1, t=0, seed=1))
    assert stats.freq[2] == 1.0


@pytest.mark.parametrize("scheme", ["holme-kim", "sequential"])
def test_edge_count_conservation(scheme):
    cfg = bg.RunConfig(m0=4, m=2, t=50, seed=9, scheme=scheme, replicates=8)
    stats = bg.run_replicates(cfg)
    ks = np.arange(stats.rep_counts.shape[1])
    assert (ks * stats.counts).sum() == 8 * (12 + 2 * 2 * 50)
    assert stats.counts.sum() == 8 * 54
    assert stats.freq.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(stats.se >= 0.0)


def test_worker_count_does_not_change_results(force_pool):
    pools = force_pool()
    cfg = bg.RunConfig(m0=3, m=2, t=300, seed=31, replicates=12)
    a = bg.run_replicates(cfg, threads=1)
    b = bg.run_replicates(cfg, threads=4)
    assert pools == [0, 2]
    assert np.array_equal(a.rep_counts, b.rep_counts)


@pytest.mark.parametrize("threads", [0, -5])
def test_run_replicates_rejects_threads_below_1(threads):
    cfg = bg.RunConfig(m0=3, m=1, t=10, seed=1, replicates=2)
    with pytest.raises(bg.ConfigurationError, match="threads must be >= 1"):
        bg.run_replicates(cfg, threads=threads)


def test_pool_workers_are_bounded_by_chunks():
    # arithmetic only: no pool is started
    assert CHUNKSIZE == 8
    assert pool_workers(10_000, 20) == 3           # 19 replicates, 3 chunks
    assert pool_workers(10_000, 8 * 4096 + 1) == 4096
    assert pool_workers(2, 20) == 2
    assert pool_workers(10_000, 1) == 0
    assert pool_workers(0, 100) == 0
    assert pool_workers(-3, 100) == 0


def test_fan_out_decision():
    # the pool runs only when (R-1) * first_s * (1 - 1/w) exceeds POOL_START_S
    r = 20
    edge = POOL_START_S / ((r - 1) * (1 - 1 / 2))
    assert fan_out(2, r, 1.01 * edge) == 2
    assert fan_out(2, r, 0.99 * edge) == 0
    assert fan_out(10_000, r, 1.0) == 3            # capped at one worker per chunk
    edge3 = POOL_START_S / ((r - 1) * (1 - 1 / 3))
    assert fan_out(10_000, r, 1.01 * edge3) == 3
    assert fan_out(10_000, r, 0.99 * edge3) == 0
    # one worker, one replicate or no threads never start a pool
    assert fan_out(1, r, 10.0) == 0
    assert fan_out(4, 1, 10.0) == 0
    assert fan_out(0, r, 10.0) == 0
    assert fan_out(4, 9, 10.0) == 0                # 8 replicates fill one chunk
    # replicate times measured on 2 vCPUs: m=1, t=5000 takes 0.17-0.5 ms,
    # m=2, t=2000 takes 4.0-4.4 ms; only the second pays for a pool
    assert fan_out(2, r, 0.0005) == 0
    assert fan_out(2, r, 0.0034) == 2


def test_compare_requires_matching_params():
    stats = bg.run_replicates(bg.RunConfig(m0=3, m=1, t=20, seed=1, replicates=2))
    exact = bg.network_distribution(21, bg.ChainParams(m=1, m0=3))
    with pytest.raises(bg.ConfigurationError):
        bg.compare_to_exact(stats, exact)


def test_compare_to_limit_requires_matching_exact_law():
    stats = bg.run_replicates(bg.RunConfig(m0=3, m=1, t=20, seed=1, replicates=2))
    for t, m0 in ((21, 3), (20, 4)):
        exact = bg.network_distribution(t, bg.ChainParams(m=1, m0=m0))
        with pytest.raises(bg.ConfigurationError):
            bg.compare_to_limit(stats, (1, 5), exact=exact)
    exact = bg.network_distribution(20, bg.ChainParams(m=2, m0=3))
    with pytest.raises(bg.ConfigurationError):
        bg.compare_to_limit(stats, (1, 5), exact=exact)


def test_compare_to_limit_refuses_a_law_capped_within_k_range():
    # cell 4 of a law capped at 4 lumps every degree >= 4: it is not P(4)
    params = bg.ChainParams(m=1, m0=3)
    stats = bg.run_replicates(bg.RunConfig(m0=3, m=1, t=300, seed=3, replicates=4))
    for cap in (4, 8):
        law = bg.network_distribution(300, params, k_max=3, cap=cap)
        with pytest.raises(bg.ConfigurationError, match=f"capped at {cap}"):
            bg.compare_to_limit(stats, (1, 8), exact=law)
    bg.compare_to_limit(stats, (1, 8), exact=bg.network_distribution(300, params, 3, cap=9))
    # a full law is 0 above its top reachable degree (4 at t=2), so any hi may read it
    tiny = bg.run_replicates(bg.RunConfig(m0=3, m=1, t=2, seed=3, replicates=4))
    bg.compare_to_limit(tiny, (1, 8), exact=bg.network_distribution(2, params, 3))


@pytest.mark.parametrize("m, k_range", [(1, (5, 3)), (1, (0, 5)), (2, (1, 6))])
def test_compare_to_limit_refuses_a_k_range_outside_m_lo_hi(m, k_range):
    stats = bg.run_replicates(bg.RunConfig(m0=3, m=m, t=20, seed=1, replicates=2))
    with pytest.raises(bg.ConfigurationError, match="m <= lo <= hi"):
        bg.compare_to_limit(stats, k_range)


def test_write_stats_csv_refuses_another_chains_law(tmp_path):
    stats = bg.run_replicates(bg.RunConfig(m0=3, m=1, t=20, seed=1, replicates=2))
    exact = bg.network_distribution(21, bg.ChainParams(m=1, m0=3))
    with pytest.raises(bg.ConfigurationError, match="differ"):
        output.write_stats_csv(stats, exact, tmp_path / "stats.csv")
    assert not (tmp_path / "stats.csv").exists()


def test_compare_to_limit_given_law_matches_rolled():
    cfg = bg.RunConfig(m0=3, m=1, t=300, seed=3, replicates=10)
    stats = bg.run_replicates(cfg)
    exact = bg.network_distribution(300, bg.ChainParams(m=1, m0=3))
    given = bg.compare_to_limit(stats, (1, 6), exact=exact)
    rolled = bg.compare_to_limit(stats, (1, 6))
    assert given.as_dict() == rolled.as_dict()
    assert np.array_equal(given.rel_gaps, rolled.rel_gaps)


def test_chi2_threshold_is_scipy_stats_quantile():
    for dof in range(1, 2001):
        assert chi2_threshold(dof) == sps.chi2.ppf(CHI2_LEVEL, dof)


@pytest.mark.parametrize("level, dof", [(CHI2_LEVEL, 2001), (CHI2_LEVEL, 5000)])
def test_chi2_threshold_outside_the_table_is_scipy_stats_quantile(level, dof):
    assert chi2_threshold(dof) == sps.chi2.ppf(level, dof)


def test_chi2_table_is_its_recipe():
    table = ensemble._chi2_table()
    dof = np.arange(1, CHI2_TABLE_DOF + 1)
    assert table.dtype == np.float64 and table.shape == (CHI2_TABLE_DOF,)
    assert table.tobytes() == (2 * special.gammaincinv(dof / 2, CHI2_LEVEL)).tobytes()


def test_cli_import_leaves_out_scipy_stats(src_env):
    code = "import sys, bagrowth.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=src_env)
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_out_process_pool(src_env):
    code = "import sys, bagrowth.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=src_env)
    assert out.stdout.strip() == "False"


def test_merge_cells_respects_floor():
    observed = np.array([50.0, 40.0, 3.0, 2.0, 1.0, 0.2])
    expected = np.array([48.0, 41.0, 4.0, 2.5, 1.0, 0.5])
    obs_g, exp_g, _ = _merge_cells(observed, expected)
    assert np.all(exp_g >= 5.0)
    assert obs_g.sum() == pytest.approx(observed.sum())
    assert exp_g.sum() == pytest.approx(expected.sum())


def test_chi_square_calibration():
    # sampling straight from the exact law must almost never trip the alarm
    params = bg.ChainParams(m=1, m0=3)
    t, reps = 300, 40
    exact = bg.network_distribution(t, params)
    n = reps * (t + 3)
    expected = n * exact.probs_full
    lo = int(np.nonzero(expected > 0)[0][0])
    rng = np.random.default_rng(2718)
    failures = 0
    trials = 500
    for _ in range(trials):
        observed = rng.multinomial(n, exact.probs_full / exact.probs_full.sum())
        obs_g, exp_g, _ = _merge_cells(observed[lo:].astype(float), expected[lo:])
        chi2 = ((obs_g - exp_g) ** 2 / exp_g).sum()
        if chi2 > sps.chi2.ppf(0.999, len(obs_g) - 1):
            failures += 1
    assert failures / trials <= 0.002


def test_compare_to_exact_passes_on_matched_run():
    cfg = bg.RunConfig(m0=5, m=2, t=800, seed=404, replicates=40)
    stats = bg.run_replicates(cfg, threads=2)
    exact = bg.network_distribution(800, bg.ChainParams(m=2, m0=5))
    report = bg.compare_to_exact(stats, exact)
    assert report.passed
    assert report.dof > 0
    assert report.max_gap < 0.01


def test_compare_single_group_is_inconclusive(monkeypatch):
    # at t=1 all the expected counts fall into one group: no degree of freedom
    stats = bg.run_replicates(bg.RunConfig(m0=3, m=1, t=1, seed=1, replicates=2))
    exact = bg.network_distribution(1, bg.ChainParams(m=1, m0=3))

    def no_quantile(dof):
        raise AssertionError(f"quantile looked up at dof={dof}")

    monkeypatch.setattr(ensemble, "chi2_threshold", no_quantile)
    report = bg.compare_to_exact(stats, exact)
    assert report.dof == 0 and report.inconclusive and not report.passed
    assert report.as_dict()["threshold"] is None


def test_compare_to_limit_inconclusive_at_small_t():
    # at tiny t the exact law is still far from the limit
    cfg = bg.RunConfig(m0=3, m=1, t=30, seed=7, replicates=500)
    stats = bg.run_replicates(cfg)
    report = bg.compare_to_limit(stats, (1, 5))
    assert report.inconclusive


def test_compare_to_limit_large_t():
    cfg = bg.RunConfig(m0=3, m=1, t=4000, seed=99, replicates=60)
    stats = bg.run_replicates(cfg, threads=2)
    report = bg.compare_to_limit(stats, (1, 6))
    assert not report.inconclusive
    assert np.all(report.rel_gaps < 0.1)


def test_sequential_baseline_tail_exponent():
    # the naive scheme still produces a cubic-ish tail; no exact-law claim
    cfg = bg.RunConfig(m0=5, m=2, t=3000, seed=1234, scheme="sequential",
                       replicates=20)
    stats = bg.run_replicates(cfg, threads=2)
    report = bg.compare_to_limit(stats, (2, 10))
    assert 2.6 <= -report.exponent <= 3.4


def test_report_serialization(tmp_path):
    cfg = bg.RunConfig(m0=3, m=1, t=100, seed=5, replicates=10)
    stats = bg.run_replicates(cfg)
    exact = bg.network_distribution(100, bg.ChainParams(m=1, m0=3))
    report = bg.compare_to_exact(stats, exact)
    path = tmp_path / "report.json"
    output.write_report_json(report, path, meta={"note": "x"})
    obj = json.loads(path.read_text())
    assert set(obj) >= {"chi2", "dof", "threshold", "pass", "exponent", "max_gap"}
    stats_path = tmp_path / "stats.csv"
    output.write_stats_csv(stats, exact, stats_path, header="# h")
    lines = stats_path.read_text().strip().split("\n")
    assert lines[1] == "k,count,freq,se,p_exact,p_limit"
    row = lines[2].split(",")
    assert int(row[0]) == 1
