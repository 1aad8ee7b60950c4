"""compare's capped law: the proof that it fits as the full law does, and the fallback.

``cmd_compare`` rolls its law only up to ``ensemble.fit_cap``, m +
ceil(16 sqrt t) or K + 1 if higher, and ``compare_to_exact`` keeps that
law only when it can prove that the absorbing cell changes no bit of
the fit; otherwise it rolls the full law once. Every case here checks
the capped law's outputs against the full law's, byte for byte.
"""

from functools import cache

import numpy as np
import pytest

import bagrowth as bg
from bagrowth import cli, ensemble, output
from bagrowth.chain import default_k_max
from bagrowth.ensemble import _merge_cells, fit_cap
from bagrowth.graph import HOLME_KIM, SEQUENTIAL

GRID = [  # (scheme, m0, m, t, R, seed)
    (HOLME_KIM, 3, 1, 50, 2000, 1), (HOLME_KIM, 3, 1, 300, 2000, 2),
    (HOLME_KIM, 3, 1, 1000, 8, 5), (HOLME_KIM, 3, 1, 2000, 50, 3),
    (HOLME_KIM, 3, 1, 5000, 20, 1), (HOLME_KIM, 3, 1, 5000, 200, 9),
    (HOLME_KIM, 3, 1, 10000, 10, 4), (HOLME_KIM, 3, 1, 20000, 4, 11),
    (HOLME_KIM, 3, 1, 20000, 30, 25), (HOLME_KIM, 4, 2, 500, 60, 6),
    (HOLME_KIM, 4, 2, 2000, 10, 7), (HOLME_KIM, 5, 2, 5000, 4, 8),
    (HOLME_KIM, 5, 3, 1000, 10, 12), (HOLME_KIM, 2, 1, 3000, 40, 13),
    (HOLME_KIM, 2, 2, 1000, 10, 14), (HOLME_KIM, 6, 4, 2000, 4, 15),
    (SEQUENTIAL, 3, 1, 1000, 20, 17), (SEQUENTIAL, 4, 2, 2000, 6, 7),
    (SEQUENTIAL, 4, 2, 500, 40, 18), (SEQUENTIAL, 5, 2, 5000, 2, 19),
    (SEQUENTIAL, 3, 3, 1000, 6, 20), (SEQUENTIAL, 5, 3, 2000, 4, 21),
    (SEQUENTIAL, 3, 1, 20000, 2, 22), (SEQUENTIAL, 6, 2, 100, 400, 23),
    (SEQUENTIAL, 3, 1, 50, 2000, 24),
]


@cache
def _laws(m0, m, t):
    """(capped, full): compare's law at the default K, and the full law."""
    params, k_max = bg.ChainParams(m=m, m0=m0), default_k_max(t, m)
    return (bg.network_distribution(t, params, k_max, cap=fit_cap(t, m, k_max)),
            bg.network_distribution(t, params, k_max))


@cache
def _stats(scheme, m0, m, t, replicates, seed):
    config = bg.RunConfig(m0=m0, m=m, t=t, scheme=scheme, seed=seed, replicates=replicates)
    return bg.run_replicates(config)


@pytest.fixture
def rerolls(monkeypatch):
    """The laws compare_to_exact rolls through ensemble.network_distribution."""
    laws = []
    network_distribution = ensemble.network_distribution

    def counting(*args, **kwargs):
        laws.append(network_distribution(*args, **kwargs))
        return laws[-1]

    monkeypatch.setattr(ensemble, "network_distribution", counting)
    return laws


def _fit_outputs(stats, law, path):
    """What compare makes of a law: the fit, the limit report and both files."""
    m = stats.config.m
    fit = bg.compare_to_exact(stats, law)
    limit = bg.compare_to_limit(stats, (m, min(8 * m, int(law.k[-1]))), exact=law)
    output.write_stats_csv(stats, law, str(path) + ".stats.csv")
    output.write_report_json(fit, str(path) + ".report.json",
                             meta={"limit_max_rel_gap": float(limit.max_gap),
                                   "limit_inconclusive": bool(limit.inconclusive)})
    files = [(path.parent / (path.name + sfx)).read_bytes()
             for sfx in (".stats.csv", ".report.json")]
    return (fit.as_dict(), fit.max_gap.hex(), limit.as_dict(),
            limit.rel_gaps.tobytes(), files), fit


@pytest.mark.parametrize("scheme,m0,m,t,replicates,seed", GRID)
def test_capped_law_fits_as_the_full_law(tmp_path, rerolls, scheme, m0, m, t,
                                         replicates, seed):
    stats = _stats(scheme, m0, m, t, replicates, seed)
    capped, full = _laws(m0, m, t)
    got, fit = _fit_outputs(stats, capped, tmp_path / "capped")
    want, _ = _fit_outputs(stats, full, tmp_path / "full")
    assert got == want
    # the proof held: the capped law itself was fitted, with no second roll
    assert rerolls == [] and not fit.rerolled
    assert capped.capped == (t >= 300)  # below t = 256, 16 sqrt t reaches the top


def _fit_ensemble():
    return _stats(HOLME_KIM, 3, 1, 5000, 20, 1)


def test_a_law_capped_at_k_plus_1_is_rolled_again(tmp_path, rerolls):
    # the mass above K (~1e-17) is far too large for the proof
    stats = _fit_ensemble()
    k_max = default_k_max(5000, 1)
    law = bg.network_distribution(5000, stats.config.params, k_max, cap=k_max + 1)
    got, fit = _fit_outputs(stats, law, tmp_path / "capped")
    assert fit.rerolled and len(rerolls) == 1
    assert not rerolls[0].capped
    assert got == _fit_outputs(stats, _laws(3, 1, 5000)[1], tmp_path / "full")[0]


def test_an_ensemble_reaching_the_cap_is_fitted_to_the_full_law(tmp_path, rerolls):
    capped, full = _laws(3, 1, 5000)
    base = _fit_ensemble()
    rep_counts = np.zeros((base.replicates, capped.cap + 1), dtype=np.int64)
    rep_counts[:, :base.rep_counts.shape[1]] = base.rep_counts
    rep_counts[0, 1] -= 1  # one leaf moved to degree cap
    rep_counts[0, capped.cap] += 1
    stats = bg.EnsembleStats(config=base.config, rep_counts=rep_counts)
    got, fit = _fit_outputs(stats, capped, tmp_path / "capped")
    assert fit.rerolled and len(rerolls) == 1
    assert got == _fit_outputs(stats, full, tmp_path / "full")[0]


def test_a_law_capped_at_the_top_needs_no_proof(rerolls):
    # an ensemble reaching the top reachable degree would fail the proof
    full = _laws(3, 1, 50)[0]
    assert full.cap == 52 and not full.capped
    base = _stats(HOLME_KIM, 3, 1, 50, 2000, 1)
    rep_counts = np.zeros((base.replicates, full.cap + 1), dtype=np.int64)
    rep_counts[:, :base.rep_counts.shape[1]] = base.rep_counts
    rep_counts[0, full.cap] += 1
    fit = bg.compare_to_exact(bg.EnsembleStats(config=base.config, rep_counts=rep_counts),
                              full)
    assert rerolls == [] and not fit.rerolled


@pytest.mark.parametrize("observed,expected,inert", [
    # the last cell joins the open group (3.0): 2e-20 leaves it unchanged
    ([0, 4, 2, 0], [5.0, 3.0, 1e-20, 1e-20], True),
    ([0, 4, 2, 0], [5.0, 3.0, 1e-20, 1e-15], False),
    # it would start a fresh group, which folds into the last closed one (6.0)
    ([0, 4, 0], [1.0, 5.0, 1e-16], True),
    ([0, 4, 0], [1.0, 5.0, 1e-15], False),
    # it closes a group of its own, or the walk has no group for it to join
    ([0, 0], [5.0, 6.0], False),
    ([0], [1e-300], False),
    ([1, 0], [2.0, 0.0], True),
])
def test_merge_walk_proves_the_last_cell_inert(observed, expected, inert):
    got = _merge_cells(np.array(observed, dtype=float), np.array(expected))
    assert got[2] is inert


def test_merge_walk_sums_floats_as_numpy_does():
    rng = np.random.default_rng(3)
    expected = rng.exponential(2.0, 400)
    observed = rng.poisson(expected).astype(float)
    obs_g, exp_g, _ = _merge_cells(observed, expected)
    want_o, want_e, acc_o, acc_e = [], [], np.float64(0), np.float64(0)
    for o, e in zip(observed, expected):  # the numpy-scalar walk
        acc_o, acc_e = acc_o + o, acc_e + e
        if acc_e >= 5.0:
            want_o.append(acc_o)
            want_e.append(acc_e)
            acc_o = acc_e = np.float64(0)
    want_o[-1] += acc_o
    want_e[-1] += acc_e
    assert obs_g.tobytes() == np.array(want_o).tobytes()
    assert exp_g.tobytes() == np.array(want_e).tobytes()


def test_compare_prints_its_cap_and_any_second_roll(tmp_path, monkeypatch, capsys):
    argv = ["compare", "--m0", "3", "--m", "1", "--t", "5000", "--replicates", "20",
            "--seed", "1"]
    assert cli.main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert capsys.readouterr().out.split()[-2:] == ["law_cap=1133", "full_law=no"]
    monkeypatch.setattr(cli, "fit_cap", lambda t, m, k_max: k_max + 1)
    assert cli.main(argv + ["--out", str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out.split()[-2:] == ["law_cap=710", "full_law=yes"]
    for sfx in (".stats.csv", ".report.json"):
        assert (tmp_path / f"a{sfx}").read_bytes() == (tmp_path / f"b{sfx}").read_bytes()


@pytest.mark.parametrize("t,k_max,cap", [
    (5000, 709, 1133), (5000, 2000, 2001), (200, 142, 228), (2, 1, 24), (0, 1, 2),
])
def test_fit_cap(t, k_max, cap):
    assert fit_cap(t, 1, k_max) == cap


def test_network_distribution_refuses_a_cap_at_or_below_k_max():
    with pytest.raises(bg.ConfigurationError, match="exceed k_max"):
        bg.network_distribution(300, bg.ChainParams(m=1, m0=3), 10, cap=10)
