"""Replicate ensembles and goodness-of-fit against exact/analytic laws.

Replicates are embarrassingly parallel; every replicate draws its
uniforms from an independent child of SeedSequence(config.seed), so the
aggregate is a pure function of (config, replicates) no matter how many
workers run it. Aggregation is an integer count merge in replicate
order.
"""

import os
import time
from dataclasses import dataclass, field
from functools import cache

import numpy as np
from numpy.random import SeedSequence, default_rng

from . import graph
from .chain import MixtureDistribution, network_distribution, padded
from .errors import ConfigurationError
from .graph import SEQUENTIAL, RunConfig
from .limits import steady_state, tail_exponent

CHI2_LEVEL = 0.999
CHI2_TABLE_DOF = 2000  # chi2_0999.npy holds the CHI2_LEVEL quantile for dof 1..2000
MIN_EXPECTED = 5.0  # adjacent chi-square cells merge until each group expects this many
# compare rolls its law up to degree m + ceil(16 sqrt t): the finite-size cutoff
# grows like sqrt t, and the mass at or above it is 8e-44, 6.5e-38 and 5.8e-37
# at t = 1e3, 5e3 and 1e4 (m=1, m0=3)
FIT_CAP_ROOTS = 16.0
LIMIT_SPAN = 8  # compare_to_limit reads degrees m..min(8m, K)
CHUNKSIZE = 8  # replicates per task sent to a pool worker
# Import, start and teardown of a 2-worker process pool running a trivial
# map from a 55-MB CLI process: 3.4 + 9-10 ms (2 vCPUs, Linux fork).
POOL_START_S = 0.013


def _replicate_counts(args):
    config, child = args
    rng = default_rng(child)
    uniforms = rng.random((config.t, config.m))
    # only degrees are pooled, so no GraphState is built
    _, degree = graph.grow(config.m0, config.m, config.t, uniforms,
                           config.scheme == SEQUENTIAL)
    return np.bincount(degree)


@dataclass
class EnsembleStats:
    """Pooled degree counts over replicates, with between-replicate errors."""

    config: RunConfig
    rep_counts: np.ndarray  # (R, kmax+1)

    @property
    def replicates(self) -> int:
        return self.rep_counts.shape[0]

    @property
    def counts(self) -> np.ndarray:
        return self.rep_counts.sum(axis=0)

    @property
    def num_vertices(self) -> int:
        return self.config.m0 + self.config.t

    @property
    def freq(self) -> np.ndarray:
        return self.counts / (self.replicates * self.num_vertices)

    @property
    def se(self) -> np.ndarray:
        """Standard error of the frequency, from between-replicate variance."""
        r = self.replicates
        if r < 2:
            return np.zeros(self.rep_counts.shape[1])
        rep_freq = self.rep_counts / self.num_vertices
        return np.sqrt(rep_freq.var(axis=0, ddof=1) / r)

    def check_law(self, exact: MixtureDistribution) -> None:
        """Raise ConfigurationError unless exact has this ensemble's (params, t)."""
        cfg = self.config
        if (exact.params, exact.time) != (cfg.params, cfg.t):
            raise ConfigurationError(f"ensemble {cfg.params}, t={cfg.t} and law "
                                     f"{exact.params}, t={exact.time} differ")


def pool_workers(threads: int, replicates: int) -> int:
    """Workers for replicates 1..R-1: at most one per chunk of CHUNKSIZE.

    A fork-based pool starts all its workers at the first task, so a
    larger pool would only fork idle processes.
    """
    chunks = -(-(replicates - 1) // CHUNKSIZE)
    return max(0, min(threads, chunks))


def fan_out(threads: int, replicates: int, first_s: float) -> int:
    """Pool size for replicates 1..R-1, or 0 to run them in-process.

    first_s is the measured time of replicate 0. A pool of w workers is
    projected to save (R-1) * first_s * (1 - 1/w); it runs only when
    that exceeds POOL_START_S.
    """
    workers = pool_workers(threads, replicates)
    if workers < 2:
        return 0
    saving = (replicates - 1) * first_s * (1.0 - 1.0 / workers)
    return workers if saving > POOL_START_S else 0


def check_threads(threads: int) -> None:
    """Raise ConfigurationError unless threads >= 1."""
    if threads < 1:
        raise ConfigurationError("threads must be >= 1")


def run_replicates(config: RunConfig, threads: int = 1) -> EnsembleStats:
    """Generate config.replicates independent graphs and pool degree counts.

    Replicate 0 runs in-process and is timed; the rest go to a pool of at
    most `threads` workers only when ``fan_out`` finds the pool pays for
    its start. Either way the counts are the same.
    """
    check_threads(threads)
    children = SeedSequence(config.seed).spawn(config.replicates)
    jobs = [(config, child) for child in children]
    start = time.perf_counter()
    per_rep = [_replicate_counts(jobs[0])]
    workers = fan_out(threads, config.replicates, time.perf_counter() - start)
    if workers:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_rep += pool.map(_replicate_counts, jobs[1:], chunksize=CHUNKSIZE)
    else:
        per_rep += map(_replicate_counts, jobs[1:])
    width = max(len(c) for c in per_rep)
    rep_counts = np.array([padded(c, width) for c in per_rep], dtype=np.int64)
    return EnsembleStats(config=config, rep_counts=rep_counts)


@dataclass
class FitReport:
    """Chi-square and tail diagnostics of an ensemble against a reference."""

    chi2: float
    dof: int
    threshold: float
    passed: bool
    exponent: float
    max_gap: float
    rel_gaps: np.ndarray = field(default_factory=lambda: np.empty(0))
    inconclusive: bool = False
    rerolled: bool = False  # the fit rolled the full law again (see compare_to_exact)

    def as_dict(self) -> dict:
        return {
            "chi2": _finite_or_none(self.chi2),
            "dof": int(self.dof),
            "threshold": _finite_or_none(self.threshold),
            "pass": bool(self.passed),
            "exponent": _finite_or_none(self.exponent),
            "max_gap": float(self.max_gap),
            "inconclusive": bool(self.inconclusive),
        }


def _finite_or_none(x: float) -> float | None:
    """x as a JSON number, or None (null) where it is nan or infinite."""
    return float(x) if np.isfinite(x) else None


def _merge_cells(observed: np.ndarray, expected: np.ndarray):
    """Group adjacent cells until each group's expectation reaches MIN_EXPECTED.

    A trailing underfull group is folded into the previous one. Returns
    (obs_groups, exp_groups, inert). inert says that twice the last
    cell's expectation, added to the sum it joins, leaves that sum
    unchanged and stays below the floor; the sum it joins is the open
    group's, or the last closed group's when the cell would start a
    fresh group, since an underfull trailing group folds into that one.
    The walk sums Python floats, with the same IEEE bits as numpy scalars.
    """
    obs_g, exp_g = [], []
    o_acc = e_acc = joins = e = 0.0
    for o, e in zip(observed.tolist(), expected.tolist()):
        joins = e_acc
        o_acc += o
        e_acc += e
        if e_acc >= MIN_EXPECTED:
            obs_g.append(o_acc)
            exp_g.append(e_acc)
            o_acc = e_acc = 0.0
    if not joins and exp_g:
        joins = exp_g[-1]  # holds the last cell too if it closed a group: not inert
    inert = bool(joins) and joins + 2.0 * e == joins and 2.0 * e < MIN_EXPECTED
    if e_acc > 0 or o_acc > 0:
        if obs_g:
            obs_g[-1] += o_acc
            exp_g[-1] += e_acc
        else:
            obs_g.append(o_acc)
            exp_g.append(e_acc)
    return np.array(obs_g), np.array(exp_g), inert


def _exponent_window(stats: EnsembleStats, lo: int, hi: int) -> float:
    freq = stats.freq
    ks = np.arange(len(freq))
    sel = (ks >= lo) & (ks <= hi) & (freq > 0)
    if sel.sum() < 3:
        return float("nan")
    return tail_exponent(ks[sel], freq[sel])


@cache
def _chi2_table() -> np.ndarray:
    return np.load(os.path.join(os.path.dirname(__file__), "chi2_0999.npy"))


def chi2_threshold(dof: int) -> float:
    """The CHI2_LEVEL quantile of the chi-square law with `dof` degrees of freedom.

    The value is ``2*gammaincinv(dof/2, CHI2_LEVEL)``, which is how
    scipy.stats.chi2.ppf computes it, bit for bit. For dof in
    1..CHI2_TABLE_DOF it is read from the table ``chi2_0999.npy`` (entry
    dof-1, loaded on the first call), so no ``compare`` inside that range
    imports scipy; only outside it is scipy.special imported. The table
    was made with scipy 1.17.1 by::

        python -c "import numpy as np, scipy.special as s; np.save('src/bagrowth/chi2_0999.npy', 2 * s.gammaincinv(np.arange(1, 2001) / 2, 0.999))"
    """
    if dof in range(1, CHI2_TABLE_DOF + 1):
        return float(_chi2_table()[int(dof) - 1])
    from scipy import special

    return float(2.0 * special.gammaincinv(dof / 2.0, CHI2_LEVEL))


def fit_cap(t: int, m: int, k_max: int) -> int:
    """The cap compare rolls its law to: max(k_max + 1, m + ceil(16 sqrt t)).

    network_distribution lowers it to the top reachable degree when above.
    """
    return max(k_max + 1, m + int(np.ceil(FIT_CAP_ROOTS * np.sqrt(t))))


def compare_to_exact(stats: EnsembleStats, exact: MixtureDistribution) -> FitReport:
    """Chi-square of pooled counts against the exact finite-t law.

    Cells follow the expected-count >= MIN_EXPECTED rule with adjacent
    merging; the report flags failure when the statistic exceeds the
    CHI2_LEVEL quantile of the chi-square law with the matching degrees
    of freedom. Its tail exponent is fitted over k in [5m, 50m]. When the
    cells merge into one group there are no degrees of freedom to test:
    the report is inconclusive, with no threshold, and does not pass.

    The report is the full law's, bit for bit, also from a capped law
    (``exact.capped``: its last cell lumps the degrees >= cap). The cap
    is kept only when that is proven from the capped law alone: no
    observed degree reaches cap, and the merge walk finds the lumped
    cell inert (twice its expected count leaves the sum it joins
    unchanged). The full law's cells >= cap hold the same mass, to 1e-12,
    so each is at most twice the lumped cell; rounding is monotone, so
    none of them changes that sum either, and both laws merge into the
    same groups. When the proof fails, the full law is rolled once
    through ``network_distribution`` and fitted instead, and the report
    says so in ``rerolled``. A law capped at the top reachable degree is
    the full law and needs no proof.
    """
    cfg = stats.config
    stats.check_law(exact)
    n_obs = stats.replicates * stats.num_vertices
    counts = stats.counts

    def groups(law):
        width = max(len(counts), len(law.probs_full))
        observed = padded(counts, width).astype(np.float64)
        expected = n_obs * padded(law.probs_full, width)
        lo = int(np.nonzero(expected > 0)[0][0])
        return _merge_cells(observed[lo:], expected[lo:])

    obs_g, exp_g, inert = groups(exact)
    rerolled = exact.capped and not (len(counts) <= exact.cap and inert)
    if rerolled:
        exact = network_distribution(cfg.t, cfg.params, exact.k_max)
        obs_g, exp_g, _ = groups(exact)
    chi2 = float(((obs_g - exp_g) ** 2 / exp_g).sum())
    dof = len(obs_g) - 1
    testable = dof >= 1  # a single group leaves no degree of freedom
    threshold = chi2_threshold(dof) if testable else float("nan")
    m, top = cfg.m, min(len(counts), len(exact.probs_full))
    gaps = np.abs(stats.freq[m:top] - exact.probs_full[m:top])
    return FitReport(
        chi2=chi2, dof=dof, threshold=threshold, passed=testable and chi2 <= threshold,
        exponent=_exponent_window(stats, 5 * m, 50 * m),
        max_gap=float(gaps.max()) if len(gaps) else 0.0, inconclusive=not testable,
        rerolled=rerolled,
    )


def compare_to_limit(stats: EnsembleStats, exact: MixtureDistribution) -> FitReport:
    """Relative gaps of empirical frequencies vs the limit at the ensemble's m.

    The window is degrees m..min(LIMIT_SPAN * m, exact.k_max), which any
    law reads as probabilities: a capped one lumps only degrees above
    k_max. Precondition check: the exact finite-t law, the ensemble's
    own, must already sit closer to the limit than the ensemble's
    statistical resolution over the window; when it does not, the report
    is flagged inconclusive rather than failed. The tail exponent is
    fitted over k in [5, 50] at every m.
    """
    stats.check_law(exact)
    m = stats.config.m
    lo, hi = m, min(LIMIT_SPAN * m, exact.k_max)
    ks = np.arange(lo, hi + 1)
    limit = np.array([steady_state(int(k), m) for k in ks])
    exact_window = padded(exact.probs_full, hi + 1)[lo:]
    resolution = np.maximum(3 * padded(stats.se, hi + 1)[lo:], 1e-4)
    inconclusive = bool(np.any(np.abs(exact_window - limit) > resolution))
    emp = padded(stats.freq, hi + 1)[lo:]
    rel_gaps = np.abs(emp - limit) / limit
    return FitReport(
        chi2=float("nan"), dof=0, threshold=float("nan"),
        passed=bool(np.all(rel_gaps < 0.05)) and not inconclusive,
        exponent=_exponent_window(stats, 5, 50), max_gap=float(rel_gaps.max()),
        rel_gaps=rel_gaps, inconclusive=inconclusive,
    )

