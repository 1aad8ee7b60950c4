"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line (visible with pytest -s or in
captured output on failure) and asserts the criterion at its stated
tolerance.
"""

from fractions import Fraction

import numpy as np
import pytest

import bagrowth as bg
from roll_reference import DenseLaw


def _report(num, name, ok):
    print(f"criterion {num} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_steady_state_formula():
    ok = (bg.steady_state_exact(1, 1) == Fraction(2, 3)
          and bg.steady_state_exact(2, 1) == Fraction(1, 6)
          and bg.steady_state_exact(3, 1) == Fraction(1, 15))
    ok = ok and all(bg.steady_state_exact(m, m) == Fraction(2, m + 2)
                    for m in range(1, 11))
    _report(1, "steady-state formula", ok)


def test_criterion_2_oracle_equivalence():
    worst = 0.0
    for m, m0 in ((1, 3), (2, 5)):
        params = bg.ChainParams(m=m, m0=m0)
        t_max = 200
        for i in range(1, t_max + 1):
            law = bg.evolve_vertex(i, t_max, params)
            tabled = DenseLaw(i, t_max, params, law.table)  # one roll, read by both routes
            deg0 = law.start_degree
            for k in range(deg0 + 1, deg0 + (t_max - i) + 1):
                curve = bg.passage_curve(k, i, t_max, params, law=tabled)
                direct = tabled.column(k)
                gap = float(np.abs(curve - direct).max())
                if gap > worst:
                    worst = gap
    _report(2, f"first-passage vs forward roll (worst gap {worst:.2e})",
            worst < 1e-12)


def test_criterion_3_exact_law_convergence():
    p1 = bg.ChainParams(m=1, m0=3)
    gap_2000 = abs(bg.network_distribution(2000, p1).probs_full[1] - 2 / 3)
    gap_4000 = abs(bg.network_distribution(4000, p1).probs_full[1] - 2 / 3)
    p2 = bg.ChainParams(m=2, m0=5)
    gap_m2 = abs(bg.network_distribution(4000, p2).probs_full[2] - 1 / 2)
    ok = gap_2000 < 0.01 and gap_4000 < gap_2000 and gap_m2 < 0.01
    _report(3, f"convergence (gaps {gap_2000:.2e}, {gap_4000:.2e}, {gap_m2:.2e})", ok)


def test_criterion_4_receive_probability_exact():
    results = bg.graph.verify_proposition()
    ok = bool(results) and all(r["ok"] for r in results)
    _report(4, f"exact receive probabilities on {len(results)} state/m pairs", ok)


def test_criterion_5_monte_carlo_agreement():
    cfg = bg.RunConfig(m0=3, m=1, t=10_000, seed=20240817, replicates=200)
    stats = bg.run_replicates(cfg, threads=4)
    exact = bg.network_distribution(10_000, bg.ChainParams(m=1, m0=3))
    fit = bg.compare_to_exact(stats, exact)
    limit = bg.compare_to_limit(stats, exact=exact)
    ok = (bool(np.all(limit.rel_gaps < 0.05))
          and not limit.inconclusive
          and fit.passed
          and 2.6 <= -fit.exponent <= 3.4)
    _report(5, f"Monte Carlo (chi2 {fit.chi2:.1f}/{fit.threshold:.1f}, "
               f"max rel gap {limit.rel_gaps.max():.3f}, "
               f"exponent {fit.exponent:.2f})", ok)


def test_criterion_6_telescoping_normalization():
    ok = True
    for m in (1, 2, 3):
        for k_hi in (m, 10, 100, 10_000):
            if k_hi < m:
                continue
            want = 1 - Fraction(m * (m + 1), (k_hi + 1) * (k_hi + 2))
            ok = ok and bg.steady_state_partial_sum(k_hi, m) == want
        # exact sum of individual terms at a smaller cutoff
        acc = sum((bg.steady_state_exact(k, m) for k in range(m, 501)), Fraction(0))
        ok = ok and acc == bg.steady_state_partial_sum(500, m)
    _report(6, "telescoping normalization", ok)


def test_criterion_7_determinism_across_workers(force_pool):
    pools = force_pool()  # so that threads 4 and 8 run on a pool at this size
    cfg = bg.RunConfig(m0=3, m=2, t=1000, seed=77, replicates=16)
    runs = [bg.run_replicates(cfg, threads=n) for n in (1, 4, 8)]
    ok = pools == [0, 2, 2]  # 15 replicates in chunks of 8: at most 2 workers
    ok = ok and all(np.array_equal(runs[0].rep_counts, r.rep_counts) for r in runs[1:])
    ok = ok and all(runs[0].rep_counts.tobytes() == r.rep_counts.tobytes()
                    for r in runs[1:])
    g1 = bg.generate(cfg)
    g2 = bg.generate(cfg)
    ok = ok and g1.edges.tobytes() == g2.edges.tobytes()
    _report(7, "worker-count determinism", ok)
