from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bagrowth as bg
from bagrowth import output


def test_steady_state_m1_values():
    assert bg.steady_state_exact(1, 1) == Fraction(2, 3)
    assert bg.steady_state_exact(2, 1) == Fraction(1, 6)
    assert bg.steady_state_exact(3, 1) == Fraction(1, 15)


def test_steady_state_minimum_degree():
    for m in range(1, 11):
        assert bg.steady_state_exact(m, m) == Fraction(2, m + 2)


def test_steady_state_m2_k2():
    assert bg.steady_state_exact(2, 2) == Fraction(1, 2)


def test_steady_state_domain():
    with pytest.raises(bg.ConfigurationError):
        bg.steady_state(1, 2)
    with pytest.raises(bg.ConfigurationError):
        bg.steady_state(0, 0)


def test_steady_state_is_the_nearest_double():
    # one int division, correctly rounded, also where k(k+1)(k+2) > 2**53
    ks = [*range(1, 400), 208_062, 208_063, 208_064, 10**6 + 7, 123_456_789, 10**9]
    for m in (1, 2, 3, 7, 29):
        for k in ks:
            if k >= m:
                assert bg.steady_state(k, m) == float(bg.steady_state_exact(k, m))
    assert 208_063 * 208_064 * 208_065 > 2**53 > 208_062 * 208_063 * 208_064


@settings(max_examples=50, deadline=None)
@given(m=st.integers(1, 8), k=st.integers(1, 5000))
def test_steady_state_cubic_identity(m, k):
    k = k + m  # ensure k >= m
    assert bg.steady_state_exact(k, m) * k * (k + 1) * (k + 2) == 2 * m * (m + 1)


def test_limit_recursion_reproduces_closed_form():
    for m in (1, 2, 3):
        p = Fraction(2, m + 2)
        for k in range(m + 1, 10_001):
            p = p * (k - 1) / (k + 2)  # P(k) = (k-1)/(k+2) * P(k-1)
            assert p == bg.steady_state_exact(k, m)
            assert p > 0


def test_partial_sums_telescope():
    for m in (1, 2, 3):
        running = Fraction(0)
        for k in range(m, 301):
            running += bg.steady_state_exact(k, m)
        assert running == bg.steady_state_partial_sum(300, m)
    # closed form at large cutoffs, exact
    for m in (1, 2, 3):
        s = bg.steady_state_partial_sum(10_000, m)
        assert s == 1 - Fraction(m * (m + 1), 10_001 * 10_002)
        assert float(1 - s) < 2e-7  # tail m(m+1)/(K+1)(K+2), m=3 gives 1.2e-7


def test_tail_exponent_recovers_pure_power_law():
    ks = np.arange(5, 200)
    slope = bg.tail_exponent(ks, 7.3 * ks ** -3.0)
    assert slope == pytest.approx(-3.0, abs=1e-10)


def test_tail_exponent_scale_invariant():
    ks = np.arange(10, 100)
    ps = np.array([bg.steady_state(k, 1) for k in ks])
    assert bg.tail_exponent(ks, ps) == pytest.approx(bg.tail_exponent(ks, 2 * ps),
                                                     abs=1e-12)


def test_tail_exponent_on_closed_form_window():
    # independent least-squares oracle for the regression
    for m in (1, 2):
        ks = np.arange(10 * m, 100 * m + 1)
        ps = np.array([bg.steady_state(k, m) for k in ks])
        x = np.log(ks)
        a = np.vstack([x, np.ones_like(x)]).T
        slope_ref = np.linalg.lstsq(a, np.log(ps), rcond=None)[0][0]
        slope = bg.tail_exponent(ks, ps)
        assert slope == pytest.approx(slope_ref, abs=1e-10)
        assert -3.2 < slope < -2.8


def test_tail_ratio_tends_to_one():
    # P(k) * k^3 / (2m(m+1)) -> 1: the literal asymptotic claim
    for m in (1, 2):
        ratios = [bg.steady_state(k, m) * k ** 3 / (2 * m * (m + 1))
                  for k in (10, 100, 1000, 10_000)]
        gaps = [abs(1 - r) for r in ratios]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3


def test_tail_exponent_errors():
    with pytest.raises(bg.ConfigurationError):
        bg.tail_exponent([1, 2], [0.1, 0.2])
    with pytest.raises(bg.ConfigurationError):
        bg.tail_exponent([1, 2, 3], [0.1, 0.0, 0.2])


def test_exports(tmp_path):
    p = tmp_path / "steady.csv"
    output.write_steady_csv(2, 10, p, header="# m=2")
    lines = p.read_text().strip().split("\n")
    assert lines[1] == "k,p,ratio_to_prev"
    k3 = lines[3].split(",")
    assert float(k3[2]) == pytest.approx(2 / 5, abs=1e-12)  # (k-1)/(k+2) at k=3
