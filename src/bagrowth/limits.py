"""Steady-state degree distribution and the tail-exponent fit.

The limiting network degree law is P(k) = 2m(m+1) / (k(k+1)(k+2)) for
k >= m, reachable by iterating P(k) = (k-1)/(k+2) * P(k-1) from
P(m) = 2/(m+2). The closed form is also kept in exact rational arithmetic.
"""

from fractions import Fraction

import numpy as np

from .errors import ConfigurationError


def steady_state_exact(k: int, m: int) -> Fraction:
    """P(k) = 2m(m+1)/(k(k+1)(k+2)) as an exact rational."""
    if m < 1:
        raise ConfigurationError("m must be >= 1")
    if k < m:
        raise ConfigurationError("k must be >= m")
    return Fraction(2 * m * (m + 1), k * (k + 1) * (k + 2))


def steady_state(k: int, m: int) -> float:
    """P(k) as the nearest double: Python rounds int / int correctly."""
    if m < 1 or k < m:
        steady_state_exact(k, m)  # raises the ConfigurationError
    return 2 * m * (m + 1) / (k * (k + 1) * (k + 2))


def steady_state_partial_sum(k_hi: int, m: int) -> Fraction:
    """Sum of P(k) for k = m..k_hi, in closed telescoping form.

    Equals 1 - m(m+1)/((k_hi+1)(k_hi+2)), hence -> 1 as k_hi grows.
    """
    if k_hi < m:
        raise ConfigurationError("k_hi must be >= m")
    return 1 - Fraction(m * (m + 1), (k_hi + 1) * (k_hi + 2))


def tail_exponent(k, p) -> float:
    """Least-squares slope of log P(k) vs log k.

    A pure power law c*k^s gives exactly s; the steady-state law over a
    finite window gives a slope slightly steeper than -3.
    """
    k = np.asarray(k, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if len(k) < 3:
        raise ConfigurationError("tail fit needs at least 3 points")
    if np.any(p <= 0) or np.any(k <= 0):
        raise ConfigurationError("tail fit needs strictly positive values")
    slope, _ = np.polyfit(np.log(k), np.log(p), 1)
    return float(slope)

