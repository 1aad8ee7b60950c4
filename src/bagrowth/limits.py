"""Steady-state degree distribution and convergence diagnostics.

The limiting network degree law is P(k) = 2m(m+1) / (k(k+1)(k+2)) for
k >= m, reachable by iterating P(k) = (k-1)/(k+2) * P(k-1) from
P(m) = 2/(m+2). Both forms are kept in exact rational arithmetic. The
Cesaro ratio sequence (2n + d) / ((m+2)n + d + m*m0) is the closed-form
difference quotient whose limit establishes P(m); its gap to 2/(m+2)
decays like C/n and serves as a convergence-rate reference.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chain import ChainParams
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


def limit_recursion(prev, k: int):
    """One step of the limit recursion: P(k) = (k-1)/(k+2) * P(k-1).

    Works on Fractions (exact) and floats alike.
    """
    return prev * (k - 1) / (k + 2)


def steady_state_partial_sum(k_hi: int, m: int) -> Fraction:
    """Sum of P(k) for k = m..k_hi, in closed telescoping form.

    Equals 1 - m(m+1)/((k_hi+1)(k_hi+2)), hence -> 1 as k_hi grows.
    """
    if k_hi < m:
        raise ConfigurationError("k_hi must be >= m")
    return 1 - Fraction(m * (m + 1), (k_hi + 1) * (k_hi + 2))


@dataclass
class CesaroDiagnostic:
    """Closed-form difference-quotient ratios and their gap to 2/(m+2)."""

    params: ChainParams
    n: np.ndarray
    ratios: np.ndarray
    ratios_exact: list  # Fractions, same order

    @property
    def limit(self) -> Fraction:
        return Fraction(2, self.params.m + 2)

    @property
    def gaps(self) -> np.ndarray:
        return np.abs(self.ratios - float(self.limit))


def cesaro_ratios(n_max: int, params: ChainParams) -> CesaroDiagnostic:
    """Ratio sequence (2n + d) / ((m+2)n + d + m*m0) for n = 1..n_max."""
    if n_max < 1:
        raise ConfigurationError("n_max must be >= 1")
    m, m0, d = params.m, params.m0, params.d_exact
    exact = [Fraction(2 * n + d, (m + 2) * n + d + m * m0)
             for n in range(1, n_max + 1)]
    return CesaroDiagnostic(params=params,
                            n=np.arange(1, n_max + 1),
                            ratios=np.array([float(r) for r in exact]),
                            ratios_exact=exact)


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

