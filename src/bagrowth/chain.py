"""Exact finite-time degree laws of the growth process.

The degree of a fixed vertex is a nonhomogeneous Markov chain: between
times t and t+1 it either stays at k or moves to k+1 with probability
k/(2t + d), where d = N0/m and N0 = m0*(m0-1); ``_kernels.roll`` writes
that step. This module rolls the chain forward per vertex when a
column or the dense table is read, reconstructs the same law through
the first-passage sum (``passage_curve``, an independent route used as
a cross check), rolls the network-level law, the average over vertices,
and evaluates the closed-form product-sum expression for the
probability of the minimum degree.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import exp

import numpy as np

from ._kernels import mixture_roll, roll
from .errors import ConfigurationError, VerificationError

ROW_TOL = 1e-12


@dataclass(frozen=True)
class ChainParams:
    """Chain parameters; d = N0/m is the transition denominator offset."""

    m: int
    m0: int

    def __post_init__(self):
        if self.m < 1:
            raise ConfigurationError("m must be >= 1")
        if self.m0 < max(2, self.m):
            raise ConfigurationError("m0 must satisfy m0 >= 2 and m0 >= m")

    @property
    def n0(self) -> int:
        return self.m0 * (self.m0 - 1)

    @property
    def d(self) -> float:
        return self.n0 / self.m

    @property
    def d_exact(self) -> Fraction:
        return Fraction(self.n0, self.m)


def _start_of(i: int, params: ChainParams, t_max: int | None = None,
              k: int | None = None):
    """(start_time, start_degree) for vertex label i.

    Raises ConfigurationError for a t_max before the start time, or a
    passage degree k not above the start degree, when they are given.
    """
    if 1 <= i:
        start, deg0 = i, params.m
    elif -params.m0 <= i <= -1:
        start, deg0 = 0, params.m0 - 1
    else:
        raise ConfigurationError(f"invalid vertex label {i}")
    if t_max is not None and t_max < start:
        raise ConfigurationError("t_max precedes the vertex's start time")
    if k is not None and k <= deg0:
        raise ConfigurationError(f"first passage needs k > start degree {deg0}")
    return start, deg0


@dataclass
class DegreeLaw:
    """P(k, i, t) for one vertex i over t = start_time..t_max; no cells, rolled when read.

    Each roll steps the point mass at start_degree through ``_kernels.roll``
    over the degrees it reads and one more, roll's absorbing cell, and
    raises VerificationError unless its last row sums to 1 within ROW_TOL.
    """

    vertex: int
    params: ChainParams
    start_time: int
    start_degree: int
    t_max: int

    @property
    def k_max(self) -> int:
        """Largest reachable degree at t_max; dense rows have k_max + 1 cells."""
        return self.start_degree + self.t_max - self.start_time

    def _rows(self, n: int):
        """(row, top) per t over n cells from start_degree, the last absorbing; checks the sum."""
        cells = np.zeros((n, 1))
        cells[0, 0] = 1.0
        row = cells[:, 0]
        yield row, 0
        for top in roll(cells, self.start_degree, self.start_time, self.t_max, self.params.d, 0):
            yield row, top
        if abs(float(row.sum()) - 1.0) > ROW_TOL:
            raise VerificationError(f"law of vertex {self.vertex} at t={self.t_max} sums "
                                    f"to {float(row.sum())!r}, not 1")

    def column(self, k: int) -> np.ndarray:
        """P(k, i, t) for t = start_time..t_max (a new array), read from the table once built.

        Else rolls degrees start_degree..k+1 alone, k+1 absorbing the mass
        above k, and keeps the table's bits in every cell at >= 1e-280 (tested).
        """
        j = k - self.start_degree
        if j < 0 or k > self.k_max:
            return np.zeros(self.t_max - self.start_time + 1)
        if "table" in vars(self):  # cached_property's slot
            return self.table[:, k].copy()
        out = np.empty(self.t_max - self.start_time + 1)
        for i, (row, _) in enumerate(self._rows(j + 2)):
            out[i] = row[j]
        return out

    @cached_property
    def table(self) -> np.ndarray:
        """Dense read-only (steps, k_max + 1) law, for verification only; rolled once, cached.

        110 MB for vertex 1 of m=1, m0=3 at t_max = 3700. Raises VerificationError
        unless its last row's mean is start_degree * prod_{s=start_time}^{t_max-1}
        (1 + 1/(2s + d)) within a relative ROW_TOL.
        """
        deg0 = self.start_degree
        out = np.zeros((self.t_max - self.start_time + 1, self.k_max + 1))
        # degrees deg0..k_max + 1: no mass reaches the absorbing k_max + 1
        for (row, top), dense in zip(self._rows(len(out) + 1), out):
            dense[deg0:deg0 + top + 1] = row[:top + 1]
        mean = float(out[-1] @ np.arange(self.k_max + 1))
        times = np.arange(self.start_time, self.t_max)
        want = deg0 * float((1.0 + 1.0 / (2.0 * times + self.params.d)).prod())
        if abs(mean - want) > ROW_TOL * want:
            raise VerificationError(f"law of vertex {self.vertex} at t={self.t_max} has "
                                    f"mean degree {mean!r}, not {want!r}")
        out.flags.writeable = False
        return out


def evolve_vertex(i: int, t_max: int, params: ChainParams) -> DegreeLaw:
    """Exact law of vertex i's degree to t_max; validates, allocates and rolls nothing.

    New vertices start at degree m at time t = i; initial ones at degree m0-1 at time 0.
    """
    start, deg0 = _start_of(i, params, t_max)
    return DegreeLaw(vertex=i, params=params, start_time=start, start_degree=deg0,
                     t_max=t_max)


def passage_curve(k: int, i: int, t_max: int, params: ChainParams,
                  law: DegreeLaw | None = None) -> np.ndarray:
    """P(k, i, t) for all t in start..t_max via the first-passage sum.

    Cell t - start is P(k, i, t) = sum_s f(k,i,s) * prod_{j=s}^{t-1}
    (1 - k/(2j+d)), where f(k,i,s) = P(k-1, i, s-1) * (k-1)/(2(s-1) + d)
    is the probability that vertex i first reaches degree k at time s
    (0 before the earliest passage time). The survival products are
    carried as log1p sums, factored as exp(L[t] - L[s]) and summed in the
    log domain, so no term overflows. This route reads only the
    degree-(k-1) column of the per-vertex law, so it is independent of
    the forward roll of the degree-k column it is checked against. A
    given law must be vertex i's under params up to t_max - 1, the last
    time the sum reads; without one, degrees start..k alone are rolled.
    """
    start, deg0 = _start_of(i, params, t_max, k)
    if law is not None and ((law.vertex, law.params) != (i, params)
                            or law.t_max < t_max - 1):
        raise ConfigurationError(f"law of vertex {law.vertex} under {law.params} to t="
                                 f"{law.t_max} read as vertex {i}'s under {params} at "
                                 f"t={t_max - 1}")
    d = params.d
    out = np.zeros(t_max - start + 1)
    s_min = start + (k - deg0)
    if s_min > t_max:
        return out
    if law is None:
        law = evolve_vertex(i, t_max, params)
    times = np.arange(s_min, t_max + 1)
    # f(k,i,s) over s = s_min..t_max
    f = law.column(k - 1)[times - 1 - start] * (k - 1) / (2.0 * (times - 1) + d)
    # L[x] = sum_{j=s_min}^{x-1} log(1 - k/(2j+d)), x = s_min..t_max
    logs = np.log1p(-k / (2.0 * times[:-1] + d)) if len(times) > 1 else np.empty(0)
    big_l = np.concatenate([[0.0], np.cumsum(logs)])
    # exp(-L[s]) overflows once -L passes ~709, so the prefix sums of
    # f[s] * exp(-L[s]) are carried in the log domain; log 0 = -inf.
    with np.errstate(divide="ignore"):
        log_f = np.log(f)
    out[times - start] = np.exp(big_l + np.logaddexp.accumulate(log_f - big_l))
    return out


@dataclass
class MixtureDistribution:
    """Network-level degree law P(k, t) averaged over all vertices.

    probs_full holds cells 0..cap: each cell below cap is its degree's
    probability, and cell cap holds the mass at every degree >= cap. At
    the top reachable degree kcap (``capped`` false) that is the full
    law, bit for bit; `exact`'s cap K + 1 lumps the mass above K (1.4e-17
    at t=5000, m=1, m0=3), `compare`'s m + ceil(16 sqrt t) lumps 6.5e-38.
    """

    time: int
    params: ChainParams
    k: np.ndarray            # reported degrees m..k_max
    probs: np.ndarray
    tail: float              # mass above k_max, summed directly
    probs_full: np.ndarray   # cells 0..cap, the last holding the mass at degrees >= cap
    mean_degree: float

    @property
    def cap(self) -> int:
        """The absorbing cell of the roll."""
        return len(self.probs_full) - 1

    @property
    def capped(self) -> bool:
        """Whether cell cap lumps degrees up to the top reachable one, kcap."""
        return self.cap < max(self.params.m, self.params.m0 - 1) + self.time


def default_k_max(t: int, m: int) -> int:
    """m + ceil(10 sqrt t): the largest degree `exact` and `compare` report by default."""
    return m + int(np.ceil(10.0 * np.sqrt(max(t, 0))))  # m at t <= 0, which no law has


def padded(x: np.ndarray, n: int) -> np.ndarray:
    """x[:n], with cells past the end of x read as 0."""
    if len(x) >= n:
        return x[:n]
    out = np.zeros(n, dtype=x.dtype)
    out[:len(x)] = x
    return out


def network_distribution(t: int, params: ChainParams, k_max: int | None = None, *,
                         cap: int | None = None) -> MixtureDistribution:
    """Exact network degree law at time t, rolled up to the cell min(cap, kcap).

    Rolls the vertex-summed master recursion forward once: because the
    transition at time j is the same for every vertex, the sums of laws
    over new and initial vertices satisfy the same two-term recursion
    with a unit injection at degree m each step (see
    ``_kernels.mixture_roll``). The roll stops at cell cap, which absorbs
    the mass at degrees >= cap, and carries that mass's first moment
    beside it; mass below DBL_MIN (2.2e-308) at the top is set to exact
    0, so no step runs on subnormals. Cost O(t * (min(cap, top) + 1)),
    top being the last cell holding a normal double (3060 at t=5000,
    m=1, m0=3).

    cap defaults to the top reachable degree kcap = max(m, m0-1) + t,
    which no mass reaches before the last step, so probs_full is then
    the full law on every cell. A given cap must exceed k_max, and is
    lowered to kcap when above it; every cell below it holding >= 1e-280
    keeps the full roll's bits (tested). `exact` passes k_max + 1 and so
    rolls only the degrees it reports. `compare` passes
    ``ensemble.fit_cap``, max(k_max + 1, m + ceil(16 sqrt t)), and
    ``compare_to_exact`` proves from that law that its fit equals the
    full law's, or rolls the full law once when it cannot. Either way
    tail is the mass above k_max, exact 0 when k_max reaches the top.

    Raises VerificationError if the law does not sum to 1, or its mean
    degree sum_{k < cap} k p_k + M/(t + m0), with M the carried moment,
    differs from (N0 + 2mt)/(t + m0), by more than ROW_TOL.
    """
    if t < 1:
        raise ConfigurationError("t must be >= 1")
    if k_max is None:
        k_max = default_k_max(t, params.m)
    if k_max < params.m:
        raise ConfigurationError("k_max must be >= m")
    if cap is not None and cap <= k_max:
        raise ConfigurationError(f"cap {cap} must exceed k_max {k_max}")
    m, m0, n = params.m, params.m0, t + params.m0
    kcap = max(m, m0 - 1) + t
    cap = kcap if cap is None else min(cap, kcap)
    s_new, s_init, moment = mixture_roll(m, m0, params.d, t, cap=cap)
    probs_full = (s_new + s_init) / n
    probs = padded(probs_full, k_max + 1)[m:]
    tail = float(probs_full[k_max + 1:].sum())
    mean = float((np.arange(cap) * probs_full[:cap]).sum()) + moment / n
    total = float(probs_full.sum())
    if abs(total - 1.0) > ROW_TOL:
        raise VerificationError(f"network law at t={t} sums to {total!r}, not 1")
    want_mean = (params.n0 + 2 * m * t) / n
    if abs(mean - want_mean) > ROW_TOL:
        raise VerificationError(f"network law at t={t} has mean degree "
                                f"{mean!r}, not {want_mean!r}")
    return MixtureDistribution(time=t, params=params, k=np.arange(m, k_max + 1),
                               probs=probs, tail=tail, probs_full=probs_full,
                               mean_degree=mean)


def min_degree_prob_at_t1(params: ChainParams) -> float:
    """P(m, 1): the network-level probability of degree m at time 1.

    The new vertex has degree m surely; each initial vertex starts at
    m0-1 and steps up from t=0 with probability (m0-1)/d (bits tested).
    """
    m, m0 = params.m, params.m0
    up = (m0 - 1) / params.d
    p_init = 1.0 - up if m == m0 - 1 else up if m == m0 else 0.0
    return (1.0 + m0 * p_init) / (1 + m0)


def closed_form_pmt(t: int, params: ChainParams) -> float:
    """P(m, t) from the closed-form product-sum expression.

    Evaluates
      (1/(t+m0)) * prod_{i=1}^{t-1}(1 - m/(2i+d))
      * [(1+m0) P(m,1) + sum_{l=1}^{t-1} prod_{j=1}^{l}(1 - m/(2j+d))^{-1}]
    with the products carried as log1p sums; every exponentiated
    difference is <= 0, so the evaluation cannot overflow.
    """
    if t < 1:
        raise ConfigurationError("t must be >= 1")
    m, m0, d = params.m, params.m0, params.d
    p_m1 = min_degree_prob_at_t1(params)
    if t == 1:
        return p_m1
    # L[l] = sum_{j=1}^{l} log(1 - m/(2j+d)), l = 0..t-1
    js = np.arange(1, t)
    big_l = np.concatenate([[0.0], np.cumsum(np.log1p(-m / (2.0 * js + d)))])
    total = (1 + m0) * p_m1 * exp(big_l[t - 1])
    total += np.exp(big_l[t - 1] - big_l[1:t]).sum()
    return total / (t + m0)

