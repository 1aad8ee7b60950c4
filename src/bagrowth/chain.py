"""Exact finite-time degree laws of the growth process.

The degree of a fixed vertex is a nonhomogeneous Markov chain: between
times t and t+1 it either stays at k or moves to k+1 with probability
k/(2t + d), where d = N0/m and N0 = m0*(m0-1); ``_kernels.roll`` writes
that step. This module rolls the chain forward per vertex, reconstructs
the same law through the first-passage sum (``passage_curve``, an
independent route used as a cross check), averages over vertices into
the network-level law, and evaluates the closed-form product-sum
expression for the probability of the minimum degree.
"""

from dataclasses import dataclass
from fractions import Fraction
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
    """P(k, i, t) for one vertex i over t = start_time..t_max, stored as a band.

    Row t holds the degrees [start_degree, top_t], where top_t is the last
    degree holding a normal double at time t; every other degree has
    probability exactly 0. The rows are concatenated in ``values``: row
    t is ``values[offsets[j]:offsets[j + 1]]`` with j = t - start_time.
    Program code reads ``column``; checks read rows and cells in ``table``.
    """

    vertex: int
    params: ChainParams
    start_time: int
    start_degree: int
    values: np.ndarray   # float64, the rows' bands end to end
    offsets: np.ndarray  # int64, shape (t_max - start_time + 2,)

    @property
    def t_max(self) -> int:
        return self.start_time + len(self.offsets) - 2

    @property
    def k_max(self) -> int:
        """Largest reachable degree at t_max; dense rows have k_max + 1 cells."""
        return self.start_degree + self.t_max - self.start_time

    def column(self, k: int) -> np.ndarray:
        """P(k, i, t) for t = start_time..t_max (a new array)."""
        j = k - self.start_degree
        starts = self.offsets[:-1]
        out = np.zeros(len(starts))
        if j >= 0:
            held = self.offsets[1:] - starts > j
            out[held] = self.values[starts[held] + j]
        return out

    @property
    def table(self) -> np.ndarray:
        """Dense read-only (steps, k_max + 1) copy, for verification only.

        It is 2.5 times the band's size at t_max = 3700 (110 MB for vertex
        1 of m=1, m0=3); use column in program code.
        """
        out = np.zeros((len(self.offsets) - 1, self.k_max + 1))
        deg0 = self.start_degree
        for dense, lo, hi in zip(out, self.offsets[:-1], self.offsets[1:]):
            dense[deg0:deg0 + hi - lo] = self.values[lo:hi]
        out.flags.writeable = False
        return out


def evolve_vertex(i: int, t_max: int, params: ChainParams) -> DegreeLaw:
    """Exact law of vertex i's degree, rolled forward to t_max.

    New vertices start as a point mass at degree m at time t = i; initial
    vertices start at degree m0-1 at time 0. The law rolls as (steps, 1)
    cells from start_degree through ``_kernels.roll``, whose top is the
    last degree holding a normal double, and [start_degree, top] of
    cells[:, 0] is copied into the band (see DegreeLaw) after each step.
    Every cell the full-width roll holds at >= 1e-280 keeps its bits.
    Cost is O(steps * top) in time and at most steps * top floats: 44 MB
    for vertex 1 of m=1, m0=3 at t_max=3700, against 110 MB dense.
    """
    start, deg0 = _start_of(i, params, t_max)
    steps = t_max - start + 1
    # row j spans at most j+1 degrees; pages past the band are never touched
    values = np.empty(steps * (steps + 1) // 2)
    offsets = np.empty(steps + 1, dtype=np.int64)
    cells = np.zeros((steps, 1))
    cells[0, 0] = values[0] = 1.0
    offsets[:2] = 0, 1
    row, end = cells[:, 0], 1
    ks = np.arange(deg0, deg0 + steps, dtype=np.float64)
    for j, top in enumerate(roll(cells, ks, start, t_max, params.d, 0), 2):
        values[end:end + top + 1] = row[:top + 1]
        end += top + 1
        offsets[j] = end  # row j-1 ends here
    return DegreeLaw(vertex=i, params=params, start_time=start, start_degree=deg0,
                     values=values[:end], offsets=offsets)


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
    time the sum reads; it is rolled here otherwise.
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

