"""Growing preferential-attachment networks.

Two attachment schemes are provided. ``holme-kim`` connects the first
edge of each new vertex preferentially (probability k_i / sum_j k_j) and
the remaining m-1 edges uniformly to distinct neighbors of that first
endpoint; with this scheme an existing vertex of degree k receives a new
edge with probability exactly m*k/sum_j k_j. ``sequential`` is a naive
baseline that draws the m endpoints one at a time proportionally to
degrees frozen at step start, renormalizing over the not-yet-chosen.

Vertex labels follow the convention -m0..-1 for the initial clique and
1..t for vertices added at steps 1..t (there is no vertex 0).
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
from numpy.random import SeedSequence, default_rng

from ._kernels import grow
from .chain import ChainParams
from .errors import ConfigurationError, EnumerationBoundError, VerificationError

HOLME_KIM = "holme-kim"
SEQUENTIAL = "sequential"
SCHEMES = (HOLME_KIM, SEQUENTIAL)

DEFAULT_ENUM_BOUND = 12


@dataclass
class GraphState:
    """A growing simple undirected graph.

    degree/edges use internal indices 0..n-1; index i maps to label
    i-m0 for i < m0 (initial vertices) and i-m0+1 otherwise.
    """

    num_initial: int
    step_count: int
    degree: np.ndarray = field(repr=False)
    edges: np.ndarray = field(repr=False)  # (E, 2) in insertion order

    @property
    def num_vertices(self) -> int:
        return self.num_initial + self.step_count

    @property
    def total_degree(self) -> int:
        return int(self.degree.sum())

    def labels(self) -> np.ndarray:
        idx = np.arange(self.num_vertices)
        out = idx - self.num_initial
        out[idx >= self.num_initial] += 1
        return out

    def check(self) -> None:
        """Check structural invariants: simplicity and degrees that match edges.

        Symmetry holds by construction (each edge is stored once). Raises
        VerificationError on the first violation found.
        """
        n = self.num_vertices
        edges = self.edges
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise VerificationError(f"edge endpoint outside [0, {n})")
        loops = np.flatnonzero(edges[:, 0] == edges[:, 1])
        if loops.size:
            raise VerificationError(f"vertex {edges[loops[0], 0]}: self-loop")
        # one key per pair: min * n + max, sorted in place; built column-wise,
        # since edges.min(axis=1) reduces row by row, ~40x slower at 6e4 edges
        a, b = edges[:, 0], edges[:, 1]
        keys = np.minimum(a, b)
        keys *= n
        keys += np.maximum(a, b)
        keys.sort()
        if (keys[1:] == keys[:-1]).any():
            raise VerificationError("parallel edge")
        # equal degrees also give the handshake identity sum(degree) == 2|E|
        counted = np.bincount(edges.reshape(-1), minlength=n)
        if not np.array_equal(counted, self.degree):
            raise VerificationError("degree does not count the edge endpoints")


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one growth experiment."""

    m0: int
    m: int
    t: int
    scheme: str = HOLME_KIM
    seed: int = 0
    replicates: int = 1

    def __post_init__(self):
        ChainParams(m=self.m, m0=self.m0)  # raises on a bad (m, m0)
        if self.t < 0:
            raise ConfigurationError("t must be >= 0")
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"scheme must be one of {SCHEMES}")
        if not 0 <= int(self.seed) < 2**64:
            raise ConfigurationError("seed must be an unsigned 64-bit integer")
        if self.replicates < 1:
            raise ConfigurationError("replicates must be >= 1")

    @property
    def params(self) -> ChainParams:
        return ChainParams(m=self.m, m0=self.m0)


def new_complete(m0: int) -> GraphState:
    """The initial complete graph K_{m0} (labels -m0..-1): growth at t=0."""
    return generate(RunConfig(m0=m0, m=1, t=0))


def generate(config: RunConfig) -> GraphState:
    """Grow a graph from K_{m0} for t steps; pure function of (config, seed).

    Uniform variates come from PCG64 seeded by SeedSequence(config.seed),
    exactly m per step, so results are reproducible across platforms.
    """
    rng = default_rng(SeedSequence(config.seed))
    uniforms = rng.random((config.t, config.m))
    edges, degree = grow(config.m0, config.m, config.t, uniforms,
                         config.scheme == SEQUENTIAL)
    return GraphState(num_initial=config.m0, step_count=config.t,
                      degree=degree, edges=edges)


def degree_histogram(state: GraphState) -> dict:
    """Map degree -> vertex count; counts sum to the vertex count."""
    counts = np.bincount(state.degree)
    return {int(k): int(c) for k, c in enumerate(counts) if c > 0}


def attachment_probability_exact(state: GraphState, m: int,
                                 enum_bound: int = DEFAULT_ENUM_BOUND) -> list:
    """Exact per-vertex probability of receiving an edge in one holme-kim step.

    Enumerates every (first endpoint, (m-1)-neighbor-subset) outcome with
    rational weights k_l/sum_k * 1/C(k_l, m-1) and sums the probability
    that each vertex is touched. Equals m*k_i/sum_k for every vertex.

    Returns a list of Fractions indexed like state.degree.
    """
    n = state.num_vertices
    if n > enum_bound:
        raise EnumerationBoundError(
            f"state has {n} vertices, enumeration bound is {enum_bound}")
    if m - 1 > int(state.degree.min()):
        raise ConfigurationError("scheme requires every neighborhood to offer m-1 candidates")
    neighbours = [[] for _ in range(n)]
    for u, v in state.edges.tolist():
        neighbours[u].append(v)
        neighbours[v].append(u)
    total = state.total_degree
    recv = [Fraction(0) for _ in range(n)]
    for first in range(n):
        k_l = int(state.degree[first])
        if k_l == 0:
            continue
        w_first = Fraction(k_l, total)
        n_subsets = comb(k_l, m - 1)
        for subset in combinations(neighbours[first], m - 1):
            w = w_first / n_subsets
            recv[first] += w
            for v in subset:
                recv[v] += w
    return recv


def star_graph(leaves: int) -> GraphState:
    """A star: one center (index 0) joined to `leaves` degree-1 vertices."""
    n = leaves + 1
    degree = np.array([leaves] + [1] * leaves, dtype=np.int64)
    edges = np.array([(0, j) for j in range(1, n)], dtype=np.int64)
    return GraphState(num_initial=n, step_count=0, degree=degree, edges=edges)


def proposition_states() -> list:
    """Small states used to check the exact receive-probability identity."""
    return [
        ("K_3", new_complete(3)),
        ("K_4", new_complete(4)),
        ("K_5", new_complete(5)),
        ("S_4", star_graph(4)),
        ("K_4+2steps", generate(RunConfig(m0=4, m=2, t=2, seed=12345))),
    ]


def verify_proposition(enum_bound: int = DEFAULT_ENUM_BOUND) -> list:
    """Check, state by state, that one-step receive probabilities are m*k_i/sum_k.

    For each state and each feasible m (every neighborhood must offer at
    least m-1 candidates), enumerates the one-step law exactly and
    compares against the proportional form as rationals. Returns a list
    of dicts with keys state, m, ok, detail.
    """
    results = []
    for name, state in proposition_states():
        m_hi = int(state.degree.min()) + 1
        for m in range(1, m_hi + 1):
            recv = attachment_probability_exact(state, m, enum_bound=enum_bound)
            total = state.total_degree
            ok = True
            detail = ""
            for idx, p in enumerate(recv):
                want = Fraction(m * int(state.degree[idx]), total)
                if p != want:
                    ok = False
                    detail = (f"vertex {state.labels()[idx]}: enumerated {p}, "
                              f"proportional form {want}")
                    break
            if ok and sum(recv, Fraction(0)) != m:
                ok = False
                detail = f"probabilities sum to {sum(recv, Fraction(0))}, not {m}"
            results.append({"state": name, "m": m, "ok": ok, "detail": detail})
    return results

