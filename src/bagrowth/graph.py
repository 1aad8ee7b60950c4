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

from ._kernels import grow
from .errors import ConfigurationError, EnumerationBoundError, VerificationError

HOLME_KIM = "holme-kim"
SEQUENTIAL = "sequential"
SCHEMES = (HOLME_KIM, SEQUENTIAL)

DEFAULT_ENUM_BOUND = 12


@dataclass
class GraphState:
    """A growing simple undirected graph.

    adjacency/degree/edges use internal indices 0..n-1; index i maps to
    label i-m0 for i < m0 (initial vertices) and i-m0+1 otherwise.
    """

    num_initial: int
    step_count: int
    adjacency: list = field(repr=False)
    degree: np.ndarray = field(repr=False)
    edges: np.ndarray = field(repr=False)  # (E, 2) in insertion order

    @property
    def num_vertices(self) -> int:
        return self.num_initial + self.step_count

    @property
    def total_degree(self) -> int:
        return int(self.degree.sum())

    def label(self, idx: int) -> int:
        if idx < self.num_initial:
            return idx - self.num_initial
        return idx - self.num_initial + 1

    def labels(self) -> np.ndarray:
        idx = np.arange(self.num_vertices)
        out = idx - self.num_initial
        out[idx >= self.num_initial] += 1
        return out

    def check(self) -> None:
        """Check structural invariants (simplicity, symmetry, degree sums).

        Raises VerificationError on the first violation found.
        """
        if self.total_degree != 2 * len(self.edges):
            raise VerificationError(
                f"degree sum {self.total_degree} != 2 * {len(self.edges)} edges")
        for i, nbrs in enumerate(self.adjacency):
            if len(nbrs) != self.degree[i]:
                raise VerificationError(f"vertex {i}: degree {self.degree[i]} "
                                        f"but {len(nbrs)} neighbours")
            if i in nbrs:
                raise VerificationError(f"vertex {i}: self-loop")
            if len(set(nbrs)) != len(nbrs):
                raise VerificationError(f"vertex {i}: parallel edge")
            for j in nbrs:
                if i not in self.adjacency[j]:
                    raise VerificationError(f"edge {i}-{j}: asymmetric adjacency")


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
        if self.m0 < 2:
            raise ConfigurationError("m0 must be >= 2")
        if not 1 <= self.m <= self.m0:
            raise ConfigurationError("m must satisfy 1 <= m <= m0")
        if self.t < 0:
            raise ConfigurationError("t must be >= 0")
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"scheme must be one of {SCHEMES}")
        if not 0 <= int(self.seed) < 2**64:
            raise ConfigurationError("seed must be an unsigned 64-bit integer")
        if self.replicates < 1:
            raise ConfigurationError("replicates must be >= 1")


def new_complete(m0: int) -> GraphState:
    """The initial complete graph K_{m0} (labels -m0..-1)."""
    if m0 < 2:
        raise ConfigurationError("m0 must be >= 2")
    adjacency = [[j for j in range(m0) if j != i] for i in range(m0)]
    degree = np.full(m0, m0 - 1, dtype=np.int64)
    edges = np.array([(i, j) for i in range(m0) for j in range(i + 1, m0)],
                     dtype=np.int64).reshape(-1, 2)
    return GraphState(num_initial=m0, step_count=0, adjacency=adjacency,
                      degree=degree, edges=edges)


def _append_vertex(state: GraphState, targets: list) -> GraphState:
    new = state.num_vertices
    state.adjacency.append(list(targets))
    state.degree = np.append(state.degree, len(targets))
    for tgt in targets:
        state.adjacency[tgt].append(new)
        state.degree[tgt] += 1
    new_edges = np.array([(new, tgt) for tgt in targets], dtype=np.int64)
    state.edges = np.vstack([state.edges, new_edges])
    state.step_count += 1
    return state


def step_holme_kim(state: GraphState, m: int, rng: np.random.Generator) -> GraphState:
    """Advance one step: first edge preferential, m-1 to neighbors of it.

    Degrees are those at step start; all m endpoints are distinct by
    construction (the first endpoint is not its own neighbor).
    """
    if state.num_initial < m:
        raise ConfigurationError("holme-kim scheme requires m0 >= m")
    tdeg = state.total_degree
    # inverse-transform over cumulative degrees
    u = rng.random() * tdeg
    cum = np.cumsum(state.degree)
    first = int(np.searchsorted(cum, u, side="right"))
    nbrs = list(state.adjacency[first])
    if len(nbrs) < m - 1:
        raise ConfigurationError(
            f"vertex {first} has {len(nbrs)} neighbours, fewer than m-1 = {m - 1}")
    # partial Fisher-Yates for m-1 distinct neighbors
    for j in range(m - 1):
        r = j + int(rng.random() * (len(nbrs) - j))
        r = min(r, len(nbrs) - 1)
        nbrs[j], nbrs[r] = nbrs[r], nbrs[j]
    return _append_vertex(state, [first] + nbrs[: m - 1])


def step_sequential(state: GraphState, m: int, rng: np.random.Generator) -> GraphState:
    """Advance one step with the naive baseline scheme.

    m endpoints drawn one at a time proportionally to degrees frozen at
    step start, renormalized over not-yet-chosen vertices.
    """
    if m > state.num_vertices:
        raise ConfigurationError("sequential scheme needs at least m existing vertices")
    w = state.degree.astype(np.float64).copy()
    targets = []
    for _ in range(m):
        tot = w.sum()
        u = rng.random() * tot
        cum = np.cumsum(w)
        pick = int(np.searchsorted(cum, u, side="right"))
        pick = min(pick, len(w) - 1)
        targets.append(pick)
        w[pick] = 0.0
    return _append_vertex(state, targets)


def generate(config: RunConfig) -> GraphState:
    """Grow a graph from K_{m0} for t steps; pure function of (config, seed).

    Uniform variates come from PCG64 seeded by SeedSequence(config.seed),
    exactly m per step, so results are reproducible across platforms and
    identical on the jitted and plain kernel paths.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    uniforms = rng.random((config.t, config.m))
    return generate_from_uniforms(config, uniforms)


def generate_from_uniforms(config: RunConfig, uniforms: np.ndarray) -> GraphState:
    edges, degree = grow(config.m0, config.m, config.t, uniforms,
                         config.scheme == SEQUENTIAL)
    n = config.m0 + config.t
    adjacency = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(int(v))
        adjacency[v].append(int(u))
    return GraphState(num_initial=config.m0, step_count=config.t,
                      adjacency=adjacency, degree=degree, edges=edges)


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
    total = state.total_degree
    recv = [Fraction(0) for _ in range(n)]
    for first in range(n):
        k_l = int(state.degree[first])
        if k_l == 0:
            continue
        w_first = Fraction(k_l, total)
        n_subsets = comb(k_l, m - 1)
        for subset in combinations(state.adjacency[first], m - 1):
            w = w_first / n_subsets
            recv[first] += w
            for v in subset:
                recv[v] += w
    return recv


def star_graph(leaves: int) -> GraphState:
    """A star: one center (index 0) joined to `leaves` degree-1 vertices."""
    n = leaves + 1
    adjacency = [list(range(1, n))] + [[0] for _ in range(leaves)]
    degree = np.array([leaves] + [1] * leaves, dtype=np.int64)
    edges = np.array([(0, j) for j in range(1, n)], dtype=np.int64)
    return GraphState(num_initial=n, step_count=0, adjacency=adjacency,
                      degree=degree, edges=edges)


def proposition_states() -> list:
    """Small states used to check the exact receive-probability identity."""
    rng = np.random.default_rng(12345)
    evolved = new_complete(4)
    step_holme_kim(evolved, 2, rng)
    step_holme_kim(evolved, 2, rng)
    return [
        ("K_3", new_complete(3)),
        ("K_4", new_complete(4)),
        ("K_5", new_complete(5)),
        ("S_4", star_graph(4)),
        ("K_4+2steps", evolved),
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
                    detail = (f"vertex {state.label(idx)}: enumerated {p}, "
                              f"proportional form {want}")
                    break
            if ok and sum(recv, Fraction(0)) != m:
                ok = False
                detail = f"probabilities sum to {sum(recv, Fraction(0))}, not {m}"
            results.append({"state": name, "m": m, "ok": ok, "detail": detail})
    return results


def write_edge_list(state: GraphState, path, header: str = "") -> None:
    """One edge per line, 'u v' with signed labels, insertion order."""
    lab = state.labels()
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        for u, v in state.edges:
            fh.write(f"{lab[u]} {lab[v]}\n")


def write_degree_histogram(state: GraphState, path, header: str = "") -> None:
    hist = degree_histogram(state)
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        fh.write("k,count\n")
        for k in sorted(hist):
            fh.write(f"{k},{hist[k]}\n")
