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
    """A grown simple undirected graph.

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


def one_step_law(config: RunConfig) -> list:
    """Exact law of step t+1's targets, enumerated over the growth kernel's own map.

    Grows config.t steps from config.seed as ``generate`` does, then
    feeds every cell midpoint of the next step's m uniforms through
    ``grow`` with rational weights. Each uniform picks one of `cells`
    equal cells: a slot int(u * cells) for holme-kim, the integer
    cumulative-weight interval holding u * cells for sequential, so
    weight 1/cells per draw gives the step's exact law. DEFAULT_ENUM_BOUND
    is the largest vertex count admitted. Returns Fractions recv, indexed
    like GraphState.degree: recv[v] is the probability that v receives
    an edge. Raises VerificationError if one step picks a vertex twice.
    """
    m0, m, t = config.m0, config.m, config.t
    if m0 + t > DEFAULT_ENUM_BOUND:
        raise EnumerationBoundError(
            f"state has {m0 + t} vertices, enumeration bound is {DEFAULT_ENUM_BOUND}")
    sequential = config.scheme == SEQUENTIAL
    # generate's t rows of uniforms, then a row for the enumerated step
    uniforms = default_rng(SeedSequence(config.seed)).random((t + 1, m))
    degree = grow(m0, m, t, uniforms[:t], sequential)[1].tolist()
    tdeg = sum(degree)
    recv = [Fraction(0)] * (m0 + t)

    def targets(row):
        # draws past len(row) do not change the picks before them
        uniforms[t] = row + [0.5] * (m - len(row))
        return grow(m0, m, t + 1, uniforms, sequential)[0][-m:, 1].tolist()

    def walk(row, weight):
        if len(row) == m:
            picks = targets(row)
            if len(set(picks)) != m:
                raise VerificationError(
                    f"state {_state_name(config)} m={m} scheme={config.scheme}: "
                    f"uniforms {row} pick vertex indices {picks}, one of them twice")
            for v in picks:
                recv[v] += weight
            return
        if not row:
            cells = tdeg
        elif sequential:  # the frozen degrees not yet picked
            cells = tdeg - sum(degree[v] for v in targets(row)[:len(row)])
        else:  # the first endpoint's neighbours not yet picked
            cells = degree[targets(row)[0]] - (len(row) - 1)
        for c in range(cells):
            walk(row + [(c + 0.5) / cells], weight / cells)

    walk([], Fraction(1))
    return recv


# (m0, t, seed) of each state verify_proposition enumerates
PROPOSITION_STATES = ((3, 0, 0), (4, 0, 0), (5, 0, 0), (4, 2, 12345))


def _state_name(config: RunConfig) -> str:
    return f"K_{config.m0}" + (f"+{config.t}steps" if config.t else "")


def verify_proposition() -> list:
    """Check that the growth kernel gives each vertex probability m*k_i/sum_k.

    On each of PROPOSITION_STATES, grown at the m checked, enumerates
    ``one_step_law`` for holme-kim at every m <= m0 and for sequential
    at m=1, and compares it with the proportional form as rationals.
    Returns a list of dicts with keys state, scheme, m, ok, detail.
    """
    results = []
    for m0, t, seed in PROPOSITION_STATES:
        runs = [(HOLME_KIM, m) for m in range(1, m0 + 1)] + [(SEQUENTIAL, 1)]
        for scheme, m in runs:
            config = RunConfig(m0=m0, m=m, t=t, scheme=scheme, seed=seed)
            recv = one_step_law(config)
            state = generate(config)
            total = state.total_degree
            detail = ""
            for label, p, k in zip(state.labels().tolist(), recv, state.degree.tolist()):
                want = Fraction(m * k, total)
                if p != want:
                    detail = f"vertex {label}: enumerated {p}, proportional form {want}"
                    break
            results.append({"state": _state_name(config), "scheme": scheme, "m": m,
                            "ok": not detail, "detail": detail})
    return results
