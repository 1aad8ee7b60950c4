import ast
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bagrowth import _kernels
from bagrowth.graph import HOLME_KIM, SEQUENTIAL, GraphState, RunConfig, generate, one_step_law
import roll_reference


# The step loop that once grew every case, kept unchanged as the oracle of
# _kernels.grow: it walks the first endpoint's whole neighbour list and
# scans every vertex per sequential draw.
def _grow_reference(m0, m, t, uniforms, sequential):
    """Grow a graph from K_{m0} for t steps.

    uniforms has shape (t, m); each step consumes exactly m variates.
    Vertices are internal indices 0..m0+t-1 (0..m0-1 initial). Returns
    (edges, degree) with edges in insertion order.
    """
    n_total = m0 + t
    e_init = m0 * (m0 - 1) // 2
    e_total = e_init + m * t
    edges = np.empty((e_total, 2), np.int64)
    degree = np.zeros(n_total, np.int64)
    # One slot per edge endpoint: uniform index = degree-proportional vertex.
    endpoints = np.empty(2 * e_total, np.int64)
    # Half-edge adjacency as linked lists (O(1) append).
    half_target = np.empty(2 * e_total, np.int64)
    half_next = np.empty(2 * e_total, np.int64)
    head = np.full(n_total, -1, np.int64)
    n_edges = 0

    for i in range(m0):
        for j in range(i + 1, m0):
            edges[n_edges, 0] = i
            edges[n_edges, 1] = j
            endpoints[2 * n_edges] = i
            endpoints[2 * n_edges + 1] = j
            half_target[2 * n_edges] = j
            half_next[2 * n_edges] = head[i]
            head[i] = 2 * n_edges
            half_target[2 * n_edges + 1] = i
            half_next[2 * n_edges + 1] = head[j]
            head[j] = 2 * n_edges + 1
            degree[i] += 1
            degree[j] += 1
            n_edges += 1

    targets = np.empty(m, np.int64)
    buf = np.empty(n_total, np.int64)
    w = np.empty(n_total, np.float64)

    for step in range(t):
        new = m0 + step
        n_exist = new
        if sequential:
            # m draws proportional to frozen degrees, without replacement.
            tot = 0.0
            for v in range(n_exist):
                w[v] = degree[v]
                tot += w[v]
            for j in range(m):
                u = uniforms[step, j] * tot
                acc = 0.0
                pick = -1
                last_pos = -1
                for v in range(n_exist):
                    wv = w[v]
                    if wv > 0.0:
                        last_pos = v
                        acc += wv
                        if u < acc:
                            pick = v
                            break
                if pick < 0:
                    pick = last_pos
                targets[j] = pick
                tot -= w[pick]
                w[pick] = 0.0
        else:
            # First endpoint preferential via the endpoint list, then m-1
            # distinct neighbors of it, uniform (partial Fisher-Yates).
            tdeg = m0 * (m0 - 1) + 2 * m * step
            idx = int(uniforms[step, 0] * tdeg)
            if idx >= tdeg:
                idx = tdeg - 1
            first = endpoints[idx]
            cnt = 0
            e = head[first]
            while e != -1:
                buf[cnt] = half_target[e]
                cnt += 1
                e = half_next[e]
            for j in range(m - 1):
                r = j + int(uniforms[step, j + 1] * (cnt - j))
                if r >= cnt:
                    r = cnt - 1
                tmp = buf[j]
                buf[j] = buf[r]
                buf[r] = tmp
            targets[0] = first
            for j in range(m - 1):
                targets[j + 1] = buf[j]

        for j in range(m):
            tgt = targets[j]
            edges[n_edges, 0] = new
            edges[n_edges, 1] = tgt
            endpoints[2 * n_edges] = new
            endpoints[2 * n_edges + 1] = tgt
            half_target[2 * n_edges] = tgt
            half_next[2 * n_edges] = head[new]
            head[new] = 2 * n_edges
            half_target[2 * n_edges + 1] = new
            half_next[2 * n_edges + 1] = head[tgt]
            head[tgt] = 2 * n_edges + 1
            degree[new] += 1
            degree[tgt] += 1
            n_edges += 1

    return edges, degree


@pytest.mark.parametrize("sequential", [False, True])
@pytest.mark.parametrize("m0,m,t", [(3, 1, 200), (5, 2, 200), (4, 4, 100)])
def test_grow_matches_reference(sequential, m0, m, t):
    rng = np.random.default_rng(123)
    uniforms = rng.random((t, m))
    e1, d1 = _kernels.grow(m0, m, t, uniforms, sequential)
    e2, d2 = _grow_reference(m0, m, t, uniforms, sequential)
    assert np.array_equal(e1, e2)
    assert np.array_equal(d1, d2)


@pytest.mark.parametrize("seed", [123, 7, 2024])
@pytest.mark.parametrize("m0,t", [(2, 0), (2, 1), (2, 5000), (3, 5000), (5, 2000)])
def test_grow_m1_pointer_jumping_matches_loop(m0, t, seed):
    # holme-kim at m=1 resolves every target without the step loop
    uniforms = np.random.default_rng(seed).random((t, 1))
    e1, d1 = _kernels.grow(m0, 1, t, uniforms, False)
    e2, d2 = _grow_reference(m0, 1, t, uniforms, False)
    assert e1.dtype == e2.dtype and d1.dtype == d2.dtype
    assert np.array_equal(e1, e2)
    assert np.array_equal(d1, d2)


@pytest.mark.parametrize("sequential,m0,m,t", [
    (False, 3, 2, 30_000), (False, 5, 5, 5_000), (True, 5, 2, 3_000)])
def test_grow_matches_reference_at_large_degrees(sequential, m0, m, t):
    # large degrees: long neighbour lists for holme-kim, long cumulative
    # sums for sequential
    uniforms = np.random.default_rng(99).random((t, m))
    e1, d1 = _kernels.grow(m0, m, t, uniforms, sequential)
    e2, d2 = _grow_reference(m0, m, t, uniforms, sequential)
    assert e1.dtype == e2.dtype and d1.dtype == d2.dtype
    assert np.array_equal(e1, e2)
    assert np.array_equal(d1, d2)


G = _kernels.BLOCK


@pytest.mark.parametrize("m0,m,t", [
    (3, 2, G - 1), (3, 2, G), (3, 2, G + 1),
    (4, 3, G - 1), (4, 3, G), (4, 3, G + 1),  # m=3 takes draws past the first
    (2, 2, G + 1), (3, 3, G + 1)])  # m0 = m: initial vertices own no targets
def test_grow_matches_reference_at_block_edges(m0, m, t):
    # holme-kim at m>1 computes first picks per block of G steps
    uniforms = np.random.default_rng(m0 + 10 * m + t).random((t, m))
    e1, d1 = _kernels.grow(m0, m, t, uniforms, False)
    e2, d2 = _grow_reference(m0, m, t, uniforms, False)
    assert e1.dtype == e2.dtype and d1.dtype == d2.dtype
    assert np.array_equal(e1, e2)
    assert np.array_equal(d1, d2)


@settings(max_examples=60, deadline=None)
@given(m0_m=st.integers(2, 6).flatmap(lambda m0: st.tuples(st.just(m0), st.integers(2, m0))),
       t=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
def test_grow_matches_reference_for_any_m_above_1(m0_m, t, seed):
    m0, m = m0_m
    uniforms = np.random.default_rng(seed).random((t, m))
    e1, d1 = _kernels.grow(m0, m, t, uniforms, False)
    e2, d2 = _grow_reference(m0, m, t, uniforms, False)
    assert e1.dtype == e2.dtype and d1.dtype == d2.dtype
    assert np.array_equal(e1, e2)
    assert np.array_equal(d1, d2)
    GraphState(num_initial=m0, step_count=t, degree=d1, edges=e1).check()


@pytest.mark.parametrize("u", [0.0, np.nextafter(1.0, 0.0)])
@pytest.mark.parametrize("sequential", [False, True])
@pytest.mark.parametrize("m0,m", [(m0, m) for m0 in (3, 4) for m in range(1, m0 + 1)])
def test_grow_clamps_match_reference(m0, m, sequential, u):
    # u = 0 always picks the first candidate; u just below 1 makes u * n
    # round up to n at some sizes, where both kernels clamp to the last one
    t = 60
    uniforms = np.full((t, m), u)
    e1, d1 = _kernels.grow(m0, m, t, uniforms, sequential)
    e2, d2 = _grow_reference(m0, m, t, uniforms, sequential)
    assert np.array_equal(e1, e2)
    assert np.array_equal(d1, d2)


def _law_and_degrees(m0, m, prefix, scheme):
    """graph.one_step_law after `prefix` steps seeded by `prefix`, and the degrees."""
    config = RunConfig(m0=m0, m=m, t=prefix, scheme=scheme, seed=prefix)
    return one_step_law(config), generate(config).degree.tolist()


@pytest.mark.parametrize("prefix", [0, 1, 3])
@pytest.mark.parametrize("m0,m", [(m0, m) for m0 in (3, 4) for m in range(1, m0 + 1)])
def test_grow_one_step_law_is_proportional(m0, m, prefix):
    recv, degree = _law_and_degrees(m0, m, prefix, HOLME_KIM)
    assert recv == [Fraction(m * k, sum(degree)) for k in degree]


@pytest.mark.parametrize("prefix", [0, 1, 3])
@pytest.mark.parametrize("m0", [3, 4])
def test_sequential_one_step_law_at_m1_is_proportional(m0, prefix):
    recv, degree = _law_and_degrees(m0, 1, prefix, SEQUENTIAL)
    assert recv == [Fraction(k, sum(degree)) for k in degree]


@pytest.mark.parametrize("m0,m,prefix,vertex,k,gap", [
    (3, 2, 1, 1, 3, Fraction(-3, 140)),   # degrees [2, 3, 3, 2]
    (4, 3, 1, 0, 4, Fraction(-5, 231)),   # degrees [4, 3, 4, 4, 3]
])
def test_sequential_one_step_law_deviates_at_m2_and_above(m0, m, prefix, vertex, k, gap):
    # without replacement over frozen degrees, a high-degree vertex
    # receives less than m*k/sum(k); on K_{m0} alone symmetry hides it
    recv, degree = _law_and_degrees(m0, m, 0, SEQUENTIAL)
    assert recv == [Fraction(m, m0)] * m0
    recv, degree = _law_and_degrees(m0, m, prefix, SEQUENTIAL)
    assert degree[vertex] == k
    assert recv[vertex] - Fraction(m * k, sum(degree)) == gap


def _roll_full_width(m, m0, d, t):
    """Reference: the full-width loop roll, with gradual underflow."""
    kcap = max(m, m0 - 1) + t
    ks = np.arange(kcap + 1, dtype=np.float64)
    s_new = np.zeros(kcap + 1)
    s_init = np.zeros(kcap + 1)
    s_init[m0 - 1] = float(m0)
    for step in range(t):
        den = 2.0 * step + d
        hi = min(max(m, m0 - 1) + step + 2, kcap + 1)
        up = ks[:hi] / den
        stay = 1.0 - up
        for arr in (s_new, s_init):
            seg = arr[:hi]
            nxt = seg * stay
            nxt[1:] += seg[:-1] * up[:-1]
            arr[:hi] = nxt
        s_new[m] += 1.0
    return s_new, s_init


@pytest.mark.parametrize("m,m0,t", [(1, 3, 3000), (1, 2, 6000), (3, 5, 2000)])
def test_mixture_roll_flushes_only_subnormal_mass(m, m0, t):
    d = m0 * (m0 - 1) / m
    got = _kernels.mixture_roll(m, m0, d, t)
    want = _roll_full_width(m, m0, d, t)
    top = max(np.nonzero(g >= _kernels.DBL_MIN)[0][-1] for g in got[:2])
    for g, w in zip(got[:2], want):
        assert len(g) == len(w)
        big = w >= 1e-280
        assert np.array_equal(g[big], w[big])
        assert not g[top + 1:].any()
    # the case flushes: the reference holds (subnormal) mass above the top
    assert any(w[top + 1:].any() for w in want)
    gap = np.abs((got[0] + got[1]) - (want[0] + want[1])).sum()
    assert gap <= t * _kernels.DBL_MIN


@pytest.mark.parametrize("m,m0,t", [(1, 3, 400), (2, 4, 400), (3, 3, 300), (1, 2, 1), (2, 2, 0)])
def test_mixture_roll_bits_without_underflow(m, m0, t):
    d = m0 * (m0 - 1) / m
    for g, w in zip(_kernels.mixture_roll(m, m0, d, t), _roll_full_width(m, m0, d, t)):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


ROLL_CASES = [(1, 2), (1, 3), (2, 4), (3, 5), (3, 3), (2, 2)]
B = _kernels.ROLL_BLOCK
H = B // 2  # mid-block


@pytest.mark.parametrize("t", [0, 1, H - 1, H, H + 1, B - 1, B, B + 1, 3000, 6000])
@pytest.mark.parametrize("m,m0", ROLL_CASES)
def test_mixture_roll_matches_per_step_reference(m, m0, t, flushes):
    # every cell, across block edges; past t=3000 subnormal mass is flushed
    d = m0 * (m0 - 1) / m
    want = roll_reference.mixture_roll(m, m0, d, t)
    assert any(flushes) == (t >= 3000)
    for g, w in zip(_kernels.mixture_roll(m, m0, d, t), want):
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("t", [0, 1, H - 1, H, H + 1, B - 1, B, B + 1, 40, 3000])
@pytest.mark.parametrize("m,m0", ROLL_CASES)
def test_default_mixture_roll_is_capped_at_the_top_degree(m, m0, t):
    # every cell is the uncapped reference's; the moment is that of cell kcap
    d = m0 * (m0 - 1) / m
    kcap = max(m, m0 - 1) + t
    s_new, s_init, moment = _kernels.mixture_roll(m, m0, d, t)
    want = roll_reference.mixture_roll(m, m0, d, t, cap=None)
    assert [s_new.tobytes(), s_init.tobytes()] == [w.tobytes() for w in want]
    assert moment == pytest.approx(kcap * (s_new[kcap] + s_init[kcap]), rel=1e-12, abs=0.0)


def _caps(m, m0, t):
    """Absorbing cells to try: the lowest, 30 and the highest below the top degree."""
    kcap = max(m, m0 - 1) + t
    return sorted({m + 1, min(30, kcap - 1), kcap - 1} & set(range(m + 1, kcap)))


@pytest.mark.parametrize("t", [1, H - 1, H + 1, B - 1, B + 1, 3000])
@pytest.mark.parametrize("m,m0", ROLL_CASES)
def test_capped_mixture_roll_matches_per_step_reference(m, m0, t):
    # the absorbing cell included, on every cell and across block edges
    d = m0 * (m0 - 1) / m
    for cap in _caps(m, m0, t):
        got = _kernels.mixture_roll(m, m0, d, t, cap=cap)
        want = roll_reference.mixture_roll(m, m0, d, t, cap=cap)
        for g, w in zip(got[:2], want):
            assert len(g) == cap + 1
            assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("m,m0,t", [(1, 3, 2000), (1, 5, 300), (2, 4, 1000), (3, 5, 3000),
                                    (2, 2, 500)])
def test_capped_mixture_roll_lumps_the_mass_above(m, m0, t):
    # cells below cap keep the full roll's bits; cell cap and the carried
    # moment are the full roll's mass and first moment at degrees >= cap
    d = m0 * (m0 - 1) / m
    full = _kernels.mixture_roll(m, m0, d, t)
    law = full[0] + full[1]
    degrees = np.arange(len(law))
    for cap in _caps(m, m0, t) + [max(m, m0 - 1) + 1]:
        s_new, s_init, moment = _kernels.mixture_roll(m, m0, d, t, cap=cap)
        for g, w in zip((s_new, s_init), full):
            big = w[:cap] >= 1e-280
            assert np.array_equal(g[:cap][big], w[:cap][big])
        assert s_new[cap] + s_init[cap] == pytest.approx(law[cap:].sum(), rel=1e-12)
        assert moment == pytest.approx((degrees * law)[cap:].sum(), rel=1e-12)


@pytest.mark.parametrize("m,m0", ROLL_CASES)
def test_block_size_changes_no_bit(monkeypatch, m, m0):
    # a block size moves the partial last block and the blocks at which the
    # window widens and stops widening (at once when capped at m + 1, after
    # ~30 steps at cap 30, never when full); the per-step references and
    # the carried moment must not see it
    from bagrowth import chain

    d = m0 * (m0 - 1) / m
    params = chain.ChainParams(m=m, m0=m0)
    rolls = [(t, cap, roll_reference.mixture_roll(m, m0, d, t, cap=cap))
             for t in (200, 3000) for cap in [None] + _caps(m, m0, t)[:2]]
    tables = []
    for i in (-1, 1):
        t_max = max(i, 0) + 200
        values, offsets = roll_reference.evolve_band(i, t_max, params)
        law = chain.evolve_vertex(i, t_max, params)
        dense = np.zeros((len(offsets) - 1, law.k_max + 1))
        for row, lo, hi in zip(dense, offsets[:-1], offsets[1:]):
            row[law.start_degree:law.start_degree + hi - lo] = values[lo:hi]
        tables.append((i, t_max, dense))
    moments = {}
    for block in (1, 3, 16, 64):
        monkeypatch.setattr(_kernels, "ROLL_BLOCK", block)
        for t, cap, want in rolls:
            s_new, s_init, moment = _kernels.mixture_roll(m, m0, d, t, cap=cap)
            assert [s_new.tobytes(), s_init.tobytes()] == [w.tobytes() for w in want]
            assert moment == moments.setdefault((t, cap), moment)
        for i, t_max, dense in tables:
            law = chain.evolve_vertex(i, t_max, params)
            for k in [*range(law.start_degree - 1, law.k_max, 23), law.k_max, law.k_max + 1]:
                want = dense[:, k] if k <= law.k_max else np.zeros(len(dense))
                assert law.column(k).tobytes() == want.tobytes()
            assert law.table.tobytes() == dense.tobytes()


@pytest.mark.parametrize("cap", [1, 2, 52, 53, 60])
def test_mixture_roll_rejects_a_cap_outside_the_support(cap):
    # m=2, m0=3, t=50: the cap must lie above m and at or below the top degree 52
    if cap == 52:  # kcap: the full roll
        got = _kernels.mixture_roll(2, 3, 3.0, 50, cap=cap)
        want = _kernels.mixture_roll(2, 3, 3.0, 50)
        assert [g.tobytes() for g in got[:2]] == [w.tobytes() for w in want[:2]]
        assert got[2] == want[2]
        return
    with pytest.raises(ValueError):
        _kernels.mixture_roll(2, 3, 3.0, 50, cap=cap)


@pytest.mark.parametrize("t,cap,flushes", [(10000, 1002, 1000), (5000, None, 5000)])
def test_only_an_unsaturated_window_is_flushed(monkeypatch, t, cap, flushes):
    # capped: top climbs one cell per step from 2 to the absorbing cell
    # 1002, after which the flush could change nothing and is skipped;
    # full: no mass reaches the top reachable degree before the last step
    calls = []
    flush_top = _kernels._flush_top

    def counting(lines, top):
        calls.append(top)
        return flush_top(lines, top)

    monkeypatch.setattr(_kernels, "_flush_top", counting)
    _kernels.mixture_roll(1, 3, 6.0, t, cap=cap)
    assert len(calls) == flushes


@pytest.mark.parametrize("t_max,k,flushes", [(3700, 299, 299), (3700, 1999, 2578),
                                             (40, 40, 39), (400, None, 399)])
def test_only_an_unsaturated_per_vertex_window_is_flushed(monkeypatch, t_max, k, flushes):
    # column(k) rolls degrees 1..k+1 of vertex 1, k+1 absorbing: at k=299
    # top climbs one cell per step to it, after which the flush is
    # skipped; at k=1999 the flush holds top below it until step 2578.
    # The top degree's column (k=40) and the table roll one cell past
    # k_max, which no mass reaches, so every step flushes.
    from bagrowth import chain

    calls = []
    flush_top = _kernels._flush_top

    def counting(lines, top):
        calls.append(top)
        return flush_top(lines, top)

    monkeypatch.setattr(_kernels, "_flush_top", counting)
    law = chain.evolve_vertex(1, t_max, chain.ChainParams(m=1, m0=3))
    law.table if k is None else law.column(k)
    assert len(calls) == flushes


def test_every_step_runs_on_1d_contiguous_cells(monkeypatch):
    from bagrowth import chain

    operands = []

    def recording(ufunc):
        def call(*args):
            operands.extend(a for a in args if isinstance(a, np.ndarray))
            return ufunc(*args)
        return call

    monkeypatch.setattr(np, "multiply", recording(np.multiply))
    monkeypatch.setattr(np, "add", recording(np.add))
    _kernels.mixture_roll(1, 3, 6.0, 300, cap=40)
    law = chain.evolve_vertex(1, 300, chain.ChainParams(m=1, m0=3))
    law.column(20)  # a capped roll
    law.table  # the full roll
    law.column(20)  # a capped roll again: column never reads the table
    assert len(operands) == 9 * (300 + 3 * 299)  # two multiplies and one add per step
    assert all(a.ndim == 1 and a.flags.c_contiguous for a in operands)


@pytest.mark.parametrize("cells", [np.zeros((2, 8)).T, np.zeros((8, 2), np.float32),
                                   np.zeros(8), np.zeros((8, 4))[:, :2]])
def test_roll_refuses_cells_it_would_copy(cells):
    # reshape(-1) copies such cells, and the roll would step the copy
    with pytest.raises(ValueError, match="C-contiguous"):
        next(_kernels.roll(cells, 0, 0, 5, 6.0, 0))


def _names(node):
    """The names and attribute names that node's subtree reads."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def test_one_loop_steps_the_degree_chain():
    src = Path(_kernels.__file__).parent
    chain = ast.parse((src / "chain.py").read_text())
    imported = {a.name for node in ast.walk(chain)
                if isinstance(node, ast.ImportFrom) and node.module == "_kernels"
                for a in node.names}
    assert not imported & {"DBL_MIN", "transition_tables"}
    stepping = []
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                head = node.iter if isinstance(node, ast.For) else \
                    node.test if isinstance(node, ast.While) else None
                if head is not None and "ROLL_BLOCK" in _names(head):
                    stepping.append(f"{path.stem}.{fn.name}")
    assert stepping == ["_kernels.roll"]
