from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from bagrowth import _kernels


@pytest.mark.parametrize("sequential", [False, True])
@pytest.mark.parametrize("m0,m,t", [(3, 1, 200), (5, 2, 200), (4, 4, 100)])
def test_grow_jit_matches_plain(sequential, m0, m, t):
    rng = np.random.default_rng(123)
    uniforms = rng.random((t, m))
    e1, d1 = _kernels.grow(m0, m, t, uniforms, sequential)
    e2, d2 = _kernels._grow_impl(m0, m, t, uniforms, sequential)
    assert np.array_equal(e1, e2)
    assert np.array_equal(d1, d2)


@pytest.mark.parametrize("seed", [123, 7, 2024])
@pytest.mark.parametrize("m0,t", [(2, 0), (2, 1), (2, 5000), (3, 5000), (5, 2000)])
def test_grow_m1_pointer_jumping_matches_loop(m0, t, seed):
    # holme-kim at m=1 resolves every target without the step loop
    uniforms = np.random.default_rng(seed).random((t, 1))
    e1, d1 = _kernels.grow(m0, 1, t, uniforms, False)
    e2, d2 = _kernels._grow_impl(m0, 1, t, uniforms, False)
    assert e1.dtype == e2.dtype and d1.dtype == d2.dtype
    assert np.array_equal(e1, e2)
    assert np.array_equal(d1, d2)


@pytest.mark.parametrize("prefix", [0, 1, 3])
@pytest.mark.parametrize("m0,m", [(m0, m) for m0 in (3, 4) for m in range(1, m0 + 1)])
def test_grow_one_step_law_is_proportional(m0, m, prefix):
    # enumerate grow's own map from the next step's uniforms to its targets:
    # each uniform is read as an index int(u * cells), so feeding every cell
    # midpoint with weight 1/cells gives the exact law of that step
    head = np.random.default_rng(prefix).random((prefix, m))
    edges, degree = _kernels.grow(m0, m, prefix, head, False)
    slots = edges.reshape(-1)  # slot p of the endpoint list
    tdeg = len(slots)
    recv = [Fraction(0)] * len(degree)
    for c in range(tdeg):
        cnt = int(degree[slots[c]])  # neighbours of the first endpoint
        sizes = [cnt - j for j in range(m - 1)]
        weight = Fraction(1, tdeg * int(np.prod(sizes)))
        for picks in product(*map(range, sizes)):
            row = [(c + 0.5) / tdeg] + [(i + 0.5) / n for i, n in zip(picks, sizes)]
            u = np.vstack([head, [row]])
            grown, _ = _kernels.grow(m0, m, prefix + 1, u, False)
            targets = grown[-m:, 1]
            assert len(set(targets.tolist())) == m
            for v in targets:
                recv[v] += weight
    assert recv == [Fraction(m * int(k), tdeg) for k in degree]


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
    top = max(np.nonzero(g >= _kernels.DBL_MIN)[0][-1] for g in got)
    for g, w in zip(got, want):
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
