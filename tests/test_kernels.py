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
