import os
import subprocess
import sys

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


@pytest.mark.parametrize("m,m0,t", [(1, 3, 300), (2, 5, 300), (3, 3, 150)])
def test_mixture_roll_paths_identical(m, m0, t):
    d = m0 * (m0 - 1) / m
    a_new, a_init = _kernels._mixture_roll_loops(m, m0, d, t)
    b_new, b_init = _kernels._mixture_roll_numpy(m, m0, d, t)
    assert np.array_equal(a_new, b_new)
    assert np.array_equal(a_init, b_init)


def test_env_flag_disables_numba():
    env = dict(os.environ, BAGROWTH_DISABLE_NUMBA="1")
    out = subprocess.run(
        [sys.executable, "-c",
         "from bagrowth._kernels import NUMBA_ENABLED; print(NUMBA_ENABLED)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_fallback_path_generates_same_graph():
    env = dict(os.environ, BAGROWTH_DISABLE_NUMBA="1")
    code = (
        "import numpy as np, bagrowth as bg;"
        "g = bg.generate(bg.RunConfig(m0=3, m=2, t=100, seed=17));"
        "print(int(g.edges.sum()), int(g.degree.max()))"
    )
    out_plain = subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, text=True, check=True)
    out_jit = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, check=True)
    assert out_plain.stdout == out_jit.stdout
