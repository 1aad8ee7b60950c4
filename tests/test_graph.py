import hashlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bagrowth as bg
from bagrowth import output
from bagrowth._kernels import grow
from bagrowth.graph import one_step_law


def test_new_complete_k3():
    s = bg.new_complete(3)
    assert s.num_vertices == 3
    assert all(d == 2 for d in s.degree)
    assert s.total_degree == 6


def test_new_complete_k2_and_k5():
    assert bg.new_complete(2).total_degree == 2
    assert len(bg.new_complete(2).edges) == 1
    assert bg.new_complete(5).total_degree == 20


def test_new_complete_rejects_small():
    with pytest.raises(bg.ConfigurationError):
        bg.new_complete(1)


@pytest.mark.parametrize("m,m0", [(0, 3), (4, 3), (1, 1)])
def test_run_config_checks_m_and_m0_as_chain_params_do(m, m0):
    with pytest.raises(bg.ConfigurationError) as chain_error:
        bg.ChainParams(m=m, m0=m0)
    with pytest.raises(bg.ConfigurationError) as config_error:
        bg.RunConfig(m0=m0, m=m, t=1)
    assert str(config_error.value) == str(chain_error.value)


def test_labels_skip_zero():
    s = bg.generate(bg.RunConfig(m0=3, m=1, t=3, seed=0))
    assert list(s.labels()) == [-3, -2, -1, 1, 2, 3]


def test_step_holme_kim_adds_m_edges():
    before = bg.new_complete(4).total_degree
    s = bg.generate(bg.RunConfig(m0=4, m=3, t=1, seed=7))
    assert s.degree[-1] == 3
    assert s.total_degree == before + 6
    s.check()


def test_step_holme_kim_endpoints_distinct():
    s = bg.generate(bg.RunConfig(m0=4, m=3, t=30, seed=11))
    s.check()  # simplicity implies per-step distinctness


def test_step_sequential_exhausts_on_clique():
    s = bg.generate(bg.RunConfig(m0=4, m=4, t=1, scheme="sequential", seed=0))
    assert sorted(s.edges[s.edges[:, 0] == 4, 1]) == [0, 1, 2, 3]


def test_step_sequential_total_degree():
    s = bg.generate(bg.RunConfig(m0=5, m=2, t=20, scheme="sequential", seed=3))
    assert s.total_degree == 20 + 2 * 2 * 20
    s.check()


def test_check_raises_on_self_loop():
    s = bg.new_complete(3)
    s.edges[0] = (0, 0)  # the edge count still adds up
    with pytest.raises(bg.VerificationError, match="self-loop"):
        s.check()
    s = bg.new_complete(3)
    s.edges[0] = (2, 0)  # reverses (0, 2)
    with pytest.raises(bg.VerificationError, match="parallel edge"):
        s.check()
    s = bg.new_complete(3)
    s.degree[0] += 1
    with pytest.raises(bg.VerificationError, match="degree"):
        s.check()
    s = bg.new_complete(3)
    s.edges[0] = (0, 3)
    with pytest.raises(bg.VerificationError, match="outside"):
        s.check()


def test_check_raises_on_a_grown_edge_repeated_reversed():
    # grown edges are stored (new, target), the larger index first, unlike
    # the clique's pairs
    s = bg.generate(bg.RunConfig(m0=3, m=2, t=2000, seed=5))
    s.check()
    new, target = s.edges[-1]
    assert new > target
    s.edges = np.vstack([s.edges, [(target, new)]])
    s.degree[[new, target]] += 1  # the degrees still count the endpoints
    with pytest.raises(bg.VerificationError, match="parallel edge"):
        s.check()


def test_check_survives_optimized_mode(src_env):
    # python -O strips assert statements; the invariant checks must remain
    code = (
        "import bagrowth as bg\n"
        "s = bg.new_complete(3)\n"
        "s.edges[0] = (0, 0)\n"
        "try:\n"
        "    s.check()\n"
        "except bg.VerificationError as exc:\n"
        "    print('raised', exc)\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, check=True, env=src_env)
    assert out.stdout.startswith("raised") and "self-loop" in out.stdout


def test_generate_t0_is_clique():
    g = bg.generate(bg.RunConfig(m0=4, m=2, t=0, seed=1))
    assert g.num_vertices == 4
    assert len(g.edges) == 6


def test_generate_counts():
    g = bg.generate(bg.RunConfig(m0=3, m=1, t=10, seed=99))
    assert g.num_vertices == 13
    assert len(g.edges) == 13
    g.check()


def test_generate_deterministic():
    cfg = bg.RunConfig(m0=3, m=2, t=50, seed=42, scheme="holme-kim")
    a = bg.generate(cfg)
    b = bg.generate(cfg)
    assert np.array_equal(a.edges, b.edges)
    c = bg.generate(bg.RunConfig(m0=3, m=2, t=50, seed=43))
    assert not np.array_equal(a.edges, c.edges)


# SHA-256 of generate(...).edges (little-endian int64), recorded with the
# step-loop kernel before the per-scheme kernels replaced it
GOLDEN_EDGES = [
    ("holme-kim", 3, 1, 5000, 1,
     "473ae83951ec0541fefe69228e45f44e9ea7b9b60590c3ecb47ed565c716f8dd"),
    ("holme-kim", 3, 2, 30000, 1,
     "06a12eb9cba4d0686e9caccb9e3d243538c48c8c824a56a369282bf86b2d1bb8"),
    ("holme-kim", 5, 5, 5000, 2,
     "0c24159f53aa8ec214d9052ad47bb235dac74949f8df828b3230a54ae24e390c"),
    ("holme-kim", 4, 3, 8000, 3,
     "9082b6c1f4aa2675c301e29ffe551876f332ffa64b1898b8d36bd26e951a2c55"),
    ("holme-kim", 2, 2, 3000, 4,
     "d29fbd586f0d3005f3b79493817c6ca4a46727c38bcbf2c8f0206b2f75fd72d8"),
    ("holme-kim", 6, 4, 100, 5,
     "1aba596d58b24b10db2987eb0775f20953cbba7ac210800829e6c900da67f6ae"),
    ("holme-kim", 4, 4, 1, 6,
     "b6cef8af81db8bdd323f1b736541e51643ca655840f2c60f441bb47417ea220b"),
    ("holme-kim", 3, 2, 0, 7,
     "79804fd0053199256af1dee6baa3c44ee78fc1c597da9105d41e7d1fca910d6b"),
    ("sequential", 5, 2, 3000, 1,
     "ab63b3a13af25ece2b01cfb373ff6643aa56fa26d903444b8af80abd0eb4e849"),
    ("sequential", 3, 1, 2000, 2,
     "79cea467ce121f3bc226cc3897430e224fe4097cdffdb88cb96c59c01a144f59"),
    ("sequential", 4, 4, 300, 3,
     "b6bb0f65c9c0cef9ecae4d9a81daccdd8b4c8e5466464488ba09ed75db55a113"),
    ("sequential", 2, 2, 500, 4,
     "66f8b9f01aace46e7f6d12112b1c42d3cc89356be1b63cffd6e3647c69224d48"),
]


@pytest.mark.parametrize("scheme,m0,m,t,seed,digest", GOLDEN_EDGES)
def test_generate_edges_golden_hashes(scheme, m0, m, t, seed, digest):
    g = bg.generate(bg.RunConfig(m0=m0, m=m, t=t, seed=seed, scheme=scheme))
    got = hashlib.sha256(np.ascontiguousarray(g.edges, "<i8").tobytes()).hexdigest()
    assert got == digest


@pytest.mark.parametrize("scheme", ["holme-kim", "sequential"])
@pytest.mark.parametrize("m0,m,t", [(3, 1, 40), (5, 2, 40), (4, 4, 25)])
def test_generate_invariants(scheme, m0, m, t):
    g = bg.generate(bg.RunConfig(m0=m0, m=m, t=t, seed=5, scheme=scheme))
    g.check()
    assert g.total_degree == m0 * (m0 - 1) + 2 * m * t
    # vertices added at step i keep degree >= m forever
    assert all(g.degree[m0:] >= m)
    assert all(g.degree[:m0] >= m0 - 1)


def test_degree_histogram_k3():
    assert bg.degree_histogram(bg.new_complete(3)) == {2: 3}


def test_degree_histogram_after_one_step():
    s = bg.generate(bg.RunConfig(m0=3, m=1, t=1, seed=1))
    assert bg.degree_histogram(s) == {1: 1, 2: 2, 3: 1}


@pytest.mark.parametrize("scheme", ["holme-kim", "sequential"])
def test_degree_histogram_handshake(scheme):
    g = bg.generate(bg.RunConfig(m0=4, m=2, t=30, seed=8, scheme=scheme))
    hist = bg.degree_histogram(g)
    assert sum(hist.values()) == g.num_vertices
    assert sum(k * c for k, c in hist.items()) == 12 + 2 * 2 * 30


def test_enumeration_k3_m2():
    recv = one_step_law(bg.RunConfig(m0=3, m=2, t=0))
    assert recv == [Fraction(2, 3)] * 3


def test_enumeration_m1_is_plain_preferential():
    for scheme in bg.graph.SCHEMES:
        config = bg.RunConfig(m0=4, m=1, t=4, seed=2, scheme=scheme)
        degree = bg.generate(config).degree.tolist()
        assert one_step_law(config) == [Fraction(k, sum(degree)) for k in degree]


def test_enumeration_bound():
    # the bound counts the grown vertices too
    for m0, t in [(13, 0), (4, 9)]:
        with pytest.raises(bg.EnumerationBoundError, match="13 vertices"):
            one_step_law(bg.RunConfig(m0=m0, m=2, t=t))


# the enumeration grows with the first endpoint's degree to the power m - 1:
# at (m0=5, 5 steps) it takes 0.15-0.17 s at m=3 but 11-12 s at m=5 (2-vCPU
# Xeon), so m <= 3 here; verify_proposition's K_4, K_5 and K_4+2steps
# cover m = 4 and 5
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), m0=st.integers(3, 5), steps=st.integers(0, 5))
def test_proposition_on_random_states(seed, m0, steps):
    # one-step receive probability is exactly m * k_i / total, any reachable state
    m = int(np.random.default_rng(seed).integers(1, min(m0, 3) + 1))
    config = bg.RunConfig(m0=m0, m=m, t=steps, seed=seed)
    degree = bg.generate(config).degree.tolist()
    assert one_step_law(config) == [Fraction(m * k, sum(degree)) for k in degree]


def test_verify_proposition_suite():
    results = bg.graph.verify_proposition()
    assert results
    assert all(r["ok"] for r in results)
    runs = {(r["state"], r["scheme"], r["m"]) for r in results}
    assert len(runs) == len(results) == 20
    for state, m0 in [("K_3", 3), ("K_4", 4), ("K_5", 5), ("K_4+2steps", 4)]:
        assert {(state, "holme-kim", m) for m in range(1, m0 + 1)} <= runs
        assert (state, "sequential", 1) in runs


def test_verify_proposition_names_the_failing_vertex_by_label(monkeypatch):
    exact = bg.graph.one_step_law

    def last_vertex_off(config, enum_bound):
        recv = exact(config, enum_bound=enum_bound)
        recv[-1] += Fraction(1, 1000)
        return recv

    monkeypatch.setattr(bg.graph, "one_step_law", last_vertex_off)
    details = {(r["state"], r["scheme"], r["m"]): r["detail"]
               for r in bg.graph.verify_proposition()}
    # K_3's last index is initial vertex -1; K_4+2steps' is the vertex added at step 2
    assert details["K_3", "holme-kim", 1] == ("vertex -1: enumerated 1003/3000, "
                                               "proportional form 1/3")
    assert details["K_4+2steps", "holme-kim", 1].startswith("vertex 2: enumerated ")


def test_one_step_law_rejects_a_step_that_picks_a_vertex_twice(monkeypatch):
    def repeating(m0, m, t, uniforms, sequential):
        edges, degree = grow(m0, m, t, uniforms, sequential)
        edges[len(edges) - m:, 1] = edges[-1, 1]
        return edges, degree

    monkeypatch.setattr(bg.graph, "grow", repeating)
    with pytest.raises(bg.VerificationError, match=r"^state K_4\+2steps m=2 scheme=holme-kim: "):
        one_step_law(bg.RunConfig(m0=4, m=2, t=2, seed=12345))


def test_schemes_agree_in_law_at_m1():
    # with m = 1 both schemes attach purely preferentially
    trials = 4000
    counts = {"holme-kim": np.zeros(3), "sequential": np.zeros(3)}
    for scheme in counts:
        rng = np.random.default_rng(77)
        for _ in range(trials):
            edges, _ = grow(3, 1, 1, rng.random((1, 1)), scheme == "sequential")
            counts[scheme][edges[-1, 1]] += 1
    for scheme, c in counts.items():
        np.testing.assert_allclose(c / trials, [1 / 3] * 3, atol=0.03)


def test_sequential_k3_pairs_uniform():
    # K_3, m=2: by symmetry each unordered endpoint pair has probability 1/3
    rng = np.random.default_rng(5)
    seen = {}
    for _ in range(3000):
        edges, _ = grow(3, 2, 1, rng.random((1, 2)), True)
        pair = tuple(sorted(edges[-2:, 1]))
        seen[pair] = seen.get(pair, 0) + 1
    freqs = np.array(sorted(seen.values())) / 3000
    assert len(seen) == 3
    np.testing.assert_allclose(freqs, 1 / 3, atol=0.03)


def test_exports(tmp_path):
    g = bg.generate(bg.RunConfig(m0=3, m=1, t=5, seed=3))
    edge_path = tmp_path / "g.edges"
    hist_path = tmp_path / "g.hist.csv"
    output.write_edge_list(g, edge_path, header="# meta")
    output.write_degree_histogram(g, hist_path, header="# meta")
    lines = edge_path.read_text().strip().split("\n")
    assert lines[0] == "# meta"
    assert len(lines) == 1 + 8  # 3 initial + 5 grown edges
    first_edge = lines[1].split()
    assert first_edge == ["-3", "-2"]
    hist = hist_path.read_text().strip().split("\n")
    assert hist[1] == "k,count"
    total = sum(int(r.split(",")[1]) for r in hist[2:])
    assert total == 8
