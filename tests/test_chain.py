from fractions import Fraction

import numpy as np
import pytest

import bagrowth as bg
from bagrowth import _kernels, output
from bagrowth._kernels import DBL_MIN
from bagrowth.chain import default_k_max
import roll_reference
from roll_reference import flush_top, roll_step

P1 = bg.ChainParams(m=1, m0=3)   # d = 6
P2 = bg.ChainParams(m=2, m0=5)   # N0 = 20, d = 10


def _times(law):
    return range(law.start_time, law.t_max + 1)


def test_params_validation():
    with pytest.raises(bg.ConfigurationError):
        bg.ChainParams(m=0, m0=3)
    with pytest.raises(bg.ConfigurationError):
        bg.ChainParams(m=4, m0=3)
    assert P2.n0 == 20
    assert P2.d == 10.0
    assert P1.d_exact == Fraction(6)


def test_evolve_point_mass_at_entry():
    law = bg.evolve_vertex(5, 5, P2)
    assert law.table[5 - law.start_time, 2] == 1.0


def test_evolve_one_step_values():
    law = bg.evolve_vertex(1, 2, P1)
    assert law.table[2 - law.start_time, 1] == pytest.approx(7 / 8, abs=1e-15)
    assert law.table[2 - law.start_time, 2] == pytest.approx(1 / 8, abs=1e-15)


def test_evolve_initial_vertex_starts_at_clique_degree():
    law = bg.evolve_vertex(-1, 0, P1)
    assert law.table[0 - law.start_time, 2] == 1.0


def test_rows_sum_to_one():
    for params, i, t_max in ((P1, 1, 1000), (P2, 3, 500), (P1, -2, 800)):
        law = bg.evolve_vertex(i, t_max, params)
        sums = np.array([row.sum() for row in law.table])
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)


def test_support_zeros_are_structural():
    law = bg.evolve_vertex(4, 60, P2)
    for t in (4, 10, 60):
        row = law.table[t - law.start_time]
        # below entry degree and above m + t - i: exact zeros
        assert np.all(row[: P2.m] == 0.0)
        hi = P2.m + (t - 4)
        assert np.all(row[hi + 1:] == 0.0)
        assert row[P2.m] > 0.0
    # above each row's window top (its last normal cell) every cell is
    # exactly 0; vertex 1 of P1 starts flushing subnormal mass near t=1000
    for law in (law, bg.evolve_vertex(1, 1200, P1)):
        for row in law.table:
            top = np.nonzero(row >= DBL_MIN)[0][-1]
            assert not row[top + 1:].any()


def _evolve_full_width(i, t_max, params):
    """Reference: the full-width loop roll of one vertex's law."""
    start, deg0 = (i, params.m) if i >= 1 else (0, params.m0 - 1)
    kmax = deg0 + (t_max - start)
    table = np.zeros((t_max - start + 1, kmax + 1))
    table[0, deg0] = 1.0
    ks = np.arange(kmax + 1, dtype=np.float64)
    row = table[0].copy()
    for idx, t in enumerate(range(start, t_max)):
        up = ks / (2.0 * t + params.d)
        nxt = row * (1.0 - up)
        nxt[1:] += row[:-1] * up[:-1]
        table[idx + 1] = nxt
        row = nxt
    return table


def test_evolve_vertex_flushes_only_subnormal_mass():
    got = bg.evolve_vertex(1, 3700, P1).table
    want = _evolve_full_width(1, 3700, P1)
    assert got.shape == want.shape
    big = want >= 1e-280
    assert np.array_equal(got[big], want[big])
    assert not np.array_equal(got, want)  # the case flushes
    gaps = np.abs(got - want).sum(axis=1)
    assert np.all(gaps <= np.arange(len(gaps)) * DBL_MIN)


def test_evolve_vertex_bits_without_underflow():
    for i, t_max, params in ((4, 60, P2), (-2, 400, P1), (1, 2, P1)):
        assert np.array_equal(bg.evolve_vertex(i, t_max, params).table,
                              _evolve_full_width(i, t_max, params))


def _evolve_dense(i, t_max, params):
    """Reference: the dense (steps, k_max + 1) roll, one roll_step per step."""
    start, deg0 = (i, params.m) if i >= 1 else (0, params.m0 - 1)
    kmax = deg0 + (t_max - start)
    table = np.zeros((t_max - start + 1, kmax + 1))
    table[0, deg0] = 1.0
    ks = np.arange(kmax + 1, dtype=np.float64)
    row = table[:1].copy()
    up, stay, flux = np.empty(kmax + 1), np.empty(kmax + 1), np.empty((1, kmax))
    top = deg0
    for idx, t in enumerate(range(start, t_max)):
        hi = top + 2
        roll_step(row[:, deg0:hi], ks[deg0:hi], 2.0 * t + params.d,
                  up[deg0:hi], stay[deg0:hi], flux[:, deg0:hi - 1])
        top = flush_top(tuple(row), hi - 1)
        table[idx + 1, deg0:top + 1] = row[0, deg0:top + 1]
    return table


class _DenseLaw:
    """A law read from a dense table: passage_curve's reference reader."""

    def __init__(self, i, t_max, params, table):
        self.vertex, self.t_max, self.params, self.table = i, t_max, params, table

    def column(self, k):
        return self.table[:, k]


DENSE_CASES = [  # (i, t_max, params, ks, ts); None: every k, every t
    (1, 3700, P1, (1, 2, 300, 2000, 2520, 2521, 2522, 3700), (1, 2, 1000, 2500, 3700)),
    (4, 60, P2, None, None),
    (-2, 400, P1, None, None),
    (1, 1200, P1, None, None),
    (2, 90, bg.ChainParams(m=3, m0=4), None, None),
]


@pytest.mark.parametrize("i,t_max,params,ks,ts", DENSE_CASES)
def test_band_keeps_the_dense_tables_bits(i, t_max, params, ks, ts):
    law = bg.evolve_vertex(i, t_max, params)
    dense = _evolve_dense(i, t_max, params)
    start, deg0 = law.start_time, law.start_degree
    ks = range(-1, law.k_max + 2) if ks is None else ks
    ts = _times(law) if ts is None else ts
    table = law.table
    assert table.tobytes() == dense.tobytes()
    assert not table.flags.writeable
    for k in ks:
        want = dense[:, k] if 0 <= k <= law.k_max else np.zeros(len(dense))
        assert law.column(k).tobytes() == want.tobytes()
        if deg0 < k <= law.k_max:
            got = bg.passage_curve(k, i, t_max, params, law=law)
            ref = bg.passage_curve(k, i, t_max, params, law=_DenseLaw(i, t_max, params, dense))
            assert got.tobytes() == ref.tobytes()
    for t in ts:
        for k in (deg0 - 1, deg0, deg0 + (t - start) // 2, deg0 + t - start):
            assert table[t - start, k] == dense[t - start, k]


@pytest.mark.parametrize("i,t_max,params,ks,ts", DENSE_CASES)
def test_capped_column_keeps_the_tables_bits(i, t_max, params, ks, ts):
    # column(k) of a fresh law rolls degrees start..k+1, k+1 absorbing;
    # roll promises the full roll's bits only at >= 1e-280, yet here every
    # cell keeps them, subnormal and flushed ones included. At t_max = 1200
    # (~9 ms a column) every 10th k from 995 up, where the flush acts from
    # t = 996 on, the last three, and every 50th below 995.
    table = bg.evolve_vertex(i, t_max, params).table
    k_max = table.shape[1] - 1
    if ks is None:
        ks = range(-1, k_max + 2)
        if t_max == 1200:
            ks = [*range(-1, 995, 50), *range(995, k_max - 1, 10), *range(k_max - 1, k_max + 2)]
    for k in ks:
        want = table[:, k] if 0 <= k <= k_max else np.zeros(len(table))
        assert bg.evolve_vertex(i, t_max, params).column(k).tobytes() == want.tobytes()


@pytest.mark.parametrize("drop,match", [(1e-9, "sums to"), (5e-13, "mean degree")])
def test_per_vertex_rolls_check_mass_and_mean(monkeypatch, drop, match):
    # a roll that takes drop from the top cell in its last step: the
    # column's and the table's sum checks see 1e-9, only the table's mean
    # check sees 5e-13 (~100 * drop against a mean of 5.2)
    from bagrowth import chain

    roll = chain.roll

    def leaky(cells, k0, first, last, d, top):
        for s, top in enumerate(roll(cells, k0, first, last, d, top), first + 1):
            if s == last:
                cells[top, 0] -= drop
            yield top

    monkeypatch.setattr(chain, "roll", leaky)
    law = bg.evolve_vertex(1, 100, P1)
    if match == "sums to":
        with pytest.raises(bg.VerificationError, match="vertex 1 at t=100 sums to"):
            law.column(5)
    else:
        law.column(5)
    with pytest.raises(bg.VerificationError, match=match):
        law.table


B = _kernels.ROLL_BLOCK
H = B // 2  # mid-block


@pytest.mark.parametrize("span", [0, 1, H - 1, H, H + 1, B - 1, B, B + 1, 3000])
@pytest.mark.parametrize("m,m0", [(1, 2), (1, 3), (2, 4), (3, 5), (3, 3), (2, 2)])
def test_evolve_vertex_matches_per_step_reference(m, m0, span, flushes):
    # the reference's band expanded to dense rows, every cell, across block
    # edges; at span 3000 the reference flushes subnormal mass at the top
    params = bg.ChainParams(m=m, m0=m0)
    for i in (-m0, -1, 1, 5):
        t_max = max(i, 0) + span
        values, offsets = roll_reference.evolve_band(i, t_max, params)
        assert any(flushes) == (span == 3000)
        law = bg.evolve_vertex(i, t_max, params)
        deg0, table = law.start_degree, law.table
        assert table.shape == (len(offsets) - 1, law.k_max + 1)
        dense = np.empty(law.k_max + 1)
        for row, lo, hi in zip(table, offsets[:-1], offsets[1:]):  # one dense row at a time
            dense[:] = 0.0
            dense[deg0:deg0 + hi - lo] = values[lo:hi]
            assert row.tobytes() == dense.tobytes()
        # a capped roll per column; at span 3000 (~25 ms a column) only
        # vertex 1's cell above the last row's top, flushed in the table
        top = deg0 + offsets[-1] - offsets[-2] - 1
        ks = range(-1, law.k_max + 2) if span < 3000 else (top + 1,) if i == 1 else ()
        for k in ks:
            want = table[:, k] if 0 <= k <= law.k_max else np.zeros(len(table))
            assert bg.evolve_vertex(i, t_max, params).column(k).tobytes() == want.tobytes()


def test_band_holds_only_the_normal_cells():
    table = bg.evolve_vertex(1, 3700, P1).table
    tops = [np.nonzero(row)[0][-1] for row in table]  # each row's last non-zero cell
    assert np.all(table[np.arange(len(table)), tops] >= DBL_MIN)
    assert tops[0] == P1.m and np.all(np.diff(tops) <= 1)


@pytest.mark.parametrize("k,t_max,peak_mb", [(300, 60_000, 8.0), (2000, 3700, 1.0)])
def test_passage_curve_rolls_in_memory_linear_in_time(k, t_max, peak_mb):
    # no law given: the roll holds degrees m..k only; a band of every row
    # asked for 14.4 GB at t_max = 6e4 and the dense table 110 MB at 3700
    import tracemalloc

    tracemalloc.start()
    try:
        curve = bg.passage_curve(k, 1, t_max, P1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(curve) == t_max and np.all((curve >= 0.0) & (curve < 1.0))
    assert peak < peak_mb * 2**20


def test_evolve_errors():
    with pytest.raises(bg.ConfigurationError):
        bg.evolve_vertex(10, 5, P1)
    with pytest.raises(bg.ConfigurationError):
        bg.evolve_vertex(0, 5, P1)


def test_exact_rational_cross_check():
    law = bg.evolve_vertex(1, 64, P2)
    table = law.table
    rows = roll_reference.evolve_vertex_exact(1, 64, P2)
    for ti, row in enumerate(rows):
        assert sum(row.values()) == 1  # exactly stochastic
        for k, fr in row.items():
            assert abs(table[ti, k] - float(fr)) < 1e-13


@pytest.mark.parametrize("law_of,why", [
    (lambda: bg.evolve_vertex(2, 100, P1), "vertex 2 "),  # another vertex
    (lambda: bg.evolve_vertex(1, 100, bg.ChainParams(m=2, m0=3)), "m=2"),  # other params
    (lambda: bg.evolve_vertex(1, 50, P1), "t=50 "),  # too short
], ids=["vertex", "params", "short"])
def test_passage_refuses_a_law_of_another_chain(law_of, why):
    law = law_of()
    with pytest.raises(bg.ConfigurationError, match=why):
        bg.passage_curve(5, 1, 100, P1, law=law)


def test_passage_takes_a_law_that_reaches_the_last_time_read():
    # the sum reads the law up to t_max - 1
    law = bg.evolve_vertex(1, 99, P1)
    want = bg.passage_curve(5, 1, 100, P1)
    assert bg.passage_curve(5, 1, 100, P1, law=law).tobytes() == want.tobytes()


def test_passage_single_term():
    # t = i+1, k = m+1: one first-passage term, empty survival product
    for params, i in ((P1, 4), (P2, 7)):
        want = params.m / (2 * i + params.d)
        t = i + 1
        got = bg.passage_curve(params.m + 1, i, t, params)[t - i]
        assert got == pytest.approx(want, abs=1e-15)


def test_passage_above_support_zero():
    assert bg.passage_curve(10, 3, 5, P1)[5 - 3] == 0.0  # k > m + t - i


def test_passage_matches_evolution_small():
    for params in (P1, P2):
        for i in (1, 2, 7, -1):
            law = bg.evolve_vertex(i, 60, params)
            law.table  # rolled once; passage_curve and column read it
            deg0 = law.start_degree
            for k in range(deg0 + 1, deg0 + 60 - law.start_time + 1):
                curve = bg.passage_curve(k, i, 60, params, law=law)
                direct = law.column(k)
                np.testing.assert_allclose(curve, direct, atol=1e-13)


def test_passage_overflow_regime_matches_evolution():
    # log-survival sum far past exp's range: -L reaches ~2.7e3 here
    params = bg.ChainParams(m=1, m0=3)
    law = bg.evolve_vertex(1, 3700, params)
    curve = bg.passage_curve(2000, 1, 3700, params, law=law)
    np.testing.assert_allclose(curve, law.column(2000), rtol=0, atol=1e-12)


def test_network_distribution_normalization_and_mean():
    for params, t in ((P1, 500), (P2, 400)):
        dist = bg.network_distribution(t, params)
        assert dist.probs.sum() + dist.tail == pytest.approx(1.0, abs=1e-12)
        assert np.all(dist.probs >= 0.0)
        want_mean = (params.n0 + 2 * params.m * t) / (t + params.m0)
        assert dist.mean_degree == pytest.approx(want_mean, abs=1e-9)


def test_network_distribution_pbar_averages_new_vertices():
    # the roll's new-vertex line s_new / t is the mean of the new vertices' laws
    t = 200
    s_new, _, _ = _kernels.mixture_roll(P1.m, P1.m0, P1.d, t)
    acc = np.zeros(len(s_new))
    for i in range(1, t + 1):
        law = bg.evolve_vertex(i, t, P1)
        row = law.table[t - law.start_time]
        acc[: len(row)] += row
    np.testing.assert_allclose(s_new / t, acc / t, atol=1e-12)


def test_network_distribution_errors():
    with pytest.raises(bg.ConfigurationError):
        bg.network_distribution(0, P1)
    with pytest.raises(bg.ConfigurationError):
        bg.network_distribution(10, P2, k_max=1)


def test_network_distribution_checks_mean_degree(monkeypatch):
    from bagrowth import chain

    roll = chain.mixture_roll

    def shifted_roll(*args, **kwargs):
        s_new, s_init, moment = roll(*args, **kwargs)
        s_new[P1.m: P1.m + 2] += np.array([-1e-9, 1e-9])  # same sum, higher mean
        return s_new, s_init, moment

    monkeypatch.setattr(chain, "mixture_roll", shifted_roll)
    with pytest.raises(bg.VerificationError, match="mean degree"):
        bg.network_distribution(50, P1)


@pytest.mark.parametrize("window", [False, True])
def test_network_distribution_rolls_through_the_module_attribute(monkeypatch, window):
    # perfbench wraps chain.mixture_roll by name and unpacks exactly 4
    # positional arguments; the cap must come as a keyword
    from bagrowth import chain

    calls = []
    roll = chain.mixture_roll

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return roll(*args, **kwargs)

    monkeypatch.setattr(chain, "mixture_roll", recording)
    bg.network_distribution(300, P1, 10, cap=11 if window else None)
    assert calls == [((1, 3, P1.d, 300), {"cap": 11 if window else 302})]


WINDOW_CASES = [  # (m, m0, t, k_max); None is the default k_max
    (1, 3, 300, 1), (2, 4, 300, 2), (1, 5, 200, 1),   # k_max = m
    (1, 3, 2000, 10),                                 # 1.5% of the mass above k_max
    (1, 3, 3000, None), (2, 5, 300, None), (3, 5, 500, None),
    (1, 3, 300, 300),                                 # k_max + 1 at the top degree
    (1, 3, 300, 301), (2, 5, 300, 10**5),             # k_max at or past the top
]


@pytest.mark.parametrize("m,m0,t,k_max", WINDOW_CASES)
def test_window_law_matches_full_roll(m, m0, t, k_max):
    params = bg.ChainParams(m=m, m0=m0)
    k = default_k_max(t, m) if k_max is None else k_max
    win = bg.network_distribution(t, params, k_max, cap=k + 1)
    full = bg.network_distribution(t, params, k_max)
    k_max = int(win.k[-1])
    direct = full.probs_full[k_max + 1:].sum()  # the mass above k_max
    assert win.tail >= 0.0 and full.tail >= 0.0
    assert win.tail == pytest.approx(direct, rel=1e-12, abs=0.0)
    assert full.tail == direct
    assert win.mean_degree == pytest.approx(full.mean_degree, rel=1e-12)
    assert np.array_equal(win.k, full.k)
    if k_max + 1 < max(m, m0 - 1) + t:
        assert len(win.probs_full) == k_max + 2
        assert win.probs_full[-1] == win.tail
        big = full.probs_full[:k_max + 1] >= 1e-280
        assert np.array_equal(win.probs_full[:k_max + 1][big], full.probs_full[:k_max + 1][big])
        assert np.array_equal(win.probs[big[m:]], full.probs[big[m:]])
    else:  # no cap: the same roll
        assert (win.tail == 0.0) == (k_max >= len(full.probs_full) - 1)
        assert win.probs_full.tobytes() == full.probs_full.tobytes()
        assert win.probs.tobytes() == full.probs.tobytes()
        assert win.mean_degree == full.mean_degree


@pytest.mark.parametrize("bad,match", [("moment", "mean degree"), ("mass", "sums to")])
def test_window_law_keeps_both_checks(monkeypatch, bad, match):
    from bagrowth import chain

    roll = chain.mixture_roll

    def leaky_roll(*args, **kwargs):
        s_new, s_init, moment = roll(*args, **kwargs)
        if bad == "mass":
            s_new[-1] *= 1.0 + 1e-9
        return s_new, s_init, moment * (1.0 + 1e-9)

    monkeypatch.setattr(chain, "mixture_roll", leaky_roll)
    with pytest.raises(bg.VerificationError, match=match):
        bg.network_distribution(2000, P1, 10, cap=11)


def _network_distribution_naive(t, params):
    """O(t^2) reference: the network law averaged vertex by vertex over evolve_vertex."""
    acc = np.zeros(max(params.m, params.m0 - 1) + t + 1)
    for i in [*range(-params.m0, 0), *range(1, t + 1)]:
        law = bg.evolve_vertex(i, t, params)
        row = law.table[t - law.start_time]
        acc[:len(row)] += row
    return acc / (t + params.m0)


def test_fast_solver_matches_naive_t300():
    # required before trusting the rolled solver at larger t
    for params in (P1, P2):
        naive = _network_distribution_naive(300, params)
        fast = bg.network_distribution(300, params)
        np.testing.assert_allclose(fast.probs_full, naive, atol=1e-12)


def test_closed_form_pmt_matches_solver():
    for params in (P1, P2):
        for t in (1, 2, 3, 17, 100, 500):
            roll = bg.network_distribution(t, params).probs_full[params.m] \
                if t >= 1 else None
            assert bg.closed_form_pmt(t, params) == pytest.approx(roll, abs=1e-10)


def test_closed_form_p_m1_is_the_rolled_step():
    # P(m, 1) in closed form keeps the bits of one rolled step of an initial
    # vertex, on each branch: m == m0 - 1, m == m0 and m < m0 - 1
    for m0 in range(2, 13):
        for m in range(1, m0 + 1):
            params = bg.ChainParams(m=m, m0=m0)
            rolled = bg.evolve_vertex(-1, 1, params).table[1, m]
            assert bg.closed_form_pmt(1, params) == (1.0 + m0 * rolled) / (1 + m0)


def test_closed_form_pmt_limit():
    assert bg.closed_form_pmt(200_000, P1) == pytest.approx(2 / 3, abs=1e-3)
    assert bg.closed_form_pmt(200_000, P2) == pytest.approx(1 / 2, abs=1e-3)


def test_min_degree_prob_converges():
    dist = bg.network_distribution(2000, P1)
    assert abs(dist.probs_full[1] - 2 / 3) < 0.01


def test_exports(tmp_path):
    dist = bg.network_distribution(100, P1)
    analytic = lambda k: bg.steady_state(k, 1)
    csv_path = tmp_path / "d.csv"
    output.write_distribution_csv(dist, analytic, csv_path, header="# m=1 m0=3 t=100")
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "# m=1 m0=3 t=100"
    assert lines[1] == "k,p_exact,p_analytic,abs_gap"
    k, pe, pa, gap = lines[2].split(",")
    assert int(k) == 1
    assert abs(float(pe) - float(pa)) == pytest.approx(float(gap), abs=1e-12)

    json_path = tmp_path / "d.json"
    output.write_distribution_json(dist, analytic, json_path)
    import json
    obj = json.loads(json_path.read_text())
    assert obj["m"] == 1 and obj["t"] == 100
    assert len(obj["k"]) == len(obj["p_exact"]) == len(obj["abs_gap"])
