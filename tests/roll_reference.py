"""Step-at-a-time references for the blocked degree-law rolls.

``roll_step`` and ``flush_top`` are the kernel that
``_kernels.mixture_roll`` and the per-vertex law ran before their
steps shared one transition table per block: five ufuncs and a flush per
step, on a window that ends at top + 1 (or at an absorbing cap). The
tests pin both rolls to these references on every cell.
``evolve_vertex_exact`` is the same chain in rational arithmetic.
``DenseLaw`` reads a dense table as ``passage_curve`` reads a law.
"""

from fractions import Fraction

import numpy as np

from bagrowth._kernels import DBL_MIN


def roll_step(seg, ks, den, up, stay, flux):
    """One step of the degree chain, in place on the rows of seg.

    seg is a (rows, w) window of laws over the degrees ks (length w);
    mass at k moves to k+1 with probability k/den. up, stay (length w)
    and flux ((rows, w-1)) are scratch buffers. Each cell gets
    seg[k]*stay[k] + seg[k-1]*up[k-1], the same operations in the same
    order as a freshly allocated ``nxt = seg*stay; nxt[1:] += ...``, so
    the bits match that form. The first cell receives no flux from
    below, so no mass may sit below the window, and the last cell must
    lie past the top cell holding mass, to receive its flux.
    """
    np.divide(ks, den, out=up)
    np.subtract(1.0, up, out=stay)
    np.multiply(seg[:, :-1], up[:-1], out=flux)
    np.multiply(seg, stay, out=seg)
    np.add(seg[:, 1:], flux, out=seg[:, 1:])


def flush_top(rows, top):
    """Lower the window top past cells below DBL_MIN in every row of rows.

    rows is a sequence of 1-D laws. The flushed cells are set to exact 0
    and the new top is returned.
    """
    while top > 0:
        for row in rows:
            if row[top] >= DBL_MIN:
                return top
        for row in rows:
            row[top] = 0.0
        top -= 1
    return top


def mixture_roll(m, m0, d, t, cap=None):
    """(s_new, s_init) of ``_kernels.mixture_roll``, one roll_step per step.

    With cap, the window ends at cell cap, whose degree is taken as 0 so
    that it keeps its mass and collects the flux from below. The carried
    moment is not computed here.
    """
    last = max(m, m0 - 1) + t if cap is None else cap
    ks = np.arange(last + 1, dtype=np.float64)
    if cap is not None:
        ks[cap] = 0.0
    sums = np.zeros((2, last + 1))
    s_new, s_init = sums
    start = min(m0 - 1, last)
    s_init[start] = float(m0)
    up = np.empty(last + 1)
    stay = np.empty(last + 1)
    flux = np.empty((2, last))
    rows = (s_new, s_init)
    top = max(m, start)
    for step in range(t):
        hi = min(top + 2, last + 1)
        roll_step(sums[:, :hi], ks[:hi], 2.0 * step + d, up[:hi], stay[:hi],
                  flux[:, :hi - 1])
        s_new[m] += 1.0
        top = flush_top(rows, hi - 1)
    return s_new, s_init


def evolve_band(i, t_max, params):
    """(values, offsets): vertex i's rows over [start_degree, top], one roll_step per step."""
    start, deg0 = (i, params.m) if i >= 1 else (0, params.m0 - 1)
    kmax = deg0 + (t_max - start)
    ks = np.arange(kmax + 1, dtype=np.float64)
    row = np.zeros((1, kmax + 1))
    row[0, deg0] = 1.0
    up, stay, flux = np.empty(kmax + 1), np.empty(kmax + 1), np.empty((1, kmax))
    bands = [row[0, deg0:deg0 + 1].copy()]
    top = deg0
    for t in range(start, t_max):
        hi = top + 2
        roll_step(row[:, deg0:hi], ks[deg0:hi], 2.0 * t + params.d,
                  up[deg0:hi], stay[deg0:hi], flux[:, deg0:hi - 1])
        top = flush_top(tuple(row), hi - 1)
        bands.append(row[0, deg0:top + 1].copy())
    offsets = np.concatenate([[0], np.cumsum([len(b) for b in bands])]).astype(np.int64)
    return np.concatenate(bands), offsets


def evolve_vertex_exact(i, t_max, params):
    """Rational-arithmetic twin of ``chain.evolve_vertex`` (small t only).

    Returns a list of dicts {k: Fraction} per time start..t_max; used as
    a cross-check oracle for the floating-point roll.
    """
    start, deg0 = (i, params.m) if i >= 1 else (0, params.m0 - 1)
    d = Fraction(params.n0, params.m)
    rows = [{deg0: Fraction(1)}]
    cur = rows[0]
    for t in range(start, t_max):
        den = 2 * t + d
        nxt = {}
        for k, p in cur.items():
            up = Fraction(k) / den
            nxt[k] = nxt.get(k, Fraction(0)) + p * (1 - up)
            nxt[k + 1] = nxt.get(k + 1, Fraction(0)) + p * up
        cur = {k: v for k, v in nxt.items() if v != 0}
        rows.append(cur)
    return rows


class DenseLaw:
    """A law read from a dense table: passage_curve's reference reader.

    column(k) is a view of the table's column k, and zeros outside its
    columns, as ``DegreeLaw.column`` reads outside the support.
    """

    def __init__(self, i, t_max, params, table):
        self.vertex, self.t_max, self.params, self.table = i, t_max, params, table

    def column(self, k):
        return self.table[:, k] if 0 <= k < self.table.shape[1] else np.zeros(len(self.table))
