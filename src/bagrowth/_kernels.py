"""Hot inner loops: graph growth and the degree-law forward roll.

Growth consumes pre-drawn uniform variates, m per step, so a fixed seed
gives a fixed graph. There is one kernel per scheme: holme-kim at m=1
resolves every target at once by pointer jumping over the endpoint
list; holme-kim at m>1 runs a Python step loop of O(m) work per step;
sequential draws each target with one NumPy cumulative sum over the
frozen degrees. ``grow`` dispatches between them.
"""

from array import array
from itertools import combinations

import numpy as np

NUMBA_ENABLED = False  # no JIT path exists; perfbench/job.py still records this flag
DBL_MIN = np.finfo(np.float64).tiny  # smallest normal double, 2.2e-308


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
    and the new top is returned. Mass only moves up, so a flushed cell
    changes no cell below it, while subnormal cells would slow every
    later step's arithmetic several times over.
    """
    while top > 0:
        for row in rows:
            if row[top] >= DBL_MIN:
                return top
        for row in rows:
            row[top] = 0.0
        top -= 1
    return top


def mixture_roll(m, m0, d, t):
    """Roll the vertex-summed degree-law recursion forward to time t.

    Returns (s_new, s_init): sums of per-vertex laws over the t new
    vertices and the m0 initial vertices. Network law = (s_new+s_init)/(t+m0).

    Both sums roll as one (2, kcap+1) array, stepped in place over
    [0, top+1], where top is the last degree at which either sum holds a
    normal double (>= DBL_MIN, 2.2e-308); the window grows by at most
    one cell per step. Mass that falls below DBL_MIN at the top is set
    to exact 0, where gradual underflow would send it a few hundred
    steps later anyway. Against the full-width roll, every cell holding
    >= 1e-280 keeps its bits and the L1 gap stays below t*DBL_MIN (both
    tested). Cost is O(t * top) with no subnormal arithmetic; top is
    about 4600 at t=1e4 and 11100 at t=5e4 (m=1, m0=3), against
    kcap = max(m, m0-1) + t.
    """
    kcap = max(m, m0 - 1) + t
    ks = np.arange(kcap + 1, dtype=np.float64)
    sums = np.zeros((2, kcap + 1))
    s_new, s_init = sums
    s_init[m0 - 1] = float(m0)
    up = np.empty(kcap + 1)
    stay = np.empty(kcap + 1)
    flux = np.empty((2, kcap))
    rows = (s_new, s_init)
    top = max(m, m0 - 1)
    for step in range(t):
        hi = top + 2
        roll_step(sums[:, :hi], ks[:hi], 2.0 * step + d, up[:hi], stay[:hi],
                  flux[:, :hi - 1])
        s_new[m] += 1.0
        top = flush_top(rows, hi - 1)
    return s_new, s_init


def _grow_holme_kim_m1(m0, t, u):
    """Holme-kim growth at m=1, without a step loop.

    Step s picks slot idx_s = int(u_s * tdeg_s) of the endpoint list.
    Even slots of new edges hold the new vertex, initial slots hold the
    clique, so only odd slots (the targets) are unknown, and each copies
    an earlier slot. Pointer jumping (src = src[src]) resolves every
    copy chain in O(log depth) passes of O(E) work each. Consumes the
    same uniforms as _grow_holme_kim and returns the same (edges, degree).
    """
    e_init = m0 * (m0 - 1) // 2
    edges = np.empty((e_init + t, 2), np.int64)
    edges[:e_init, 0], edges[:e_init, 1] = np.triu_indices(m0, 1)
    edges[e_init:, 0] = np.arange(m0, m0 + t)
    tdeg = 2 * (e_init + np.arange(t, dtype=np.int64))
    idx = np.minimum((u * tdeg).astype(np.int64), tdeg - 1)
    src = np.arange(2 * (e_init + t), dtype=np.int64)
    src[2 * e_init + 1::2] = idx
    while True:
        nxt = src[src]
        if np.array_equal(nxt, src):
            break
        src = nxt
    flat = edges.reshape(-1)  # slot p of the endpoint list is flat[p]
    edges[e_init:, 1] = flat[src[2 * e_init + 1::2]]
    degree = np.bincount(flat, minlength=m0 + t).astype(np.int64, copy=False)
    return edges, degree


BLOCK = 4096  # rows of uniforms unboxed per .tolist()


def _rows(uniforms):
    """The rows of uniforms as lists of Python floats, BLOCK rows at a time."""
    for lo in range(0, len(uniforms), BLOCK):
        yield from uniforms[lo:lo + BLOCK].tolist()


def _grow_holme_kim(m0, m, t, uniforms):
    """Holme-kim growth in O(m) work per step, for any m.

    Step s takes its first endpoint from slot int(u_0 * tdeg) of the
    endpoint list, then m-1 distinct neighbours of it by partial
    Fisher-Yates, with u_1..u_{m-1}, over the positions of its neighbour
    list, newest first: position p of cnt holds insertion index cnt-1-p.
    In insertion order, a grown vertex's neighbours are its m targets,
    read from the endpoint list, then ``later[v]``: the vertices that
    attached to it, in arrival order. An initial vertex's ``later``
    starts with the rest of the clique, ascending. The shuffle records
    only the displaced positions, so no neighbour list is walked.
    """
    e_init = m0 * (m0 - 1) // 2
    endpoints = array("q", bytes(16 * (e_init + m * t)))  # slot p of the endpoint list
    endpoints[:2 * e_init] = array("q", [v for pair in combinations(range(m0), 2)
                                         for v in pair])
    degree = array("q", [m0 - 1]) * m0 + array("q", bytes(8 * t))
    later = [array("q", [w for w in range(m0) if w != v]) for v in range(m0)] + [None] * t
    own_slot = 2 * e_init + 1 - 2 * m * m0  # + 2*(m*v + q): grown v's target q
    pos = tdeg = 2 * e_init
    for new, u in enumerate(_rows(uniforms), m0):
        idx = int(u[0] * tdeg)
        if idx >= tdeg:
            idx = tdeg - 1
        first = endpoints[idx]
        cnt = degree[first]
        own = m if first >= m0 else 0
        targets = [first]
        moved = {}  # position -> the position whose neighbour it now holds
        for j in range(m - 1):
            r = j + int(u[j + 1] * (cnt - j))
            if r >= cnt:
                r = cnt - 1
            p = moved.get(r, r)
            moved[r] = moved.get(j, j)
            q = cnt - 1 - p
            if q < own:
                targets.append(endpoints[own_slot + 2 * (m * first + q)])
            else:
                targets.append(later[first][q - own])
        for v in targets:
            endpoints[pos] = new
            endpoints[pos + 1] = v
            pos += 2
            degree[v] += 1
            if later[v] is None:
                later[v] = array("q", (new,))
            else:
                later[v].append(new)
        degree[new] = m
        tdeg += 2 * m
    return np.frombuffer(endpoints, np.int64).reshape(-1, 2), np.frombuffer(degree, np.int64)


def _grow_sequential(m0, m, t, uniforms):
    """Sequential growth: m draws proportional to the degrees frozen at step start.

    Draws are without replacement: a picked vertex's weight drops to 0.
    Each draw picks the first vertex whose cumulative weight exceeds
    u * total, by a binary search of the cumulative sum; the weights are
    integer degrees, so every sum is exact below 2**53. When u * total
    rounds up to the total, the last vertex still holding weight is picked.
    """
    e_init = m0 * (m0 - 1) // 2
    edges = np.empty((e_init + m * t, 2), np.int64)
    edges[:e_init, 0], edges[:e_init, 1] = np.triu_indices(m0, 1)
    edges[e_init:, 0] = np.repeat(np.arange(m0, m0 + t), m)
    degree = np.zeros(m0 + t)
    degree[:m0] = m0 - 1
    for step, row in enumerate(_rows(uniforms)):
        w = degree[:m0 + step].copy()
        targets = edges[e_init + m * step:e_init + m * (step + 1), 1]
        for j, u in enumerate(row):
            acc = np.cumsum(w)
            pick = int(np.searchsorted(acc, u * acc[-1], side="right"))
            if pick == len(w):
                pick = int(np.flatnonzero(w)[-1])
            targets[j] = pick
            w[pick] = 0.0
        degree[targets] += 1.0
        degree[m0 + step] = m
    return edges, degree.astype(np.int64)


def grow(m0, m, t, uniforms, sequential):
    """Grow K_{m0} for t steps; uniforms has shape (t, m), m variates per step.

    Vertices are internal indices 0..m0+t-1 (0..m0-1 initial). Returns
    int64 (edges, degree), edges (E, 2) in insertion order: the clique's
    pairs (i, j), i < j, ascending, then m rows (new, target) per step.
    """
    if sequential:
        return _grow_sequential(m0, m, t, uniforms)
    if m == 1:
        return _grow_holme_kim_m1(m0, t, uniforms[:, 0])
    return _grow_holme_kim(m0, m, t, uniforms)
