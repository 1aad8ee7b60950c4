"""Hot inner loops: graph growth and the degree-law forward roll.

Growth consumes pre-drawn uniform variates, m per step, so a fixed seed
gives a fixed graph. Holme-kim growth at m=1 resolves every target at
once by pointer jumping over the endpoint list; every other case runs
the NumPy/Python step loop ``_grow_impl``. Both give the same graph for
the same uniforms.
"""

import numpy as np

NUMBA_ENABLED = False  # no JIT path exists; perfbench/job.py still records this flag
DBL_MIN = np.finfo(np.float64).tiny  # smallest normal double, 2.2e-308


def _grow_impl(m0, m, t, uniforms, sequential):
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
    """_grow_impl for holme-kim at m=1, without the step loop.

    Step s picks slot idx_s = int(u_s * tdeg_s) of the endpoint list.
    Even slots of new edges hold the new vertex, initial slots hold the
    clique, so only odd slots (the targets) are unknown, and each copies
    an earlier slot. Pointer jumping (src = src[src]) resolves every
    copy chain in O(log depth) passes of O(E) work each. Consumes the
    same uniforms as _grow_impl and returns the same (edges, degree).
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


def grow(m0, m, t, uniforms, sequential):
    """Grow a graph as _grow_impl does; holme-kim at m=1 skips the step loop."""
    if m == 1 and not sequential:
        return _grow_holme_kim_m1(m0, t, uniforms[:, 0])
    return _grow_impl(m0, m, t, uniforms, sequential)
