"""Hot inner loops: graph growth and the degree-law forward roll.

Growth consumes pre-drawn uniform variates, m per step, so a fixed seed
gives a fixed graph. There is one kernel per scheme: holme-kim at m=1
resolves every target at once by pointer jumping over the endpoint
list; holme-kim at m>1 writes the new vertex's half of every grown edge
and each block's first-pick slots in NumPy, so its Python step loop, of
O(m) work per step, only draws neighbours and writes targets, reading a
vertex's degree from the length of its neighbour record (no degree
array; both holme-kim kernels return the endpoint list's bincount);
sequential draws each target by a descent of a Fenwick tree over the
integer degrees. ``grow`` dispatches between them.
"""

from array import array
from itertools import count

import numpy as np

NUMBA_ENABLED = False  # no JIT path exists; perfbench/job.py still records this flag
DBL_MIN = np.finfo(np.float64).tiny  # smallest normal double, 2.2e-308
# Steps per transition table: longer blocks build fewer tables, but the buffer
# holds 2*ROLL_BLOCK doubles per cell (at 32, passage_curve passes its 1 MB bound)
ROLL_BLOCK = 16


def _flush_top(lines, top):
    """Lower top past the cells below DBL_MIN in every line, setting them to 0."""
    while top > 0:
        for line in lines:
            if line[top] >= DBL_MIN:
                return top
        for line in lines:
            line[top] = 0.0
        top -= 1
    return top


def roll(cells, k0, first, last, d, top):
    """Step the laws in cells in place from time first to last, yielding top per step.

    cells is a C-contiguous (n, r) float64 array, cell-major: law i holds
    degree k0 + c at cells[c, i] and is zero above cell top. A step from
    time s moves mass at k to k+1 with probability k/(2s + d); the last
    cell absorbs (up 0, stay 1), so it gains the flux out of the cell
    below and loses none. Then top is lowered past cells below DBL_MIN
    (2.2e-308) in every law, which are set to exact 0, so no step runs
    on subnormals. Blocks of ROLL_BLOCK (16) steps share one table of up
    = k/(2s + d), stay = 1 - up (each k repeated r times) over cells
    0..min(top + steps, n - 1); a step is three in-place ufuncs on 1-D
    contiguous views of the flat cells, each cell getting x[k]*stay[k] +
    x[k-1]*up[k-1]. Cells above top + 1 hold +0 and keep it, so the
    window changes no bit; its views are built only when its width
    changes, never once it reaches the absorbing cell. The flush reads
    cell top + 1; once top reaches the absorbing cell it is skipped,
    since it could change nothing: that cell only grows.
    """
    if not (isinstance(cells, np.ndarray) and cells.ndim == 2
            and cells.dtype == np.float64 and cells.flags.c_contiguous):
        raise ValueError("cells must be a 2-D C-contiguous float64 array")
    edge, r = cells.shape[0] - 1, cells.shape[1]  # edge: the absorbing cell
    lines = list(cells.T)  # strided views, for the flush's scalar reads
    flat = cells.reshape(-1)  # a view, never a copy, given the check above
    kr = np.repeat(np.arange(k0, k0 + edge + 1, dtype=np.float64), r)
    kr[edge * r:] = 0.0  # the absorbing cell: up 0, stay 1
    buf = np.empty(2 * ROLL_BLOCK * len(kr))  # every block's tables; no page faults per block
    mul, add = np.multiply, np.add  # a positional out skips keyword parsing
    n = 0
    for lo in range(first, last, ROLL_BLOCK):
        steps = min(ROLL_BLOCK, last - lo)
        width = (min(top + steps, edge) + 1) * r
        if width != n:  # never again once the window reaches the absorbing cell
            n = width
            seg, below, above = flat[:n], flat[:n - r], flat[r:n]
            flux = np.empty(n - r)
            up, stay = buf[:2 * ROLL_BLOCK * n].reshape(2, ROLL_BLOCK, n)
            pairs = list(zip(up[:, :n - r], stay))
        np.divide(kr[:n], (2.0 * np.arange(lo, lo + steps) + d)[:, None], out=up[:steps])
        np.subtract(1.0, up[:steps], out=stay[:steps])
        for up_b, stay_b in pairs[:steps]:
            mul(below, up_b, flux)
            mul(seg, stay_b, seg)
            add(above, flux, above)
            if top != edge:
                top = _flush_top(lines, top + 1)
            yield top


def mixture_roll(m, m0, d, t, *, cap=None):
    """Roll the vertex-summed degree-law recursion forward to time t.

    Returns (s_new, s_init, moment): sums of per-vertex laws over the t
    new vertices and the m0 initial vertices over cells 0..cap, and the
    first moment of the mass in cell cap. Network law =
    (s_new+s_init)/(t+m0). Both roll as the two lines of one (cap + 1,
    2) array through ``roll``, each new vertex added at s_new[m] after
    its step, and cost O(t * (min(cap, top) + 1)), top being the last
    cell holding a normal double: about 4600 at t=1e4 and 11100 at
    t=5e4 (m=1, m0=3). s_new and s_init are returned as contiguous copies.

    Cell cap is absorbing: it holds the sum of every cell >= cap, and the
    cells below it keep their bits. cap defaults to kcap = max(m, m0-1)
    + t, the top reachable degree, which no mass reaches before the last
    step, so the default is the full roll, bit for bit; any m < cap <=
    kcap may be given. Cells >= 1e-280 keep the full-width roll's bits
    and the L1 gap stays below t*DBL_MIN (all tested). moment is
    sum_{k >= cap} k * (s_new + s_init)[k], carried per step as M <- M *
    (1 + 1/den) + cap * flux: mass at k moves up with probability k/den,
    and flux is the mass the step moves into cap. It stays exactly 0,
    and is not updated, while cell cap - 1 is empty.
    """
    kcap = max(m, m0 - 1) + t
    if cap is None:
        cap = kcap
    elif not m < cap <= kcap:
        raise ValueError(f"cap {cap} outside ({m}, {kcap}]")
    sums = np.zeros((cap + 1, 2))
    start = min(m0 - 1, cap)
    sums[start, 1] = float(m0)
    moment = float((m0 - 1) * m0) if start == cap else 0.0
    feed, flat, new = cap - 1, sums.reshape(-1), 2 * m
    fed = sums[feed]  # a view of cell cap - 1
    a, b = fed.tolist()
    held = a + b  # cell cap - 1 before the step
    for s, top in enumerate(roll(sums, 0, 0, t, d, max(m, start))):
        flat[new] += 1.0  # the step's new vertex; top >= m without it, so the flush agrees
        if held or moment:
            den = 2.0 * s + d
            moment += moment / den + cap * (held * feed / den)
        a, b = fed.tolist() if top >= feed else (0.0, 0.0)
        held = a + b
    s_new, s_init = np.ascontiguousarray(sums.T)
    return s_new, s_init, moment


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


BLOCK = 1024  # steps of uniforms unboxed per .tolist()


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
    attached to it, in arrival order (None until one does). An initial
    vertex's ``later`` starts with the rest of the clique, ascending.
    So no degree is stored: cnt is m + len(later[v]) for a grown vertex
    and len(later[v]) for an initial one. The shuffle records only the
    displaced positions, so no neighbour list is walked.

    What needs no earlier step is written before the loop: the clique,
    the new vertex's half of every grown edge and, per block of BLOCK
    steps, every first-pick slot as one vector (a slot below tdeg was
    written by an earlier step). The loop writes each target straight
    into its endpoint slot and appends the new vertex to its ``later``.
    The first neighbour draw needs no record of displaced positions,
    since nothing has moved yet; draws 2..m-1 keep one in ``moved``.
    The degree is the endpoint list's bincount.
    """
    e_init = m0 * (m0 - 1) // 2
    endpoints = array("q", bytes(16 * (e_init + m * t)))  # slot p of the endpoint list
    ends = np.frombuffer(endpoints, np.int64)  # a view, for the writes before the loop
    ends[:2 * e_init:2], ends[1:2 * e_init:2] = np.triu_indices(m0, 1)
    ends[2 * e_init:].reshape(t, 2 * m)[:, ::2] = np.arange(m0, m0 + t)[:, None]
    later = [array("q", [w for w in range(m0) if w != v]) for v in range(m0)] + [None] * t
    own_slot = 2 * e_init + 1 - 2 * m * m0  # + 2*(m*v + q): grown v's target q
    pos = 2 * e_init + 1  # the next target slot
    for lo in range(0, t, BLOCK):
        rows = uniforms[lo:lo + BLOCK]
        tdeg = 2 * (e_init + m * np.arange(lo, lo + len(rows), dtype=np.int64))
        slots = np.minimum((rows[:, 0] * tdeg).astype(np.int64), tdeg - 1).tolist()
        for new, slot, u1, more in zip(count(m0 + lo), slots, rows[:, 1].tolist(),
                                        rows[:, 2:].tolist()):
            first = endpoints[slot]
            hist = later[first]  # new is appended below; draws read positions < cnt only
            own = m if first >= m0 else 0
            cnt = own if hist is None else own + len(hist)  # first's degree
            r = int(u1 * cnt)
            if r >= cnt:
                r = cnt - 1
            q = cnt - 1 - r
            v = endpoints[own_slot + 2 * (m * first + q)] if q < own else hist[q - own]
            endpoints[pos] = first
            endpoints[pos + 2] = v
            pos += 4
            if hist is None:
                later[first] = array("q", (new,))
            else:
                hist.append(new)
            if later[v] is None:
                later[v] = array("q", (new,))
            else:
                later[v].append(new)
            if more:
                moved = {r: 0}  # position -> the position whose neighbour it now holds
                for j, u in enumerate(more, 1):
                    r = j + int(u * (cnt - j))
                    if r >= cnt:
                        r = cnt - 1
                    p = moved.get(r, r)
                    moved[r] = moved.get(j, j)
                    q = cnt - 1 - p
                    v = endpoints[own_slot + 2 * (m * first + q)] if q < own else hist[q - own]
                    endpoints[pos] = v
                    pos += 2
                    if later[v] is None:
                        later[v] = array("q", (new,))
                    else:
                        later[v].append(new)
    degree = np.bincount(ends, minlength=m0 + t).astype(np.int64, copy=False)
    return ends.reshape(-1, 2), degree


def _grow_sequential(m0, m, t, uniforms):
    """Sequential growth: m draws proportional to the degrees frozen at step start.

    Draws are without replacement: a picked vertex's weight drops to 0
    until the step ends. The integer weights sit in a Fenwick tree, so
    each draw and each weight change costs O(log n): a draw descends the
    tree to the first vertex whose cumulative weight exceeds u * total,
    comparing Python ints with the float u * total exactly. A draw above
    total - 1 is clamped to it: that picks the same vertex, the last one
    still holding weight, also when u * total rounds up to total.
    """
    e_init = m0 * (m0 - 1) // 2
    edges = np.empty((e_init + m * t, 2), np.int64)
    edges[:e_init, 0], edges[:e_init, 1] = np.triu_indices(m0, 1)
    edges[e_init:, 0] = np.repeat(np.arange(m0, m0 + t), m)
    size = 1 << (m0 + t).bit_length()  # tree[size] holds the total, never passed
    tree = [0] * (size + 1)  # tree[i] sums the weights of vertices (i - lowbit(i), i]
    degree, targets = [m0 - 1] * m0 + [0] * t, []

    def add(v, delta):
        v += 1
        while v <= size:
            tree[v] += delta
            v += v & -v

    for v in range(m0):
        add(v, m0 - 1)
    for new, row in enumerate(_rows(uniforms), m0):
        total, picks = m0 * (m0 - 1) + 2 * m * (new - m0), []
        for u in row:
            x, pos, acc, bit = min(u * total, total - 1), 0, 0, size
            while bit:
                if acc + tree[pos + bit] <= x:
                    pos += bit
                    acc += tree[pos]
                bit >>= 1
            picks.append(pos)
            add(pos, -degree[pos])
            total -= degree[pos]
        for v in picks:
            degree[v] += 1
            add(v, degree[v])
        degree[new] = m
        add(new, m)
        targets += picks
    edges[e_init:, 1] = targets
    return edges, np.array(degree, np.int64)


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
