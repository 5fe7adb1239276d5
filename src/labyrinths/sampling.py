"""Deterministic point generators on unit spheres.

Candidate sets are antipodally symmetric (built as +/- of a half set) so
that exact antipodes exist; the d=2 set is a power-of-two circle grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import ndtri

GOLDEN_FRAC = (np.sqrt(5.0) - 1.0) / 2.0


def sphere_candidates(d: int, count: int) -> np.ndarray:
    """Quasi-uniform candidate set of roughly `count` points on S^(d-1).

    The set is exactly symmetric under x -> -x: row i + n/2 is -row i.
    For d = 2 the size n is the next power of two >= max(count, 8), and
    row i lies at angle 2 pi i / n: the rows go round the circle in order.
    For d = 3 the half set is a golden-angle spiral; for d >= 4 it is
    points 1 .. 2k of the unscrambled Sobol sequence (:func:`sobol`; point
    0 is the origin) mapped through the normal quantile and normalised.
    """
    if d < 2:
        raise ValueError("dimension must be >= 2")
    count = max(int(count), 8)
    if d == 2:
        n = 1 << int(np.ceil(np.log2(count)))
        return circle_rows(np.arange(n), n)
    if d == 3:
        k = (count + 1) // 2
        i = np.arange(k)
        z = (i + 0.5) / k  # upper hemisphere heights
        phi = 2.0 * np.pi * np.mod(i * GOLDEN_FRAC, 1.0)
        rho = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        out = np.empty((2 * k, 3))
        out[:k, 0], out[:k, 1] = rho * np.cos(phi), rho * np.sin(phi)
        out[:k, 2] = z
    else:
        k = (count + 1) // 2
        # from point 1: point 0 is the origin of the unscrambled stream
        g = ndtri(np.clip(sobol(d, 2 * k, skip=1), 1e-12, 1.0 - 1e-12))
        g = g[np.linalg.norm(g, axis=1) > 1e-9][:k]
        k = len(g)
        out = np.empty((2 * k, d))
        np.divide(g, np.linalg.norm(g, axis=1, keepdims=True), out=out[:k])
    # the antipodal half in place: one array, no stacked copies
    np.negative(out[:k], out=out[k:])
    return out


def circle_rows(idx: np.ndarray, n: int) -> np.ndarray:
    """Rows `idx` of `sphere_candidates(2, n)`, each computed alone."""
    k = n // 2
    theta = 2.0 * np.pi * (idx % k) / n
    rows = np.column_stack([np.cos(theta), np.sin(theta)])
    np.negative(rows, out=rows, where=(idx >= k)[:, None])
    return rows


# The first 16 rows of the Joe & Kuo direction numbers (S. Joe and F. Y.
# Kuo, "Constructing Sobol sequences with better two-dimensional
# projections", SIAM J. Sci. Comput. 30 (2008) 2635-2654; the table
# new-joe-kuo-6.21201, the one scipy.stats.qmc.Sobol ships): each row's
# primitive polynomial, whose degree m is its bit length less 1, and its
# first m direction numbers.  Row 0 is the van der Corput sequence.
_SOBOL_POLY = (1, 3, 7, 11, 13, 19, 25, 37, 41, 47, 55, 59, 61, 67, 91, 97)
_SOBOL_VINIT = ((), (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3),
                (1, 3, 5, 13), (1, 1, 5, 5, 17), (1, 1, 5, 5, 5),
                (1, 1, 7, 11, 19), (1, 1, 5, 1, 1), (1, 1, 1, 3, 11),
                (1, 3, 5, 5, 31), (1, 3, 3, 9, 7, 49), (1, 1, 1, 15, 21, 21),
                (1, 3, 1, 13, 27, 49))
_SOBOL_BITS = 30


def sobol(d: int, n: int, seed: int | None = None, skip: int = 0) -> np.ndarray:
    """Points skip .. skip+n-1 of the 30-bit Sobol sequence in [0, 1)^d.

    Bitwise those of ``scipy.stats.qmc.Sobol(d, scramble=seed is not None,
    seed=seed)`` after `skip` points: the same direction numbers, and for
    an integer `seed` the same linear matrix scramble and digital shift,
    drawn from ``np.random.default_rng(seed)`` in scipy's order.  Point k
    is the shift XOR the direction columns of the set bits of gray(k) =
    k ^ (k >> 1); from one point to the next that changes one column, the
    one of the lowest set bit of k, so the points are one XOR prefix scan.
    """
    if not 1 <= d <= len(_SOBOL_POLY):
        raise ValueError(f"Sobol points are available in dimensions 1 to "
                         f"{len(_SOBOL_POLY)}, not {d}")
    if n < 1 or skip < 0 or skip + n > 1 << _SOBOL_BITS:
        raise ValueError(f"Sobol points {skip} .. {skip + n - 1} are not "
                         f"among the 2^{_SOBOL_BITS} there are")
    # direction numbers as Bratley & Fox's recurrence makes them, column j
    # scaled to bit _SOBOL_BITS - 1 - j
    v = np.empty((d, _SOBOL_BITS), dtype=np.uint32)
    for row, (poly, init) in enumerate(zip(_SOBOL_POLY, _SOBOL_VINIT[:d])):
        m = len(init)
        vals = list(init) if m else [1] * _SOBOL_BITS
        for j in range(len(vals), _SOBOL_BITS):
            new = vals[j - m]
            for i in range(m):
                if poly >> (m - 1 - i) & 1:
                    new ^= vals[j - i - 1] << (i + 1)
            vals.append(new)
        v[row] = [x << (_SOBOL_BITS - 1 - j) for j, x in enumerate(vals)]
    shift = np.zeros(d, dtype=np.uint32)
    if seed is not None:
        rng = np.random.default_rng(seed)
        top = _SOBOL_BITS - 1 - np.arange(_SOBOL_BITS, dtype=np.uint32)
        shift = rng.integers(2, size=(d, _SOBOL_BITS), dtype=np.uint32) \
            @ (np.uint32(1) << np.arange(_SOBOL_BITS, dtype=np.uint32))
        lower = np.tril(rng.integers(2, size=(d, _SOBOL_BITS, _SOBOL_BITS),
                                     dtype=np.uint32))
        lower[:, np.arange(_SOBOL_BITS), np.arange(_SOBOL_BITS)] = 1
        # output bit p from the top: the parity of row p on the input bits
        bits = v[:, None, :] >> top[:, None] & 1  # (d, bit from top, column)
        v = ((lower @ bits & 1) << top[:, None]).sum(axis=1, dtype=np.uint32)
    cols = v.T  # (bit, d)
    steps = np.empty((n, d), dtype=np.uint32)
    gray = skip ^ skip >> 1
    steps[0] = shift ^ np.bitwise_xor.reduce(
        cols[[b for b in range(_SOBOL_BITS) if gray >> b & 1]], axis=0)
    k = np.arange(skip + 1, skip + n, dtype=np.uint64)
    steps[1:] = cols[np.bitwise_count(k ^ (k - 1)) - 1]  # lowest set bit of k
    np.bitwise_xor.accumulate(steps, axis=0, out=steps)
    return steps * 2.0 ** -_SOBOL_BITS


# Rows per block of the traversal's spatial partition: blocks small enough
# for tight bounding boxes, few enough that testing every box at each pick
# costs little next to the rows updated.
_BLOCK = 256
# Blocks per slab: the layout's d2 and each pick's update of the blocks in
# its reach are formed this many blocks (16 384 rows) at a time, so their
# temporaries do not grow with the candidate count.
_SLAB = 64


@dataclass(eq=False)
class ParkedSweep:
    """A farthest-point traversal stopped between two picks: the picks so
    far, and the block layout's row `order` with each position's squared
    distance `d2` to the picks (None until a call lays the sweep out from
    its start pick).  The rows, boxes and block tops are made again from
    these.  `tops` holds, for each pick after the start, the squared
    distance to the earlier picks at which it was made; they never grow."""

    picks: list[int]
    order: np.ndarray | None = None
    d2: np.ndarray | None = None
    tops: list[float] = field(default_factory=list)


def farthest_point_order(
    points: np.ndarray,
    start: int | ParkedSweep = 0,
    stop_dist: float | None = None,
    stop_count: int | None = None,
) -> np.ndarray:
    """Indices of a farthest-point traversal of `points`.

    Selection stops once the farthest remaining point is closer than
    `stop_dist` to the selected set, or once `stop_count` points are chosen.
    Ties are broken by the smallest candidate index, so the output is a
    deterministic function of the inputs.

    `start` is the first pick, or a sweep of these points parked by an
    earlier call, which goes on where it stopped and is parked again where
    this call stops; the result holds all its picks, bitwise those of one
    sweep run straight to this stop.  The sweep records the squared
    distance at which it made each pick (`ParkedSweep.tops`).

    Each pick updates only the candidates it can change.  The points are
    cut into blocks of _BLOCK, each with a bounding box and the largest
    squared distance d2 held in it.  A pick p lowers d2[x] only if
    |x - p|^2 < d2[x] <= the block's largest, so a block whose box lies
    that far from p, with a margin for rounding, is skipped whole.  The
    other blocks get the same row-wise squared distance and `np.minimum` as
    a full update, so every d2 value, and the pick, the smallest index
    holding the largest d2, are bitwise the plain O(n k) loop's, however
    the blocks are drawn.  The blocks are runs of kd-tree leaves, so they
    hold nearby points and about n log k rows are updated in all.  They
    are one (blocks, _BLOCK) array: the last is padded with copies of its
    last point, whose d2 = -1 is never picked and leaves the box unchanged.

    The layout's d2 and each pick's update go _SLAB blocks at a time.  A
    row's arithmetic does not depend on the slab it is in, so the picks
    and d2 are bitwise one full-width pass's, and the temporaries stay at
    one slab however many candidates there are, although the first picks
    reach nearly every block.
    """
    n, d = points.shape
    if n == 0:
        return np.empty(0, dtype=np.intp)
    sweep = start if isinstance(start, ParkedSweep) \
        else ParkedSweep([int(start) % n])
    if sweep.order is None:  # lay the sweep out from its start pick
        order = np.pad(cKDTree(points, leafsize=_BLOCK).indices,
                       (0, -n % _BLOCK), "edge")
        p = points[sweep.picks[0]]
        d2 = np.empty(len(order))
        rows = _SLAB * _BLOCK
        for s in range(0, len(order), rows):
            diff = points[order[s:s + rows]] - p
            d2[s:s + rows] = np.einsum("ij,ij->i", diff, diff)
        d2[n:] = -1.0
        sweep.order, sweep.d2 = order, d2.reshape(-1, _BLOCK)
    chosen, order, d2 = sweep.picks, sweep.order, sweep.d2
    limit = n if stop_count is None else min(stop_count, n)
    thresh2 = None if stop_dist is None else float(stop_dist) ** 2
    pts = points[order]
    # the boxes from the flat rows: a min along axis 1 of the 3-D array
    # runs about ten times slower
    first = np.arange(0, len(order), _BLOCK)
    lo = np.minimum.reduceat(pts, first)
    hi = np.maximum.reduceat(pts, first)
    pts = pts.reshape(-1, _BLOCK, d)
    top = d2.max(axis=1)
    while len(chosen) < limit:
        m = top.max()
        if thresh2 is not None and m < thresh2:
            break
        tied = (top == m).nonzero()[0]
        at = np.flatnonzero(d2[tied] == m)  # in ascending layout positions
        at = tied[at // _BLOCK] * _BLOCK + at % _BLOCK
        i = int(order[at].min())
        chosen.append(i)
        sweep.tops.append(float(m))
        p = points[i]
        gap = np.minimum(np.maximum(p, lo), hi) - p
        reach = (np.einsum("ij,ij->i", gap, gap) * (1.0 - 1e-9) < top).nonzero()[0]
        for s in range(0, len(reach), _SLAB):
            hit = reach[s:s + _SLAB]
            diff = pts[hit]
            diff -= p
            new = np.einsum("bij,bij->bi", diff, diff)
            d2[hit] = np.minimum(d2[hit], new, out=new)
            top[hit] = new.max(axis=1)
    return np.asarray(chosen, dtype=np.intp)
