"""Flat-disc primitives: distances, intersection predicates, LP separation.

A *flat ball* is a closed (d-1)-dimensional disc sitting in an affine
hyperplane of R^d: {center + v : v . normal = 0, |v| <= radius}.  In d = 2
it degenerates to a segment.  All functions here are pure.

The ``pairs_*`` functions work on aligned rows (segment or point i against
disc i) in any dimension, as do the rims and tangent bases of disc rows;
a single disc is a table of one row (:func:`disc_rows`).
The segment/disc test (:func:`pairs_segment_disc_contact`) is exact and
needs no iteration: with signed plane heights ha, hb of its endpoints, a
segment touches the closed disc iff it crosses the plane (sign(ha) *
sign(hb) <= 0, not both zero) at a point within the radius of the centre,
or lies in the plane (ha == hb == 0) with its point nearest the centre
within the radius.  A graze at the rounding level (about 1e-17 at unit
scale, e.g. a node computed to lie on a disc's plane) is decided by the
sign of that rounding and can go either way.

Disc/disc rows (:func:`pairs_disc_disc_distance`) get certified lower
bounds on their distance: exact in the plane, a support gap beyond it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# allowed deviation of a hyperplane normal from unit norm
UNIT_NORM_TOL = 1e-12

# row-generated separation LP: points per side in the first working set,
# and the most rows a side adds per round
LP_ROWS_PER_SIDE = 256
# smallest separation margin a hyperplane witness is accepted at
LP_MARGIN_FLOOR = 1e-6


def row_dots(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Dot products of the rows of X and Y, each summed as the 1-D `x @ y`
    sums it, so a batch reproduces one-row values (and ``np.linalg.norm``
    of one vector) bit for bit; a row einsum or norm(axis=1) does not."""
    return (X[..., None, :] @ Y[..., :, None])[..., 0, 0]


def tangent_bases(N: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the hyperplanes orthogonal to the rows of N.

    Returns (n, d, d-1): each row's columns span its normal^perp, from one
    Householder reflection (no branch on near-parallel cases).
    """
    N = np.asarray(N, dtype=float)
    norms = np.sqrt(row_dots(N, N))
    if np.any(norms == 0.0):
        raise ValueError("cannot normalise the zero vector")
    U = N / norms[:, None]
    U[:, 0] += np.where(U[:, 0] >= 0.0, 1.0, -1.0)
    H = np.eye(N.shape[1]) \
        - 2.0 * (U[:, :, None] * U[:, None, :]) / row_dots(U, U)[:, None, None]
    return H[:, :, 1:]


@dataclass(eq=False)
class Hyperplane:
    """Oriented hyperplane {x : normal . x = offset} with |normal| = 1."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        self.normal = np.asarray(self.normal, dtype=float)
        if abs(np.linalg.norm(self.normal) - 1.0) > UNIT_NORM_TOL:
            raise ValueError("hyperplane normal must have unit norm")
        self.offset = float(self.offset)


@dataclass(eq=False)
class FlatBall:
    """Closed (d-1)-disc in the hyperplane through `center` orthogonal to `normal`.

    `level` optionally tags the construction position (shell, sublevel,
    point index).
    """

    center: np.ndarray
    normal: np.ndarray
    radius: float
    level: tuple[int, int, int] | None = None

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        self.normal = np.asarray(self.normal, dtype=float)
        self.radius = float(self.radius)
        normal = self.normal.ravel().tolist()
        # NaN fails every comparison below, so it must be rejected first
        for name, values in (("center", self.center.ravel().tolist()),
                             ("normal", normal), ("radius", [self.radius])):
            if not all(map(math.isfinite, values)):
                raise ValueError(f"flat ball {name} must be finite")
        if self.radius <= 0.0:
            raise ValueError("flat ball radius must be positive")
        # hypot scales, so a huge finite normal gives a huge norm, no overflow
        if abs(math.hypot(*normal) - 1.0) > 1e-9:
            raise ValueError("flat ball normal must have unit norm")

    @property
    def dim(self) -> int:
        return self.center.shape[0]


def pairs_point_disc_distance(P, C, N, R) -> np.ndarray:
    """Distances from points P to closed discs (C, N, R), row by row.

    The arguments broadcast, so one disc against many points works too.
    """
    v = np.asarray(P, dtype=float) - C
    h = np.sum(v * N, axis=-1)
    rho = np.linalg.norm(v - h[..., None] * N, axis=-1)
    return np.hypot(h, np.maximum(rho - R, 0.0))


def disc_norm_range(C, N, R) -> tuple[np.ndarray, np.ndarray]:
    """Exact (nearest, farthest) distances of the disc rows from the origin.

    The nearest is the point/disc distance of the origin; the farthest is
    sqrt(|c|^2 + 2r|c - (c.n)n| + r^2), the rim point along the part of c
    in the disc's plane.
    """
    near = pairs_point_disc_distance(np.zeros(C.shape[1]), C, N, R)
    flat = C - row_dots(C, N)[:, None] * N
    far = np.sqrt(row_dots(C, C) + 2.0 * R * np.sqrt(row_dots(flat, flat))
                  + R * R)
    return near, far


def pairs_segment_disc_contact(A, B, C, N, R) -> np.ndarray:
    """Exact contact mask of segments [A, B] and closed discs (C, N, R).

    Rows are aligned and any dimension works; see the module docstring for
    the rule and its behaviour at rounding-level grazes.
    """
    ha = np.einsum("ij,ij->i", A - C, N)
    hb = np.einsum("ij,ij->i", B - C, N)
    sa, sb = np.sign(ha), np.sign(hb)
    coplanar = (sa == 0.0) & (sb == 0.0)
    hit = np.zeros(len(A), dtype=bool)
    # crossing rows: the plane point a + t (b - a) must lie within R
    i = np.flatnonzero((sa * sb <= 0.0) & ~coplanar)
    a, t = A[i], ha[i] / (ha[i] - hb[i])
    hit[i] = np.linalg.norm(a + t[:, None] * (B[i] - a) - C[i], axis=1) <= R[i]
    # coplanar rows: the point nearest the centre must lie within R
    k = np.flatnonzero(coplanar)
    if len(k):
        ab, ac = B[k] - A[k], C[k] - A[k]
        ab2 = np.einsum("ij,ij->i", ab, ab)
        u = np.clip(np.einsum("ij,ij->i", ac, ab) / np.where(ab2 > 0.0, ab2, 1.0),
                    0.0, 1.0)
        hit[k] = np.linalg.norm(u[:, None] * ab - ac, axis=1) <= R[k]
    return hit


def disc_rows(balls) -> tuple:
    """(C, N, R): centres, normals and radii of the flat balls as arrays."""
    return (np.array([fb.center for fb in balls]),
            np.array([fb.normal for fb in balls]),
            np.array([fb.radius for fb in balls]))


def _pairs_segseg_distance_2d(P1, P2, Q1, Q2) -> np.ndarray:
    """Exact segment-segment distance in the plane, vectorised over rows."""

    def cross(u, v):
        return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]

    d1 = cross(P2 - P1, Q1 - P1)
    d2 = cross(P2 - P1, Q2 - P1)
    d3 = cross(Q2 - Q1, P1 - Q1)
    d4 = cross(Q2 - Q1, P2 - Q1)
    proper = (d1 * d2 < 0.0) & (d3 * d4 < 0.0)

    def pt_seg(X, A, B):
        ab = B - A
        denom = np.einsum("ij,ij->i", ab, ab)
        denom = np.where(denom == 0.0, 1.0, denom)
        t = np.clip(np.einsum("ij,ij->i", X - A, ab) / denom, 0.0, 1.0)
        return np.linalg.norm(X - (A + t[:, None] * ab), axis=1)

    dist = np.minimum.reduce([
        pt_seg(Q1, P1, P2), pt_seg(Q2, P1, P2),
        pt_seg(P1, Q1, Q2), pt_seg(P2, Q1, Q2)])
    dist[proper] = 0.0
    return dist


def _pairs_project_to_disc(X, C, N, R) -> np.ndarray:
    """Nearest points of the closed discs (C, N, R) to the rows of X."""
    v = X - C
    w = v - np.einsum("ij,ij->i", v, N)[:, None] * N
    rho = np.linalg.norm(w, axis=1)
    return C + w * np.where(rho > R, R / np.maximum(rho, R), 1.0)[:, None]


def pairs_disc_disc_distance(C1, N1, R1, C2, N2, R2) -> np.ndarray:
    """Certified lower bounds on the distances of aligned disc rows; 0.0
    where disjointness cannot be certified.

    In the plane the discs are segments and the distance is exact.  Beyond
    it, alternating projection (Cheney & Goldstein 1959) from the first
    centres ends at a pair x, y that only upper-bounds the distance; each
    row stops after 400 rounds or once it gains less than 1e-10, so its
    value does not depend on the other rows of the batch.  Along
    w = (x-y)/|x-y|, disc 1 lies where p.w >= c1.w - r1 sqrt(1-(n1.w)^2)
    and disc 2 where p.w <= c2.w + r2 sqrt(1-(n2.w)^2) (their supports,
    :func:`disc_support`); the gap between these bounds the distance from
    below.  The result is min(|x-y|, gap), clipped at 0.
    """
    if C1.shape[1] == 2:
        U1 = np.column_stack([-N1[:, 1], N1[:, 0]])
        U2 = np.column_stack([-N2[:, 1], N2[:, 0]])
        return _pairs_segseg_distance_2d(
            C1 - R1[:, None] * U1, C1 + R1[:, None] * U1,
            C2 - R2[:, None] * U2, C2 + R2[:, None] * U2)
    x, y, d = np.empty_like(C1), np.empty_like(C1), np.empty(len(C1))
    # the live rows, compacted; a row is written back once it stops
    live = np.arange(len(C1))
    rows = [np.ascontiguousarray(A) for A in (C1, N1, R1, C2, N2, R2)]
    xl = yl = rows[0]
    dl = np.full(len(C1), np.inf)
    for _ in range(400):
        if len(live) == 0:
            break
        c1, n1, r1, c2, n2, r2 = rows
        yl = _pairs_project_to_disc(xl, c2, n2, r2)
        xl = _pairs_project_to_disc(yl, c1, n1, r1)
        new = np.linalg.norm(xl - yl, axis=1)
        going = dl - new >= 1e-10
        dl = new
        if not going.all():
            stop = ~going
            x[live[stop]], y[live[stop]], d[live[stop]] = \
                xl[stop], yl[stop], dl[stop]
            live, xl, yl, dl = live[going], xl[going], yl[going], dl[going]
            rows = [A[going] for A in rows]
    x[live], y[live], d[live] = xl, yl, dl
    w = (x - y) / np.where(d > 0.0, d, 1.0)[:, None]
    gap = -disc_support(C1, N1, R1, -w) - disc_support(C2, N2, R2, w)
    return np.maximum(np.minimum(d, gap), 0.0)


def disc_support(C, N, R, W) -> np.ndarray:
    """Exact support max p.w of the closed discs (C, N, R) along unit W,
    c.w + r sqrt(1 - (n.w)^2); the rows broadcast."""
    nw = np.einsum("...j,...j->...", N, W)
    return np.einsum("...j,...j->...", C, W) \
        + R * np.sqrt(np.maximum(1.0 - nw * nw, 0.0))


def _max_margin_lp(first: np.ndarray, second: np.ndarray):
    """(w, b, gamma) maximising gamma subject to w.x >= b + gamma on
    `first`, w.x <= b - gamma on `second` and |w|_1 <= 1; None when HiGHS
    reports no solution."""
    # deferred: scipy.optimize is slow to import and most runs solve no LP
    from scipy.optimize import linprog

    d = first.shape[1]
    # variables: u (d), v (d), b, gamma with w = u - v, u, v >= 0
    nv = 2 * d + 2
    cost = np.zeros(nv)
    cost[-1] = -1.0  # maximise gamma
    # rows -w.x + b + gamma <= 0 for first, w.x - b + gamma <= 0 for
    # second, and the L1 cap sum(u) + sum(v) <= 1
    rows = np.vstack([
        np.hstack([-first, first, np.tile([1.0, 1.0], (len(first), 1))]),
        np.hstack([second, -second, np.tile([-1.0, 1.0], (len(second), 1))]),
        np.concatenate([np.ones(2 * d), [0.0, 0.0]]),
    ])
    rhs = np.zeros(len(rows))
    rhs[-1] = 1.0
    bounds = [(0.0, None)] * (2 * d) + [(None, None), (None, None)]
    res = linprog(cost, A_ub=rows, b_ub=rhs, bounds=bounds, method="highs")
    if not res.success or res.x is None:
        return None
    return res.x[:d] - res.x[d:2 * d], res.x[-2], res.x[-1]


def _top_rows(score: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Indices of the at most LP_ROWS_PER_SIDE allowed rows of largest score."""
    idx = np.flatnonzero(allowed)
    if len(idx) > LP_ROWS_PER_SIDE:
        idx = idx[np.argpartition(-score[idx], LP_ROWS_PER_SIDE)
                  [:LP_ROWS_PER_SIDE]]
    return idx


def separating_hyperplane(first, second,
                          margin: float = 0.0) -> Hyperplane | None:
    """Hyperplane with first on the high side and second on the low side.

    Solves the max-margin feasibility LP (with an L1 cap on the normal so
    the problem stays bounded) by row generation (Kelley 1960).  The first
    working set holds the LP_ROWS_PER_SIDE points of each side nearest the
    other side along the centroid difference; a side with no more points
    goes in whole, so a small LP is one solve of the full problem.  After
    each solve every row is evaluated, and per side the at most
    LP_ROWS_PER_SIDE most-violated rows outside the working set join it.
    When no outside row is violated the working optimum is the full LP's;
    the set grows every round, so the loop ends.

    The witness is rescaled to unit norm and `w.x >= b + margin` /
    `w.x <= b - margin` are re-checked against every input point, so the
    plane is a certificate whichever rows the LP saw.  Returns None when no
    witness achieving max(margin, LP_MARGIN_FLOOR) was found; that is not a
    proof of inseparability.
    """
    first = np.atleast_2d(np.asarray(first, dtype=float))
    second = np.atleast_2d(np.asarray(second, dtype=float))
    if first.size == 0 or second.size == 0:
        raise ValueError("both point sets must be nonempty")
    g = first.mean(axis=0) - second.mean(axis=0)
    in_first = np.zeros(len(first), dtype=bool)
    in_second = np.zeros(len(second), dtype=bool)
    in_first[_top_rows(-(first @ g), ~in_first)] = True
    in_second[_top_rows(second @ g, ~in_second)] = True
    while True:
        sol = _max_margin_lp(first[in_first], second[in_second])
        if sol is None:
            return None
        w, b, gamma = sol
        excess_first = b + gamma - first @ w
        excess_second = second @ w - b + gamma
        new_first = _top_rows(excess_first, ~in_first & (excess_first > 0.0))
        new_second = _top_rows(excess_second,
                               ~in_second & (excess_second > 0.0))
        if len(new_first) + len(new_second) == 0:
            break
        in_first[new_first] = True
        in_second[new_second] = True
    nw = float(np.linalg.norm(w))
    if nw < 1e-14:
        return None
    w = w / nw
    lo = float(np.min(first @ w))
    hi = float(np.max(second @ w))
    b = 0.5 * (lo + hi)
    achieved = 0.5 * (lo - hi)
    required = max(margin, LP_MARGIN_FLOOR)
    if achieved < required:
        return None
    if np.min(first @ w) < b + margin or np.max(second @ w) > b - margin:
        return None
    return Hyperplane(w, b)


def disc_rim_points(C, N, R, count: int) -> np.ndarray:
    """`count` spread points on the rim sphere of each disc row: (n, count, d).

    d = 2: the two segment endpoints (count is ignored beyond 2).
    d = 3: equally spaced rim angles.
    d >= 4: one farthest-point selection from a quasi-uniform candidate set
    of the (d-2)-sphere, shared by every row, giving an empirical covering
    of the rim at resolution comparable to count^(-1/(d-2)).
    """
    C = np.asarray(C, dtype=float)
    B = tangent_bases(N)
    d = C.shape[1]
    Rc = np.asarray(R, dtype=float)[:, None, None]
    if d == 2:
        return C[:, None] + Rc * np.concatenate([-B[:, None, :, 0],
                                                 B[:, None, :, 0]], axis=1)
    if d == 3:
        # in place, so at most two (n, count, 3) arrays are alive at once
        ang = 2.0 * np.pi * np.arange(count) / count
        rim = np.cos(ang)[:, None] * B[:, None, :, 0]
        rim += np.sin(ang)[:, None] * B[:, None, :, 1]
        rim *= Rc
        rim += C[:, None]
        return rim
    from .sampling import farthest_point_order, sphere_candidates

    cand = sphere_candidates(d - 1, max(64, 8 * count))
    idx = farthest_point_order(cand, start=0, stop_count=count)
    return C[:, None] + Rc * (cand[idx] @ B.transpose(0, 2, 1))
