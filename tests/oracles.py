"""Independent brute-force oracles used to freeze expected test values.

Deliberately dumber than the library: dense parameter grids, dense grid
graphs, elementary formulas, all pairs where the library culls.  Nothing
here imports search or construction internals beyond plain data types and
the row-wise geometric predicates.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import dijkstra

from labyrinths.geometry import pairs_segment_disc_touch


def grid_point_disc_distance(x, center, normal, radius) -> float:
    """Closed-form point-to-disc distance (reference copy)."""
    v = np.asarray(x, float) - np.asarray(center, float)
    h = float(v @ normal)
    w = v - h * np.asarray(normal, float)
    rho = float(np.linalg.norm(w))
    if rho <= radius:
        return abs(h)
    return float(np.hypot(h, rho - radius))


def brute_segment_disc_distance(a, b, center, normal, radius,
                                grid: int = 200) -> float:
    """Min over a dense parameter grid of point-to-disc distances."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    ts = np.linspace(0.0, 1.0, grid)
    return min(grid_point_disc_distance(a + t * (b - a), center, normal, radius)
               for t in ts)


def _segments_cross(p1, p2, q1, q2) -> np.ndarray:
    def cross(u, v):
        return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]

    d1 = cross(p2 - p1, q1 - p1)
    d2 = cross(p2 - p1, q2 - p1)
    d3 = cross(q2 - q1, p1 - q1)
    d4 = cross(q2 - q1, p2 - q1)
    return (d1 * d2 <= 0.0) & (d3 * d4 <= 0.0)


def grid_shortest_path(segments, source, target, step: float,
                       lo, hi) -> float:
    """Dense-grid shortest path in the plane avoiding segment obstacles.

    Axis-aligned grid of the given step with a 16-direction neighbourhood
    (metric stretch below 2.8 percent, much less off the worst headings);
    edges crossing any obstacle segment are removed.  Source and target are
    snapped to their nearest grid nodes; the grid is aligned so integer
    multiples of `step` are nodes.
    """
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    i0 = int(np.floor(lo[0] / step))
    j0 = int(np.floor(lo[1] / step))
    nx = int(np.ceil(hi[0] / step)) - i0 + 1
    ny = int(np.ceil(hi[1] / step)) - j0 + 1
    xs = (np.arange(nx) + i0) * step
    ys = (np.arange(ny) + j0) * step

    def node(i, j):
        return i * ny + j

    offsets = [(1, 0), (0, 1), (1, 1), (1, -1),
               (2, 1), (2, -1), (1, 2), (-1, 2)]
    rows, cols, vals = [], [], []
    segs = [(np.asarray(p, float), np.asarray(q, float)) for p, q in segments]
    for dx, dy in offsets:
        ii = np.arange(max(0, -dx), min(nx, nx - dx))
        jj = np.arange(max(0, -dy), min(ny, ny - dy))
        I, J = np.meshgrid(ii, jj, indexing="ij")
        P1 = np.stack([xs[I], ys[J]], axis=-1)
        P2 = np.stack([xs[I + dx], ys[J + dy]], axis=-1)
        ok = np.ones(I.shape, dtype=bool)
        for q1, q2 in segs:
            ok &= ~_segments_cross(P1, P2, q1, q2)
        w = step * float(np.hypot(dx, dy))
        src = node(I[ok], J[ok])
        dst = node(I[ok] + dx, J[ok] + dy)
        rows.append(src)
        cols.append(dst)
        vals.append(np.full(len(src), w))
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    n = nx * ny
    g = sparse.csr_matrix((np.concatenate([vals, vals]),
                           (np.concatenate([rows, cols]),
                            np.concatenate([cols, rows]))), shape=(n, n))
    s = node(int(round(source[0] / step)) - i0, int(round(source[1] / step)) - j0)
    t = node(int(round(target[0] / step)) - i0, int(round(target[1] / step)) - j0)
    dist = dijkstra(g, directed=False, indices=s)
    return float(dist[t])


def brute_farthest_point_order(points, start: int = 0,
                               stop_dist: float | None = None,
                               stop_count: int | None = None) -> np.ndarray:
    """Farthest-point traversal that updates every candidate after each pick.

    The plain O(n k) loop, with the same stop rules and smallest-index tie
    rule as `sampling.farthest_point_order`.
    """
    n = len(points)
    if n == 0:
        return np.empty(0, dtype=np.intp)
    start = int(start) % n
    chosen = [start]
    d2 = np.einsum("ij,ij->i", points - points[start], points - points[start])
    limit = n if stop_count is None else min(stop_count, n)
    thresh2 = None if stop_dist is None else float(stop_dist) ** 2
    while len(chosen) < limit:
        i = int(np.argmax(d2))
        if thresh2 is not None and d2[i] < thresh2:
            break
        chosen.append(i)
        diff = points - points[i]
        np.minimum(d2, np.einsum("ij,ij->i", diff, diff), out=d2)
    return np.asarray(chosen, dtype=np.intp)


def brute_segments_collide(A, B, centers, normals, radii,
                           clearance: float = 0.0) -> np.ndarray:
    """Collision mask of segments [A[i], B[i]] against every disc, with no cull.

    Every segment meets every disc in the library's row-wise predicate, one
    disc at a time, so it answers for each pair exactly what a culled
    search should answer for the pairs it keeps.
    """
    A = np.asarray(A, float)
    B = np.asarray(B, float)
    out = np.zeros(len(A), dtype=bool)
    for c, n, r in zip(centers, normals, radii):
        out |= pairs_segment_disc_touch(
            A, B, np.broadcast_to(c, A.shape), np.broadcast_to(n, A.shape),
            np.full(len(A), r), clearance)
    return out
