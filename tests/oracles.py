"""Independent brute-force oracles used to freeze expected test values.

Deliberately dumber than the library: dense parameter grids, dense grid
graphs, elementary formulas, all pairs where the library culls.  Nothing
here imports search or construction internals beyond plain data types and
the row-wise geometric predicates, except the reference builds at the end:
they replay a construction the plain way (a cold sweep per shell, scipy's
``brentq`` one row at a time, every disc made before it is filtered, each
disc mapped through a chart on its own, a roadmap's edges collided all at
once and its escape graph built through COO, a colouring walked through
adjacency lists, a collar gap read off a dense containment matrix, a
disc/disc bound gathered by live rows every round), so a faster path can
be held to it bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import brentq
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import cKDTree
from scipy.special import ndtri
from scipy.stats import qmc

from labyrinths.geometry import (FlatBall, pairs_segment_disc_contact,
                                 tangent_bases)


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


def sphere_samples(d: int, n: int, seed: int = 0) -> np.ndarray:
    """n quasi-uniform test samples on S^(d-1) (scrambled Sobol, seeded)."""
    if d == 2:
        rng = np.random.default_rng(seed)
        theta = 2.0 * np.pi * (np.arange(n) + rng.random()) / n
        return np.column_stack([np.cos(theta), np.sin(theta)])
    sob = qmc.Sobol(d, scramble=True, seed=seed)
    g = ndtri(np.clip(sob.random(1 << int(np.ceil(np.log2(int(n * 1.05) + 8)))),
                      1e-12, 1.0 - 1e-12))
    g = g[np.linalg.norm(g, axis=1) > 1e-9][:n]
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def sampled_covering_radius(points, d: int, samples: int = 100_000,
                            seed: int = 0) -> float:
    """Largest distance from `samples` quasi-uniform sphere points to the
    set: a lower bound on the covering radius, within
    ``nets.sampling_slack(d, samples)`` of it."""
    dist, _ = cKDTree(np.atleast_2d(points)).query(
        sphere_samples(d, samples, seed=seed), k=1)
    return float(dist.max())


def stacked_sphere_candidates(d: int, count: int) -> np.ndarray:
    """`sampling.sphere_candidates` as first written: the half set built by
    ``np.column_stack``, then ``np.vstack([half, -half])`` (d = 2, 3)."""
    count = max(int(count), 8)
    if d == 2:
        n = 1 << int(np.ceil(np.log2(count)))
        theta = 2.0 * np.pi * np.arange(n // 2) / n
        half = np.column_stack([np.cos(theta), np.sin(theta)])
    else:
        k = (count + 1) // 2
        i = np.arange(k)
        z = (i + 0.5) / k
        golden = (np.sqrt(5.0) - 1.0) / 2.0
        phi = 2.0 * np.pi * np.mod(i * golden, 1.0)
        rho = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        half = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    return np.vstack([half, -half])


def brute_segments_collide(A, B, centers, normals, radii) -> np.ndarray:
    """Collision mask of segments [A[i], B[i]] against every disc, with no cull.

    Every segment meets every disc in the library's row-wise predicate, one
    disc at a time, so it answers for each pair exactly what a culled
    search should answer for the pairs it keeps.
    """
    A = np.asarray(A, float)
    B = np.asarray(B, float)
    out = np.zeros(len(A), dtype=bool)
    for c, n, r in zip(centers, normals, radii):
        out |= pairs_segment_disc_contact(
            A, B, np.broadcast_to(c, A.shape), np.broadcast_to(n, A.shape),
            np.full(len(A), r))
    return out


def all_disc_shortcut(path, lab, rounds: int = 400, seed: int = 0):
    """`verifier.shortcut` as it was before its bounding-box cull: every
    candidate segment meets every disc of `lab`
    (:func:`brute_segments_collide`).

    Same random draws, same joins and the same vertex-skipping sweep, so
    the library's culled shortcut must return this path bit for bit.
    """
    from labyrinths.verifier import EscapePath

    C = np.array([fb.center for fb in lab.components])
    N = np.array([fb.normal for fb in lab.components])
    R = np.array([fb.radius for fb in lab.components])

    def blocked(a, b):
        return len(R) > 0 and bool(brute_segments_collide(
            a[None, :], b[None, :], C, N, R)[0])

    rng = np.random.default_rng(seed)
    poly = [p.copy() for p in path.polyline]
    for _ in range(rounds):
        if len(poly) < 3:
            break
        i, j = sorted(rng.integers(0, len(poly) - 1, size=2))
        ti, tj = rng.random(2)
        a = poly[i] + ti * (poly[i + 1] - poly[i])
        b = poly[j] + tj * (poly[j + 1] - poly[j])
        if j <= i or np.linalg.norm(b - a) == 0.0 or blocked(a, b):
            continue
        poly = poly[:i + 1] + [a, b] + poly[j + 1:]
    changed = True
    while changed:
        changed = False
        k = 0
        while k + 2 < len(poly):
            a, b = poly[k], poly[k + 2]
            if np.linalg.norm(b - a) > 0.0 and not blocked(a, b):
                del poly[k + 1]
                changed = True
            else:
                k += 1
    poly = np.asarray(poly)
    step = np.linalg.norm(np.diff(poly, axis=0), axis=1)
    new = EscapePath(polyline=poly[np.concatenate([[True], step > 0.0])])
    return path if new.length > path.length else new


def all_node_candidate_pairs(nodes, connect_radius: float,
                             neighbors: int) -> np.ndarray:
    """Distinct roadmap candidate pairs i < j, in lexicographic order.

    The plain rule: every pair within `connect_radius`, plus each node with
    its `neighbors` nearest from one k-NN query over all nodes, then
    ``np.unique`` without the self-pairs.  The tree is built with the
    defaults, as the library builds its node tree, so exactly tied
    neighbours are picked the same way.
    """
    nodes = np.asarray(nodes, float)
    tree = cKDTree(nodes)
    pairs = tree.query_pairs(connect_radius, output_type="ndarray")
    k = min(neighbors + 1, len(nodes))
    _, nbr = tree.query(nodes, k=k)
    ii = np.repeat(np.arange(len(nodes)), k - 1)
    jj = nbr[:, 1:].ravel()
    knn = np.column_stack([np.minimum(ii, jj), np.maximum(ii, jj)])
    out = np.unique(np.vstack([pairs, knn]), axis=0)
    return out[out[:, 0] != out[:, 1]]


def segment_segment_distance_2d(P1, P2, Q1, Q2) -> np.ndarray:
    """Exact distances of planar segments [P1, P2] and [Q1, Q2], row by row.

    Reference copy of the closed form the audit has used since the seed:
    0 for a proper crossing, else the least of the four endpoint-to-segment
    distances.
    """

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


def brute_disc_disc_distance(f1, f2, steps: int) -> tuple[float, float]:
    """Least distance from a dense sample of disc f2 to disc f1, and the
    sample's resolution.

    The samples are a cube grid of `steps` points per axis in f2's plane,
    pulled radially into the disc, so every point of f2 lies within the
    resolution of one of them and the true distance lies in
    [least - resolution, least].
    """
    d = f2.dim
    basis = np.linalg.svd(f2.normal[None, :])[2][1:].T  # (d, d-1)
    ts = np.linspace(-1.0, 1.0, steps)
    grid = np.stack(np.meshgrid(*[ts] * (d - 1)), axis=-1).reshape(-1, d - 1)
    grid /= np.maximum(np.linalg.norm(grid, axis=1), 1.0)[:, None]
    pts = f2.center + (f2.radius * grid) @ basis.T
    v = pts - f1.center
    h = v @ f1.normal
    rho = np.linalg.norm(v - h[:, None] * f1.normal, axis=1)
    least = float(np.hypot(h, np.maximum(rho - f1.radius, 0.0)).min())
    return least, f2.radius * np.sqrt(d - 1) / (steps - 1)


def full_lp_margin(first, second) -> float:
    """Margin of the max-margin separation LP over every point at once.

    Variables (w+, w-, b, gamma): maximise gamma subject to
    (w+ - w-).x >= b + gamma on `first`, <= b - gamma on `second` and
    sum(w+) + sum(w-) <= 1; the optimal normal is then scaled to unit
    length and the margin measured as half the gap it leaves.
    """
    from scipy.optimize import linprog

    first, second = np.asarray(first, float), np.asarray(second, float)
    d = first.shape[1]
    ones_f, ones_s = np.ones((len(first), 1)), np.ones((len(second), 1))
    a_ub = np.block([[-first, first, ones_f, ones_f],
                     [second, -second, -ones_s, ones_s],
                     [np.ones((1, 2 * d)), np.zeros((1, 2))]])
    b_ub = np.r_[np.zeros(len(first) + len(second)), 1.0]
    c = np.r_[np.zeros(2 * d + 1), -1.0]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub,
                  bounds=[(0, None)] * (2 * d) + [(None, None)] * 2)
    assert res.success
    w = res.x[:d] - res.x[d:2 * d]
    w = w / np.linalg.norm(w)
    return 0.5 * float(np.min(first @ w) - np.max(second @ w))


def cold_shell_build(schedule, dim: int, seed: int = 0, scale: float = 1.0):
    """Components and nets of a shell labyrinth, every net from a cold sweep.

    Shells in order j = 1..J, the net cache cleared before each, and each
    disc placed class by class: (centre, normal, radius, level) tuples,
    centres and radii times `scale`.
    """
    from labyrinths import nets as netmod
    from labyrinths.shells import shell_net_separation

    comps, shell_nets = [], []
    for j in range(1, schedule.J + 1):
        netmod._NET_CACHE.clear()
        net = netmod.build_separated_families(
            dim, shell_net_separation(schedule, j), schedule.c, seed=seed,
            target_m=schedule.m)
        r_j = float(schedule.tangent_radii[j - 1])
        for k, cls in enumerate(net.classes[:schedule.m], start=1):
            s_jk = float(schedule.sublevels[j - 1, k - 1])
            for p, direction in enumerate(cls):
                comps.append((scale * (s_jk * direction), direction,
                              scale * r_j, (j, k, p)))
        shell_nets.append(net)
    return comps, shell_nets


def map_flatball_2d(fb: FlatBall, linear: np.ndarray,
                    offset: np.ndarray) -> FlatBall:
    """Exact affine image of a planar flat ball (segments map to segments).

    The image normal is only defined up to sign; the sign pointing away
    from the origin is chosen so tangency reads the same as in the shell
    construction.  The one-disc chart map the patch steps used before they
    mapped disc rows, kept as their reference.
    """
    u = np.array([-fb.normal[1], fb.normal[0]])
    c = linear @ fb.center + offset
    v = linear @ (fb.radius * u)
    r = float(np.linalg.norm(v))
    n = np.array([-v[1], v[0]]) / r
    if n @ c < 0.0:
        n = -n
    return FlatBall(center=c, normal=n, radius=r, level=fb.level)


def per_sample_convexity_gate(dom, count: int = 257):
    """The strict-convexity gate run one boundary sample at a time: the
    first sample, as (index, point), whose gradient vanishes or whose
    tangential Hessian has an eigenvalue <= 1e-10; None when none fails."""
    from labyrinths.domains import boundary_samples

    for i, x in enumerate(boundary_samples(dom, count)):
        g = dom.grad(x)
        ng = np.linalg.norm(g)
        if ng < 1e-12:
            return i, x
        B = tangent_bases((g / ng)[None])[0]
        Ht = B.T @ dom.hess(x) @ B
        if np.linalg.eigvalsh(0.5 * (Ht + Ht.T)).min() <= 1e-10:
            return i, x
    return None


def chart_to_ball(osc, y) -> np.ndarray:
    """Rows y of the domain in the chart of `osc`: z = linear (y - base) + e1."""
    e1 = np.eye(osc.linear.shape[0])[0]
    return (np.asarray(y, dtype=float) - osc.base) @ osc.linear.T + e1


def chart_to_domain(osc, z) -> np.ndarray:
    """Chart rows z back in the domain: y = inverse (z - e1) + base."""
    e1 = np.eye(osc.linear.shape[0])[0]
    return (np.asarray(z, dtype=float) - e1) @ osc.inverse.T + osc.base


def filtered_patch_discs(schedule, dim: int, window: float):
    """Every disc of the seed-0 shell labyrinth on the schedule made first,
    as a `FlatBall` (its nets decide the class count), then those with
    |centre - e1| + radius <= window kept: (centre, normal, radius, level)
    tuples."""
    from labyrinths.shells import build_labyrinth

    e1 = np.zeros(dim)
    e1[0] = 1.0
    return [(fb.center, fb.normal, fb.radius, fb.level)
            for fb in build_labyrinth(schedule, dim).components
            if np.linalg.norm(fb.center - e1) + fb.radius <= window]


def scipy_boundary_samples(dom, count: int) -> np.ndarray:
    """Radial boundary points at `count` angles (d = 2), one scipy
    ``brentq`` per direction after doubling its bracket [0, hi]."""
    theta = 2.0 * np.pi * np.arange(count) / count
    out = []
    for v in np.column_stack([np.cos(theta), np.sin(theta)]):
        u = v / np.linalg.norm(v)
        hi = 1.0
        while dom.rho(hi * u) < 0.0:
            hi *= 2.0
        out.append(brentq(lambda s: dom.rho(s * u), 0.0, hi, xtol=1e-14) * u)
    return np.vstack(out)


def scipy_boundary_near(dom, y, n_out):
    """Boundary point from y along n_out by scipy ``brentq`` on a bracket
    [-0.5, 0.5] doubled at most 20 times; None when none is found."""
    f = lambda s: float(dom.rho(y + s * n_out))
    lo, hi = -0.5, 0.5
    for _ in range(21):
        if f(lo) * f(hi) <= 0.0:
            return y + brentq(f, lo, hi, xtol=1e-14) * n_out
        lo, hi = 2.0 * lo, 2.0 * hi
    return None


def reference_roadmap_graph(rm):
    """The roadmap's graph rebuilt from its nodes with every edge at once.

    The distinct candidate pairs come from ``np.unique`` (int64 rows), the
    endpoints of every edge are gathered into two full arrays and met with
    every disc, with no cull (:func:`brute_segments_collide`), the weights
    are read from the surviving rows and the symmetric CSR is built through
    COO, upper entries first.
    """
    from labyrinths.verifier import NEIGHBORS

    nodes, n, comp = rm.nodes, len(rm.nodes), rm.comp
    pairs = all_node_candidate_pairs(nodes, rm.connect_radius, NEIGHBORS)
    A, B = nodes[pairs[:, 0]], nodes[pairs[:, 1]]
    ok = pairs[~brute_segments_collide(A, B, comp.centers, comp.normals,
                                       comp.radii)]
    w = np.linalg.norm(nodes[ok[:, 0]] - nodes[ok[:, 1]], axis=1)
    return sparse.csr_matrix(
        (np.concatenate([w, w]),
         (np.concatenate([ok[:, 0], ok[:, 1]]),
          np.concatenate([ok[:, 1], ok[:, 0]]))), shape=(n, n))


def reference_escape_graph(rm, graph, source: dict, target: dict):
    """The escape search's graph on n + 2 nodes, through COO.

    Each escape set links its nearby nodes (every node within 1.5 connect
    radii, and for a point set also its 24 nearest) to its projection when
    that link clears every disc (:func:`brute_segments_collide`); the set's
    new node (n for the source, n + 1 for the target) gets those links both
    ways, appended after the entries of `graph`.
    """
    from labyrinths.verifier import _project_to_set, _set_distance

    nodes, n, comp = rm.nodes, len(rm.nodes), rm.comp
    g = graph.tocoo()
    rows, cols, vals = [g.row], [g.col], [g.data]
    for end, descr in ((n, source), (n + 1, target)):
        d = _set_distance(descr, nodes)
        near = np.flatnonzero(d <= max(rm.connect_radius * 1.5, 1e-9))
        if descr["kind"] == "point":
            near = np.union1d(near, np.argsort(d)[:min(n, 24)])
        proj = _project_to_set(descr, nodes[near])
        ok = ~brute_segments_collide(nodes[near], proj, comp.centers,
                                     comp.normals, comp.radii)
        idx = near[ok]
        w = np.maximum(np.linalg.norm(nodes[idx] - proj[ok], axis=1), 1e-300)
        rows += [np.full(len(idx), end), idx]
        cols += [idx, np.full(len(idx), end)]
        vals += [w, w]
    return sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n + 2, n + 2))


def loop_color_net(points, r: float) -> list[np.ndarray]:
    """Greedy colouring with an adjacency list per point, one ``append``
    per direction of each strict pair: decreasing degree, index ties,
    smallest colour no neighbour holds."""
    points = np.asarray(points, dtype=float)
    n = len(points)
    pairs = cKDTree(points).query_pairs(r, output_type="ndarray")
    if len(pairs):
        diff = points[pairs[:, 0]] - points[pairs[:, 1]]
        pairs = pairs[np.einsum("ij,ij->i", diff, diff) < r * r]
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in pairs:
        adj[i].append(int(j))
        adj[j].append(int(i))
    degrees = np.array([len(a) for a in adj])
    color = np.full(n, -1, dtype=int)
    for v in np.lexsort((np.arange(n), -degrees)):
        used = {color[w] for w in adj[v] if color[w] >= 0}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    return [points[color == k] for k in range(int(color.max()) + 1)]


def dense_measure_delta(dom, centers, radius, eta, samples):
    """The collar gap ring by ring: each ring's collar points, their
    containment read from a dense points-by-patches distance matrix, and
    for each patch j one tree over every other ring's points free for j."""
    from labyrinths.domains import boundary_distance

    if len(centers) < 2:
        return None
    ang = 2.0 * np.pi * np.arange(samples) / samples
    circle = np.column_stack([np.cos(ang), np.sin(ang)])
    k = len(centers)
    in_collar, only = [], []
    for i, c in enumerate(centers):
        ring = c + radius * circle
        ring = ring[(dom.rho(ring) <= 0.0)
                    & (boundary_distance(dom, ring) <= eta)]
        inside = np.linalg.norm(ring[:, None] - centers, axis=2) \
            < radius * (1.0 - 1e-12)
        inside[:, i] = False
        only.append(np.where(inside.sum(axis=1) > 1, k, np.where(
            inside.any(axis=1), inside.argmax(axis=1), -1)))
        in_collar.append(ring)
    ring_of = np.repeat(np.arange(k), [len(r) for r in in_collar])
    pts, only = np.concatenate(in_collar), np.concatenate(only)
    delta = np.inf
    for j in range(k):
        mine = in_collar[j]
        if len(mine) == 0:
            return None
        others = pts[(ring_of != j) & ((only == -1) | (only == j))]
        if len(others) == 0:
            continue
        delta = min(delta, float(cKDTree(others).query(mine, k=1)[0].min()))
    return None if not np.isfinite(delta) else delta


def gathered_disc_disc_distance(C1, N1, R1, C2, N2, R2) -> np.ndarray:
    """The d >= 3 disc/disc lower bound with every array gathered by the
    live row indices each round (at most 400 rounds, a row stopping once
    it gains less than 1e-10), then the support gap along x - y."""
    from labyrinths.geometry import disc_support

    def project(X, C, N, R):  # nearest points of the discs to the rows of X
        v = X - C
        w = v - np.einsum("ij,ij->i", v, N)[:, None] * N
        rho = np.linalg.norm(w, axis=1)
        return C + w * np.where(rho > R, R / np.maximum(rho, R), 1.0)[:, None]

    x, y = C1.copy(), C1.copy()
    d = np.full(len(C1), np.inf)
    live = np.arange(len(C1))
    for _ in range(400):
        if len(live) == 0:
            break
        y[live] = project(x[live], C2[live], N2[live], R2[live])
        x[live] = project(y[live], C1[live], N1[live], R1[live])
        new = np.linalg.norm(x[live] - y[live], axis=1)
        gain = d[live] - new
        d[live] = new
        live = live[gain >= 1e-10]
    w = (x - y) / np.where(d > 0.0, d, 1.0)[:, None]
    gap = -disc_support(C1, N1, R1, -w) - disc_support(C2, N2, R2, w)
    return np.maximum(np.minimum(d, gap), 0.0)


def per_step_osculating_map(dom, x, deviation_bound: float):
    """The chart at boundary point x built for one deviation bound, as each
    patch step once built it: (linear, inverse, normal_scale, validity
    radius), the radius found by scanning the sampled chart radii up to the
    first whose tangent-side roots are missing or deviate by more than
    normal_scale * deviation_bound; ValueError when the first already does."""
    from labyrinths.domains import (VALIDITY_STEPS, _boundary_near_rows,
                                    domain_extent)

    if dom.dim != 2:
        raise ValueError(f"the patch layer is planar (d = 2), not "
                         f"d = {dom.dim}")
    x = np.asarray(x, dtype=float)
    if abs(dom.rho(x)) > 1e-9:
        raise ValueError("base point must lie on the boundary")
    g = dom.grad(x)
    ng = float(np.linalg.norm(g))
    n_out = g / ng
    B = tangent_bases(n_out[None])[0]
    Ht = B.T @ dom.hess(x) @ B
    lam, U = np.linalg.eigh(0.5 * (Ht + Ht.T))
    if lam.min() <= 1e-12:
        raise ValueError("tangential Hessian is degenerate at the base point")
    s_n = float(lam.mean()) / ng
    Bscale = np.sqrt(s_n * lam / ng)
    e1 = np.eye(dom.dim)[0]
    L = np.outer(e1, s_n * n_out) \
        + np.vstack([np.zeros(dom.dim), (Bscale[:, None] * U.T) @ B.T])
    chart_deviation = s_n * deviation_bound
    radii = 2.0 * domain_extent(dom) * np.geomspace(1e-3, 0.5, VALIDITY_STEPS)
    ends = x + radii[:, None, None] * np.array([B[:, 0], -B[:, 0]])[None]
    near = _boundary_near_rows(dom, ends.reshape(-1, dom.dim), n_out)
    good = 0.0
    for r, row in zip(radii, near.reshape(ends.shape)):
        if np.isnan(row).any():
            break
        worst = max(abs(np.linalg.norm(L @ (b - x) + e1) - 1.0) for b in row)
        if worst <= chart_deviation:
            good = r
        else:
            break
    if good == 0.0:
        raise ValueError("no valid chart radius at the requested deviation")
    return L, np.linalg.inv(L), s_n, float(good)


def all_rows_boundary_distance(dom, pts) -> np.ndarray:
    """The boundary distance with rho and grad evaluated on every row in
    each of at most 8 Newton projections, stopped rows included; a row
    moves while its own |rho| >= 1e-13."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    x = pts.copy()
    for _ in range(8):
        vals = np.asarray(dom.rho(x))
        moving = np.abs(vals) >= 1e-13
        if not moving.any():
            break
        grads = np.asarray(dom.grad(x))
        gg = np.einsum("ij,ij->i", grads, grads)
        x = np.where(moving[:, None],
                     x - (vals / np.maximum(gg, 1e-300))[:, None] * grads, x)
    return np.linalg.norm(pts - x, axis=1)
