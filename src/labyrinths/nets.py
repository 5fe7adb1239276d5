"""Separated point families on the unit sphere.

A maximal delta-separated net is the farthest-point traversal of a dense
deterministic candidate set, stopped at delta; greedy colouring of its
proximity graph at threshold r then splits it into classes that are each
r-separated while the union keeps covering radius <= delta = c*r.

On the circle's power-of-two grid the traversal has a closed form: from
the start on it takes whole dyadic levels (the first is the antipode), the
midpoints of the gaps between the picks, each level in order of (-d2 to
the two neighbouring picks, index).  A pick changes no other midpoint's
d2, and any other candidate lies nearer a pick.  In d >= 3 the sweep of
`farthest_point_order` finds the traversal.  The sweep's picks do not
depend on where it stops, and it records the squared distance to the
earlier picks at which it made each one (`sampling.ParkedSweep.tops`).
Those never grow along it, so the net at a coarser delta' is the prefix of
the picks made at a squared distance of at least delta'^2: exactly where a
sweep to delta' stops (Gonzalez 1985).  One net is therefore kept, for
the last candidate set and start asked for, keyed by (dim, candidate count,
seed), with the finest delta it was swept to and its sweep parked where it
stopped; a coarser request is cut from it, a finer one goes on with the
sweep, and a new key replaces the entry (on every generate traced, each
cache hit read the newest entry).

What is exact and what is bounded: each class is r-separated exactly (the
colouring compares squared distances with no tolerance); the union covers
the sphere within delta plus the candidate resolution
(:func:`candidate_resolution`), a bound from the candidate set's spacing.
:func:`covering_radius` measures the covering exactly, from the largest
circular gap in the plane and from the convex hull of the points beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .config import DEFAULT_C
from .sampling import (ParkedSweep, circle_rows, farthest_point_order,
                       sphere_candidates)

COVER_SAMPLES = 100_000
CANDIDATE_CAP = 3_000_000
# covering_radius builds convex hulls up to this dimension; generate's nets
# reach d = 4 (`--dim 5` stops at CANDIDATE_CAP)
HULL_MAX_DIM = 4


class NetBudgetError(RuntimeError):
    """Candidate budget exceeded: the dimension is too large for delta."""


class HullCertificateError(ValueError):
    """The convex hull of a point set does not certify its covering radius."""


def sampling_slack(d: int, samples: int) -> float:
    """Documented resolution bound of `samples` quasi-uniform sphere points."""
    return 4.0 * samples ** (-1.0 / (d - 1))


def candidate_resolution(d: int, delta: float) -> float:
    """Spacing of the candidates :func:`greedy_net` draws a delta-net from:
    the net covers S^(d-1) within delta plus this."""
    return min(delta / 2.0, sampling_slack(d, COVER_SAMPLES))


@dataclass(eq=False)
class SeparatedNet:
    """Classes F_1..F_m on S^(dim-1), each r-separated, union covering at c*r."""

    dim: int
    r: float
    c: float
    classes: list[np.ndarray] = field(default_factory=list)
    m: int = 0

    def __post_init__(self):
        if self.m == 0:
            self.m = len(self.classes)

    @property
    def points(self) -> np.ndarray:
        return np.vstack(self.classes)

    @property
    def size(self) -> int:
        return sum(len(c) for c in self.classes)


def _circle_net(n: int, start: int, thresh2: float) -> np.ndarray:
    """The traversal of the n-row circle grid from row `start` to the first
    d2 below `thresh2`, with each d2 formed as the plain loop forms it."""
    grid = circle_rows(np.array([start]), n)  # the picks, h apart
    net = [grid]
    for h in n >> np.arange(int(np.log2(n))):  # h = n, n/2, ..., 2
        idx = (start + h // 2 + h * np.arange(n // h)) % n
        mid = circle_rows(idx, n)
        diff = mid - np.stack([grid, np.roll(grid, -1, axis=0)])
        d2 = np.einsum("bij,bij->bi", diff, diff).min(axis=0)
        keep = np.lexsort((idx, -d2))[:np.count_nonzero(d2 >= thresh2)]
        net.append(mid[keep])
        if len(keep) < len(idx):
            break
        grid = np.stack([grid, mid], axis=1).reshape(-1, 2)
    return np.concatenate(net)


# (dim, candidate count, seed) -> (delta, net, sweep): the one net kept, the
# finest swept for its key, and its sweep, parked where it stopped
_NET_CACHE: dict[tuple, tuple[float, np.ndarray, ParkedSweep]] = {}


def greedy_net(d: int, delta: float, seed: int = 0) -> np.ndarray:
    """Maximal delta-separated subset of S^(d-1).

    Farthest-point selection over a quasi-uniform candidate set whose
    resolution is :func:`candidate_resolution`; candidate count
    grows like (4/resolution)^(d-1) and the call fails rather than degrade
    once it exceeds CANDIDATE_CAP.  The result is pairwise >= delta
    separated (up to a 1e-12 relative slack that admits exact ties) and
    every candidate lies within delta of it, so the sphere is covered at
    delta plus the candidate resolution.  Deterministic given (d, delta,
    seed); the seed only moves the starting point.

    Planar nets come from the closed form and are not cached.  In d >= 3
    a call whose candidate set and start were swept before, to a delta no
    larger, returns the prefix of that sweep's picks made at a squared
    distance of at least this delta's threshold, where a sweep to this
    delta stops (module docstring), as a read-only view of the cached net;
    a finer call resumes the sweep, and that net is read-only too.
    """
    if d < 2:
        raise ValueError("dimension must be >= 2")
    if not (0.0 < delta <= 2.0):
        raise ValueError("delta must lie in (0, 2]")
    eps = candidate_resolution(d, delta)
    need = int(np.ceil((4.0 / eps) ** (d - 1)))
    if need > CANDIDATE_CAP:
        raise NetBudgetError(
            f"candidate budget {need} exceeds cap {CANDIDATE_CAP} "
            f"(d={d}, delta={delta})")
    stop_dist = delta * (1.0 - 1e-12)
    thresh2 = float(stop_dist) ** 2  # the sweep's own stopping test
    if d == 2:  # n: the size of sphere_candidates(2, need)
        n = 1 << int(np.ceil(np.log2(max(need, 8))))
        return _circle_net(n, int(seed) % n, thresh2)
    key = (d, need, int(seed))
    finest, net, sweep = _NET_CACHE.get(key, (np.inf, None, None))
    if delta < finest:
        cand = sphere_candidates(d, need)
        if sweep is None:  # a new key replaces the entry
            _NET_CACHE.clear()
            sweep = ParkedSweep([seed % len(cand)])
        net = cand[farthest_point_order(cand, start=sweep,
                                        stop_dist=stop_dist)]
        net.setflags(write=False)  # callers share the cached array
        _NET_CACHE[key] = (float(delta), net, sweep)
    return net[:1 + np.count_nonzero(np.array(sweep.tops) >= thresh2)]


def color_net(points: np.ndarray, r: float) -> list[np.ndarray]:
    """Partition `points` into classes with all within-class distances >= r.

    Greedy colouring of the proximity graph (edge iff distance < r,
    strictly), vertices in decreasing degree order with index ties; the
    class count is at most 1 + max degree.  The graph is held as arrays
    (both directions of each pair, grouped by source, with offsets) and
    walked as Python lists; a colour depends only on the set of colours
    around a vertex, not on the order its neighbours are listed in.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    if n == 0:
        raise ValueError("points must be nonempty")
    pairs = cKDTree(points).query_pairs(r, output_type="ndarray")
    diff = points[pairs[:, 0]] - points[pairs[:, 1]]
    pairs = pairs[np.einsum("ij,ij->i", diff, diff) < r * r]
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    degrees = np.bincount(src, minlength=n)
    nbrs = dst[np.argsort(src, kind="stable")].tolist()
    start = np.concatenate([[0], np.cumsum(degrees)]).tolist()
    color = [-1] * n  # an uncoloured neighbour adds -1, which no c equals
    for v in np.lexsort((np.arange(n), -degrees)).tolist():
        used = {color[w] for w in nbrs[start[v]:start[v + 1]]}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    color = np.array(color)
    return [points[color == k] for k in range(int(color.max()) + 1)]


def covering_radius(points: np.ndarray, d: int) -> float:
    """Exact covering radius of unit vectors `points` over S^(d-1): the
    largest distance from a sphere point to its nearest point of the set.

    In the plane the farthest sphere point bisects the largest gap g
    between the sorted angles, at chord 2 sin(g/4).  Beyond it the farthest
    point is a vertex of the spherical Voronoi diagram: the outer unit
    normal u_f of a facet f of the convex hull (Qhull: Barber, Dobkin and
    Huhdanpaa 1996), whose nearest points are f's own vertices, so the
    radius is the largest |u_f - v_f|.  The hull is certified first
    (:func:`_hull_covering`); if it is not, :class:`HullCertificateError`
    names what failed.  A hull of n points in d dimensions can have on the
    order of n^(d/2) facets, so beyond HULL_MAX_DIM, past the dimensions
    :func:`greedy_net` builds nets in, the radius is not computed and the
    error says so.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if len(points) == 0:
        raise ValueError("points must be nonempty")
    if d == 2:
        ang = np.sort(np.arctan2(points[:, 1], points[:, 0]))
        gaps = np.diff(ang, append=ang[0] + 2.0 * np.pi)
        return float(2.0 * np.sin(gaps.max() / 4.0))
    if d > HULL_MAX_DIM:
        raise HullCertificateError(
            f"no exact covering radius in d = {d} > {HULL_MAX_DIM}: the "
            "convex hull can have on the order of n^(d/2) facets")
    try:
        hull = ConvexHull(points)
    except (QhullError, ValueError) as exc:
        raise HullCertificateError(f"qhull rejects the points: {exc}") from exc
    return _hull_covering(points, hull)


def _hull_covering(points: np.ndarray, hull: ConvexHull) -> float:
    """The largest |u_f - v_f| over the hull's facets, once the hull is
    certified: every facet offset is < 0 (the origin is strictly inside),
    every facet has d neighbours (the surface is closed), and a KD query
    finds no point nearer to any u_f than f's vertices, to 1e-12 (each
    circumcap is empty).  A closed surface of facets with empty circumcaps
    is a Delaunay triangulation of the sphere, so its caps cover it and the
    radius is exact whatever merging Qhull did.
    """
    U, offset = hull.equations[:, :-1], hull.equations[:, -1]
    if not np.all(offset < 0.0):
        raise HullCertificateError(
            "a facet offset is >= 0: the origin is not strictly inside the "
            "hull, so the points lie in a closed hemisphere")
    if np.any(hull.neighbors < 0):
        raise HullCertificateError("a facet has fewer than d neighbours")
    own = np.linalg.norm(U - points[hull.simplices[:, 0]], axis=1)
    nearest, _ = cKDTree(points).query(U, k=1)
    if np.any(nearest < own - 1e-12):
        raise HullCertificateError(
            "a point lies nearer to a facet normal than the facet's vertices")
    return float(own.max())


def _split_classes(classes: list[np.ndarray], target: int) -> list[np.ndarray]:
    # Splitting a class never hurts: subsets of an r-separated set stay
    # r-separated and the union is unchanged.
    classes = [c for c in classes]
    while len(classes) < target:
        sizes = [len(c) for c in classes]
        big = int(np.argmax(sizes))
        if sizes[big] < 2:
            break
        cls = classes[big]
        classes[big] = cls[0::2]
        classes.insert(big + 1, cls[1::2])
    return classes


def build_separated_families(d: int, r: float, c: float = DEFAULT_C,
                             seed: int = 0, target_m: int = 0) -> SeparatedNet:
    """Separated families at separation r with covering fraction c.

    Runs :func:`greedy_net` at delta = c*r, colours at threshold r, then
    pads the class list up to `target_m` (if it is shorter) by splitting
    classes, which keeps them separated, so nets at several scales can
    share one class count.
    Guarantees: within-class pairwise distances >= r exactly, and the
    union covers the sphere within c*r plus candidate_resolution(d, c*r).
    """
    if not (0.0 < c < 0.5):
        raise ValueError("covering fraction c must lie in (0, 1/2)")
    if r <= 0.0 or c * r > 2.0:
        raise ValueError("need r > 0 and c*r <= 2")
    classes = color_net(greedy_net(d, c * r, seed=seed), r)
    return SeparatedNet(dim=d, r=r, c=c,
                        classes=_split_classes(classes, target_m))
