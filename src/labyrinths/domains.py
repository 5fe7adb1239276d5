"""Convex domains {rho < 0}: ellipsoids exactly, smooth domains locally.

Every domain is one model: a defining function rho with its gradient and
Hessian.  A ball or an ellipsoid is the quadric rho = x'Ax - 1 and keeps A,
which gives the boundary point along a ray and the extent in closed form;
osculating charts, the boundary distance and containment read rho alone.
Only the file descriptor reads the kind: it resolves to a domain of the
file's dimension (:func:`resolve_domain`) and back (`descriptor`).

Ellipsoids are handled by one global linear change of coordinates.  Smooth
strictly convex planar domains get local affine osculating maps at boundary
points, a patch cover of the boundary with a collar gap delta measured on
samples (:class:`PatchCover`), and a round-robin schedule that stacks
shrinking collars of disc layers; each patch appears often enough that
either a path crosses a full local stack or it pays delta per transition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.spatial import cKDTree

from . import sampling
from .config import DEFAULT_C, DEFAULT_T
from .geometry import FlatBall, row_dots, tangent_bases
from .shells import (Labyrinth, build_labyrinth, schedule_discs,
                     schedule_from_radii)


# patch covers: boundary samples, and ring samples per patch for the gap
PATCH_BOUNDARY_SAMPLES = 2048
PATCH_RING_SAMPLES = 1024
# boundary samples of the strict-convexity gate of smooth domains
VALIDATION_SAMPLES = 257
# chart validity: radii tried along the planar tangent pair
VALIDITY_STEPS = 24
# patch assembly: one shell per step, placed in the band [0.88, 0.97] of the
# collar depth, with a chart deviation of 15% of the band's inner edge
COLLAR_BAND = (0.88, 0.97)
DEVIATION_FRACTION = 0.15
# most patch steps a schedule may hold: each step narrows the collar by 7 to
# 16% on the ellipse, so ten thousand would take it below 1e-300
MAX_PATCH_STEPS = 10_000
# smallest collar width a patch step may start from
COLLAR_FLOOR = 1e-6


class CoverageError(RuntimeError):
    """Patch shrinking could not keep the boundary covered with a gap."""


class CollarCollapseError(RuntimeError):
    """Collar width fell below the floor before the schedule finished."""


@dataclass(eq=False)
class ConvexDomain:
    """Bounded convex domain {rho < 0} containing the origin.

    Every domain carries the defining function with gradient and Hessian
    callables, strictly convex on the boundary.  Kinds "ball" and
    "ellipsoid" are the quadric x'Ax - 1 and keep A in `matrix`; kind
    "smooth" is validated at construction (tangential Hessian positive
    definite at sampled boundary points).
    """

    kind: str
    dim: int
    rho: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    matrix: np.ndarray | None = None
    name: str = ""

    def descriptor(self) -> dict:
        if self.kind == "ball":
            return {"kind": "ball"}
        if self.kind == "ellipsoid":
            return {"kind": "ellipsoid", "matrix": self.matrix.tolist()}
        return {"kind": "smooth", "preset": self.name}


def _quadric_domain(kind: str, A: np.ndarray) -> ConvexDomain:
    """{x : x'Ax < 1}: rho = x'Ax - 1, grad = 2Ax, hess = 2A."""
    return ConvexDomain(
        kind=kind, dim=A.shape[0], matrix=A, name=kind,
        rho=lambda x: np.einsum("...i,ij,...j->...", x, A, x) - 1.0,
        grad=lambda x: 2.0 * np.asarray(x, dtype=float) @ A,
        hess=lambda x: 2.0 * A)


def ball_domain(dim: int = 2) -> ConvexDomain:
    return _quadric_domain("ball", np.eye(dim))


def ellipsoid_domain(matrix) -> ConvexDomain:
    """Domain {x : x' A x < 1}; A must be symmetric positive definite."""
    A = np.asarray(matrix, dtype=float)
    if not np.all(np.isfinite(A)):
        raise ValueError("shape matrix must be finite")
    if A.shape[0] != A.shape[1] or not np.allclose(A, A.T, atol=1e-12):
        raise ValueError("shape matrix must be symmetric")
    if np.linalg.eigvalsh(A).min() <= 1e-10:
        raise ValueError("shape matrix must be positive definite")
    return _quadric_domain("ellipsoid", A)


def _smooth_domain(name: str, dim: int, rho, grad, hess) -> ConvexDomain:
    dom = ConvexDomain(kind="smooth", dim=dim, rho=rho, grad=grad, hess=hess,
                       name=name)
    if rho(np.zeros(dim)) >= 0.0:
        raise ValueError("smooth domain must contain the origin")
    X = boundary_samples(dom, VALIDATION_SAMPLES)
    G = np.asarray(grad(X), dtype=float)
    ng = np.sqrt(row_dots(G, G))
    if np.any(ng < 1e-12):
        raise ValueError("defining function has vanishing gradient on "
                         "the boundary")
    B = tangent_bases(G / ng[:, None])
    Ht = B.transpose(0, 2, 1) @ np.stack([hess(x) for x in X]) @ B
    low = np.linalg.eigvalsh(0.5 * (Ht + Ht.transpose(0, 2, 1))).min(axis=1)
    bad = np.flatnonzero(low <= 1e-10)
    if len(bad):
        raise ValueError(f"domain {name!r} is not strictly convex at "
                         f"boundary point {X[bad[0]]}")
    return dom


def ellipse_preset() -> ConvexDomain:
    """The ellipse x^2/4 + y^2 < 1."""
    diag = np.array([0.25, 1.0])

    def rho(x):
        x = np.asarray(x, dtype=float)
        return np.sum(diag * x ** 2, axis=-1) - 1.0

    def grad(x):
        return 2.0 * diag * np.asarray(x, dtype=float)

    return _smooth_domain("ellipse", 2, rho, grad,
                          lambda x: 2.0 * np.diag(diag))


def superellipse_preset() -> ConvexDomain:
    """Quartic x^4 + y^4 regularised by 0.05|x|^2 so curvature stays positive.

    The pure quartic has vanishing curvature at the axis points, which the
    strict-convexity gate rejects; the small quadratic term keeps the
    quartic shape while making the tangential Hessian positive everywhere.
    """
    lam = 0.05

    def rho(x):
        x = np.asarray(x, dtype=float)
        return np.sum(x ** 4 + lam * x ** 2, axis=-1) - (1.0 + lam)

    def grad(x):
        x = np.asarray(x, dtype=float)
        return 4.0 * x ** 3 + 2.0 * lam * x

    def hess(x):
        return np.diag(12.0 * np.asarray(x, dtype=float) ** 2 + 2.0 * lam)

    return _smooth_domain("superellipse", 2, rho, grad, hess)


PRESETS = {"ellipse": ellipse_preset, "superellipse": superellipse_preset}


def resolve_domain(descriptor: dict, dim: int) -> ConvexDomain:
    """The `dim`-dimensional domain a file's descriptor names."""
    kind = descriptor.get("kind")
    if kind == "ball":
        dom = ball_domain(dim)
    elif kind == "ellipsoid":
        dom = ellipsoid_domain(np.asarray(descriptor["matrix"], dtype=float))
    elif kind == "smooth":
        name = descriptor.get("preset")
        if name not in PRESETS:
            raise ValueError(f"unknown smooth preset {name!r}")
        dom = PRESETS[name]()
    else:
        raise ValueError(f"unknown domain kind {kind!r}")
    if dom.dim != dim:
        raise ValueError(f"domain is not {dim}-dimensional")
    return dom


def boundary_points(dom: ConvexDomain, directions: np.ndarray) -> np.ndarray:
    """Boundary points along rays from the origin, one per direction row.

    Quadrics use the closed form u/sqrt(u'Au); other domains the root of
    rho(s u) on [0, 1], doubled at most 29 times (:func:`_line_roots`).
    """
    D = np.atleast_2d(np.asarray(directions, dtype=float))
    norms = np.sqrt(row_dots(D, D))
    if np.any(norms == 0.0):
        raise ValueError("cannot normalise the zero vector")
    U = D / norms[:, None]
    if dom.matrix is not None:
        return np.vstack([u / np.sqrt(float(u @ dom.matrix @ u)) for u in U])
    t = _line_roots(dom, np.zeros_like(U), U, np.zeros(len(U)),
                    np.ones(len(U)), 29)
    if np.isnan(t).any():
        raise ValueError("domain appears unbounded along a ray")
    return t[:, None] * U


def _line_roots(dom, Y, D, lo, hi, doublings) -> np.ndarray:
    """The root s of rho(Y + s D) in each row's bracket [lo, hi], NaN if none.

    A bracket whose ends do not change sign (a NaN product included)
    doubles in place, at most `doublings` times.  Each row then takes
    Newton steps s <- s - rho / (grad . D) from `hi` until one does not
    lower s.  Along every line here rho is convex and rises through the
    root from `lo` to `hi`, so each tangent meets zero at or beyond the
    root and the steps fall onto it monotonically: no tolerance, no cap.
    """
    def f(s, rows):
        return dom.rho(Y[rows] + s[:, None] * D[rows])

    rows = np.arange(len(lo))
    same = ~(f(lo, rows) * f(hi, rows) <= 0.0)
    for _ in range(doublings):
        rows = np.flatnonzero(same)
        if not len(rows):
            break
        lo[rows] *= 2.0
        hi[rows] *= 2.0
        same[rows] = ~(f(lo[rows], rows) * f(hi[rows], rows) <= 0.0)
    found = np.flatnonzero(~same)
    Y, D, s = Y[found], D[found], hi[found]
    lower = np.ones(len(s), dtype=bool)
    while lower.any():
        X = Y + s[:, None] * D
        step = s - dom.rho(X) / row_dots(dom.grad(X), D)
        lower = step < s
        s = np.where(lower, step, s)
    out = np.full(len(lo), np.nan)
    out[found] = s
    return out


def boundary_samples(dom: ConvexDomain, count: int) -> np.ndarray:
    """Boundary points of a planar domain at `count` equally spaced angles."""
    theta = 2.0 * np.pi * np.arange(count) / count
    return boundary_points(dom, np.column_stack([np.cos(theta), np.sin(theta)]))


def boundary_distance(dom: ConvexDomain, pts: np.ndarray) -> np.ndarray:
    """Distance to the boundary, accurate near it.

    At most 8 Newton projections x <- x - rho(x) grad/|grad|^2 onto the
    zero set of the defining function, each row stopping once its own
    |rho| < 1e-13; the result is the distance travelled.  The steps
    follow the gradient, not the normal through the nearest boundary
    point, so the value matches the true distance to second order in it:
    on the ellipse preset the relative error measured 2e-9 at depth 1e-4,
    2e-5 at 1e-2 and 1.4e-3 at 0.08, the default collar width.
    """
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


# ---------------------------------------------------------------------------
# ellipsoid: exact global normalisation


@dataclass(eq=False)
class EllipsoidMap:
    """Linear change of coordinates T with T(domain) = unit ball."""

    to_ball: np.ndarray
    norm_to_ball: float


def normalize_ellipsoid(matrix) -> EllipsoidMap:
    """Principal square root T of the shape matrix, with its operator norm.

    Escape lengths transform within the reported condition-number bounds:
    a path gamma in the ellipsoid maps to T gamma in the ball with
    len(T gamma) <= |T| len(gamma), and back with |T^-1|.
    """
    A = np.asarray(matrix, dtype=float)
    w, V = np.linalg.eigh(0.5 * (A + A.T))
    if w.min() <= 1e-10:
        raise ValueError("shape matrix must be positive definite")
    T = V @ np.diag(np.sqrt(w)) @ V.T
    return EllipsoidMap(to_ball=T, norm_to_ball=float(np.sqrt(w.max())))


def ellipsoid_labyrinth(dom: ConvexDomain, schedule, seed: int = 0) -> Labyrinth:
    """Ball labyrinth pulled back through the ellipsoid normalisation.

    Components are kept in ball coordinates; the labyrinth's domain record
    carries the linear map, so exports and escape-length statements remain
    exact (verification runs in ball coordinates and transfers through the
    operator-norm bounds).
    """
    emap = normalize_ellipsoid(dom.matrix)
    lab = build_labyrinth(schedule, dom.dim, seed=seed)
    lab.domain = {"kind": "ellipsoid", "matrix": dom.matrix.tolist(),
                  "to_ball": emap.to_ball.tolist()}
    return lab


def _map_disc_rows_2d(linear: np.ndarray, offset: np.ndarray, C, N, R) -> tuple:
    """Exact images (C, N, R) of planar disc rows under x -> linear x +
    offset, segments to segments; each image normal takes the sign pointing
    away from the origin, so tangency reads as in the shell construction."""
    U = np.column_stack([-N[:, 1], N[:, 0]])
    Cm = (linear @ C[:, :, None])[:, :, 0] + offset
    V = (linear @ (R[:, None] * U)[:, :, None])[:, :, 0]
    Rm = np.sqrt(row_dots(V, V))
    Nm = np.column_stack([-V[:, 1], V[:, 0]]) / Rm[:, None]
    Nm[row_dots(Nm, Cm) < 0.0] *= -1.0
    return Cm, Nm, Rm


# ---------------------------------------------------------------------------
# local osculating charts for smooth domains


@dataclass(eq=False)
class OsculatingMap:
    """Affine chart at a boundary point sending the domain to ~unit ball.

    Under z = linear @ (y - base) + e1 the defining function agrees with
    |z|^2 - 1 to second order at the base point; `validity_radius` bounds
    the chart domain so that |(|z| - 1)| stays within the deviation it was
    measured at (:func:`osculating_map`) on the boundary within it.
    """

    base: np.ndarray
    linear: np.ndarray
    inverse: np.ndarray
    validity_radius: float
    normal_scale: float


def osculating_map(dom: ConvexDomain, x: np.ndarray,
                   deviation_bound: float = 0.05) -> OsculatingMap:
    """Second-order normalising chart at boundary point x.

    The outward normal goes to the first axis and the tangential directions
    are rescaled by the square roots of the curvature eigenvalues, so the
    boundary osculates the unit sphere at e1 exactly to second order.  The
    validity radius is measured by sampling: the largest tested chart
    radius within which the boundary stays within `deviation_bound` of the
    osculating sphere.  The bound is a domain-space distance; in chart
    coordinates it corresponds to |(|z| - 1)| <= normal_scale * bound,
    which matters on flat boundary stretches where the chart compresses.
    """
    if dom.dim != 2:  # validity is read along one tangent line
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
    # normal scale from the mean curvature eigenvalue; tangential scales
    # absorb the anisotropy so the second-order match is exact regardless
    s_n = float(lam.mean()) / ng
    Bscale = np.sqrt(s_n * lam / ng)
    e1 = np.eye(dom.dim)[0]
    L = np.outer(e1, s_n * n_out) \
        + np.vstack([np.zeros(dom.dim), (Bscale[:, None] * U.T) @ B.T])
    Li = np.linalg.inv(L)

    validity = _measure_validity(dom, x, n_out, B, L, s_n * deviation_bound)
    return OsculatingMap(base=x, linear=L, inverse=Li,
                         validity_radius=validity, normal_scale=s_n)


def _measure_validity(dom, x, n_out, B, L, chart_deviation) -> float:
    """Largest sampled chart radius keeping |(|z|-1)| within chart_deviation,
    read along the planar tangent pair +-B[:, 0]."""
    e1 = np.eye(dom.dim)[0]
    radii = 2.0 * domain_extent(dom) * np.geomspace(1e-3, 0.5, VALIDITY_STEPS)
    # every (radius, tangent) root in one batch; the scan stops at the
    # first radius that fails, and the roots past it go unread
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
    return float(good)


def _boundary_near_rows(dom, Y, n_out) -> np.ndarray:
    """Boundary points reached from the rows of Y along the normal direction.

    Each row's bracket [-0.5, 0.5] doubles at most 20 times
    (:func:`_line_roots`); a row that finds no sign change comes back NaN.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    s = _line_roots(dom, Y, np.broadcast_to(n_out, Y.shape),
                    np.full(len(Y), -0.5), np.full(len(Y), 0.5), 20)
    return Y + s[:, None] * n_out


def domain_extent(dom: ConvexDomain) -> float:
    """Largest distance from the origin to the boundary along an axis; for
    a quadric, 1/sqrt(lambda_min(A)), the largest over all directions."""
    if dom.matrix is not None:
        return float(1.0 / np.sqrt(np.linalg.eigvalsh(dom.matrix).min()))
    return max(np.linalg.norm(b) for b in boundary_points(dom, np.eye(dom.dim)))


# ---------------------------------------------------------------------------
# patch covers and the round-robin collar schedule


@dataclass(eq=False)
class PatchCover:
    """Boundary-centred balls covering the boundary, with a measured gap.

    delta is the distance, inside the collar of width eta, from any patch
    boundary to the boundary of the union of the others, as a minimum over
    PATCH_RING_SAMPLES points per ring (:func:`_measure_delta`).  It can
    only overstate the true gap: by at most one ring spacing, 2 radius
    sin(pi / PATCH_RING_SAMPLES), on the arcs, plus what the sampled collar
    cuts miss at their ends.  The schedule divides an escape budget by it.
    """

    domain: ConvexDomain
    centers: np.ndarray
    radius: float
    eta: float
    delta: float

    @property
    def k(self) -> int:
        return len(self.centers)


def patch_cover(dom: ConvexDomain, patch_radius: float,
                eta: float) -> PatchCover:
    """Greedy boundary cover by patch balls, then a gap-maximising shrink.

    Patch centres are a farthest-point traversal of the planar boundary
    samples from sample 0, stopped once every sample is interior to some
    patch.  The common radius is then re-chosen on a grid between the
    smallest covering radius and the requested one to maximise the
    measured collar gap delta (:func:`_measure_delta`).
    """
    if dom.dim != 2:
        raise ValueError(f"the patch layer is planar (d = 2), not "
                         f"d = {dom.dim}")
    if not 0.0 < patch_radius < np.inf:  # NaN fails too
        raise ValueError(f"patch radius {patch_radius} is not finite and "
                         "positive")
    bnd = boundary_samples(dom, PATCH_BOUNDARY_SAMPLES)
    inradius = float(np.min(np.linalg.norm(bnd, axis=1)))
    if not (0.0 < eta < 0.25 * inradius):
        raise ValueError(f"eta must lie in (0, {0.25 * inradius:.6g}), below "
                         "a quarter of the domain inradius")
    # cover the sampled boundary with strict interior margin
    centers = bnd[sampling.farthest_point_order(
        bnd, 0, stop_dist=patch_radius * (1.0 - 1e-9))]
    reach = np.linalg.norm(bnd[:, None] - centers, axis=2).min(axis=1)
    covering_need = float(reach.max()) / patch_radius  # fraction of radius used
    best = None
    for f in np.linspace(min(1.0, covering_need + 0.05), 1.0, 16):
        delta = _measure_delta(dom, centers, f * patch_radius, eta,
                               PATCH_RING_SAMPLES)
        if delta is not None and (best is None or delta > best[1]):
            best = (f, delta)
    if best is None or best[1] <= 0.0:
        raise CoverageError("no radius in range yields a positive collar gap")
    f, delta = best
    return PatchCover(domain=dom, centers=centers, radius=f * patch_radius,
                      eta=eta, delta=delta)


def measure_delta(cover: PatchCover, sample_factor: int = 1) -> float | None:
    """Re-measure the collar gap at a denser per-patch sampling."""
    return _measure_delta(cover.domain, cover.centers, cover.radius,
                          cover.eta, PATCH_RING_SAMPLES * sample_factor)


def _measure_delta(dom, centers, radius, eta, samples) -> float | None:
    """min over patches j of dist(V & dU_j, V & d(union_{i!=j} U_i)).

    A collar point of ring i lies on the boundary of the union without
    patch j when no patch other than i and j strictly contains it, so the
    collar points of all rings, in one table, are sorted once by the
    patches containing them: free for every j (none), for one j only
    (exactly that one), or for none.  A ring point lies about `radius`
    from its centre, so only patches whose centres are within 2 radius of
    its own can contain it, and ring i can come nearer to ring j than the
    best gap so far only if their centres are within 2 radius plus that
    gap: patch j queries just those rings' trees of free points, nearest
    first, and the points free for j alone.  `slack` covers the rounding
    of the ring points, so both culls keep every candidate that counts.
    """
    k = len(centers)
    if k < 2:
        return None
    ang = 2.0 * np.pi * np.arange(samples) / samples
    circle = np.column_stack([np.cos(ang), np.sin(ang)])
    pts = (centers[:, None] + radius * circle).reshape(-1, 2)
    inner = np.flatnonzero(dom.rho(pts) <= 0.0)
    keep = inner[boundary_distance(dom, pts[inner]) <= eta]
    pts = pts[keep]
    # ring i's collar points are the rows start[i]:start[i + 1]
    start = np.searchsorted(keep // samples, np.arange(k + 1))
    if np.any(np.diff(start) == 0):
        return None
    slack = 1e-9 * (radius + np.abs(centers).max())
    pairs = cKDTree(centers).query_pairs(2.0 * radius + slack,
                                         output_type="ndarray")
    ring, patch = np.concatenate([pairs, pairs[:, ::-1]]).T
    size = start[ring + 1] - start[ring]
    row = np.repeat(start[ring] - np.cumsum(size) + size, size) \
        + np.arange(size.sum())
    patch = np.repeat(patch, size)
    inside = np.linalg.norm(pts[row] - centers[patch], axis=1) \
        < radius * (1.0 - 1e-12)
    row, patch = row[inside], patch[inside]
    # the one other patch containing a point, -1 if none, k if several
    only = np.full(len(pts), -1)
    only[row] = patch
    only[np.bincount(row, minlength=len(pts)) > 1] = k
    free = [pts[a:b][only[a:b] == -1] for a, b in zip(start[:-1], start[1:])]
    trees = [cKDTree(f) if len(f) else None for f in free]
    alone = np.flatnonzero((only >= 0) & (only < k))
    alone = alone[np.argsort(only[alone], kind="stable")]
    cut = np.searchsorted(only[alone], np.arange(k + 1))
    delta = np.inf
    for j in range(k):
        mine = pts[start[j]:start[j + 1]]
        if cut[j + 1] > cut[j]:
            tree = cKDTree(pts[alone[cut[j]:cut[j + 1]]])
            delta = min(delta, float(tree.query(mine, k=1)[0].min()))
        dc = np.linalg.norm(centers - centers[j], axis=1).tolist()
        for i in sorted(range(k), key=dc.__getitem__):
            if dc[i] > 2.0 * radius + delta + slack:
                break
            if i != j and trees[i] is not None:
                delta = min(delta, float(trees[i].query(mine, k=1)[0].min()))
    return None if not np.isfinite(delta) else delta


def patch_schedule(cover: PatchCover, M: float) -> list[int]:
    """Round-robin patch sequence: each patch exactly n times, n delta > M."""
    if cover.delta <= 0.0:
        raise ValueError("cover gap delta must be positive")
    n = np.floor(M / cover.delta) + 1
    if n * cover.k > MAX_PATCH_STEPS:
        raise ValueError(f"{n * cover.k:.6g} patch steps exceed {MAX_PATCH_STEPS}")
    return list(range(cover.k)) * int(n)


def assemble_patch_labyrinth(dom: ConvexDomain, cover: PatchCover, M: float,
                             t: float = DEFAULT_T,
                             c: float = DEFAULT_C) -> Labyrinth:
    """Iterate the patch schedule, stacking disc layers in shrinking collars.

    Step j builds one shell on the class count its nets decide (every
    class placed, :func:`schedule_discs`; nets start on the chart axis)
    inside patch U_(sigma j), in the osculating chart within the band
    COLLAR_BAND * eta_j of collar depth, and maps it back (exactly,
    segments to segments in the plane).  The re-measured collar width
    eta_(j+1), the distance from the boundary to everything built so far,
    must decrease strictly; the loop aborts with
    :class:`CollarCollapseError` if it falls below COLLAR_FLOOR first.
    """
    if dom.dim != 2:
        raise NotImplementedError("patch assembly is implemented for d = 2")
    schedule = patch_schedule(cover, M)
    eta = cover.eta
    collar_widths: list[float] = []
    components: list[FlatBall] = []
    alpha, beta = COLLAR_BAND
    for step, pidx in enumerate(schedule):
        if eta < COLLAR_FLOOR:
            raise CollarCollapseError(
                f"collar width {eta:.3g} fell below {COLLAR_FLOOR} at step "
                f"{step} of {len(schedule)}")
        dev = min(0.05, DEVIATION_FRACTION * alpha * eta)
        osc = osculating_map(dom, cover.centers[pidx], deviation_bound=dev)
        h = osc.normal_scale * eta
        s_lo, s_hi = 1.0 - beta * h, 1.0 - alpha * h
        local = schedule_from_radii(s_lo, [s_lo + (s_hi - s_lo) / 2], 2, t, c)
        window = min(osc.validity_radius, cover.radius * 0.9) \
            * np.linalg.norm(osc.linear, 2)
        C, N, R, levels = _local_patch_discs(local, dom.dim, window)
        if not len(C):
            raise CollarCollapseError(
                f"chart window at step {step} admitted no discs; enlarge the "
                "patch radius or the deviation budget")
        C, N, R = _map_disc_rows_2d(osc.inverse, osc.base - osc.inverse @
                                    np.array([1.0, 0.0]), C, N, R)
        components.extend(
            FlatBall(center=c, normal=n, radius=r, level=(step + 1, k, p))
            for c, n, r, (_, k, p) in zip(C, N, R, levels.tolist()))
        # the ends of each new segment: the distance to the boundary is
        # concave on a convex domain, so its minimum on a segment is at an end
        U = R[:, None] * np.column_stack([-N[:, 1], N[:, 0]])
        eta_new = float(boundary_distance(dom, np.vstack([C - U, C + U])).min())
        if eta_new >= eta:
            raise CollarCollapseError("collar width failed to decrease strictly")
        eta = eta_new
        collar_widths.append(eta)
    return Labyrinth(dim=dom.dim, domain=dom.descriptor(),
                     components=components, schedule=None,
                     kind="patch", collar_widths=collar_widths)


def _local_patch_discs(schedule, dim, window) -> tuple:
    """Disc rows (C, N, R, levels) of :func:`schedule_discs` in the chart
    window around e1: the discs with |centre - e1| + radius <= window; the
    nets start at grid row 0, e1 itself, so the first pick's disc is on it."""
    rows = [(c, n, np.full(len(c), r), lv)
            for c, n, r, lv, _ in schedule_discs(schedule, dim)[1]]
    C, N, R, levels = (np.concatenate(col) for col in zip(*rows))
    off = C - np.eye(dim)[0]
    keep = np.sqrt(row_dots(off, off)) + R <= window
    return C[keep], N[keep], R[keep], levels[keep]
