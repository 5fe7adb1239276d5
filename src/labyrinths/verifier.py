"""Escape-length auditing: roadmap search for short paths avoiding the discs.

The search is evidence-grade, not proof-grade: it reports the shortest
certified escape path it could find, which upper-bounds the true infimum.
"Passing" a budget M therefore means "no path of length <= M was found at
the configured effort", never a proof that none exists.  Structural
invariants of a labyrinth (tangency, disjointness, separation witnesses,
net separation and covering, containment) are audited from the discs,
with no sampled estimate: exactly, to stated tolerances, or by a stated
sufficient bound (:func:`audit_labyrinth` lists which); disjointness uses
:func:`labyrinths.geometry.pairs_disc_disc_distance`, so the reported
``min_distance`` is a certified lower bound, exact in the plane.

Every roadmap edge, boundary link, shortcut and the final re-verification
use one exact predicate,
:func:`labyrinths.geometry.pairs_segment_disc_contact`: a segment touches a
closed disc iff it crosses the disc's hyperplane, or lies in it, within the
radius of the centre.  Grazes at the rounding level (about 1e-17, e.g. a
rim-ring node on a disc's plane) fall either way.  Every cull below keeps
each row the predicate could find touching, so every mask is the one an
all-disc test gives.  The search has one cull, by endpoint/disc incidence
(:func:`_segments_collide`): the roadmap edges, the free samples and rim
nodes (each point a segment of length 0) and the boundary links each test
only the discs within their length of their first end, found through a
cover of each planar disc by small balls, and through bounding spheres
beyond the plane.  :func:`shortcut` tests only the discs whose
axis-aligned extent meets its path's bounding box; :func:`verify_path`
tests every segment against every disc (:func:`_touches_any`).  Per-disc
quantities come from one table of disc rows per call
(:func:`labyrinths.geometry.disc_rows`; the roadmap's :class:`_CompArrays`
adds the KD trees of its cull), never one disc at a time.  An
:class:`EscapePath` measures its own length from its polyline.

The roadmap stores each edge once, as an upper-triangular CSR matrix, and
the escape search appends the source and target links as two trailing rows;
Dijkstra runs undirected on it (:func:`shortest_escape`).

The search region comes from the escape sets, not the domain: two spheres
give the annulus between their radii, point sets a box around them.  The
audit's ``containment`` check holds an annulus to its radii and any other
domain to its defining function (:func:`add_containment_check`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

from .config import RIM_STEP
from .domains import resolve_domain
from .geometry import (
    LP_MARGIN_FLOOR,
    FlatBall,
    disc_norm_range,
    disc_rim_points,
    disc_rows,
    disc_support,
    pairs_disc_disc_distance,
    pairs_point_disc_distance,
    pairs_segment_disc_contact,
    row_dots,
    separating_hyperplane,
    tangent_bases,
)
from .nets import candidate_resolution, covering_radius
from .sampling import sobol
from .shells import Labyrinth, shell_net_separation, sqrt_gap_partial_sums

# segments per collision batch, whose (segment, disc) rows then reach the
# predicate a quarter of that at a time: a batch's arrays stay within a few MB
_COLLIDE_CHUNK = 1 << 15

# roadmap edges: k nearest neighbours plus every pair within CONNECT_FACTOR
# times the mean node spacing (measure / nodes)^(1/d)
NEIGHBORS = 10
CONNECT_FACTOR = 2.2

# node budgets of one roadmap; one attempt's working set grows about linearly
# with the budget (a traced peak of 11.6 MiB at 20 000 planar nodes, 19.6 MiB
# at 80 000, for build_roadmap plus shortest_escape), so the cap bounds it
MIN_NODE_BUDGET = 100
MAX_NODE_BUDGET = 1_000_000

# structural audit: the d = 3 lex-witness LPs run only up to this many
# components; the planar half-gaps and the disjointness candidates are taken
# this many disc pairs at a time (0.13 MB a float array)
LEX_COMPONENT_CAP = 400
_PAIR_CHUNK = 1 << 14


class RoadmapBudgetError(RuntimeError):
    """Under one draw in 1000 lands in the search region, clear of discs."""


@dataclass(frozen=True)
class EffortBudget:
    """Search effort: seeds, node budgets and shortcut rounds."""

    seeds: tuple = (0, 1, 2, 3)
    node_budgets: tuple = (20_000, 80_000)
    shortcut_rounds: int = 400

    @staticmethod
    def default(dim: int) -> "EffortBudget":
        if dim <= 2:
            return EffortBudget()
        # Halved budgets beyond the plane; d >= 4 works but is slow.
        return EffortBudget(node_budgets=(10_000, 40_000))

    @staticmethod
    def probe(dim: int) -> "EffortBudget":
        """Cheap effort used inside construction loops."""
        if dim <= 2:
            return EffortBudget(seeds=(0,), node_budgets=(40_000,),
                                shortcut_rounds=200)
        return EffortBudget(seeds=(0,), node_budgets=(16_000,),
                            shortcut_rounds=200)


# ---------------------------------------------------------------------------
# component stacking and vectorised collision tests


@dataclass(eq=False)
class _CompArrays:
    centers: np.ndarray
    normals: np.ndarray
    radii: np.ndarray
    tree: cKDTree | None
    covers: dict = field(default_factory=dict)

    @staticmethod
    def from_components(comps: list[FlatBall]) -> "_CompArrays":
        C, N, R = disc_rows(comps)
        return _CompArrays(C, N, R, cKDTree(C) if comps else None)

    def __len__(self):
        return len(self.radii)

    def cover(self, k: int) -> tuple:
        """(owner, tree, rho): the level-k sub-ball cover of planar discs.

        Every cell has the same side 2*R_max/k: the chord of radius R is
        cut into ceil(k*R/R_max) cells centred on the disc, and each
        cell gives a sub-ball at its centre, so a small disc gets few.  A
        point of the disc lies in a cell, so within rho = R_max/k of that
        sub-ball's centre.  `owner` maps sub-balls to discs and `tree`
        holds their centres.  Level 1 is the disc centres with rho = R_max,
        a bounding sphere of every disc, in any dimension.
        """
        r_max = float(self.radii.max())
        if k == 1:
            return np.arange(len(self)), self.tree, r_max
        if k not in self.covers:
            h = r_max / k  # half a cell side
            m = np.ceil(self.radii / h).astype(np.intp)
            owner = np.repeat(np.arange(len(self)), m)
            # cell j of a disc with m cells is centred at (2j + 1 - m) h
            j = np.arange(len(owner)) - np.repeat(np.cumsum(m) - m, m)
            t = np.column_stack([-self.normals[:, 1], self.normals[:, 0]])
            t /= np.linalg.norm(t, axis=1, keepdims=True)
            pts = self.centers[owner] \
                + (h * (2 * j + 1 - m[owner]))[:, None] * t[owner]
            self.covers[k] = owner, cKDTree(pts), h
        return self.covers[k]


def _cover_level(comp: _CompArrays, length: float) -> int:
    """Cover level k for segments of typical `length` (points: length 0).

    In the plane, the largest disc radius over the length, rounded down to
    a power of two and at most 16: finer covers stop paying once a
    sub-ball is smaller than a segment.  Beyond the plane, 1: a disc needs
    about k^(d-1) sub-balls there, and on a d = 3 annulus roadmap level 2
    sent twice the pairs of level 1.
    """
    if comp.centers.shape[1] != 2:
        return 1
    r_max = float(comp.radii.max())
    k = 1
    while k < 16 and 2 * k * length <= r_max:
        k *= 2
    return k


def _near_pairs(pts: np.ndarray, reach, comp: _CompArrays, k: int) -> tuple:
    """Rows (i, j): pts[i] lies within reach[i] + rho of a sub-ball of disc j.

    Uses the level-k cover of :meth:`_CompArrays.cover`: one dual-tree
    pass at the largest reach, then a per-row filter; reach may be a
    scalar.  A disc shows up once per sub-ball in reach, so rows repeat;
    :func:`_segments_collide` drops them with the sort that groups its
    rows by run anyway.
    """
    owner, tree, rho = comp.cover(k)
    reach = np.broadcast_to(reach, (len(pts),)) + rho
    # built once and queried once: an unbalanced, non-compact tree builds
    # faster and finds the same pairs
    query = cKDTree(pts, balanced_tree=False, compact_nodes=False)
    m = query.sparse_distance_matrix(tree, float(reach.max()),
                                     output_type="ndarray")
    keep = m["v"] <= reach[m["i"]]
    return m["i"][keep], owner[m["j"][keep]]


def _segments_collide(A: np.ndarray, B: np.ndarray,
                      comp: _CompArrays) -> np.ndarray:
    """Collision mask for segments [A[i], B[i]] against all components.

    An endpoint/disc incidence cull limits the predicate to nearby
    (segment, disc) rows.  It is sound: a segment [a, b] of length L that
    touches a disc D at p has dist(a, D) <= |a - p| <= L.  Consecutive rows
    with the same first end form a run: a roadmap node's edges, whose pairs
    come sorted by their first end, or one point (a segment of length 0)
    or boundary link.  The run's first end gets the discs within the run's
    longest L (+ 1e-12 for rounding): :func:`_near_pairs` finds them on the
    cover level of the median reach (:func:`_cover_level`), their exact
    :func:`pairs_point_disc_distance` keeps them, and a sort of the keys
    run * len(comp) + disc drops the repeats.  Each row then sends its
    run's discs within its own L (+ 1e-12) through the exact predicate.
    The same cull serves every dimension.  Rows go _COLLIDE_CHUNK at a
    time, a run cut at a chunk's end being two runs, and a chunk's rows in
    pieces of about _COLLIDE_CHUNK // 4 (row, disc) pairs.
    """
    out = np.zeros(len(A), dtype=bool)
    if len(comp) == 0 or len(A) == 0:
        return out
    m, piece = len(comp), _COLLIDE_CHUNK // 4
    for s in range(0, len(A), _COLLIDE_CHUNK):
        a, b = A[s:s + _COLLIDE_CHUNK], B[s:s + _COLLIDE_CHUNK]
        length = np.sqrt(np.einsum("ij,ij->i", b - a, b - a))
        new = np.zeros(len(a), dtype=bool)
        for x in a.T:  # a coordinate at a time: np.any(axis=1) is slower
            new[1:] |= x[1:] != x[:-1]
        new[0] = True
        head = np.flatnonzero(new)
        reach = np.maximum.reduceat(length, head) + 1e-12
        i, c = _near_pairs(a[head], reach, comp,
                           _cover_level(comp, float(np.median(reach))))
        d = pairs_point_disc_distance(a[head[i]], comp.centers[c],
                                      comp.normals[c], comp.radii[c])
        near = d <= reach[i]
        key = i[near].astype(np.int64) * m + c[near]
        order = np.argsort(key)
        key, d = key[order], d[near][order]
        first = np.ones(len(key), dtype=bool)
        first[1:] = key[1:] != key[:-1]
        key, d = key[first], d[first]
        # run h holds the discs disc[start[h]:start[h + 1]]
        start = np.searchsorted(key, np.arange(len(head) + 1) * m)
        disc = key % m
        run = np.cumsum(new) - 1
        count = start[run + 1] - start[run]
        offset = np.cumsum(count) - count
        # pieces of rows whose (row, disc) pairs start in one span of `piece`
        cut = np.flatnonzero(np.diff(offset // piece)) + 1
        for lo, hi in zip([0, *cut], [*cut, len(a)]):
            row = np.repeat(np.arange(lo, hi), count[lo:hi])
            pos = np.arange(len(row)) + np.repeat(
                start[run[lo:hi]] - (offset[lo:hi] - offset[lo]),
                count[lo:hi])
            keep = d[pos] <= length[row] + 1e-12
            row, c = row[keep], disc[pos[keep]]
            hit = pairs_segment_disc_contact(a[row], b[row], comp.centers[c],
                                             comp.normals[c], comp.radii[c])
            out[s + row[hit]] = True
    return out


def _touches_any(A: np.ndarray, B: np.ndarray, C: np.ndarray, N: np.ndarray,
                 R: np.ndarray) -> np.ndarray:
    """Collision mask for segments [A[i], B[i]] against all disc rows
    (C, N, R), with no cull: every segment/disc pair goes through the exact
    predicate in one call."""
    n = len(R)
    if n == 0:
        return np.zeros(len(A), dtype=bool)
    s, c = np.divmod(np.arange(len(A) * n), n)
    return pairs_segment_disc_contact(
        A[s], B[s], C[c], N[c], R[c]).reshape(-1, n).any(axis=1)


# ---------------------------------------------------------------------------
# regions, roadmaps


def _region_from_sets(lab: Labyrinth, source: dict, target: dict) -> dict:
    """Search region: the annulus between two escape spheres, else the box
    around the point sets and the labyrinth's scale, with margin 0.1."""
    if source.get("kind") == "sphere" and target.get("kind") == "sphere":
        lo, hi = sorted((source["radius"], target["radius"]))
        return {"kind": "annulus", "inner": lo, "outer": hi}
    pts = [np.asarray(s["coords"], dtype=float)
           for s in (source, target) if s.get("kind") == "point"]
    ext = max([np.linalg.norm(p) for p in pts] + [lab.scale]) + 0.1
    return {"kind": "box", "lo": [-ext] * lab.dim, "hi": [ext] * lab.dim}


def _region_box(region: dict, dim: int) -> tuple[np.ndarray, np.ndarray]:
    kind = region["kind"]
    if kind == "annulus":
        r = float(region["outer"])
        return -r * np.ones(dim), r * np.ones(dim)
    if kind == "box":
        return np.asarray(region["lo"], dtype=float), np.asarray(region["hi"], dtype=float)
    raise ValueError(f"unknown region kind {kind!r}")


def _region_contains(region: dict, pts: np.ndarray) -> np.ndarray:
    kind = region["kind"]
    if kind == "annulus":
        r = np.linalg.norm(pts, axis=1)
        return (r > region["inner"]) & (r < region["outer"])
    if kind == "box":
        lo, hi = _region_box(region, pts.shape[1])
        return np.all((pts > lo) & (pts < hi), axis=1)
    raise ValueError(f"unknown region kind {kind!r}")


def _region_measure(region: dict, dim: int) -> float:
    """Volume of the region: the unit ball's pi^(d/2)/Gamma(d/2+1) times
    outer^d - inner^d for an annulus, the box volume otherwise."""
    if region["kind"] == "annulus":
        return math.pi ** (dim / 2) / math.gamma(dim / 2 + 1) \
            * (region["outer"] ** dim - region["inner"] ** dim)
    lo, hi = _region_box(region, dim)
    return float(np.prod(hi - lo))


@dataclass(eq=False)
class Roadmap:
    """Collision-checked geometric graph over the free space of a region;
    `graph` holds each edge once, at (i, j) with i < j."""

    nodes: np.ndarray
    graph: sparse.csr_matrix
    connect_radius: float
    comp: _CompArrays = None
    n_rim: int = 0


def build_roadmap(region: dict, lab: Labyrinth, node_budget: int,
                  seed: int = 0) -> Roadmap:
    """Quasi-uniform free samples plus rim-hugging offsets, k-NN connected.

    Free-space samples are drawn from the Sobol stream that `seed`
    scrambles (:func:`labyrinths.sampling.sobol`), 16 384 points at a
    time, and rejected when on a component or outside the region; every
    component rim point additionally gets a small ring of nodes at offset
    RIM_STEP, which is where taut escape paths turn.  Edges are the union
    of radius-neighbour and k-nearest pairs whose segments clear all
    components; the k-NN query runs only for the nodes with fewer than
    NEIGHBORS radius neighbours, which changes no edge
    (:func:`_candidate_pairs`).  The candidate edges go to
    :func:`_segments_collide` in the chunks whose endpoints are gathered
    for their lengths; sorted by their first end, a node's edges there
    share one lookup of the discs near it.  The sorted distinct pairs
    i < j that survive are the rows of an upper-triangular CSR matrix as
    they stand, so the graph stores each edge once and is built with no
    sort.
    """
    if not MIN_NODE_BUDGET <= node_budget <= MAX_NODE_BUDGET:
        raise ValueError(f"node budget must lie in [{MIN_NODE_BUDGET}, "
                         f"{MAX_NODE_BUDGET}]")
    dim = lab.dim
    lo, hi = _region_box(region, dim)
    measure, box = _region_measure(region, dim), float(np.prod(hi - lo))
    if measure < 1e-3 * box:  # known before any draw: reject it unsampled
        raise RoadmapBudgetError(f"the search region fills {measure / box:.3g}"
                                 " of its sampling box, fewer than one in 1000")
    comp = _CompArrays.from_components(lab.components)

    rim_nodes = _rim_offset_nodes(lab, comp, region, node_budget)
    rim_nodes = rim_nodes[:node_budget // 2]
    free_target = node_budget - len(rim_nodes)

    accepted = []
    got = drawn = in_region = 0
    while got < free_target:
        chunk = sobol(dim, 16384, seed, skip=drawn) * (hi - lo) + lo
        drawn += len(chunk)
        pts = chunk[_region_contains(region, chunk)]
        in_region += len(pts)
        pts = pts[~_segments_collide(pts, pts, comp)]
        accepted.append(pts)
        got += len(pts)
        if drawn >= 1000 * node_budget:
            raise RoadmapBudgetError(
                f"the search region holds {in_region} of {drawn} draws "
                f"({in_region / drawn:.3g} of its sampling box) and {got} "
                f"of them clear the discs, fewer than one in 1000")
    nodes = np.vstack([np.vstack(accepted)[:free_target], rim_nodes])

    connect_radius = CONNECT_FACTOR * (measure / max(len(nodes), 1)) ** (1.0 / dim)
    pairs = _unique_pairs(
        _candidate_pairs(nodes, connect_radius, NEIGHBORS), len(nodes))

    # endpoints are gathered a chunk at a time, never for all edges at once
    free, w = np.empty(len(pairs), dtype=bool), np.empty(len(pairs))
    for s in range(0, len(pairs), _COLLIDE_CHUNK):
        a, b = (nodes[p] for p in pairs[s:s + _COLLIDE_CHUNK].T)
        free[s:s + len(a)] = ~_segments_collide(a, b, comp)
        w[s:s + len(a)] = np.linalg.norm(a - b, axis=1)
    pairs, w = pairs[free], w[free]  # the unfiltered arrays go first
    indptr = np.zeros(len(nodes) + 1, dtype=np.int32)
    np.cumsum(np.bincount(pairs[:, 0], minlength=len(nodes)), out=indptr[1:])
    # the column is copied: a view would keep both columns of pairs alive
    graph = sparse.csr_matrix(
        (w, np.ascontiguousarray(pairs[:, 1]), indptr),
        shape=(len(nodes), len(nodes)))
    return Roadmap(nodes=nodes, graph=graph, connect_radius=connect_radius,
                   comp=comp, n_rim=len(rim_nodes))


def _candidate_pairs(nodes: np.ndarray, connect_radius: float,
                     neighbors: int) -> np.ndarray:
    """Radius-neighbour and k-nearest pairs (i <= j) as int32, duplicates
    included.

    The k-NN query runs only for nodes with fewer than `neighbors` radius
    neighbours.  Any other node has that many nodes within
    `connect_radius`, so its `neighbors` nearest lie within it too and
    `query_pairs` already holds their pairs.  After :func:`_unique_pairs`
    the set is the one an all-node k-NN query gives: the query uses the
    same tree, so exactly tied neighbours are chosen the same way.
    """
    tree = cKDTree(nodes)
    pairs = tree.query_pairs(connect_radius, output_type="ndarray")
    k = min(neighbors + 1, len(nodes))
    short = np.flatnonzero(
        np.bincount(pairs.ravel(), minlength=len(nodes)) < k - 1)
    _, nbr = tree.query(nodes[short], k=k)
    ii = np.repeat(short, k - 1)
    jj = nbr[:, 1:].ravel()
    out = np.empty((len(pairs) + len(ii), 2), dtype=np.int32)
    out[:len(pairs)] = pairs
    out[len(pairs):, 0] = np.minimum(ii, jj)
    out[len(pairs):, 1] = np.maximum(ii, jj)
    return out


def _unique_pairs(pairs: np.ndarray, n: int) -> np.ndarray:
    """Distinct pairs i < j of nodes 0..n-1, in lexicographic order, int32.

    Same rows and order as ``np.unique(pairs, axis=0)`` without the
    self-pairs, from an in-place sort of the 1-d key i*n + j.  That key is
    i*(n + 1) + (j - i), so the self-pairs are its multiples of n + 1.
    """
    key = pairs[:, 0].astype(np.int64) * n
    key += pairs[:, 1]
    key.sort()
    keep = key % (n + 1) != 0
    keep[1:] &= key[1:] != key[:-1]
    key = key[keep]
    out = np.empty((len(key), 2), dtype=np.int32)
    np.divmod(key, n, out=(out[:, 0], out[:, 1]))
    return out


def _rim_offset_nodes(lab: Labyrinth, comp: _CompArrays, region: dict,
                      node_budget: int) -> np.ndarray:
    if lab.is_empty:
        return np.empty((0, lab.dim))
    rim_count = 12 if lab.dim >= 3 else 2
    # Fit the rings into half the node budget by thinning the ring, never
    # by dropping whole components.
    per_tip_cap = (node_budget // 2) // max(1, len(lab.components) * rim_count)
    ring = int(np.clip(per_tip_cap, 2, 8))
    # each rim point's ring spans its radial direction u and the normal; a
    # rim point that rounds onto its centre takes the first tangent vector
    rims = disc_rim_points(comp.centers, comp.normals, comp.radii, rim_count)
    U = rims - comp.centers[:, None]
    nu = np.sqrt(row_dots(U, U))[..., None]
    U = np.where(nu > 0.0, U / np.where(nu > 0.0, nu, 1.0),
                 tangent_bases(comp.normals)[:, None, :, 0])
    ang = 2.0 * np.pi * np.arange(ring) / ring
    pts = (rims[:, :, None] + RIM_STEP * (
        np.cos(ang)[:, None] * U[:, :, None]
        + np.sin(ang)[:, None] * comp.normals[:, None, None])).reshape(-1, lab.dim)
    pts = pts[_region_contains(region, pts)]
    return pts[~_segments_collide(pts, pts, comp)]


# ---------------------------------------------------------------------------
# paths


@dataclass(eq=False)
class EscapePath:
    """Certified collision-free polyline between the source and target sets;
    its length is the sum of its steps, computed once from the polyline."""

    polyline: np.ndarray
    length: float = field(init=False)

    def __post_init__(self):
        self.polyline = np.asarray(self.polyline, dtype=float)
        steps = np.linalg.norm(np.diff(self.polyline, axis=0), axis=1)
        self.length = float(steps.sum())
        # NaN fails every comparison below, so it must be rejected first
        if not (np.all(np.isfinite(self.polyline)) and np.isfinite(self.length)):
            raise ValueError("path points and length must be finite")
        if np.any(steps == 0.0):
            raise ValueError("consecutive path points must differ")


def _set_sphere(descr: dict) -> tuple:
    """(centre, radius) of an escape set: a sphere about the origin, or a
    point, the sphere of radius 0 about its coords."""
    if descr["kind"] == "sphere":
        return 0.0, float(descr["radius"])
    if descr["kind"] == "point":
        return np.asarray(descr["coords"], dtype=float), 0.0
    raise ValueError(f"unknown set descriptor {descr['kind']!r}")


def _project_to_set(descr: dict, pts: np.ndarray) -> np.ndarray:
    """Nearest points of the set to each row of `pts`."""
    c, r = _set_sphere(descr)
    v = pts - c
    norms = np.linalg.norm(v, axis=1)
    if r > 0.0 and np.any(norms == 0.0):
        raise ValueError("cannot project the origin onto a sphere")
    return c + v * (r / np.where(norms > 0.0, norms, 1.0))[:, None]


def _set_distance(descr: dict, pts: np.ndarray) -> np.ndarray:
    c, r = _set_sphere(descr)
    return np.abs(np.linalg.norm(pts - c, axis=1) - r)


def shortest_escape(rm: Roadmap, source: dict, target: dict) -> EscapePath | None:
    """Shortest roadmap path from the source set to the target set.

    Boundary nodes are linked to their projections onto the sets (collision
    checked).  The links of the source and the target are two new rows, S
    and T, appended to the roadmap's graph; each edge and link is stored
    once, so one undirected Dijkstra run from S extracts the minimum-length
    connection.  None means the roadmap is disconnected at this resolution,
    which is never evidence that no path exists.
    """
    # deferred: only verify searches, and csgraph costs other commands 3 MB
    from scipy.sparse.csgraph import dijkstra

    n = len(rm.nodes)
    links = []
    for descr in (source, target):
        d = _set_distance(descr, rm.nodes)
        near = np.flatnonzero(d <= max(rm.connect_radius * 1.5, 1e-9))
        if _set_sphere(descr)[1] == 0.0:  # a point: link its nearest nodes
            k = min(n, 24)
            near = np.union1d(near, np.argsort(d)[:k])
        if len(near) == 0:
            return None
        proj = _project_to_set(descr, rm.nodes[near])
        ok = ~_segments_collide(rm.nodes[near], proj, rm.comp)
        if not ok.any():
            return None
        moved = np.linalg.norm(rm.nodes[near[ok]] - proj[ok], axis=1)
        links.append((near[ok], np.maximum(moved, 1e-300)))
    (src_i, src_w), (tgt_i, tgt_w) = links
    S, T = n, n + 1
    g = rm.graph
    ends = g.nnz + np.cumsum([len(src_i), len(tgt_i)], dtype=np.int32)
    big = sparse.csr_matrix(
        (np.concatenate([g.data, src_w, tgt_w]),
         np.concatenate([g.indices, src_i, tgt_i], dtype=np.int32),
         np.concatenate([g.indptr, ends], dtype=np.int32)),
        shape=(n + 2, n + 2))
    dist, pred = dijkstra(big, directed=False, indices=S,
                          return_predecessors=True)
    if not np.isfinite(dist[T]):
        return None
    # the roadmap nodes of the path: S links to nodes only, never to T
    inner = [pred[T]]
    while pred[inner[-1]] != S:
        inner.append(pred[inner[-1]])
    inner = inner[::-1]
    poly = np.vstack([_project_to_set(source, rm.nodes[inner[:1]]),
                      rm.nodes[inner],
                      _project_to_set(target, rm.nodes[inner[-1:]])])
    return EscapePath(polyline=_dedupe(poly))


def _dedupe(poly: np.ndarray) -> np.ndarray:
    """The polyline without repeats of its previous point."""
    step = np.linalg.norm(np.diff(poly, axis=0), axis=1)
    return poly[np.concatenate([[True], step > 0.0])]


def _discs_meeting_box(C: np.ndarray, N: np.ndarray, R: np.ndarray,
                       lo: np.ndarray, hi: np.ndarray) -> tuple:
    """The disc rows (C, N, R) whose extent meets the box [lo, hi], widened
    by 1e-9 times (1 + its largest coordinate) for rounding.

    Along axis k a disc spans c_k +- R sqrt(1 - n_k^2), with n_k read off
    the normal over its norm; the sum of the other squared components
    stands in for 1 - n_k^2, so no cancellation shrinks a thin extent.
    """
    if len(R) == 0:
        return C, N, R
    slack = 1e-9 * (1.0 + float(np.abs(np.concatenate([lo, hi])).max()))
    S = N * N
    half = R[:, None] * np.sqrt(S @ (1.0 - np.eye(len(lo)))
                                / S.sum(axis=1, keepdims=True))
    keep = np.all((C - half <= hi + slack) & (C + half >= lo - slack), axis=1)
    return C[keep], N[keep], R[keep]


def shortcut(path: EscapePath, lab: Labyrinth, rounds: int = 400,
             seed: int = 0) -> EscapePath:
    """Randomised two-point shortcutting; length never increases.

    Random pairs of points along the polyline are joined by a straight
    segment whenever that segment clears every component; a final
    vertex-skipping pass removes leftover corners.  Every such segment
    joins two points of the input polyline, so it lies in the polyline's
    bounding box, and only the discs whose exact axis-aligned extent meets
    that box (:func:`_discs_meeting_box`) are tested; a disc outside it
    touches no such segment, so the result is that of an all-disc test.
    """
    rows = _discs_meeting_box(*disc_rows(lab.components),
                              path.polyline.min(axis=0),
                              path.polyline.max(axis=0))
    rng = np.random.default_rng(seed)
    poly = [p.copy() for p in path.polyline]
    for _ in range(rounds):
        if len(poly) < 3:
            break
        i, j = sorted(rng.integers(0, len(poly) - 1, size=2))
        ti, tj = rng.random(2)
        a = poly[i] + ti * (poly[i + 1] - poly[i])
        b = poly[j] + tj * (poly[j + 1] - poly[j])
        if j <= i or np.linalg.norm(b - a) == 0.0 \
                or _touches_any(a[None, :], b[None, :], *rows)[0]:
            continue
        poly = poly[:i + 1] + [a, b] + poly[j + 1:]
    # deterministic vertex-skipping sweep
    changed = True
    while changed:
        changed = False
        k = 0
        while k + 2 < len(poly):
            a, b = poly[k], poly[k + 2]
            if np.linalg.norm(b - a) > 0.0 and not _touches_any(
                    a[None, :], b[None, :], *rows)[0]:
                del poly[k + 1]
                changed = True
            else:
                k += 1
    new = EscapePath(polyline=_dedupe(np.asarray(poly)))
    if new.length > path.length:
        return path
    return new


def verify_path(path: EscapePath, lab: Labyrinth, source: dict | None = None,
                target: dict | None = None) -> bool:
    """Re-verification of every path segment against every component.

    Deliberately independent of the search's KD cull: all segment x
    component pairs go through the predicate in one vectorised call.
    """
    poly = path.polyline
    if _touches_any(poly[:-1], poly[1:], *disc_rows(lab.components)).any():
        return False
    return all(s is None or _set_distance(s, p)[0] <= 1e-9
               for s, p in ((source, poly[:1]), (target, poly[-1:])))


def min_escape_length(lab: Labyrinth, source: dict, target: dict,
                      effort: EffortBudget | None = None) -> dict:
    """Multi-start upper-bound search for the shortest escape path.

    Loops over node budgets and seeds, keeps the shortest certified path
    found, and reports it together with the attempts.  The reported value
    is an upper bound on the true infimum over escape paths; the meaningful
    acceptance statement is "no path shorter than the budget was found at
    this effort".
    """
    effort = effort or EffortBudget.default(lab.dim)
    region = _region_from_sets(lab, source, target)
    best: EscapePath | None = None
    attempts = []
    for budget in effort.node_budgets:
        for seed in effort.seeds:
            # no name holds the roadmap, so it is freed before the next build
            path = shortest_escape(
                build_roadmap(region, lab, budget,
                              seed=seed * 1_000_003 + budget), source, target)
            if path is not None:
                path = shortcut(path, lab, rounds=effort.shortcut_rounds,
                                seed=seed)
                if not verify_path(path, lab, source, target):
                    path = None
            attempts.append({"seed": seed, "nodes": int(budget),
                             "length": None if path is None else path.length})
            if path is not None and (best is None or path.length < best.length):
                best = path
    note = ("reported length is an upper bound on the true escape infimum; "
            "'no shorter path found' is evidence at this effort, not a proof")
    if lab.dim >= 4:
        note += " (dimension >= 4: expect long runtimes)"
    return {
        "best_length": None if best is None else best.length,
        "best_path": best,
        "attempts": attempts,
        "upper_bound": True,
        "note": note,
    }


# ---------------------------------------------------------------------------
# structural audit


def _pairwise_min_distance(comp: _CompArrays) -> float:
    """Certified lower bound on the distance between distinct components.

    Candidate pairs come from a sound centre-distance cull: pairs beyond
    the cull radius are at least `slack` apart, so when no candidate pair
    exists that slack is returned as a valid positive lower bound.  The
    candidates go through :func:`pairs_disc_disc_distance` _PAIR_CHUNK at
    a time, with a running min: the kernel's rows do not depend on the
    other rows of a call, so the min is bitwise that of one call on every
    pair, and the working set is one chunk's (the d = 4, J = 2 file has
    1.9 M candidate pairs).
    """
    if len(comp) < 2:
        return np.inf
    slack = 0.05
    pairs = comp.tree.query_pairs(2.0 * comp.radii.max() + slack,
                                  output_type="ndarray")
    if len(pairs) == 0:
        return slack
    C, N, R = comp.centers, comp.normals, comp.radii
    low = np.inf  # np.minimum keeps a NaN, as one call's .min() does
    for s in range(0, len(pairs), _PAIR_CHUNK):
        i, j = pairs[s:s + _PAIR_CHUNK].T
        low = np.minimum(low, pairs_disc_disc_distance(
            C[i], N[i], R[i], C[j], N[j], R[j]).min())
    return min(float(low), slack)


def _lex_half_gaps(C, N, R) -> np.ndarray:
    """Half of each disc's gap along its own normal n_i: its level c_i.n_i
    less the largest exact support of an earlier disc (inf for the first)."""
    n = len(C)
    top = np.full(n, -np.inf)
    rows = max(1, _PAIR_CHUNK // n)
    for lo in range(1, n, rows):
        hi = min(lo + rows, n)
        sup = disc_support(C[:hi - 1], N[:hi - 1], R[:hi - 1], N[lo:hi, None])
        sup[np.arange(hi - 1) >= np.arange(lo, hi)[:, None]] = -np.inf
        top[lo:hi] = sup.max(axis=1)
    return 0.5 * (row_dots(C, N) - top)


def audit_labyrinth(lab: Labyrinth) -> dict:
    """Run every structural check and report pass/fail with measurements.

    What each check certifies, exactly or by bound:

    - components-well-formed: unit normals (to 1e-9) and positive radii;
    - tangency: each centre on its recorded sublevel sphere along its
      normal (to 1e-9);
    - next-sublevel-clearance: each disc's exact farthest norm
      (:func:`labyrinths.geometry.disc_norm_range`) below the next
      sublevel sphere, by more than 1e-9;
    - schedule-divergence: the partial sums of sqrt(gap) above the bound;
    - net-separation: the normals of each (j, k) class pairwise at least
      ``shell_net_separation(schedule, j)`` apart, exactly;
    - net-covering: the normals of each shell cover the sphere within
      c*r_j plus the net's candidate resolution, with the covering radius
      computed exactly (:func:`labyrinths.nets.covering_radius`), read off
      the discs and not the file's stored nets;
    - pairwise-disjoint: a certified lower bound on the disc distances,
      exact in the plane (:func:`_pairwise_min_distance`);
    - containment: exact for an annulus, a ball, a `to_ball` file and a
      planar disc, a sufficient bound for a d >= 3 ellipsoid in its own
      frame (:func:`add_containment_check`);
    - lex-hyperplane-witnesses: the discs in radial order (centre norm,
      ties by index), each separated from the earlier ones by a plane
      whose margin is measured on the exact supports; its own normal in
      the plane, else an LP.  Run for every planar shell labyrinth, in
      d = 3 up to J = 4 shells and LEX_COMPONENT_CAP discs.  A FAIL means
      "not certified", not a proof that no witness order exists; it names
      the disc by its level, or by its file index if it has none.

    Patch-assembled labyrinths replace the shell checks with collar
    monotonicity and containment.  Failures are report entries, never
    exceptions.
    """
    if lab.is_empty:
        return {"empty": True, "passed": True, "checks": [],
                "note": "empty labyrinth: all checks hold vacuously"}
    checks = []

    def add(name: str, passed: bool, **details):
        checks.append({"name": name, "passed": bool(passed), **details})

    comps = lab.components
    comp = _CompArrays.from_components(comps)
    C, N, R = comp.centers, comp.normals, comp.radii
    norm_err = float(np.abs(np.sqrt(row_dots(N, N)) - 1.0).max())
    add("components-well-formed", norm_err <= 1e-9 and bool(np.all(R > 0.0)),
        max_normal_error=norm_err)
    norms = np.sqrt(row_dots(C, C))

    if lab.kind == "shell" and lab.schedule is not None:
        sched = lab.schedule
        j, k = np.array([fb.level[:2] for fb in comps]).T
        tang_err = float(np.abs(row_dots(C, N) - norms).max())
        level_err = float(np.abs(
            norms - lab.scale * sched.sublevels[j - 1, k - 1]).max())
        add("tangency", tang_err <= 1e-9 and level_err <= 1e-9,
            tangency_error=tang_err, sublevel_error=level_err)
        # s_(j,k+1), with s_(j,m+1) = s_j, against each disc's farthest point
        margin = (lab.scale * sched.above[j - 1, k - 1]
                  - disc_norm_range(C, N, R)[1])
        worst = int(np.argmin(margin))
        add("next-sublevel-clearance", margin[worst] > 1e-9,
            min_margin=float(margin[worst]), worst_component=comps[worst].level)

        # the law is read off the radii: an equal-width schedule is rebuilt
        # for each J, so its prefixes are not schedules and only the total
        # is held to the bound; any other schedule is held at every prefix
        sums = sqrt_gap_partial_sums(sched)
        target = 0.4 * np.sqrt(1.0 - sched.s0) * np.log(np.arange(1, sched.J + 1) + 1.0)
        gaps = sched.gaps()
        law = "equal-width" if sched.J > 1 and np.allclose(
            gaps, gaps[0], rtol=1e-9, atol=0.0) else "harmonic"
        held = slice(-1, None) if law == "equal-width" else slice(None)
        add("schedule-divergence", bool(np.all(sums[held] > target[held])),
            law=law, partial_sums=[float(x) for x in sums])

        _add_net_checks(lab, j, k, N, add)

    # min_distance is a certified lower bound, exact in the plane
    dmin = _pairwise_min_distance(comp)
    add("pairwise-disjoint", dmin > 0.0, min_distance=float(dmin))

    add_containment_check(lab, C, N, R, add)

    if lab.kind == "patch":
        widths = lab.collar_widths
        mono = all(widths[i] > widths[i + 1] for i in range(len(widths) - 1))
        add("collar-nesting", mono and (not widths or widths[-1] > 0.0),
            widths=[float(w) for w in widths])

    lp_sized = lab.dim == 3 and len(comps) <= LEX_COMPONENT_CAP \
        and (lab.schedule is None or lab.schedule.J <= 4)
    if lab.kind == "shell" and (lab.dim == 2 or lp_sized):
        # radial order, so the verdict does not depend on the file's order;
        # a planar disc's own normal is its witness when its half-gap clears
        # the floor; the LP, on the rims plus centres (exact in the plane,
        # 64 points per dimension otherwise), serves the rest and every d = 3
        # disc, and its plane is measured on the exact supports
        order = np.argsort(norms, kind="stable")
        C, N, R = C[order], N[order], R[order]
        margins = _lex_half_gaps(C, N, R) if lab.dim == 2 \
            else np.full(len(comps), -np.inf)
        failed_at = None
        lp_rows = np.flatnonzero(margins[1:] < LP_MARGIN_FLOOR) + 1
        if len(lp_rows):
            samples = np.concatenate([disc_rim_points(C, N, R, 64 * lab.dim),
                                      C[:, None]], axis=1)
        for i in lp_rows:
            h = separating_hyperplane(samples[i],
                                      samples[:i].reshape(-1, lab.dim),
                                      margin=LP_MARGIN_FLOOR)
            if h is not None:
                w, b = h.normal, h.offset
                margins[i] = min(-disc_support(C[i], N[i], R[i], -w) - b,
                                 b - disc_support(C[:i], N[:i], R[:i], w).max())
            if h is None or margins[i] < LP_MARGIN_FLOOR:
                failed_at = comps[order[i]].level or int(order[i])
                break
        worst = float(margins[1:].min(initial=np.inf))
        add("lex-hyperplane-witnesses", failed_at is None,
            worst_margin=None if failed_at is not None else worst,
            failed_component=failed_at)

    return {"empty": False, "passed": all(c["passed"] for c in checks),
            "checks": checks}


def _add_net_checks(lab: Labyrinth, j: np.ndarray, k: np.ndarray,
                    N: np.ndarray, add) -> None:
    """net-separation on the normals of each (j, k) class and net-covering
    on those of each shell j, against the shell's unit-sphere separation
    r_j = shell_net_separation(schedule, j); the covering is held to c*r_j
    plus the candidate resolution greedy_net builds its nets at, and
    reported per shell as a fraction of r_j."""
    sched, d = lab.schedule, lab.dim
    seps = np.array([shell_net_separation(sched, jj)
                     for jj in range(1, sched.J + 1)])
    key = j * (sched.m + 1) + k
    order = np.argsort(key, kind="stable")
    classes = np.split(order, np.flatnonzero(np.diff(key[order])) + 1)
    add("net-separation", all(
        cKDTree(N[c]).query(N[c], k=2)[0][:, 1].min() >= seps[j[c[0]] - 1]
        for c in classes if len(c) > 1))

    delta = sched.c * seps
    limit = delta + np.array([candidate_resolution(d, x) for x in delta])
    cover = np.full(sched.J, np.inf)
    for jj in range(1, sched.J + 1):
        try:
            cover[jj - 1] = covering_radius(N[j == jj], d)
        except ValueError as exc:  # no discs, or a hull not certified
            add("net-covering", False, failed_shell=jj, error=str(exc))
            return
    # a file's zero or subnormal tangent radius gives an r_j of 0 or near
    # it: its fractions are not finite
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        worst = int(np.argmax(cover / limit))
        add("net-covering", bool(np.all(cover <= limit)),
            covering_fractions=[float(x) for x in cover / seps],
            bound_fractions=[float(x) for x in limit / seps],
            worst_shell=worst + 1)


def add_containment_check(lab: Labyrinth, C, N, R, add) -> None:
    """The disc rows (C, N, R) inside the domain, in units of the
    labyrinth's scale.

    An annulus holds each disc's exact nearest and farthest norms
    (:func:`labyrinths.geometry.disc_norm_range`) strictly between its
    radii.  A ball holds the farthest norm below 1 and reports the defining
    value |x|^2 - 1 there; so does a file with `to_ball`, which stores its
    discs in ball coordinates, where containment in the ellipsoid is
    containment in the unit ball.  Any other planar domain is convex, so a
    segment lies in it iff both endpoints do, and the defining function is
    read there.  A d >= 3 ellipsoid {x'Ax < 1} in its own frame takes the
    sufficient bound ||c||_A + r sqrt(lambda_max(B'AB)) < 1, with B the
    disc's tangent basis, and reports the bound squared less 1, an upper
    bound on the defining function (``upper_bound``).
    """
    if lab.domain.get("kind") == "annulus":
        near, far = disc_norm_range(C, N, R)
        add("containment",
            float(near.min()) > lab.domain["inner"]
            and float(far.max()) < lab.domain["outer"],
            min_norm=float(near.min()), max_norm=float(far.max()))
        return
    frame = {"kind": "ball"} if "to_ball" in lab.domain else lab.domain
    try:
        dom = resolve_domain(frame, lab.dim)
    except (KeyError, TypeError, ValueError) as exc:
        add("containment", False, error=str(exc))
        return
    C, R = C / lab.scale, R / lab.scale
    bound = {}
    if dom.kind == "ball":
        worst = float(disc_norm_range(C, N, R)[1].max() ** 2 - 1.0)
    elif lab.dim == 2:
        worst = float(dom.rho(disc_rim_points(C, N, R, 2).reshape(-1, 2)).max())
    else:
        A = dom.matrix
        B = tangent_bases(N)
        lam = np.linalg.eigvalsh(B.transpose(0, 2, 1) @ A @ B)[:, -1]
        reach = np.sqrt(row_dots(C @ A, C)) + R * np.sqrt(lam)
        worst, bound = float(reach.max() ** 2 - 1.0), {"upper_bound": True}
    add("containment", worst < 0.0, max_defining_value=worst, **bound)
