import itertools
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse import csgraph
from scipy.spatial import cKDTree

from labyrinths.domains import ellipsoid_domain, ellipsoid_labyrinth
from labyrinths.geometry import (
    LP_MARGIN_FLOOR,
    FlatBall,
    disc_rim_points,
    disc_rows,
    pairs_disc_disc_distance,
    pairs_point_disc_distance,
    pairs_segment_disc_contact,
    row_dots,
    separating_hyperplane,
    tangent_bases,
)
from labyrinths.shells import (
    Labyrinth,
    annulus_labyrinth,
    build_labyrinth,
    empty_labyrinth,
    make_schedule,
)
from labyrinths import verifier
from labyrinths.verifier import (
    _PAIR_CHUNK,
    NEIGHBORS,
    EffortBudget,
    RoadmapBudgetError,
    _candidate_pairs,
    _CompArrays,
    _cover_level,
    _discs_meeting_box,
    _lex_half_gaps,
    _near_pairs,
    _pairwise_min_distance,
    _project_to_set,
    _region_measure,
    _segments_collide,
    _touches_any,
    _unique_pairs,
    EscapePath,
    add_containment_check,
    audit_labyrinth,
    build_roadmap,
    min_escape_length,
    shortcut,
    shortest_escape,
    verify_path,
)

from oracles import (
    all_disc_shortcut,
    all_node_candidate_pairs,
    brute_segments_collide,
    grid_shortest_path,
    reference_escape_graph,
    reference_roadmap_graph,
)

ANNULUS = {"kind": "annulus", "inner": 0.5, "outer": 1.0}
SPHERE_IN = {"kind": "sphere", "radius": 0.5}
SPHERE_OUT = {"kind": "sphere", "radius": 1.0}

SINGLE = FlatBall(center=np.array([0.5, 0.0]), normal=np.array([1.0, 0.0]),
                  radius=0.2)
SINGLE_LAB = Labyrinth(dim=2, domain={"kind": "box", "lo": [-0.2, -0.6],
                                      "hi": [1.2, 0.6]},
                       components=[SINGLE])
QUICK = EffortBudget(seeds=(0, 1), node_budgets=(8000,), shortcut_rounds=200)


def test_empty_annulus_radial_baseline():
    lab = empty_labyrinth(2, ANNULUS)
    rep = min_escape_length(lab, SPHERE_IN, SPHERE_OUT, QUICK)
    assert rep["best_length"] == pytest.approx(0.5, rel=0.02)
    assert rep["upper_bound"] is True


def test_single_obstacle_matches_reflection_value():
    rep = min_escape_length(SINGLE_LAB, {"kind": "point", "coords": [0.0, 0.0]},
                            {"kind": "point", "coords": [1.0, 0.0]}, QUICK)
    expect = 2.0 * np.hypot(0.5, 0.2)  # tip reflection: 1.07703...
    assert rep["best_length"] == pytest.approx(expect, rel=0.02)


def test_single_obstacle_matches_grid_oracle():
    oracle = grid_shortest_path(
        [(np.array([0.5, -0.2]), np.array([0.5, 0.2]))],
        (0.0, 0.0), (1.0, 0.0), step=1.0 / 256,
        lo=(-0.05, -0.35), hi=(1.05, 0.35))
    rep = min_escape_length(SINGLE_LAB, {"kind": "point", "coords": [0.0, 0.0]},
                            {"kind": "point", "coords": [1.0, 0.0]}, QUICK)
    assert rep["best_length"] == pytest.approx(oracle, rel=0.02)


def test_roadmap_rejection_law():
    # no node lies on the disc, not even at a rim-ring offset
    rm = build_roadmap(SINGLE_LAB.domain, SINGLE_LAB, 2000, seed=0)
    dists = pairs_point_disc_distance(rm.nodes, SINGLE.center, SINGLE.normal,
                                      SINGLE.radius)
    assert dists.min() > 0.0


def test_roadmap_rim_nodes_near_tips():
    rm = build_roadmap(SINGLE_LAB.domain, SINGLE_LAB, 2000, seed=0)
    for tip in (np.array([0.5, 0.2]), np.array([0.5, -0.2])):
        near = np.linalg.norm(rm.nodes - tip, axis=1)
        assert np.sum(near < 3e-3) >= 4


def test_roadmap_edges_avoid_components():
    rm = build_roadmap(SINGLE_LAB.domain, SINGLE_LAB, 1500, seed=1)
    g = rm.graph.tocoo()
    rng = np.random.default_rng(0)
    take = rng.choice(len(g.row), size=min(300, len(g.row)), replace=False)
    C, N, R = disc_rows([SINGLE] * len(take))
    assert not pairs_segment_disc_contact(rm.nodes[g.row[take]],
                                          rm.nodes[g.col[take]], C, N, R).any()


def test_edge_key_dedupe_matches_np_unique():
    rm = build_roadmap(SINGLE_LAB.domain, SINGLE_LAB, 3000, seed=0)
    raw = _candidate_pairs(rm.nodes, rm.connect_radius, NEIGHBORS)
    raw = raw[np.random.default_rng(0).permutation(len(raw))]
    expect = np.unique(raw, axis=0)
    expect = expect[expect[:, 0] != expect[:, 1]]
    assert len(expect) < len(raw)  # the candidate set has duplicates
    assert np.array_equal(_unique_pairs(raw, len(rm.nodes)), expect)


def _tied_rings() -> tuple[np.ndarray, float]:
    """Nodes whose k-NN query meets exact ties, and a connect radius.

    Sixteen hubs each get the twelve points of Z^2 at distance 5 around
    them, every one of them 11 times, so a hub's 10th neighbour is one of
    132 exactly tied ring nodes, none of which has the hub among its own
    nearest; every other hub is doubled.  A dense lattice block drawn with
    replacement adds more repeats.  Coordinates are integers over 64, so
    every distance is computed exactly.
    """
    ring = np.array([(5, 0), (-5, 0), (0, 5), (0, -5), (3, 4), (3, -4),
                     (-3, 4), (-3, -4), (4, 3), (4, -3), (-4, 3), (-4, -3)])
    hubs = 20 * np.array([(i, j) for i in range(4) for j in range(4)])
    dense = 100 + np.random.default_rng(2).integers(0, 12, (300, 2))
    rings = np.repeat((hubs[:, None] + ring).reshape(-1, 2), 11, axis=0)
    nodes = np.vstack([hubs, hubs[::2], rings, dense]) / 64.0
    return nodes, 4.9 / 64.0


def _roadmap_nodes(d: int) -> tuple[np.ndarray, float]:
    lab = annulus_labyrinth(0.5, 1.0, J=2 if d == 2 else 1, m=2, dim=d,
                            seed=0)
    rm = build_roadmap(ANNULUS, lab, 6000 if d == 2 else 3000, seed=3)
    return rm.nodes, rm.connect_radius


@pytest.mark.parametrize("case", ["annulus-2d", "annulus-3d", "tied-rings"])
def test_candidate_pairs_match_the_all_node_knn_rule(case):
    nodes, radius = _tied_rings() if case == "tied-rings" \
        else _roadmap_nodes(2 if case == "annulus-2d" else 3)
    want = all_node_candidate_pairs(nodes, radius, NEIGHBORS)
    raw = _candidate_pairs(nodes, radius, NEIGHBORS)
    got = _unique_pairs(raw, len(nodes))
    assert raw.dtype == got.dtype == np.int32 and np.array_equal(got, want)
    # both branches run: some nodes skip the k-NN query, some need it
    pairs = cKDTree(nodes).query_pairs(radius, output_type="ndarray")
    degree = np.bincount(pairs.ravel(), minlength=len(nodes))
    assert (degree >= NEIGHBORS).any() and (degree < NEIGHBORS).any()
    if case == "tied-rings":
        # a hub's 10 nearest, doubled or not, end inside a tie of ring nodes
        for hub in nodes[:2]:
            d = np.sort(np.linalg.norm(nodes - hub, axis=1))
            assert d[NEIGHBORS] == d[NEIGHBORS + 1] == 5 / 64.0


@pytest.mark.parametrize("d, unit_ball", [
    (2, np.pi), (3, 4.0 * np.pi / 3.0), (4, np.pi ** 2 / 2.0)])
def test_annulus_measure_is_the_shell_volume(d, unit_ball):
    region = {"kind": "annulus", "inner": 0.75, "outer": 0.875}
    assert _region_measure(region, d) == pytest.approx(
        unit_ball * (0.875 ** d - 0.75 ** d), rel=1e-14)
    if d == 2:  # bitwise the planar formula the roadmaps were tuned with
        assert _region_measure(region, 2) == np.pi * (0.875 ** 2 - 0.75 ** 2)
    box = {"kind": "box", "lo": [-1.0] * d, "hi": [0.5] * d}
    assert _region_measure(box, d) == 1.5 ** d


def _random_discs(rng, d: int, n: int) -> list[FlatBall]:
    """n discs in the cube [-1, 1]^d, radii mixed over a factor of 8."""
    normals = rng.standard_normal((n, d))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return [FlatBall(center=c, normal=u, radius=r) for c, u, r in zip(
        rng.uniform(-1.0, 1.0, (n, d)), normals, rng.uniform(0.05, 0.4, n))]


def _near_disc_points(rng, discs: list[FlatBall], n: int,
                      spread: float) -> np.ndarray:
    """Points of random discs (on a random in-plane direction at up to 1.2
    radii, so rims and just-outside points occur), moved by up to `spread`."""
    d = discs[0].dim
    pick = rng.integers(0, len(discs), n)
    C = np.array([discs[i].center for i in pick])
    N = np.array([discs[i].normal for i in pick])
    R = np.array([discs[i].radius for i in pick])
    v = rng.standard_normal((n, d))
    v -= np.einsum("ij,ij->i", v, N)[:, None] * N
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return C + (rng.uniform(0.0, 1.2, n) * R)[:, None] * v \
        + rng.uniform(-spread, spread, (n, d))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 9), d=st.sampled_from([2, 3, 4]),
       discs=st.integers(0, 25), rows=st.sampled_from([1, 2, 300]),
       short=st.booleans())
def test_segments_collide_matches_all_pairs(seed, d, discs, rows, short):
    rng = np.random.default_rng(seed)
    comps = _random_discs(rng, d, discs)
    comp = _CompArrays.from_components(comps)
    if discs:
        mid = _near_disc_points(rng, comps, rows, 0.02)
    else:
        mid = rng.uniform(-1.0, 1.0, (rows, d))
    half_len = rng.uniform(0.001, 0.01, rows) if short \
        else rng.uniform(0.2, 1.0, rows)
    u = rng.standard_normal((rows, d))
    u *= (half_len / np.linalg.norm(u, axis=1))[:, None]
    A, B = mid - u, mid + u
    got = _segments_collide(A, B, comp)
    if not discs:
        assert not got.any() and not _touches_any(A, B, *disc_rows(comps)).any()
        return
    want = brute_segments_collide(A, B, comp.centers, comp.normals,
                                  comp.radii)
    assert np.array_equal(got, want)
    # the unculled all-disc test of shortcut and verify_path agrees
    assert np.array_equal(_touches_any(A, B, *disc_rows(comps)), want)
    # short planar segments are culled with a finer cover (cached), long
    # ones and all beyond the plane with the bounding spheres (level 1)
    assert bool(comp.covers) == (short and d == 2)


def _on_disc_lines(discs: list[FlatBall]) -> np.ndarray:
    """Each disc's centre, its two tips along one in-plane direction, and
    the two points of that line 1.5 radii out."""
    C, N, R = disc_rows(discs)
    t = tangent_bases(N)[:, :, 0]
    s = np.array([0.0, -1.0, 1.0, -1.5, 1.5])
    return (C[:, None] + (R[:, None] * s)[..., None]
            * t[:, None]).reshape(-1, C.shape[1])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 9), d=st.sampled_from([2, 3]),
       discs=st.integers(0, 25), radius=st.sampled_from([0.02, 0.1, 0.4]),
       raw=st.booleans())
def test_segment_runs_match_all_pairs(seed, d, discs, radius, raw):
    rng = np.random.default_rng(seed)
    comps = _random_discs(rng, d, discs)
    comp = _CompArrays.from_components(comps)
    nodes = np.vstack([_near_disc_points(rng, comps, 300, 0.05),
                       _on_disc_lines(comps)]) if discs \
        else rng.uniform(-1.0, 1.0, (300, d))
    # ten nodes twice, each copy next to its node: five copies with identical
    # coordinates, five that share only the first coordinate
    twins = rng.choice(len(nodes), 10, replace=False)
    copies = nodes[twins]
    copies[5:, 1:] += 1e-3
    order = np.argsort(np.concatenate([np.arange(len(nodes)), twins]),
                       kind="stable")
    nodes = np.vstack([nodes, copies])[order]
    n = len(nodes)
    pairs = _candidate_pairs(nodes, radius, NEIGHBORS)
    if raw:  # shuffled and half flipped, with repeats and self-pairs
        pairs = np.vstack([pairs, np.repeat(np.arange(n, dtype=np.int32),
                                            2).reshape(-1, 2)])
        pairs = pairs[rng.permutation(len(pairs))]
        flip = rng.random(len(pairs)) < 0.5
        pairs[flip] = pairs[flip, ::-1]
    else:  # sorted: runs of rows that share their first end
        pairs = _unique_pairs(pairs, n)
    A, B = nodes[pairs[:, 0]], nodes[pairs[:, 1]]
    assert np.any(np.all(A == B, axis=1))  # rows of length 0
    sent = []
    predicate = verifier.pairs_segment_disc_contact

    def recorded(*rows):
        sent.append(len(rows[0]))
        return predicate(*rows)

    verifier.pairs_segment_disc_contact = recorded
    try:
        got = _segments_collide(A, B, comp)
        whole = sum(sent)
        # a run cut in two: its rows go to two calls
        cut = np.flatnonzero(np.all(A[1:] == A[:-1], axis=1))
        cut = int(cut[len(cut) // 2]) + 1 if len(cut) else len(A) // 2
        split = np.concatenate([_segments_collide(A[:cut], B[:cut], comp),
                                _segments_collide(A[cut:], B[cut:], comp)])
    finally:
        verifier.pairs_segment_disc_contact = predicate
    if not discs:
        assert not got.any() and not split.any() and not sent
        return
    want = brute_segments_collide(A, B, comp.centers, comp.normals,
                                  comp.radii)
    assert np.array_equal(got, want) and np.array_equal(split, want)
    # the cull sends each row once to each disc within its own length of
    # its first end, and no other disc
    near = pairs_point_disc_distance(A[:, None], comp.centers[None],
                                     comp.normals[None], comp.radii[None]) \
        <= np.linalg.norm(B - A, axis=1)[:, None] + 1e-12
    assert whole == near.sum()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 9), d=st.sampled_from([2, 3]),
       discs=st.integers(0, 30), flat=st.booleans())
def test_shortcut_matches_the_all_disc_loop(seed, d, discs, flat):
    rng = np.random.default_rng(seed)
    # a random walk on the grid of step 2^-20, so sums with 0.25 are exact;
    # `flat` puts it on one line parallel to axis 0 (a box of zero width)
    poly = np.round(np.cumsum(rng.uniform(-0.3, 0.3, (12, d)), axis=0)
                    * 2 ** 20) / 2 ** 20
    if flat:
        poly[:, 1:] = poly[0, 1:]
    poly = poly[np.concatenate([[True], np.any(np.diff(poly, axis=0), 1)])]
    # a disc of normal e_0 whose extent along axis 1 ends exactly on the
    # box's edge, at the tip that is the path's topmost vertex
    top = poly[np.argmax(poly[:, 1])]
    rim = FlatBall(center=top + 0.25 * np.eye(d)[1], normal=np.eye(d)[0],
                   radius=0.25)
    comps = _random_discs(rng, d, discs) + [rim]
    lab = Labyrinth(dim=d, domain={"kind": "box", "lo": [-4.0] * d,
                                   "hi": [4.0] * d}, components=comps)
    path = EscapePath(polyline=poly)
    got = shortcut(path, lab, rounds=60, seed=seed % 7)
    want = all_disc_shortcut(path, lab, rounds=60, seed=seed % 7)
    assert np.array_equal(got.polyline, want.polyline)
    assert got.length == want.length
    C, N, R = disc_rows(comps)
    kept = _discs_meeting_box(C, N, R, poly.min(axis=0), poly.max(axis=0))[0]
    assert (C[-1] - 0.25 * np.eye(d)[1])[1] == poly[:, 1].max()
    assert any(np.array_equal(c, C[-1]) for c in kept)


def test_verify_path_tests_every_disc_and_shortcut_only_those_in_reach(
        monkeypatch):
    sizes = []
    run = verifier._touches_any

    def recorded(A, B, C, N, R):
        sizes.append(len(R))
        return run(A, B, C, N, R)

    monkeypatch.setattr(verifier, "_touches_any", recorded)
    lab = _plane_lab()
    path = EscapePath(polyline=np.array(
        [[0.75, 0.0], [0.8, 0.03], [0.82, -0.02], [0.875, 0.0]]))
    shortcut(path, lab, rounds=50)
    assert sizes and max(sizes) < len(lab.components)
    sizes.clear()
    verify_path(path, lab, *PLANE_SETS)
    assert sizes == [len(lab.components)]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 9), d=st.sampled_from([2, 3, 4]),
       discs=st.integers(1, 25))
def test_drop_blocked_matches_all_pairs_distance(seed, d, discs):
    rng = np.random.default_rng(seed)
    comps = _random_discs(rng, d, discs)
    comp = _CompArrays.from_components(comps)
    pts = np.vstack([_near_disc_points(rng, comps, 400, 0.06),
                     comp.centers[:3]])  # points on a disc
    dist = pairs_point_disc_distance(pts[:, None, :], comp.centers[None],
                                     comp.normals[None], comp.radii[None])
    want = pts[dist.min(axis=1) > 0.0]
    # the point cull: each point a segment of length 0
    got = pts[~_segments_collide(pts, pts, comp)]
    assert np.array_equal(got, want)


def test_drop_blocked_fine_cover_matches_all_pairs_on_discs():
    rng = np.random.default_rng(11)
    comp = _CompArrays.from_components(_random_discs(rng, 2, 30))
    t = np.column_stack([-comp.normals[:, 1], comp.normals[:, 0]])
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    # each disc's endpoints, centre and interior chord points, then the
    # same points moved by up to 2e-3
    s = np.concatenate([[-1.0, 1.0, 0.0], rng.uniform(-1.0, 1.0, 6)])
    on = (comp.centers[:, None]
          + (comp.radii[:, None] * s)[..., None] * t[:, None]).reshape(-1, 2)
    pts = np.vstack([on, on + rng.uniform(-2e-3, 2e-3, on.shape),
                     rng.uniform(-1.2, 1.2, (2000, 2))])
    dist = pairs_point_disc_distance(pts[:, None, :], comp.centers[None],
                                     comp.normals[None], comp.radii[None])
    keep = dist.min(axis=1) > 0.0
    got = pts[~_segments_collide(pts, pts, comp)]
    assert list(comp.covers) == [16]  # culled on the finest planar cover
    assert np.array_equal(got, pts[keep])
    assert not keep[:len(on)][2::len(s)].any()  # centres lie on their discs
    moved = keep[len(on):2 * len(on)]
    assert moved.any()


@pytest.mark.parametrize("d, length, level", [
    (2, 0.068 / 15.3, 8), (2, 0.068 / 2.0, 2), (2, 0.068 / 1.99, 1),
    (2, 1.0, 1), (2, 0.0, 16), (2, 1e-9, 16), (3, 0.068 / 15.3, 1),
    (3, 0.0, 1), (4, 0.068 / 3.0, 1)])
def test_cover_level_rule(d, length, level):
    normal = np.eye(d)[0]
    comp = _CompArrays.from_components([
        FlatBall(center=np.zeros(d), normal=normal, radius=0.068),
        FlatBall(center=np.ones(d), normal=normal, radius=0.01)])
    assert _cover_level(comp, length) == level


def test_planar_cover_cells_share_one_size():
    rng = np.random.default_rng(5)
    comps = _random_discs(rng, 2, 40)
    comps[0].radius = 0.4  # R_max, and discs down to R_max / 8
    comp = _CompArrays.from_components(comps)
    k = 16
    owner, tree, rho = comp.cover(k)
    assert rho == 0.4 / k
    assert np.array_equal(np.bincount(owner, minlength=len(comps)),
                          np.ceil(comp.radii * k / 0.4).astype(int))
    # every disc point lies within rho of one of its own sub-balls
    s = np.linspace(-1.0, 1.0, 101)
    for i, fb in enumerate(comps):
        t = np.array([-fb.normal[1], fb.normal[0]])
        pts = fb.center + (fb.radius * s)[:, None] * t
        d = np.linalg.norm(pts[:, None] - tree.data[owner == i][None], axis=2)
        assert d.min(axis=1).max() <= rho + 1e-12
    # short segments spread over the discs: no more rows than level 1
    mid = rng.uniform(-1.2, 1.2, (20000, 2))
    half = np.full(len(mid), 0.4 / (4 * k))
    assert len(_near_pairs(mid, half, comp, k)[0]) \
        <= len(_near_pairs(mid, half, comp, 1)[0])


def test_roadmap_edges_match_all_pairs_collision_mask():
    from labyrinths.shells import annulus_labyrinth

    lab = annulus_labyrinth(0.5, 1.0, J=2, m=2, dim=2, seed=0)
    rm = build_roadmap(ANNULUS, lab, 6000, seed=3)
    pairs = all_node_candidate_pairs(rm.nodes, rm.connect_radius, NEIGHBORS)
    A, B = rm.nodes[pairs[:, 0]], rm.nodes[pairs[:, 1]]
    assert _cover_level(rm.comp, float(np.median(
        np.linalg.norm(B - A, axis=1)))) > 1
    blocked = brute_segments_collide(A, B, rm.comp.centers, rm.comp.normals,
                                     rm.comp.radii)
    assert blocked.any()
    g = rm.graph.tocoo()  # each edge once, rows and columns ascending
    assert np.array_equal(np.column_stack([g.row, g.col]), pairs[~blocked])


def test_every_candidate_edge_reaches_the_one_cull(monkeypatch):
    # the graph holds exactly the candidate edges a _segments_collide call
    # saw and found free, so no edge reaches the graph by another cull
    seen, free, calls = set(), set(), []
    run = verifier._segments_collide

    def recorded(A, B, comp):
        hit = run(A, B, comp)
        rows = np.hstack([A, B])
        seen.update(r.tobytes() for r in rows)
        free.update(r.tobytes() for r in rows[~hit])
        calls.append(len(A))
        return hit

    monkeypatch.setattr(verifier, "_segments_collide", recorded)
    rm = build_roadmap(PLANE_REGION, _plane_lab(), 6000, seed=6000)
    built = len(calls)
    shortest_escape(rm, *PLANE_SETS)
    assert len(calls) == built + 2  # the source and the target links
    pairs = _unique_pairs(_candidate_pairs(
        rm.nodes, rm.connect_radius, NEIGHBORS), len(rm.nodes))
    rows = [r.tobytes() for r in np.hstack(
        [rm.nodes[pairs[:, 0]], rm.nodes[pairs[:, 1]]])]
    assert all(r in seen for r in rows)
    kept = np.array([r in free for r in rows])
    g = rm.graph.tocoo()
    assert 0 < g.nnz < len(pairs)
    assert np.array_equal(np.column_stack([g.row, g.col]), pairs[kept])


def test_verify_path_rejects_pierce_far_from_midpoint():
    # a small disc near one end of one long segment: a cull around the
    # segment's midpoint with the disc radius alone would miss it
    tiny = FlatBall(center=np.array([0.97, 0.0]), normal=np.array([1.0, 0.0]),
                    radius=0.01)
    lab = Labyrinth(dim=2, domain=SINGLE_LAB.domain, components=[tiny])
    pierced = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert not verify_path(EscapePath(polyline=pierced), lab)
    around = np.array([[0.0, 0.0], [0.97, 0.02], [1.0, 0.0]])
    assert verify_path(EscapePath(polyline=around), lab)


@pytest.mark.parametrize("d", [2, 3])
def test_set_projection_rows_match_one_at_a_time(d):
    pts = np.random.default_rng(d).standard_normal((200, d))
    got = _project_to_set({"kind": "sphere", "radius": 0.75}, pts)
    want = np.array([x * (0.75 / np.linalg.norm(x)) for x in pts])
    # the row norm may sum in another order than the 1-D norm
    np.testing.assert_allclose(got, want, rtol=4 * np.finfo(float).eps,
                               atol=0.0)
    coords = np.arange(d, dtype=float)
    assert np.array_equal(
        _project_to_set({"kind": "point", "coords": coords.tolist()}, pts),
        np.tile(coords, (200, 1)))
    pts[17] = 0.0
    with pytest.raises(ValueError, match="origin"):
        _project_to_set({"kind": "sphere", "radius": 0.75}, pts)


def test_roadmap_budget_validation():
    with pytest.raises(ValueError):
        build_roadmap(ANNULUS, empty_labyrinth(2, ANNULUS), 50, seed=0)


def test_roadmap_rejects_a_thin_region_before_any_draw(monkeypatch):
    # the annulus of `generate --annuli 0.5,0.5001`: 3.1e-4 of its box
    def no_draw(*args, **kwargs):
        raise AssertionError("Sobol points were drawn for the thin region")

    monkeypatch.setattr(verifier, "sobol", no_draw)
    thin = {"kind": "annulus", "inner": 0.5, "outer": 0.5001}
    with pytest.raises(RoadmapBudgetError, match="0.000314 of its sampling box"):
        build_roadmap(thin, empty_labyrinth(2, thin), 20_000)


def test_escape_path_bookkeeping():
    poly = np.array([[0.0, 0.0], [0.3, 0.4], [1.0, 0.4]])
    p = EscapePath(polyline=poly)
    assert p.length == pytest.approx(0.5 + 0.7, abs=1e-12)
    with pytest.raises(ValueError):
        EscapePath(polyline=np.array([[0.0, 0.0], [0.0, 0.0]]))


def test_escape_path_rejects_non_finite_points_and_length():
    # the contact test reads NaN as no contact, so verify_path would pass it
    lab = annulus_labyrinth(0.5, 1.0, J=1)
    radial = np.array([[0.5, 0.0], [1.0, 0.0]])
    assert not verify_path(EscapePath(polyline=radial), lab)
    nan_path = np.array([[0.5, 0.0], [np.nan, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        EscapePath(polyline=nan_path)
    # finite points whose step overflows to an infinite length
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        EscapePath(polyline=np.array([[-1e308, 0.0], [1e308, 0.0]]))


def test_path_endpoints_lie_on_sets():
    lab = empty_labyrinth(2, ANNULUS)
    rm = build_roadmap(ANNULUS, lab, 3000, seed=2)
    path = shortest_escape(rm, SPHERE_IN, SPHERE_OUT)
    assert path is not None
    assert abs(np.linalg.norm(path.polyline[0]) - 0.5) < 1e-9
    assert abs(np.linalg.norm(path.polyline[-1]) - 1.0) < 1e-9
    assert verify_path(path, lab, SPHERE_IN, SPHERE_OUT)


@pytest.mark.parametrize("source", [
    SPHERE_IN, {"kind": "point", "coords": [0.0, 0.75]}], ids=["sphere", "point"])
def test_the_escape_graph_stores_each_edge_and_link_once(monkeypatch, source):
    # roadmap edges (i, j) with i < j, the source and target links in the
    # two trailing rows S and T; the undirected run reads each both ways
    graphs = []
    run = csgraph.dijkstra

    def recorded(graph, **kwargs):
        graphs.append(graph)
        return run(graph, **kwargs)

    monkeypatch.setattr(csgraph, "dijkstra", recorded)
    lab = annulus_labyrinth(0.5, 1.0, J=1)
    rm = build_roadmap(ANNULUS, lab, 3000, seed=2)
    assert shortest_escape(rm, source, SPHERE_OUT) is not None
    (big,) = graphs
    S = len(rm.nodes)
    assert big.indptr.dtype == big.indices.dtype == np.int32
    g = big.tocoo()
    edge = g.row < S
    assert np.all((g.row[edge] < g.col[edge]) & (g.col[edge] < S))
    assert np.all(g.col[~edge] < S) and set(g.row[~edge]) == {S, S + 1}
    assert big.multiply(big.T).nnz == 0  # nothing is stored both ways
    for got, want in zip(
            run(big, directed=False, indices=S, return_predecessors=True),
            run(big + big.T, directed=True, indices=S,
                return_predecessors=True)):
        assert np.array_equal(got, want)


# the verify-plane instance: 640 discs in the annulus between its spheres
PLANE_REGION = {"kind": "annulus", "inner": 0.75, "outer": 0.875}
PLANE_SETS = ({"kind": "sphere", "radius": 0.75},
              {"kind": "sphere", "radius": 0.875})


def _plane_lab() -> Labyrinth:
    return annulus_labyrinth(0.75, 0.875, J=10, m=2, dim=2, seed=0)


def _same_csr(got, want) -> bool:
    return got.shape == want.shape and all(
        getattr(got, f).dtype == getattr(want, f).dtype
        and np.array_equal(getattr(got, f), getattr(want, f))
        for f in ("indptr", "indices", "data"))


@pytest.mark.parametrize("case", ["plane-20k", "space-point"])
def test_roadmap_and_escape_graphs_match_the_all_edges_reference(
        monkeypatch, case):
    # the roadmap is the reference's upper triangle, and the undirected run
    # on it plus the two link rows is bitwise the directed run on the
    # reference's symmetric escape graph
    if case == "plane-20k":
        lab, region, budget = _plane_lab(), PLANE_REGION, 20_000
        source, target = PLANE_SETS
    else:
        lab, region, budget = annulus_labyrinth(0.5, 1.0, J=1, dim=3), \
            ANNULUS, 4000
        source, target = {"kind": "point", "coords": [0.0, 0.0, 0.75]}, \
            SPHERE_OUT
    graphs = []
    run = csgraph.dijkstra

    def recorded(graph, **kwargs):
        graphs.append(graph)
        return run(graph, **kwargs)

    monkeypatch.setattr(csgraph, "dijkstra", recorded)
    rm = build_roadmap(region, lab, budget, seed=budget)
    shortest_escape(rm, source, target)
    want = reference_roadmap_graph(rm)
    assert _same_csr(rm.graph, sparse.triu(want, format="csr"))
    (big,) = graphs
    want_big = reference_escape_graph(rm, want, source, target)
    S = len(rm.nodes)
    for got, ref in zip(run(big, directed=False, indices=S,
                            return_predecessors=True),
                        run(want_big, directed=True, indices=S,
                            return_predecessors=True)):
        assert np.array_equal(got, ref)


def test_one_planar_attempt_keeps_its_working_set_small():
    # build_roadmap plus shortest_escape at 20 000 nodes traces about
    # 11.6 MiB at its peak, in the roadmap's build; with every edge's
    # endpoints gathered at once, an unchunked predicate and the escape
    # graph built through COO it was about 36 MB
    lab = _plane_lab()
    build_roadmap(PLANE_REGION, lab, 2000, seed=0)  # imports come first
    tracemalloc.start()
    try:
        rm = build_roadmap(PLANE_REGION, lab, 20_000, seed=20_000)
        shortest_escape(rm, *PLANE_SETS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_min_escape_length_frees_each_roadmap_before_the_next_build(
        monkeypatch):
    refs, alive = [], []
    build = verifier.build_roadmap

    def tracked(*args, **kwargs):
        alive.append(sum(r() is not None for r in refs))
        rm = build(*args, **kwargs)
        refs.append(weakref.ref(rm))
        return rm

    monkeypatch.setattr(verifier, "build_roadmap", tracked)
    rep = min_escape_length(annulus_labyrinth(0.5, 1.0, J=1), SPHERE_IN,
                            SPHERE_OUT, EffortBudget(seeds=(0, 1),
                                                     node_budgets=(1000, 2000),
                                                     shortcut_rounds=20))
    assert len(rep["attempts"]) == 4
    assert alive == [0, 0, 0, 0]


def test_shortcut_straight_path_unchanged():
    poly = np.array([[0.0, 0.0], [1.0, 0.0]])
    p = EscapePath(polyline=poly)
    q = shortcut(p, empty_labyrinth(2, {"kind": "box", "lo": [-1, -1],
                                        "hi": [2, 1]}), rounds=50, seed=0)
    assert q.length == pytest.approx(1.0, abs=1e-12)


def test_shortcut_collapses_zigzag():
    xs = np.linspace(0.0, 1.0, 21)
    poly = np.column_stack([xs, 0.05 * (-1.0) ** np.arange(21)])
    p = EscapePath(polyline=poly)
    lab = empty_labyrinth(2, {"kind": "box", "lo": [-1, -1], "hi": [2, 1]})
    q = shortcut(p, lab, rounds=300, seed=1)
    straight = np.linalg.norm(poly[-1] - poly[0])
    assert q.length <= p.length
    assert q.length <= straight * 1.01


def test_more_shells_never_shorten_within_tolerance():
    src = {"kind": "sphere", "radius": 0.5}
    tgt = {"kind": "sphere", "radius": 0.75}
    effort = EffortBudget(seeds=(0, 1), node_budgets=(10_000,),
                          shortcut_rounds=200)
    lens = []
    for J in (1, 2):
        lab = build_labyrinth(make_schedule(2.0 / 3.0, J, 4), dim=2, seed=0,
                              domain={"kind": "annulus", "inner": 0.5,
                                      "outer": 0.75}, scale=0.75)
        rep = min_escape_length(lab, src, tgt, effort)
        lens.append(rep["best_length"])
    assert lens[1] >= lens[0] * 0.98  # 2% search-resolution slack


def test_audit_passes_on_default_build():
    lab = build_labyrinth(make_schedule(0.5, 2, 4), dim=2, seed=0)
    rep = audit_labyrinth(lab)
    assert rep["passed"]
    names = {c["name"] for c in rep["checks"]}
    assert {"tangency", "next-sublevel-clearance", "pairwise-disjoint",
            "containment", "lex-hyperplane-witnesses"} <= names


def test_audit_flags_inflated_component():
    lab = build_labyrinth(make_schedule(0.5, 2, 4), dim=2, seed=0)
    bad = lab.components[3]
    lab.components[3] = FlatBall(center=bad.center, normal=bad.normal,
                                 radius=bad.radius * 10.0, level=bad.level)
    rep = audit_labyrinth(lab)
    assert not rep["passed"]
    clearance = next(c for c in rep["checks"]
                     if c["name"] == "next-sublevel-clearance")
    assert not clearance["passed"]
    assert clearance["worst_component"] == lab.components[3].level


def test_audit_fails_on_intersecting_discs_in_space():
    th = 0.01  # a shallow crossing along the x-axis
    comps = [FlatBall(center=np.array([0.0, -0.5, 0.0]),
                      normal=np.array([0.0, 0.0, 1.0]), radius=1.0),
             FlatBall(center=np.array([0.0, 0.5 * np.cos(th),
                                       0.5 * np.sin(th)]),
                      normal=np.array([0.0, -np.sin(th), np.cos(th)]),
                      radius=0.6)]
    rep = audit_labyrinth(Labyrinth(dim=3, domain={"kind": "ball"},
                                    components=comps))
    disjoint = next(c for c in rep["checks"]
                    if c["name"] == "pairwise-disjoint")
    assert not disjoint["passed"] and disjoint["min_distance"] == 0.0
    assert not rep["passed"]


@pytest.mark.parametrize("d, side, h", [(3, 9, 0.01), (4, 5, 0.015)])
def test_pairwise_min_distance_is_one_kernel_call_in_chunks(d, side, h):
    # disjoint discs on a jittered grid (centres at least 0.8 h apart, radii
    # at most 0.35 h), about 7 chunks of candidate pairs within the cull
    # radius.  In one kernel call the working set grew with the pairs:
    # 41.7 MiB in d = 3 and 46.9 MiB in d = 4; one chunk at a time it is
    # 5.7 and 7.2 MiB.
    rng = np.random.default_rng(d)
    grid = np.array(list(itertools.product(range(side), repeat=d)), float)
    C = h * (grid + rng.uniform(-0.1, 0.1, grid.shape))
    N = rng.standard_normal(C.shape)
    N /= np.linalg.norm(N, axis=1, keepdims=True)
    R = rng.uniform(0.2 * h, 0.35 * h, len(C))
    comp = _CompArrays(C, N, R, cKDTree(C))
    i, j = comp.tree.query_pairs(2.0 * R.max() + 0.05, output_type="ndarray").T
    assert len(i) > 6 * _PAIR_CHUNK
    one = pairs_disc_disc_distance(C[i], N[i], R[i], C[j], N[j], R[j]).min()
    assert 0.0 < one < 0.05
    _pairwise_min_distance(comp)  # imports and caches come first
    tracemalloc.start()
    try:
        got = _pairwise_min_distance(comp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.float64(got).view(np.uint64) == one.view(np.uint64)
    assert peak < 12 * 2 ** 20


def _lex(rep: dict) -> dict:
    return next(c for c in rep["checks"]
                if c["name"] == "lex-hyperplane-witnesses")


def _ball2(seed: int) -> Labyrinth:
    """A planar ball labyrinth at m = 5, the class count of the shells' nets
    at separations 0.1 to 0.4 for seeds 0 and 3."""
    return build_labyrinth(make_schedule(0.5, 3, 5), 2, seed=seed)


def _lp_lex_worst_margin(lab: Labyrinth) -> float:
    """The LP witness loop on the segment endpoints plus centres, each
    plane's margin read off those samples (exact in the plane)."""
    C, N, R = disc_rows(lab.components)
    samples = np.concatenate([disc_rim_points(C, N, R, 2), C[:, None]], axis=1)
    worst = np.inf
    for i in range(1, len(C)):
        own, earlier = samples[i], samples[:i].reshape(-1, 2)
        h = separating_hyperplane(own, earlier, margin=LP_MARGIN_FLOOR)
        worst = min(worst, np.min(own @ h.normal) - h.offset,
                    h.offset - np.max(earlier @ h.normal))
    return float(worst)


@pytest.mark.parametrize("make", [
    lambda: _ball2(0),
    lambda: _ball2(3),
    lambda: ellipsoid_labyrinth(ellipsoid_domain(np.diag([0.25, 1.0])),
                                make_schedule(0.5, 2, 5), seed=0),
    lambda: build_labyrinth(make_schedule(0.5, 3, 5), dim=2, seed=0),
], ids=["ball2-seed0", "ball2-seed3", "ellipsoid", "criterion-2"])
def test_planar_lex_closed_form_matches_the_lp(make):
    lab = make()
    lex = _lex(audit_labyrinth(lab))
    assert lex["passed"]
    assert abs(lex["worst_margin"] - _lp_lex_worst_margin(lab)) <= 1e-12


def test_planar_lex_runs_no_lp_at_any_size(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("the planar lex check called the LP")

    monkeypatch.setattr(verifier, "separating_hyperplane", no_lp)
    # verify-plane's instance: J = 10, 640 discs, above the d = 3 LP gates
    for lab in (_ball2(0), annulus_labyrinth(0.75, 0.875, J=10, m=2)):
        rep = audit_labyrinth(lab)
        assert rep["passed"] and _lex(rep)["worst_margin"] >= LP_MARGIN_FLOOR


def _inward_pair(dy: float) -> Labyrinth:
    """The segment x = 0.5, |y| <= 0.1, then, listed first, the segment
    y = dy, 0.5 <= x <= 0.7 with its normal pointing at the origin's side."""
    return Labyrinth(dim=2, domain={"kind": "ball"}, components=[
        FlatBall(center=np.array([0.6, dy]), normal=np.array([0.0, -1.0]),
                 radius=0.1, level=(1, 2, 0)),
        FlatBall(center=np.array([0.5, 0.0]), normal=np.array([1.0, 0.0]),
                 radius=0.1, level=(1, 1, 0))])


def test_planar_lex_falls_back_to_the_lp_on_an_inward_normal():
    pair = _inward_pair(0.3)
    C, N, R = disc_rows(pair.components[::-1])  # the radial order
    # the outer disc's own normal puts the inner disc on its high side
    assert _lex_half_gaps(C, N, R)[1] < LP_MARGIN_FLOOR
    lex = _lex(audit_labyrinth(pair))
    assert lex["passed"]
    # half the gap between (0.5, 0.1) and (0.5, 0.3)
    assert lex["worst_margin"] == pytest.approx(0.1, abs=1e-12)
    # moved down to y = 0.05 the segments cross: no witness, and the
    # outer disc in radial order is named
    lex = _lex(audit_labyrinth(_inward_pair(0.05)))
    assert not lex["passed"] and lex["failed_component"] == (1, 2, 0)


def test_lex_fails_a_crossing_pair_whose_discs_have_no_level(tmp_path, capsys):
    """A shell file without schedule or levels: the verdict is the failure,
    and the failing disc is named by its index in the file."""
    from labyrinths.cli import main
    from labyrinths.io import save_labyrinth

    pair = _inward_pair(0.05)
    bare = replace(pair, components=[replace(fb, level=None)
                                     for fb in pair.components])
    lex = _lex(audit_labyrinth(bare))
    assert not lex["passed"]
    assert lex["worst_margin"] is None and lex["failed_component"] == 0
    path = tmp_path / "bare.json"
    save_labyrinth(bare, str(path))
    assert main(["report", str(path)]) == 2
    assert "FAIL lex-hyperplane-witnesses" in capsys.readouterr().out


@pytest.mark.parametrize("make", [
    lambda: _ball2(0),
    lambda: build_labyrinth(make_schedule(0.5, 2, 4), dim=2, seed=0),
    lambda: annulus_labyrinth(0.5, 1.0, J=1, m=2, dim=3, seed=0),
], ids=["ball2", "criterion-2", "verify-space"])
def test_lex_verdict_and_margin_do_not_depend_on_the_file_order(
        make, tmp_path):
    from labyrinths.io import load_labyrinth, save_labyrinth

    lab = make()
    built = _lex(audit_labyrinth(lab))
    assert built["passed"]
    perm = np.random.default_rng(5).permutation(len(lab))
    for name, comps in (("reversed", lab.components[::-1]),
                        ("shuffled", [lab.components[i] for i in perm])):
        path = tmp_path / f"{name}.json"
        save_labyrinth(replace(lab, components=comps), str(path))
        lex = _lex(audit_labyrinth(load_labyrinth(str(path))))
        assert lex == built, name


def _record_lp_planes(monkeypatch) -> list:
    planes = []

    def recorded(*args, **kwargs):
        h = separating_hyperplane(*args, **kwargs)
        planes.append(h)
        return h

    monkeypatch.setattr(verifier, "separating_hyperplane", recorded)
    return planes


def test_space_lex_keeps_one_lp_per_disc(monkeypatch):
    planes = _record_lp_planes(monkeypatch)
    # verify-space's instance
    lab = annulus_labyrinth(0.5, 1.0, J=1, m=2, dim=3, seed=0)
    assert _lex(audit_labyrinth(lab))["passed"]
    assert len(lab) == 60 and len(planes) == 59


def test_space_lex_margin_is_measured_on_the_exact_supports(monkeypatch):
    planes = _record_lp_planes(monkeypatch)
    lab = build_labyrinth(make_schedule(0.55, 1, 2), dim=3, seed=0)
    lex = _lex(audit_labyrinth(lab))
    assert lex["passed"] and len(planes) == len(lab) - 1
    C, N, R = disc_rows(lab.components)
    # the audit's radial order: centre norm, ties by index
    order = np.argsort(np.sqrt(row_dots(C, C)), kind="stable")
    C, N, R = C[order], N[order], R[order]
    samples = np.concatenate([disc_rim_points(C, N, R, 64 * 3), C[:, None]],
                             axis=1)

    def support(i, w):  # max p.w over disc i: centre plus radius times |w_t|
        tangential = w - (N[i] @ w)[..., None] * N[i]
        return C[i] @ w + R[i] * np.linalg.norm(tangential, axis=-1)

    exact, sampled = np.inf, np.inf
    for i, h in enumerate(planes, start=1):
        w, b = h.normal, h.offset
        earlier = np.arange(i)
        exact = min(exact, -support(i, -w) - b, b - support(earlier, w).max())
        sampled = min(sampled, np.min(samples[i] @ w) - b,
                      b - np.max(samples[:i] @ w))
    assert lex["worst_margin"] <= exact + 1e-15
    assert sampled > exact  # the rim samples overstate the margin here


def _containment(lab: Labyrinth) -> dict:
    """The audit's containment entry, without the audit's other checks."""
    checks = []
    add_containment_check(lab, *disc_rows(lab.components),
                          lambda name, passed, **details:
                          checks.append(dict(details, passed=passed)))
    return checks[0]


def test_containment_on_a_3d_ball_file_is_the_3d_ball(tmp_path):
    from labyrinths.io import load_labyrinth, save_labyrinth

    path = tmp_path / "ball3.json"
    save_labyrinth(build_labyrinth(make_schedule(0.5, 1, 4), dim=3, seed=0),
                   str(path))
    lab = load_labyrinth(str(path))
    check = _containment(lab)
    assert check["passed"] and -1.0 < check["max_defining_value"] < 0.0
    # a disc on the third axis whose rim reaches |x|^2 = 0.9^2 + 0.5^2
    lab.components.append(FlatBall(center=np.array([0.0, 0.0, 0.9]),
                                   normal=np.array([0.0, 0.0, 1.0]),
                                   radius=0.5))
    check = _containment(lab)
    assert not check["passed"]
    assert check["max_defining_value"] == pytest.approx(0.06)


def test_containment_of_a_to_ball_file_is_in_the_unit_ball():
    from labyrinths.domains import ellipsoid_domain, ellipsoid_labyrinth

    lab = ellipsoid_labyrinth(ellipsoid_domain(np.diag([0.25, 1.0])),
                              make_schedule(0.5, 1, 4), seed=0)
    assert _containment(lab)["passed"]
    # the tips (0.9, +-0.5) lie inside the ellipse x^2/4 + y^2 < 1 but
    # outside the unit ball, where the file stores its discs
    lab.components.append(FlatBall(center=np.array([0.9, 0.0]),
                                   normal=np.array([1.0, 0.0]), radius=0.5))
    check = _containment(lab)
    assert not check["passed"]
    assert check["max_defining_value"] == pytest.approx(0.06)


def test_containment_holds_a_scaled_ball_labyrinth_to_its_scale():
    lab = build_labyrinth(make_schedule(0.5, 1, 4), dim=2, seed=0, scale=0.5)
    assert _containment(lab)["passed"]
    # tips at |x| = sqrt(0.45^2 + 0.25^2) > 0.5, well inside the unit ball
    lab.components.append(FlatBall(center=np.array([0.45, 0.0]),
                                   normal=np.array([1.0, 0.0]), radius=0.25))
    check = _containment(lab)
    assert not check["passed"]
    assert check["max_defining_value"] == pytest.approx(0.06)


def test_containment_of_a_3d_ellipsoid_in_its_own_frame_is_a_bound():
    # x^2/4 + y^2 + z^2 < 1 with the discs in its own frame, no to_ball
    A = np.diag([0.25, 1.0, 1.0])
    lab = build_labyrinth(make_schedule(0.5, 1, 2), dim=3, seed=0,
                          domain={"kind": "ellipsoid", "matrix": A.tolist()})
    check = _containment(lab)
    assert check["passed"] and check["upper_bound"]
    # the bound dominates the defining function on every rim point
    C, N, R = disc_rows(lab.components)
    rims = disc_rim_points(C, N, R, 256).reshape(-1, 3)
    assert np.einsum("ij,jk,ik->i", rims, A, rims).max() - 1.0 \
        <= check["max_defining_value"]
    # a disc tangent at x = 1.9 with radius 0.5 along y and z: its centre
    # is inside (A-norm 0.95) and its rim (1.9, 0.5, 0) is not
    lab.components.append(FlatBall(center=np.array([1.9, 0.0, 0.0]),
                                   normal=np.array([1.0, 0.0, 0.0]),
                                   radius=0.5))
    check = _containment(lab)
    assert not check["passed"]
    assert check["max_defining_value"] == pytest.approx(1.45 ** 2 - 1.0)


def test_net_covering_names_a_failed_hull_certificate():
    lab = build_labyrinth(make_schedule(0.5, 1, 2), dim=3, seed=0)
    # keep the discs whose normals point into the upper half space
    lab.components = [fb for fb in lab.components if fb.normal[2] > 0.0]
    check = next(c for c in audit_labyrinth(lab)["checks"]
                 if c["name"] == "net-covering")
    assert not check["passed"] and check["failed_shell"] == 1
    assert "offset" in check["error"]


def _divergence(lab: Labyrinth) -> dict:
    return next(c for c in audit_labyrinth(lab)["checks"]
                if c["name"] == "schedule-divergence")


def test_divergence_holds_equal_width_schedules_to_their_total():
    from labyrinths.shells import annulus_labyrinth

    # the first of the 13 equal gaps alone is below the harmonic bound at
    # J = 1, yet the schedule is not a prefix of a longer one
    lab = annulus_labyrinth(0.75, 0.875, J=13)
    rep = audit_labyrinth(lab)
    check = next(c for c in rep["checks"]
                 if c["name"] == "schedule-divergence")
    assert check["passed"] and check["law"] == "equal-width"
    assert rep["passed"]


def test_divergence_holds_other_schedules_at_every_prefix():
    from labyrinths.shells import schedule_from_radii

    lab = build_labyrinth(make_schedule(0.5, 4, 2), dim=2, seed=0)
    check = _divergence(lab)
    assert check["passed"] and check["law"] == "harmonic"
    # shrink the first harmonic gap tenfold: the total still clears the
    # bound, its first partial sum does not
    s = lab.schedule.s.copy()
    s[0] = 0.5 + 0.1 * (s[0] - 0.5)
    lab.schedule = schedule_from_radii(0.5, s, 2)
    check = _divergence(lab)
    assert not check["passed"] and check["law"] == "harmonic"
    sums = check["partial_sums"]
    assert sums[-1] > 0.4 * np.sqrt(0.5) * np.log(5.0)


def test_audit_empty_labyrinth():
    rep = audit_labyrinth(empty_labyrinth(2))
    assert rep["passed"] and rep["empty"]


def test_reports_are_deterministic():
    lab = build_labyrinth(make_schedule(0.5, 1, 3), dim=2, seed=0,
                          domain={"kind": "ball"})
    effort = EffortBudget(seeds=(0,), node_budgets=(4000,), shortcut_rounds=100)
    src = {"kind": "sphere", "radius": 0.5}
    tgt = {"kind": "sphere", "radius": 1.0}
    r1 = min_escape_length(lab, src, tgt, effort)
    r2 = min_escape_length(lab, src, tgt, effort)
    assert r1["best_length"] == r2["best_length"]
    assert np.array_equal(r1["best_path"].polyline, r2["best_path"].polyline)


def test_d3_radial_baseline():
    lab = empty_labyrinth(3, ANNULUS)
    effort = EffortBudget(seeds=(0,), node_budgets=(9000,), shortcut_rounds=150)
    rep = min_escape_length(lab, SPHERE_IN, SPHERE_OUT, effort)
    assert rep["best_length"] == pytest.approx(0.5, rel=0.05)


def test_three_obstacle_grid_oracle_agreement():
    segs = [
        (np.array([0.3, -0.30]), np.array([0.3, 0.10])),
        (np.array([0.6, -0.10]), np.array([0.6, 0.35])),
        (np.array([0.85, -0.25]), np.array([0.85, 0.05])),
    ]
    comps = []
    for a, b in segs:
        mid = 0.5 * (a + b)
        r = 0.5 * np.linalg.norm(b - a)
        comps.append(FlatBall(center=mid, normal=np.array([1.0, 0.0]),
                              radius=r))
    lab = Labyrinth(dim=2, domain={"kind": "box", "lo": [-0.15, -0.6],
                                   "hi": [1.15, 0.6]}, components=comps)
    rep = min_escape_length(lab, {"kind": "point", "coords": [0.0, 0.0]},
                            {"kind": "point", "coords": [1.0, 0.0]}, QUICK)
    oracle = grid_shortest_path(segs, (0.0, 0.0), (1.0, 0.0), step=1.0 / 256,
                                lo=(-0.1, -0.55), hi=(1.1, 0.55))
    assert rep["best_length"] == pytest.approx(oracle, rel=0.02)


def test_resolution_monotonicity_within_tolerance():
    # bigger node budgets never worsen the found length beyond the 2%
    # search-resolution tolerance (min over seeds at each budget)
    best = {}
    for budget in (4000, 16_000):
        lens = []
        for seed in (0, 1, 2):
            effort = EffortBudget(seeds=(seed,), node_budgets=(budget,),
                                  shortcut_rounds=200)
            rep = min_escape_length(
                SINGLE_LAB, {"kind": "point", "coords": [0.0, 0.0]},
                {"kind": "point", "coords": [1.0, 0.0]}, effort)
            lens.append(rep["best_length"])
        best[budget] = min(x for x in lens if x is not None)
    assert best[16_000] <= best[4000] * 1.02
