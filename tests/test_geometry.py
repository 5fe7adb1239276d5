import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from labyrinths import geometry
from labyrinths.geometry import (
    FlatBall,
    disc_norm_range,
    disc_rim_points,
    disc_rows,
    pairs_disc_disc_distance,
    pairs_point_disc_distance,
    pairs_segment_disc_contact,
    separating_hyperplane,
    tangent_bases,
)

from oracles import (
    brute_disc_disc_distance,
    brute_segment_disc_distance,
    full_lp_margin,
    gathered_disc_disc_distance,
    segment_segment_distance_2d,
)

DISC = FlatBall(center=np.array([0.5, 0.0]), normal=np.array([1.0, 0.0]),
                radius=0.2)


def test_segment_through_disc_center_intersects():
    A, B = DISC.center - DISC.normal, DISC.center + DISC.normal
    assert pairs_segment_disc_contact(A[None], B[None], *disc_rows([DISC]))[0]


def test_axis_segment_crosses_disc():
    assert pairs_segment_disc_contact(np.array([[0.0, 0.0]]),
                                      np.array([[1.0, 0.0]]),
                                      *disc_rows([DISC]))[0]


def test_offset_segment_distance_matches_brute_force():
    a, b = np.array([0.0, 0.3]), np.array([1.0, 0.3])
    brute = brute_segment_disc_distance(a, b, DISC.center, DISC.normal,
                                        DISC.radius, grid=20001)
    assert brute == pytest.approx(0.1, abs=1e-6)
    assert not pairs_segment_disc_contact(a[None], b[None],
                                          *disc_rows([DISC]))[0]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_zero_length_rows_take_the_point_distance(d):
    rng = np.random.default_rng(d)
    n = 40
    N = rng.normal(size=(n, d))
    N /= np.linalg.norm(N, axis=1, keepdims=True)
    C = rng.uniform(-1.0, 1.0, size=(n, d))
    R = rng.uniform(0.1, 0.8, size=n)
    A = rng.uniform(-1.5, 1.5, size=(n, d))
    A[:4] = C[:4]  # exact contacts: two points and two segments from a centre
    B = A.copy()
    B[1::2] = rng.uniform(-1.5, 1.5, size=(n // 2, d))  # odd rows: segments
    point = np.arange(n) % 2 == 0
    hit = pairs_segment_disc_contact(A, B, C, N, R)
    # a point touches its disc iff its point/disc distance is 0
    assert np.array_equal(hit[point], pairs_point_disc_distance(
        A[point], C[point], N[point], R[point]) == 0.0)
    assert np.all(hit[:4])
    # each row alone gives the mixed batch's answer
    for i in range(n):
        rows = (X[i:i + 1] for X in (A, B, C, N, R))
        assert pairs_segment_disc_contact(*rows)[0] == hit[i]


def test_point_distances():
    P = np.array([DISC.center, DISC.center + DISC.normal, [0.5, 0.5]])
    got = pairs_point_disc_distance(P, DISC.center, DISC.normal, DISC.radius)
    assert got[0] == 0.0
    assert got[1:] == pytest.approx([1.0, 0.3])


@pytest.mark.parametrize("field,value", [
    ("center", [np.nan, 0.0]), ("normal", [np.nan, 1.0]),
    ("radius", np.nan), ("radius", np.inf)])
def test_flatball_rejects_non_finite(field, value):
    kwargs = {"center": [0.0, 0.0], "normal": [0.0, 1.0], "radius": 0.5}
    kwargs[field] = value
    with pytest.raises(ValueError, match=field):
        FlatBall(**kwargs)


# (center, normal, radius, message): the checks run in this order, so a
# ball wrong in several ways names the first
FLATBALL_ERRORS = [
    ([np.nan, 0.0], [np.nan, 1.0], np.nan, "flat ball center must be finite"),
    ([0.0, -np.inf], [0.0, 1.0], 0.5, "flat ball center must be finite"),
    ([0.0, 0.0], [np.inf, 1.0], np.nan, "flat ball normal must be finite"),
    ([0.0, 0.0, 0.0], [0.0, np.nan, 1.0], -1.0,
     "flat ball normal must be finite"),
    ([0.0, 0.0], [0.0, 2.0], np.inf, "flat ball radius must be finite"),
    ([0.0, 0.0], [0.0, 2.0], 0.0, "flat ball radius must be positive"),
    ([0.0, 0.0], [0.0, 1.0], -0.5, "flat ball radius must be positive"),
    ([0.0, 0.0], [0.0, 2.0], 0.5, "flat ball normal must have unit norm"),
    ([0.0, 0.0], [1e200, 1.0], 0.5, "flat ball normal must have unit norm"),
    ([0.0, 0.0], [1e308, 1e308], 0.5, "flat ball normal must have unit norm"),
    ([0.0, 0.0, 0.0], [0.0, 0.0, 1.0 + 2e-9], 0.5,
     "flat ball normal must have unit norm"),
    ([0.0, 0.0, 0.0, 0.0], [0.0] * 4, 0.5,
     "flat ball normal must have unit norm"),
]


@pytest.mark.parametrize("center,normal,radius,message", FLATBALL_ERRORS)
def test_flatball_names_its_first_fault_without_a_warning(center, normal,
                                                          radius, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            FlatBall(center=center, normal=normal, radius=radius)
    assert str(exc.value) == message


def test_flatball_accepts_a_normal_within_the_unit_tolerance():
    fb = FlatBall(center=[0.0, 0.0, 0.0], normal=[0.0, 0.0, 1.0 + 5e-10],
                  radius=1)
    assert fb.radius == 1.0 and fb.radius.__class__ is float
    assert fb.center.dtype == fb.normal.dtype == np.float64


# (a, b, touches) against the unit disc at the origin with normal e_last
DEGENERATE_ROWS = {
    2: [([-2.0, 0.0], [2.0, 0.0], True),     # in the plane, across the disc
        ([1.5, 0.0], [3.0, 0.0], False),     # in the plane, beyond the rim
        ([1.0, -1.0], [1.0, 1.0], True),     # through the rim point
        ([0.3, 1.0], [0.3, 0.0], True),      # ends on the disc face
        ([0.0, 1.0], [2.0, 0.0], False)],    # ends on the plane outside R
    3: [([-2.0, 0.0, 0.0], [2.0, 0.0, 0.0], True),
        ([-2.0, 1.5, 0.0], [2.0, 1.5, 0.0], False),
        ([-2.0, 1.0, 0.0], [2.0, 1.0, 0.0], True),    # in the plane, grazing
        ([0.0, 1.0, -1.0], [0.0, 1.0, 1.0], True),
        ([0.3, 0.2, 1.0], [0.3, 0.2, 0.0], True),
        ([0.0, 0.0, 1.0], [2.0, 0.0, 0.0], False)],
}


@pytest.mark.parametrize("d", [2, 3])
def test_contact_kernel_degenerate_rows(d):
    rows = DEGENERATE_ROWS[d]
    A = np.array([r[0] for r in rows])
    B = np.array([r[1] for r in rows])
    expect = np.array([r[2] for r in rows])
    normal = np.eye(d)[-1]
    fb = FlatBall(center=np.zeros(d), normal=normal, radius=1.0)
    n = len(rows)
    C, N, R = np.zeros((n, d)), np.tile(normal, (n, 1)), np.ones(n)
    assert np.array_equal(pairs_segment_disc_contact(A, B, C, N, R), expect)
    # each row alone gives the batch's answer
    for i in range(n):
        assert pairs_segment_disc_contact(A[i:i + 1], B[i:i + 1],
                                          *disc_rows([fb]))[0] == expect[i]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.integers(0, 10 ** 9))
def test_contact_kernel_rows_agree_with_scalar_and_oracle(d, seed):
    """Row-for-row agreement of the vectorised kernel with each row run
    alone and, away from the grid oracle's grey zone, with the oracle.

    Half the segments are aimed through the disc's plane near the rim, so
    contacts and near misses are both common.
    """
    rng = np.random.default_rng(seed)
    n = 24
    N = rng.normal(size=(n, d))
    N /= np.linalg.norm(N, axis=1, keepdims=True)
    C = rng.uniform(-1, 1, size=(n, d))
    R = rng.uniform(0.1, 0.8, size=n)
    A = rng.uniform(-1.5, 1.5, size=(n, d))
    B = rng.uniform(-1.5, 1.5, size=(n, d))
    # in-plane unit directions; the aimed segments pass through the plane
    # at 0.8..1.2 radii from the centre, at their midpoints
    U = rng.normal(size=(n, d))
    U -= np.einsum("ij,ij->i", U, N)[:, None] * N
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    target = C + rng.uniform(0.8, 1.2, size=(n, 1)) * R[:, None] * U
    B[::2] = (2.0 * target - A)[::2]
    contact = pairs_segment_disc_contact(A, B, C, N, R)
    for i in range(n):
        fb = FlatBall(center=C[i], normal=N[i], radius=R[i])
        assert pairs_segment_disc_contact(A[i:i + 1], B[i:i + 1],
                                          *disc_rows([fb]))[0] == contact[i]
        grid_min = brute_segment_disc_distance(A[i], B[i], C[i], N[i], R[i],
                                               grid=200)
        thresh = np.linalg.norm(B[i] - A[i]) / 398.0 + 1e-9
        if contact[i] or grid_min > 2.0 * thresh:
            assert contact[i] == (grid_min <= thresh)


def test_separating_hyperplane_axis_separated():
    first = np.array([[0.0, y] for y in np.linspace(-1, 1, 9)])
    second = np.array([[5.0, y] for y in np.linspace(-1, 1, 9)])
    h = separating_hyperplane(first, second, margin=1.0)
    assert h is not None
    assert abs(abs(h.normal[0]) - 1.0) < 1e-9
    assert abs(abs(h.offset) - 2.5) < 1e-9
    assert np.min(first @ h.normal) >= h.offset + 1.0
    assert np.max(second @ h.normal) <= h.offset - 1.0


def test_separating_hyperplane_identical_sets_fails():
    # 3000 points per side is more than one working set of the LP
    big = np.random.default_rng(3).uniform(-1, 1, (3000, 3))
    for pts in (np.array([[0.0, 0.0], [1.0, 1.0]]), big):
        assert separating_hyperplane(pts, pts, margin=0.0) is None


def _plane_margin(h, first, second) -> float:
    return min(float(np.min(first @ h.normal) - h.offset),
               float(h.offset - np.max(second @ h.normal)))


def _counting_linprog(monkeypatch) -> list:
    calls = []
    solve = scipy.optimize.linprog

    def counted(*args, **kwargs):
        calls.append(kwargs["A_ub"].shape[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counted)
    return calls


def test_separating_hyperplane_row_generation_matches_full_lp(monkeypatch):
    # two solid d = 3 balls sampled by thousands of points each
    rng = np.random.default_rng(11)

    def ball(n, centre):
        v = rng.standard_normal((n, 3))
        v *= (rng.uniform(0, 1, (n, 1)) ** (1 / 3)) / np.linalg.norm(
            v, axis=1)[:, None]
        return v + centre

    first, second = ball(4000, [2.5, 0.3, 0.0]), ball(3000, [0.0, 0.0, 0.0])
    calls = _counting_linprog(monkeypatch)
    h = separating_hyperplane(first, second, margin=0.1)
    assert h is not None
    assert max(calls) < len(first) + len(second)
    assert _plane_margin(h, first, second) == pytest.approx(
        full_lp_margin(first, second), abs=1e-9)


def test_separating_hyperplane_row_generation_adds_rows(monkeypatch):
    # the first set is a long strip above the square, so its centroid lies
    # far to the right and the points nearest along the centroid difference
    # are not the ones that bind: the LP needs another round
    rng = np.random.default_rng(5)
    second = rng.uniform(-1, 1, (3000, 2))
    first = np.column_stack([rng.uniform(-1, 30, 3000),
                             rng.uniform(1.2, 1.3, 3000)])
    calls = _counting_linprog(monkeypatch)
    h = separating_hyperplane(first, second)
    assert h is not None and len(calls) >= 2
    assert _plane_margin(h, first, second) == pytest.approx(
        full_lp_margin(first, second), abs=1e-9)


def test_separating_hyperplane_empty_input():
    with pytest.raises(ValueError):
        separating_hyperplane(np.empty((0, 2)), np.array([[1.0, 0.0]]), 0.0)


def test_separating_hyperplane_tangent_discs_on_circle():
    # two discs tangent to the unit circle at well separated points
    angles = [0.3, 1.4]
    discs = []
    for a in angles:
        n = np.array([np.cos(a), np.sin(a)])
        discs.append(FlatBall(center=0.8 * n, normal=n, radius=0.1))
    # the LP sampling of each disc: its rim points and its centre
    C, N, R = disc_rows(discs)
    s1, s2 = np.concatenate([disc_rim_points(C, N, R, 2), C[:, None]], axis=1)
    h = separating_hyperplane(s1, s2, margin=1e-6)
    assert h is not None
    # re-check on a 10x denser sampling of both discs
    for disc, sign in ((discs[0], 1.0), (discs[1], -1.0)):
        u = np.array([-disc.normal[1], disc.normal[0]])
        ts = np.linspace(-1, 1, 21)
        dense = disc.center + np.outer(ts, disc.radius * u)
        vals = sign * (dense @ h.normal - h.offset)
        assert np.all(vals >= 1e-6)


def test_extremal_points_d2():
    pts = np.vstack([disc_rim_points(*disc_rows([DISC]), 2)[0], DISC.center])
    assert pts.shape == (3, 2)
    expect = {(0.5, -0.2), (0.5, 0.2), (0.5, 0.0)}
    got = {tuple(np.round(p, 12)) for p in pts}
    assert got == expect


def test_extremal_points_d3_gap():
    fb = FlatBall(center=np.zeros(3), normal=np.array([0.0, 0.0, 1.0]),
                  radius=1.0)
    rim = disc_rim_points(*disc_rows([fb]), 8)[0]
    assert rim.shape == (8, 3)
    ang = np.sort(np.arctan2(rim[:, 1], rim[:, 0]))
    gaps = np.diff(np.concatenate([ang, [ang[0] + 2 * np.pi]]))
    assert gaps.max() <= np.pi / 2 + 1e-9


def _rim_one_disc(fb: FlatBall, count: int) -> np.ndarray:
    """Rim points of one disc from 1-D products: a Householder basis of the
    normal's complement, then its endpoints, a circle or the shared
    farthest-point directions."""
    from labyrinths.sampling import farthest_point_order, sphere_candidates

    d = fb.dim
    u = fb.normal / np.linalg.norm(fb.normal)
    u[0] += 1.0 if u[0] >= 0.0 else -1.0
    B = (np.eye(d) - 2.0 * np.outer(u, u) / (u @ u))[:, 1:]
    if d == 2:
        return np.vstack([fb.center - fb.radius * B[:, 0],
                          fb.center + fb.radius * B[:, 0]])
    if d == 3:
        ang = 2.0 * np.pi * np.arange(count) / count
        return fb.center + fb.radius * (np.outer(np.cos(ang), B[:, 0])
                                        + np.outer(np.sin(ang), B[:, 1]))
    cand = sphere_candidates(d - 1, max(64, 8 * count))
    idx = farthest_point_order(cand, start=0, stop_count=count)
    return fb.center + fb.radius * (cand[idx] @ B.T)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_batched_rims_equal_per_disc_rims_bit_for_bit(d):
    rng = np.random.default_rng(d)
    N = rng.standard_normal((40, d))
    N /= np.linalg.norm(N, axis=1, keepdims=True)
    N[0] = -np.eye(d)[0]  # a normal the Householder step reflects through
    discs = [FlatBall(center=c, normal=n, radius=r) for c, n, r in zip(
        rng.uniform(-1.0, 1.0, (40, d)), N, rng.uniform(0.01, 0.5, 40))]
    for count in (2, 12, 64 * d):
        got = disc_rim_points(*disc_rows(discs), count)
        assert got.shape == (40, 2 if d == 2 else count, d)
        for rim, fb in zip(got, discs):
            assert np.array_equal(rim, disc_rim_points(*disc_rows([fb]),
                                                       count)[0])
            assert np.array_equal(rim, _rim_one_disc(fb, count))
            # each rim point sits on the disc's rim sphere
            v = rim - fb.center
            np.testing.assert_allclose(v @ fb.normal, 0.0, atol=1e-12)
            np.testing.assert_allclose(np.linalg.norm(v, axis=1), fb.radius,
                                       rtol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_disc_norm_range_matches_dense_rim_sampling_on_tilted_discs(d):
    rng = np.random.default_rng(10 + d)
    N = rng.standard_normal((30, d))
    N /= np.linalg.norm(N, axis=1, keepdims=True)
    C = rng.uniform(-1.0, 1.0, (30, d))
    R = rng.uniform(0.05, 0.8, 30)
    C[0] = 0.0  # through the origin: nearest 0, farthest r
    C[1] = 0.7 * N[1]  # tangent: farthest sqrt(|c|^2 + r^2)
    near, far = disc_norm_range(C, N, R)
    # the farthest point lies on the rim: sampled there from below
    rims = disc_rim_points(C, N, R, 4096 if d == 3 else 512)
    sampled = np.linalg.norm(rims, axis=2).max(axis=1)
    assert np.all(sampled <= far + 1e-12)
    np.testing.assert_allclose(sampled, far, atol=1e-6 if d == 3 else 1e-2)
    if d == 2:  # the endpoints are the whole rim
        np.testing.assert_allclose(sampled, far, rtol=1e-15)
    # the nearest is attained: every sampled disc point is at least as far
    B = tangent_bases(N)
    v = rng.standard_normal((30, 2000, d - 1))
    v *= (rng.random((30, 2000, 1)) ** (1.0 / (d - 1))
          / np.linalg.norm(v, axis=2, keepdims=True))
    inner = C[:, None] + R[:, None, None] * (v @ B.transpose(0, 2, 1))
    assert np.all(np.linalg.norm(inner, axis=2).min(axis=1) >= near - 1e-12)
    assert near[0] == 0.0 and far[0] == pytest.approx(R[0], rel=1e-15)
    assert far[1] == pytest.approx(np.sqrt(0.49 + R[1] ** 2), rel=1e-15)


def test_extremal_points_on_the_set():
    for d in (2, 3, 4):
        rng = np.random.default_rng(d)
        n = rng.normal(size=d)
        fb = FlatBall(center=rng.normal(size=d), normal=n / np.linalg.norm(n),
                      radius=0.7)
        pts = np.vstack([disc_rim_points(*disc_rows([fb]), max(2, 2 * d))[0],
                         fb.center])
        dists = pairs_point_disc_distance(pts, fb.center, fb.normal, fb.radius)
        assert np.max(dists) <= 1e-12


def _random_instance(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    n = rng.normal(size=d)
    fb = FlatBall(center=rng.uniform(-1, 1, size=d),
                  normal=n / np.linalg.norm(n),
                  radius=float(rng.uniform(0.1, 0.8)))
    a = rng.uniform(-1.5, 1.5, size=d)
    b = rng.uniform(-1.5, 1.5, size=d)
    return fb, a, b


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_intersect_predicate_agrees_with_grid_oracle(seed):
    """Equivalence with the 200-point grid oracle, away from the grey zone.

    A piercing segment has grid minimum at most L/398 (the distance along
    the segment is L-Lipschitz in the parameter); instances whose true
    distance falls inside (0, 2 L/398] are skipped since both sides are
    then resolution-limited.
    """
    from hypothesis import assume

    fb, a, b = _random_instance(seed)
    if np.array_equal(a, b):
        return
    seg_len = float(np.linalg.norm(b - a))
    thresh = seg_len / 398.0 + 1e-9
    grid_min = brute_segment_disc_distance(a, b, fb.center, fb.normal,
                                           fb.radius, grid=200)
    pred = pairs_segment_disc_contact(a[None], b[None], *disc_rows([fb]))[0]
    assume(pred or grid_min > 2.0 * thresh)
    assert pred == (grid_min <= thresh)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_point_distance_rotation_invariance(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    n = rng.normal(size=d)
    fb = FlatBall(center=rng.uniform(-1, 1, size=d),
                  normal=n / np.linalg.norm(n),
                  radius=float(rng.uniform(0.1, 1.0)))
    x = rng.uniform(-2, 2, size=d)
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    fb_rot = FlatBall(center=Q @ fb.center,
                      normal=(Q @ fb.normal) / np.linalg.norm(Q @ fb.normal),
                      radius=fb.radius)
    d0 = pairs_point_disc_distance(x, fb.center, fb.normal, fb.radius)
    d1 = pairs_point_disc_distance(Q @ x, fb_rot.center, fb_rot.normal,
                                   fb_rot.radius)
    assert d0 == pytest.approx(d1, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_separating_hyperplane_recheck_property(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 4))
    gap = rng.uniform(0.2, 2.0)
    first = rng.uniform(-1, 1, size=(6, d))
    second = rng.uniform(-1, 1, size=(6, d))
    shift = np.zeros(d)
    shift[0] = 2.0 + gap
    first = first + shift
    h = separating_hyperplane(first, second, margin=gap / 4)
    assert h is not None
    assert np.min(first @ h.normal) >= h.offset + gap / 4
    assert np.max(second @ h.normal) <= h.offset - gap / 4


def test_pair_distance_matches_dense_sampling():
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = int(rng.integers(2, 4))
        inst = []
        for _ in range(2):
            n = rng.normal(size=d)
            inst.append(FlatBall(center=rng.uniform(-1, 1, size=d),
                                 normal=n / np.linalg.norm(n),
                                 radius=float(rng.uniform(0.1, 0.6))))
        f1, f2 = inst
        got = pairs_disc_disc_distance(*disc_rows([f1]), *disc_rows([f2]))[0]
        B = tangent_bases(f2.normal[None])[0]
        if d == 2:
            ts = np.linspace(-1, 1, 2001)
            pts = f2.center + np.outer(ts, f2.radius * B[:, 0])
        else:
            ts = np.linspace(-1, 1, 61)
            grid = np.stack(np.meshgrid(ts, ts), axis=-1).reshape(-1, 2)
            grid = grid[np.linalg.norm(grid, axis=1) <= 1.0]
            pts = f2.center + (grid * f2.radius) @ B.T
        brute = pairs_point_disc_distance(pts, f1.center, f1.normal,
                                          f1.radius).min()
        # distance from f1 to sampled points of f2 upper-bounds the truth
        assert got <= brute + 1e-6
        if got > 1e-6:
            assert brute >= got * 0.5


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 9), d=st.sampled_from([2, 3, 4]),
       rows=st.integers(1, 6), spread=st.sampled_from([0.3, 1.0, 2.0]))
def test_disc_distance_is_a_certified_lower_bound(seed, d, rows, spread):
    rng = np.random.default_rng(seed)
    normals = rng.standard_normal((2 * rows, d))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    discs = [FlatBall(center=c, normal=n, radius=r) for c, n, r in zip(
        rng.uniform(-spread, spread, (2 * rows, d)), normals,
        rng.uniform(0.1, 0.8, 2 * rows))]
    first, second = discs[0::2], discs[1::2]
    got = pairs_disc_disc_distance(*disc_rows(first), *disc_rows(second))
    for k, (f1, f2) in enumerate(zip(first, second)):
        least, res = brute_disc_disc_distance(
            f1, f2, {2: 2001, 3: 201, 4: 41}[d])
        one = pairs_disc_disc_distance(*disc_rows([f1]), *disc_rows([f2]))[0]
        # the true distance lies in [least - res, least]; a certified lower
        # bound may not exceed it beyond rounding
        for value in (got[k], one):
            assert least - res <= value <= least + 1e-12
        # every row stops on its own, so the batch does not move a value
        assert one == got[k]


def test_intersecting_discs_in_space_give_zero():
    flat = FlatBall(center=np.array([0.0, -0.5, 0.0]),
                    normal=np.array([0.0, 0.0, 1.0]), radius=1.0)
    steep = FlatBall(center=np.array([0.3, 0.0, 0.2]),
                     normal=np.array([1.0, 0.0, 0.0]), radius=0.5)
    # tilted by 0.01 about the x-axis, meeting `flat` along the x-axis:
    # alternating projection has not met in 400 rounds, so its pair is
    # still about 1e-3 apart
    th = 0.01
    shallow = FlatBall(center=np.array([0.0, 0.5 * np.cos(th), 0.5 * np.sin(th)]),
                       normal=np.array([0.0, -np.sin(th), np.cos(th)]),
                       radius=0.6)
    got = pairs_disc_disc_distance(*disc_rows([flat, flat, steep, shallow]),
                                   *disc_rows([steep, shallow, flat, flat]))
    assert np.array_equal(got, np.zeros(4))


def test_planar_disc_distances_are_the_segment_formula():
    from scipy.spatial import cKDTree

    from labyrinths.shells import build_labyrinth, make_schedule

    lab = build_labyrinth(make_schedule(0.5, 3, 5), dim=2, seed=0)
    C, N, R = disc_rows(lab.components)
    i, j = cKDTree(C).query_pairs(2.0 * R.max() + 0.05,
                                  output_type="ndarray").T
    U = np.column_stack([-N[:, 1], N[:, 0]])
    want = segment_segment_distance_2d(
        C[i] - R[i, None] * U[i], C[i] + R[i, None] * U[i],
        C[j] - R[j, None] * U[j], C[j] + R[j, None] * U[j])
    got = pairs_disc_disc_distance(C[i], N[i], R[i], C[j], N[j], R[j])
    assert len(got) == 1000
    assert np.array_equal(got, want)
    assert got.min() == 0.0032602746444939565


def near_parallel_disc_rows(rng, d: int, rows: int):
    """Random disc rows in half the pairs; in the other half the second
    disc is the first turned by 0.02 to 0.3 rad about a line of its plane
    0.01 to 0.1 beyond its rim: disjoint discs on planes meeting at a
    small angle, where alternating projection needs many rounds."""
    N1 = rng.standard_normal((rows, d))
    N1 /= np.linalg.norm(N1, axis=1, keepdims=True)
    C1 = rng.uniform(-1.0, 1.0, (rows, d))
    R1 = rng.uniform(0.1, 0.8, rows)
    N2 = rng.standard_normal((rows, d))
    N2 /= np.linalg.norm(N2, axis=1, keepdims=True)
    C2 = rng.uniform(-1.0, 1.0, (rows, d))
    R2 = rng.uniform(0.1, 0.8, rows)
    w = np.arange(rows) % 2 == 1
    u = tangent_bases(N1[w])[:, :, 0]
    th = rng.uniform(0.02, 0.3, (w.sum(), 1))
    arm = R1[w, None] + rng.uniform(0.01, 0.1, (w.sum(), 1))
    N2[w] = np.cos(th) * N1[w] + np.sin(th) * u
    C2[w] = C1[w] + arm * ((1.0 - np.cos(th)) * u + np.sin(th) * N1[w])
    R2[w] = R1[w]
    return C1, N1, R1, C2, N2, R2


@pytest.mark.parametrize("d", [3, 4])
def test_disc_distance_equals_the_gathered_loop_bit_for_bit(d, monkeypatch):
    """The compacted loop gives every row of the per-round gathered loop,
    on rows that stop after a few rounds and rows that run for hundreds."""
    rows = near_parallel_disc_rows(np.random.default_rng(d), d, 400)
    want = gathered_disc_disc_distance(*rows)
    live = []
    project = geometry._pairs_project_to_disc

    def counted(X, C, N, R):
        live.append(len(X))
        return project(X, C, N, R)

    monkeypatch.setattr(geometry, "_pairs_project_to_disc", counted)
    got = pairs_disc_disc_distance(*rows)
    assert np.array_equal(got, want)
    # rows stopped in many different rounds, and some ran for 100 or more
    assert live[0] == 400 and len(set(live)) > 20 and len(live) >= 2 * 100
