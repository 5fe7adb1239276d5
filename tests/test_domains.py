import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labyrinths import domains, sampling
from labyrinths.domains import (
    MAX_PATCH_STEPS,
    PATCH_BOUNDARY_SAMPLES,
    PATCH_RING_SAMPLES,
    CollarCollapseError,
    ConvexDomain,
    PatchCover,
    _boundary_near_rows,
    _local_patch_discs,
    _map_disc_rows_2d,
    _smooth_domain,
    assemble_patch_labyrinth,
    ball_domain,
    boundary_distance,
    boundary_points,
    boundary_samples,
    ellipse_preset,
    ellipsoid_domain,
    ellipsoid_labyrinth,
    measure_delta,
    normalize_ellipsoid,
    osculating_map,
    patch_cover,
    patch_schedule,
    resolve_domain,
    superellipse_preset,
)
from labyrinths.geometry import FlatBall, disc_rows
from labyrinths.shells import (make_schedule, schedule_discs,
                               schedule_from_radii)
from labyrinths.verifier import audit_labyrinth
from oracles import (
    chart_to_ball,
    chart_to_domain,
    dense_measure_delta,
    filtered_patch_discs,
    map_flatball_2d,
    per_sample_convexity_gate,
    scipy_boundary_near,
    scipy_boundary_samples,
)


def test_normalize_identity():
    em = normalize_ellipsoid(np.eye(2))
    assert np.allclose(em.to_ball, np.eye(2))
    assert em.norm_to_ball == pytest.approx(1.0)


def test_normalize_diag():
    em = normalize_ellipsoid(np.diag([4.0, 1.0]))
    assert np.allclose(em.to_ball, np.diag([2.0, 1.0]))
    assert np.allclose(np.linalg.inv(em.to_ball), np.diag([0.5, 1.0]))
    assert em.norm_to_ball == pytest.approx(2.0)


def test_normalize_rejects_non_spd():
    with pytest.raises(ValueError):
        normalize_ellipsoid(np.diag([1.0, -2.0]))
    with pytest.raises(ValueError):
        ellipsoid_domain(np.array([[1.0, 0.5], [0.4, 1.0]]))


def test_pullback_of_segment_is_segment():
    em = normalize_ellipsoid(np.diag([4.0, 1.0]))
    fb = FlatBall(center=np.array([0.5, 0.0]), normal=np.array([1.0, 0.0]),
                  radius=0.2, level=(1, 1, 0))
    to_domain = np.linalg.inv(em.to_ball)
    C, N, R = _map_disc_rows_2d(to_domain, np.zeros(2), *disc_rows([fb]))
    mapped = FlatBall(center=C[0], normal=N[0], radius=R[0])
    # the image is again a planar flat ball; its endpoints are the images
    u = np.array([-fb.normal[1], fb.normal[0]])
    for sign in (-1.0, 1.0):
        src = fb.center + sign * fb.radius * u
        img = to_domain @ src
        mu = np.array([-mapped.normal[1], mapped.normal[0]])
        ok = min(np.linalg.norm(img - (mapped.center + s * mapped.radius * mu))
                 for s in (-1.0, 1.0))
        assert ok < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_length_distortion_operator_norm(seed):
    rng = np.random.default_rng(seed)
    A = np.diag(rng.uniform(0.3, 4.0, size=2))
    em = normalize_ellipsoid(A)
    poly = rng.uniform(-1, 1, size=(8, 2))
    lens = np.linalg.norm(np.diff(poly, axis=0), axis=1).sum()
    mapped = poly @ em.to_ball.T
    lens_m = np.linalg.norm(np.diff(mapped, axis=0), axis=1).sum()
    assert lens_m <= em.norm_to_ball * lens * (1 + 1e-12)


def test_ellipsoid_pullback_roundtrip():
    em = normalize_ellipsoid(np.diag([4.0, 1.0]))
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1, 1, size=(50, 2))
    back = (pts @ em.to_ball.T) @ np.linalg.inv(em.to_ball).T
    assert np.max(np.abs(back - pts)) < 1e-9


def test_ellipsoid_labyrinth_records_map_and_passes_audit():
    dom = ellipsoid_domain(np.diag([0.25, 1.0]))  # semi-axes 2 and 1
    lab = ellipsoid_labyrinth(dom, make_schedule(0.5, 2, 4), seed=0)
    assert lab.domain["kind"] == "ellipsoid"
    assert "to_ball" in lab.domain
    rep = audit_labyrinth(lab)
    assert rep["passed"]


def test_osculating_ball_is_isometry():
    dom = ball_domain(2)
    x = np.array([np.cos(0.7), np.sin(0.7)])
    osc = osculating_map(dom, x)
    assert np.allclose(osc.linear @ osc.linear.T, np.eye(2), atol=1e-12)
    for th in np.linspace(0.6, 0.8, 7):
        b = np.array([np.cos(th), np.sin(th)])
        assert abs(np.linalg.norm(chart_to_ball(osc, b)) - 1.0) < 1e-12


def test_osculating_ellipse_frozen_map():
    dom = ellipse_preset()
    osc = osculating_map(dom, np.array([2.0, 0.0]))
    assert np.allclose(osc.linear, np.diag([2.0, 2.0]), atol=1e-12)
    assert osc.normal_scale == pytest.approx(2.0)
    assert np.allclose(chart_to_ball(osc, np.array([2.0, 0.0])), [1.0, 0.0])
    # mapped boundary points satisfy the sphere equation to second order:
    # within a small chart radius the defect is far below the global bound
    for th in (-0.02, 0.02):
        b = np.array([2.0 * np.cos(th), np.sin(th)])
        assert abs(np.linalg.norm(chart_to_ball(osc, b)) - 1.0) < 1e-6
    # round trip is exact
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.3, 0.3, size=(20, 2)) + np.array([1.8, 0.0])
    back = chart_to_domain(osc, chart_to_ball(osc, pts))
    assert np.max(np.abs(back - pts)) < 1e-12


def test_osculating_deviation_within_validity_radius():
    dom = ellipse_preset()
    x = boundary_points(dom, np.array([[1.0, 0.7]]))[0]
    osc = osculating_map(dom, x, deviation_bound=0.05)
    assert osc.validity_radius > 0.05
    # domain-space deviation: in chart units the sphere defect divides by
    # the normal scale
    s = np.linspace(-1, 1, 41) * osc.validity_radius
    n_out = dom.grad(x) / np.linalg.norm(dom.grad(x))
    B = np.array([-n_out[1], n_out[0]])
    b = _boundary_near_rows(dom, x + s[:, None] * B, n_out)
    assert not np.isnan(b).any()
    defect = np.abs(np.linalg.norm(chart_to_ball(osc, b), axis=1) - 1.0) \
        / osc.normal_scale
    assert np.all(defect <= 0.05 + 1e-9)


def test_osculating_rejects_off_boundary_and_degenerate():
    dom = ellipse_preset()
    with pytest.raises(ValueError):
        osculating_map(dom, np.array([0.5, 0.0]))
    flat = ConvexDomain(
        kind="smooth", dim=2,
        rho=lambda x: np.asarray(x, float)[..., 0] - 1.0,
        grad=lambda x: np.array([1.0, 0.0]),
        hess=lambda x: np.zeros((2, 2)), name="halfplane")
    with pytest.raises(ValueError):
        osculating_map(flat, np.array([1.0, 0.0]))


def test_osculating_map_is_planar():
    # beyond the plane the validity radius would be read along one tangent
    # line only, so the chart is refused rather than measured short
    dom = ellipsoid_domain(np.diag([1.0, 0.25, 4.0]))
    x = boundary_points(dom, np.array([[1.0, 1.0, 1.0]]))[0]
    assert abs(dom.rho(x)) < 1e-9
    with pytest.raises(ValueError, match=r"planar \(d = 2\), not d = 3"):
        osculating_map(dom, x, 0.01)


def test_superellipse_preset_validates():
    dom = superellipse_preset()
    x = boundary_points(dom, np.array([[1.0, 1.0]]))
    assert abs(float(dom.rho(x)[0])) < 1e-12


def turned_quartic(turn: int):
    """The pure quartic x^4 + y^4 < 1 (the superellipse with lambda = 0),
    turned so that its flat axis point x = (1, 0) moves to boundary sample
    `turn` of 257."""
    a = 2.0 * np.pi * turn / 257
    Q = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    rho = lambda x: np.sum((np.asarray(x, dtype=float) @ Q) ** 4, axis=-1) - 1.0
    grad = lambda x: (4.0 * (np.asarray(x, dtype=float) @ Q) ** 3) @ Q.T
    hess = lambda x: Q @ np.diag(12.0 * (np.asarray(x, dtype=float) @ Q) ** 2) @ Q.T
    return rho, grad, hess


@pytest.mark.parametrize("turn", [0, 5, 130])
def test_convexity_gate_names_the_first_flat_sample(turn):
    rho, grad, hess = turned_quartic(turn)
    dom = ConvexDomain(kind="smooth", dim=2, rho=rho, grad=grad, hess=hess,
                       name="quartic")
    index, point = per_sample_convexity_gate(dom)
    assert index == turn
    with pytest.raises(ValueError) as err:
        _smooth_domain("quartic", 2, rho, grad, hess)
    assert str(err.value) == ("domain 'quartic' is not strictly convex at "
                              f"boundary point {point}")


def test_convexity_gate_names_the_first_of_many_failing_samples():
    # a circle whose Hessian is reported as 0 on the upper half: samples
    # 1 to 128 all fail, and the error names sample 1
    rho = lambda x: np.sum(np.asarray(x, dtype=float) ** 2, axis=-1) - 1.0
    grad = lambda x: 2.0 * np.asarray(x, dtype=float)
    hess = lambda x: np.zeros((2, 2)) if x[1] > 0.0 else 2.0 * np.eye(2)
    dom = ConvexDomain(kind="smooth", dim=2, rho=rho, grad=grad, hess=hess,
                       name="half")
    index, point = per_sample_convexity_gate(dom)
    assert index == 1
    with pytest.raises(ValueError, match="not strictly convex") as err:
        _smooth_domain("half", 2, rho, grad, hess)
    assert str(err.value).endswith(f"boundary point {point}")


def test_convexity_gate_passes_the_presets():
    for preset in (ellipse_preset, superellipse_preset):
        assert per_sample_convexity_gate(preset()) is None
        assert preset().kind == "smooth"


def test_patch_cover_circle():
    dom = ball_domain(2)
    cover = patch_cover(dom, 1.0, 0.08)
    assert cover.k <= 7
    assert cover.delta > 0.0
    # coverage invariant: every boundary sample strictly inside some patch
    bnd = boundary_samples(dom, PATCH_BOUNDARY_SAMPLES)
    d = np.min(np.linalg.norm(bnd[:, None, :]
                              - cover.centers[None, :, :], axis=2), axis=1)
    assert np.all(d < cover.radius)


def test_patch_cover_eta_validation():
    with pytest.raises(ValueError):
        patch_cover(ball_domain(2), 1.0, 0.3)


def test_patch_cover_is_planar():
    with pytest.raises(ValueError, match=r"planar \(d = 2\), not d = 3"):
        patch_cover(ball_domain(3), 0.9, 0.08)


@pytest.mark.parametrize("radius", [0.0, np.nan, np.inf, -0.5])
def test_patch_cover_needs_a_finite_positive_radius(radius):
    with pytest.raises(ValueError, match="finite and positive"):
        patch_cover(ball_domain(2), radius, 0.08)


def test_patch_delta_stable_under_denser_sampling():
    dom = ball_domain(2)
    cover = patch_cover(dom, 1.0, 0.08)
    d10 = measure_delta(cover, 10)
    assert d10 is not None
    assert abs(d10 - cover.delta) <= 0.1 * cover.delta


@pytest.mark.parametrize("eta", [0.08, 0.02])
@pytest.mark.parametrize("patch_radius", [0.9, 0.3, 0.15, 0.08])
@pytest.mark.parametrize("preset", [ellipse_preset, superellipse_preset])
def test_collar_gap_equals_the_dense_ring_by_ring_gap(preset, patch_radius,
                                                      eta):
    """The one-table gap with its culled containment and ring trees is the
    dense per-ring measurement bit for bit (k = 6 to 76 patches), at the
    first and the last radius of the cover's shrink grid."""
    dom = preset()
    bnd = boundary_samples(dom, PATCH_BOUNDARY_SAMPLES)
    centers = bnd[sampling.farthest_point_order(
        bnd, 0, stop_dist=patch_radius * (1.0 - 1e-9))]
    reach = np.linalg.norm(bnd[:, None] - centers, axis=2).min(axis=1)
    first = min(1.0, float(reach.max()) / patch_radius + 0.05)
    for f in (first, 1.0):
        args = (dom, centers, f * patch_radius, eta, PATCH_RING_SAMPLES)
        want = dense_measure_delta(*args)
        assert want is not None
        assert domains._measure_delta(*args) == want


def test_collar_gap_is_none_when_a_ring_misses_the_collar():
    dom = ellipse_preset()
    centers = boundary_samples(dom, PATCH_BOUNDARY_SAMPLES)[::512]
    args = (dom, centers, 0.5, 1e-3, PATCH_RING_SAMPLES)
    assert dense_measure_delta(*args) is None
    assert domains._measure_delta(*args) is None


def test_patch_schedule_laws():
    dom = ball_domain(2)
    cover = patch_cover(dom, 1.0, 0.08)
    cover.delta = 0.2
    seq = patch_schedule(cover, 1.0)
    n = len(seq) // cover.k
    assert n == 6  # 5 * 0.2 is not strictly greater than 1
    assert len(seq) == n * cover.k
    for i in range(cover.k):
        assert seq.count(i) == n
    cover.delta = 0.5
    assert len(patch_schedule(cover, 0.3)) == cover.k  # n = 1
    cover.delta = 0.0
    with pytest.raises(ValueError):
        patch_schedule(cover, 1.0)


def test_assemble_single_round_on_ellipse():
    dom = ellipse_preset()
    cover = patch_cover(dom, 0.9, 0.08)
    lab = assemble_patch_labyrinth(dom, cover, 0.2 * cover.delta)
    assert lab.kind == "patch"
    assert len(lab.collar_widths) == cover.k  # n = 1 round
    w = lab.collar_widths
    assert all(w[i] > w[i + 1] for i in range(len(w) - 1))
    assert all(x > 0 for x in w)
    # every component strictly inside the domain and inside the collar
    pts = np.vstack([[fb.center for fb in lab.components]])
    assert np.all(dom.rho(pts) < 0.0)
    assert np.all(boundary_distance(dom, pts) <= cover.eta)
    rep = audit_labyrinth(lab)
    assert rep["passed"]


def test_assemble_single_round_on_ball_is_shell_like():
    # degenerate case: on the ball the charts are isometries, so one round
    # of patch stacks is just tangent discs near the unit sphere
    dom = ball_domain(2)
    cover = patch_cover(dom, 1.0, 0.08)
    lab = assemble_patch_labyrinth(dom, cover, 0.2 * cover.delta)
    assert len(lab.collar_widths) == cover.k
    for fb in lab.components:
        # tangency to some sphere: centre direction equals the disc normal
        assert abs(fb.center @ fb.normal - np.linalg.norm(fb.center)) < 1e-9
        assert 1.0 - cover.eta <= np.linalg.norm(fb.center) < 1.0
    rep = audit_labyrinth(lab)
    assert rep["passed"]


def test_assemble_collar_floor_trips(monkeypatch):
    dom = ellipse_preset()
    cover = patch_cover(dom, 0.9, 0.08)
    monkeypatch.setattr(domains, "COLLAR_FLOOR", 1.0)
    with pytest.raises(CollarCollapseError):
        assemble_patch_labyrinth(dom, cover, 0.2 * cover.delta)


@pytest.mark.parametrize("preset", [ellipse_preset, superellipse_preset])
def test_collar_width_is_read_at_the_segment_ends(monkeypatch, preset):
    """generate --M 1.0 at seed 0: each collar width is the least boundary
    distance at the ends of its step's segments, and 65 points along each
    segment never read lower than its ends (the distance is concave)."""
    made = []
    real_map = domains._map_disc_rows_2d

    def record(*args):
        made.append(real_map(*args))
        return made[-1]

    monkeypatch.setattr(domains, "_map_disc_rows_2d", record)
    dom = preset()
    lab = assemble_patch_labyrinth(dom, patch_cover(dom, 0.9, 0.08), 1.0)
    assert len(made) == len(lab.collar_widths) > 10
    t = np.linspace(-1.0, 1.0, 65)
    for (C, N, R), width in zip(made, lab.collar_widths):
        U = R[:, None] * np.column_stack([-N[:, 1], N[:, 0]])
        assert width == boundary_distance(dom, np.vstack([C - U, C + U])).min()
        along = boundary_distance(
            dom, (C[:, None] + t[:, None] * U[:, None]).reshape(-1, 2))
        along = along.reshape(len(C), len(t))
        assert np.all(along.min(axis=1) >= along[:, [0, -1]].min(axis=1))
        assert along.min() >= width


def test_boundary_distance_accuracy():
    # the smooth preset and the quadric of the same ellipse x^2/4 + y^2 < 1
    th = np.linspace(0, 2 * np.pi, 17)
    for dom in (ellipse_preset(), ellipsoid_domain(np.diag([0.25, 1.0]))):
        for b in boundary_points(dom, np.column_stack([np.cos(th), np.sin(th)])):
            inward = -np.array([0.5 * b[0], 2.0 * b[1]])
            inward /= np.linalg.norm(inward)
            for eps in (1e-3, 1e-5):
                d = boundary_distance(dom, (b + eps * inward)[None])[0]
                assert d == pytest.approx(eps, rel=1e-3)


def test_boundary_distance_of_a_row_does_not_depend_on_its_call():
    # points just inside the ellipse, and a deep point that needs every
    # Newton projection: each row equals its one-row call bit for bit
    dom = ellipse_preset()
    pts = np.vstack([(1.0 - 1e-3) * boundary_samples(dom, 64), [0.3, 0.1]])
    batch = boundary_distance(dom, pts)
    for p, d in zip(pts, batch):
        assert d == boundary_distance(dom, p)[0]


def test_resolve_domain_takes_the_dimension():
    for dim in (2, 3, 4):
        dom = resolve_domain({"kind": "ball"}, dim)
        assert dom.dim == dim
        assert dom.rho(np.eye(dim) * 0.5).max() == pytest.approx(-0.75)
    with pytest.raises(ValueError, match="not 3-dimensional"):
        resolve_domain({"kind": "smooth", "preset": "ellipse"}, 3)


@pytest.mark.parametrize("preset", [ellipse_preset, superellipse_preset])
@pytest.mark.parametrize("count", [257, 2048])
def test_batched_boundary_roots_equal_scipy_brentq_bit_for_bit(preset, count):
    # Newton's roots against scipy's brentq (xtol 1e-14): within 1e-14
    dom = preset()
    assert np.abs(boundary_samples(dom, count)
                  - scipy_boundary_samples(dom, count)).max() <= 1e-14


@pytest.mark.parametrize("preset", [ellipse_preset, superellipse_preset])
def test_each_boundary_root_is_a_sign_change_of_rho(preset):
    dom = preset()
    X = boundary_samples(dom, 2048)
    s = np.linalg.norm(X, axis=1)
    U = X / s[:, None]
    assert np.all(dom.rho((s - 1e-12)[:, None] * U) < 0.0)
    assert np.all(dom.rho((s + 1e-12)[:, None] * U) > 0.0)
    x = X[5]
    n_out = dom.grad(x) / np.linalg.norm(dom.grad(x))
    Y = x + np.array([1e-3, 0.1, 0.7])[:, None] * np.array([-n_out[1],
                                                            n_out[0]])
    near = _boundary_near_rows(dom, Y, n_out)
    t = (near - Y) @ n_out
    assert np.all(dom.rho(Y + (t - 1e-12)[:, None] * n_out) < 0.0)
    assert np.all(dom.rho(Y + (t + 1e-12)[:, None] * n_out) > 0.0)


def test_boundary_near_equals_scipy_brentq_bit_for_bit():
    # Newton's roots against scipy's brentq (xtol 1e-14): within 1e-14
    dom = ellipse_preset()
    rng = np.random.default_rng(5)
    for th in rng.uniform(0.0, 2.0 * np.pi, 12):
        x = boundary_points(dom, np.array([[np.cos(th), np.sin(th)]]))[0]
        n_out = dom.grad(x) / np.linalg.norm(dom.grad(x))
        tau = np.array([-n_out[1], n_out[0]])
        Y = x + np.array([1e-3, 0.1, 0.7, 1.9])[:, None] * tau
        for y, got in zip(Y, _boundary_near_rows(dom, Y, n_out)):
            ref = scipy_boundary_near(dom, y, n_out)
            # NaN marks a row that found no bracket
            assert np.isnan(got).all() if ref is None \
                else np.abs(got - ref).max() <= 1e-14
    # a line that misses the domain finds no bracket
    far = np.array([10.0, 10.0])
    assert np.isnan(_boundary_near_rows(dom, far, np.array([1.0, 0.0]))).all()
    assert scipy_boundary_near(dom, far, np.array([1.0, 0.0])) is None


def test_rays_double_their_bracket_at_most_29_times():
    def disc(a):  # the disc of radius a as a general defining function
        return ConvexDomain(
            kind="smooth", dim=2, name="disc",
            rho=lambda x: np.sum(np.asarray(x) ** 2, axis=-1) / a ** 2 - 1.0,
            grad=lambda x: 2.0 * np.asarray(x) / a ** 2,
            hess=lambda x: 2.0 * np.eye(2) / a ** 2)

    rays = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    within = 0.6 * 2.0 ** 29  # reached by the 29th doubling of [0, 1]
    got = np.linalg.norm(boundary_points(disc(within), rays), axis=1)
    assert np.allclose(got, within, rtol=1e-12, atol=0.0)
    with pytest.raises(ValueError, match="unbounded along a ray"):
        boundary_points(disc(1.1 * 2.0 ** 29), rays)


def _recorded_patch_steps(monkeypatch):
    """Each step of a short ellipse patch labyrinth, recorded as the
    assembly calls it: the (schedule, dim, window) of its chart window, the (linear, offset, C, N, R) of its chart map, and the
    labyrinth."""
    from labyrinths import domains

    steps, charts = [], []
    real_discs, real_map = domains._local_patch_discs, domains._map_disc_rows_2d

    def record_discs(schedule, dim, window):
        steps.append((schedule, dim, window))
        return real_discs(schedule, dim, window)

    def record_map(*args):
        charts.append(args)
        return real_map(*args)

    monkeypatch.setattr(domains, "_local_patch_discs", record_discs)
    monkeypatch.setattr(domains, "_map_disc_rows_2d", record_map)
    dom = ellipse_preset()
    lab = assemble_patch_labyrinth(dom, patch_cover(dom, 0.9, 0.08), 0.02)
    return steps, charts, lab


def test_patch_step_makes_only_the_discs_it_keeps(monkeypatch):
    steps = _recorded_patch_steps(monkeypatch)[0]
    assert len(steps) >= 3
    # a narrow step whose nets colour 5 classes, so its m rises from 2
    narrow = schedule_from_radii(0.994, [0.9943], 2)
    assert schedule_discs(narrow, 2)[0].m == 5
    steps.append((narrow, 2, 0.12))
    assert _local_patch_discs(*steps[-1])[3][:, 1].max() == 5
    schedule, dim, window = steps[0]
    steps.append((schedule, dim, 0.0))  # an empty window
    for schedule, dim, window in steps:
        C, N, R, levels = _local_patch_discs(schedule, dim, window)
        ref = filtered_patch_discs(schedule, dim, window)
        assert len(C) == len(N) == len(R) == len(levels) == len(ref)
        for c, n, r, level, (center, normal, radius, lv) in zip(
                C, N, R, levels.tolist(), ref):
            assert np.array_equal(c, center) and np.array_equal(n, normal)
            assert r == radius and tuple(level) == lv
    assert len(_local_patch_discs(*steps[-1])[0]) == 0


@pytest.mark.parametrize("seed", [0, 3])
def test_every_patch_step_places_every_class(monkeypatch, tmp_path, seed):
    """Each step's nets fit its schedule, every class gets rows, and the
    file keeps each class that has a disc in the step's chart window (a
    small window can miss a sparse class; with the nets started on the
    chart axis, no step of this file does)."""
    from labyrinths.cli import main

    steps, windows = [], []
    real_discs, real_local = domains.schedule_discs, domains._local_patch_discs

    def record_discs(schedule, dim, net_seed=0):
        steps.append(real_discs(schedule, dim, net_seed))
        return steps[-1]

    def record_local(schedule, dim, window):
        windows.append(window)
        return real_local(schedule, dim, window)

    monkeypatch.setattr(domains, "schedule_discs", record_discs)
    monkeypatch.setattr(domains, "_local_patch_discs", record_local)
    out = tmp_path / "e.json"
    assert main(["generate", "--domain", "ellipse", "--M", "1.0", "--seed",
                 str(seed), "--out", str(out)]) == 0
    kept: dict[int, set] = {}
    for comp in json.loads(out.read_text())["components"]:
        kept.setdefault(comp["level"]["j"], set()).add(comp["level"]["k"])
    assert sorted(kept) == list(range(1, len(steps) + 1))
    assert len(windows) == len(steps)
    for step, ((schedule, shells), window) in enumerate(zip(steps, windows),
                                                        start=1):
        (C, _, r, levels, net), = shells
        m = len(net.classes)
        assert m <= schedule.m
        assert np.array_equal(np.unique(levels[:, 1]), np.arange(1, m + 1))
        inside = np.linalg.norm(C - [1.0, 0.0], axis=1) + r <= window
        assert kept[step] == set(levels[inside, 1].tolist())
    assert max(max(ks) for ks in kept.values()) > 2


def _generate_superellipse(tmp_path, seed: int) -> tuple[int, dict, dict]:
    from labyrinths.cli import main

    out = tmp_path / f"s{seed}.json"
    rc = main(["generate", "--domain", "superellipse", "--M", "1.0", "--seed",
               str(seed), "--out", str(out)])
    if rc != 0:
        return rc, {}, {}
    return rc, json.loads(out.read_text()), \
        json.loads((tmp_path / f"s{seed}.audit.json").read_text())


def test_cli_generates_a_superellipse_labyrinth(tmp_path):
    rc, doc, audit = _generate_superellipse(tmp_path, 0)
    assert rc == 0 and audit["passed"]
    assert len(doc["components"]) == 94


@pytest.mark.parametrize("seed", [2, 3, 4, 5, 6])
def test_cli_generates_a_superellipse_labyrinth_on_more_seeds(tmp_path, seed):
    # every step's nets start on its chart axis, so even the step-12 window,
    # 0.0063 wide against a disc radius of 0.0033, admits a disc
    rc, _, audit = _generate_superellipse(tmp_path, seed)
    assert rc == 0 and audit["passed"]


def test_seed_does_not_move_a_superellipse_labyrinth(tmp_path):
    assert _generate_superellipse(tmp_path, 0)[0] == 0
    assert _generate_superellipse(tmp_path, 5)[0] == 0
    for suffix in (".json", ".audit.json"):
        assert (tmp_path / f"s0{suffix}").read_bytes() \
            == (tmp_path / f"s5{suffix}").read_bytes()
    assert json.loads((tmp_path / "s5.json").read_text())["seed"] == 0


def _assert_rows_map_as_one_disc_maps(linear, offset, C, N, R):
    """Each row of the chart map equals the one-disc reference, bit for bit."""
    got = _map_disc_rows_2d(linear, offset, C, N, R)
    for i, (c, n, r) in enumerate(zip(*got)):
        ref = map_flatball_2d(FlatBall(center=C[i], normal=N[i], radius=R[i]),
                              linear, offset)
        assert np.array_equal(c, ref.center) and np.array_equal(n, ref.normal)
        assert r == ref.radius
    return got


def test_chart_row_map_equals_one_disc_map_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(13)
    for _ in range(20):  # random segments under random affine maps
        N = rng.standard_normal((30, 2))
        N /= np.linalg.norm(N, axis=1, keepdims=True)
        _assert_rows_map_as_one_disc_maps(
            rng.standard_normal((2, 2)), rng.standard_normal(2),
            rng.uniform(-2.0, 2.0, (30, 2)), N, rng.uniform(0.01, 1.0, 30))
    # tangent discs (normal along the centre): under the identity every
    # image normal already points away from the origin, under the point
    # reflection every one points towards it and is flipped
    N = rng.standard_normal((30, 2))
    N /= np.linalg.norm(N, axis=1, keepdims=True)
    C, R = rng.uniform(0.5, 1.0, (30, 1)) * N, rng.uniform(0.01, 0.1, 30)
    same = _assert_rows_map_as_one_disc_maps(np.eye(2), np.zeros(2), C, N, R)
    assert np.all(np.einsum("ij,ij->i", same[1], N) > 0.99)
    flipped = _assert_rows_map_as_one_disc_maps(-np.eye(2), np.zeros(2), C, N, R)
    assert np.array_equal(flipped[0], -C)
    assert np.all(np.einsum("ij,ij->i", flipped[1], N) < -0.99)
    # the window rows of the steps of an ellipse patch labyrinth, and the
    # flat balls the assembly made of them
    charts, lab = _recorded_patch_steps(monkeypatch)[1:]
    assert len(charts) >= 3
    made = 0
    for chart in charts:
        C, N, R = _assert_rows_map_as_one_disc_maps(*chart)
        for c, n, r, fb in zip(C, N, R, lab.components[made:]):
            assert np.array_equal(c, fb.center) and np.array_equal(n, fb.normal)
            assert r == fb.radius
        made += len(C)
    assert made == len(lab.components)


def test_patch_schedule_holds_at_most_max_patch_steps():
    cover = PatchCover(domain=ball_domain(2), centers=np.zeros((7, 2)),
                       radius=1.0, eta=0.08, delta=1.0)
    rounds = MAX_PATCH_STEPS // cover.k  # M = rounds - 1 asks for `rounds`
    assert len(patch_schedule(cover, rounds - 1.0)) == rounds * cover.k
    for M in (float(rounds), 1e9, 1e300):
        with pytest.raises(ValueError, match="patch steps exceed"):
            patch_schedule(cover, M)
