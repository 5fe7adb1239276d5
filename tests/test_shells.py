from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labyrinths import nets
from labyrinths.geometry import disc_rim_points, disc_rows, pairs_disc_disc_distance
from labyrinths.shells import (
    DegenerateScheduleError,
    ExhaustionPlan,
    IntegrityError,
    Labyrinth,
    annulus_labyrinth,
    build_labyrinth,
    check_constants,
    compute_tangent_radius_constant,
    empty_labyrinth,
    make_schedule,
    schedule_from_radii,
    shell_discs,
    shell_net_separation,
    sqrt_gap_partial_sums,
    truncate,
)
from oracles import cold_shell_build


def test_schedule_values_j1_m2():
    s = make_schedule(0.5, 1, 2)
    assert s.s[0] == pytest.approx(0.75, abs=1e-15)
    assert s.sublevels[0, 0] == pytest.approx(0.5 + 0.25 / 3, abs=1e-12)
    assert s.sublevels[0, 1] == pytest.approx(0.5 + 0.5 / 3, abs=1e-12)


def test_schedule_rejects_tc_constraint():
    with pytest.raises(ValueError):
        make_schedule(0.5, 2, 2, t=2.0, c=0.3)  # t*c = 0.6
    with pytest.raises(ValueError):
        make_schedule(0.5, 2, 2, t=0.9, c=0.4)  # t must exceed 1
    with pytest.raises(ValueError):
        make_schedule(1.2, 2, 2)


@pytest.mark.parametrize("s0, t, c, rule", [
    (0.0, 1.05, 0.45, "s0"), (0.5, 1.0, 0.45, "slack factor t"),
    (0.5, float("nan"), 0.45, "slack factor t"),
    (0.5, 1.05, 0.5, "covering fraction c"), (0.5, 1.2, 0.45, "t\\*c"),
])
def test_check_constants_names_the_rule(s0, t, c, rule):
    with pytest.raises(ValueError, match=rule):
        check_constants(s0, t, c)
    sched = make_schedule(0.5, 2, 2)
    sched.s0, sched.t, sched.c = s0, t, c
    with pytest.raises(ValueError, match=rule):
        sched.validate()


def test_validate_names_the_first_disc_that_reaches_the_next_sublevel():
    sched = make_schedule(0.5, 3, 2)
    sched.tangent_radii = sched.tangent_radii * np.array([1.0, 3.0, 3.0])
    with pytest.raises(ValueError, match="shell 2 sublevel 1 reaches"):
        sched.validate()
    sched.tangent_radii = sched.tangent_radii[:2]
    with pytest.raises(ValueError, match="one tangent radius per shell"):
        sched.validate()


def test_partial_sums_frozen_values():
    s1 = make_schedule(0.5, 1, 2)
    s2 = make_schedule(0.5, 2, 2)
    assert sqrt_gap_partial_sums(s1)[0] == pytest.approx(0.5, abs=1e-12)
    assert sqrt_gap_partial_sums(s2)[1] == pytest.approx(0.78868, abs=1e-5)


def test_tangent_radius_constant_frozen():
    s = make_schedule(0.5, 1, 2)
    # independent evaluation of the defining formula
    lvls = [0.5 + 0.25 / 3, 0.5 + 0.5 / 3, 0.75]
    ratios = [(lvls[i + 1] ** 2 - lvls[i] ** 2) / 0.25 for i in range(2)]
    expect = 0.9 * np.sqrt(min(ratios))
    assert s.a == pytest.approx(expect, abs=1e-12)
    assert s.a == pytest.approx(0.5809, abs=1e-4)


def test_tangent_radius_constant_m1():
    s = make_schedule(0.5, 1, 1)
    lvl = 0.5 + 0.125
    expect = 0.9 * np.sqrt((0.75 ** 2 - lvl ** 2) / 0.25)
    assert s.a == pytest.approx(expect, abs=1e-12)


def test_degenerate_schedule_error():
    with pytest.raises(DegenerateScheduleError):
        compute_tangent_radius_constant(0.5, np.array([0.5]), 2)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.1, 0.9), st.integers(1, 6), st.integers(1, 5))
def test_schedule_disc_reach_invariant(s0, J, m):
    sched = make_schedule(s0, J, m)
    for j in range(1, J + 1):
        r_j = sched.tangent_radii[j - 1]
        for k in range(1, m + 1):
            s_jk = sched.sublevels[j - 1, k - 1]
            nxt = sched.sublevels[j - 1, k] if k < m else sched.s[j - 1]
            assert sched.above[j - 1, k - 1] == nxt
            assert s_jk ** 2 + r_j ** 2 < nxt ** 2


def test_build_shell_tangency_and_separation():
    sched = make_schedule(0.5, 2, 4)
    C, N, r_1, levels, _ = shell_discs(sched, 1, dim=2, seed=0)
    assert r_1 == sched.tangent_radii[0]
    assert np.all(levels[:, 0] == 1)
    for c, n, k in zip(C, N, levels[:, 1]):
        s_jk = sched.sublevels[0, k - 1]
        assert c @ n == pytest.approx(s_jk, abs=1e-12)
        assert np.linalg.norm(c) == pytest.approx(s_jk, abs=1e-12)
    R = np.full(len(C), r_1)
    for k in np.unique(levels[:, 1]):
        group = np.flatnonzero(levels[:, 1] == k)
        i, j = group[np.array(np.triu_indices(len(group), 1))]
        gap = np.linalg.norm(C[i] - C[j], axis=1)
        assert np.all(gap >= sched.sublevels[0, k - 1] * 2 * sched.t * r_1
                      - 1e-12)
        assert np.all(pairs_disc_disc_distance(C[i], N[i], R[i],
                                               C[j], N[j], R[j]) > 0)


def test_shell_discs_refuses_a_net_with_more_classes_than_sublevels():
    # a schedule with fewer sublevels than the shell's colouring has classes
    # cannot place every class; truncating would leave the shell uncovered
    sched = make_schedule(0.5, 2, 1)
    net = nets.build_separated_families(2, shell_net_separation(sched, 2),
                                        sched.c, seed=0, target_m=1)
    assert net.m > sched.m
    with pytest.raises(IntegrityError, match=r"^shell 2: its net has "
                       rf"{net.m} classes"):
        shell_discs(sched, 2, dim=2, seed=0)


def test_build_shell_scaled_covering():
    sched = make_schedule(0.5, 2, 4)
    *_, net = shell_discs(sched, 1, dim=2, seed=0)
    # the scaled union inherits the covering property of the unit net
    from labyrinths.nets import candidate_resolution, covering_radius

    r_1 = float(sched.tangent_radii[0])
    cov_unit = covering_radius(net.points, 2)
    bound = net.c * 2 * sched.t * r_1 / sched.radius_below(1)
    assert cov_unit <= bound + candidate_resolution(2, bound)


def test_build_labyrinth_desk_run():
    lab = build_labyrinth(make_schedule(0.5, 3, 5), dim=2, seed=0)
    assert 30 <= len(lab) <= 300
    # component count bookkeeping
    total = sum(len(cls) for net in lab.nets for cls in net.classes[:lab.schedule.m])
    assert len(lab) == total
    # lexicographic ordering of level tags
    levels = [fb.level for fb in lab.components]
    assert levels == sorted(levels)


def test_build_labyrinth_empty():
    lab = empty_labyrinth(2)
    assert lab.is_empty
    lab2 = build_labyrinth(None, dim=2)
    assert lab2.is_empty


def test_build_labyrinth_deterministic():
    a = build_labyrinth(make_schedule(0.5, 2, 3), dim=2, seed=4)
    b = build_labyrinth(make_schedule(0.5, 2, 3), dim=2, seed=4)
    assert len(a) == len(b)
    for x, y in zip(a.components, b.components):
        assert np.array_equal(x.center, y.center)
        assert np.array_equal(x.normal, y.normal)
        assert x.radius == y.radius


def test_truncate_identity_and_clearance():
    lab = build_labyrinth(make_schedule(0.5, 3, 4), dim=2, seed=1)
    full, clear0 = truncate(lab, 1, 3)
    assert len(full) == len(lab)
    assert clear0 == pytest.approx(0.5)
    tail, clear = truncate(lab, 2, 3)
    assert clear == pytest.approx(lab.schedule.s[0])
    assert all(np.linalg.norm(fb.center) > clear for fb in tail.components)
    with pytest.raises(ValueError):
        truncate(lab, 0, 2)
    with pytest.raises(ValueError):
        truncate(lab, 3, 2)


def test_truncated_tail_audits_and_round_trips(tmp_path):
    from labyrinths.io import load_labyrinth, save_labyrinth
    from labyrinths.verifier import audit_labyrinth

    lab = build_labyrinth(make_schedule(0.5, 3, 4), dim=2, seed=1)
    tail, _ = truncate(lab, 2, 3)
    # parent shells 2 and 3 are shells 1 and 2 of the kept schedule
    assert sorted({fb.level[0] for fb in tail.components}) == [1, 2]
    assert np.array_equal(tail.schedule.sublevels, lab.schedule.sublevels[1:])
    assert audit_labyrinth(tail)["passed"]
    first, again = tmp_path / "tail.json", tmp_path / "again.json"
    save_labyrinth(tail, str(first))
    save_labyrinth(load_labyrinth(str(first)), str(again))
    assert first.read_bytes() == again.read_bytes()


def test_truncate_tail_separates_from_inner_ball():
    from labyrinths.geometry import separating_hyperplane

    lab = build_labyrinth(make_schedule(0.5, 3, 4), dim=2, seed=1)
    tail, clear = truncate(lab, 2, 3)
    theta = 2 * np.pi * np.arange(24) / 24
    ball_samples = 0.5 * np.column_stack([np.cos(theta), np.sin(theta)])
    ball_samples = np.vstack([ball_samples, np.zeros(2)])
    # the LP sampling of each disc: its rim points and its centre
    C, N, R = disc_rows(tail.components[:10])
    for own in np.concatenate([disc_rim_points(C, N, R, 2), C[:, None]], axis=1):
        h = separating_hyperplane(own, ball_samples, margin=1e-6)
        assert h is not None


def test_truncate_near_boundary_containment():
    lab = build_labyrinth(make_schedule(0.5, 4, 3), dim=2, seed=0)
    tail, clear = truncate(lab, 4, 4)
    eps = 1.0 - lab.schedule.s[2]
    rims = disc_rim_points(*disc_rows(tail.components), 2)
    assert np.linalg.norm(rims, axis=2).min() >= 1.0 - eps - 1e-12


def test_divergence_lower_bound_pure_arithmetic():
    for s0 in (0.3, 0.5, 0.8):
        j = np.arange(1, 10 ** 4 + 1)
        gaps = (1.0 - s0) / (j * (j + 1))
        sums = np.cumsum(np.sqrt(gaps))
        target = 0.4 * np.sqrt(1.0 - s0) * np.log(j + 1.0)
        assert np.all(sums > target)


def test_exhaustion_plan_validation():
    with pytest.raises(ValueError):
        ExhaustionPlan(rho=np.array([0.5, 0.4]), budgets=np.array([1.0]))
    with pytest.raises(ValueError):
        ExhaustionPlan(rho=np.array([0.5, 0.8]), budgets=np.array([1.0, 2.0]))
    plan = ExhaustionPlan(rho=np.array([0.5, 0.75]), budgets=np.array([0.0]))
    assert plan.rho[1] == 0.75


def test_exhaustion_zero_budget_single_shell():
    from labyrinths.shells import exhaustion_labyrinth

    plan = ExhaustionPlan(rho=np.array([0.5, 0.75]), budgets=np.array([0.0]))
    out = exhaustion_labyrinth(plan, dim=2, seed=0)
    assert len(out) == 1
    assert out[0]["shells"] == 1
    assert out[0]["report"]["best_length"] is not None
    assert out[0]["report"]["best_length"] > 0.0
    lab = out[0]["labyrinth"]
    norms = np.array([np.linalg.norm(fb.center) for fb in lab.components])
    assert np.all(norms > 0.5) and np.all(norms < 0.75)


def test_annulus_labyrinth_containment():
    lab = annulus_labyrinth(0.6, 0.9, 3, 2, dim=2, seed=0)
    C, N, R = disc_rows(lab.components)
    r = np.linalg.norm(np.concatenate([disc_rim_points(C, N, R, 2),
                                       C[:, None]], axis=1), axis=2)
    assert np.all(r > 0.6) and np.all(r < 0.9)


def test_d3_shell_audit_with_witnesses():
    from labyrinths.verifier import audit_labyrinth

    lab = build_labyrinth(make_schedule(0.55, 1, 2), dim=3, seed=0)
    rep = audit_labyrinth(lab)
    assert rep["passed"]
    lex = next(c for c in rep["checks"]
               if c["name"] == "lex-hyperplane-witnesses")
    assert lex["passed"] and lex["worst_margin"] >= 1e-6


def test_exhaustion_nontrivial_budget_forces_extra_shells():
    # a budget above the radial width forces genuinely non-radial escapes,
    # which a single shell cannot deliver
    from labyrinths.shells import exhaustion_labyrinth
    from labyrinths.verifier import EffortBudget

    plan = ExhaustionPlan(rho=np.array([0.5, 0.75]), budgets=np.array([0.4]))
    light = EffortBudget(seeds=(0, 1), node_budgets=(20_000,),
                         shortcut_rounds=200)
    out = exhaustion_labyrinth(plan, dim=2, seed=0, effort=light,
                               search_effort=EffortBudget(
                                   seeds=(0,), node_budgets=(16_000,),
                                   shortcut_rounds=150))
    assert out[0]["shells"] >= 2
    assert out[0]["report"]["best_length"] > 0.4


def _assert_matches_cold_build(lab, dim, seed, scale=1.0):
    comps, nets = cold_shell_build(lab.schedule, dim, seed, scale)
    assert len(lab.components) == len(comps)
    for fb, (center, normal, radius, level) in zip(lab.components, comps):
        assert np.array_equal(fb.center, center)
        assert np.array_equal(fb.normal, normal)
        assert fb.radius == radius and fb.level == level
    assert len(lab.nets) == len(nets)
    for got, ref in zip(lab.nets, nets):
        assert (got.r, got.c, got.m) == (ref.r, ref.c, ref.m)
        assert len(got.classes) == len(ref.classes)
        assert all(np.array_equal(a, b) for a, b in zip(got.classes, ref.classes))


@pytest.mark.parametrize("dim, J, scale", [(2, 10, 1.25), (3, 1, 0.875)])
def test_a_scaled_build_is_the_unit_build_scaled_disc_by_disc(dim, J, scale):
    # the scaled rows are the same IEEE products as a scaled copy of each
    # unit disc, so the files a scaled build writes do not move
    sched = make_schedule(0.5, J, 2)
    want = [replace(fb, center=scale * fb.center, radius=scale * fb.radius)
            for fb in build_labyrinth(sched, dim, seed=2).components]
    got = build_labyrinth(sched, dim, seed=2, scale=scale).components
    assert len(got) == len(want) > 0
    for a, b in zip(got, want):
        assert a.center.tobytes() == b.center.tobytes()
        assert a.normal.tobytes() == b.normal.tobytes()
        assert type(a.radius) is float and a.radius == b.radius
        assert a.level == b.level


def _counting_sweeps(monkeypatch):
    """Cold net caches, and a counter on the sweep the nets run."""
    monkeypatch.setattr(nets, "_NET_CACHE", {})
    calls = []
    sweep = nets.farthest_point_order

    def counted(*args, **kwargs):
        calls.append(kwargs.get("stop_dist"))
        return sweep(*args, **kwargs)

    monkeypatch.setattr(nets, "farthest_point_order", counted)
    return calls


def test_annulus_build_sweeps_once_finest_net_first(monkeypatch):
    calls = _counting_sweeps(monkeypatch)
    lab = annulus_labyrinth(0.5, 1.0, J=3, m=8, dim=3)  # m: no rebuild
    assert len(calls) == 1
    seps = [shell_net_separation(lab.schedule, j) for j in range(1, 4)]
    assert calls[0] == lab.schedule.c * min(seps) * (1.0 - 1e-12)
    _assert_matches_cold_build(lab, 3, 0)
    # planar nets come from the closed form: no sweep at all
    calls.clear()
    lab = annulus_labyrinth(0.75, 0.875, J=10, m=2)
    _assert_matches_cold_build(lab, 2, 0, scale=0.875)
    assert calls == []


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("dim, J", [(2, 3), (3, 2)])
def test_the_shells_nets_decide_the_class_count(monkeypatch, dim, J, seed):
    # generate's ball schedule from m = 2: the rebuilds stop where no
    # shell's own colouring needs more classes than the schedule has
    _counting_sweeps(monkeypatch)
    lab = build_labyrinth(make_schedule(0.5, J, 2), dim=dim, seed=seed)
    assert lab.schedule.m == max(net.m for net in lab.nets)
    own = [nets.build_separated_families(
        dim, shell_net_separation(lab.schedule, j), lab.schedule.c,
        seed=seed).m for j in range(1, J + 1)]
    assert max(own) <= lab.schedule.m


@pytest.mark.parametrize("dim, J", [(2, 3), (3, 2)])
def test_ball_build_matches_shell_by_shell_cold_build(monkeypatch, dim, J):
    _counting_sweeps(monkeypatch)
    lab = build_labyrinth(make_schedule(0.5, J, 2), dim=dim, seed=1)
    _assert_matches_cold_build(lab, dim, 1)
