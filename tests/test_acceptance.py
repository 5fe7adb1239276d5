"""Acceptance gate: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s`.  Every criterion carries
its runtime budget; the clocks are asserted, not advisory.
"""

import time

import numpy as np
import pytest
from scipy.spatial import cKDTree

from labyrinths.nets import (
    _NET_CACHE,
    build_separated_families,
    candidate_resolution,
    covering_radius,
)
from labyrinths.shells import (
    ExhaustionPlan,
    build_labyrinth,
    exhaustion_labyrinth,
    make_schedule,
)
from labyrinths.verifier import EffortBudget, audit_labyrinth, min_escape_length

from oracles import grid_shortest_path


def report(name: str, passed: bool, detail: str, elapsed: float,
           budget: float) -> None:
    status = "PASS" if passed and elapsed < budget else "FAIL"
    print(f"{status} {name}: {detail} [{elapsed:.1f}s / budget {budget:.0f}s]",
          flush=True)
    assert passed, f"{name}: {detail}"
    assert elapsed < budget, f"{name} exceeded runtime budget: {elapsed:.1f}s"


def test_criterion_1_separated_families_suite():
    t0 = time.time()
    _NET_CACHE.clear()
    c = 0.45
    scales = (0.1, 0.2, 0.4)
    details = []
    ok = True
    for d in (2, 3):
        # one class count m for every scale: the largest any scale's
        # colouring needs, the others padded up to it
        own = [build_separated_families(d, r, c, seed=0).m for r in scales]
        m = max(own)
        for r in scales:
            net = build_separated_families(d, r, c, seed=0, target_m=m)
            ok &= net.m == m
            for cls in net.classes:
                if len(cls) > 1:
                    dd, _ = cKDTree(cls).query(cls, k=2)
                    ok &= bool(dd[:, 1].min() >= r)  # exact separation
            cov = covering_radius(net.points, d)
            ok &= bool(cov <= c * r + candidate_resolution(d, c * r))
        ok &= bool(m <= (1 + 2 / c) ** (d - 1) * 3 ** d)
        details.append(f"d={d}: m={m} (own counts {own})")
    report("criterion-1 separated-families", ok, "; ".join(details),
           time.time() - t0, 30.0)


def test_criterion_2_shell_construction_suite():
    t0 = time.time()
    lab = build_labyrinth(make_schedule(0.5, 3, 5), dim=2, seed=0)
    rep = audit_labyrinth(lab)
    by_name = {c["name"]: c for c in rep["checks"]}
    clearance = by_name["next-sublevel-clearance"]
    disjoint = by_name["pairwise-disjoint"]
    lex = by_name["lex-hyperplane-witnesses"]
    ok = clearance["passed"] and clearance["min_margin"] > 1e-9 \
        and disjoint["passed"] and disjoint["min_distance"] > 0.0 \
        and lex["passed"] and lex["worst_margin"] >= 1e-6
    detail = (f"{len(lab)} components, clearance {clearance['min_margin']:.2e}, "
              f"min pair distance {disjoint['min_distance']:.2e}, "
              f"worst lex margin {lex['worst_margin']:.2e}")
    report("criterion-2 shell-construction", ok, detail, time.time() - t0, 120.0)


def test_criterion_3_verifier_calibration():
    from labyrinths.geometry import FlatBall
    from labyrinths.shells import Labyrinth, empty_labyrinth

    t0 = time.time()
    effort = EffortBudget(seeds=(0, 1), node_budgets=(8000,),
                          shortcut_rounds=200)
    empty = empty_labyrinth(2, {"kind": "annulus", "inner": 0.5, "outer": 1.0})
    r1 = min_escape_length(empty, {"kind": "sphere", "radius": 0.5},
                           {"kind": "sphere", "radius": 1.0}, effort)
    ok1 = abs(r1["best_length"] - 0.5) <= 0.02 * 0.5

    single = Labyrinth(
        dim=2, domain={"kind": "box", "lo": [-0.2, -0.6], "hi": [1.2, 0.6]},
        components=[FlatBall(center=np.array([0.5, 0.0]),
                             normal=np.array([1.0, 0.0]), radius=0.2)])
    r2 = min_escape_length(single, {"kind": "point", "coords": [0.0, 0.0]},
                           {"kind": "point", "coords": [1.0, 0.0]}, effort)
    expect = 2.0 * np.hypot(0.5, 0.2)
    oracle = grid_shortest_path(
        [(np.array([0.5, -0.2]), np.array([0.5, 0.2]))],
        (0.0, 0.0), (1.0, 0.0), step=1.0 / 512,
        lo=(-0.05, -0.35), hi=(1.05, 0.35))
    ok2 = abs(r2["best_length"] - expect) <= 0.02 * expect
    ok3 = abs(r2["best_length"] - oracle) <= 0.02 * oracle
    detail = (f"radial {r1['best_length']:.4f} vs 0.5; obstacle "
              f"{r2['best_length']:.5f} vs {expect:.5f} (grid oracle "
              f"{oracle:.5f})")
    report("criterion-3 verifier-calibration", ok1 and ok2 and ok3, detail,
           time.time() - t0, 60.0)


def test_criterion_5_schedule_divergence():
    t0 = time.time()
    ok = True
    for s0 in (0.25, 0.5, 0.75):
        j = np.arange(1, 10 ** 4 + 1)
        sums = np.cumsum(np.sqrt((1.0 - s0) / (j * (j + 1))))
        ok &= bool(np.all(sums > 0.4 * np.sqrt(1.0 - s0) * np.log(j + 1.0)))
    report("criterion-5 schedule-divergence", ok,
           "partial sums clear 0.4 sqrt(1-s0) log(J+1) up to J=10^4",
           time.time() - t0, 1.0)


def test_criterion_6_patch_cover_suite():
    from labyrinths.domains import (
        assemble_patch_labyrinth,
        ellipse_preset,
        measure_delta,
        patch_cover,
        patch_schedule,
    )

    t0 = time.time()
    dom = ellipse_preset()
    cover = patch_cover(dom, 0.9, 0.08)
    d10 = measure_delta(cover, 10)
    ok_delta = d10 is not None and abs(d10 - cover.delta) <= 0.1 * cover.delta
    M = 1.0
    seq = patch_schedule(cover, M)
    n = len(seq) // cover.k
    ok_n = n == int(np.floor(M / cover.delta)) + 1 and n * cover.delta > M
    lab = assemble_patch_labyrinth(dom, cover, M)
    w = lab.collar_widths
    ok_w = all(w[i] > w[i + 1] for i in range(len(w) - 1)) and w[-1] > 0.0
    rep = audit_labyrinth(lab)
    detail = (f"k={cover.k} delta={cover.delta:.4f} (10x remeasure "
              f"{d10:.4f}), n={n}, {len(lab)} components, final collar "
              f"{w[-1]:.2e}, audit={'pass' if rep['passed'] else 'fail'}")
    report("criterion-6 patch-cover", ok_delta and ok_n and ok_w
           and rep["passed"], detail, time.time() - t0, 300.0)


def test_criterion_7_generate_determinism(tmp_path):
    from labyrinths.cli import main

    t0 = time.time()
    args = ["generate", "--dim", "2", "--domain", "ball", "--s0", "0.5",
            "--J", "3", "--seed", "0"]
    rc1 = main(args + ["--out", str(tmp_path / "a.json")])
    rc2 = main(args + ["--out", str(tmp_path / "b.json")])
    same = (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    report("criterion-7 determinism", rc1 == 0 and rc2 == 0 and same,
           "two runs byte-identical", time.time() - t0, 120.0)


def test_criterion_4_headline_exhaustion():
    t0 = time.time()
    plan = ExhaustionPlan(rho=np.array([0.5, 0.75, 0.875]),
                          budgets=np.array([1.0, 1.0]))
    effort = EffortBudget(seeds=(0, 1, 2, 3), node_budgets=(80_000,))
    results = exhaustion_labyrinth(plan, dim=2, seed=0, effort=effort)
    ok = len(results) == 2
    details = []
    for rec in results:
        best = rec["report"]["best_length"]
        ok &= best is not None and best > rec["budget"]
        lab = rec["labyrinth"]
        norms = np.array([np.linalg.norm(fb.center) for fb in lab.components])
        ok &= bool(np.all(norms > lab.domain["inner"])
                   and np.all(norms < lab.domain["outer"]))
        details.append(f"({lab.domain['inner']},{lab.domain['outer']}): "
                       f"J={rec['shells']}, best={best and round(best, 4)} "
                       f"> M={rec['budget']}")
    report("criterion-4 headline-exhaustion", ok, "; ".join(details),
           time.time() - t0, 600.0)
