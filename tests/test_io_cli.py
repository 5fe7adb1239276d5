import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import labyrinths
from labyrinths import nets
from labyrinths.cli import main
from labyrinths.io import (
    SVG_UNIT,
    MalformedFileError,
    doc_to_labyrinth,
    export_csv,
    export_svg,
    labyrinth_to_doc,
    load_labyrinth,
    save_labyrinth,
)
from labyrinths.shells import annulus_labyrinth, build_labyrinth, make_schedule
from oracles import loop_color_net


@pytest.fixture(scope="module")
def lab():
    return build_labyrinth(make_schedule(0.5, 2, 4), dim=2, seed=0)


def test_roundtrip_is_byte_identical(lab, tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_labyrinth(lab, str(p1))
    loaded = load_labyrinth(str(p1))
    save_labyrinth(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_roundtrip_values_exact(lab, tmp_path):
    p = tmp_path / "lab.json"
    save_labyrinth(lab, str(p))
    loaded = load_labyrinth(str(p))
    assert loaded.dim == lab.dim
    assert len(loaded) == len(lab)
    for a, b in zip(lab.components, loaded.components):
        assert np.array_equal(a.center, b.center)
        assert np.array_equal(a.normal, b.normal)
        assert a.radius == b.radius
        assert a.level == b.level
    assert np.array_equal(lab.schedule.s, loaded.schedule.s)
    assert lab.schedule.a == loaded.schedule.a


def test_component_transform_is_rejected(lab, tmp_path, capsys):
    doc = labyrinth_to_doc(lab)
    assert all("transform" not in c for c in doc["components"])
    doc["components"][1]["transform"] = [[1.0, 0.0, 0.1], [0.0, 1.0, -0.2]]
    p = tmp_path / "t.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(MalformedFileError, match=r"components\[1\]\.transform"):
        load_labyrinth(str(p))
    assert run_cli("report", str(p)) == 1
    err = capsys.readouterr().err
    assert "components[1].transform" in err and "Traceback" not in err


def test_malformed_file_names_field(lab, tmp_path):
    doc = labyrinth_to_doc(lab)
    doc["components"][2]["radius"] = -1.0
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(MalformedFileError) as exc:
        load_labyrinth(str(p))
    assert "components[2]" in str(exc.value)

    doc2 = labyrinth_to_doc(lab)
    del doc2["version"]
    p2 = tmp_path / "bad2.json"
    p2.write_text(json.dumps(doc2))
    with pytest.raises(MalformedFileError) as exc2:
        load_labyrinth(str(p2))
    assert "version" in str(exc2.value)

    p3 = tmp_path / "bad3.json"
    p3.write_text("not json")
    with pytest.raises(MalformedFileError):
        load_labyrinth(str(p3))


def test_svg_export_counts_and_viewbox(lab, tmp_path):
    p = tmp_path / "lab.svg"
    info = export_svg(lab, str(p))
    text = p.read_text()
    assert text.count("<line") == len(lab)
    box = text.split('viewBox="', 1)[1].split('"', 1)[0]
    assert [float(v) for v in box.split()] == [-1000.0, -1000.0, 2000.0, 2000.0]
    assert info["strokes"] == len(lab)


def _svg_polygons(text: str, marker: str) -> list[np.ndarray]:
    """Vertices of each polygon whose tag holds `marker`, in domain units
    with y up."""
    out = []
    for line in text.splitlines():
        if line.startswith("<polygon") and marker in line:
            pts = line.split('points="', 1)[1].split('"', 1)[0].split()
            out.append(np.array([[float(v) for v in p.split(",")] for p in pts])
                       * [1.0, -1.0] / SVG_UNIT)
    return out


def test_svg_draws_a_d3_ellipsoid_as_its_shadow_around_its_discs(tmp_path):
    lab_file, svg = tmp_path / "e3.json", tmp_path / "e3.svg"
    assert run_cli("generate", "--dim", "3", "--domain", "ellipsoid", "--axes",
                   "2,1,0.5", "--J", "1", "--out", str(lab_file)) == 0
    assert run_cli("export", str(lab_file), "--svg", str(svg),
                   "--projection", "0,2") == 0
    text = svg.read_text()
    (outline,) = _svg_polygons(text, 'stroke="#555555"')
    x, z = outline.T
    assert np.abs(x ** 2 / 4.0 + z ** 2 / 0.25 - 1.0).max() < 1e-9
    # once round, counterclockwise
    turn = np.unwrap(np.arctan2(z, x))
    assert np.all(np.diff(turn) > 0.0) and turn[-1] - turn[0] < 2.0 * np.pi
    # every drawn disc point lies on the inner side of every outline edge
    discs = np.vstack(_svg_polygons(text, 'class="component"'))
    edge = np.roll(outline, -1, axis=0) - outline
    rel = discs[:, None, :] - outline[None]
    assert len(discs) > 0
    assert np.all(edge[:, 0] * rel[..., 1] - edge[:, 1] * rel[..., 0] >= 0.0)


def test_svg_draws_an_ellipsoid_files_sublevels_as_scaled_outlines(tmp_path):
    # the file stores ball coordinates, where a sublevel is the sphere of
    # radius s; in the domain it is s times the ellipsoid
    lab_file, svg = tmp_path / "e3.json", tmp_path / "e3.svg"
    assert run_cli("generate", "--dim", "3", "--domain", "ellipsoid", "--axes",
                   "2,1,0.5", "--J", "1", "--out", str(lab_file)) == 0
    assert run_cli("export", str(lab_file), "--svg", str(svg),
                   "--projection", "0,2") == 0
    text = svg.read_text()
    lab = load_labyrinth(str(lab_file))
    (outline,) = _svg_polygons(text, 'stroke="#555555"')
    curves = _svg_polygons(text, 'stroke="#dddddd"')
    levels = lab.scale * lab.schedule.sublevels.ravel()
    assert "<circle" not in text and len(curves) == len(levels) > 1
    for s, curve in zip(levels, curves):
        np.testing.assert_allclose(curve, s * outline, rtol=1e-12, atol=1e-12)
        x, z = curve.T
        assert np.all(x ** 2 / 4.0 + z ** 2 / 0.25 < 1.0)


def test_svg_rejects_high_dim_without_projection(tmp_path):
    lab3 = build_labyrinth(make_schedule(0.5, 1, 4), dim=3, seed=0)
    with pytest.raises(ValueError):
        export_svg(lab3, str(tmp_path / "x.svg"))
    info = export_svg(lab3, str(tmp_path / "x.svg"), projection=(0, 1))
    assert info["strokes"] == len(lab3)


def test_csv_row_count(lab, tmp_path):
    p = tmp_path / "lab.csv"
    rows = export_csv(lab, str(p))
    lines = p.read_text().strip().split("\n")
    assert rows == len(lab)
    assert len(lines) == len(lab) + 1
    assert lines[0].startswith("j,k,p,radius,center_0")


def run_cli(*args):
    return main(list(args))


def test_cli_generate_and_determinism(tmp_path):
    out1 = tmp_path / "l1.json"
    out2 = tmp_path / "l2.json"
    rc1 = run_cli("generate", "--dim", "2", "--domain", "ball", "--s0", "0.5",
                  "--J", "2", "--seed", "3", "--out", str(out1))
    rc2 = run_cli("generate", "--dim", "2", "--domain", "ball", "--s0", "0.5",
                  "--J", "2", "--seed", "3", "--out", str(out2))
    assert rc1 == 0 and rc2 == 0
    assert out1.read_bytes() == out2.read_bytes()


# the four inputs of the generate-cycle benchmark workload, each file's
# sha256 at seed 0
GENERATE_CYCLE = {
    "ball2": (["--dim", "2", "--domain", "ball", "--J", "3"],
              "c9ccac17ceaff5452173a6f4ae173d29f19049e441c80009419a3876b11dc828"),
    "ball3": (["--dim", "3", "--domain", "ball", "--J", "2"],
              "dbee7ca7e86ed3fdd67667c5f9d8810ef39a99aee6343284067a32038fc3ee1b"),
    "ellipsoid": (["--domain", "ellipsoid", "--axes", "2,1", "--J", "2"],
                  "8dd040d7064309413ac4b4eb139d11e2dafef052367313d475ba6bf8a8fa7c6e"),
    "ellipse": (["--domain", "ellipse", "--M", "1.0"],
                "5add2858d68be677d7d4406bf3c2ed792f79480c2e22c55eafb4932599a82cd1"),
}


@pytest.fixture(scope="module")
def generate_cycle(tmp_path_factory):
    """The four generate-cycle files at seed 0 from a cold net cache, and
    the (points, r) of every net the generates coloured, in call order."""
    out = tmp_path_factory.mktemp("generate-cycle")
    colored = []
    color_net = nets.color_net

    def record(points, r):
        colored.append((np.array(points), r))
        return color_net(points, r)

    nets._NET_CACHE.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nets, "color_net", record)
        for key, (argv, _) in GENERATE_CYCLE.items():
            assert main(["generate", *argv, "--seed", "0",
                         "--out", str(out / f"{key}.json")]) == 0
    return out, colored


def test_generate_cycle_files_are_pinned(generate_cycle):
    out, _ = generate_cycle
    for key, (_, digest) in GENERATE_CYCLE.items():
        got = hashlib.sha256((out / f"{key}.json").read_bytes()).hexdigest()
        assert got == digest, key


def test_color_net_equals_the_adjacency_list_loop_on_generate_cycle_nets(
        generate_cycle):
    _, colored = generate_cycle
    assert len(colored) == 39
    assert sum(len(points) for points, _ in colored) == 11_068
    for points, r in colored:
        want = loop_color_net(points, r)
        got = nets.color_net(points, r)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_cli_rejects_tc_violation(tmp_path, capsys):
    rc = run_cli("generate", "--t", "2", "--c", "0.3",
                 "--out", str(tmp_path / "x.json"))
    assert rc == 1
    assert "t*c < 1/2" in capsys.readouterr().err


def test_cli_verify_exit_codes(tmp_path):
    lab_file = tmp_path / "lab.json"
    save_labyrinth(build_labyrinth(None, dim=2,
                                   domain={"kind": "annulus", "inner": 0.5,
                                           "outer": 1.0}), str(lab_file))
    rc_pass = run_cli("verify", str(lab_file), "--M", "0.4", "--seeds", "1",
                      "--nodes", "6000")
    rc_fail = run_cli("verify", str(lab_file), "--M", "0.6", "--seeds", "1",
                      "--nodes", "6000")
    assert rc_pass == 0
    assert rc_fail == 2
    report = json.loads((tmp_path / "lab.report.json").read_text())
    poly = report["verification"]["best_path"]["polyline"]
    assert len(poly) >= 2  # report carries the best escape polyline


@pytest.mark.parametrize("dim, rho, J, M, nodes, best", [
    (2, (0.75, 0.875), 10, "1.0", "80000", 1.465808568218864),
    (3, (0.5, 1.0), 1, "0.4", "8000", 0.49999999999999994),
], ids=["verify-plane", "annulus-d3"])
def test_cli_verify_reports_the_pinned_best_length(tmp_path, dim, rho, J, M,
                                                   nodes, best):
    # the benchmark's planar instance and the unrotated d = 3 annulus: a
    # faster collision cull must find the very same roadmap path
    lab_file = tmp_path / "lab.json"
    save_labyrinth(annulus_labyrinth(*rho, J=J, m=2, dim=dim, seed=0),
                   str(lab_file))
    rc = run_cli("verify", str(lab_file), "--M", M, "--seeds", "1",
                 "--nodes", nodes)
    report = json.loads((tmp_path / "lab.report.json").read_text())
    assert rc == 0 and report["verification"]["best_length"] == best


def test_cli_verify_fails_when_no_path_is_found(tmp_path, lab, monkeypatch):
    import labyrinths.cli as cli

    def no_path(*args, **kwargs):
        return {"best_length": None, "best_path": None, "attempts": [],
                "upper_bound": True, "note": "stubbed empty search"}

    monkeypatch.setattr(cli, "min_escape_length", no_path)
    lab_file = tmp_path / "lab.json"
    save_labyrinth(lab, str(lab_file))
    assert run_cli("verify", str(lab_file), "--M", "0.1") == 2
    report = json.loads((tmp_path / "lab.report.json").read_text())
    assert report["passed"] is False
    assert "no escape path" in report["reason"]


# single bad budgets are USAGE_ERRORS cases; these show the check runs
# before any sampling, at the cap's edge and in a list whose first is valid
@pytest.mark.parametrize("nodes", ["1000001", "2000,1e6,4000.25"])
def test_cli_verify_rejects_node_budgets_before_sampling(tmp_path, lab,
                                                         monkeypatch, capsys,
                                                         nodes):
    import labyrinths.verifier as verifier

    def no_sampling(*args, **kwargs):
        raise AssertionError("a roadmap was built")

    monkeypatch.setattr(verifier, "build_roadmap", no_sampling)
    lab_file = tmp_path / "lab.json"
    save_labyrinth(lab, str(lab_file))
    assert run_cli("verify", str(lab_file), "--M", "0.1", "--seeds", "1",
                   "--nodes", nodes) == 1
    assert "--nodes" in capsys.readouterr().err


def test_cli_verify_holds_ellipsoid_budget_in_the_ball_frame(tmp_path):
    # semi-axes 0.5, 0.4: T = diag(2, 2.5) maps the ellipse onto the ball,
    # so a ball-frame best of about 0.607 certifies only 0.607 / 2.5 in it
    lab_file = tmp_path / "ell.json"
    assert run_cli("generate", "--domain", "ellipsoid", "--axes", "0.5,0.4",
                   "--J", "2", "--out", str(lab_file)) == 0
    verify = ("verify", str(lab_file), "--seeds", "1", "--nodes", "4000")
    assert run_cli(*verify, "--M", "0.3") == 2
    report = json.loads((tmp_path / "ell.report.json").read_text())
    assert report["budget_M"] == 0.3
    assert report["budget_ball"] == pytest.approx(0.75, rel=1e-12)
    best = report["verification"]["best_length"]
    assert 0.5 < best < 0.75 and report["audit"]["passed"]
    assert run_cli(*verify, "--M", "0.2") == 0


def test_cli_verify_holds_an_own_frame_ellipsoid_file_to_m_itself(
        tmp_path, capsys):
    # the discs of a file without `to_ball` lie in the ellipsoid's own frame
    # and are searched there, so no transfer through |T| = 2 applies; the
    # ellipsoid is the ball of radius 2, so the spheres of radius s0 and 1
    # are not its boundary and verify derives none
    lab_file = tmp_path / "own.json"
    lab = build_labyrinth(make_schedule(0.5, 1, 2), dim=2, seed=0,
                          domain={"kind": "ellipsoid",
                                  "matrix": [[0.25, 0], [0, 0.25]]})
    save_labyrinth(lab, str(lab_file))
    assert run_cli("verify", str(lab_file), "--M", "0.8", "--seeds", "1",
                   "--nodes", "4000") == 1
    assert "none derivable from the domain" in capsys.readouterr().err
    assert not (tmp_path / "own.report.json").exists()
    assert run_cli("verify", str(lab_file), "--M", "0.8", "--seeds", "1",
                   "--nodes", "4000", "--source", "0.5",
                   "--target", "1.0") == 2
    report = json.loads((tmp_path / "own.report.json").read_text())
    assert "budget_ball" not in report
    best = report["verification"]["best_length"]
    assert best < 0.8 and report["audit"]["passed"] and not report["passed"]


def test_cli_verify_transfers_a_to_ball_budget_by_the_norm_of_t(tmp_path):
    from labyrinths.domains import normalize_ellipsoid

    lab_file = tmp_path / "ell.json"
    assert run_cli("generate", "--domain", "ellipsoid", "--axes", "2,2",
                   "--J", "1", "--out", str(lab_file)) == 0
    run_cli("verify", str(lab_file), "--M", "0.8", "--seeds", "1",
            "--nodes", "2000")
    report = json.loads((tmp_path / "ell.report.json").read_text())
    norm_t = normalize_ellipsoid(np.diag([0.25, 0.25])).norm_to_ball
    assert report["budget_ball"] == norm_t * 0.8 == 0.4


def test_cli_verify_searches_an_ellipsoid_file_between_its_spheres(
        tmp_path, monkeypatch):
    # the search runs in ball coordinates from the sphere of radius s0 to
    # the unit sphere, so no roadmap node lies inside the one or outside
    # the other
    import labyrinths.verifier as verifier
    from labyrinths.domains import ellipsoid_domain, ellipsoid_labyrinth

    radii = []
    build = verifier.build_roadmap

    def recording(*args, **kwargs):
        rm = build(*args, **kwargs)
        radii.append(np.linalg.norm(rm.nodes, axis=1))
        return rm

    monkeypatch.setattr(verifier, "build_roadmap", recording)
    lab_file = tmp_path / "ell.json"
    save_labyrinth(ellipsoid_labyrinth(ellipsoid_domain(np.diag([4.0, 6.25])),
                                       make_schedule(0.5, 2, 4), seed=0),
                   str(lab_file))
    run_cli("verify", str(lab_file), "--M", "0.2", "--seeds", "1",
            "--nodes", "4000")
    assert len(radii) == 1 and len(radii[0]) == 4000
    assert np.all((radii[0] > 0.5) & (radii[0] < 1.0))


USAGE_ERRORS = [
    pytest.param(["verify", "{lab}", "--M", "0.1", "--nodes", "abc"],
                 "--nodes", id="nodes-not-a-number"),
    pytest.param(["verify", "{lab}", "--M", "0.1", "--nodes", "50"],
                 "--nodes", id="nodes-below-100"),
    pytest.param(["verify", "{lab}", "--M", "0.1", "--nodes", "1e12"],
                 "--nodes", id="nodes-huge"),
    pytest.param(["verify", "{lab}", "--M", "0.1", "--nodes", "150.5"],
                 "--nodes", id="nodes-not-integer"),
    pytest.param(["verify", "{lab}", "--M", "0.1", "--seeds", "0"],
                 "--seeds", id="seeds-zero"),
    pytest.param(["verify", "{lab}", "--M", "0.1", "--seeds", "-1"],
                 "--seeds", id="seeds-negative"),
    pytest.param(["verify", "{lab}"], "--M", id="verify-without-M"),
    pytest.param(["report", "{lab}", "--bogus"], "--bogus",
                 id="unknown-flag"),
    pytest.param(["export", "{lab}", "--svg", "{tmp}/o.svg",
                  "--projection", "a,b"], "--projection",
                 id="projection-not-axes"),
    pytest.param(["export", "{lab}", "--svg", "{tmp}/o.svg",
                  "--projection", "0,5"], "--projection",
                 id="projection-beyond-dim"),
    pytest.param(["export", "{lab}", "--svg", "{tmp}/o.svg",
                  "--path-from", "{tmp}/missing.json"], "--path-from",
                 id="path-from-missing"),
    pytest.param(["export", "{lab}", "--svg", "{tmp}/o.svg",
                  "--path-from", "{lab}"], "--path-from",
                 id="path-from-not-a-report"),
    pytest.param(["generate", "--axes", "1,x", "--domain", "ellipsoid",
                  "--out", "{tmp}/g.json"], "--axes", id="axes-not-numbers"),
    pytest.param(["generate", "--annuli", "0.5,0.75", "--Mn", "1,2",
                  "--out", "{tmp}/g.json"], "--Mn", id="budget-count"),
    pytest.param(["generate", "--dim", "1", "--out", "{tmp}/g.json"], "--dim",
                 id="dim-below-2"),
    pytest.param(["generate", "--domain", "ellipse", "--M", "nan",
                  "--out", "{tmp}/g.json"], "--M", id="budget-not-finite"),
    pytest.param(["generate", "--domain", "ellipse", "--M", "1.0", "--eta", "5",
                  "--out", "{tmp}/g.json"], "--eta", id="eta-too-large"),
    pytest.param(["generate", "--domain", "ellipse", "--M", "1.0", "--eta", "-1",
                  "--out", "{tmp}/g.json"], "--eta", id="eta-negative"),
    pytest.param(["generate", "--domain", "ellipse", "--M", "1.0",
                  "--patch-radius", "0", "--out", "{tmp}/g.json"],
                 "--patch-radius", id="patch-radius-zero"),
    pytest.param(["generate", "--domain", "ellipse", "--M", "1.0",
                  "--patch-radius", "-1", "--out", "{tmp}/g.json"],
                 "--patch-radius", id="patch-radius-negative"),
    pytest.param(["generate", "--domain", "ellipse", "--M", "1.0",
                  "--patch-radius", "nan", "--out", "{tmp}/g.json"],
                 "--patch-radius", id="patch-radius-nan"),
    pytest.param(["generate", "--m", "-1", "--out", "{tmp}/g.json"], "--m",
                 id="sublevels-negative"),
    pytest.param(["verify", "{lab}", "--M", "-1"], "--M",
                 id="verify-budget-negative"),
    pytest.param(["verify", "{lab}", "--M", "nan"], "--M",
                 id="verify-budget-nan"),
    pytest.param(["verify", "{lab}", "--M", "inf"], "--M",
                 id="verify-budget-inf"),
    pytest.param(["verify", "{lab}", "--M", "0.1", "--source", "0.6"],
                 "--target", id="source-without-target"),
    pytest.param(["verify", "{lab}", "--M", "0.1", "--source", "nan",
                  "--target", "1"], "--source", id="source-nan"),
    pytest.param(["verify", "{lab}", "--M", "0.1", "--source", "0.7",
                  "--target", "0.7"], "--source", id="source-equals-target"),
    pytest.param(["verify", "{lab}", "--M", "0.1", "--source", "0.5",
                  "--target", "1e300"], "--target", id="target-huge"),
    pytest.param(["verify", "{lab}", "--M", "0.1", "--source", "-0.5",
                  "--target", "1"], "--source", id="source-negative"),
    # search annuli that fill almost none of their sampling box
    pytest.param(["verify", "{lab}", "--M", "0.1", "--source", "0.9999999",
                  "--target", "1.0", "--seeds", "1", "--nodes", "100"],
                 "--source/--target", id="search-annulus-too-thin"),
    pytest.param(["verify", "{lab}", "--M", "0.1", "--source", "0",
                  "--target", "1e-300", "--seeds", "1", "--nodes", "100"],
                 "--source/--target", id="search-annulus-underflows"),
    pytest.param(["generate", "--annuli", "0.5,0.5001", "--Mn", "0.001",
                  "--out", "{tmp}/g.json"], "--annuli",
                 id="exhaustion-annulus-too-thin"),
    # semi-axes whose shape matrix diag(1/a^2) is singular or not finite
    *(pytest.param(["generate", "--domain", "ellipsoid", "--axes", axes,
                    "--J", "1", "--out", "{tmp}/g.json"], "--axes",
                   id=f"axes-{axes}")
      for axes in ("1e5,1", "1e6,1", "1e160,1", "1e200,1", "1e-200,1",
                   "1e-160,1")),
    pytest.param(["generate", "--dim", "12", "--J", "1", "--out", "{tmp}/g.json"],
                 "--dim", id="net-beyond-candidate-cap-dim"),
    pytest.param(["generate", "--c", "1e-9", "--J", "1", "--out", "{tmp}/g.json"],
                 "--c", id="net-beyond-candidate-cap-c"),
]


@pytest.mark.parametrize("argv, flag", USAGE_ERRORS)
def test_cli_usage_errors_exit_1_naming_the_flag(tmp_path, lab, capsys, argv,
                                                 flag):
    lab_file = tmp_path / "lab.json"
    save_labyrinth(lab, str(lab_file))
    argv = [a.format(lab=lab_file, tmp=tmp_path) for a in argv]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err
    with pytest.raises(SystemExit) as done:
        run_cli(argv[0], "--help")
    assert done.value.code == 0


def test_cli_verify_names_the_file_radii_of_a_search_annulus_too_thin(
        tmp_path, capsys):
    lab_file = tmp_path / "thin.json"
    save_labyrinth(annulus_labyrinth(0.9999, 1.0, J=1), str(lab_file))
    assert run_cli("verify", str(lab_file), "--M", "0.1", "--seeds", "1",
                   "--nodes", "100") == 1
    err = capsys.readouterr().err
    assert "the file's domain.inner/domain.outer" in err
    assert "of its sampling box" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["--dim", "12", "--J", "1"], ["--c", "1e-9", "--J", "1"],
    ["--annuli", "0.5,0.75", "--dim", "12"],
    ["--domain", "ellipsoid", "--axes", "2,1", "--c", "1e-9"],
    ["--domain", "ellipse", "--M", "1.0", "--c", "1e-9"]])
def test_cli_generate_names_a_net_beyond_the_candidate_cap_before_any_sweep(
        tmp_path, monkeypatch, capsys, argv):
    import labyrinths.nets as nets

    def no_sweep(*args, **kwargs):
        raise AssertionError("a net was swept")

    monkeypatch.setattr(nets, "farthest_point_order", no_sweep)
    assert run_cli("generate", *argv, "--out", str(tmp_path / "g.json")) == 1
    err = capsys.readouterr().err
    assert "--dim and --c" in err and "candidate budget" in err
    assert "Traceback" not in err


def test_cli_generate_names_m_and_c_when_the_class_count_keeps_growing(
        tmp_path, monkeypatch, capsys):
    import labyrinths.nets as nets

    classes = iter(range(3, 100))  # every pass needs one class more

    def one_more(points, r):
        k = next(classes)
        return [points[i::k] for i in range(k)]

    monkeypatch.setattr(nets, "color_net", one_more)
    assert run_cli("generate", "--J", "1", "--out",
                   str(tmp_path / "g.json")) == 2
    err = capsys.readouterr().err
    assert "--m" in err and "--c" in err and "Traceback" not in err
    assert not (tmp_path / "g.json").exists()


def test_cli_generate_names_M_for_a_patch_schedule_too_long_to_hold(
        tmp_path, capsys):
    start = time.perf_counter()
    assert run_cli("generate", "--domain", "ellipse", "--M", "1e9",
                   "--out", str(tmp_path / "g.json")) == 1
    assert time.perf_counter() - start < 10.0
    err = capsys.readouterr().err
    assert "--M" in err and "patch steps" in err and "Traceback" not in err
    assert not (tmp_path / "g.json").exists()


def test_cli_report_names_non_finite_radius(tmp_path, lab, capsys):
    doc = labyrinth_to_doc(lab)
    doc["components"][0]["radius"] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(doc))  # json writes the literal NaN
    assert run_cli("report", str(bad)) == 1
    err = capsys.readouterr().err
    assert "components[0]" in err and "finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("where, raw, named", [
    # tokens json reads as non-finite floats, wherever they sit
    (("schedule", "s0"), "NaN", "'schedule.s0' is not a finite number"),
    (("schedule", "tangent_radii", 0), "Infinity",
     "'schedule.tangent_radii[0]' is not a finite number"),
    (("scale",), "-Infinity", "'scale' is not a finite number"),
    (("components", 3, "center", 1), "1e999",
     "'components[3].center[1]' is not a finite number"),
    # finite schedules that break their invariants
    (("schedule", "t"), "0.9", "schedule invalid: slack factor t"),
    (("schedule", "tangent_radii"), "[0.2]", "schedule invalid"),
    (("schedule", "tangent_radii", 1), "0.5",
     "schedule invalid: tangent disc at shell 2"),
    # wrong types and shapes
    (("components", 0), "5", "components[0] invalid"),
    (("components",), "5", "field 'components' has wrong type"),
    (("components", 0, "center"), "[[1.0, 2.0, 3.0]]", "components[0] invalid"),
    (("seed",), '"x"', "field 'seed' invalid"),
    (("scale",), '"x"', "field 'scale' invalid"),
    (("collar_widths",), '"ab"', "field 'collar_widths' invalid"),
    # levels the audit would read the sublevel of (the fixture has J = 2)
    (("components", 0, "level"), "null", "field 'components[0].level'"),
    (("components", 1, "level", "j"), "9", "field 'components[1].level'"),
    # only JSON numbers: no strings, bools or fractional seeds
    (("collar_widths",), '"987"', "field 'collar_widths' invalid"),
    (("collar_widths",), '["nan"]', "field 'collar_widths' invalid"),
    (("collar_widths",), "[0.5, true]", "field 'collar_widths' invalid"),
    (("seed",), "7.9", "field 'seed' invalid"),
    (("seed",), "true", "field 'seed' invalid"),
    (("scale",), '"1"', "field 'scale' invalid"),
    (("scale",), "true", "field 'scale' invalid"),
    pytest.param(("scale",), "1" + "0" * 400,
                 "'scale' is not a finite number",
                 id="scale-beyond-the-float-range"),
    pytest.param(("components", 0, "radius"), "1" + "0" * 400,
                 "'components[0].radius' is not a finite number",
                 id="radius-beyond-the-float-range"),
    pytest.param(("schedule", "s0"), "-1" + "0" * 400,
                 "'schedule.s0' is not a finite number",
                 id="s0-beyond-the-float-range"),
])
def test_cli_report_names_corrupt_field(tmp_path, lab, capsys, where, raw,
                                        named):
    bad = tmp_path / "bad.json"
    write_corrupt(labyrinth_to_doc(lab), where, raw, bad)
    assert run_cli("report", str(bad)) == 1
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err


def write_corrupt(doc, where, raw, path):
    """`doc` with the field at `where` written as the raw JSON text `raw`."""
    holder = doc
    for key in where[:-1]:
        holder = holder[key]
    holder[where[-1]] = "@corrupt@"
    path.write_text(json.dumps(doc).replace('"@corrupt@"', raw))


# `generate --domain ellipsoid --axes 2,1 --J 2 --seed 0` as written before
# the format dropped its nets and ellipsoid norms: floats in 17 significant
# digits with zeros and integral values as integers, a `nets` block, and
# `domain.norm_to_ball` and `domain.norm_to_domain`
NETS_LAYOUT = Path(__file__).parent / "data" / "ellipsoid_with_nets.json"


def test_a_file_with_nets_loads_and_reports_as_its_regenerated_file(
        tmp_path, capsys):
    new = tmp_path / "new.json"
    assert run_cli("generate", "--domain", "ellipsoid", "--axes", "2,1",
                   "--J", "2", "--seed", "0", "--out", str(new)) == 0
    doc = json.loads(new.read_text())
    assert "nets" not in doc
    assert sorted(doc["domain"]) == ["kind", "matrix", "to_ball"]
    old_lab, new_lab = load_labyrinth(str(NETS_LAYOUT)), load_labyrinth(str(new))

    def same(a, b):  # bit for bit, the sign of zero included
        return np.asarray(a, float).tobytes() == np.asarray(b, float).tobytes()

    assert len(old_lab) == len(new_lab) > 0
    for a, b in zip(old_lab.components, new_lab.components):
        assert same(a.center, b.center) and same(a.normal, b.normal)
        assert same(a.radius, b.radius) and a.level == b.level
    for name in ("s0", "s", "m", "t", "c", "a", "tangent_radii"):
        assert same(getattr(old_lab.schedule, name),
                    getattr(new_lab.schedule, name))
    assert same(old_lab.domain["matrix"], new_lab.domain["matrix"])
    reports = []
    for path in (NETS_LAYOUT, new):
        capsys.readouterr()
        assert run_cli("report", str(path), "--out",
                       str(tmp_path / "r.json")) == 0
        reports.append((_checks(capsys),
                        json.loads((tmp_path / "r.json").read_text())))
    assert reports[0] == reports[1]


def test_resaving_an_old_ellipsoid_file_drops_its_derived_fields(tmp_path):
    old = json.loads(NETS_LAYOUT.read_text())
    assert "nets" in old
    assert {"norm_to_ball", "norm_to_domain"} <= set(old["domain"])
    resaved, new = tmp_path / "resaved.json", tmp_path / "new.json"
    save_labyrinth(load_labyrinth(str(NETS_LAYOUT)), str(resaved))
    doc = json.loads(resaved.read_text())
    assert "nets" not in doc
    assert sorted(doc["domain"]) == ["kind", "matrix", "to_ball"]
    assert all(type(x) is float for name in ("matrix", "to_ball")
               for row in doc["domain"][name] for x in row)
    # the old file's integer zeros and 17-digit floats are gone too
    assert run_cli("generate", "--domain", "ellipsoid", "--axes", "2,1",
                   "--J", "2", "--seed", "0", "--out", str(new)) == 0
    assert resaved.read_bytes() == new.read_bytes()


@pytest.mark.parametrize("where, raw, rc, named", [
    pytest.param(("nets",), "5", 0, "", id="not-a-list"),
    pytest.param(("nets", 0, "classes", 1), "[[1.0, 2.0, 3.0]]", 0, "",
                 id="class-of-wrong-dim"),
    pytest.param(("nets", 1, "classes", 1, 7, 0), "Infinity", 1,
                 "'nets[1].classes[1][7][0]' is not a finite number",
                 id="infinity"),
])
def test_an_old_files_nets_are_ignored_unless_not_finite(tmp_path, capsys,
                                                         where, raw, rc,
                                                         named):
    bad = tmp_path / "bad.json"
    write_corrupt(json.loads(NETS_LAYOUT.read_text()), where, raw, bad)
    assert run_cli("report", str(bad)) == rc
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000])
def test_cli_report_rejects_undecodable_file(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert run_cli("report", str(bad)) == 1
    assert "not valid JSON" in capsys.readouterr().err


BAD_DOMAINS = [
    ({"kind": "annulus", "outer": 1.0}, "'domain.inner'"),
    ({"kind": "annulus", "inner": 0.5, "outer": "1"}, "'domain.outer'"),
    ({"kind": "annulus", "inner": 1.0, "outer": 0.5}, "'domain.outer'"),
    ({"kind": "annulus", "inner": -0.1, "outer": 0.5}, "'domain.outer'"),
    ({"kind": "ellipsoid"}, "'domain.matrix'"),
    ({"kind": "ellipsoid", "matrix": [[1.0, 0.0]]}, "'domain.matrix'"),
    ({"kind": "ellipsoid", "matrix": [[1.0, 0.0], [0.0, "x"]]},
     "'domain.matrix'"),
    ({"kind": "ellipsoid", "matrix": [[1.0, 0.0], [0.0, -1.0]]},
     "'domain.matrix' invalid"),
    ({"kind": "ellipsoid", "matrix": [[1.0, 0.0], [0.0, 1.0]],
      "to_ball": [1.0, 0.0]}, "'domain.to_ball'"),
    ({"kind": "ellipsoid", "matrix": [[1.0, 0.0], [0.0, 1.0]],
      "to_ball": [[0.0, 0.0], [0.0, 0.0]]}, "'domain.to_ball' invalid"),
    ({"kind": "smooth", "preset": ["ellipse"]}, "'domain.preset'"),
    ({"kind": "smooth"}, "'domain.preset'"),
    ({"kind": "smooth", "preset": "torus"}, "'domain.preset'"),
    ({"kind": "cube"}, "'domain.kind'"),
    ({}, "'domain.kind'"),
]


@pytest.mark.parametrize("command", ["report", "verify", "export"])
@pytest.mark.parametrize("domain, named", BAD_DOMAINS)
def test_cli_names_corrupt_domain(tmp_path, lab, capsys, command, domain,
                                  named):
    doc = labyrinth_to_doc(lab)
    doc["domain"] = domain
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    extra = {"report": [], "verify": ["--M", "0.1"],
             "export": ["--csv", str(tmp_path / "o.csv")]}[command]
    assert run_cli(command, str(bad), *extra) == 1
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err


def test_loader_names_non_finite_annulus_radius(lab):
    doc = labyrinth_to_doc(lab)
    doc["domain"] = {"kind": "annulus", "inner": float("nan"), "outer": 1.0}
    with pytest.raises(MalformedFileError, match="'domain.inner'"):
        doc_to_labyrinth(doc)


@pytest.mark.parametrize("domain", [
    {"kind": "ball"},
    {"kind": "annulus", "inner": 0, "outer": 1.5},
    {"kind": "ellipsoid", "matrix": [[0.25, 0.0], [0.0, 1.0]],
     "to_ball": [[0.5, 0.0], [0.0, 1.0]]},
    {"kind": "smooth", "preset": "ellipse"},
])
def test_loader_accepts_well_formed_domains(lab, domain):
    doc = labyrinth_to_doc(lab)
    doc["domain"] = domain
    assert doc_to_labyrinth(doc).domain == domain


def test_loader_rejects_preset_of_other_dimension():
    doc = labyrinth_to_doc(build_labyrinth(make_schedule(0.5, 1, 4), dim=3,
                                           seed=0))
    doc["domain"] = {"kind": "smooth", "preset": "ellipse"}
    with pytest.raises(MalformedFileError, match="'domain.preset'"):
        doc_to_labyrinth(doc)


def test_cli_verify_rejects_corrupt_file(tmp_path, lab):
    doc = labyrinth_to_doc(lab)
    doc["components"][0]["radius"] = -1.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = run_cli("verify", str(bad), "--M", "0.1")
    assert rc == 1


def test_cli_export_and_report(tmp_path, lab):
    f = tmp_path / "lab.json"
    save_labyrinth(lab, str(f))
    rc = run_cli("export", str(f), "--svg", str(tmp_path / "o.svg"),
                 "--csv", str(tmp_path / "o.csv"))
    assert rc == 0
    rc2 = run_cli("report", str(f))
    assert rc2 == 0


def _checks(capsys) -> dict:
    """The report's printed checks by name: (passed, details text)."""
    lines = capsys.readouterr().out.splitlines()
    return {ln.split()[1]: (ln.startswith("PASS"), ln)
            for ln in lines if ln.startswith(("PASS ", "FAIL "))}


def test_cli_report_fails_net_covering_on_a_file_with_discs_removed(
        tmp_path, capsys):
    out = tmp_path / "ball2.json"
    assert run_cli("generate", "--dim", "2", "--J", "3", "--seed", "0",
                   "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    # delete the half of shell 3 with x > 0
    doc["components"] = [c for c in doc["components"]
                         if c["level"]["j"] != 3 or c["normal"][0] <= 0.0]
    cut = tmp_path / "cut.json"
    cut.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("report", str(out)) == 0
    assert _checks(capsys)["net-covering"][0]
    assert run_cli("report", str(cut)) == 2
    checks = _checks(capsys)
    passed, line = checks["net-covering"]
    assert not passed and "'worst_shell': 3" in line
    assert checks["net-separation"][0] and checks["pairwise-disjoint"][0]


def test_cli_report_prints_the_covering_fraction_of_a_d4_file(
        tmp_path, capsys):
    out = tmp_path / "d4.json"
    assert run_cli("generate", "--dim", "4", "--J", "1", "--out",
                   str(out)) == 0
    audit = json.loads((tmp_path / "d4.audit.json").read_text())
    cover = next(c for c in audit["checks"] if c["name"] == "net-covering")
    assert cover["passed"] and audit["passed"]
    assert cover["covering_fractions"] == [pytest.approx(0.5111, abs=5e-5)]
    # the d >= 4 nets draw their candidates from the plain Sobol stream
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "792d55ac03e4d89dda6b738b9f913b7e2f4cc0536f5f24034336f622f3420074")
    capsys.readouterr()
    assert run_cli("report", str(out)) == 0
    assert "covering_fractions" in _checks(capsys)["net-covering"][1]


def test_cli_report_names_the_hull_dimension_bound_on_a_d8_file(
        tmp_path, capsys):
    from labyrinths.geometry import FlatBall
    from labyrinths.shells import Labyrinth

    # 300 random normals in d = 8: their convex hull would have millions of
    # facets, so net-covering must fail by name instead of building it
    sched = make_schedule(0.5, 1, 2)
    rng = np.random.default_rng(0)
    U = rng.normal(size=(300, 8))
    U /= np.linalg.norm(U, axis=1)[:, None]
    r = float(sched.tangent_radii[0])
    comps = [FlatBall(center=sched.sublevels[0, i % 2] * u, normal=u,
                      radius=r, level=(1, i % 2 + 1, i // 2))
             for i, u in enumerate(U)]
    path = tmp_path / "d8.json"
    save_labyrinth(Labyrinth(dim=8, domain={"kind": "ball"},
                             components=comps, schedule=sched), str(path))
    capsys.readouterr()
    t0 = time.perf_counter()
    assert run_cli("report", str(path)) == 2
    assert time.perf_counter() - t0 < 10.0
    passed, line = _checks(capsys)["net-covering"]
    assert not passed and "d = 8 > 4" in line


def test_cli_config_file_flags_win(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"J": 1, "seed": 5, "s0": 0.5}))
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    rc = run_cli("generate", "--config", str(conf), "--out", str(out_a))
    assert rc == 0
    assert len(json.loads(out_a.read_text())["schedule"]["s"]) == 1
    rc = run_cli("generate", "--config", str(conf), "--J", "2",
                 "--out", str(out_b))
    assert rc == 0
    assert len(json.loads(out_b.read_text())["schedule"]["s"]) == 2


def test_cli_entrypoint_subprocess(tmp_path):
    out = tmp_path / "m.json"
    r = subprocess.run(
        [sys.executable, "-m", "labyrinths.cli", "generate", "--J", "1",
         "--out", str(out)], capture_output=True, text=True)
    assert r.returncode == 0
    assert out.exists()


# runs the commands (argv 2 on) in one fresh interpreter and prints which of
# the comma-separated modules in argv 1 they loaded
IMPORT_BUDGET_SCRIPT = """
import sys
from labyrinths.cli import main
watched, *commands = sys.argv[1:]
for argv in commands:
    rc = main(argv.split())
    assert rc == 0, (argv, rc)
print(" ".join(m for m in watched.split(",") if m in sys.modules))
"""


def loaded_by(tmp_path, watched, commands) -> list[str]:
    """The `watched` modules that `commands` load in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(labyrinths.__file__).parents[1]))
    r = subprocess.run([sys.executable, "-c", IMPORT_BUDGET_SCRIPT,
                        ",".join(watched), *commands],
                       cwd=tmp_path, env=env, capture_output=True, text=True,
                       timeout=300)
    assert r.returncode == 0, r.stderr
    return r.stdout.splitlines()[-1].split()


@pytest.mark.parametrize("commands", [
    [],
    ["generate --J 1 --out a.json", "report a.json",
     "export a.json --svg a.svg --csv a.csv"],
    ["generate --dim 3 --J 2 --out b.json", "report b.json"],
    ["generate --J 1 --out a.json",
     "verify a.json --M 0.4 --seeds 1 --nodes 2000"],
], ids=["import", "planar-generate-report-export", "ball3-generate-report",
        "verify"])
def test_cli_loads_scipy_stats_and_optimize_only_on_demand(tmp_path, commands):
    # the roadmap's Sobol draw is the library's own, so verify loads neither
    assert loaded_by(tmp_path, ("scipy.stats", "scipy.optimize"),
                     commands) == []


@pytest.mark.parametrize("commands, loaded", [
    ([], []),
    (["generate --J 1 --out a.json", "report a.json",
      "export a.json --svg a.svg --csv a.csv"], []),
    (["generate --dim 3 --J 2 --out b.json", "report b.json",
      "export b.json --svg b.svg --csv b.csv --projection 0,2"], []),
    (["generate --J 1 --out a.json",
      "verify a.json --M 0.4 --seeds 1 --nodes 2000"],
     ["scipy.sparse.csgraph", "scipy.sparse.linalg"]),
], ids=["import", "planar-generate-report-export",
        "ball3-generate-report-export", "verify"])
def test_cli_loads_the_dijkstra_stack_only_to_verify(tmp_path, commands,
                                                     loaded):
    # only the escape search runs Dijkstra; scipy.sparse.csgraph brings
    # scipy.sparse.linalg with it
    assert loaded_by(tmp_path, ("scipy.sparse.csgraph", "scipy.sparse.linalg"),
                     commands) == loaded


@pytest.fixture(scope="module")
def j1_doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("j1") / "j1.json"
    assert run_cli("generate", "--J", "1", "--out", str(path)) == 0
    return json.loads(path.read_text())


REMOVED = object()


def write_with(doc, where, value, path):
    """`doc` with the field at `where` set to `value` (REMOVED deletes it)."""
    doc = json.loads(json.dumps(doc))
    holder = doc
    for key in where[:-1]:
        holder = holder[key]
    if value is REMOVED:
        del holder[where[-1]]
    else:
        holder[where[-1]] = value
    path.write_text(json.dumps(doc))  # NaN and infinities as json's tokens


def command_args(command, tmp_path):
    """What each command needs besides the file to get as far as loading it."""
    return {"report": [], "verify": ["--M", "0.1"],
            "export": ["--csv", str(tmp_path / "o.csv")]}[command]


@pytest.mark.parametrize("command", ["report", "verify", "export"])
@pytest.mark.parametrize("scale", [0, 0.0, -1.0, 1e-320, 5e-324, "inf"])
def test_cli_rejects_a_scale_that_is_not_a_normal_positive_number(
        tmp_path, j1_doc, capsys, command, scale):
    bad = tmp_path / "bad.json"
    write_with(j1_doc, ("scale",), scale, bad)
    assert run_cli(command, str(bad), *command_args(command, tmp_path)) == 1
    assert "field 'scale' must be a finite normal number > 0" \
        in capsys.readouterr().err


@pytest.mark.parametrize("command", ["report", "verify", "export"])
def test_cli_rejects_a_dim_its_components_do_not_have(tmp_path, j1_doc, capsys,
                                                      command):
    bad = tmp_path / "bad.json"
    write_with(j1_doc, ("dim",), 100_000, bad)
    tracemalloc.start()
    try:
        rc = run_cli(command, str(bad), *command_args(command, tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    assert "field 'dim' is 100000, but components[0] has 2 coordinates" \
        in capsys.readouterr().err
    assert peak < 50 * 2 ** 20  # no domain of that dimension was built


def test_cli_rejects_a_dim_too_large_for_its_domain_matrix(
        tmp_path, j1_doc, capsys, monkeypatch):
    from labyrinths import domains

    def refuse(dim):
        raise AssertionError(f"a {dim}x{dim} ball domain was built")

    monkeypatch.setattr(domains, "ball_domain", refuse)
    doc = dict(j1_doc, components=[], dim=100_000)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run_cli("report", str(bad)) == 1
    err = capsys.readouterr().err
    assert "field 'dim' must be at most 1000" in err and "Traceback" not in err


def test_loader_rejects_components_of_mixed_shape(j1_doc, tmp_path):
    for where, value in [(("components", 0, "normal"), [0.0, 0.0, 1.0]),
                         (("components", 0, "center"), [[0.5, 0.0]])]:
        bad = tmp_path / "bad.json"
        write_with(j1_doc, where, value, bad)
        with pytest.raises(MalformedFileError, match=r"components\[0\] invalid"):
            load_labyrinth(str(bad))


@pytest.mark.parametrize("where, value, named", [
    (("schedule", "tangent_radii", 0), 1e200,
     "reaches the next sublevel sphere"),
    (("schedule", "s", 0), 1e308, "radii must be finite numbers"),
])
def test_loader_rejects_huge_schedule_radii_without_a_warning(
        j1_doc, tmp_path, where, value, named):
    bad = tmp_path / "bad.json"
    write_with(j1_doc, where, value, bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MalformedFileError, match=named):
            load_labyrinth(str(bad))


@pytest.mark.parametrize("command", ["report", "export", "verify"])
def test_a_huge_normal_is_named_without_a_warning(j1_doc, tmp_path, capsys,
                                                  command):
    # |n| overflows to inf; the unit-norm check must reject it quietly
    bad = tmp_path / "bad.json"
    write_with(j1_doc, ("components", -1, "normal", 0), 1e200, bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(command, str(bad),
                       *command_args(command, tmp_path)) == 1
    assert "flat ball normal must have unit norm" in capsys.readouterr().err


@pytest.mark.parametrize("where, rc, named", [
    # 1e-320 lies in (0, 1/2), but c * r_j underflows in the audit, whose
    # covering fractions over it overflowed: the loader stops it
    (("schedule", "c"), 1, "field 'schedule.c' must be at least 1e-150"),
    # a radius of 1e-320 gives discs that cover nothing: an audit FAIL
    (("schedule", "tangent_radii", 0), 2,
     "FAIL net-covering {'covering_fractions': [inf]"),
])
def test_report_of_a_subnormal_schedule_value_raises_no_warning(
        j1_doc, tmp_path, where, rc, named):
    bad = tmp_path / "bad.json"
    write_with(j1_doc, where, 1e-320, bad)
    env = dict(os.environ, PYTHONPATH=str(Path(labyrinths.__file__).parents[1]))
    r = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                        "labyrinths.cli", "report", str(bad)], cwd=tmp_path,
                       env=env, capture_output=True, text=True, timeout=300)
    assert r.returncode == rc
    assert named in r.stdout + r.stderr
    assert "Warning" not in r.stderr and "Traceback" not in r.stderr


# The fields of a J = 1 shell file, nested ones through their first or last
# entry; every one of them must exist in the generated file.
J1_FIELDS = [
    ("version",), ("dim",), ("domain",), ("domain", "kind"), ("schedule",),
    ("schedule", "s0"), ("schedule", "s"), ("schedule", "s", 0),
    ("schedule", "m"), ("schedule", "t"), ("schedule", "c"),
    ("schedule", "a"), ("schedule", "tangent_radii"),
    ("schedule", "tangent_radii", 0), ("components",), ("components", 0),
    ("components", -1), ("components", 0, "center"),
    ("components", 0, "center", 1), ("components", 0, "normal"),
    ("components", -1, "normal", 0), ("components", 0, "radius"),
    ("components", 0, "level"), ("components", 0, "level", "j"),
    ("components", -1, "level", "k"), ("components", 0, "level", "p"),
    ("seed",), ("scale",), ("kind",), ("collar_widths",),
]

HOSTILE = st.one_of(
    st.just(REMOVED), st.none(), st.booleans(), st.integers(-3, 12),
    st.sampled_from([100_000, 10 ** 12, -10 ** 12, 2 ** 63]),
    st.floats(), st.sampled_from([0.0, -0.0, 1e-320, 5e-324, 1e150, 1e200, 1e308, -1e308]),
    st.text(max_size=4), st.lists(st.floats(-2.0, 2.0), max_size=4),
    st.lists(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
             max_size=3),
    st.dictionaries(st.sampled_from(["kind", "j", "x"]),
                    st.one_of(st.integers(-1, 3), st.text(max_size=3)),
                    max_size=2),
)


def test_fuzz_fields_exist_in_a_generated_file(j1_doc):
    for where in J1_FIELDS:
        holder = j1_doc
        for key in where:
            holder = holder[key]


@settings(max_examples=100, deadline=None)
@given(where=st.sampled_from(J1_FIELDS), value=HOSTILE)
@example(where=("scale",), value=0)
@example(where=("scale",), value=1e-320)
@example(where=("dim",), value=100_000)
@example(where=("components", 0, "radius"), value=1e308)
@example(where=("components", 0, "center", 1), value=1e200)
@example(where=("scale",), value=1e308)
@example(where=("scale",), value=1e-237)
@example(where=("components", -1, "normal", 0), value=1e200)
def test_report_and_export_survive_one_changed_field(j1_doc, where, value):
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / "bad.json"
        write_with(j1_doc, where, value, bad)
        assert run_cli("report", str(bad), "--out",
                       str(Path(tmp) / "report.json")) in (0, 1, 2)
        assert run_cli("export", str(bad), "--svg", str(Path(tmp) / "o.svg"),
                       "--csv", str(Path(tmp) / "o.csv")) in (0, 1, 2)
        assert run_cli("verify", str(bad), "--M", "0.1", "--seeds", "1",
                       "--nodes", "300", "--report-out",
                       str(Path(tmp) / "verify.json")) in (0, 1, 2)
