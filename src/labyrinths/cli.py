"""Command line front end: generate, verify, export, report.

Exit codes: 0 success, 1 usage or input error (the message names the flag,
field or constraint), 2 verification or audit failure.  Parse errors exit
1 too, never with argparse's 2 or a traceback; `--help` exits 0.  A JSON
config file can seed any flag; explicit flags win on conflict.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .config import DEFAULT_C, DEFAULT_T
from .domains import (
    PRESETS,
    CollarCollapseError,
    CoverageError,
    assemble_patch_labyrinth,
    ellipsoid_domain,
    ellipsoid_labyrinth,
    normalize_ellipsoid,
    patch_cover,
    patch_schedule,
)
from .io import (
    MAX_COORDINATE,
    MalformedFileError,
    export_csv,
    export_svg,
    load_labyrinth,
    save_labyrinth,
    save_report,
)
from .nets import NetBudgetError
from .shells import (
    ExhaustionPlan,
    ShellBudgetError,
    build_labyrinth,
    check_constants,
    exhaustion_labyrinth,
    make_schedule,
)
from .verifier import (
    MAX_NODE_BUDGET,
    MIN_NODE_BUDGET,
    EffortBudget,
    RoadmapBudgetError,
    audit_labyrinth,
    min_escape_length,
)


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser whose errors are usage errors (exit 1)."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _float_list(text: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        vals = ()
    if not vals or not np.all(np.isfinite(vals)):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated finite numbers, got {text!r}")
    return vals


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="labyrinths", allow_abbrev=False)
    top.add_argument("--config", help="JSON config file; flags win on conflict")
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="build a labyrinth and audit it")
    gen.add_argument("--dim", type=int, default=2)
    gen.add_argument("--domain", default="ball",
                     choices=["ball", "ellipsoid", "ellipse", "superellipse"])
    gen.add_argument("--axes", type=_float_list, default=None,
                     help="ellipsoid semi-axes, comma separated")
    gen.add_argument("--s0", type=float, default=0.5)
    gen.add_argument("--J", type=int, default=3)
    gen.add_argument("--m", type=int, default=0,
                     help="sublevels per shell; 0 derives it from the nets")
    gen.add_argument("--t", type=float, default=DEFAULT_T)
    gen.add_argument("--c", type=float, default=DEFAULT_C)
    gen.add_argument("--M", type=float, default=None,
                     help="escape budget (drives smooth-domain schedules)")
    gen.add_argument("--Mn", type=_float_list, default=None,
                     help="per-annulus budgets, comma separated")
    gen.add_argument("--annuli", type=_float_list, default=None,
                     help="exhaustion radii, comma separated")
    gen.add_argument("--patch-radius", type=float, default=0.9)
    gen.add_argument("--eta", type=float, default=0.08)
    gen.add_argument("--seed", type=int, default=0,
                     help="turns the nets; a smooth-domain labyrinth starts "
                     "every step's nets on its chart axis and records seed 0")
    gen.add_argument("--out", default="labyrinth.json")
    gen.add_argument("--audit-out", default=None)

    ver = sub.add_parser("verify", help="escape search plus audit of a file")
    ver.add_argument("file")
    ver.add_argument("--M", type=float, required=True)
    ver.add_argument("--seeds", type=int, default=4)
    ver.add_argument("--nodes", type=_float_list, default=None,
                     help=f"node budgets (whole numbers in [{MIN_NODE_BUDGET}, "
                     f"{MAX_NODE_BUDGET}]), comma separated")
    ver.add_argument("--source", type=float, default=None,
                     help="source sphere radius (defaults from the domain)")
    ver.add_argument("--target", type=float, default=None)
    ver.add_argument("--report-out", default=None)

    exp = sub.add_parser("export", help="figure or table from a labyrinth file")
    exp.add_argument("file")
    exp.add_argument("--svg", default=None)
    exp.add_argument("--csv", default=None)
    exp.add_argument("--path-from", default=None,
                     help="verification report whose best path to overlay")
    exp.add_argument("--projection", type=_float_list, default=None,
                     help="axis pair for dim > 2, e.g. 0,1")

    rep = sub.add_parser("report", help="run the structural audit and print it")
    rep.add_argument("file")
    rep.add_argument("--out", default=None)
    return top


def _apply_config(argv: list[str]) -> list[str]:
    """Inject config-file values as defaults; explicit flags still win."""
    probe = _Parser(add_help=False, allow_abbrev=False)
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return argv
    try:
        with open(known.config, "r", encoding="utf-8") as f:
            conf = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"config file unusable: {exc}") from exc
    if not isinstance(conf, dict):
        raise UsageError("config file must hold a JSON object")
    # drop --config and its value; subparsers never see it
    out = [a for i, a in enumerate(argv) if a != "--config"
           and not a.startswith("--config=")
           and not (i and argv[i - 1] == "--config")]
    present = set(a.split("=")[0] for a in out if a.startswith("--"))
    insert_at = 1 if out and not out[0].startswith("-") else 0
    for key, val in conf.items():
        flag = f"--{key}"
        if flag in present or key == "config":
            continue
        out[insert_at:insert_at] = [flag, str(val)]
    return out


def _check_generate_args(args):
    """Every constraint on the generate flags but --M, before any work;
    returns the ellipsoid of --axes, or None for the other domains."""
    if args.dim < 2:
        raise UsageError("constraint violated: --dim >= 2")
    try:
        check_constants(args.s0, args.t, args.c)
    except ValueError as exc:
        raise UsageError(f"constraint violated: {exc}") from exc
    if args.J < 1:
        raise UsageError("constraint violated: J >= 1")
    if args.m < 0:
        raise UsageError("constraint violated: --m >= 0")
    if not 0.0 < args.patch_radius < np.inf:
        raise UsageError("constraint violated: --patch-radius finite and > 0")
    ellipsoid = None
    if args.domain == "ellipsoid":
        if not args.axes or len(args.axes) != args.dim \
                or min(args.axes) <= 0.0:
            raise UsageError("constraint violated: --axes: ellipsoid needs dim "
                             "positive semi-axes (SPD shape matrix)")
        try:
            ellipsoid = ellipsoid_domain(np.diag([1.0 / a ** 2 for a in args.axes]))
        except (ArithmeticError, ValueError) as exc:
            raise UsageError(f"constraint violated: --axes "
                             f"{','.join(map(repr, args.axes))}: "
                             f"{type(exc).__name__}: {exc}") from exc
    if args.annuli is not None:
        if len(args.annuli) < 2 or any(
                b <= a for a, b in zip(args.annuli, args.annuli[1:])) \
                or args.annuli[0] <= 0.0 or args.annuli[-1] > 1.0:
            raise UsageError("constraint violated: --annuli must increase "
                             "strictly within (0, 1]")
        if args.Mn is not None and (
                len(args.Mn) != len(args.annuli) - 1 or min(args.Mn) < 0.0):
            raise UsageError("constraint violated: --Mn needs one "
                             "budget >= 0 per consecutive --annuli pair")
    return ellipsoid


def cmd_generate(args) -> int:
    ellipsoid = _check_generate_args(args)
    seed = args.seed
    try:
        if args.annuli:
            rho = list(args.annuli)
            budgets = list(args.Mn) if args.Mn else \
                [args.M if args.M is not None else 0.0] * (len(rho) - 1)
            plan = ExhaustionPlan(rho=np.array(rho), budgets=np.array(budgets))
            results = exhaustion_labyrinth(plan, dim=args.dim, t=args.t,
                                           c=args.c, seed=seed)
        elif args.domain in ("ball", "ellipsoid"):
            # from m = 2 build_labyrinth raises m to what the shells' nets need
            sched = make_schedule(args.s0, args.J, args.m or 2, args.t, args.c)
            if args.domain == "ball":
                lab = build_labyrinth(sched, args.dim, seed=seed)
            else:
                lab = ellipsoid_labyrinth(ellipsoid, sched, seed=seed)
        else:
            if args.dim != 2:
                raise UsageError("smooth presets are planar (dim 2)")
            if args.M is None:
                raise UsageError("--M is required for smooth domains")
            dom = PRESETS[args.domain]()
            try:
                cover = patch_cover(dom, args.patch_radius, args.eta)
            except ValueError as exc:  # the collar width check
                raise UsageError(f"constraint violated: --eta: {exc}") from exc
            try:
                patch_schedule(cover, args.M)
            except ValueError as exc:  # the step bound, before any step
                raise UsageError(f"constraint violated: --M: {exc}") from exc
            lab = assemble_patch_labyrinth(dom, cover, args.M, t=args.t,
                                           c=args.c)
    except NetBudgetError as exc:
        raise UsageError(f"constraint violated: --dim and --c need a net finer "
                         f"than the candidate cap allows: {exc}") from exc
    except RoadmapBudgetError as exc:  # only the --annuli search builds one
        raise UsageError(f"constraint violated: --annuli: {exc}") from exc
    except (ShellBudgetError, CoverageError, CollarCollapseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.annuli:
        all_pass = True
        for i, rec in enumerate(results):
            out = _sibling(args.out, f"-n{i}.json")
            save_labyrinth(rec["labyrinth"], out)
            audit = audit_labyrinth(rec["labyrinth"])
            all_pass &= audit["passed"]
            print(f"annulus {i}: shells={rec['shells']} "
                  f"best={rec['report']['best_length']} budget={rec['budget']} "
                  f"audit={'pass' if audit['passed'] else 'FAIL'} -> {out}")
            audit_out = _sibling(args.audit_out or _sibling(args.out, ".audit.json"),
                                 f"-n{i}.json")
            save_report({"audit": audit, "verification": rec["report"]},
                        audit_out)
        return 0 if all_pass else 2
    save_labyrinth(lab, args.out)
    audit = audit_labyrinth(lab)
    audit_out = args.audit_out or _sibling(args.out, ".audit.json")
    save_report(audit, audit_out)
    print(f"components={len(lab)} audit={'pass' if audit['passed'] else 'FAIL'} "
          f"-> {args.out} (+ {audit_out})")
    return 0 if audit["passed"] else 2


def _sibling(path: str, suffix: str) -> str:
    return (path[:-5] if path.endswith(".json") else path) + suffix


def cmd_verify(args) -> int:
    spheres = (args.source, args.target)
    if spheres != (None, None) and (None in spheres or spheres[0] == spheres[1]
                                    or not all(0.0 <= r <= MAX_COORDINATE
                                               for r in spheres)):
        raise UsageError(f"constraint violated: --source and --target both or "
                         f"neither, distinct, in [0, {MAX_COORDINATE:g}]")
    lab = _load(args.file)
    dom = lab.domain
    # a `to_ball` ellipsoid file stores its discs in ball coordinates, where
    # the unit sphere is the boundary; one in its own frame derives no spheres
    to_ball = dom.get("kind") == "ellipsoid" and "to_ball" in dom
    if args.source is not None:
        radii, origin = spheres, "--source/--target"
    elif dom.get("kind") == "annulus":
        radii, origin = (dom["inner"], dom["outer"]), \
            "the file's domain.inner/domain.outer"
    elif (dom.get("kind") == "ball" or to_ball) and lab.schedule is not None:
        radii, origin = (lab.scale * lab.schedule.s0, lab.scale), \
            "the file's schedule.s0 and scale"
    else:
        raise UsageError("no --source/--target given and none derivable "
                         "from the domain")
    source, target = ({"kind": "sphere", "radius": r} for r in radii)
    budgets = args.nodes or EffortBudget.default(lab.dim).node_budgets
    if any(v != int(v) for v in budgets):
        raise UsageError("--nodes: node budgets must be whole numbers")
    if not all(MIN_NODE_BUDGET <= v <= MAX_NODE_BUDGET for v in budgets):
        raise UsageError(f"--nodes: node budgets must lie in "
                         f"[{MIN_NODE_BUDGET}, {MAX_NODE_BUDGET}]")
    budgets = tuple(int(v) for v in budgets)
    if args.seeds < 1:
        raise UsageError("--seeds: at least one search attempt is needed")
    effort = EffortBudget(seeds=tuple(range(args.seeds)), node_budgets=budgets)
    try:
        report = min_escape_length(lab, source, target, effort)
    except RoadmapBudgetError as exc:
        raise UsageError(f"constraint violated: {origin} give the search "
                         f"annulus between radii {radii[0]!r} and "
                         f"{radii[1]!r}: {exc}") from exc
    audit = audit_labyrinth(lab)
    best = report["best_length"]
    out = {"budget_M": args.M}
    budget = args.M
    if to_ball:
        # T maps the domain onto the ball and stretches lengths by at most
        # |T| = sqrt(lambda_max(matrix)), so M holds if best > |T| M; a file
        # in the ellipsoid's own frame is searched there, against M itself
        norm_t = normalize_ellipsoid(dom["matrix"]).norm_to_ball
        budget = out["budget_ball"] = norm_t * args.M
    # a search that found no path at all is no evidence either way
    ok = audit["passed"] and best is not None and best > budget
    out.update(verification=report, audit=audit, passed=ok)
    if best is None:
        out["reason"] = "no escape path was found at this effort"
        print(f"verify: {out['reason']}", file=sys.stderr)
    report_out = args.report_out or _sibling(args.file, ".report.json")
    save_report(out, report_out)
    print(f"best={best} budget={budget} audit="
          f"{'pass' if audit['passed'] else 'FAIL'} -> "
          f"{'pass' if ok else 'FAIL'} (+ {report_out})")
    return 0 if ok else 2


def cmd_export(args) -> int:
    lab = _load(args.file)
    if args.svg is None and args.csv is None:
        raise UsageError("nothing to export; pass --svg and/or --csv")
    projection = args.projection
    if projection is not None:
        if len(projection) != 2 or projection[0] == projection[1] \
                or not all(a in range(lab.dim) for a in projection):
            raise UsageError(f"--projection needs two distinct axes in "
                             f"0..{lab.dim - 1}")
        projection = tuple(int(a) for a in projection)
    if args.svg:
        if lab.dim != 2 and projection is None:
            raise UsageError("SVG export beyond the plane needs --projection")
        overlay = _overlay_path(args.path_from, lab.dim) \
            if args.path_from else None
        try:
            export_svg(lab, args.svg, escape_path=overlay,
                       projection=projection)
        except ValueError as exc:  # a coordinate too large to draw
            raise UsageError(f"cannot draw {args.file}: a drawing coordinate "
                             f"overflows ({exc})") from exc
        print(f"svg -> {args.svg}")
    if args.csv:
        rows = export_csv(lab, args.csv)
        print(f"csv ({rows} rows) -> {args.csv}")
    return 0


def _overlay_path(path: str, dim: int) -> np.ndarray | None:
    """Best path of a verification report, None if it found none."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            rep = json.load(f)
        best = rep.get("verification", rep)["best_path"]
        poly = None if best is None else np.asarray(best["polyline"], float)
    except (OSError, ValueError, RecursionError, AttributeError, KeyError,
            TypeError) as exc:
        raise UsageError(f"--path-from: not a readable verification report "
                         f"({type(exc).__name__}: {exc})") from exc
    if poly is not None and (poly.ndim != 2 or poly.shape[1] != dim):
        raise UsageError(f"--path-from: best path is not a {dim}-d polyline")
    return poly


def _load(path: str):
    try:
        return load_labyrinth(path)
    except (MalformedFileError, OSError) as exc:
        raise UsageError(str(exc)) from exc


def cmd_report(args) -> int:
    lab = _load(args.file)
    audit = audit_labyrinth(lab)
    if audit.get("empty"):
        print("labyrinth is empty: all checks hold vacuously")
    for chk in audit["checks"]:
        extras = {k: v for k, v in chk.items() if k not in ("name", "passed")}
        print(f"{'PASS' if chk['passed'] else 'FAIL'} {chk['name']} {extras}")
    if args.out:
        save_report(audit, args.out)
    print(f"audit={'pass' if audit['passed'] else 'FAIL'}")
    return 0 if audit["passed"] else 2


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(argv)
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if getattr(args, "M", None) is not None and not 0.0 <= args.M < np.inf:
            raise UsageError("constraint violated: --M finite and >= 0")
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "export":
            return cmd_export(args)
        return cmd_report(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
