"""The benchmark's workloads: closed loops of in-process CLI calls.

Each workload builds its inputs from the seed (``setup``), runs one
iteration of CLI calls per ``iterate`` (the timed part) and checks the
outputs of that iteration in ``collect`` (untimed).  Checks count as
operations next to the CLI calls, search attempts and audit checks, so
every one of them feeds the failure count.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from labyrinths import cli, nets
from labyrinths.io import save_labyrinth
from labyrinths.nets import SeparatedNet
from labyrinths.shells import Labyrinth, annulus_labyrinth

from checks import escape_path_problems


@dataclass
class Tally:
    """Operations attempted and failed, with a message per failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


@dataclass
class Call:
    argv: list[str]
    rc: int | None
    error: str | None


def run_cli(argv: list[str]) -> Call:
    """One in-process CLI call; its chatter is dropped, a crash is recorded."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
    except Exception:  # a crash is a counted failure, not the end of the run
        return Call(argv, None, traceback.format_exc(limit=3))
    return Call(argv, rc, None)


def check_calls(calls: list[Call], tally: Tally) -> None:
    for c in calls:
        tally.op(c.rc == 0, f"{' '.join(c.argv[:2])}: exit {c.rc}"
                 + (f"\n{c.error}" if c.error else ""))


def clear_net_caches() -> None:
    """Start from the empty module caches a fresh CLI process has."""
    for name in ("_NET_CACHE", "_CALIBRATION_CACHE"):
        getattr(nets, name, {}).clear()


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_audit(audit: dict, tally: Tally, label: str) -> None:
    for chk in audit["checks"]:
        tally.op(chk["passed"], f"{label}: audit check {chk['name']} failed")


def random_rotation(dim: int, seed: int) -> np.ndarray:
    """Haar-random rotation (determinant +1) drawn from the seed."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def rotate(lab: Labyrinth, q: np.ndarray) -> Labyrinth:
    """The same labyrinth turned by q; annulus domains are unchanged by it."""
    comps = [replace(fb, center=q @ fb.center, normal=q @ fb.normal)
             for fb in lab.components]
    rotated_nets = [SeparatedNet(dim=n.dim, r=n.r, c=n.c, m=n.m,
                                 classes=[cls @ q.T for cls in n.classes])
                    for n in lab.nets]
    return replace(lab, components=comps, nets=rotated_nets)


@dataclass(frozen=True)
class VerifyWorkload:
    """``verify`` of one annulus labyrinth written in set-up."""

    name: str
    rho: tuple[float, float]
    J: int
    dim: int
    M: float
    nodes: int
    turn_by_seed: bool
    heavy: tuple[str, ...]
    predictions: tuple

    def build(self, seed: int) -> Labyrinth:
        # The construction seed stays 0: other construction seeds change the
        # disc count (58 to 112 discs in d=3), so the work per call would
        # swing with the seed.  Where turn_by_seed is set, the workload seed
        # turns the labyrinth instead, which keeps the work and moves the
        # roadmap samples relative to the discs.
        lab = annulus_labyrinth(*self.rho, J=self.J, m=2, dim=self.dim, seed=0)
        if not self.turn_by_seed:
            return lab
        return rotate(lab, random_rotation(self.dim, seed))

    def setup(self, work: Path, seed: int, repeats: int, tally: Tally) -> dict:
        path = work / f"{self.name}.json"
        times, digests = [], []
        for _ in range(repeats):
            clear_net_caches()
            t0 = time.perf_counter()
            lab = self.build(seed)
            save_labyrinth(lab, str(path))
            times.append(time.perf_counter() - t0)
            digests.append(sha256(path))
        tally.op(len(set(digests)) == 1,
                 f"{self.name}: labyrinth file differs across set-ups")
        return {"path": path, "report": work / f"{self.name}.report.json",
                "doc": json.loads(path.read_text()), "build_s": times,
                "sha256": {path.name: digests[0]}}

    def iterate(self, state: dict) -> list[Call]:
        return [run_cli(["verify", str(state["path"]), "--M", repr(self.M),
                         "--seeds", "1", "--nodes", str(self.nodes),
                         "--report-out", str(state["report"])])]

    def collect(self, state: dict, calls: list[Call], tally: Tally) -> dict:
        check_calls(calls, tally)
        if not state["report"].exists():
            tally.op(False, f"{self.name}: no report written")
            return {"best_length": None}
        report = json.loads(state["report"].read_text())
        state["report"].unlink()  # a later failed call must not reuse it
        for att in report["verification"]["attempts"]:
            tally.op(att["length"] is not None,
                     f"{self.name}: attempt {att} found no certified path")
        check_audit(report["audit"], tally, self.name)
        problems = escape_path_problems(report, state["doc"])
        tally.op(not problems, f"{self.name}: best path: {'; '.join(problems)}")
        best = report["verification"]["best_length"]
        first = state.setdefault("best_length", best)
        tally.op(best == first,
                 f"{self.name}: best length {best!r} != first run's {first!r}")
        return {"best_length": best}


GENERATE_INPUTS = {
    "ball2": ["--dim", "2", "--domain", "ball", "--J", "3"],
    "ball3": ["--dim", "3", "--domain", "ball", "--J", "2"],
    "ellipsoid": ["--domain", "ellipsoid", "--axes", "2,1", "--J", "2"],
    "ellipse": ["--domain", "ellipse", "--M", "1.0"],
}


@dataclass(frozen=True)
class GenerateWorkload:
    """``generate`` for several domains, ``report`` on each, one export."""

    name: str
    inputs: dict
    heavy: tuple[str, ...]
    predictions: tuple

    def setup(self, work: Path, seed: int, repeats: int, tally: Tally) -> dict:
        return {"work": work, "seed": seed, "build_s": [], "sha256": {}}

    def iterate(self, state: dict) -> list[Call]:
        work, seed = state["work"], str(state["seed"])
        calls = [run_cli(["generate", *argv, "--seed", seed,
                          "--out", str(work / f"{key}.json")])
                 for key, argv in self.inputs.items()]
        calls += [run_cli(["report", str(work / f"{key}.json"),
                           "--out", str(work / f"{key}.checked.json")])
                  for key in self.inputs]
        first = work / f"{next(iter(self.inputs))}.json"
        calls.append(run_cli(["export", str(first),
                              "--svg", str(work / "export.svg"),
                              "--csv", str(work / "export.csv")]))
        return calls

    def collect(self, state: dict, calls: list[Call], tally: Tally) -> dict:
        check_calls(calls, tally)
        work = state["work"]
        for key in self.inputs:
            out = work / f"{key}.json"
            if not out.exists():
                tally.op(False, f"{self.name}: {out.name} was not written")
                continue
            digest = sha256(out)
            first = state["sha256"].setdefault(out.name, digest)
            tally.op(digest == first,
                     f"{self.name}: {out.name} differs from the first run's")
            audit = work / f"{key}.checked.json"
            if audit.exists():
                check_audit(json.loads(audit.read_text()), tally,
                            f"{self.name}/{key}")
        svg, csv = work / "export.svg", work / "export.csv"
        tally.op(svg.exists() and svg.stat().st_size > 0,
                 f"{self.name}: SVG export missing or empty")
        first = work / f"{next(iter(self.inputs))}.json"
        if csv.exists() and first.exists():
            rows = len(csv.read_text().splitlines())
            comps = len(json.loads(first.read_text())["components"])
            tally.op(rows == comps + 1,
                     f"{self.name}: CSV has {rows} lines for {comps} components")
        else:
            tally.op(False, f"{self.name}: CSV export missing")
        for path in work.iterdir():  # a later failed call must not reuse them
            path.unlink()
        return {}


# Predicted shares of an iteration's traced wall time, by per-layer metric:
# (metrics summed, lowest share, highest share, the claim in words).
WORKLOADS = {
    "verify-plane": VerifyWorkload(
        "verify-plane", (0.75, 0.875), J=10, dim=2, M=1.0, nodes=80_000,
        # one 80k-node attempt found no path at all on 3 of 8 inputs tried
        # once the seed moved the discs (see README), so this workload runs
        # the fixed seed-0 instance whatever the seed
        turn_by_seed=False,
        heavy=("verifier.build_roadmap", "verifier.collide",
               "verifier.verify_path"),
        predictions=(
            (("verifier.collide_s", "verifier.verify_path_s"), 0.5, 1.0,
             "collide plus verify_path dominate"),
            (("verifier.collide_s",), 0.25, 0.55, "collide is about 40%"),
            (("verifier.shortest_escape_self_s",), 0.0, 0.02,
             "Dijkstra is under 2%"),
            (("geometry.separating_hyperplane_s",), 0.0, 0.0,
             "no LP: J=10 exceeds the lex gate"),
        )),
    "verify-space": VerifyWorkload(
        "verify-space", (0.5, 1.0), J=1, dim=3, M=0.4, nodes=8_000,
        turn_by_seed=True,
        heavy=("verifier.collide", "geometry.separating_hyperplane"),
        predictions=(
            (("verifier.collide_s",), 0.5, 1.0, "collide dominates"),
            (("verifier.audit_s",), 0.1, 0.3, "the audit is about 19%"),
            (("verifier.verify_path_s",), 0.0, 0.05, "verify_path is nearly idle"),
            (("verifier.shortest_escape_self_s",), 0.0, 0.02,
             "Dijkstra is under 2%"),
        )),
    "generate-cycle": GenerateWorkload(
        "generate-cycle", GENERATE_INPUTS,
        heavy=("nets.greedy_net",),
        predictions=(
            (("nets.greedy_net_s",), 0.5, 1.0, "greedy_net dominates"),
            (("verifier.build_roadmap_s",), 0.0, 0.0, "no roadmap is built"),
        )),
}

# Small versions of the same workloads for the harness self-check.
TINY = {
    "verify-plane": replace(WORKLOADS["verify-plane"], J=2, M=0.1,
                            nodes=2_000),
    "verify-space": replace(WORKLOADS["verify-space"], nodes=1_000),
    "generate-cycle": replace(WORKLOADS["generate-cycle"], inputs={
        "ball2": ["--dim", "2", "--domain", "ball", "--J", "1"],
        "ellipsoid": ["--domain", "ellipsoid", "--axes", "2,1", "--J", "1"],
        "ellipse": ["--domain", "ellipse", "--M", "0.02"],
    }),
}
