#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, summarised in one BENCH file.

    python3 scripts/bench.py --parent ../parent-checkout --out BENCH_1.json \\
        --pairs verify-plane=10,verify-space=3,generate-cycle=3

Runs ``perfbench/run.py`` of the parent checkout and of this one, each in
its own directory and interpreter, on the named workloads, for the
``run_seconds`` that ``BENCHMARK.json`` sets.  Pair i of a workload runs
both sides on seed i, one right after the other; the side that goes first
alternates from pair to pair, so a drift of the host's speed does not
favour one side.  For every end-to-end metric of ``BENCHMARK.json`` the
file records each side's runs, median and quartiles, and the pairs the
change won.  It also records each run's ``best_length``, failed and
attempted operations, the host provenance the runs print, and the
per-layer metrics of one traced run of each side on seed 0.  A run that
prints no result is kept as a run without values (None in its lists) and
its stderr tail under ``errors``; the other runs are still summarised.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_pairs(text: str) -> dict[str, int]:
    out = {}
    for item in text.split(","):
        name, _, count = item.partition("=")
        # quartiles need at least two runs per side
        if not name or not count.isdigit() or int(count) < 2:
            raise argparse.ArgumentTypeError(
                f"expected workload=pairs (at least 2), comma separated, "
                f"got {item!r}")
        out[name] = int(count)
    return out


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: bool) -> dict:
    """One ``perfbench/run.py`` process; its result, best length, host.

    ``result`` is None when the process printed no result line (it
    crashed, or its workload raised); ``error`` then holds its stderr tail.
    ``best_length`` is None when the workload has no escape search or the
    search found no path.
    """
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds),
            "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if not isinstance(result, dict):
        result = None
    best = host = None
    for line in lines:
        if line.startswith("best_length "):
            value = line.split()[1]
            best = None if value in ("n/a", "None") else float(value)
        elif line.startswith("provenance "):
            host = json.loads(line[len("provenance "):])
    error = None if result else (f"exit {proc.returncode}: "
                                 f"{proc.stderr[-2000:]}")
    return {"exit": proc.returncode, "result": result, "error": error,
            "best_length": best, "host": host}


def summary(values: list[float | None]) -> dict:
    """Median and quartiles over the runs that gave a value."""
    got = [v for v in values if v is not None]
    if len(got) < 2:
        mid = got[0] if got else None
        return {"median": mid, "q1": mid, "q3": mid, "runs": values}
    q1, q2, q3 = statistics.quantiles(got, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "runs": values}


def field(run: dict, *keys):
    """``run["result"][keys...]``, or None for a run that gave no result."""
    value = run["result"]
    for key in keys:
        if value is None:
            return None
        value = value.get(key)
    return value


def bench_workload(sides: dict, workload: str, pairs: int, seconds: float,
                   end_to_end: list[dict]) -> dict:
    runs = {side: [] for side in sides}
    for i in range(pairs):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for side in order:
            run = run_once(sides[side], workload, i, seconds, False)
            runs[side].append(run)
            wall = field(run, "metrics", "wall_s", "value")
            print(f"{workload} pair {i} {side}: " +
                  (f"wall_s {wall:.3f}" if wall is not None
                   else f"no result ({run['error'][:200]})"), flush=True)
    out = {"pairs": pairs, "seeds": list(range(pairs)), "metrics": {}}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        vals = {side: [field(r, "metrics", name, "value") for r in rs]
                for side, rs in runs.items()}
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(vals["parent"], vals["change"])
                   if p is not None and c is not None)
        out["metrics"][name] = {"unit": spec["unit"], "better": spec["better"],
                                **{side: summary(v) for side, v in vals.items()},
                                "change_wins": wins}
    for side, rs in runs.items():
        out.setdefault("best_length", {})[side] = [r["best_length"] for r in rs]
        out.setdefault("failed", {})[side] = [field(r, "failed") for r in rs]
        out.setdefault("attempted", {})[side] = [field(r, "attempted")
                                                 for r in rs]
        out.setdefault("exit", {})[side] = [r["exit"] for r in rs]
        out.setdefault("errors", {})[side] = {
            str(seed): r["error"] for seed, r in enumerate(rs) if r["error"]}
    out["traced"] = {}
    for side, path in sides.items():
        layers = field(run_once(path, workload, 0, seconds, True), "metrics")
        out["traced"][side] = layers and {name: m["value"]
                                          for name, m in layers.items()}
    out["host"] = {side: next((r["host"] for r in rs if r["host"]), None)
                   for side, rs in runs.items()}
    return out


def checkout_state(path: Path) -> dict:
    """HEAD of a checkout and whether its tracked files differ from it."""
    def git(*argv):
        proc = subprocess.run(["git", "-C", str(path), *argv],
                              capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"path_name": path.name, "head": git("rev-parse", "HEAD"),
            "modified": None if status is None else bool(status)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path,
                    help="checkout of the parent commit to compare against")
    ap.add_argument("--pairs", type=parse_pairs,
                    default="verify-plane=10,verify-space=3,generate-cycle=3",
                    help="workload=pairs, comma separated")
    ap.add_argument("--out", required=True, type=Path, help="BENCH file")
    args = ap.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": ROOT}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = float(spec["run_seconds"])
    start = time.time()
    doc = {"command": "python3 perfbench/run.py --workload W --seed S "
                      f"--seconds {seconds!r} --trace 0; traced: seed 0, "
                      "--trace 1",
           "order": "pair i runs seed i on both sides; the first side "
                    "alternates, parent first in pair 0",
           "workloads": {}}
    for workload, pairs in args.pairs.items():
        doc["workloads"][workload] = bench_workload(
            sides, workload, pairs, seconds, spec["end_to_end"])
    doc["checkouts"] = {side: checkout_state(path)
                        for side, path in sides.items()}
    doc["elapsed_s"] = time.time() - start
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
