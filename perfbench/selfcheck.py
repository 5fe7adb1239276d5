"""Fast self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Runs every workload at tiny effort on two seeds, traced on the first and
untraced on the second, with two iterations each (so the byte-identity and
repeatability checks have something to compare), and requires the printed
metric names to be exactly those BENCHMARK.json declares.  Then it feeds a
corrupted escape path to the output check, which has to reject it.  Exit
code 0 when the harness behaves.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

SEEDS = ((0, True), (1, False))  # (seed, traced)


def declared_metrics(traced: bool) -> set[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}


def corrupted_path_is_rejected() -> bool:
    """A real verify report passes the output check; the same report with a
    disc centre spliced into its best path must fail it."""
    import numpy as np

    from checks import escape_path_problems
    from workloads import TINY, Tally

    workload = TINY["verify-plane"]
    work = run.OUT / f"selfcheck-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        state = workload.setup(work, 0, 1, Tally())
        call, = workload.iterate(state)
        report = json.loads(state["report"].read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sound = escape_path_problems(report, state["doc"])
    best = report["verification"]["best_path"]
    best["polyline"].insert(1, state["doc"]["components"][0]["center"])
    length = float(np.linalg.norm(np.diff(best["polyline"], axis=0),
                                  axis=1).sum())
    best["length"] = report["verification"]["best_length"] = length
    corrupted = escape_path_problems(report, state["doc"])
    print(f"negative case: exit {call.rc}, sound path problems {sound}, "
          f"corrupted path problems {corrupted or 'NONE'}")
    return call.rc == 0 and not sound and any("touches" in p for p in corrupted)


def tracer_is_robust() -> bool:
    """Every binding of a wrapped function is patched and restored, and a
    name that no longer resolves is reported instead of raising."""
    from labyrinths import geometry, nets, sampling, verifier
    from tracer import SPECS, SpanSpec, Tracer

    bindings = [(sampling, "farthest_point_order"), (nets, "farthest_point_order"),
                (geometry, "separating_hyperplane"),
                (verifier, "separating_hyperplane")]
    before = [getattr(m, a) for m, a in bindings]
    tracer = Tracer()
    tracer.install(SPECS + (SpanSpec("labyrinths.verifier", "_gone", "x"),))
    wrapped = all(getattr(getattr(m, a), "__wrapped__", None) is f
                  for (m, a), f in zip(bindings, before))
    tracer.uninstall()
    restored = [getattr(m, a) for m, a in bindings] == before
    missing = tracer.missing == ["labyrinths.verifier._gone"]
    print(f"tracer: every binding wrapped={wrapped} restored={restored} "
          f"missing reported={missing}")
    return wrapped and restored and missing


def main() -> int:
    error = run.bootstrap()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from workloads import TINY

    ok = True
    for name in run.WORKLOAD_NAMES:
        for seed, traced in SEEDS:
            result = run.run(name, seed, 0.0, traced, TINY, min_iterations=2)
            names = set(result["metrics"])
            print(f"selfcheck {name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"undeclared={sorted(names - declared_metrics(traced))} "
                  f"unprinted={sorted(declared_metrics(traced) - names)}")
            ok &= result["correct"] and result["failed"] == 0
            ok &= names == declared_metrics(traced)
    ok &= tracer_is_robust()
    ok &= corrupted_path_is_rejected()
    print("selfcheck " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
