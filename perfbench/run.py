"""Benchmark of the labyrinths CLI: one workload per process, closed loop.

    python3 perfbench/run.py --workload verify-plane --seed 0 --seconds 10 --trace 0

Builds the workload's inputs from the seed, then calls
``labyrinths.cli.main`` in-process, one call after another, for at least
``--seconds`` seconds and at least one iteration, and checks every output
outside the timed region.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` first repeats the untraced loop, then runs it again with the
layer functions wrapped, and prints the per-layer metrics plus the tracing
overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Exit code 0 when every
check passed, 1 when one failed, 2 when the library is not found.
"""

from __future__ import annotations

import os

# BLAS and OpenMP read these once, when numpy loads, so they are set before
# anything imports numpy.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("verify-plane", "verify-space", "generate-cycle")
SETUP_REPEATS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import labyrinths.cli, labyrinths.domains; "
                "print(time.perf_counter() - t)")


def import_seconds(repeats: int) -> list[float]:
    """Package import time, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        out.append(float(proc.stdout))
    return out


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {k: os.environ.get(k) for k in THREAD_ENV},
            "git_commit": git_commit(), "seed": seed}


def loop(workload, state: dict, seconds: float, tally, min_iterations: int):
    """Closed loop: the next iteration starts when the previous one returned."""
    from workloads import clear_net_caches

    walls, outcomes = [], []
    start = time.perf_counter()
    while len(walls) < min_iterations or time.perf_counter() - start < seconds:
        clear_net_caches()
        t0, c0 = time.perf_counter(), time.process_time()
        calls = workload.iterate(state)
        walls.append(time.perf_counter() - t0)
        print(f"iteration {len(walls)}: wall {walls[-1]:.6f} s, "
              f"cpu {time.process_time() - c0:.6f} s")
        outcomes.append(workload.collect(state, calls, tally))
    return walls, outcomes


def share_report(workload, layer: dict, wall: float) -> list[str]:
    lines = []
    for keys, lo, hi, claim in workload.predictions:
        share = sum(layer[k][0] for k in keys) / wall
        verdict = "holds" if lo <= share <= hi else "CONTRADICTED"
        lines.append(f"prediction {verdict}: {claim}: "
                     f"{' + '.join(keys)} = {share:.1%} of wall "
                     f"(predicted {lo:.0%}..{hi:.0%})")
    return lines


def run(name: str, seed: int, seconds: float, trace: bool,
        workloads: dict, min_iterations: int = 1) -> dict:
    """One benchmark run; returns the result object and prints the report."""
    from tracer import RATIOS, Tracer, layer_metrics
    from workloads import Tally

    workload = workloads[name]
    tally = Tally()
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        imports = import_seconds(SETUP_REPEATS)
        state = workload.setup(work, seed, SETUP_REPEATS, tally)
        setup_s = statistics.median(imports)
        if state["build_s"]:
            setup_s += statistics.median(state["build_s"])
        walls, outcomes = loop(workload, state, seconds, tally, min_iterations)
        tracer = None
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced, _ = loop(workload, state, seconds, tally,
                                 min_iterations)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wall_s = statistics.median(walls)
    print(f"workload {name} seed {seed}: {len(walls)} iterations, "
          f"closed loop, 1 client")
    print(f"wall_s {wall_s:.6f} s (median of {len(walls)}; "
          f"min {min(walls):.6f}, max {max(walls):.6f})")
    parts = f"median import {statistics.median(imports):.6f} s of {len(imports)}"
    if state["build_s"]:
        parts += (f" + median build and write "
                  f"{statistics.median(state['build_s']):.6f} s of "
                  f"{len(state['build_s'])}")
    print(f"setup_s {setup_s:.6f} s ({parts})")
    if "best_length" not in outcomes[0]:
        print("best_length n/a (no escape search in this workload)")
    else:
        print(f"best_length {outcomes[0]['best_length']!r} len")
    print(f"fail_ratio {tally.failed / max(tally.attempted, 1):.6f} "
          f"= {tally.failed} failed / {tally.attempted} operations")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"peak_rss_mb {rss:.3f} MB")
    for fname, digest in sorted(state["sha256"].items()):
        print(f"sha256 {fname} {digest}")
    print("provenance " + json.dumps(provenance(seed), sort_keys=True))
    for problem in tally.problems:
        print(f"FAILED: {problem}")

    if not trace:
        metrics = {"wall_s": (wall_s, "s"), "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (rss, "MB")}
    else:
        metrics = layer_metrics(tracer, len(traced))
        traced_s = statistics.median(traced)
        overhead = traced_s - wall_s
        metrics["bench.trace_overhead_s"] = (overhead, "s")
        print(f"traced wall_s {traced_s:.6f} s (median of {len(traced)}); "
              f"tracing overhead {overhead:+.6f} s")
        for missing in tracer.missing:
            print(f"span missing: {missing} no longer resolves")
        calls = {n: c for n, (_, _, c) in tracer.self_times().items()}
        for span in workload.heavy:
            tally.op(span in calls, f"heavy span {span} never fired")
            if span not in calls:
                print(f"FAILED: heavy span {span} never fired")
        bases = {name: (num, den) for num, den, name in RATIOS}
        for key, (value, unit) in metrics.items():
            base = (f" = {tracer.counts[bases[key][0]]:.0f} / "
                    f"{tracer.counts[bases[key][1]]:.0f}" if key in bases else "")
            print(f"{key} {value:.9g} {unit}{base}")
        for line in share_report(workload, metrics, traced_s):
            print(line)
        OUT.mkdir(exist_ok=True)
        dump = OUT / f"trace-{name}-seed{seed}.json"
        dump.write_text(json.dumps({"workload": name, "seed": seed,
                                    "spans": tracer.dump(),
                                    "missing": tracer.missing}))
        print(f"spans -> {dump.relative_to(ROOT)} ({len(tracer.spans)} spans)")

    return {"correct": not tally.problems, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def bootstrap() -> str | None:
    """Put the checkout's own library first on the path; None when usable."""
    if not (SRC / "labyrinths" / "__init__.py").is_file():
        return f"no library at {SRC.relative_to(ROOT)}/labyrinths"
    sys.path.insert(0, str(SRC))
    import labyrinths

    if Path(labyrinths.__file__).resolve().parent != SRC / "labyrinths":
        return f"imported labyrinths from {labyrinths.__file__}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    error = bootstrap()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 WORKLOADS)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
