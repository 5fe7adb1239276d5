import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"


@pytest.fixture
def bench():
    spec = importlib.util.spec_from_file_location("bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def metrics(wall):
    return {"wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": 0.5, "unit": "s"},
            "peak_rss_mb": {"value": 100.0, "unit": "MB"}}


# what perfbench/run.py prints when the verify call wrote no report
FAILED_VERIFY = "\n".join([
    "iteration 1: wall 1.000000 s, cpu 1.000000 s",
    "workload verify-plane seed 0: 1 iterations, closed loop, 1 client",
    "wall_s 1.000000 s (median of 1; min 1.000000, max 1.000000)",
    "setup_s 0.500000 s (median import 0.500000 s of 3)",
    "best_length None len",
    "fail_ratio 1.000000 = 1 failed / 1 operations",
    "peak_rss_mb 100.000 MB",
    'provenance {"seed": 0}',
    "FAILED: verify-plane: no report written",
    json.dumps({"correct": False, "attempted": 1, "failed": 1,
                "metrics": metrics(1.0)}),
]) + "\n"


def fake_run(stdout, stderr="", returncode=1):
    def run(argv, **kwargs):
        return subprocess.CompletedProcess(argv, returncode, stdout, stderr)
    return run


def test_run_once_keeps_a_failed_verify_run(bench, monkeypatch, tmp_path):
    monkeypatch.setattr(bench.subprocess, "run", fake_run(FAILED_VERIFY))
    run = bench.run_once(tmp_path, "verify-plane", 0, 1.0, False)
    assert run["best_length"] is None
    assert run["result"]["failed"] == 1 and run["error"] is None
    assert run["host"] == {"seed": 0} and run["exit"] == 1


def test_run_once_records_a_run_without_result(bench, monkeypatch, tmp_path):
    crashed = FAILED_VERIFY.splitlines()[0] + "\n"
    monkeypatch.setattr(bench.subprocess, "run",
                        fake_run(crashed, "Traceback ...\nMemoryError\n"))
    run = bench.run_once(tmp_path, "verify-plane", 0, 1.0, False)
    assert run["result"] is None and run["best_length"] is None
    assert "MemoryError" in run["error"]


def test_bench_workload_summarises_around_a_run_without_result(bench,
                                                              monkeypatch):
    def run_once(checkout, workload, seed, seconds, trace):
        if checkout == "change" and seed == 1:
            return {"exit": 1, "result": None, "error": "exit 1: boom",
                    "best_length": None, "host": None}
        wall = {"parent": 2.0, "change": 1.5}[checkout] + seed / 10
        return {"exit": 0, "error": None, "best_length": 1.25,
                "host": {"seed": seed},
                "result": {"correct": True, "attempted": 1, "failed": 0,
                           "metrics": metrics(wall)}}

    monkeypatch.setattr(bench, "run_once", run_once)
    spec = [{"name": "wall_s", "unit": "s", "better": "lower"}]
    out = bench.bench_workload({"parent": "parent", "change": "change"},
                               "verify-plane", 3, 1.0, spec)
    wall = out["metrics"]["wall_s"]
    assert wall["change"]["runs"] == [1.5, None, 1.7]
    assert wall["change"]["median"] == pytest.approx(1.6)
    assert wall["change_wins"] == 2
    assert out["failed"]["change"] == [0, None, 0]
    assert out["errors"] == {"parent": {}, "change": {"1": "exit 1: boom"}}
    assert out["traced"]["change"]["wall_s"] == 1.5
