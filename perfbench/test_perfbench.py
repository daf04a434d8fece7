"""The benchmark's own tests, on its shortened smoke mode.

    python -m pytest -q perfbench
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _env(out_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["NONHOLIB_OUT_DIR"] = str(out_dir)
    return env


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.name != "result.json"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_writes_the_same_report_bytes(tmp_path, workload):
    argv = workloads.cli_argv(workload, seed=7, smoke=True)
    outputs = []
    for name, cmd in (
        ("plain", [sys.executable, "-m", "nonholib", *argv]),
        ("untraced", [sys.executable, str(HERE / "child.py"), "result.json", "--", *argv]),
        ("traced", [sys.executable, str(HERE / "child.py"), "result.json", "--trace", "--", *argv]),
    ):
        out = tmp_path / name
        out.mkdir()
        subprocess.run(cmd, cwd=out, env=_env(out), check=True, capture_output=True)
        outputs.append(_files(out))
    assert outputs[0], "the CLI wrote no report"
    assert outputs[0] == outputs[1] == outputs[2]


def _run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "0", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc


def _summary(proc):
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    return doc["metrics"]


def _assert_named_metrics(metrics, group):
    names = {m["name"]: m["unit"] for m in CONTRACT[group]}
    assert set(metrics) == set(names)
    for name, m in metrics.items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
        assert m["unit"] == names[name], name


def test_end_to_end_metrics_present_finite_and_with_units():
    metrics = _summary(_run_bench("--workload", "sleigh-manifold", "--smoke", "--trace", "0"))
    _assert_named_metrics(metrics, "end_to_end")
    assert all(metrics[m]["value"] > 0 for m in metrics)


# rk4 evaluations of the smoke argv (t1 = 2 s, 200 samples): one per sample
# plus four per step.  The full 10 s workloads give 867,007 and 242,002.
SMOKE_RK4_EVALS = {
    "sleigh-ladder": 8201 + 20201 + 40201 + 80201 + 3 * 8201,
    "sleigh-manifold": 16201 + 32201,
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_per_layer_metrics_present_and_adding_up(workload):
    metrics = _summary(_run_bench("--workload", workload, "--smoke", "--trace", "1"))
    _assert_named_metrics(metrics, "per_layer")
    value = {name: m["value"] for name, m in metrics.items()}
    if workload in SMOKE_RK4_EVALS:
        assert value["ode.rhs_evals"] == SMOKE_RK4_EVALS[workload]
    parts = (
        "cli.self_s",
        "ode.self_s",
        "systems.rhs_s",
        "dynamics.self_s",
        "geometry.self_s",
        "analysis.sup_distance_s",
        "analysis.pseudo_solution_defect_s",
        "analysis.manifold_fit_s",
        "trace.residual_s",
    )
    assert sum(value[p] for p in parts) == pytest.approx(value["trace.wall_s"], rel=1e-9)
    assert 0 <= value["trace.residual_s"] < 0.01 * value["trace.wall_s"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench("--workload", "sleigh-ladder", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
