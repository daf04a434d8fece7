import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nonholib
from conftest import text_of
from nonholib.cli import ExperimentConfig, _fast_rate, _integrator_config, main
from nonholib.systems import get_system


def run(argv):
    return main(argv)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, data


def test_list_systems(capsys):
    assert run(["list-systems"]) == 0
    out = capsys.readouterr().out
    for name in ("sleigh", "pendulum-potential", "pendulum-friction", "pendulum-inertial"):
        assert name in out


def test_simulate_sleigh_nh(tmp_path, capsys):
    out = tmp_path / "run.csv"
    rc = run(
        [
            "simulate",
            "--system", "sleigh",
            "--model", "nh",
            "--t1", "10",
            "--dt", "1e-3",
            "--sample-dt", "1e-2",
            "--out", str(out),
        ]
    )
    assert rc == 0
    header, data = read_csv(out)
    assert header == ["t", "x", "y", "phi", "u", "omega"]
    assert len(data) == int(np.floor(10.0 / 1e-2)) + 1
    u, om = data[:, 4], data[:, 5]
    # half-ellipse invariant of the default run
    q = u**2 + 1.04 * om**2
    assert np.max(np.abs(q - q[0])) / q[0] < 1e-8
    assert u[0] < 0 < u[-1]


def test_simulate_constant_columns(tmp_path):
    out = tmp_path / "const.csv"
    rc = run(
        [
            "simulate",
            "--system", "sleigh",
            "--model", "nh",
            "--state", "0,0,0,0,0",
            "--t1", "1",
            "--out", str(out),
        ]
    )
    assert rc == 0
    _, data = read_csv(out)
    assert np.all(data[:, 1:] == 0.0)


def test_simulate_deterministic(tmp_path):
    args = [
        "simulate",
        "--system", "pendulum-friction",
        "--model", "friction",
        "--eps", "1e-2",
        "--t1", "2",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_json_format(tmp_path):
    out = tmp_path / "run.json"
    rc = run(
        [
            "simulate",
            "--system", "sleigh",
            "--model", "fast",
            "--state", "0,0,0,0.5,0.3,0.2",
            "--t1", "1",
            "--format", "json",
            "--out", str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    # the fast model runs in the friction model's columns
    assert doc["columns"] == ["t", "x", "y", "phi", "u", "v", "omega"]


def test_simulate_config_file_and_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# sleigh run\n"
        "system=sleigh\n"
        "model=nh\n"
        "integrator.t1=1.0\n"
        "integrator.dt=1e-3\n"
        "integrator.sample_dt=0.1\n"
        "params.a=0.3\n"
        f"out={tmp_path / 'from_file.csv'}\n"
    )
    assert run(["simulate", "--config", str(cfgfile)]) == 0
    assert (tmp_path / "from_file.csv").exists()
    # flag overrides the file's output path
    override = tmp_path / "override.csv"
    assert run(["simulate", "--config", str(cfgfile), "--out", str(override)]) == 0
    assert override.exists()


def test_simulate_bad_config_exit_2(tmp_path):
    assert run(["simulate", "--system", "unknown"]) == 2
    assert run(["simulate", "--system", "sleigh", "--model", "friction"]) == 2  # no eps
    assert (
        run(
            [
                "simulate",
                "--system", "sleigh",
                "--model", "nh",
                "--state", "1,2,3",  # wrong dimension
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        == 2
    )
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense.key=1\n")
    assert run(["simulate", "--config", str(bad)]) == 2
    # the format key is checked like its flag, before anything is written
    xml = tmp_path / "xml.cfg"
    xml.write_text(f"system=sleigh\nformat=xml\nout={tmp_path / 'xml_run'}\n")
    assert run(["simulate", "--config", str(xml)]) == 2
    assert not list(tmp_path.glob("xml_run*"))
    # unknown parameter name for the chosen system
    assert (
        run(["simulate", "--system", "sleigh", "--model", "nh", "--param", "mass=2"])
        == 2
    )


def test_simulate_blowup_exit_3(tmp_path, capsys):
    # a deliberately unstable step size on the constrained pendulum, which
    # no step check covers: h sqrt(g) = 3.13 is past rk4's 2.83 on the
    # imaginary axis
    with np.errstate(over="ignore", invalid="ignore"):
        rc = run(
            [
                "simulate",
                "--system", "pendulum-friction",
                "--model", "nh",
                "--dt", "1.0",
                "--sample-dt", "1.0",
                "--t1", "200",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
    captured = capsys.readouterr()
    assert rc == 3
    assert "t=" in captured.err


def test_unknown_system_exits_2_with_its_line(capsys):
    # the message as get_system states it, not the repr a KeyError prints
    assert run(["simulate", "--system", "foo"]) == 2
    assert capsys.readouterr().err == (
        "config error: unknown system 'foo'; available: pendulum-friction,"
        " pendulum-inertial, pendulum-potential, sleigh\n"
    )


@pytest.mark.parametrize("method", ["rk4", "rkf45"])
def test_pendulum_run_into_the_origin_exits_3_with_its_line(tmp_path, capsys, method):
    # free fall down the y axis, with g and the friction negligible, reaches
    # the origin at t = 0.3125, where a stage of the step that ends there
    # lands.  The Fehlberg run takes a text's first stage once per accepted
    # state, so a field error at an accepted state now comes before the next
    # attempt's step-size check; the exit code and the line stay
    out = tmp_path / "x.csv"
    rc = run(
        [
            "simulate",
            "--system", "pendulum-friction",
            "--model", "friction",
            "--eps", "1e300",
            "--param", "g=1e-300",
            "--state", "0,0.3125,0,-1",
            "--dt", "0.015625",
            "--sample-dt", "0.0625",
            "--t1", "1",
            "--method", method,
            "--out", str(out),
        ]
    )
    assert rc == 3
    assert capsys.readouterr().err == "numerical failure: pendulum state too close to the origin\n"
    assert not out.exists()


def test_simulate_unstable_step_refused_exit_2(tmp_path, capsys):
    for system, dt, ratio in (
        # h * fast_rate = 0.5 * 104 = 52, far past rk4's real-axis bound 2.785
        ("sleigh", "0.5", "is 52,"),
        # radial friction relaxes at 1/eps = 100: 0.05 * 100 = 5
        ("pendulum-friction", "0.05", "is 5,"),
        # the stiff spring oscillates at 1/sqrt(eps) = 10: 0.5 * 10 = 5, past
        # rk4's imaginary-axis bound 2.83
        ("pendulum-potential", "0.5", "is 5,"),
    ):
        out = tmp_path / f"{system}.csv"
        rc = run(
            [
                "simulate",
                "--system", system,
                "--model", "friction",
                "--eps", "1e-2",
                "--dt", dt,
                "--sample-dt", dt,
                "--t1", "1",
                "--out", str(out),
            ]
        )
        assert rc == 2, system
        assert ratio in capsys.readouterr().err, system
        assert not out.exists()


def test_half_integer_step_ratio_runs_the_checked_step(tmp_path):
    # sample_dt / dt = 3.5 rounds to 4 steps on every interval, the step the
    # stability check passed (h * fast_rate = 0.0025 * 1040 = 2.6), so the
    # run equals the one at dt = sample_dt / 4
    for name, dt in (("ratio", "0.002857142857142857"), ("quarter", "0.0025")):
        argv = [
            "simulate", "--system", "sleigh", "--model", "friction", "--eps", "1e-3",
            "--dt", dt, "--t1", "10", "--out", str(tmp_path / name),
        ]
        assert run(argv) == 0
    assert (tmp_path / "ratio.csv").read_bytes() == (tmp_path / "quarter.csv").read_bytes()


def test_spring_default_step_is_never_refused():
    # the default step min(1e-3, eps/20) gives h / sqrt(eps) <= sqrt(eps)/20,
    # up to rounding
    entry = get_system("pendulum-potential")
    cfg = ExperimentConfig(system="pendulum-potential", model="friction")
    fast = _fast_rate(cfg, entry)
    assert fast[1] == 2.83
    for eps in (10.0, 1.0, 1e-2, 1e-6, 1e-12):
        # the rule reads no horizon: at eps = 1e-12 one sample interval of
        # 1e-9 keeps the run within the rk4 step bound
        grid = {"t1": 1e-9, "sample_dt": 1e-9} if eps == 1e-12 else {}
        icfg = _integrator_config(dataclasses.replace(cfg, **grid), eps, fast)
        assert icfg.dt * fast[0](eps) <= (1 + 1e-12) * math.sqrt(eps) / 20


@pytest.mark.parametrize(
    "argv, code",
    [
        (["simulate", "--system", "sleigh", "--model", "nh", "--param", "a=-1"], 2),
        (["simulate", "--system", "sleigh", "--model", "nh", "--state", "nan,0,0,-1,0.5"], 2),
        (
            ["simulate", "--system", "pendulum-friction", "--model", "friction",
             "--eps", "1e-2", "--state", "0,0,0,0"],
            3,
        ),
        (
            ["manifold", "--system", "sleigh", "--model", "friction", "--eps", "1e-2",
             "--state", "0,0,0,-1,0,0", "--t1", "1"],
            4,
        ),
        (
            # free fall down the y axis: an inlined stage lands on the origin
            ["simulate", "--system", "pendulum-friction", "--model", "friction",
             "--eps", "1e300", "--param", "g=1e-300", "--state", "0,0.3125,0,-1",
             "--dt", "0.015625", "--sample-dt", "0.0625", "--t1", "1"],
            3,
        ),
        (
            ["compare", "--system", "sleigh", "--eps", "8e-3", "--eps", "4e-3",
             "--eps", "2e-3", "--t1", "0.4"],
            4,
        ),
        (["simulate", "--system", "sleigh", "--model", "nh", "--param", "a=nan"], 2),
        (
            ["simulate", "--system", "sleigh", "--model", "friction", "--eps", "1e-2",
             "--param", "m=inf", "--t1", "1"],
            2,
        ),
        (["simulate", "--system", "pendulum-friction", "--model", "nh", "--param", "g=inf"], 2),
        (["simulate", "--system", "sleigh", "--model", "friction", "--eps", "inf"], 2),
        (["simulate", "--system", "sleigh", "--model", "nh", "--t1", "abc"], 2),
        (["simulate", "--system", "sleigh", "--model", "friction", "--eps", "abc"], 2),
        (["simulate", "--system", "sleigh", "--model", "bogus"], 2),
        (["simulate", "--system", "sleigh", "--model", "nh", "--method", "bogus"], 2),
        (["simulate", "--system", "sleigh", "--model", "nh", "--t1", "inf"], 2),
        (
            ["compare", "--system", "sleigh", "--eps", "8e-3,4e-3,2e-3", "--t1", "2",
             "--window-start", "nan"],
            2,
        ),
        (
            ["simulate", "--system", "sleigh", "--model", "nh", "--sample-dt", "inf",
             "--t1", "1"],
            2,
        ),
        (
            ["manifold", "--system", "sleigh", "--model", "friction", "--eps",
             "1e-2,5e-3", "--t1", "2", "--transient-cutoff", "nan"],
            2,
        ),
        (
            ["compare", "--system", "sleigh", "--eps", "8e-3,4e-3,2e-3", "--t1", "1",
             "--window-start", "0"],
            2,
        ),
        (
            ["manifold", "--system", "sleigh", "--model", "friction", "--eps",
             "1e-2,5e-3", "--t1", "2", "--transient-cutoff", "-1"],
            2,
        ),
        (
            ["simulate", "--system", "sleigh", "--model", "nh", "--state",
             "0,0,0,1e150,1e150", "--t1", "1"],
            3,
        ),
        (
            ["simulate", "--system", "sleigh", "--model", "friction", "--eps", "1e-2",
             "--state", "0,0,0,1e150,0,1e150"],
            3,
        ),
        (
            ["simulate", "--system", "pendulum-inertial", "--model", "friction", "--eps",
             "1e-2", "--state", "1,0,1e200,1e200", "--t1", "1"],
            3,
        ),
        (
            ["simulate", "--system", "pendulum-friction", "--model", "nh", "--state",
             "1,0,1e200,1e200", "--t1", "1"],
            3,
        ),
        (
            ["manifold", "--system", "sleigh", "--model", "friction", "--eps", "1e-2",
             "--t1", "1", "--transient-cutoff", "0.05"],
            2,
        ),
        (
            ["compare", "--system", "sleigh", "--eps", "8e-3,4e-3,2e-3",
             "--state", "0,0,0,-1,0", "--t1", "2"],
            4,
        ),
        (
            ["manifold", "--system", "sleigh", "--model", "friction", "--eps",
             "5e-3", "--eps", "1e-2", "--t1", "2"],
            2,
        ),
        (
            ["manifold", "--system", "sleigh", "--model", "friction", "--eps",
             "1e-2", "--eps", "1e-2", "--t1", "2"],
            2,
        ),
        (["simulate", "--system", "sleigh", "--model", "nh", "--t1", "0.05",
          "--sample-dt", "1"], 2),
        (["simulate", "--system", "sleigh", "--model", "nh", "--t1", "1",
          "--sample-dt", "0.3"], 2),
        (["compare", "--system", "sleigh", "--eps", "8e-3,4e-3,2e-3", "--t1",
          "1.005"], 2),
        (
            ["simulate", "--system", "pendulum-potential", "--model", "friction",
             "--eps", "1e-6", "--dt", "1.0", "--sample-dt", "1.0", "--t1", "50"],
            2,
        ),
        (["simulate", "--system", "sleigh", "--model", "friction", "--eps", "1e-2",
          "--dt", "0", "--t1", "1"], 2),
        (["simulate", "--system", "sleigh", "--model", "nh", "--dt", "1e-320",
          "--t1", "1"], 2),
        (["compare", "--system", "sleigh", "--eps", "8e-3,4e-3,2e-3", "--t0", "1",
          "--t1", "3", "--window-start", "1"], 2),
        (["compare", "--system", "sleigh", "--eps", "8e-3,4e-3,2e-3", "--t0", "1",
          "--t1", "3", "--window-start", "0.5"], 2),
        # about 1e298 substeps: refused before the first step
        (["simulate", "--system", "sleigh", "--model", "nh", "--dt", "1e-300",
          "--t1", "1"], 2),
        # 1e17 samples: refused before the sample grid is built
        (["simulate", "--system", "sleigh", "--model", "nh", "--method", "rkf45",
          "--t1", "1e15"], 2),
        # (t1 - t0) / sample_dt overflows: no count of intervals to check
        (["simulate", "--system", "sleigh", "--model", "nh", "--t1", "1e308",
          "--sample-dt", "1e-308"], 2),
        (["simulate", "--system", "sleigh", "--model", "nh", "--t0=-1e308",
          "--t1", "1e308"], 2),
        # a**2 overflows: I + m a^2 is not finite
        (["simulate", "--system", "sleigh", "--model", "nh", "--param", "a=1e300",
          "--t1", "0.1"], 2),
        (["compare", "--system", "sleigh", "--eps", "8e-3", "--eps", "4e-3", "--eps",
          "2e-3", "--param", "a=1e300"], 2),
        # m I eps underflows to 0: the friction field's fast rate is refused
        # when built, not divided by in an rkf45 stage
        (["simulate", "--system", "sleigh", "--model", "friction", "--method", "rkf45",
          "--eps", "1e-300", "--param", "I=1e-20", "--param", "m=1e-20", "--t1",
          "0.01"], 2),
        # both rungs would write the file tagged _eps0.01
        (["simulate", "--system", "sleigh", "--model", "friction", "--eps",
          "1.0000001e-2", "--eps", "1e-2", "--t1", "0.1"], 2),
        (["manifold", "--system", "sleigh", "--model", "friction", "--eps",
          "1.0000001e-2", "--eps", "1e-2"], 2),
        # the float spacing at 1e16 is 2: 1e16 + 1 rounds to 1e16
        (["simulate", "--system", "sleigh", "--model", "nh", "--t0", "1e16", "--t1",
          "1.0000000000000004e16", "--sample-dt", "1"], 2),
    ],
    ids=[
        "negative-param", "nan-state", "origin-singularity", "zero-drive", "origin-mid-run",
        "short-window",
        "nan-param", "inf-mass", "inf-gravity", "inf-eps", "malformed-t1", "malformed-eps",
        "unknown-model", "unknown-method", "inf-t1", "nan-window-start",
        "inf-sample-dt", "nan-transient-cutoff", "zero-window-start",
        "cutoff-before-start", "inf-stage-angle", "friction-blow-up",
        "inertial-blow-up", "pendulum-nh-blow-up", "cutoff-within-transient",
        "equilibrium-compare", "manifold-rising-ladder", "manifold-repeated-eps",
        "short-horizon", "ragged-horizon", "ragged-compare-horizon",
        "unstable-spring-step", "zero-dt-friction", "dt-too-small-for-sample-dt",
        "window-start-at-t0", "window-start-before-t0", "unbounded-rk4-run",
        "unbounded-sample-grid", "overflowing-interval-count", "overflowing-horizon",
        "overflowing-sleigh-inertia", "overflowing-sleigh-inertia-compare",
        "underflowing-friction-rate", "simulate-shared-eps-tag", "manifold-shared-eps-tag",
        "unresolvable-sample-grid",
    ],
)
def test_failures_exit_with_one_line(tmp_path, argv, code):
    env = dict(os.environ, NONHOLIB_OUT_DIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(nonholib.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-m", "nonholib", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["simulate", "--system", "sleigh", "--model", "friction", "--eps", "1e-2",
          "--eps", "1e-12", "--t1", "0.05"], "rk4 steps"),
        (["manifold", "--system", "sleigh", "--model", "friction", "--eps", "1e-2",
          "--eps", "1e-12"], "rk4 steps"),
        (["simulate", "--system", "sleigh", "--model", "friction", "--method", "rkf45",
          "--param", "I=1e-20", "--param", "m=1e-20", "--eps", "1e20", "--eps",
          "1e-300", "--t1", "0.05"], "must be finite"),
        (["compare", "--system", "sleigh", "--eps", "1e-2,5e-3,1e-12"], "rk4 steps"),
    ],
    ids=["simulate", "manifold", "simulate-unbuildable-rung", "compare"],
)
def test_too_long_rung_refused_before_the_first_run(
    argv, reason, tmp_path, monkeypatch, capsys
):
    # the eps = 1e-12 rung takes 2e14 rk4 steps, and the eps = 1e-300 rung's
    # fast rate divides by m I eps = 0; the rung before it must not run or
    # write its file either
    monkeypatch.setenv("NONHOLIB_OUT_DIR", str(tmp_path))
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and reason in err
    assert list(tmp_path.iterdir()) == []


def test_compare_builds_every_field_before_the_first_run(tmp_path, monkeypatch, capsys):
    # a corrected field that cannot be built is refused before the nh run
    # and the first rung, not after them
    from nonholib import cli
    from nonholib.systems import InvalidParameter

    def unbuildable(params, eps):
        raise InvalidParameter("corrected field refused")

    models = get_system("sleigh").models
    monkeypatch.setitem(
        models, "corrected", dataclasses.replace(models["corrected"], build=unbuildable)
    )
    calls = []
    monkeypatch.setattr(cli, "integrate", lambda *args, **kwargs: calls.append(args))
    monkeypatch.setenv("NONHOLIB_OUT_DIR", str(tmp_path))
    assert run(["compare", "--system", "sleigh", "--eps", "8e-3,4e-3,2e-3", "--t1", "1"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "corrected field refused" in err
    assert calls == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["compare", "--system", "sleigh", "--eps", "8e-3,4e-3,2e-3", "--window-start",
          "10"], "--window-start"),
        (["compare", "--system", "sleigh", "--eps", "8e-3,4e-3,2e-3", "--t1", "0.4"],
         "--window-start"),
        (["manifold", "--system", "sleigh", "--model", "friction", "--eps", "1e-2,5e-3",
          "--transient-cutoff", "12"], "--transient-cutoff"),
        (["manifold", "--system", "sleigh", "--model", "friction", "--eps", "1e-2",
          "--t1", "0.2"], "--transient-cutoff"),
    ],
    ids=["window-start-at-t1", "window-start-past-t1", "cutoff-past-t1", "cutoff-past-short-t1"],
)
def test_window_past_the_run_refused_before_the_first_run(
    argv, flag, tmp_path, monkeypatch, capsys
):
    # the analysis would refuse these windows only after the whole ladder ran
    from nonholib import cli

    calls = []
    monkeypatch.setattr(cli, "integrate", lambda *args, **kwargs: calls.append(args))
    monkeypatch.setenv("NONHOLIB_OUT_DIR", str(tmp_path))
    assert run(argv) == 4
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and flag in err
    assert calls == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, report",
    [
        (["compare", "--system", "sleigh", "--eps", "1e-2,5e-3,2.5e-3", "--sample-dt", "0.3",
          "--t1", "0.9000000001", "--window-start", "0.90000000005"], "_compare.json"),
        (["manifold", "--system", "sleigh", "--model", "friction", "--eps", "1e-2,5e-3",
          "--sample-dt", "0.3", "--t1", "0.9", "--transient-cutoff", "0.9"], "_manifold.json"),
        (["compare", "--system", "sleigh", "--eps", "8e-3,4e-3,2e-3", "--sample-dt", "5",
          "--t1", "10.000000004"], "_compare.json"),
    ],
    ids=["window-start-past-last-sample", "cutoff-past-last-sample", "t1-past-last-sample"],
)
def test_windows_ending_at_an_off_grid_t1_write_the_report(
    argv, report, tmp_path, monkeypatch, capsys
):
    # each t1 lies off the grid t0 + i * sample_dt (3 * 0.3 = 0.8999999999999999,
    # 2 * 5 = 10), within IntegratorConfig's 1e-9 of an interval; the runs end
    # at t1 itself, so the window holds a sample and the report is written
    monkeypatch.setenv("NONHOLIB_OUT_DIR", str(tmp_path))
    assert run(argv) == 0, capsys.readouterr().err
    [path] = tmp_path.glob(f"*{report}")
    if report == "_compare.json":
        t1 = float(argv[argv.index("--t1") + 1])
        assert json.loads(path.read_text())["t_window"][1] == t1


#: The eps ladders of perfbench's compare workloads, each with its method.
_WORKLOAD_LADDERS = {
    "sleigh": ["--method", "rk4", "--eps", "8e-3,4e-3,2e-3"],
    "pendulum-friction": ["--method", "rkf45", "--eps", "8e-3,4e-3,2e-3,1e-3"],
}


def test_compare_window_edges_exit_with_the_contract(tmp_path, capsys, monkeypatch):
    # --t1 within IntegratorConfig's 1e-9 of a sample interval of a node, and
    # --window-start within 1e-9 of a node at or before it: the windows
    # whose ends lie off the grid t0 + i * sample_dt.  Every exit is 0 with a
    # report, or 2 or 4 with one stderr line before the first run; none ends
    # in a traceback.
    from nonholib import cli

    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    out = tmp_path / "edge"
    report = tmp_path / "edge_compare.json"
    calls, integrate = [], cli.integrate

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(cli, "integrate", counted)

    @st.composite
    def edges(draw):
        system = draw(st.sampled_from(sorted(_WORKLOAD_LADDERS)))
        # at 2, 1e-9 * sample_dt is past 1e-9 s
        sample_dt = draw(st.sampled_from((0.25, 0.3, 0.5, 1.0, 2.0)))
        k = draw(st.integers(1, int(2.0 / sample_dt)))
        t1 = k * sample_dt + draw(st.floats(-1e-9, 1e-9)) * sample_dt
        start = draw(st.integers(0, k)) * sample_dt + draw(st.floats(-1e-9, 1e-9))
        # "=" keeps argparse from reading a negative start as a flag
        return ["compare", "--system", system, *_WORKLOAD_LADDERS[system],
                f"--sample-dt={sample_dt!r}", f"--t1={t1!r}", f"--window-start={start!r}"]

    def ladder(system):
        return ["compare", "--system", system, *_WORKLOAD_LADDERS[system]]

    @hyp.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hyp.given(argv=edges())
    # three windows whose ends lie off the grid, one past its last node and
    # one strictly between two samples
    @hyp.example(argv=ladder("sleigh") + ["--sample-dt", "1", "--t1", "2.0000000009",
                                          "--window-start", "1.0000000005"])
    @hyp.example(argv=ladder("pendulum-friction") + ["--sample-dt", "1", "--t1", "2.0000000009",
                                                     "--window-start", "1.0000000005"])
    @hyp.example(argv=ladder("sleigh") + ["--sample-dt", "0.5", "--t1", "1.0000000004",
                                          "--window-start", "0.5000000001"])
    @hyp.example(argv=["compare", "--system", "sleigh", "--eps", "1e-2,5e-3,2.5e-3",
                       "--sample-dt", "0.3", "--t1", "0.9000000001",
                       "--window-start", "0.90000000005"])
    @hyp.example(argv=ladder("pendulum-friction") + ["--sample-dt", "0.25", "--t1",
                                                     "0.24999999998", "--window-start",
                                                     "0.24999999993"])
    # a t1 1.5e-9 s past the grid's last node, and a grid that float rounding
    # cannot resolve (the float spacing at 1e16 is 2)
    @hyp.example(argv=ladder("sleigh") + ["--sample-dt", "2", "--t1", "4.0000000015"])
    @hyp.example(argv=ladder("sleigh") + ["--sample-dt", "1", "--t0", "1e16", "--t1",
                                          "1.0000000000000004e16", "--window-start",
                                          "1.0000000000000002e16"])
    def check(argv):
        report.unlink(missing_ok=True)
        calls.clear()
        code = run(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 2, 4), (argv, err)
        if code:
            assert len(err.splitlines()) == 1, (argv, err)
            assert calls == [], argv
        else:
            assert report.exists(), argv

    check()


def test_compare_report(tmp_path):
    out = tmp_path / "cmp.json"
    rc = run(
        [
            "compare",
            "--system", "sleigh",
            "--eps", "8e-3",
            "--eps", "4e-3",
            "--eps", "2e-3",
            "--t1", "3",
            "--out", str(out),
        ]
    )
    assert rc == 0
    report = json.loads((tmp_path / "cmp_compare.json").read_text())
    assert set(report) == {
        "system", "model", "config_echo", "initial_energy", "eps_ladder", "errors",
        "orders", "t_window", "defects", "corrected_errors", "corrected_orders",
    }
    assert report["eps_ladder"] == [8e-3, 4e-3, 2e-3]
    assert report["t_window"] == [0.5, 3.0]
    assert len(report["errors"]) == 3
    assert len(report["orders"]) == 2
    assert len(report["defects"]) == 3
    assert len(report["corrected_errors"]) == 3
    assert all(e > 0 for e in report["errors"])
    # errors decrease along the ladder
    assert report["errors"][0] > report["errors"][1] > report["errors"][2]
    assert report["config_echo"]["model"] == report["model"]


def test_compare_pendulum_defects_shrink(tmp_path):
    out = tmp_path / "pend"
    rc = run(
        [
            "compare",
            "--system", "pendulum-friction",
            "--eps", "8e-3",
            "--eps", "4e-3",
            "--eps", "2e-3",
            "--t1", "3",
            "--out", str(out),
        ]
    )
    assert rc == 0
    report = json.loads((tmp_path / "pend_compare.json").read_text())
    d = report["defects"]
    assert d[0] > d[1] > d[2] > 0
    # defects halve with eps (post-transient pseudo-solution property)
    assert 1.5 < d[0] / d[1] < 2.5


_SHORT_COMPARE = [
    "compare", "--system", "sleigh", "--eps", "8e-3,4e-3,2e-3", "--t1", "1.5",
    "--state", "0.3,-0.2,0.7,-1.1,0.45",
]


def test_compare_report_equals_whole_runs(tmp_path, monkeypatch):
    # oracle: the same report with every run integrating every row
    from nonholib import cli, ode

    runs = []

    def recorded(field, x0, cfg, read=None):
        traj = ode.integrate(field, x0, cfg, read=read)
        runs.append((~np.isnan(traj.states).all(axis=0)).nonzero()[0].tolist())
        return traj

    monkeypatch.setattr(cli, "integrate", recorded)
    assert run(_SHORT_COMPARE + ["--out", str(tmp_path / "part")]) == 0
    # kept rows: the nh run's, then per rung the friction run's and the
    # corrected run's; every row but x and y
    assert runs == [[2, 3, 4]] + [[2, 3, 4, 5], [2, 3, 4]] * 3
    monkeypatch.setattr(cli, "integrate", lambda f, x0, cfg, read=None: ode.integrate(f, x0, cfg))
    assert run(_SHORT_COMPARE + ["--out", str(tmp_path / "whole")]) == 0
    part = (tmp_path / "part_compare.json").read_bytes()
    assert part == (tmp_path / "whole_compare.json").read_bytes()


def test_left_out_row_read_by_analysis_exits_4(tmp_path, monkeypatch, capsys):
    # a distance over every component reads the NaN x, y columns
    from nonholib import analysis

    sup_distance = analysis.sup_distance
    monkeypatch.setattr(
        analysis, "sup_distance", lambda a, b, t1, t_end, comps: sup_distance(a, b, t1, t_end)
    )
    assert run(_SHORT_COMPARE + ["--out", str(tmp_path / "cmp")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("analysis precondition failed:") and len(err.splitlines()) == 1
    assert not (tmp_path / "cmp_compare.json").exists()


def test_simulate_eps_ladder_writes_tagged_files(tmp_path):
    out = tmp_path / "runs.csv"
    rc = run(
        [
            "simulate",
            "--system", "sleigh",
            "--model", "friction",
            "--eps", "1e-2",
            "--eps", "5e-3",
            "--t1", "1",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert (tmp_path / "runs_eps0.01.csv").exists()
    assert (tmp_path / "runs_eps0.005.csv").exists()


def test_compare_short_ladder_exit_2(tmp_path):
    rc = run(
        [
            "compare",
            "--system", "sleigh",
            "--eps", "8e-3",
            "--out", str(tmp_path / "cmp.json"),
        ]
    )
    assert rc == 2


def test_compare_deterministic(tmp_path):
    args = [
        "compare",
        "--system", "sleigh",
        "--eps", "8e-3",
        "--eps", "4e-3",
        "--eps", "2e-3",
        "--t1", "2",
        "--window-start", "0.3",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    ja = (tmp_path / "a_compare.json").read_bytes()
    jb = (tmp_path / "b_compare.json").read_bytes()
    # reports are byte-identical apart from the differing output paths
    assert ja == jb


def test_manifold_report(tmp_path):
    out = tmp_path / "mani"
    rc = run(
        [
            "manifold",
            "--system", "sleigh",
            "--model", "friction",
            "--eps", "1e-2",
            "--eps", "5e-3",
            "--t1", "4",
            "--out", str(out),
        ]
    )
    assert rc == 0
    report = json.loads((tmp_path / "mani_manifold.json").read_text())
    assert len(report["residual_sup"]) == 2
    assert len(report["slopes"]) == 2
    # slope close to the slaved-drift coefficient
    for slope, expected in zip(report["slopes"], report["expected_slopes"]):
        assert abs(slope - expected) / abs(expected) < 0.05
    scatter = tmp_path / "mani_manifold_eps0.01.csv"
    assert scatter.exists()
    assert scatter.read_text().splitlines()[0] == "drive,slip"


def test_manifold_scatter_files_keep_csv_suffix(tmp_path):
    rc = run(
        [
            "manifold",
            "--system", "sleigh",
            "--model", "friction",
            "--eps", "1e-2",
            "--eps", "5e-3",
            "--t1", "2",
            "--out", str(tmp_path / "m.json"),
        ]
    )
    assert rc == 0
    assert json.loads((tmp_path / "m_manifold.json").read_text())["residual_sup"]
    for eps in ("0.01", "0.005"):
        scatter = tmp_path / f"m_manifold_eps{eps}.csv"
        assert scatter.read_text().splitlines()[0] == "drive,slip"
    assert sorted(p.suffix for p in tmp_path.iterdir()) == [".csv", ".csv", ".json"]


def test_manifold_requires_friction_model(tmp_path):
    rc = run(
        [
            "manifold",
            "--system", "sleigh",
            "--model", "nh",
            "--eps", "1e-2",
            "--out", str(tmp_path / "m"),
        ]
    )
    assert rc == 2


def test_manifold_unsupported_system(tmp_path):
    rc = run(
        [
            "manifold",
            "--system", "pendulum-friction",
            "--model", "friction",
            "--eps", "1e-2",
            "--out", str(tmp_path / "m"),
        ]
    )
    assert rc == 2


def test_manifold_transient_too_short_exit_4(tmp_path):
    rc = run(
        [
            "manifold",
            "--system", "sleigh",
            "--model", "friction",
            "--eps", "1e-2",
            "--t1", "0.2",  # shorter than the default cutoff
            "--out", str(tmp_path / "m"),
        ]
    )
    assert rc == 4


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("NONHOLIB_OUT_DIR", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    rc = run(["simulate", "--system", "sleigh", "--model", "nh", "--t1", "1"])
    assert rc == 0
    assert (tmp_path / "sleigh_nh.csv").exists()


def test_trajectory_json_is_written_row_by_row_as_one_dump(tmp_path):
    from nonholib.cli import write_trajectory_json
    from nonholib.ode import Trajectory

    states = np.array([[0.1, -0.0, 1e300], [2.5e-308, np.nan, -7.0], [1 / 3, 4e16, -np.inf]])
    traj = Trajectory([0.0, 0.01, 0.02], states, np.zeros_like(states))
    path = tmp_path / "t.json"
    write_trajectory_json(path, traj, ("x", "y", "phi"))
    rows = [[t, *row] for t, row in zip(traj.times.tolist(), states.tolist())]
    doc = {"columns": ["t", "x", "y", "phi"], "rows": rows}
    assert path.read_bytes() == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


_SHORT_MANIFOLD = [
    "manifold", "--system", "sleigh", "--model", "friction", "--eps", "1e-2,5e-3",
    "--t1", "1.5",
]


@pytest.mark.parametrize(
    "state", [[], ["--state", "0,0,2.1,-0.93,0,0.41"]], ids=["readme", "perfbench-box"]
)
def test_manifold_outputs_equal_whole_runs(state, tmp_path, monkeypatch):
    # oracle: the same report and scatter files with every row integrated
    from nonholib import cli, ode

    left_out = []

    def recorded(field, x0, cfg, read=None):
        traj = ode.integrate(field, x0, cfg, read=read)
        left_out.append(np.isnan(traj.states).all(axis=0).nonzero()[0].tolist())
        return traj

    argv = _SHORT_MANIFOLD + state
    monkeypatch.setattr(cli, "integrate", recorded)
    assert run(argv + ["--out", str(tmp_path / "part" / "m")]) == 0
    assert left_out == [[0, 1], [0, 1]]  # x and y, in both rungs
    monkeypatch.setattr(cli, "integrate", lambda f, x0, cfg, read=None: ode.integrate(f, x0, cfg))
    assert run(argv + ["--out", str(tmp_path / "whole" / "m")]) == 0
    names = sorted(p.name for p in (tmp_path / "part").iterdir())
    assert names == ["m_manifold.json", "m_manifold_eps0.005.csv", "m_manifold_eps0.01.csv"]
    for name in names:
        part = (tmp_path / "part" / name).read_bytes()
        assert part == (tmp_path / "whole" / name).read_bytes(), name


def test_realization_reading_a_left_out_row_exits_4(tmp_path, monkeypatch, capsys):
    # a sleigh realization whose declared slow graph reads x, which its
    # friction text does not read: manifold's runs leave x out, so the
    # graph is NaN
    from nonholib import cli, ode
    from nonholib.dynamics import ExpansionData

    sleigh = get_system("sleigh")

    def slow_graph(params):
        h1 = sleigh.slow_graph(params).h1
        return ExpansionData(h1=lambda qs, xis: h1(qs, xis) * (1.0 + 0.0 * qs[:, :1]))

    _sleigh_variant(monkeypatch, "x-graph-sleigh", slow_graph=slow_graph)
    argv = _SHORT_MANIFOLD + ["--system", "x-graph-sleigh"]
    assert run(argv + ["--out", str(tmp_path / "bad" / "m")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("analysis precondition failed:") and len(err.splitlines()) == 1
    assert "the first-order graph eps * h1 holds a non-finite value" in err
    assert not (tmp_path / "bad").exists()
    # whole runs give the graph a finite x, so only the left-out row is wrong
    monkeypatch.setattr(cli, "integrate", lambda f, x0, cfg, read=None: ode.integrate(f, x0, cfg))
    assert run(argv + ["--out", str(tmp_path / "whole" / "m")]) == 0


_X_READING_NH = """
def x_reading_sleigh_nh(st):
    x, y, phi, u, om = st
    return (u * math.cos(phi), u * math.sin(phi), om + 0.0 * x, a * om * om, nc * u * om)
"""


def test_nh_model_reading_a_left_out_row_exits_4(tmp_path, monkeypatch, capsys):
    # a sleigh whose nh model reads x, which its friction text does not
    # read: compare's friction runs leave x out, so the defect is NaN
    from nonholib import cli, ode
    from nonholib.systems import SleighParams

    def build(params, eps):
        p = SleighParams(**params)
        return ode.straight_line(_X_READING_NH, a=p.a, nc=-p.coupling, math=math)

    entry = _sleigh_variant(monkeypatch, "x-nh-sleigh")
    entry.models["nh"] = dataclasses.replace(entry.models["nh"], build=build)
    assert 0 in ode._rows_read(text_of(build({}, None)))
    assert 0 not in ode._rows_read(text_of(entry.models["friction"].build({}, 1e-2)))
    argv = _SHORT_COMPARE + ["--system", "x-nh-sleigh"]
    assert run(argv + ["--out", str(tmp_path / "bad" / "cmp")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("analysis precondition failed:") and len(err.splitlines()) == 1
    assert not (tmp_path / "bad").exists()
    # whole runs give the nh model a finite x
    monkeypatch.setattr(cli, "integrate", lambda f, x0, cfg, read=None: ode.integrate(f, x0, cfg))
    assert run(argv + ["--out", str(tmp_path / "whole" / "cmp")]) == 0


def _sleigh_variant(monkeypatch, name, **changes):
    """The sleigh registered under name with some of its entry's fields replaced."""
    from nonholib import systems

    sleigh = get_system("sleigh")
    entry = dataclasses.replace(sleigh, models=dict(sleigh.models), **changes)
    monkeypatch.setitem(systems.REGISTRY, name, entry)
    return entry


def test_compare_and_manifold_call_no_numpy_linalg_function_and_build_no_generic_object(
    tmp_path, monkeypatch
):
    # the relaxation rate, the change of frame and the slow graph are
    # declared in closed form, and the constraint rank is read from the nh
    # layout, so the set-up, runs and reports of compare and manifold call
    # no numpy.linalg function and build no generic system, frame or
    # friction form: the first LAPACK call of a process costs about 1.3 MB
    # of peak RSS, and the adapted frame's matrix products (the first BLAS
    # product) about 0.4 MB.  The reports are those of an unpatched run,
    # byte for byte.
    from nonholib import systems

    argvs = [
        ["compare", "--system", "sleigh", "--eps", "8e-3,4e-3,2e-3", "--t1", "1"],
        ["compare", "--system", "pendulum-friction", "--eps", "8e-3,4e-3,2e-3", "--t1", "1"],
        _SHORT_MANIFOLD,
    ]
    for argv in argvs:
        assert run(argv + ["--out", str(tmp_path / "free" / argv[2])]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg was called")

    def refuse_generic(*args, **kwargs):
        raise AssertionError("a generic object was built")

    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):  # LinAlgError stays
            monkeypatch.setattr(np.linalg, name, refuse)
    for name in [
        "sleigh_ortho_frame",
        "sleigh_uvw_frame",
        "sleigh_system",
        "sleigh_friction_form",
        "pendulum_system",
        "pendulum_frame",
        "pendulum_friction_form",
    ]:
        monkeypatch.setattr(systems, name, refuse_generic)
    for argv in argvs:
        assert run(argv + ["--out", str(tmp_path / "patched" / argv[2])]) == 0
    free = sorted((tmp_path / "free").iterdir())
    assert [p.name for p in free] == [
        "pendulum-friction_compare.json",
        "sleigh_compare.json",
        "sleigh_manifold.json",
        "sleigh_manifold_eps0.005.csv",
        "sleigh_manifold_eps0.01.csv",
    ]
    for path in free:
        assert path.read_bytes() == (tmp_path / "patched" / path.name).read_bytes()


def test_rkf45_compare_reads_no_relaxation_rate(tmp_path, monkeypatch):
    # rkf45 checks no step, so its runs never meet the rate's metric check
    def refuse(params):
        raise AssertionError("the relaxation rate was read")

    _sleigh_variant(monkeypatch, "unrated-sleigh", relaxation_rate=refuse)
    argv = ["compare", "--system", "unrated-sleigh", "--eps", "8e-3,4e-3,2e-3"]
    assert run(argv + ["--method", "rkf45", "--t1", "1", "--out", str(tmp_path / "c")]) == 0


_ILL_CONDITIONED = {
    "heavy": ["--param", "m=1e13", "--param", "a=1"],
    "light-inertia": ["--param", "I=1e-13", "--param", "a=1"],
    "stiff-coupling": ["--param", "m=1e14", "--param", "a=1e-7"],
}


@pytest.mark.parametrize(
    "command, params, refused",
    [
        ("compare", "heavy", "metric"),
        ("compare", "light-inertia", "metric"),
        ("compare", "stiff-coupling", "frame"),
        ("manifold", "heavy", "metric"),
        ("manifold", "light-inertia", "metric"),
        ("manifold", "stiff-coupling", "metric"),
    ],
)
def test_ill_conditioned_sleigh_is_refused_before_the_first_run(
    tmp_path, capsys, monkeypatch, command, params, refused
):
    # the declared rate checks the metric's condition number and the
    # declared change of frame the adapted frame's, where the generic
    # routes did: compare reads the change first, manifold the rate.  No
    # run starts, so no file is written.
    argv = {
        "compare": ["compare", "--system", "sleigh", "--eps", "8e-3,4e-3,2e-3", "--t1", "1"],
        "manifold": [
            "manifold", "--system", "sleigh", "--model", "friction", "--eps", "1e-2,5e-3",
            "--t1", "1", "--transient-cutoff", "0.5",
        ],
    }[command]

    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(nonholib.cli, "integrate", no_run)
    monkeypatch.setenv("NONHOLIB_OUT_DIR", str(tmp_path))
    assert run(argv + _ILL_CONDITIONED[params]) == 3
    assert capsys.readouterr().err == (
        f"numerical failure: {refused} condition number exceeds 1e12\n"
    )
    assert list(tmp_path.iterdir()) == []
