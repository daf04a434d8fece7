import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nonholib
from nonholib.cli import main


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
    # a deliberately unstable step size on the stiff potential realization
    with np.errstate(over="ignore", invalid="ignore"):
        rc = run(
            [
                "simulate",
                "--system", "pendulum-potential",
                "--model", "friction",
                "--eps", "1e-6",
                "--dt", "1.0",
                "--sample-dt", "1.0",
                "--t1", "50",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
    captured = capsys.readouterr()
    assert rc == 3
    assert "t=" in captured.err


def test_simulate_unstable_step_refused_exit_2(tmp_path, capsys):
    for system, dt, ratio in (
        # h * fast_rate = 0.5 * 104 = 52, far past rk4's real-axis bound 2.785
        ("sleigh", "0.5", "is 52,"),
        # radial friction relaxes at 1/eps = 100: 0.05 * 100 = 5
        ("pendulum-friction", "0.05", "is 5,"),
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
    ],
    ids=[
        "negative-param", "nan-state", "origin-singularity", "zero-drive", "short-window",
        "nan-param", "inf-mass", "inf-gravity", "inf-eps", "malformed-t1", "malformed-eps",
        "unknown-model", "unknown-method", "inf-t1", "nan-window-start",
        "inf-sample-dt", "nan-transient-cutoff", "zero-window-start",
        "cutoff-before-start", "inf-stage-angle", "friction-blow-up",
        "inertial-blow-up", "pendulum-nh-blow-up", "cutoff-within-transient",
        "equilibrium-compare", "manifold-rising-ladder", "manifold-repeated-eps",
        "short-horizon", "ragged-horizon", "ragged-compare-horizon",
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
