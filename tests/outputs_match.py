"""Check that two checkouts write the same outputs for the same argv.

Usage::

    python tests/outputs_match.py PARENT_DIR CHANGE_DIR

Runs each argv below as ``python -m nonholib ARGV`` in both checkouts, with
``PYTHONPATH=<dir>/src`` and ``PYTHONDONTWRITEBYTECODE=1`` and a fresh
``NONHOLIB_OUT_DIR`` per run.  It compares the exit codes, the stdout and
stderr lines (with the output directory's path masked) and the SHA-256 of
every file written, prints one line per argv and then ``identical: True`` or
``identical: False``, and exits 0 only when every run matches.

The argv are the three benchmark workloads at seeds 0-2 (read from this
checkout's ``perfbench/workloads.py``), ``simulate`` of each sleigh model,
``simulate`` of the friction model of each pendulum realization, and a
two-eps ``--format json`` ``simulate``.  A refactor that must not change any
output reruns this instead of hand-rolling the comparison.  The file is not
named ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, cli_argv  # noqa: E402

SEEDS = (0, 1, 2)
SLEIGH_MODELS = ("nh", "friction", "corrected", "fast")
PENDULUMS = ("pendulum-potential", "pendulum-friction", "pendulum-inertial")


def argvs() -> list:
    runs = [cli_argv(w, seed) for w in WORKLOADS for seed in SEEDS]
    for model in SLEIGH_MODELS:
        runs.append(["simulate", "--system", "sleigh", "--model", model, "--eps", "1e-2"])
    for system in PENDULUMS:
        runs.append(["simulate", "--system", system, "--model", "friction", "--eps", "1e-2"])
    runs.append(["simulate", "--system", "sleigh", "--model", "friction", "--eps", "1e-2",
                 "--eps", "5e-3", "--t1", "2", "--format", "json"])
    return runs


def outcome(checkout: Path, argv: list) -> tuple:
    """(exit code, stdout, stderr, {file name: sha256}) of one run."""
    with tempfile.TemporaryDirectory() as out:
        env = dict(os.environ, NONHOLIB_OUT_DIR=out, PYTHONDONTWRITEBYTECODE="1")
        env["PYTHONPATH"] = str(checkout / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "nonholib", *argv],
            capture_output=True, text=True, env=env, cwd=out,
        )
        digests = {
            str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out).rglob("*")) if p.is_file()
        }
        return (proc.returncode, proc.stdout.replace(out, "<out>"),
                proc.stderr.replace(out, "<out>"), digests)


def main() -> int:
    args = sys.argv[1:]
    if len(args) != 2:
        print("usage: python tests/outputs_match.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in args)
    identical = True
    for run in argvs():
        before, after = outcome(parent, run), outcome(change, run)
        same = before == after
        identical &= same
        print(f"{'same' if same else 'DIFFERENT'}: exit {before[0]}/{after[0]}, "
              f"{len(before[3])}/{len(after[3])} files: {' '.join(run)}")
        if not same:
            for name in sorted(set(before[3]) | set(after[3])):
                if before[3].get(name) != after[3].get(name):
                    print(f"  {name}: {before[3].get(name)} != {after[3].get(name)}")
            for label, b, a in (("stdout", before[1], after[1]), ("stderr", before[2], after[2])):
                if b != a:
                    print(f"  {label}: {b!r} != {a!r}")
    print(f"identical: {identical}")
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
