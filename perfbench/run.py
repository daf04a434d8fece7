"""nonholib benchmark: the paper's CLI reports, timed end to end and by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]

NAME is one of sleigh-ladder, sleigh-manifold, pendulum-ladder (see
workloads.py for why each was chosen), or ``all`` to run the three in turn.
Run it from the root of a source checkout; nothing needs building.

Each repetition is what a CLI user does: a fresh single-threaded Python
process (child.py) imports ``nonholib.cli`` from ``src/`` and calls
``cli.main`` with the workload's generated argv.  Repetitions run back to
back, one at a time (a closed loop with one client), until the next one
would end after ``--seconds``; at least three run (three of each kind with
``--trace 1``).  Every report is checked (workloads.check_report; at seed 0
also against reference/).

``--trace 0`` reports the end-to-end metrics, medians over the repetitions.
The machine is a VM on a shared host.  Its wall time includes steal, time in
which the host runs other tenants and not this VM (0 to a quarter of the
wall time, varying by the minute), and its speed while it runs drifts by a
third and more.  So the timings are process CPU times, which leave steal
out, rescaled to a reference host speed: while it runs, the child times a
fixed reference unit of work at a fixed period (child.py, HostSpeed),
and ``c`` CPU seconds become ``(c - sampler CPU time) * mean(REF_UNIT_S /
sample)``, the time the same work takes on the idle host:

* ``cpu_ref_s``: process CPU time of ``cli.main``, rescaled;
* ``setup_s``: CPU time of a fresh interpreter until ``nonholib.cli`` is
  imported and the registry built, rescaled, over seven set-up-only
  processes plus every repetition;
* ``peak_rss_mb``: the child's ru_maxrss.

The raw wall and CPU times of ``cli.main`` and the host speed are printed and
recorded too.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics: the layer breakdown of the traced repetition with the
median wall time (so its self times and ``trace.residual_s`` add up to its
``trace.wall_s``), ``trace.overhead_s`` (median over neighbouring pairs of
traced minus untraced CPU time, the latter less its sampler's; both raw, and
CPU time because wall time carries the host's steal) and the fixed-input
probes of probes.py.  Traced repetitions take no host samples, so their
layer times are raw seconds.  It also prints the end-to-end figures of its
untraced repetitions.

Every metric is printed with its unit, then the fidelity of the report and
the environment; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A full record, spans of
the reported traced repetition included, goes to
``.perfbench_out/<workload>_seed<N>_trace<T>.json``.

Timings come from a shared machine measured without CPU pinning, page-cache
dropping or frequency control; the medians and quartile spreads say how far
to trust them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import workloads
from child import CHILD_S, END, NAME, REF_UNIT_S, RHS_CALLS, RHS_S, START

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference"

MIN_REPS = 3
SETUP_SPAWNS = 7
CHILD_TIMEOUT_S = 120
# No repetition starts once one more would end past this many seconds, so a
# run ends well within three minutes whatever --seconds asks for.
HARD_LIMIT_S = 120
ENV_NOTE = "shared machine; no CPU pinning, page-cache dropping or frequency control"

END_TO_END_UNITS = {"cpu_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "cli.self_s": "s",
    "ode.rhs_evals": "count",
    "ode.trajectories": "count",
    "ode.self_s": "s",
    "ode.self_us_per_eval": "us",
    "systems.rhs_calls": "count",
    "systems.rhs_s": "s",
    "systems.rhs_us_per_call": "us",
    "dynamics.h1_calls": "count",
    "dynamics.compute_h1_s": "s",
    "dynamics.self_s": "s",
    "geometry.calls": "count",
    "geometry.self_s": "s",
    "analysis.sup_distance_s": "s",
    "analysis.pseudo_solution_defect_s": "s",
    "analysis.manifold_fit_s": "s",
    "trace.wall_s": "s",
    "trace.residual_s": "s",
    "trace.overhead_s": "s",
}
# Which workload each probe explains (for grouping the printout only).
PROBE_HOME = (
    ("dynamics.", "sleigh-manifold"),
    ("geometry.", "sleigh-manifold"),
    ("analysis.manifold_fit", "sleigh-manifold"),
    ("analysis.energy_audit", "sleigh-manifold"),
    ("systems.pendulum", "pendulum-ladder"),
    ("ode.rkf45", "pendulum-ladder"),
)


def probe_unit(name: str) -> str:
    return "ms" if name.endswith("_ms") else "us"


def probe_home(name: str) -> str:
    return next((w for prefix, w in PROBE_HOME if name.startswith(prefix)), "sleigh-ladder")


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def child_env(out_dir: Path) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["NONHOLIB_OUT_DIR"] = str(out_dir)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(script: str, args: list, work: Path) -> tuple:
    """Run one child in ``work``; returns (result dict or None, error, seconds)."""
    work.mkdir(parents=True, exist_ok=True)
    result_path = work / "result.json"
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / script), str(result_path), *args],
            cwd=work,
            env=child_env(work),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S} s", time.perf_counter() - t0
    took = time.perf_counter() - t0
    if proc.returncode != 0 or not result_path.is_file():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
        return None, f"exit {proc.returncode}: {tail[0]}", took
    return json.loads(result_path.read_text()), "", took


def host_speed(host: dict) -> float:
    """Mean speed of the host relative to the reference while it was sampled."""
    if not host["samples"]:
        raise ValueError("no host-speed samples")
    return statistics.fmean(REF_UNIT_S / t for t in host["samples"])


def setup_seconds(result: dict) -> float:
    host = result["setup_host"]
    return (result["ready_cpu_s"] - host["spent_cpu_s"]) * host_speed(host)


def run_rep(workload: str, argv: list, trace: bool, work: Path, reference) -> dict:
    """One CLI invocation, its report checked; the scratch directory is removed."""
    result, error, took = spawn("child.py", (["--trace"] if trace else []) + ["--", *argv], work)
    rep = {"trace": trace, "seconds": took, "failures": [], "fidelity": {}}
    try:
        if result is None:
            rep["failures"].append(error)
            return rep
        rep.update(
            wall_s=result["wall_s"],
            cpu_s=result["cpu_s"],
            peak_rss_mb=result["maxrss_kb"] / 1024.0,
            numpy=result["numpy"],
            spans=result.get("spans"),
        )
        if not trace:
            host = result["run_host"]
            speed = host_speed(host)
            rep.update(
                setup_s=setup_seconds(result),
                host_speed=speed,
                sampler_cpu_s=host["spent_cpu_s"],
                cpu_ref_s=(result["cpu_s"] - host["spent_cpu_s"]) * speed,
            )
        if result["exit"] != 0:
            rep["failures"].append(f"cli.main returned {result['exit']}")
            return rep
        reports = sorted(work.glob(f"*_{argv[0]}.json"))
        if len(reports) != 1:
            rep["failures"].append(f"expected one report, found {[p.name for p in reports]}")
            return rep
        doc = json.loads(reports[0].read_text())
        failures, rep["fidelity"] = workloads.check_report(workload, doc)
        rep["failures"] += failures
        if reference is not None:
            ref_failures, max_rel = workloads.compare_reference(doc, reference)
            rep["failures"] += ref_failures
            rep["fidelity"]["max_rel_deviation_vs_reference"] = max_rel
        return rep
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def layer_metrics(spans: list, wall_s: float) -> dict:
    """Per-layer counts and self times of one traced repetition.

    A span's self time is its duration minus its child spans and the field
    calls timed inside it.  Layers:

    * systems: the field callables handed to ``integrate`` and
      ``pseudo_solution_defect``;
    * ode: ``integrate``, ``transform_linear``, ``restrict_window``;
    * dynamics: ``compute_h1`` and every ``h1`` call (``compute_h1_s`` is their
      inclusive time, ``self_s`` excludes geometry);
    * geometry: ``connection_coefficients``, ``frame_metric``, ``christoffel``
      as dynamics calls them;
    * analysis: ``sup_distance``, ``pseudo_solution_defect``, ``manifold_fit``;
    * cli: ``cli.main`` outside all of the above.
    """
    self_s, durations, calls = defaultdict(float), defaultdict(float), Counter()
    rhs_calls = Counter()
    rhs_s = 0.0
    for rec in spans:
        name, dur = rec[NAME], rec[END] - rec[START]
        self_s[name] += dur - rec[CHILD_S] - rec[RHS_S]
        durations[name] += dur
        calls[name] += 1
        rhs_calls[name] += rec[RHS_CALLS]
        rhs_s += rec[RHS_S]

    def layer_self(layer):
        return sum(v for k, v in self_s.items() if k.startswith(layer + "."))

    m = {
        "cli.self_s": self_s["cli.main"],
        "ode.rhs_evals": rhs_calls["ode.integrate"],
        "ode.trajectories": calls["ode.integrate"],
        "ode.self_s": layer_self("ode"),
        "systems.rhs_calls": sum(rhs_calls.values()),
        "systems.rhs_s": rhs_s,
        "dynamics.h1_calls": calls["dynamics.h1"],
        "dynamics.compute_h1_s": durations["dynamics.h1"] + durations["dynamics.compute_h1"],
        "dynamics.self_s": layer_self("dynamics"),
        "geometry.calls": sum(v for k, v in calls.items() if k.startswith("geometry.")),
        "geometry.self_s": layer_self("geometry"),
        "analysis.sup_distance_s": self_s["analysis.sup_distance"],
        "analysis.pseudo_solution_defect_s": self_s["analysis.pseudo_solution_defect"],
        "analysis.manifold_fit_s": self_s["analysis.manifold_fit"],
        "trace.wall_s": wall_s,
    }
    m["ode.self_us_per_eval"] = 1e6 * m["ode.self_s"] / max(m["ode.rhs_evals"], 1)
    m["systems.rhs_us_per_call"] = 1e6 * rhs_s / max(m["systems.rhs_calls"], 1)
    m["trace.residual_s"] = wall_s - sum(self_s.values()) - rhs_s
    return m


def tail(samples: list) -> str:
    """The highest percentile above the median with ten samples beyond it."""
    n = len(samples)
    k = n - 10
    if k <= n / 2:
        return f"no percentile above the median has 10 samples beyond it at n={n}"
    return f"p{100.0 * k / n:.0f} = {sorted(samples)[k - 1]:.6g}"


def environment(numpy_version: str) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "note": ENV_NOTE,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it; 'unknown' otherwise."""
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
    return "unknown"


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    argv = workloads.cli_argv(workload, seed, smoke)
    reference = None
    if seed == workloads.DEFAULT_SEED and not smoke:
        reference = json.loads((REFERENCE / f"{workload}.json").read_text())
    work = OUT / f"work-{os.getpid()}"
    min_reps = 1 if smoke else MIN_REPS
    print(f"== {workload}  seed {seed}  trace {int(trace)}")
    print("   nonholib " + " ".join(argv))

    setups = []
    if not trace:
        for i in range(1 if smoke else SETUP_SPAWNS):
            result, error, _ = spawn("child.py", ["--setup-only", "--"], work / f"setup{i}")
            shutil.rmtree(work / f"setup{i}", ignore_errors=True)
            if result is None:
                raise SystemExit(f"set-up process failed: {error}")
            setups.append(setup_seconds(result))

    reps = []
    start = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        rep = run_rep(workload, argv, traced, work / f"rep{len(reps)}", reference)
        reps.append(rep)
        status = "ok" if not rep["failures"] else "FAILED: " + "; ".join(rep["failures"])
        timing = f"wall {rep['wall_s']:.4f} s  cpu {rep['cpu_s']:.4f} s" if "wall_s" in rep else ""
        if "host_speed" in rep:
            timing += f"  host speed {rep['host_speed']:.3f}  cpu_ref {rep['cpu_ref_s']:.4f} s"
        print(f"   rep {len(reps):2d} {'traced' if traced else 'plain '}  {timing}  {status}")
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["seconds"] for r in reps)
        per_kind = min(sum(r["trace"] == t for r in reps) for t in {False, trace})
        if per_kind >= min_reps and elapsed + typical > seconds:
            break
        if elapsed + typical > HARD_LIMIT_S:
            break
    shutil.rmtree(work, ignore_errors=True)

    timed = [r for r in reps if "wall_s" in r]
    plain = [r for r in timed if not r["trace"]]
    setups += [r["setup_s"] for r in plain]
    failed = sum(bool(r["failures"]) for r in reps)
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "argv": argv,
        "attempted": len(reps),
        "failed": failed,
        "environment": environment(timed[0]["numpy"] if timed else "unknown"),
        "fidelity": next((r["fidelity"] for r in reps if r["fidelity"]), {}),
        "failures": [f for r in reps for f in r["failures"]],
        "setups": setups,
        "reps": [{k: v for k, v in r.items() if k != "spans"} for r in reps],
        "end_to_end": {},
        "per_layer": {},
    }
    if plain:
        record["raw"] = {k: statistics.median(r[k] for r in plain) for k in ("wall_s", "cpu_s", "host_speed")}
        for name, unit in END_TO_END_UNITS.items():
            samples = setups if name == "setup_s" else [r[name] for r in plain]
            record["end_to_end"][name] = {
                "value": statistics.median(samples),
                "unit": unit,
                "n": len(samples),
                "quartiles": quartiles(samples),
                "tail": tail(samples),
            }
    if trace:
        traced_reps = sorted((r for r in timed if r["trace"]), key=lambda r: r["wall_s"])
        # Neighbouring repetitions share the machine's momentary speed, so
        # the tracing overhead is taken pair by pair (plain, then traced).
        pairs = [(p, t) for p, t in zip(reps[0::2], reps[1::2]) if "wall_s" in p and "wall_s" in t]
        if pairs:
            chosen = traced_reps[(len(traced_reps) - 1) // 2]
            layers = layer_metrics(chosen["spans"], chosen["wall_s"])
            layers["trace.overhead_s"] = statistics.median(
                t["cpu_s"] - (p["cpu_s"] - p["sampler_cpu_s"]) for p, t in pairs
            )
            for name, unit in LAYER_UNITS.items():
                record["per_layer"][name] = {"value": layers[name], "unit": unit}
            record["spans"] = chosen["spans"]
        result, error, _ = spawn("probes.py", ["--smoke"] if smoke else [], work / "probes")
        shutil.rmtree(work, ignore_errors=True)
        if result is None:
            record["failed"] += 1
            record["attempted"] += 1
            record["failures"].append(f"probes: {error}")
        else:
            for name, value in result.items():
                record["per_layer"][name] = {"value": value, "unit": probe_unit(name)}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}_seed{seed}_trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    print_record(record)
    return record


def quartiles(samples: list) -> list:
    if len(samples) < 2:
        return [samples[0]] * 3
    return statistics.quantiles(samples, n=4)


def print_record(rec: dict) -> None:
    n = rec["attempted"]
    print(f"   {'fail_rate':18s} {rec['failed'] / n:.4g}  (share of runs; {rec['failed']} of {n} failed)")
    for name, m in rec["end_to_end"].items():
        q1, _, q3 = m["quartiles"]
        print(
            f"   {name:18s} {m['value']:.6g} {m['unit']}  median of n={m['n']},"
            f" quartiles {q1:.6g}..{q3:.6g}; {m['tail']}"
        )
    if "raw" in rec:
        raw = rec["raw"]
        print(
            f"   raw medians: wall {raw['wall_s']:.6g} s, cpu {raw['cpu_s']:.6g} s"
            f" at host speed {raw['host_speed']:.4g} of the reference"
        )
    if rec["per_layer"]:
        home = rec["workload"]
        for name, m in rec["per_layer"].items():
            explains = probe_home(name) if name not in LAYER_UNITS else home
            mark = "" if explains == home else f"   [probe; explains {explains}]"
            print(f"   {name:44s} {m['value']:.6g} {m['unit']}{mark}")
    for key, value in rec["fidelity"].items():
        print(f"   fidelity.{key} = {value}")
    for failure in rec["failures"]:
        print(f"   failure: {failure}")
    env = rec["environment"]
    print("   environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="2 s horizon, one repetition, quick probes")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "nonholib" / "cli.py").is_file():
        print(f"error: no nonholib sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = [run_workload(w, args.seed, args.seconds, bool(args.trace), args.smoke) for w in names]
    group = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for rec in records:
        prefix = rec["workload"] + "." if len(records) > 1 else ""
        for name, m in rec[group].items():
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
