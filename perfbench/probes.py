"""Fixed-input layer probes, independent of the workload seed.

    python3 perfbench/probes.py RESULT_JSON [--smoke]

Writes ``{metric name: value}`` for

* ``systems.<system>.<model>.rhs_us``: every registered hand-coded field;
* ``dynamics.<model>.rhs_us`` and ``dynamics.h1_us``: the sleigh's generic
  fields built from ``generic_builders`` and its slow-manifold coefficient;
* ``geometry.{connection_coefficients,christoffel,frame_metric}_us``;
* ``ode.rk4.step_overhead_us`` and ``ode.rkf45.attempt_overhead_us``: the
  integrators driving a field that returns a precomputed constant vector;
* on one fixed 1,001-sample sleigh friction trajectory:
  ``ode.sample_at_us_per_point`` and ``analysis.{sup_distance,
  pseudo_solution_defect,manifold_fit,energy_audit}_ms``.  No CLI command
  reaches ``energy_audit``, so this is its only measurement.

Each figure is the median of several timed repeats of a calibrated loop.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

from nonholib import analysis, dynamics, geometry
from nonholib.ode import IntegratorConfig, integrate, restrict_window, transform_linear
from nonholib.systems import REGISTRY

EPS = 1e-2
# Probe states: off the constraint and moving, so every term is exercised.
SLEIGH_REDUCED = np.array([0.1, -0.2, 0.3, -1.0, 0.5])
SLEIGH_FULL = np.array([0.1, -0.2, 0.3, -1.0, 0.02, 0.5])
PENDULUM = np.array([0.7, -0.75, 0.3, 0.28])


def _median_seconds(fn, repeats: int, target_s: float) -> float:
    """Median seconds per call of ``fn()`` over ``repeats`` timed loops of
    enough calls to take about ``target_s`` each."""
    t = time.perf_counter()
    fn()  # warm-up and calibration
    once = max(time.perf_counter() - t, 1e-7)
    n = max(1, int(target_s / once))
    samples = []
    for _ in range(repeats):
        t = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t) / n)
    return statistics.median(samples)


def run(smoke: bool = False) -> dict:
    repeats, target = (1, 0.002) if smoke else (5, 0.01)
    heavy = (1, 0.0) if smoke else (3, 0.05)
    out = {}

    def us(name, fn):
        out[name] = 1e6 * _median_seconds(fn, repeats, target)

    for system in sorted(REGISTRY):
        for model, spec in sorted(REGISTRY[system].models.items()):
            field = spec.build({}, EPS)
            if system == "sleigh":
                state = SLEIGH_FULL if len(spec.columns) == 6 else SLEIGH_REDUCED
            else:
                state = PENDULUM
            us(f"systems.{system}.{model}.rhs_us", lambda f=field, x=state: f(x))

    sleigh = REGISTRY["sleigh"]
    sysm, frame, fric = sleigh.generic_builders({})
    # generic layouts: reduced (q, u, psi), frame (q, u, psi, v)
    reduced = sleigh.reduce_matrix({}) @ SLEIGH_FULL
    framed = sleigh.frame_state_matrix({}) @ SLEIGH_FULL
    q, xi = framed[:3], framed[3:5]
    generic = {
        "nh": (dynamics.nonholonomic_field(sysm, frame), reduced),
        "friction": (dynamics.friction_field(sysm, frame, fric, EPS), framed),
        "corrected": (dynamics.corrected_field(sysm, frame, fric, EPS), reduced),
        "fast": (dynamics.fast_field_y0(sysm, frame, fric), framed),
    }
    for model, (field, state) in generic.items():
        us(f"dynamics.{model}.rhs_us", lambda f=field, x=state: f(x))
    expansion = dynamics.compute_h1(sysm, frame, fric)
    us("dynamics.h1_us", lambda: expansion.h1(q, xi))
    us("geometry.connection_coefficients_us", lambda: geometry.connection_coefficients(sysm, frame, q))
    us("geometry.christoffel_us", lambda: geometry.christoffel(sysm, q))
    us("geometry.frame_metric_us", lambda: geometry.frame_metric(sysm, frame, q))

    horizon = 0.2 if smoke else 2.0
    const = np.full(6, 1e-3)
    calls = [0]

    def constant(x):
        calls[0] += 1
        return const

    rk4 = IntegratorConfig(t_span=(0.0, horizon), dt=1e-3, sample_dt=1e-2)
    steps = round(horizon / 1e-3)
    out["ode.rk4.step_overhead_us"] = (
        1e6 * _median_seconds(lambda: integrate(constant, np.zeros(6), rk4), *heavy) / steps
    )
    rkf = IntegratorConfig(t_span=(0.0, horizon), dt=1e-3, sample_dt=1e-3, method="rkf45")
    calls[0] = 0
    samples = len(integrate(constant, np.zeros(6), rkf).times)
    attempts = (calls[0] - samples) / 6  # one evaluation per sample, six per attempt
    out["ode.rkf45.attempt_overhead_us"] = (
        1e6 * _median_seconds(lambda: integrate(constant, np.zeros(6), rkf), *heavy) / attempts
    )

    # The fixed 1,001-sample trajectory: sleigh friction at eps = 1e-2 from
    # the README default state over [0, 10] s; rkf45 keeps the fixture cheap.
    t_end = 2.0 if smoke else 10.0
    cfg = IntegratorConfig(t_span=(0.0, t_end), dt=1e-3, sample_dt=1e-2, method="rkf45")
    nh_field = sleigh.models["nh"].build({}, None)
    fric_traj = integrate(sleigh.models["friction"].build({}, EPS), np.array([0, 0, 0, -1.0, 0, 0.5]), cfg)
    nh_traj = integrate(nh_field, np.array([0, 0, 0, -1.0, 0.5]), cfg)
    reduced_traj = transform_linear(fric_traj, sleigh.reduce_matrix({}))
    frame_traj = transform_linear(fric_traj, sleigh.frame_state_matrix({}))
    window = restrict_window(reduced_traj, 0.5, t_end)
    out["ode.sample_at_us_per_point"] = (
        1e6 * _median_seconds(lambda: reduced_traj.sample_at(window.times), repeats, target) / len(window)
    )
    ms = {
        "sup_distance": lambda: analysis.sup_distance(reduced_traj, nh_traj, 0.5, t_end, (3, 4)),
        "pseudo_solution_defect": lambda: analysis.pseudo_solution_defect(reduced_traj, nh_field),
        "manifold_fit": lambda: analysis.manifold_fit(frame_traj, expansion, EPS, 0.5, 3, 2),
        "energy_audit": lambda: analysis.energy_audit(frame_traj, sysm, fric, EPS, frame),
    }
    for name, fn in ms.items():
        out[f"analysis.{name}_ms"] = 1e3 * _median_seconds(fn, *heavy)
    return out


def main(argv) -> int:
    result = run(smoke="--smoke" in argv[1:])
    with open(argv[0], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
