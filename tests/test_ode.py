import dataclasses
import functools
import inspect
import linecache
import math
import sys
import threading
import traceback
import types

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import text_of
from nonholib import ode
from nonholib.systems import _SLEIGH_CORRECTED, _SLEIGH_FRICTION
from nonholib.ode import (
    _FE_A,
    _FE_B4,
    _FE_ERR,
    MAX_RK4_STEPS,
    MAX_SAMPLES,
    RKF45_TOL,
    IntegratorConfig,
    NonFiniteState,
    OutOfRange,
    RunTooLong,
    StepUnderflow,
    Trajectory,
    integrate,
    transform_linear,
)


def decay(x):
    return [-a for a in x]


def harmonic(x):
    return np.array([x[1], -x[0]])


def test_exp_decay_rk4():
    cfg = IntegratorConfig(t_span=(0.0, 1.0), dt=1e-3, sample_dt=1e-2)
    traj = integrate(decay, [1.0], cfg)
    assert abs(traj.states[-1, 0] - np.exp(-1.0)) < 1e-9


def test_zero_field_constant():
    cfg = IntegratorConfig(t_span=(0.0, 2.0), dt=1e-2, sample_dt=0.1)
    traj = integrate(lambda x: np.zeros_like(x), [3.0, -4.0], cfg)
    assert np.all(traj.states == np.array([3.0, -4.0]))


def test_harmonic_oscillator_period():
    cfg = IntegratorConfig(t_span=(0.0, 2.0 * np.pi), dt=1e-3, sample_dt=np.pi / 50)
    traj = integrate(harmonic, [1.0, 0.0], cfg)
    assert np.linalg.norm(traj.states[-1] - [1.0, 0.0]) < 1e-7


def test_rk4_order_four():
    errs = []
    for dt in (0.05, 0.025):
        cfg = IntegratorConfig(t_span=(0.0, 1.0), dt=dt, sample_dt=1.0)
        traj = integrate(decay, [1.0], cfg)
        errs.append(abs(traj.states[-1, 0] - np.exp(-1.0)))
    ratio = errs[0] / errs[1]
    assert 16 * 0.9 < ratio < 16 * 1.1


def test_deterministic_bitwise():
    cfg = IntegratorConfig(t_span=(0.0, 3.0), dt=1e-3, sample_dt=1e-2)
    a = integrate(harmonic, [0.3, 0.7], cfg)
    b = integrate(harmonic, [0.3, 0.7], cfg)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.derivs, b.derivs)


def test_sample_count():
    cfg = IntegratorConfig(t_span=(0.0, 10.0), dt=1e-3, sample_dt=1e-2)
    traj = integrate(decay, [1.0], cfg)
    assert len(traj) == int(np.floor(10.0 / 1e-2)) + 1


@pytest.mark.parametrize("method", ["rk4", "rkf45"])
@pytest.mark.parametrize("t_span, sample_dt", [((0.0, 1.0 + 1e-12), 0.01), ((0.0, 0.9), 0.3)])
def test_runs_end_exactly_at_t1(t_span, sample_dt, method):
    # t1 off the grid by 1e-10 of an interval, and 3 * 0.3 = 0.8999999999999999:
    # the last sample is t1 itself, every earlier one t0 + i * sample_dt
    cfg = IntegratorConfig(t_span=t_span, dt=1e-3, sample_dt=sample_dt, method=method)
    times = integrate(decay, [1.0], cfg).times
    assert times[-1] == t_span[1]
    grid = t_span[0] + sample_dt * np.arange(cfg.intervals + 1)
    assert np.array_equal(times[:-1], grid[:-1])


def test_sample_at_nodes_exact():
    cfg = IntegratorConfig(t_span=(0.0, 1.0), dt=1e-2, sample_dt=0.1)
    traj = integrate(harmonic, [1.0, 0.0], cfg)
    for i in (0, 3, 10):
        assert np.array_equal(traj.sample_at(traj.times[i]), traj.states[i])


def test_sample_at_linear_exact():
    # constant field gives linear trajectories; Hermite reproduces cubics
    cfg = IntegratorConfig(t_span=(0.0, 1.0), dt=0.1, sample_dt=0.25)
    traj = integrate(lambda x: np.array([2.0]), [1.0], cfg)
    assert abs(traj.sample_at(0.125)[0] - 1.25) < 1e-12


def test_sample_at_reproduces_cubics():
    # hand-built trajectory of x(t) = t^3 - t with exact derivatives
    times = np.linspace(0.0, 2.0, 5)
    states = (times**3 - times)[:, None]
    derivs = (3 * times**2 - 1)[:, None]
    traj = Trajectory(times, states, derivs)
    for t in (0.1, 0.77, 1.3, 1.99):
        assert abs(traj.sample_at(t)[0] - (t**3 - t)) < 1e-13


def test_sample_at_decay_midpoint():
    cfg = IntegratorConfig(t_span=(0.0, 1.0), dt=1e-3, sample_dt=0.02)
    traj = integrate(decay, [1.0], cfg)
    # node hit and mid-interval interpolation
    assert abs(traj.sample_at(0.5)[0] - np.exp(-0.5)) < 1e-9
    assert abs(traj.sample_at(0.51)[0] - np.exp(-0.51)) < 1e-9


def test_sample_at_out_of_range():
    cfg = IntegratorConfig(t_span=(0.0, 1.0), dt=0.1, sample_dt=0.5)
    traj = integrate(decay, [1.0], cfg)
    with pytest.raises(OutOfRange):
        traj.sample_at(1.5)
    with pytest.raises(OutOfRange):
        traj.sample_at(-0.1)


def test_non_finite_state_reports_time():
    # x' = x^2 from x0 = 2 blows up at t = 0.5
    def square(x):
        return [a * a for a in x]

    cfg = IntegratorConfig(t_span=(0.0, 1.0), dt=1e-3, sample_dt=1e-2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteState) as err:
            integrate(square, [2.0], cfg)
    assert err.value.t == _first_non_finite_step(square, [2.0], cfg)[0]


def _first_non_finite_step(field, x0, cfg):
    """(time, sample interval, index in the interval) of the first rk4 step
    whose state is not finite, or whose stage raises ValueError: a plain loop
    over the run's sample grid that tests every step, as the runs report it."""
    times = cfg.t_span[0] + cfg.sample_dt * np.arange(cfg.intervals + 1)
    x = [float(a) for a in x0]
    for i, (t, target) in enumerate(zip(times.tolist(), times[1:].tolist())):
        dt = (target - t) / cfg.substeps
        half, sixth = 0.5 * dt, dt / 6.0
        for j in range(cfg.substeps):
            k1 = field(x)
            try:
                k2 = field([a + half * k for a, k in zip(x, k1)])
                k3 = field([a + half * k for a, k in zip(x, k2)])
                k4 = field([a + dt * k for a, k in zip(x, k3)])
            except ValueError:
                return t + (j + 1) * dt, i, j
            x = [
                a + sixth * (((p + 2.0 * q) + 2.0 * r) + s)
                for a, p, q, r, s in zip(x, k1, k2, k3, k4)
            ]
            if not all(map(math.isfinite, x)):
                return t + (j + 1) * dt, i, j
    raise AssertionError("the run stays finite")


def test_rkf45_accuracy():
    cfg = IntegratorConfig(t_span=(0.0, 1.0), dt=1e-2, sample_dt=0.1, method="rkf45")
    traj = integrate(decay, [1.0], cfg)
    assert abs(traj.states[-1, 0] - np.exp(-1.0)) < 1e-8


def test_rkf45_matches_rk4_on_stiff_system(sleigh):
    from nonholib.systems import sleigh_friction_field

    eps = 1e-2
    fld = sleigh_friction_field(sleigh, eps)
    st = [0.0, 0.0, 0.0, -1.0, 0.0, 0.5]
    a = integrate(fld, st, IntegratorConfig(t_span=(0.0, 1.0), dt=eps / 20, sample_dt=0.05))
    b = integrate(
        fld, st, IntegratorConfig(t_span=(0.0, 1.0), dt=1e-3, sample_dt=0.05, method="rkf45")
    )
    assert np.max(np.abs(a.states - b.states)) < 1e-8


def test_restrict_window():
    from nonholib.ode import restrict_window

    cfg = IntegratorConfig(t_span=(0.0, 2.0), dt=1e-2, sample_dt=0.1)
    traj = integrate(decay, [1.0], cfg)
    cut = restrict_window(traj, 0.5, 1.5)
    assert cut.times[0] >= 0.5 - 1e-12 and cut.times[-1] <= 1.5 + 1e-12
    assert len(cut) == 11
    with pytest.raises(OutOfRange):
        restrict_window(traj, 5.0, 6.0)


def test_rkf45_step_underflow():
    # derivative turns NaN once x crosses zero; every step gets rejected
    def bad(x):
        return np.array([-1.0]) if x[0] > 0 else np.array([np.nan])

    cfg = IntegratorConfig(t_span=(0.0, 2.0), dt=0.1, sample_dt=1.0, method="rkf45")
    with pytest.raises(StepUnderflow):
        integrate(bad, [1.0], cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(t_span=(1.0, 0.0))
    with pytest.raises(ValueError):
        IntegratorConfig(t_span=(0.0, 1.0), dt=-1e-3)
    with pytest.raises(ValueError):
        IntegratorConfig(t_span=(0.0, 1.0), sample_dt=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(t_span=(0.0, 1.0), method="euler")
    # sample_dt / dt overflows: no whole number of steps fits an interval
    with pytest.raises(ValueError, match="too small for sample_dt"):
        IntegratorConfig(t_span=(0.0, 1.0), dt=1e-320)
    # the last sample must land on t1: a whole number of intervals, within 1e-9
    for t_span, sample_dt in (((0.0, 1.005), 0.01), ((0.0, 0.05), 1.0), ((0.0, 1.0), 0.3)):
        with pytest.raises(ValueError, match="whole number"):
            IntegratorConfig(t_span=t_span, sample_dt=sample_dt)
    assert IntegratorConfig(t_span=(0.0, 1.0 + 1e-12), sample_dt=0.01).intervals == 100
    # (t1 - t0) / sample_dt overflows: no count of intervals to check
    for t_span, sample_dt in (((0.0, 1e308), 1e-308), ((-1e308, 1e308), 1e-2)):
        with pytest.raises(ValueError, match="too long for sample_dt"):
            IntegratorConfig(t_span=t_span, sample_dt=sample_dt)
    # the float spacing at 1e16 is 2: 1e16 + 1 rounds to 1e16
    with pytest.raises(ValueError, match="too fine for floats"):
        IntegratorConfig(t_span=(1e16, 1.0000000000000004e16), sample_dt=1.0)


def test_substeps_are_derived_from_dt_and_sample_dt():
    assert IntegratorConfig(t_span=(0.0, 1.0), dt=1e-3, sample_dt=1e-2).substeps == 10
    # a step longer than the interval takes one step per interval
    cfg = IntegratorConfig(t_span=(0.0, 1.0), dt=0.3, sample_dt=0.1)
    assert cfg.substeps == 1
    with pytest.raises(AttributeError):
        cfg.substeps = 2
    with pytest.raises(TypeError):
        IntegratorConfig(t_span=(0.0, 1.0), substeps=2)


def test_intervals_and_substeps_are_computed_once_per_config():
    cfg = IntegratorConfig(t_span=(1.0, 3.0), dt=1e-3, sample_dt=1e-2)
    assert (cfg.intervals, cfg.substeps) == (200, 10)
    # fields changed past the frozen guard move neither: both were computed
    # when the config was made, not on a read
    object.__setattr__(cfg, "t_span", (0.0, 1.0))
    object.__setattr__(cfg, "dt", 1e-4)
    assert (cfg.intervals, cfg.substeps) == (200, 10)
    # they are not fields: a dataclass derives nothing from them
    fresh = IntegratorConfig(t_span=(1.0, 3.0), dt=1e-3, sample_dt=1e-2)
    assert "intervals" not in {f.name for f in dataclasses.fields(fresh)}
    assert "substeps" not in repr(fresh)
    assert fresh == IntegratorConfig(t_span=(1.0, 3.0), dt=1e-3, sample_dt=1e-2)
    assert dataclasses.replace(fresh, t_span=(0.0, 1.0)).intervals == 100
    with pytest.raises(dataclasses.FrozenInstanceError):
        fresh.intervals = 3
    with pytest.raises(TypeError):
        IntegratorConfig(t_span=(0.0, 1.0), intervals=100)
    times = integrate(decay, [1.0], fresh).times
    assert len(times) == fresh.intervals + 1 and times[-1] == 1.0 + 200 * 1e-2


def test_rk4_run_longer_than_the_step_bound_is_refused_before_a_step():
    # 1e6 substeps on each of 1000 intervals is the bound itself
    at_bound = IntegratorConfig(t_span=(0.0, 10.0), dt=1e-8, sample_dt=1e-2)
    assert at_bound.substeps * 1000 == MAX_RK4_STEPS
    with pytest.raises(RunTooLong, match="rk4 steps"):
        dataclasses.replace(at_bound, dt=0.99e-8)
    # about 1e300 and 1e310 steps; the latter is past the largest float
    for dt in (1e-300, 1e-310):
        with pytest.raises(RunTooLong):
            IntegratorConfig(t_span=(0.0, 1.0), dt=dt)
    assert issubclass(RunTooLong, ValueError)
    # the bound is rk4's: rkf45 reads dt only as its first step
    rkf = IntegratorConfig(t_span=(0.0, 1.0), dt=1e-12, sample_dt=0.5, method="rkf45")
    assert len(integrate(decay, [1.0], rkf)) == 3


@pytest.mark.parametrize("method", ["rk4", "rkf45"])
def test_sample_grid_past_the_bound_is_refused_before_it_is_built(method):
    # MAX_SAMPLES - 1 intervals of one step each: MAX_SAMPLES samples
    at_bound = IntegratorConfig(
        t_span=(0.0, MAX_SAMPLES - 1), dt=1.0, sample_dt=1.0, method=method
    )
    assert at_bound.intervals + 1 == MAX_SAMPLES
    with pytest.raises(RunTooLong, match="samples"):
        dataclasses.replace(at_bound, t_span=(0.0, MAX_SAMPLES))
    with pytest.raises(RunTooLong, match="samples"):
        dataclasses.replace(at_bound, t_span=(0.0, 1e15))


def test_rk4_takes_the_configured_substeps_on_every_interval():
    # sample_dt / dt = 3.5 rounds to 4; rounding each interval's own length
    # over dt gave 3 on some intervals, a longer step than the one checked
    cfg = IntegratorConfig(t_span=(0.0, 10.0), dt=0.002857142857142857, sample_dt=1e-2)
    assert cfg.substeps == 4
    calls = [0]

    def counted(x):
        calls[0] += 1
        return decay(x)

    samples = len(integrate(counted, [1.0], cfg))
    # one evaluation per sample and 4 per step, 4 steps per interval
    assert calls[0] == samples + 4 * 4 * (samples - 1)


def test_empty_state_refused():
    with pytest.raises(ValueError, match="non-empty"):
        integrate(decay, [], IntegratorConfig(t_span=(0.0, 1.0)))


def test_non_finite_start_refused():
    with pytest.raises(ValueError, match="x0 must be finite"):
        integrate(decay, [1.0, math.inf], IntegratorConfig(t_span=(0.0, 1.0)))


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory([0.0, 0.0], [[1.0], [1.0]], [[0.0], [0.0]])  # not increasing
    with pytest.raises(ValueError):
        Trajectory([0.0, 1.0], [[1.0], [1.0]], [[0.0]])  # shape mismatch
    with pytest.raises(ValueError, match="1-d"):
        Trajectory([[0.0, 1.0]], [[1.0], [1.0]], [[0.0], [0.0]])  # 2-d times
    with pytest.raises(ValueError, match="len\\(times\\)"):
        Trajectory([0.0, 1.0], [[1.0], [1.0], [1.0]], [[0.0], [0.0], [0.0]])


def test_sample_at_one_sample_trajectory():
    traj = Trajectory([0.5], [[1.0, -2.0]], [[3.0, 4.0]])
    assert traj.sample_at(0.5).tolist() == [1.0, -2.0]
    assert traj.sample_at([0.5, 0.5]).tolist() == [[1.0, -2.0], [1.0, -2.0]]
    with pytest.raises(OutOfRange):
        traj.sample_at(0.6)


def test_trajectory_immutable():
    cfg = IntegratorConfig(t_span=(0.0, 1.0), dt=0.1, sample_dt=0.5)
    traj = integrate(decay, [1.0], cfg)
    with pytest.raises(ValueError):
        traj.states[0, 0] = 99.0


def test_transform_linear_consistency():
    cfg = IntegratorConfig(t_span=(0.0, 2.0), dt=1e-2, sample_dt=0.1)
    traj = integrate(harmonic, [1.0, 0.0], cfg)
    m = np.array([[2.0, 1.0]])
    mapped = transform_linear(traj, m)
    assert_allclose(mapped.states[:, 0], 2 * traj.states[:, 0] + traj.states[:, 1])
    assert_allclose(mapped.derivs[:, 0], 2 * traj.derivs[:, 0] + traj.derivs[:, 1])


# Reference loops: the integrators as whole-array numpy code, with the
# operation order the generated steppers in nonholib.ode must reproduce bit
# for bit.


def _numpy_rk4(field, x0, times, dt):
    def f(x):
        return np.asarray(field(x), dtype=float)

    x = np.array(x0, dtype=float)
    states, derivs = [x], [f(x)]
    for t_a, t_b in zip(times[:-1], times[1:]):
        span = t_b - t_a
        nsub = max(1, int(round(span / dt)))
        h = span / nsub
        for _ in range(nsub):
            k1 = f(x)
            k2 = f(x + 0.5 * h * k1)
            k3 = f(x + 0.5 * h * k2)
            k4 = f(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(x)
        derivs.append(f(x))
    return np.array(states), np.array(derivs)


def _numpy_rkf45(field, x0, times, cfg):
    """States, derivatives and the branch counts: steps rejected for their
    error, and steps halved because a stage state or the result was
    non-finite."""

    def f(x):
        return np.asarray(field(x), dtype=float)

    x = np.array(x0, dtype=float)
    states, derivs = [x], [f(x)]
    counts = {"rejected": 0, "non_finite_stage": 0, "non_finite_result": 0}
    h = min(cfg.dt, times[-1] - times[0])
    k = [None] * 6
    for t, target in zip(times[:-1], times[1:]):
        while t < target - 1e-14 * max(1.0, abs(target)):
            h = min(h, target - t)
            k[0] = f(x)
            ok = True
            for s in range(1, 6):
                xs = x + h * sum(a * k[j] for j, a in enumerate(_FE_A[s]))
                if not np.all(np.isfinite(xs)):
                    counts["non_finite_stage"] += 1
                    ok = False
                    break
                k[s] = f(xs)
            if ok:
                x4 = x + h * sum(b * k[j] for j, b in enumerate(_FE_B4))
                err_vec = h * sum(e * k[j] for j, e in enumerate(_FE_ERR))
                scale = RKF45_TOL + RKF45_TOL * np.maximum(np.abs(x), np.abs(x4))
                with np.errstate(invalid="ignore"):
                    err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
                ok = np.isfinite(err) and np.all(np.isfinite(x4))
                counts["non_finite_result"] += not ok
            if not ok:
                h *= 0.5
                continue
            if err <= 1.0:
                t += h
                x = x4
                h *= 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err**-0.2))
            else:
                counts["rejected"] += 1
                h *= max(0.2, 0.9 * err**-0.2)
        states.append(x)
        derivs.append(f(x))
    return np.array(states), np.array(derivs), counts


def _field_cases(eps):
    """name -> (field, initial state, rk4 step): one of each field shape the
    CLI integrates."""
    from nonholib.systems import (
        PendulumParams,
        SleighParams,
        get_system,
        make_pendulum,
        pendulum_default_state,
        sleigh_corrected_field,
        sleigh_friction_field,
    )

    p = SleighParams()
    return {
        "sleigh-friction": (
            sleigh_friction_field(p, eps),
            [0.1, -0.2, 0.3, -1.0, 0.02, 0.5],
            eps / 20,
        ),
        "sleigh-corrected": (
            sleigh_corrected_field(p, eps),
            [0.1, -0.2, 0.3, -1.0, 0.5],
            1e-3,
        ),
        # returns a tuple of 4 floats
        "pendulum-friction": (
            make_pendulum("friction", PendulumParams(), eps),
            pendulum_default_state(),
            eps / 20,
        ),
        # a declared text, written into the stages
        "pendulum-inertial": (
            make_pendulum("inertial", PendulumParams(), eps),
            [0.6, -0.8, 0.3, 0.2],
            eps / 20,
        ),
        # computes with numpy inside and returns an ndarray
        "pendulum-fast": (
            get_system("pendulum-friction").models["fast"].build({}, None),
            [0.6, -0.8, 0.3, 0.2],
            eps / 20,
        ),
    }


@pytest.mark.parametrize(
    "name", ["sleigh-friction", "sleigh-corrected", "pendulum-inertial", "pendulum-fast"]
)
def test_rk4_matches_numpy_reference_bitwise(name):
    field, x0, dt = _field_cases(2e-3)[name]
    cfg = IntegratorConfig(t_span=(0.0, 0.5), dt=dt, sample_dt=1e-2)
    traj = integrate(field, x0, cfg)
    states, derivs = _numpy_rk4(field, x0, traj.times, dt)
    assert traj.states.tobytes() == states.tobytes()
    assert traj.derivs.tobytes() == derivs.tobytes()


def _cubic_decay(x):
    # x' = -x^3: from x = 1e4 a step of 1e-3 overflows a stage state, so
    # the step is halved until it is stable, and grows again as x decays
    return [-a * a * a for a in x]


# the reference's branch counts that each case makes nonzero
RKF45_BRANCHES = {
    "pendulum-friction": {"rejected"},
    "pendulum-inertial": set(),
    "pendulum-fast": set(),
    "sleigh-friction": {"rejected"},
    "sleigh-corrected": set(),
    "blow-up": {"rejected", "non_finite_stage", "non_finite_result"},
}


@pytest.mark.parametrize("name", RKF45_BRANCHES)
def test_rkf45_matches_numpy_reference_bitwise(name):
    if name == "blow-up":
        field, x0 = _cubic_decay, [1e4, -3.0]
    else:
        field, x0, _ = _field_cases(4e-3)[name]
    cfg = IntegratorConfig(t_span=(0.0, 1.0), dt=1e-3, sample_dt=1e-2, method="rkf45")
    with np.errstate(over="ignore", invalid="ignore"):
        traj = integrate(field, x0, cfg)
        states, derivs, counts = _numpy_rkf45(field, x0, traj.times, cfg)
    assert traj.states.tobytes() == states.tobytes()
    assert traj.derivs.tobytes() == derivs.tobytes()
    assert {b for b, n in counts.items() if n} == RKF45_BRANCHES[name]


@pytest.mark.parametrize("method", ["rk4", "rkf45"])
def test_counting_wrapper_sees_one_evaluation_per_sample_and_each_stage(method):
    # perfbench's --trace 1 counts a run's evaluations through such a
    # wrapper, and pins its rk4 counts; a called field is evaluated once per
    # sample, four times per rk4 step and six times per Fehlberg attempt
    from nonholib.systems import PendulumParams, make_pendulum, pendulum_default_state

    field = make_pendulum("friction", PendulumParams(), 4e-3)
    calls = [0]

    def counted(x):
        calls[0] += 1
        return field(x)

    cfg = IntegratorConfig(t_span=(0.0, 1.0), dt=2e-4, sample_dt=1e-2, method=method)
    integrate(counted, pendulum_default_state(), cfg)
    if method == "rk4":
        assert calls[0] == cfg.intervals + 1 + 4 * cfg.substeps * cfg.intervals
    else:
        assert calls[0] == 4277  # 101 samples and 696 attempts


_TICKED_DECAY = """
def ticked_decay(st):
    (x,) = st
    y = tick(x)
    return (-y,)
"""


@pytest.mark.parametrize("method", ["rk4", "rkf45"])
def test_text_runs_take_the_first_stage_from_the_sample(method):
    calls = [0]

    def tick(x):
        calls[0] += 1
        return x

    field = ode.straight_line(_TICKED_DECAY, tick=tick)
    cfg = IntegratorConfig(t_span=(0.0, 1.0), dt=2e-2, sample_dt=0.1, method=method)
    called = integrate(lambda x: field(x), [1.0], cfg)
    through_calls, calls[0] = calls[0], 0
    inlined = integrate(field, [1.0], cfg)
    assert inlined.states.tobytes() == called.states.tobytes()
    assert inlined.derivs.tobytes() == called.derivs.tobytes()
    samples = cfg.intervals + 1
    if method == "rk4":
        # the sample's evaluation is the first stage of the next step
        steps = cfg.substeps * cfg.intervals
        assert (through_calls, calls[0]) == (samples + 4 * steps, samples + 4 * steps - cfg.intervals)
    else:
        # one evaluation per accepted state, which every attempt from it
        # reuses, and five more per attempt
        attempts, rest = divmod(through_calls - samples, 6)
        accepted = calls[0] - 1 - 5 * attempts
        assert rest == 0 and cfg.intervals <= accepted <= attempts


_CUBIC_DECAY = """
def cubic_decay(st):
    x, y = st
    return (-x * x * x, -y * y * y)
"""


@pytest.mark.parametrize("name", ["pendulum-friction", "blow-up"])
def test_fehlberg_text_runs_match_the_called_path_bitwise(name):
    if name == "blow-up":
        # _cubic_decay as a text: halvings for non-finite stage states
        field, x0 = ode.straight_line(_CUBIC_DECAY), [1e4, -3.0]
    else:
        field, x0, _ = _field_cases(4e-3)[name]
    assert text_of(field) is not None
    cfg = IntegratorConfig(t_span=(0.0, 1.0), dt=1e-3, sample_dt=1e-2, method="rkf45")
    with np.errstate(over="ignore", invalid="ignore"):
        inlined = integrate(field, x0, cfg)
        called = integrate(lambda x: field(x), x0, cfg)
        _, _, counts = _numpy_rkf45(field, x0, inlined.times, cfg)
    assert inlined.states.tobytes() == called.states.tobytes()
    assert inlined.derivs.tobytes() == called.derivs.tobytes()
    assert {b for b, n in counts.items() if n} == RKF45_BRANCHES[name]
    # no zero-coefficient term and no 0 to start a sum or the error norm
    for text in (text_of(field), None):
        source = _source(ode._stepper("rkf45", len(x0), text))
        assert not [term for term in ("0.0 * k", "(0 + ", "(0.0 + ") if term in source]


@pytest.mark.parametrize("method", ["rk4", "rkf45"])
def test_trajectory_arrays_from_the_run_buffers_are_read_only_float64(method):
    cfg = IntegratorConfig(t_span=(0.0, 1.0), dt=1e-2, sample_dt=0.1, method=method)
    traj = integrate(decay, [1.0, 2.0, 3.0], cfg)
    for arr in (traj.states, traj.derivs):
        assert arr.dtype == np.float64 and arr.shape == (11, 3)
        assert arr.flags.c_contiguous and not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 99.0


def _coupled_field(n):
    """k_i = sin(x_{i+1}) - c_i x_i, indices mod n: every component feeds the
    next.  Returns a tuple for odd n and an ndarray for even n."""
    c = [0.5 + 0.75 * i for i in range(n)]

    def field(x):
        k = tuple(math.sin(x[(i + 1) % n]) - c[i] * x[i] for i in range(n))
        return k if n % 2 else np.array(k)

    return field


def _coupled_start(n):
    return [(-1.0) ** i * (0.3 + 0.2 * i) for i in range(n)]


# from 8 components on, numpy's mean sums pairwise and is no reference
@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("method", ["rk4", "rkf45"])
def test_generated_steppers_match_numpy_reference_bitwise(method, n):
    field, x0 = _coupled_field(n), _coupled_start(n)
    cfg = IntegratorConfig(t_span=(0.0, 2.0), dt=5e-2, sample_dt=0.1, method=method)
    traj = integrate(field, x0, cfg)
    if method == "rk4":
        states, derivs = _numpy_rk4(field, x0, traj.times, cfg.dt)
    else:
        states, derivs, _ = _numpy_rkf45(field, x0, traj.times, cfg)
    assert traj.states.tobytes() == states.tobytes()
    assert traj.derivs.tobytes() == derivs.tobytes()


def test_stepper_cache_is_thread_safe():
    # four threads race to generate the same uncached steppers
    ode._stepper.cache_clear()
    field, x0 = _coupled_field(3), _coupled_start(3)
    cfgs = [
        IntegratorConfig(t_span=(0.0, 1.0), dt=1e-2, sample_dt=0.1, method=method)
        for method in ("rk4", "rkf45")
    ]
    barrier = threading.Barrier(4)
    results = [None] * 4

    def run(i):
        barrier.wait(timeout=60)
        results[i] = [integrate(field, x0, cfg) for cfg in cfgs]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often inside the generation
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    expected = [integrate(field, x0, cfg) for cfg in cfgs]
    for result in results:
        for got, want in zip(result, expected):
            assert got.states.tobytes() == want.states.tobytes()
            assert got.derivs.tobytes() == want.derivs.tobytes()


@pytest.mark.parametrize("method", ["rk4", "rkf45"])
def test_generated_stepper_source_in_tracebacks(method):
    calls = [0]

    def flaky(x):
        calls[0] += 1
        if calls[0] == 50:
            raise KeyError("lookup failed mid-run")
        return [-a for a in x]

    cfg = IntegratorConfig(t_span=(0.0, 1.0), dt=1e-2, sample_dt=0.1, method=method)
    with pytest.raises(KeyError, match="mid-run") as err:
        integrate(flaky, [1.0, 2.0, 3.0], cfg)
    [frame] = [
        f for f in traceback.extract_tb(err.tb) if f.filename == f"nonholib.ode {method} n=3"
    ]
    assert "= field(" in frame.line
    source = _source(ode._stepper(method, 3))
    assert source.startswith(f"def {method}_n3(field, x, ts, cfg):\n")
    assert source.splitlines()[frame.lineno - 1].strip() == frame.line


def test_non_finite_stage_state_reports_time():
    # math.cos of an infinite stage angle raises ValueError inside the field
    from nonholib.systems import SleighParams, sleigh_nh_field

    cfg = IntegratorConfig(t_span=(0.0, 1.0), dt=1e-3, sample_dt=1e-2)
    with pytest.raises(NonFiniteState) as err:
        integrate(sleigh_nh_field(SleighParams()), [0, 0, 0, 1e150, 1e150], cfg)
    assert err.value.t == pytest.approx(1e-3)


def test_field_errors_on_finite_states_propagate():
    def broken(x):
        raise ValueError("not a blow-up")

    for method in ("rk4", "rkf45"):
        cfg = IntegratorConfig(t_span=(0.0, 1.0), method=method)
        with pytest.raises(ValueError, match="not a blow-up"):
            integrate(broken, [1.0], cfg)


def _source(step):
    """A generated run's source, read through its loader as a traceback
    does, since a linecache.clearcache() leaves inspect without its lines."""
    return "".join(linecache.getlines(step.__code__.co_filename, step.__globals__))


_FIRST_STAGE_FAILS = """
def first_stage_fails(st):
    (x,) = st
    y = second_call_fails(x)
    return (-y,)
"""


def _first_stage_failing_field():
    calls = [0]

    def second_call_fails(x):
        calls[0] += 1
        # the first step's first stage, or for a text (whose first stage
        # is the sample's derivative) its second
        if calls[0] == 2:
            raise ValueError("not a blow-up")
        return x

    return ode.straight_line(_FIRST_STAGE_FAILS, second_call_fails=second_call_fails)


_KICKED = """
def kicked(st):
    (x,) = st
    y = kick(x)
    return (y,)
"""


def _kicked_field(values):
    """A field whose k-th evaluation gives values[k], or raises it."""
    calls = iter(values)

    def kick(x):
        value = next(calls)
        if isinstance(value, Exception):
            raise value
        return value

    return ode.straight_line(_KICKED, kick=kick)


@pytest.mark.parametrize("inlined", [False, True])
def test_field_error_after_an_overflowed_stage_propagates(inlined):
    # two steps of dt = 4 in one sample interval: the first step's third
    # stage, 8e307, sends its fourth stage state to inf while the step
    # stays finite (4/6 * 1.6e308); the second step's first stage fails on
    # that finite state.  A called field is evaluated once more, at the
    # sample, before the first step's first stage; a text's first stage is
    # that evaluation
    values = [0.0, 0.0, 8e307, 0.0, ValueError("not a blow-up")]
    inner = _kicked_field([0.0] * (not inlined) + values)
    field = inner if inlined else (lambda x: inner(x))
    assert (text_of(field) is not None) == inlined
    cfg = IntegratorConfig(t_span=(0.0, 8.0), dt=4.0, sample_dt=8.0)
    with pytest.raises(ValueError, match="not a blow-up"):
        integrate(field, [0.0], cfg)


@pytest.mark.parametrize("inlined", [False, True])
def test_field_error_on_first_stage_propagates(inlined):
    for method in ("rk4", "rkf45"):
        inner = _first_stage_failing_field()
        field = inner if inlined else (lambda x: inner(x))
        assert (text_of(field) is not None) == inlined
        cfg = IntegratorConfig(t_span=(0.0, 1.0), method=method)
        with pytest.raises(ValueError, match="not a blow-up"):
            integrate(field, [1.0], cfg)


def test_sample_at_exact_on_cubic_trajectories():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    coeff = st.floats(-10.0, 10.0)

    @hyp.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hyp.given(
        coeffs=st.lists(st.tuples(coeff, coeff, coeff, coeff), min_size=1, max_size=3),
        gaps=st.lists(st.floats(0.05, 2.0), min_size=1, max_size=6),
        t0=st.floats(-5.0, 5.0),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10),
    )
    def check(coeffs, gaps, t0, fractions):
        c = np.array(coeffs).T  # (4, dim): x(t) = c0 + c1 t + c2 t^2 + c3 t^3
        times = t0 + np.concatenate([[0.0], np.cumsum(gaps)])

        def x(t):
            return np.polynomial.polynomial.polyval(t, c).T

        def xdot(t):
            return np.polynomial.polynomial.polyval(t, c[1:] * [[1.0], [2.0], [3.0]]).T

        traj = Trajectory(times, x(times), xdot(times))
        tq = times[0] + np.array(fractions) * (times[-1] - times[0])
        scale = 1.0 + np.max(np.abs(traj.states)) + np.max(np.abs(traj.derivs)) * max(gaps)
        assert_allclose(traj.sample_at(tq), x(tq), rtol=0, atol=1e-12 * scale)

    check()


# Fields declared as straight-line texts are inlined into the stepper;
# every other field is called.


def _inlined_fields():
    """name -> (field, default state) of each field text that a model of the
    registry builds, named after its text with - for _: the CLI fields the
    steppers inline."""
    from nonholib.systems import REGISTRY

    fields = {}
    for entry in REGISTRY.values():
        for spec in entry.models.values():
            field = spec.build(entry.param_defaults, 4e-3)
            if text_of(field) is not None:
                fields[field.__name__.replace("_", "-")] = (field, list(spec.default_state))
    return fields


def _called_fields():
    """name -> (field, state size) of fields the steppers call."""
    from nonholib import dynamics
    from nonholib.systems import (
        SleighParams,
        get_system,
        sleigh_friction_field,
        sleigh_friction_form,
        sleigh_system,
        sleigh_uvw_frame,
    )

    p = SleighParams()
    friction = sleigh_friction_field(p, 4e-3)
    counts = [0]

    def counted(x):  # the shape of perfbench's tracing wrapper
        counts[0] += 1
        return friction(x)

    @functools.wraps(friction)
    def wrapped(x):  # takes the field's name and attributes, not its code
        return friction(x)

    generic = dynamics.friction_field(
        sleigh_system(p), sleigh_uvw_frame(p), sleigh_friction_form(p), 4e-3
    )
    return {
        "pendulum-fast": (get_system("pendulum-friction").models["fast"].build({}, None), 4),
        "dynamics-friction": (generic, 6),
        "lambda": (lambda x: friction(x), 6),
        "counting-wrapper": (counted, 6),
        "functools-wrapper": (wrapped, 6),
    }


@pytest.mark.parametrize("method", ["rk4", "rkf45"])
@pytest.mark.parametrize("name", sorted(_inlined_fields()))
def test_straight_line_fields_are_inlined(name, method):
    field, x0 = _inlined_fields()[name]
    n = len(x0)
    step = ode._stepper(method, n, text_of(field))
    assert "field(" not in _source(step)
    assert step.__code__.co_filename == f"nonholib.ode {method} n={n} {field.__name__}"


@pytest.mark.parametrize("n", range(1, 8))
def test_rkf45_error_norm_and_step_control_call_no_builtin(n):
    # min, max and abs are written out as conditional expressions; the
    # numpy reference pins their values
    source = _source(ode._stepper("rkf45", n))
    assert not [name for name in ("min(", "max(", "abs(") if name in source]


@pytest.mark.parametrize("method", ["rk4", "rkf45"])
@pytest.mark.parametrize("name", sorted(_called_fields()))
def test_other_fields_are_called(name, method):
    field, n = _called_fields()[name]
    assert text_of(field) is None
    assert "= field(xs)" in _source(ode._stepper(method, n))


@pytest.mark.parametrize("method", ["rk4", "rkf45"])
def test_one_inlined_stepper_serves_every_eps_bitwise(method):
    from nonholib.systems import SleighParams, sleigh_friction_field

    x0 = [0.1, -0.2, 0.3, -1.0, 0.02, 0.5]
    fields = [sleigh_friction_field(SleighParams(), eps) for eps in (8e-3, 2e-3)]
    assert fields[0].__code__ is fields[1].__code__
    for field, eps in zip(fields, (8e-3, 2e-3)):
        cfg = IntegratorConfig(t_span=(0.0, 0.3), dt=eps / 20, sample_dt=1e-2, method=method)
        traj = integrate(field, x0, cfg)
        if method == "rk4":
            states, derivs = _numpy_rk4(field, x0, traj.times, cfg.dt)
        else:
            states, derivs, _ = _numpy_rkf45(field, x0, traj.times, cfg)
        assert traj.states.tobytes() == states.tobytes()
        assert traj.derivs.tobytes() == derivs.tobytes()
    hits = ode._stepper.cache_info().hits
    ode._stepper(method, 6, text_of(fields[1]))
    assert ode._stepper.cache_info().hits == hits + 1


_DAMPED_ROOT = """
def damped_root(st):
    x, v = st
    r = math.sqrt(x - limit)  # a finite stage below the limit: ValueError
    return (v, -r - v)
"""


def test_inlined_field_errors_on_finite_states_propagate():
    field = ode.straight_line(_DAMPED_ROOT, math=math, limit=0.0)
    assert text_of(field) is not None
    for method in ("rk4", "rkf45"):
        cfg = IntegratorConfig(t_span=(0.0, 5.0), dt=1e-2, sample_dt=0.1, method=method)
        with pytest.raises(ValueError, match="math domain error") as err:
            integrate(field, [1.0, -3.0], cfg)
        assert err.value.__class__ is ValueError


@pytest.mark.parametrize("method", ["rk4", "rkf45"])
@pytest.mark.parametrize(
    "name, x0",
    [("sleigh-nh", [0, 0, 0, 1e150, 1e150]), ("sleigh-friction", [0, 0, 0, 1e150, 0, 1e150])],
)
def test_inlined_blow_up_matches_call_path(name, x0, method):
    field, _ = _inlined_fields()[name]
    cfg = IntegratorConfig(t_span=(0.0, 1.0), dt=1e-3, sample_dt=1e-2, method=method)
    outcomes = []
    for f in (field, lambda x: field(x)):
        with pytest.raises((NonFiniteState, StepUnderflow)) as err:
            integrate(f, x0, cfg)
        outcomes.append((type(err.value), str(err.value), getattr(err.value, "t", None)))
    assert outcomes[0] == outcomes[1]


def test_inlined_pendulum_reaching_origin_mid_run():
    # free fall down the y axis: with g and the friction negligible, every
    # stage has vy = -1 exactly and y drops by dt per step, so the last
    # stage of the step from y = dt lands on the origin
    from nonholib.systems import OriginSingularity, PendulumParams, make_pendulum

    field = make_pendulum("friction", PendulumParams(g=1e-300), 1e300)
    dt = 2.0**-6
    cfg = IntegratorConfig(t_span=(0.0, 1.0), dt=dt, sample_dt=4 * dt)
    with pytest.raises(OriginSingularity) as err:
        integrate(field, [0.0, 20 * dt, 0.0, -1.0], cfg)
    [(frame, summary)] = [
        (tb.tb_frame, summary)
        for tb, summary in zip(_tracebacks(err.tb), traceback.extract_tb(err.tb))
        if summary.filename.startswith("nonholib.ode")
    ]
    assert summary.filename == "nonholib.ode rk4 n=4 pendulum_friction"
    assert "f__origin(" in summary.line
    # the 20th step, the last of the fifth sample interval
    assert (frame.f_locals["t"], frame.f_locals["j"]) == (16 * dt, 3)


def _tracebacks(tb):
    while tb is not None:
        yield tb
        tb = tb.tb_next


def _step_source(source):
    """The lines of a generated rk4 run or replay that take one step, from
    its first stage to its last state update, without the sample's
    whole-text lines."""
    lines = source.splitlines(True)
    start = next(i for i, line in enumerate(lines) if line.strip().startswith("for j in range("))
    end = max(i for i, line in enumerate(lines) if " + sixth * (" in line)
    return "".join(lines[start : end + 1])


_LOOKUP = """
def lookup(st):
    (x,) = st
    y = failing_lookup(x, limit)
    return (-y,)
"""


def _failing_lookup(x, limit):
    if x < limit:
        raise KeyError("lookup failed mid-run")
    return x


@pytest.mark.parametrize("method", ["rk4", "rkf45"])
@pytest.mark.parametrize("inlined", [False, True])
def test_stepper_source_survives_linecache_clear(method, inlined):
    inner = ode.straight_line(_LOOKUP, failing_lookup=_failing_lookup, limit=0.5)
    field = inner if inlined else (lambda x: inner(x))
    step = ode._stepper(method, 1, text_of(field))
    linecache.clearcache()
    # inspect finds no module for the stepper's file name, so it reads no
    # other module's lines; the traceback below reads them back
    with pytest.raises(OSError, match="source code not available"):
        inspect.getsource(step)
    cfg = IntegratorConfig(t_span=(0.0, 2.0), dt=1e-2, sample_dt=0.1, method=method)
    with pytest.raises(KeyError, match="mid-run") as err:
        integrate(field, [1.0], cfg)
    [frame] = [f for f in traceback.extract_tb(err.tb) if f.filename == step.__code__.co_filename]
    assert ("f_failing_lookup(" if inlined else "= field(xs)") in frame.line
    source = inspect.getsource(step)
    assert source.startswith(f"def {method}_n1(")
    assert source.splitlines()[frame.lineno - 1].strip() == frame.line


_SCALED_DECAY = """
def scaled_decay(st):
    (x,) = st
    return (-k * x,)
"""


def test_declared_constants_checked_when_built():
    assert ode.straight_line(_SCALED_DECAY, k=2.0)([3.0]) == (-6.0,)
    with pytest.raises(TypeError, match="'k'"):
        ode.straight_line(_SCALED_DECAY)
    with pytest.raises(TypeError, match="'c'"):
        ode.straight_line(_SCALED_DECAY, k=2.0, c=1.0)


@pytest.mark.parametrize(
    "text",
    [
        "def f(st):\n    x, v = st\n    return (v, -k * st[0])\n",  # reads st again
        "def f(st):\n    x, v = st\n    x = k * x\n    return (v, -x)\n",  # assigns x
        "def f(st):\n    x, v = st\n    y = z\n    z = k * x\n    return (v, y)\n",  # z first
        "def f(st):\n    x, v = st\n    k * x\n    return (v, -x)\n",  # no assignment
        "def f(st):\n    x, v = st\n    return (v, -k * x, 0.0)\n",  # three results
        "@staticmethod\ndef f(st):\n    x, v = st\n    return (v, -k * x)\n",  # decorated
    ],
)
def test_malformed_texts_refused_when_declared(text):
    with pytest.raises(ValueError, match="not a straight-line field"):
        ode.straight_line(text, k=2.0)


def test_a_field_name_declares_one_text():
    # so a field's maker and its steppers never share a linecache file with
    # those of another text
    _kicked_field([0.0])
    with pytest.raises(ValueError, match="'kicked'"):
        ode.straight_line(_KICKED.replace("(y,)", "(-y,)"), kick=abs)


def test_called_declared_field_traceback_shows_its_line():
    # a wrapper calls the declared field itself, which runs its maker's lines
    field = _kicked_field([KeyError("lookup failed mid-run")])
    linecache.clearcache()
    with pytest.raises(KeyError, match="mid-run") as err:
        integrate(lambda x: field(x), [1.0], IntegratorConfig(t_span=(0.0, 1.0)))
    [run, frame] = [f for f in traceback.extract_tb(err.tb) if f.filename.startswith("nonholib.ode")]
    assert (run.filename, run.name, run.line) == ("nonholib.ode rk4 n=1", "rk4_n1", "k1_0, = field(xs)")
    assert (frame.filename, frame.name, frame.line) == ("nonholib.ode kicked", "kicked", "y = kick(x)")
    # the run of the text writes the line into its first sample
    field = _kicked_field([KeyError("lookup failed mid-run")])
    linecache.clearcache()
    with pytest.raises(KeyError, match="mid-run") as err:
        integrate(field, [1.0], IntegratorConfig(t_span=(0.0, 1.0)))
    [frame] = [f for f in traceback.extract_tb(err.tb) if f.filename.startswith("nonholib.ode")]
    assert (frame.filename, frame.name, frame.line) == (
        "nonholib.ode rk4 n=1 kicked",
        "rk4_n1",
        "f_y = f_kick(a0)",
    )


# The rows some rate of each text reads, from the texts: the sleigh's x and
# y (rows 0 and 1) are read by no rate, and every pendulum row is read by
# some rate.
_ROWS_READ = {
    "sleigh-nh": {2, 3, 4},
    "sleigh-friction": {2, 3, 4, 5},
    "sleigh-corrected": {2, 3, 4},
    "pendulum-friction": {0, 1, 2, 3},
    "pendulum-inertial": {0, 1, 2, 3},
    "pendulum-potential": {0, 1, 2, 3},
    "pendulum-nh": {0, 1, 2, 3},
}


@pytest.mark.parametrize("name", sorted(_ROWS_READ))
def test_rows_each_rate_reads(name):
    field, _ = _inlined_fields()[name]
    assert ode._rows_read(text_of(field)) == _ROWS_READ[name]


_DEAD_LOCAL = """
def dead_local(st):
    x, y, z = st
    w = k * y
    unread = x + z
    return (w, -w, k)
"""


def test_rows_read_follows_only_the_statements_the_rates_need():
    # no rate reads `unread`, so x and z are read by no rate
    assert ode._rows_read(text_of(ode.straight_line(_DEAD_LOCAL, k=2.0))) == {1}


def test_inlined_fields_are_the_declared_registry_texts():
    assert sorted(_inlined_fields()) == sorted(_ROWS_READ)


@pytest.mark.parametrize("method", ["rk4", "rkf45"])
@pytest.mark.parametrize("name", sorted(_inlined_fields()))
def test_rows_no_one_reads_are_left_out_of_rk4_runs(name, method):
    field, x0 = _inlined_fields()[name]
    n = len(x0)
    cfg = IntegratorConfig(t_span=(0.0, 0.3), dt=2e-4, sample_dt=1e-2, method=method)
    whole = integrate(field, x0, cfg)
    assert not np.isnan(whole.states).any()
    for row in range(n):
        part = integrate(field, x0, cfg, read=(row,))
        # the Fehlberg error norm reads every row
        kept = sorted(_ROWS_READ[name] | {row}) if method == "rk4" else list(range(n))
        left_out = sorted(set(range(n)) - set(kept))
        assert part.states[:, kept].tobytes() == whole.states[:, kept].tobytes()
        assert part.derivs.tobytes() == whole.derivs.tobytes()
        assert np.isnan(part.states[:, left_out]).all()


def test_restricted_stepper_serves_every_eps():
    from nonholib.systems import SleighParams, sleigh_friction_field

    x0 = [0.1, -0.2, 0.3, -1.0, 0.02, 0.5]
    cfg = IntegratorConfig(t_span=(0.0, 0.1), dt=1e-4, sample_dt=1e-2)
    integrate(sleigh_friction_field(SleighParams(), 8e-3), x0, cfg, read=(3, 4))
    before = ode._stepper.cache_info()
    integrate(sleigh_friction_field(SleighParams(), 2e-3), x0, cfg, read=(3, 4))
    after = ode._stepper.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    step = ode._stepper("rk4", 6, _SLEIGH_FRICTION, 2, 3, 4, 5)
    assert ode._stepper.cache_info().hits == after.hits + 1
    assert step.__code__.co_filename == "nonholib.ode rk4 n=6 sleigh_friction rows 2,3,4,5"
    # the sin and cos of phi went with the x and y rates: only the whole
    # text at each sample computes them, for the derivative columns
    source = _source(step)
    assert "field(" not in source and "f_math" not in _step_source(source)
    assert source.count("f_math.sin(a2)") == 2


def test_rk4_stages_store_only_the_state_their_lines_load():
    def source(*key):
        return _source(ode._stepper(*key))

    # no kept rate of the restricted sleigh friction stepper reads phi, and
    # no sleigh rate reads x or y
    restricted = source("rk4", 6, _SLEIGH_FRICTION, 2, 3, 4, 5)
    whole = source("rk4", 6, _SLEIGH_FRICTION)
    assert "s2 = " not in restricted and "s3 = " in restricted
    assert "s0 = " not in whole and "s1 = " not in whole and "s2 = " in whole
    # rkf45's finite test decides the halving, so it keeps every stage state
    fehlberg = source("rkf45", 6, _SLEIGH_FRICTION)
    assert "s0 = " in fehlberg and "s1 = " in fehlberg


def test_restricted_stepper_keeps_what_its_results_need():
    source = _source(ode._stepper("rk4", 5, _SLEIGH_CORRECTED, 2, 3, 4))
    assert "    _, _, a2, a3, a4, = x\n" in source
    step = _step_source(source)
    assert "                f_h1 = f_nsl * a3 * a4\n" in step
    assert "k1_2 = " in step and "k1_0" not in step and "k1_1" not in step
    assert "f_math" not in step
    # each sample stores NaN in the left-out places and the whole derivative
    assert source.count("pack(states, o, nan, nan, a2, a3, a4)\n") == 2
    assert source.count("pack(derivs, o, k1_0, k1_1, k1_2, k1_3, k1_4)\n") == 2


def test_restricted_blow_up_traceback_shows_the_restricted_stepper():
    field, _ = _inlined_fields()["sleigh-friction"]
    cfg = IntegratorConfig(t_span=(0.0, 1.0), dt=1e-3, sample_dt=1e-2)
    with pytest.raises(NonFiniteState) as err:
        integrate(field, [0, 0, 0, 1e150, 0, 1e150], cfg, read=(3, 4))
    assert err.value.t == pytest.approx(1e-3)
    step = ode._stepper("rk4", 6, _SLEIGH_FRICTION, 2, 3, 4, 5)
    [frame] = [f for f in traceback.extract_tb(err.tb) if f.filename.startswith("nonholib.ode")]
    assert frame.filename == "nonholib.ode rk4 n=6 sleigh_friction rows 2,3,4,5"
    assert frame.line == "raise NonFiniteState(t + (j + 1) * dt)"
    assert _source(step).splitlines()[frame.lineno - 1].strip() == frame.line


_CONSTANT_RATES = """
def constant_rates(st):
    x, y = st
    return (c, -c)
"""


def test_runs_keeping_no_row_or_every_row_use_the_whole_stepper():
    # no rate reads a row: read=() keeps none, and read=(0, 1) keeps both
    field = ode.straight_line(_CONSTANT_RATES, c=0.5)
    cfg = IntegratorConfig(t_span=(0.0, 1.0), dt=1e-2, sample_dt=0.1)
    whole = integrate(field, [1.0, 2.0], cfg)
    misses = ode._stepper.cache_info().misses
    for read in ((), (0, 1)):
        run = integrate(field, [1.0, 2.0], cfg, read=read)
        assert run.states.tobytes() == whole.states.tobytes()
        assert run.derivs.tobytes() == whole.derivs.tobytes()
    # both took the whole stepper, cached by the first run
    assert ode._stepper.cache_info().misses == misses
    step = ode._stepper("rk4", 2, text_of(field))
    assert step.__code__.co_filename == "nonholib.ode rk4 n=2 constant_rates"


def test_called_fields_and_unread_runs_integrate_every_row():
    field, _ = _inlined_fields()["sleigh-friction"]
    x0 = [0.1, -0.2, 0.3, -1.0, 0.02, 0.5]
    cfg = IntegratorConfig(t_span=(0.0, 0.3), dt=2e-4, sample_dt=1e-2)
    whole = integrate(field, x0, cfg)
    for f, r in ((lambda x: field(x), (3, 4)), (field, None)):
        run = integrate(f, x0, cfg, read=r)
        assert run.states.tobytes() == whole.states.tobytes()
        assert run.derivs.tobytes() == whole.derivs.tobytes()


def test_read_rows_outside_the_state_refused():
    field, _ = _inlined_fields()["sleigh-nh"]
    with pytest.raises(ValueError, match="outside a state of 5"):
        integrate(field, [0.0, 0.0, 0.0, -1.0, 0.5], IntegratorConfig(t_span=(0, 1)), read=(5,))


def test_transform_linear_bitwise_on_finite_input_and_nan_only_where_read():
    rng = np.random.default_rng(3)
    states, derivs = rng.normal(size=(2, 9, 4))
    traj = Trajectory(np.arange(9.0), states, derivs)
    m = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.5, 2.0, 0.0], [0.0, 0.0, 0.7, 1.3]])
    mapped = transform_linear(traj, m)

    def documented_sum(x):  # each row's nonzero entries, left to right
        return np.stack(
            [x[:, 0] * 1.0, x[:, 1] * 0.5 + x[:, 2] * 2.0, x[:, 2] * 0.7 + x[:, 3] * 1.3],
            axis=1,
        )

    assert mapped.states.tobytes() == documented_sum(states).tobytes()
    assert mapped.derivs.tobytes() == documented_sum(derivs).tobytes()
    # the sum starts from the first product, so a negative zero survives
    signed = transform_linear(Trajectory(np.zeros(1), -np.zeros((1, 4)), np.zeros((1, 4))), m)
    assert np.signbit(signed.states).all()
    # column 1 NaN throughout, column 3 at one sample: only outputs whose map
    # row reads that column (and, for column 3, only at that sample) are NaN
    holed = states.copy()
    holed[:, 1] = np.nan
    holed[4, 3] = np.nan
    out = transform_linear(Trajectory(traj.times, holed, derivs), m).states
    nan = np.zeros(out.shape, dtype=bool)
    nan[:, 1] = True
    nan[4, 2] = True
    assert (np.isnan(out) == nan).all()
    assert out[~nan].tobytes() == mapped.states[~nan].tobytes()


_SQUARE_AND_CLOCK = """
def square_and_clock(st):
    x, clock = st
    return (x * x, one)
"""


@pytest.mark.parametrize("inlined", [True, False])
def test_blow_up_mid_interval_reports_its_step(inlined):
    # the run tests its state once per sample interval; the replay of the
    # failed interval finds the step.  No stage raises: x * x overflows to inf
    inner = ode.straight_line(_SQUARE_AND_CLOCK, one=1.0)
    field = inner if inlined else (lambda x: inner(x))
    cfg = IntegratorConfig(t_span=(0.0, 1.0), dt=1e-3, sample_dt=1e-2)
    t, _, j = _first_non_finite_step(inner, [2.2, 0.0], cfg)
    assert 0 < j < cfg.substeps - 1
    with pytest.raises(NonFiniteState) as err:
        integrate(field, [2.2, 0.0], cfg, read=(0,))
    assert err.value.t == t
    [frame] = [f for f in traceback.extract_tb(err.tb) if f.filename.startswith("nonholib.ode")]
    run = "nonholib.ode rk4 n=2" + (" square_and_clock rows 0" if inlined else "")
    assert frame.filename == run


_SQUARE_CHAIN = """
def square_chain(st):
    x, w1, w2, w3, y, clock = st
    return (x * x, x, w1, w2, math.cos(w3), one)
"""


@pytest.mark.parametrize("inlined", [True, False])
def test_blow_up_before_a_stage_error_reports_the_first_non_finite_step(inlined):
    # x overflows to inf within a step, while the chain x -> w1 -> w2 -> w3
    # keeps every stage of that step finite; w3 is inf after it, so the next
    # step's first stage raises ValueError (math.cos(inf)) in the run, which
    # then replays the interval for the step where the state went non-finite
    raised = []

    def cos(w):
        try:
            return math.cos(w)
        except ValueError:
            raised.append(w)
            raise

    inner = ode.straight_line(_SQUARE_CHAIN, math=types.SimpleNamespace(cos=cos), one=1.0)
    field = inner if inlined else (lambda x: inner(x))
    cfg = IntegratorConfig(t_span=(0.0, 1.0), dt=1e-3, sample_dt=1e-2)
    x0 = [2.2, 0.0, 0.0, 0.0, 0.0, 0.0]
    t, _, j = _first_non_finite_step(inner, x0, cfg)
    assert j < cfg.substeps - 1 and not raised
    with pytest.raises(NonFiniteState) as err:
        integrate(field, x0, cfg, read=(4,))
    assert err.value.t == t and raised
    assert len([f for f in traceback.extract_tb(err.tb) if f.filename.startswith("nonholib.ode")]) == 1


@pytest.mark.parametrize("inlined", [True, False])
@pytest.mark.parametrize(
    "text, consts, x0, error",
    [
        (_LOOKUP, dict(failing_lookup=_failing_lookup, limit=0.5), [1.0], KeyError),
        (_DAMPED_ROOT, dict(math=math, limit=0.0), [1.0, -3.0], ValueError),
    ],
    ids=["lookup", "damped-root"],
)
def test_field_error_on_a_finite_state_shows_one_run_frame(text, consts, x0, error, inlined):
    inner = ode.straight_line(text, **consts)
    field = inner if inlined else (lambda x: inner(x))
    cfg = IntegratorConfig(t_span=(0.0, 5.0), dt=1e-2, sample_dt=0.1)
    with pytest.raises(error) as err:
        integrate(field, x0, cfg)
    assert err.value.__class__ is error and err.value.__context__ is None
    runs = [f for f in traceback.extract_tb(err.tb) if f.filename.startswith("nonholib.ode rk4")]
    assert len(runs) == 1 and "replay" not in runs[0].filename


def test_replay_is_generated_on_failure_only():
    field = ode.straight_line(_SQUARE_AND_CLOCK, one=1.0)
    cfg = IntegratorConfig(t_span=(0.0, 1.0), dt=1e-3, sample_dt=1e-2)
    ode._stepper.cache_clear()
    ode._rk4_replay.cache_clear()
    integrate(field, [0.5, 0.0], cfg, read=(0,))
    assert ode._rk4_replay.cache_info().misses == 0
    for _ in range(2):
        with pytest.raises(NonFiniteState):
            integrate(field, [2.2, 0.0], cfg, read=(0,))
    # the replay of the run's key, generated once
    assert ode._stepper.cache_info().misses == ode._rk4_replay.cache_info().misses == 1
    replay = ode._rk4_replay(2, _SQUARE_AND_CLOCK, 0)
    assert replay.__code__.co_filename == "nonholib.ode rk4 n=2 square_and_clock rows 0 replay"


def test_called_field_calls_on_a_failing_run():
    # the run finishes the failing interval's steps on non-finite states,
    # then the replay takes the interval's steps again up to the failing one
    calls = []

    def square(x):
        calls.append(x)
        return [a * a for a in x]

    cfg = IntegratorConfig(t_span=(0.0, 1.0), dt=1e-3, sample_dt=1e-2)
    _, i, j = _first_non_finite_step(square, [2.0], cfg)
    calls.clear()
    with pytest.raises(NonFiniteState):
        integrate(square, [2.0], cfg)
    nsub = cfg.substeps
    # a derivative call per stored sample and four calls per step
    assert len(calls) == (i + 1) * (1 + 4 * nsub) + 4 * (j + 1)
    # the run's last call before the replay's is at a non-finite state
    assert j < nsub - 1 and not math.isfinite(calls[-4 * (j + 1) - 1][0])


@pytest.mark.parametrize(
    "key",
    [("rk4", 6, _SLEIGH_FRICTION), ("rk4", 6, _SLEIGH_FRICTION, 2, 3, 4, 5), ("rk4", 3)],
    ids=["text", "restricted", "called"],
)
def test_rk4_steps_hold_no_finite_test(key):
    # only the stage handler, which runs on an error, tests a stage state;
    # the state is tested once per sample interval, after the step loop
    step = _step_source(_source(ode._stepper(*key)))
    handler = step[step.index("except (ValueError, OverflowError):") : step.index(" from None\n")]
    assert "isfinite" in handler and "isfinite" not in step.replace(handler, "")
    # the replay tests the state after every step
    replay = _source(ode._rk4_replay(*key[1:]))
    after = replay[replay.index(_step_source(replay)) + len(_step_source(replay)) :]
    assert after.startswith("        if not (isfinite(")
