import numpy as np
import pytest
from numpy.testing import assert_allclose

from nonholib.ode import (
    IntegratorConfig,
    NonFiniteState,
    OutOfRange,
    StepUnderflow,
    Trajectory,
    integrate,
    transform_linear,
)


def decay(x):
    return -x


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
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteState) as err:
            integrate(
                lambda x: x * x,
                [2.0],
                IntegratorConfig(t_span=(0.0, 1.0), dt=1e-3, sample_dt=1e-2),
            )
    assert 0.4 < err.value.t < 0.6


def test_rkf45_accuracy():
    cfg = IntegratorConfig(
        t_span=(0.0, 1.0),
        dt=1e-2,
        sample_dt=0.1,
        method="rkf45",
        abs_tol=1e-11,
        rel_tol=1e-11,
    )
    traj = integrate(decay, [1.0], cfg)
    assert abs(traj.states[-1, 0] - np.exp(-1.0)) < 1e-8


def test_rkf45_matches_rk4_on_stiff_system(sleigh):
    from nonholib.systems import sleigh_friction_field

    eps = 1e-2
    fld = sleigh_friction_field(sleigh, eps)
    st = [0.0, 0.0, 0.0, -1.0, 0.0, 0.5]
    a = integrate(fld, st, IntegratorConfig(t_span=(0.0, 1.0), dt=eps / 20, sample_dt=0.05))
    b = integrate(
        fld,
        st,
        IntegratorConfig(
            t_span=(0.0, 1.0),
            dt=1e-3,
            sample_dt=0.05,
            method="rkf45",
            abs_tol=1e-10,
            rel_tol=1e-10,
        ),
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


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory([0.0, 0.0], [[1.0], [1.0]], [[0.0], [0.0]])  # not increasing
    with pytest.raises(ValueError):
        Trajectory([0.0, 1.0], [[1.0], [1.0]], [[0.0]])  # shape mismatch


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
