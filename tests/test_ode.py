import numpy as np
import pytest
from numpy.testing import assert_allclose

from nonholib.ode import (
    _FE_A,
    _FE_B4,
    _FE_ERR,
    IntegratorConfig,
    NonFiniteState,
    OutOfRange,
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
                lambda x: [a * a for a in x],
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


# Reference loops: the integrators as whole-array numpy code, with the
# operation order the list kernels in nonholib.ode must reproduce bit for bit.


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
                scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(x), np.abs(x4))
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
            make_pendulum("friction", PendulumParams(eps=eps)),
            pendulum_default_state(),
            eps / 20,
        ),
        # computes with numpy inside and returns an ndarray
        "pendulum-inertial": (
            make_pendulum("inertial", PendulumParams(eps=eps)),
            [0.6, -0.8, 0.3, 0.2],
            eps / 20,
        ),
    }


@pytest.mark.parametrize("name", ["sleigh-friction", "sleigh-corrected", "pendulum-inertial"])
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
