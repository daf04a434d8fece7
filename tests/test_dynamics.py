import collections
import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nonholib.dynamics import (
    NonPositiveEpsilon,
    RayleighFriction,
    SingularEtaBlock,
    compute_h1,
    corrected_field,
    energy,
    energy_frame,
    expansion_defect,
    fast_field_y0,
    first_order_field,
    friction_field,
    friction_field_chart,
    friction_matrix,
    nonholonomic_field,
    rayleigh_power,
)
from nonholib.geometry import (
    BLOCK_ROWS,
    MechanicalSystem,
    MovingFrame,
    SingularFrame,
    SingularMetric,
    connection_coefficients,
    frame_metric,
    geodesic_rhs_struct,
)
from nonholib.ode import IntegratorConfig, integrate
from nonholib.systems import (
    PendulumParams,
    make_pendulum,
    pendulum_frame,
    pendulum_friction_form,
    pendulum_nh_field,
    pendulum_system,
    sleigh_friction_ortho_rhs,
    sleigh_h1_rhs,
    sleigh_nh_rhs,
    sleigh_uvw_frame,
    sleigh_x1_rhs,
)

from conftest import random_sleigh_q


def random_ball_state(rng, p, e_max=2.0):
    """Random sleigh chart point and quasi-velocities with energy <= e_max."""
    q = random_sleigh_q(rng)
    while True:
        u, psi, v = rng.uniform(-1.5, 1.5, 3)
        e = 0.5 * (p.m * u * u + p.itot * psi * psi + p.slaving * v * v)
        if e <= e_max:
            return q, u, psi, v


# ---------------------------------------------------------------------------
# nonholonomic field
# ---------------------------------------------------------------------------


def test_nh_field_sleigh_spot_values(sleigh, sleigh_setup):
    sysm, fr, _ = sleigh_setup
    nh = nonholonomic_field(sysm, fr)
    out = nh(np.array([0.0, 0.0, 0.0, 0.0, 1.0]))  # u=0, psi=1
    assert_allclose(out[3:], [0.2, 0.0], atol=1e-14)
    out = nh(np.array([0.0, 0.0, 0.0, 1.0, 0.0]))  # straight run
    assert_allclose(out[3:], [0.0, 0.0], atol=1e-14)


def test_nh_field_matches_hand_coded(sleigh, sleigh_setup):
    sysm, fr, _ = sleigh_setup
    nh = nonholonomic_field(sysm, fr)
    rng = np.random.default_rng(10)
    for _ in range(100):
        q, u, psi, _ = random_ball_state(rng, sleigh)
        out = nh(np.concatenate([q, [u, psi]]))
        udot, psidot = sleigh_nh_rhs(sleigh, u, psi)
        ref = np.array(
            [u * np.cos(q[2]), u * np.sin(q[2]), psi, udot, psidot]
        )
        assert_allclose(out, ref, atol=1e-10)


def test_nh_field_conserves_energy(sleigh, sleigh_setup):
    sysm, fr, _ = sleigh_setup
    nh = nonholonomic_field(sysm, fr)
    cfg = IntegratorConfig(t_span=(0.0, 2.0), dt=4e-3, sample_dt=0.1)
    traj = integrate(nh, [0.0, 0.0, 0.0, -1.0, 0.5], cfg)
    es = [
        energy_frame(sysm, fr, st[:3], np.array([st[3], st[4], 0.0]))
        for st in traj.states
    ]
    assert np.max(np.abs(np.array(es) - es[0])) / es[0] < 1e-8


# ---------------------------------------------------------------------------
# friction field
# ---------------------------------------------------------------------------


def test_friction_field_requires_positive_eps(sleigh_setup):
    sysm, fr, fric = sleigh_setup
    with pytest.raises(NonPositiveEpsilon):
        friction_field(sysm, fr, fric, 0.0)
    with pytest.raises(NonPositiveEpsilon):
        friction_field_chart(sysm, fric, -1e-3)


def test_friction_field_constraint_not_invariant(sleigh, sleigh_setup):
    # on eta = 0 the slip acceleration is -u psi, not zero
    sysm, fr, fric = sleigh_setup
    ff = friction_field(sysm, fr, fric, 0.01)
    out = ff(np.array([0.0, 0.0, 0.0, 0.7, 0.9, 0.0]))
    assert_allclose(out[5], -0.7 * 0.9, atol=1e-12)
    assert abs(out[5]) > 0.1


def test_friction_field_matches_hand_coded(sleigh, sleigh_setup):
    sysm, fr, fric = sleigh_setup
    eps = 0.01
    ff = friction_field(sysm, fr, fric, eps)
    rng = np.random.default_rng(11)
    for _ in range(100):
        q, u, psi, v = random_ball_state(rng, sleigh)
        out = ff(np.concatenate([q, [u, psi, v]]))
        udot, vdot, psidot = sleigh_friction_ortho_rhs(sleigh, eps, u, v, psi)
        s, c = np.sin(q[2]), np.cos(q[2])
        ref = np.array(
            [
                u * c - v * s,
                u * s + v * c,
                psi - sleigh.coupling * v,
                udot,
                psidot,
                vdot,
            ]
        )
        assert_allclose(out, ref, atol=1e-10)


def test_friction_matrix_structure(sleigh, sleigh_setup):
    # adapted orthogonal frame: friction acts on the slip block only
    sysm, fr, fric = sleigh_setup
    rng = np.random.default_rng(12)
    for _ in range(10):
        q = random_sleigh_q(rng)
        A = friction_matrix(sysm, fr, fric, q)
        assert_allclose(A[:2, :], 0.0, atol=1e-12)
        assert_allclose(A[:, :2], 0.0, atol=1e-12)
        assert_allclose(A[2, 2], 1.0 / sleigh.slaving, atol=1e-12)


def test_friction_kernel_is_constraint_distribution(sleigh_setup):
    sysm, fr, fric = sleigh_setup
    rng = np.random.default_rng(13)
    for _ in range(10):
        q = random_sleigh_q(rng)
        f = fr.fields_at(q)
        nu = fric.nu_at(q)
        assert_allclose(nu @ f[:, :2], 0.0, atol=1e-10)
        # positive definite on the slip direction
        assert f[:, 2] @ nu @ f[:, 2] > 0.1


def test_power_balance_pointwise(sleigh, sleigh_setup):
    # dE/dt contracted with the field equals -nu(qdot, qdot)/eps exactly
    # (the frame metric is constant, so dE = K w . dw)
    sysm, fr, fric = sleigh_setup
    eps = 0.01
    ff = friction_field(sysm, fr, fric, eps)
    K = frame_metric(sysm, fr, np.zeros(3))
    rng = np.random.default_rng(14)
    for _ in range(20):
        q, u, psi, v = random_ball_state(rng, sleigh)
        w = np.array([u, psi, v])
        rates = ff(np.concatenate([q, w]))[3:]
        de_dt = w @ K @ rates
        qdot = fr.fields_at(q) @ w
        assert_allclose(de_dt, -rayleigh_power(fric, q, qdot) / eps, atol=1e-9)


# ---------------------------------------------------------------------------
# chart-form friction field
# ---------------------------------------------------------------------------


def test_chart_field_pendulum_rest():
    p = PendulumParams(g=9.81, eps=1e-2)
    ff = friction_field_chart(pendulum_system(p), pendulum_friction_form(p), p.eps)
    out = ff(np.array([0.0, -1.0, 0.0, 0.0]))
    assert_allclose(out, [0.0, 0.0, 0.0, -9.81], atol=1e-12)


def test_chart_field_free_motion():
    sysm = MechanicalSystem(
        n=2, metric=lambda q: np.eye(2), metric_derivs=lambda q: np.zeros((2, 2, 2))
    )
    fric = RayleighFriction(nu=lambda q: np.zeros((2, 2)))
    ff = friction_field_chart(sysm, fric, 1.0)
    out = ff(np.array([0.3, 0.4, 1.0, -2.0]))
    assert_allclose(out, [1.0, -2.0, 0.0, 0.0], atol=1e-14)


def test_chart_field_matches_frame_field(sleigh, sleigh_setup):
    # conjugate the frame-form field to chart coordinates and compare
    sysm, fr, fric = sleigh_setup
    eps = 0.01
    ff_frame = friction_field(sysm, fr, fric, eps)
    ff_chart = friction_field_chart(sysm, fric, eps)
    rng = np.random.default_rng(15)
    for _ in range(20):
        q, u, psi, v = random_ball_state(rng, sleigh)
        w = np.array([u, psi, v])
        f = fr.fields_at(q)
        df = fr.field_derivs_at(q)
        qdot = f @ w
        out_frame = ff_frame(np.concatenate([q, w]))
        wdot = out_frame[3:]
        # qddot = f wdot + (d_j f w) qdot_j
        qddot = f @ wdot + np.einsum("iam,a,m->i", df, w, qdot)
        out_chart = ff_chart(np.concatenate([q, qdot]))
        assert_allclose(out_chart[:3], qdot, atol=1e-9)
        assert_allclose(out_chart[3:], qddot, atol=1e-9)


def test_chart_field_matches_hand_coded_pendulum():
    p = PendulumParams(g=9.81, eps=3e-3)
    generic = friction_field_chart(pendulum_system(p), pendulum_friction_form(p), p.eps)
    hand = make_pendulum("friction", p)
    rng = np.random.default_rng(16)
    for _ in range(20):
        st = rng.uniform(-1, 1, 4)
        st[:2] += np.array([0.0, -2.0])  # keep away from the origin
        assert_allclose(generic(st), hand(st), atol=1e-11)


# ---------------------------------------------------------------------------
# fast field
# ---------------------------------------------------------------------------


def test_fast_field_zero_on_constraint(sleigh_setup):
    sysm, fr, fric = sleigh_setup
    y0 = fast_field_y0(sysm, fr, fric)
    rng = np.random.default_rng(17)
    for _ in range(10):
        q = random_sleigh_q(rng)
        xi = rng.uniform(-1, 1, 2)
        out = y0(np.concatenate([q, xi, [0.0]]))
        assert_allclose(out, 0.0, atol=1e-14)


def test_fast_field_sleigh_rate(sleigh, sleigh_setup):
    sysm, fr, fric = sleigh_setup
    y0 = fast_field_y0(sysm, fr, fric)
    out = y0(np.array([0.0, 0.0, 0.4, 0.3, -0.2, 0.5]))
    assert_allclose(out[:5], 0.0, atol=1e-14)
    assert_allclose(out[5], -sleigh.itot / (sleigh.I * sleigh.m) * 0.5, atol=1e-12)


def test_fast_field_spectrum_synthetic():
    # random constant 4-d setup with a 2-d constraint block: the slip block
    # of kappa^{-1} nu must have eigenvalues with positive real part
    rng = np.random.default_rng(18)
    for _ in range(10):
        n, k = 4, 2
        m = rng.uniform(-1, 1, (n, n))
        kappa = m @ m.T + n * np.eye(n)
        f0 = rng.uniform(-1, 1, (n, n)) + np.eye(n)
        # orthogonalize the last n-k columns against the first k
        for j in range(k, n):
            for i in range(k):
                f0[:, j] -= (f0[:, i] @ kappa @ f0[:, j]) / (
                    f0[:, i] @ kappa @ f0[:, i]
                ) * f0[:, i]
        lam0 = np.linalg.inv(f0)
        s = rng.uniform(0.5, 2.0, n - k)
        nu = lam0[k:, :].T @ np.diag(s) @ lam0[k:, :]
        sysm = MechanicalSystem(
            n=n,
            metric=lambda q, kappa=kappa: kappa,
            metric_derivs=lambda q: np.zeros((n, n, n)),
        )
        fr = MovingFrame(
            k=k,
            fields=lambda q, f0=f0: f0,
            field_derivs=lambda q: np.zeros((n, n, n)),
        )
        fric = RayleighFriction(nu=lambda q, nu=nu: nu)
        block = friction_matrix(sysm, fr, fric, np.zeros(n))[k:, k:]
        assert np.all(np.linalg.eigvals(block).real > 0)


# ---------------------------------------------------------------------------
# slow-manifold expansion
# ---------------------------------------------------------------------------


def test_h1_sleigh_value(sleigh, sleigh_setup):
    sysm, fr, fric = sleigh_setup
    exp = compute_h1(sysm, fr, fric)
    h = exp.h1(np.zeros(3), np.array([1.0, 1.0]))
    assert_allclose(h, [-25.0 / 26.0], atol=1e-12)
    assert_allclose(h, [sleigh_h1_rhs(sleigh, 1.0, 1.0)], atol=1e-12)


def test_h1_zero_without_drive(sleigh_setup):
    sysm, fr, fric = sleigh_setup
    exp = compute_h1(sysm, fr, fric)
    rng = np.random.default_rng(19)
    for _ in range(5):
        q = random_sleigh_q(rng)
        assert_allclose(exp.h1(q, np.zeros(2)), 0.0, atol=1e-14)


def test_eta_block_inverse(sleigh, sleigh_setup):
    sysm, fr, fric = sleigh_setup
    q = np.zeros(3)
    block = friction_matrix(sysm, fr, fric, q)[fr.k :, fr.k :]
    assert_allclose(block[0, 0], 1.0 / sleigh.slaving, atol=1e-12)


def test_singular_eta_block():
    sysm = MechanicalSystem(
        n=2, metric=lambda q: np.eye(2), metric_derivs=lambda q: np.zeros((2, 2, 2))
    )
    fr = MovingFrame(
        k=1,
        fields=lambda q: np.eye(2),
        field_derivs=lambda q: np.zeros((2, 2, 2)),
    )
    fric = RayleighFriction(nu=lambda q: np.zeros((2, 2)))
    with pytest.raises(SingularEtaBlock):
        compute_h1(sysm, fr, fric).h1(np.zeros(2), np.ones(1))


# ---------------------------------------------------------------------------
# stacks of points
# ---------------------------------------------------------------------------


def _stack_setup(name, sleigh, sleigh_setup):
    """(system, frame, friction form, chart points, xi rows) with more rows
    than one block; a tenth of the xi rows are zero, so the connection term
    is a signed zero there."""
    rng = np.random.default_rng(31)
    rows = BLOCK_ROWS + 44
    if name == "pendulum":
        pp = PendulumParams()
        setup = pendulum_system(pp), pendulum_frame(pp), pendulum_friction_form(pp)
        angle = rng.uniform(-np.pi, np.pi, rows)
        qs = rng.uniform(0.5, 2.0, (rows, 1)) * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    else:
        sysm, frame, fric = sleigh_setup
        if name == "sleigh-uvw":
            # the uvw frame is not adapted to the blade friction form, whose
            # eta block is singular there; a definite form gives h1 a value
            frame = sleigh_uvw_frame(sleigh)
            fric = RayleighFriction(nu=lambda q: np.diag([1.0, 2.0, 3.0]))
        if name == "sleigh-spring":
            # a potential whose force vanishes on every fifth row
            sysm = dataclasses.replace(
                sysm,
                potential=lambda q: 0.5 * q[0] ** 2,
                potential_grad=lambda q: np.array([q[0], 0.0, 0.0]),
            )
        setup = sysm, frame, fric
        qs = random_sleigh_q(rng, rows)
        qs[::5, 0] = 0.0
    xis = rng.normal(size=(rows, setup[1].k))
    xis[::10] = 0.0
    return (*setup, qs, xis)


@pytest.mark.parametrize("name", ["sleigh-ortho", "sleigh-uvw", "sleigh-spring", "pendulum"])
def test_stacked_h1_and_connection_equal_per_row_bitwise(name, sleigh, sleigh_setup):
    sysm, frame, fric, qs, xis = _stack_setup(name, sleigh, sleigh_setup)
    h1 = compute_h1(sysm, frame, fric).h1
    stacked = h1(qs, xis)
    rows = np.array([h1(q, xi) for q, xi in zip(qs, xis)])
    assert stacked.shape == (len(qs), sysm.n - frame.k)
    # byte equality also tells -0.0 from 0.0
    assert stacked.tobytes() == rows.tobytes()
    omega = connection_coefficients(sysm, frame, qs)
    per_row = np.array([connection_coefficients(sysm, frame, q) for q in qs])
    assert omega.tobytes() == per_row.tobytes()


BAD_X = 7.0  # chart x-coordinate of the one bad point in a stack
EYE3 = np.eye(3)

# (class, callback to spoil, its value at the bad point)
BAD_INPUTS = {
    "frame-non-finite": (SingularFrame, "fields", np.diag([1.0, np.nan, 1.0])),
    "frame-cond": (SingularFrame, "fields", np.diag([1.0, 1.0, 1e-13])),
    "frame-non-square": (ValueError, "fields", np.ones((3, 2))),
    "metric-non-finite": (SingularMetric, "metric", np.diag([1.0, np.inf, 1.0])),
    "metric-asymmetric": (SingularMetric, "metric", EYE3 + np.triu(np.ones((3, 3)), 1) * 1e-6),
    "metric-indefinite": (SingularMetric, "metric", np.diag([1.0, 1.0, -1.0])),
    "metric-cond": (SingularMetric, "metric", np.diag([1.0, 1.0, 1e-13])),
    "metric-non-square": (ValueError, "metric", np.ones((3, 2))),
    "eta-block": (SingularEtaBlock, "nu", np.zeros((3, 3))),
    "friction-non-square": (ValueError, "nu", np.ones((2, 3))),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_stacked_h1_raises_as_single_point_on_one_bad_row(case, sleigh, sleigh_setup):
    cls, callback, bad = BAD_INPUTS[case]
    parts = list(sleigh_setup)
    for i, part in enumerate(parts):
        if hasattr(part, callback):
            good = getattr(part, callback)
            spoilt = lambda q, good=good: bad if q[0] == BAD_X else good(q)
            parts[i] = dataclasses.replace(part, **{callback: spoilt})
    h1 = compute_h1(*parts).h1
    rng = np.random.default_rng(32)
    qs, xis = random_sleigh_q(rng, 9), rng.normal(size=(9, 2))
    qs[4, 0] = BAD_X
    h1(np.delete(qs, 4, axis=0), np.delete(xis, 4, axis=0))  # the rest is fine
    with pytest.raises(cls) as single:
        h1(qs[4], xis[4])
    with pytest.raises(cls) as stacked:
        h1(qs, xis)
    assert type(stacked.value) is type(single.value)
    assert str(stacked.value) == str(single.value)


def test_first_order_field_matches_hand_coded(sleigh, sleigh_setup):
    sysm, fr, fric = sleigh_setup
    x1 = first_order_field(sysm, fr, fric)
    rng = np.random.default_rng(20)
    for _ in range(100):
        q, u, psi, _ = random_ball_state(rng, sleigh)
        out = x1(np.concatenate([q, [u, psi]]))
        ref = np.asarray(sleigh_x1_rhs(sleigh, q[0], q[1], q[2], u, psi))
        assert_allclose(out, ref, atol=1e-10)


def test_first_order_field_spot_value(sleigh, sleigh_setup):
    sysm, fr, fric = sleigh_setup
    x1 = first_order_field(sysm, fr, fric)
    out = x1(np.array([0.0, 0.0, 0.0, 1.0, 1.0]))
    assert_allclose(out[3], (0.04 - 1.0) / 1.04**2, atol=1e-12)


def test_first_order_field_zero_cases(sleigh_setup):
    sysm, fr, fric = sleigh_setup
    x1 = first_order_field(sysm, fr, fric)
    assert_allclose(
        x1(np.array([0.2, 0.1, 0.5, 0.0, 0.0])), 0.0, atol=1e-14
    )


def test_corrected_field_degenerates_at_zero_eps(sleigh_setup):
    sysm, fr, fric = sleigh_setup
    nh = nonholonomic_field(sysm, fr)
    corr = corrected_field(sysm, fr, fric, 0.0)
    rng = np.random.default_rng(21)
    for _ in range(10):
        q = random_sleigh_q(rng)
        y = np.concatenate([q, rng.uniform(-1, 1, 2)])
        assert_allclose(corr(y), nh(y), atol=1e-15, rtol=0.0)


def test_corrected_field_dissipates(sleigh, sleigh_setup):
    # dE/dt along the corrected field is -eps (m I / (I + m a^2))^2 u^2 psi^2
    sysm, fr, fric = sleigh_setup
    eps = 0.02
    corr = corrected_field(sysm, fr, fric, eps)
    cfg = IntegratorConfig(t_span=(0.0, 1.0), dt=5e-3, sample_dt=0.05)
    traj = integrate(corr, [0.0, 0.0, 0.0, -1.0, 0.5], cfg)
    es = np.array(
        [
            energy_frame(sysm, fr, st[:3], np.array([st[3], st[4], 0.0]))
            for st in traj.states
        ]
    )
    assert np.all(np.diff(es) < 0)
    u0, psi0 = -1.0, 0.5
    expected_rate = -eps * sleigh.slaving**2 * u0**2 * psi0**2
    measured = (es[1] - es[0]) / (traj.times[1] - traj.times[0])
    assert_allclose(measured, expected_rate, rtol=0.05)


def test_each_point_read_once(sleigh_setup):
    # callback reads per evaluation at one point: the connection reads each
    # callback once, and the fields add at most one frame and one metric read
    sysm, fr, fric = sleigh_setup
    counts = collections.Counter()

    def counted(name, fn):
        def read(q):
            counts[name] += 1
            return fn(q)

        return read

    sysm = dataclasses.replace(
        sysm,
        metric=counted("metric", sysm.metric),
        metric_derivs=counted("metric_derivs", sysm.metric_derivs),
    )
    fr = dataclasses.replace(
        fr,
        fields=counted("fields", fr.fields),
        field_derivs=counted("field_derivs", fr.field_derivs),
    )
    q = np.array([0.1, -0.2, 0.3])
    reduced = np.concatenate([q, [-1.0, 0.5]])
    framed = np.concatenate([reduced, [0.2]])
    once = {"fields": 1, "field_derivs": 1, "metric": 1, "metric_derivs": 1}
    for evaluate in (
        lambda: connection_coefficients(sysm, fr, q),
        lambda: geodesic_rhs_struct(sysm, fr, q, framed[3:]),
    ):
        counts.clear()
        evaluate()
        assert counts == once
    # (evaluation, most frame reads, most metric reads)
    bounds = (
        (lambda: compute_h1(sysm, fr, fric).h1(q, reduced[3:]), 2, 2),
        (lambda: friction_field(sysm, fr, fric, 1e-2)(framed), 3, 2),
        (lambda: first_order_field(sysm, fr, fric)(reduced), 3, 2),
        (lambda: corrected_field(sysm, fr, fric, 1e-2)(reduced), 3, 2),
    )
    for evaluate, max_frame, max_metric in bounds:
        counts.clear()
        evaluate()
        assert counts["fields"] <= max_frame and counts["metric"] <= max_metric, counts


def test_slow_equation_coefficient_identity(sleigh):
    # the u-rate correction re-expressed in angular-velocity variables has
    # coefficient -m I/(I + m a^2):
    # slaving (m a^2 - I)/itot - 2 slaving coupling^2 itot / m ... reduces to
    p = sleigh
    lhs = p.slaving * (p.m * p.a**2 - p.I) / p.itot - 2 * p.slaving * p.m * p.a**2 / p.itot
    assert_allclose(lhs, -p.slaving * (p.I + p.m * p.a**2) / p.itot, atol=1e-14)
    assert_allclose(lhs, -p.m * p.I / p.itot, atol=1e-14)


def test_expansion_defect_quadratic_in_eps(sleigh_setup):
    sysm, fr, fric = sleigh_setup
    rng = np.random.default_rng(22)
    ratios = []
    for _ in range(5):
        q = random_sleigh_q(rng)
        xi = rng.uniform(-1.0, 1.0, 2)
        d1 = np.linalg.norm(expansion_defect(sysm, fr, fric, 1e-2, q, xi))
        d2 = np.linalg.norm(expansion_defect(sysm, fr, fric, 5e-3, q, xi))
        ratios.append(d1 / d2)
    assert np.all(np.array(ratios) > 3.0)
    assert np.all(np.array(ratios) < 5.0)


def test_fast_relaxation_rate(sleigh, sleigh_setup):
    # slip decay rate along the friction flow within 10% of the block
    # eigenvalue over eps
    from nonholib.systems import sleigh_friction_field

    eps = 1e-2
    rho = sleigh.fast_rate(eps)
    cfg = IntegratorConfig(t_span=(0.0, 3.0 / rho), dt=eps / 100, sample_dt=0.3 / rho)
    traj = integrate(
        sleigh_friction_field(sleigh, eps), [0, 0, 0, 0.8, 0.1, 0.3], cfg
    )
    u, v, om = traj.states[:, 3], traj.states[:, 4], traj.states[:, 5]
    gap = np.abs(v + u * om / rho)  # distance to the frozen slaved value
    rate = (np.log(gap[0]) - np.log(gap[-1])) / (traj.times[-1] - traj.times[0])
    assert abs(rate - rho) / rho < 0.10


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


def test_energy_values(sleigh, sleigh_setup):
    sysm, fr, _ = sleigh_setup
    # pure along-blade motion at unit speed: E = m/2
    assert_allclose(
        energy_frame(sysm, fr, np.zeros(3), np.array([1.0, 0.0, 0.0])), 0.5
    )
    assert_allclose(energy(sysm, np.zeros(3), np.zeros(3)), 0.0)


def test_rayleigh_power_nonnegative(sleigh_setup):
    sysm, fr, fric = sleigh_setup
    rng = np.random.default_rng(23)
    for _ in range(1000):
        q = random_sleigh_q(rng)
        qdot = rng.uniform(-2, 2, 3)
        assert rayleigh_power(fric, q, qdot) >= 0.0


def test_nh_pendulum_generic_matches_hand_coded():
    p = PendulumParams(g=9.81, eps=1e-2)
    sysm, fr = pendulum_system(p), pendulum_frame(p)
    nh = nonholonomic_field(sysm, fr)
    hand = pendulum_nh_field(p)
    rng = np.random.default_rng(24)
    for _ in range(20):
        q = rng.uniform(-1, 1, 2) + np.array([0.0, -2.0])
        speed = rng.uniform(-1.5, 1.5)
        out = nh(np.concatenate([q, [speed]]))
        # lift the reduced rates to chart acceleration along the circle
        r = np.linalg.norm(q)
        e_r = q / r
        e_t = np.array([-e_r[1], e_r[0]])
        qdot = speed * e_t
        ref = hand(np.concatenate([q, qdot]))
        assert_allclose(out[:2], ref[:2], atol=1e-10)
        # tangential acceleration matches the chart field's projection
        assert_allclose(out[2], e_t @ ref[2:], atol=1e-10)
