import numpy as np
import pytest
from numpy.testing import assert_allclose

from nonholib.geometry import (
    MechanicalSystem,
    MovingFrame,
    SingularFrame,
    SingularMetric,
    christoffel,
    connection_coefficients,
    frame_metric,
)
from nonholib.ode import IntegratorConfig, integrate

from conftest import random_sleigh_q
from oracles import (
    christoffel_to_frame,
    geodesic_rhs_conn,
    geodesic_rhs_struct,
    structure_functions,
)


def euclidean(n):
    return MechanicalSystem(
        n=n,
        metric=lambda q: np.eye(n),
        metric_derivs=lambda q: np.zeros((n, n, n)),
    )


def identity_frame(n, k=1):
    return MovingFrame(
        k=k,
        fields=lambda q: np.eye(n),
        field_derivs=lambda q: np.zeros((n, n, n)),
    )


# ---------------------------------------------------------------------------
# frame metric
# ---------------------------------------------------------------------------


def test_frame_metric_identity():
    sysm = euclidean(3)
    fr = identity_frame(3)
    assert_allclose(frame_metric(sysm, fr, np.zeros(3)), np.eye(3))


def test_frame_metric_sleigh_orthogonal(sleigh, sleigh_setup):
    sysm, fr, _ = sleigh_setup
    rng = np.random.default_rng(0)
    for _ in range(5):
        K = frame_metric(sysm, fr, random_sleigh_q(rng))
        # (u, psi, v) ordering: diag(m, I + m a^2, m I / (I + m a^2))
        assert_allclose(
            K, np.diag([sleigh.m, sleigh.itot, sleigh.slaving]), atol=1e-12
        )


def test_frame_metric_sleigh_uvw_coupling(sleigh, sleigh_setup, sleigh_uvw):
    sysm = sleigh_setup[0]
    K = frame_metric(sysm, sleigh_uvw, np.array([0.1, 0.2, 0.9]))
    ma = sleigh.m * sleigh.a
    expected = np.array(
        [[sleigh.m, 0, 0], [0, sleigh.m, ma], [0, ma, sleigh.itot]]
    )
    assert_allclose(K, expected, atol=1e-12)


def test_singular_frame_raises():
    fr = MovingFrame(k=1, fields=lambda q: np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularFrame):
        fr.fields_at(np.zeros(2))


def test_singular_metric_raises():
    sysm = MechanicalSystem(n=2, metric=lambda q: np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(SingularMetric):
        sysm.metric_at(np.zeros(2))


def test_accessors_on_a_stack_equal_per_row(sleigh_setup):
    sysm, fr, _ = sleigh_setup
    sysm = MechanicalSystem(
        n=3,
        metric=sysm.metric,
        metric_derivs=sysm.metric_derivs,
        potential=lambda q: q[0] * q[1],
        potential_grad=lambda q: np.array([q[1], q[0], 0.0]),
    )
    qs = random_sleigh_q(np.random.default_rng(3), 7)
    for at in (
        sysm.metric_at,
        sysm.metric_derivs_at,
        sysm.potential_at,
        sysm.potential_grad_at,
        fr.fields_at,
        fr.field_derivs_at,
        lambda q: frame_metric(sysm, fr, q),
    ):
        stacked = at(qs)
        assert stacked.tobytes() == np.array([at(q) for q in qs]).tobytes()
        assert stacked.shape[0] == len(qs)
    assert isinstance(sysm.potential_at(qs[0]), float)


def test_metric_symmetry_tolerance_is_per_matrix():
    # a large, symmetric metric in the same stack must not widen the
    # tolerance for a small one with an asymmetry of 1e-8
    big, lopsided = 1e6 * np.eye(2), np.array([[1.0, 1e-8], [0.0, 1.0]])
    sysm = MechanicalSystem(n=2, metric=lambda q: big if q[0] > 0 else lopsided)
    sysm.metric_at(np.array([[1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(SingularMetric, match="metric is not symmetric"):
        sysm.metric_at(np.array([[1.0, 0.0], [-1.0, 0.0]]))


# ---------------------------------------------------------------------------
# structure functions
# ---------------------------------------------------------------------------


def test_structure_functions_holonomic_zero():
    fr = identity_frame(3)
    C = structure_functions(fr, np.zeros(3))
    assert_allclose(C, 0.0, atol=1e-14)


def test_structure_functions_sleigh_uvw(sleigh_uvw):
    rng = np.random.default_rng(1)
    C = structure_functions(sleigh_uvw, random_sleigh_q(rng))
    # bracket of the along-blade field with rotation has slip component -1
    assert_allclose(C[1, 0, 2], -1.0, atol=1e-12)
    assert_allclose(C[0, 1, 2], 1.0, atol=1e-12)


def test_structure_functions_antisymmetric(sleigh_setup, sleigh_uvw):
    rng = np.random.default_rng(2)
    for fr in (sleigh_setup[1], sleigh_uvw):
        for _ in range(10):
            C = structure_functions(fr, random_sleigh_q(rng))
            assert_allclose(C, -C.transpose(0, 2, 1), atol=1e-12)


def test_structure_functions_match_finite_differences(sleigh):
    # drop the analytic derivatives and compare against the FD fallback
    from nonholib.systems import sleigh_ortho_frame

    analytic = sleigh_ortho_frame(sleigh)
    fd = MovingFrame(k=2, fields=analytic.fields)
    rng = np.random.default_rng(3)
    for _ in range(5):
        q = random_sleigh_q(rng)
        assert_allclose(
            structure_functions(analytic, q),
            structure_functions(fd, q),
            atol=2e-9,
        )


# ---------------------------------------------------------------------------
# connection coefficients and Christoffel symbols
# ---------------------------------------------------------------------------


def test_connection_euclidean_zero():
    omega = connection_coefficients(euclidean(3), identity_frame(3), np.zeros(3))
    assert_allclose(omega, 0.0, atol=1e-14)


def test_torsion_free_identity(sleigh_setup, sleigh_uvw):
    sysm = sleigh_setup[0]
    rng = np.random.default_rng(4)
    for fr in (sleigh_setup[1], sleigh_uvw):
        for _ in range(20):
            q = random_sleigh_q(rng)
            omega = connection_coefficients(sysm, fr, q)
            C = structure_functions(fr, q)
            assert_allclose(omega.transpose(0, 2, 1) - omega, C, atol=1e-9)


def test_connection_sleigh_ortho_coefficient(sleigh, sleigh_setup):
    # the psi-rate carries a u*psi term with coefficient m a / (I + m a^2)
    sysm, fr, _ = sleigh_setup
    omega = connection_coefficients(sysm, fr, np.array([0.0, 0.0, 0.3]))
    # (u, psi, v) ordering: psi index 1, u index 0
    coeff = omega[1, 0, 1] + omega[1, 1, 0]
    assert_allclose(coeff, sleigh.coupling, atol=1e-12)


def test_connection_compatible_and_torsion_free_at_random_points():
    # f_c(K_ab) = K_db omega^d_ac + K_ad omega^d_bc, with the left side a
    # central difference of the frame metric along f_c, and
    # omega^a_gb - omega^a_bg = C^a_bg, for random sleigh parameters
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from nonholib.systems import (
        SleighParams,
        sleigh_ortho_frame,
        sleigh_system,
        sleigh_uvw_frame,
    )

    @hyp.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hyp.given(
        q=st.tuples(
            st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), st.floats(-np.pi, np.pi)
        ),
        m=st.floats(0.2, 5.0),
        inertia=st.floats(0.2, 5.0),
        a=st.floats(0.0, 1.0),
        make_frame=st.sampled_from((sleigh_ortho_frame, sleigh_uvw_frame)),
    )
    def check(q, m, inertia, a, make_frame):
        p = SleighParams(m=m, I=inertia, a=a)
        sysm, fr = sleigh_system(p), make_frame(p)
        q = np.array(q)
        K = frame_metric(sysm, fr, q)
        omega = connection_coefficients(sysm, fr, q)
        f = fr.fields_at(q)
        h = 1e-5
        DK = np.stack(
            [
                (
                    frame_metric(sysm, fr, q + h * f[:, c])
                    - frame_metric(sysm, fr, q - h * f[:, c])
                )
                / (2.0 * h)
                for c in range(3)
            ],
            axis=-1,
        )
        compat = np.einsum("db,dac->abc", K, omega) + np.einsum(
            "ad,dbc->abc", K, omega
        )
        scale = np.max(np.abs(K))
        assert_allclose(DK, compat, atol=1e-7 * scale)
        C = structure_functions(fr, q)
        assert_allclose(omega.transpose(0, 2, 1) - omega, C, atol=1e-9 * scale)

    check()


def test_christoffel_euclidean_zero():
    assert_allclose(christoffel(euclidean(2), np.zeros(2)), 0.0, atol=1e-14)


def test_christoffel_polar_metric():
    sysm = MechanicalSystem(
        n=2, metric=lambda q: np.diag([1.0, q[0] ** 2])
    )  # (r, angle)
    r = 1.7
    gamma = christoffel(sysm, np.array([r, 0.4]))
    assert_allclose(gamma[0, 1, 1], -r, atol=1e-6)
    assert_allclose(gamma[1, 0, 1], 1.0 / r, atol=1e-6)
    assert_allclose(gamma[1, 1, 0], 1.0 / r, atol=1e-6)
    assert_allclose(gamma, gamma.transpose(0, 2, 1), atol=1e-9)


def test_connection_from_christoffel_route(sleigh_setup, sleigh_uvw):
    sysm = sleigh_setup[0]
    rng = np.random.default_rng(5)
    for fr in (sleigh_setup[1], sleigh_uvw):
        for _ in range(20):
            q = random_sleigh_q(rng)
            assert_allclose(
                connection_coefficients(sysm, fr, q),
                christoffel_to_frame(sysm, fr, q),
                atol=1e-9,
            )


def test_metric_derivs_analytic_vs_fd(sleigh_setup):
    sysm = sleigh_setup[0]
    fd_sys = MechanicalSystem(n=3, metric=sysm.metric)
    rng = np.random.default_rng(6)
    for _ in range(5):
        q = random_sleigh_q(rng)
        a = sysm.metric_derivs_at(q)
        b = fd_sys.metric_derivs_at(q)
        assert np.max(np.abs(a - b)) < 1e-5 * max(1.0, np.max(np.abs(a)))


def test_potential_grad_falls_back_to_central_differences():
    from nonholib.systems import PendulumParams, pendulum_system

    analytic = pendulum_system(PendulumParams())
    fd = MechanicalSystem(n=2, metric=analytic.metric, potential=analytic.potential)
    # V = g y is linear, so the stencil errs only by rounding, about
    # 2^-52 g |y| / FD_STEP = 2e-9 for |y| <= 1
    for q in (np.array([0.3, -0.8]), np.array([[0.3, -0.8], [-1.0, 0.6]])):
        assert_allclose(fd.potential_grad_at(q), analytic.potential_grad_at(q), rtol=0, atol=1e-8)


def test_frame_derivs_analytic_vs_fd(sleigh_setup, sleigh_uvw):
    rng = np.random.default_rng(60)
    for fr in (sleigh_setup[1], sleigh_uvw):
        fd_fr = MovingFrame(k=fr.k, fields=fr.fields)
        for _ in range(5):
            q = random_sleigh_q(rng)
            a = fr.field_derivs_at(q)
            b = fd_fr.field_derivs_at(q)
            assert np.max(np.abs(a - b)) < 1e-5 * max(1.0, np.max(np.abs(a)))


# ---------------------------------------------------------------------------
# the uvw frame's orientation: quasi-velocities w with F(q) w = qdot
# ---------------------------------------------------------------------------


def test_chart_to_frame_sleigh_axis_aligned(sleigh_uvw):
    qdot = np.array([0.3, -0.7, 0.2])
    quasi = np.linalg.solve(sleigh_uvw.fields_at(np.array([0.0, 0.0, 0.0])), qdot)
    assert_allclose(quasi, [0.3, -0.7, 0.2], atol=1e-14)  # u=xdot, v=ydot, om=phidot


def test_chart_to_frame_sleigh_quarter_turn(sleigh_uvw):
    qdot = np.array([0.3, -0.7, 0.2])
    quasi = np.linalg.solve(sleigh_uvw.fields_at(np.array([0.0, 0.0, np.pi / 2])), qdot)
    assert_allclose(quasi[0], -0.7, atol=1e-14)  # u = ydot
    assert_allclose(quasi[1], -0.3, atol=1e-14)  # v = -xdot


# ---------------------------------------------------------------------------
# geodesic right-hand sides
# ---------------------------------------------------------------------------


def test_geodesic_zero_velocity(sleigh_setup):
    sysm, fr, _ = sleigh_setup
    out = geodesic_rhs_conn(sysm, fr, np.zeros(3), np.zeros(3))
    assert_allclose(out, 0.0, atol=1e-14)


def test_geodesic_euclidean_identity_frame():
    sysm, fr = euclidean(3), identity_frame(3)
    v = np.array([0.4, -0.2, 0.9])
    assert_allclose(geodesic_rhs_conn(sysm, fr, np.zeros(3), v), 0.0, atol=1e-14)


def test_geodesic_forms_agree(sleigh_setup, sleigh_uvw):
    sysm = sleigh_setup[0]
    rng = np.random.default_rng(9)
    for fr in (sleigh_setup[1], sleigh_uvw):
        for _ in range(100):
            q = random_sleigh_q(rng)
            v = rng.uniform(-1.5, 1.5, 3)
            assert_allclose(
                geodesic_rhs_conn(sysm, fr, q, v),
                geodesic_rhs_struct(sysm, fr, q, v),
                atol=1e-10,
            )


def polar_system():
    # chart (r, angle) with metric diag(1, r^2); frame metric varies with q
    return MechanicalSystem(n=2, metric=lambda q: np.diag([1.0, q[0] ** 2]))


def test_geodesic_struct_polar_identity_frame():
    # holonomic frame with a position-dependent frame metric: the classic
    # polar geodesic rates rddot = r adot^2, addot = -2 rdot adot / r
    sysm = polar_system()
    fr = identity_frame(2)
    r, rdot, adot = 1.3, 0.4, -0.8
    out = geodesic_rhs_struct(sysm, fr, np.array([r, 0.6]), np.array([rdot, adot]))
    assert_allclose(out, [r * adot**2, -2.0 * rdot * adot / r], atol=1e-6)
    out2 = geodesic_rhs_conn(sysm, fr, np.array([r, 0.6]), np.array([rdot, adot]))
    assert_allclose(out, out2, atol=1e-8)


def scaled_tangent_frame():
    # columns (r e_theta, e_r) on the Euclidean plane: frame metric
    # diag(r^2, 1) varies and the structure functions are nonzero, so both
    # ingredient families of the quasi-velocity equations are exercised
    def fields(q):
        r = np.hypot(q[0], q[1])
        ex, ey = q[0] / r, q[1] / r
        return np.array([[-q[1], ex], [q[0], ey]])

    return MovingFrame(k=1, fields=fields)


def test_geodesic_forms_agree_varying_frame_metric():
    sysm = MechanicalSystem(n=2, metric=lambda q: np.eye(2))
    fr = scaled_tangent_frame()
    rng = np.random.default_rng(99)
    for _ in range(30):
        q = rng.uniform(0.5, 2.0, 2)
        v = rng.uniform(-1.5, 1.5, 2)
        a = geodesic_rhs_conn(sysm, fr, q, v)
        b = geodesic_rhs_struct(sysm, fr, q, v)
        assert_allclose(a, b, atol=2e-7)  # FD frame derivatives limit accuracy
        # straight lines in the plane: chart acceleration must vanish
        f = fr.fields_at(q)
        df = fr.field_derivs_at(q)
        qdot = f @ v
        qddot = f @ a + np.einsum("iam,a,m->i", df, v, qdot)
        assert_allclose(qddot, 0.0, atol=2e-7)


def test_free_flow_conserves_kinetic_energy(sleigh_setup, sleigh_uvw):
    # unconstrained geodesic flow in quasi-velocities preserves the metric norm
    sysm = sleigh_setup[0]
    fr = sleigh_uvw

    def field(y):
        q, v = y[:3], y[3:]
        qdot = fr.fields_at(q) @ v
        return np.concatenate([qdot, geodesic_rhs_conn(sysm, fr, q, v)])

    y0 = np.array([0.0, 0.0, 0.2, 0.8, -0.3, 0.5])
    cfg = IntegratorConfig(t_span=(0.0, 5.0), dt=2e-3, sample_dt=0.1)
    traj = integrate(field, y0, cfg)
    norms = [
        v @ frame_metric(sysm, fr, q) @ v
        for q, v in zip(traj.states[:, :3], traj.states[:, 3:])
    ]
    assert np.max(np.abs(np.array(norms) - norms[0])) / norms[0] < 1e-8
