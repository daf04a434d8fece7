from dataclasses import asdict

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nonholib.analysis import (
    DegenerateFit,
    LadderTooShort,
    TransientTooShort,
    WindowMismatch,
    energy_audit,
    estimate_order,
    fit_slope_through_origin,
    manifold_fit,
    pseudo_solution_defect,
    sup_distance,
)
from nonholib.dynamics import compute_h1
from nonholib.geometry import BLOCK_ROWS
from nonholib.ode import IntegratorConfig, Trajectory, integrate, transform_linear
from nonholib.systems import REGISTRY, sleigh_friction_field, sleigh_nh_field


def frame_state_matrix(p):
    """The sleigh's friction-model state -> (q, u, psi, v) map."""
    return REGISTRY["sleigh"].frame_state_matrix(asdict(p))


def constant_traj(value, dim=2, n=11, t_end=1.0):
    times = np.linspace(0.0, t_end, n)
    states = np.tile(np.asarray(value, dtype=float), (n, 1))
    return Trajectory(times, states, np.zeros((n, dim)))


# ---------------------------------------------------------------------------
# sup distance
# ---------------------------------------------------------------------------


def test_sup_distance_identical():
    a = constant_traj([1.0, 2.0])
    assert sup_distance(a, a, 0.1, 0.9) == 0.0


def test_sup_distance_constants():
    a = constant_traj([1.0, 2.0])
    b = constant_traj([1.0, 2.5])
    assert_allclose(sup_distance(a, b, 0.1, 0.9), 0.5)


def test_sup_distance_symmetric_triangle():
    rng = np.random.default_rng(40)
    trajs = [constant_traj(rng.uniform(-1, 1, 3), dim=3) for _ in range(3)]
    d01 = sup_distance(trajs[0], trajs[1], 0.0, 1.0)
    d10 = sup_distance(trajs[1], trajs[0], 0.0, 1.0)
    d02 = sup_distance(trajs[0], trajs[2], 0.0, 1.0)
    d12 = sup_distance(trajs[1], trajs[2], 0.0, 1.0)
    assert d01 == d10
    assert d02 <= d01 + d12 + 1e-15


def test_sup_distance_metric_axioms():
    # three trajectories on one time grid: sup_distance interpolates all of
    # them onto the same points, where the Euclidean norm is a metric.  Each
    # computed distance is within (dim + 2) * 2^-53 relative of the exact
    # one (dim <= 4), so the triangle inequality holds to 2e-15 relative.
    # Values on a 1e-3 grid keep every square clear of underflow.
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    value = st.integers(-10_000, 10_000).map(lambda i: i * 1e-3)

    @hyp.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hyp.given(
        dim=st.integers(1, 4),
        gaps=st.lists(st.floats(0.05, 2.0), min_size=1, max_size=6),
        lo=st.floats(0.0, 0.4),
        hi=st.floats(0.6, 1.0),
        data=st.data(),
    )
    def check(dim, gaps, lo, hi, data):
        times = np.concatenate([[0.0], np.cumsum(gaps)])
        shape = st.lists(value, min_size=2 * dim * len(times), max_size=2 * dim * len(times))
        a, b, c = (
            Trajectory(times, *np.reshape(data.draw(shape), (2, len(times), dim)))
            for _ in range(3)
        )
        t1, t_end = lo * times[-1], hi * times[-1]
        assert sup_distance(a, a, t1, t_end) == 0.0
        d_ab = sup_distance(a, b, t1, t_end)
        assert d_ab == sup_distance(b, a, t1, t_end)
        d_bc, d_ac = sup_distance(b, c, t1, t_end), sup_distance(a, c, t1, t_end)
        assert d_ac <= (d_ab + d_bc) * (1 + 2e-15)

    check()


def test_sup_distance_window_mismatch():
    a = constant_traj([0.0], dim=1, t_end=1.0)
    b = constant_traj([0.0], dim=1, t_end=2.0)
    with pytest.raises(WindowMismatch):
        sup_distance(a, b, 0.5, 1.5)
    with pytest.raises(WindowMismatch):
        sup_distance(a, b, 0.9, 0.2)


def test_sup_distance_sleigh_decreases_with_eps(sleigh):
    nh_cfg = IntegratorConfig(t_span=(0.0, 4.0), dt=1e-3, sample_dt=1e-2)
    nh = integrate(sleigh_nh_field(sleigh), [0, 0, 0, -1.0, 0.5], nh_cfg)
    proj = np.zeros((5, 6))
    for i in range(4):
        proj[i, i] = 1.0
    proj[4, 5] = 1.0
    proj[4, 4] = sleigh.coupling
    dists = []
    for eps in (1e-2, 5e-3):
        cfg = IntegratorConfig(t_span=(0.0, 4.0), dt=eps / 20, sample_dt=1e-2)
        fric = integrate(
            sleigh_friction_field(sleigh, eps), [0, 0, 0, -1.0, 0.0, 0.5], cfg
        )
        dists.append(sup_distance(transform_linear(fric, proj), nh, 0.5, 4.0, (3, 4)))
    assert dists[0] > dists[1] > 0.0


# ---------------------------------------------------------------------------
# order estimation
# ---------------------------------------------------------------------------


def test_corrected_at_zero_eps_matches_nh_trajectory(sleigh):
    from nonholib.systems import sleigh_corrected_field

    cfg = IntegratorConfig(t_span=(0.0, 5.0), dt=1e-3, sample_dt=1e-2)
    nh = integrate(sleigh_nh_field(sleigh), [0, 0, 0, -1.0, 0.5], cfg)
    corr = integrate(sleigh_corrected_field(sleigh, 0.0), [0, 0, 0, -1.0, 0.5], cfg)
    assert sup_distance(nh, corr, 0.5, 5.0) <= 1e-12


def test_estimate_order_synthetic():
    eps = np.array([8e-3, 4e-3, 2e-3])
    assert_allclose(estimate_order(eps, 3.7 * eps), [1.0, 1.0], atol=1e-12)
    assert_allclose(estimate_order(eps, 0.2 * eps**2), [2.0, 2.0], atol=1e-12)


def test_estimate_order_recovers_power_laws():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hyp.given(
        eps0=st.floats(1e-5, 1e-1),
        ratios=st.lists(st.floats(1.1, 10.0), min_size=1, max_size=6),
        c=st.floats(1e-3, 1e3),
        p=st.floats(0.25, 4.0),
    )
    def check(eps0, ratios, c, p):
        eps = eps0 / np.cumprod([1.0] + ratios)
        assert_allclose(estimate_order(eps, c * eps**p), p, rtol=0, atol=1e-9)

    check()


def test_estimate_order_ladder_too_short():
    with pytest.raises(LadderTooShort):
        estimate_order([1e-2], [0.1])


def test_estimate_order_validation():
    with pytest.raises(ValueError):
        estimate_order([1e-2, 2e-2], [0.1, 0.2])  # not decreasing
    with pytest.raises(ValueError):
        estimate_order([1e-2, 5e-3], [0.1, -0.2])
    with pytest.raises(DegenerateFit):  # an equilibrium start's zero errors
        estimate_order([1e-2, 5e-3], [0.1, 0.0])


# ---------------------------------------------------------------------------
# pseudo-solution defect
# ---------------------------------------------------------------------------


def test_defect_of_generated_trajectory_is_zero(sleigh):
    fld = sleigh_nh_field(sleigh)
    cfg = IntegratorConfig(t_span=(0.0, 2.0), dt=1e-3, sample_dt=1e-2)
    traj = integrate(fld, [0, 0, 0, -1.0, 0.5], cfg)
    assert pseudo_solution_defect(traj, fld) <= 1e-8


def test_defect_of_exact_solution():
    times = np.linspace(0.0, 1.0, 51)
    states = np.exp(-times)[:, None]
    traj = Trajectory(times, states, -states)
    assert pseudo_solution_defect(traj, lambda x: -x) < 1e-15


def test_defect_of_offset_curve():
    traj = constant_traj([2.0], dim=1)
    assert_allclose(pseudo_solution_defect(traj, lambda x: -x), 2.0)


def test_defect_eps_scaling(sleigh):
    # projected friction trajectory against the constrained field: the
    # defect halves when eps is halved
    proj = np.zeros((5, 6))
    for i in range(4):
        proj[i, i] = 1.0
    proj[4, 5] = 1.0
    proj[4, 4] = sleigh.coupling
    nh = sleigh_nh_field(sleigh)
    defects = []
    for eps in (1e-2, 5e-3):
        cfg = IntegratorConfig(t_span=(0.0, 3.0), dt=eps / 20, sample_dt=1e-2)
        traj = integrate(
            sleigh_friction_field(sleigh, eps), [0, 0, 0, -1.0, 0.0, 0.5], cfg
        )
        defects.append(pseudo_solution_defect(transform_linear(traj, proj), nh))
    ratio = defects[0] / defects[1]
    assert 1.5 < ratio < 2.5


# ---------------------------------------------------------------------------
# energy audit
# ---------------------------------------------------------------------------


def test_energy_audit_conservative(sleigh, sleigh_setup):
    sysm, frame, _ = sleigh_setup
    cfg = IntegratorConfig(t_span=(0.0, 5.0), dt=1e-3, sample_dt=1e-3)
    traj = integrate(sleigh_nh_field(sleigh), [0, 0, 0, -1.0, 0.5], cfg)
    # lift (x, y, phi, u, omega) to the frame layout with zero slip
    lift = np.zeros((6, 5))
    for i in range(4):
        lift[i, i] = 1.0
    lift[4, 4] = 1.0  # psi = omega on the constraint
    frame_traj = transform_linear(traj, lift)
    viol = energy_audit(frame_traj, sysm, None, 1.0, frame=frame)
    assert viol <= 1e-8


def test_energy_audit_friction(sleigh, sleigh_setup):
    sysm, frame, fric = sleigh_setup
    eps = 1e-2
    cfg = IntegratorConfig(t_span=(0.0, 5.0), dt=5e-4, sample_dt=5e-4)
    traj = integrate(
        sleigh_friction_field(sleigh, eps), [0, 0, 0, -1.0, 0.0, 0.5], cfg
    )
    frame_traj = transform_linear(traj, frame_state_matrix(sleigh))
    viol = energy_audit(frame_traj, sysm, fric, eps, frame=frame)
    assert viol <= 1e-4


def test_energy_audit_grid_check(sleigh_setup):
    sysm = sleigh_setup[0]
    times = np.array([0.0, 0.1, 0.3])
    traj = Trajectory(times, np.zeros((3, 6)), np.zeros((3, 6)))
    with pytest.raises(ValueError):
        energy_audit(traj, sysm, None, 1.0)


# ---------------------------------------------------------------------------
# manifold fit
# ---------------------------------------------------------------------------


def test_manifold_fit_nh_trajectory_zero_residual(sleigh, sleigh_setup):
    sysm, frame, fric = sleigh_setup
    expansion = compute_h1(sysm, frame, fric)
    cfg = IntegratorConfig(t_span=(0.0, 2.0), dt=1e-3, sample_dt=1e-2)
    traj = integrate(sleigh_nh_field(sleigh), [0, 0, 0, -1.0, 0.5], cfg)
    lift = np.zeros((6, 5))
    for i in range(4):
        lift[i, i] = 1.0
    lift[4, 4] = 1.0
    fit = manifold_fit(transform_linear(traj, lift), expansion, 0.0, 0.5, 3, 2)
    assert fit.residual_sup == 0.0


def test_manifold_fit_slaved_start_stays_quadratic(sleigh, sleigh_setup):
    # starting exactly on the first-order graph keeps the residual at the
    # eps^2 scale from t = 0 (no relaxation transient)
    sysm, frame, fric = sleigh_setup
    expansion = compute_h1(sysm, frame, fric)
    eps = 1e-2
    u0, om0 = -1.0, 0.5
    v0 = eps * float(expansion.h1(np.zeros(3), np.array([u0, om0]))[0])
    cfg = IntegratorConfig(t_span=(0.0, 2.0), dt=eps / 20, sample_dt=1e-2)
    traj = integrate(
        sleigh_friction_field(sleigh, eps), [0, 0, 0, u0, v0, om0], cfg
    )
    frame_traj = transform_linear(traj, frame_state_matrix(sleigh))
    fit = manifold_fit(frame_traj, expansion, eps, 0.0, 3, 2)
    assert fit.residual_sup < 10.0 * eps**2


def test_manifold_fit_rows_past_one_block_equal_single_point_h1(sleigh_setup):
    sysm, frame, fric = sleigh_setup
    expansion = compute_h1(sysm, frame, fric)
    rng = np.random.default_rng(11)
    times = np.linspace(0.0, 6.0, 601)
    states = rng.normal(size=(601, 6))
    eps = 3e-3
    fit = manifold_fit(Trajectory(times, states, states), expansion, eps, 0.5, 3, 2)
    assert len(fit.predicted) == 551 > BLOCK_ROWS
    rows = np.array([eps * expansion.h1(q, xi) for q, xi in zip(fit.qs, fit.xis)])
    assert fit.predicted.tobytes() == rows.tobytes()


def test_manifold_fit_transient_too_short(sleigh_setup):
    sysm, frame, fric = sleigh_setup
    expansion = compute_h1(sysm, frame, fric)
    times = np.linspace(0.0, 0.2, 5)
    traj = Trajectory(times, np.zeros((5, 6)), np.zeros((5, 6)))
    with pytest.raises(TransientTooShort):
        manifold_fit(traj, expansion, 1e-2, 0.5, 3, 2)


def test_fit_slope_through_origin():
    x = np.array([1.0, 2.0, 3.0])
    assert_allclose(fit_slope_through_origin(x, -0.7 * x), -0.7)
    with pytest.raises(ValueError):
        fit_slope_through_origin(np.zeros(3), np.ones(3))
