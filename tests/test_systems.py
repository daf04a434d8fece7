import numpy as np
import pytest
from numpy.testing import assert_allclose

from nonholib.ode import IntegratorConfig, integrate
from nonholib.systems import (
    OriginSingularity,
    PendulumParams,
    REGISTRY,
    SleighParams,
    get_system,
    make_pendulum,
    pendulum_default_state,
    sleigh_constraint_force,
    sleigh_corrected_field,
    sleigh_energy,
    sleigh_energy_ortho,
    sleigh_fast_closed_form,
    sleigh_friction_field,
    sleigh_friction_ortho_rhs,
    sleigh_friction_rhs,
    sleigh_h1_rhs,
    sleigh_nh_field,
    sleigh_nh_rhs,
    sleigh_x1_rhs,
)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def test_sleigh_params_validation():
    with pytest.raises(ValueError):
        SleighParams(m=-1.0)
    with pytest.raises(ValueError):
        SleighParams(I=0.0)
    with pytest.raises(ValueError):
        SleighParams(a=-0.1)
    for bad in ({"a": float("nan")}, {"m": float("inf")}, {"I": float("inf")}):
        with pytest.raises(ValueError):
            SleighParams(**bad)
    p = SleighParams(m=2.0, I=3.0, a=0.5)
    assert_allclose(p.itot, 3.5)
    assert_allclose(p.fast_rate(0.01), 3.5 / (3.0 * 2.0 * 0.01))


def test_pendulum_params_validation():
    with pytest.raises(ValueError):
        PendulumParams(g=0.0, eps=1e-3)
    with pytest.raises(ValueError):
        PendulumParams(g=9.81, eps=0.0)
    for bad in ({"g": float("inf")}, {"g": float("nan")}, {"eps": float("inf")}):
        with pytest.raises(ValueError):
            PendulumParams(**bad)


# ---------------------------------------------------------------------------
# sleigh closed forms
# ---------------------------------------------------------------------------


def test_nh_rhs_substitutions(sleigh):
    assert_allclose(sleigh_nh_rhs(sleigh, 0.0, 1.0), (0.2, 0.0))
    for c in (-2.0, 0.0, 1.5):
        assert_allclose(sleigh_nh_rhs(sleigh, c, 0.0), (0.0, 0.0))
    udot, omdot = sleigh_nh_rhs(sleigh, 1.0, 1.0)
    assert_allclose((udot, omdot), (0.2, -5.0 / 26.0))


def test_constraint_force(sleigh):
    assert sleigh_constraint_force(sleigh, 0.3, 0.0, 0.0) == 0.0
    # on constrained orbits the multiplier is m u om I/(I + m a^2)
    u, om = 0.8, -0.4
    _, omdot = sleigh_nh_rhs(sleigh, u, om)
    lam = sleigh_constraint_force(sleigh, u, om, omdot)
    assert_allclose(lam, sleigh.m * u * om * sleigh.I / sleigh.itot, atol=1e-14)


def test_h1_equals_minus_reaction_force(sleigh):
    # unit slip friction: the slip drift is minus the constraint multiplier
    for u, om in ((0.8, -0.4), (1.0, 1.0), (-0.5, 0.7)):
        _, omdot = sleigh_nh_rhs(sleigh, u, om)
        lam = sleigh_constraint_force(sleigh, u, om, omdot)
        assert_allclose(sleigh_h1_rhs(sleigh, u, om), -lam, atol=1e-14)


def test_friction_rhs_values(sleigh):
    # at zero slip the slip acceleration is -u om
    _, vdot, _ = sleigh_friction_rhs(sleigh, 0.37, 1.0, 0.0, 1.0)
    assert_allclose(vdot, -1.0, atol=1e-14)
    with pytest.raises(ValueError):
        sleigh_friction_rhs(sleigh, 0.0, 1.0, 0.0, 1.0)


def test_friction_rhs_free_limit(sleigh):
    # enormous eps switches the friction off: unconstrained moving-frame flow
    u, v, om = 0.6, -0.3, 0.9
    udot, vdot, omdot = sleigh_friction_rhs(sleigh, 1e12, u, v, om)
    assert_allclose(udot, v * om + sleigh.a * om * om, atol=1e-10)
    assert_allclose(vdot, -u * om, atol=1e-10)
    assert_allclose(omdot, 0.0, atol=1e-10)


def test_friction_frames_agree_under_coordinate_change(sleigh):
    # (u, v, omega) rates mapped through psi = omega + coupling v match the
    # orthogonal-frame rates
    rng = np.random.default_rng(30)
    eps = 0.01
    for _ in range(50):
        u, v, om = rng.uniform(-1.2, 1.2, 3)
        udot, vdot, omdot = sleigh_friction_rhs(sleigh, eps, u, v, om)
        psi = om + sleigh.coupling * v
        udot2, vdot2, psidot2 = sleigh_friction_ortho_rhs(sleigh, eps, u, v, psi)
        assert_allclose(udot2, udot, atol=1e-10)
        assert_allclose(vdot2, vdot, atol=1e-10)
        assert_allclose(psidot2, omdot + sleigh.coupling * vdot, atol=1e-10)


def test_fast_closed_form(sleigh):
    eps, u, om, v0 = 0.01, 0.8, 0.5, 0.3
    rho = sleigh.fast_rate(eps)
    # start
    assert_allclose(sleigh_fast_closed_form(sleigh, eps, u, om, v0, 0.0), v0)
    # settled value
    settle = -u * om / rho
    assert_allclose(
        sleigh_fast_closed_form(sleigh, eps, u, om, v0, 100.0 / rho),
        settle,
        atol=1e-12,
    )
    assert_allclose(settle, -eps * sleigh.slaving * u * om, atol=1e-14)
    # starting on the slaved value stays there
    ts = np.linspace(0.0, 0.1, 7)
    assert_allclose(
        sleigh_fast_closed_form(sleigh, eps, u, om, settle, ts), settle, atol=1e-14
    )


def test_x1_rhs_zero_lines(sleigh):
    for u, psi in ((0.0, 0.7), (0.9, 0.0), (0.0, 0.0)):
        assert_allclose(
            sleigh_x1_rhs(sleigh, 0.1, 0.2, 0.3, u, psi), 0.0, atol=1e-14
        )


def test_x1_rhs_values(sleigh):
    assert_allclose(sleigh_h1_rhs(sleigh, 1.0, 1.0), -25.0 / 26.0, atol=1e-14)
    xd, yd, phid, ud, psid = sleigh_x1_rhs(sleigh, 0.0, 0.0, 0.0, 1.0, 1.0)
    s1 = sleigh.slaving
    assert_allclose((xd, yd), (0.0, -s1), atol=1e-14)
    # phi drift is -coupling * h1 > 0 for u psi > 0
    assert_allclose(phid, sleigh.coupling * s1, atol=1e-14)
    assert_allclose(ud, s1 * (0.04 - 1.0) / 1.04, atol=1e-14)
    assert_allclose(psid, -s1 * sleigh.coupling**2, atol=1e-14)


def test_energies(sleigh):
    assert_allclose(sleigh_energy(sleigh, 1.0, 0.0, 0.0), 0.5)
    # the two frame energies agree under the coordinate change
    rng = np.random.default_rng(31)
    for _ in range(20):
        u, v, om = rng.uniform(-1.2, 1.2, 3)
        psi = om + sleigh.coupling * v
        assert_allclose(
            sleigh_energy(sleigh, u, v, om),
            sleigh_energy_ortho(sleigh, u, v, psi),
            atol=1e-12,
        )


def test_nh_matches_closed_form_solution(sleigh):
    # the conserved quantity Q = m u^2 + (I + m a^2) om^2 makes the orbit an
    # ellipse arc u = Ru cos(th), om = Rw sin(th) traversed with
    # th' = -k sin(th), k = a Rw^2 / Ru, i.e. tan(th/2) decays at rate k
    u0, om0 = -1.0, 0.5
    q0 = sleigh.m * u0**2 + sleigh.itot * om0**2
    ru, rw = np.sqrt(q0 / sleigh.m), np.sqrt(q0 / sleigh.itot)
    th0 = np.arctan2(om0 / rw, u0 / ru)
    k = sleigh.a * rw**2 / ru
    cfg = IntegratorConfig(t_span=(0.0, 10.0), dt=1e-3, sample_dt=0.5)
    traj = integrate(sleigh_nh_field(sleigh), [0, 0, 0, u0, om0], cfg)
    th = 2.0 * np.arctan(np.tan(th0 / 2.0) * np.exp(-k * traj.times))
    np.testing.assert_allclose(traj.states[:, 3], ru * np.cos(th), atol=1e-9)
    np.testing.assert_allclose(traj.states[:, 4], rw * np.sin(th), atol=1e-9)


def test_nh_orbit_half_ellipse(sleigh):
    cfg = IntegratorConfig(t_span=(0.0, 10.0), dt=1e-3, sample_dt=0.1)
    traj = integrate(sleigh_nh_field(sleigh), [0, 0, 0, -1.0, 0.5], cfg)
    u, om = traj.states[:, 3], traj.states[:, 4]
    q0 = sleigh.m * u[0] ** 2 + sleigh.itot * om[0] ** 2
    assert np.max(np.abs(sleigh.m * u**2 + sleigh.itot * om**2 - q0)) / q0 < 1e-8
    # forward motion ends up along the positive-u axis side
    assert u[-1] > 0
    assert om[-1] < om.max()


def test_corrected_field_zero_eps_is_nh(sleigh):
    nh = sleigh_nh_field(sleigh)
    corr = sleigh_corrected_field(sleigh, 0.0)
    rng = np.random.default_rng(32)
    for _ in range(10):
        st = rng.uniform(-1, 1, 5)
        assert_allclose(corr(st), nh(st), atol=0.0, rtol=0.0)


def test_friction_slaving_invariant(sleigh):
    # post-transient slip stays within O(eps^2) of the slaved value; the
    # bound constant is estimated from the eps ladder itself
    sups = {}
    for eps in (1e-2, 5e-3):
        cfg = IntegratorConfig(t_span=(0.0, 10.0), dt=eps / 20, sample_dt=1e-2)
        traj = integrate(
            sleigh_friction_field(sleigh, eps), [0, 0, 0, -1.0, 0.0, 0.5], cfg
        )
        keep = traj.times >= 0.5
        u, v, om = (traj.states[keep, i] for i in (3, 4, 5))
        psi = om + sleigh.coupling * v
        sups[eps] = np.max(np.abs(v - eps * sleigh_h1_rhs(sleigh, u, psi)))
    ratio = sups[1e-2] / sups[5e-3]
    assert 3.0 < ratio < 5.0


# ---------------------------------------------------------------------------
# pendulum
# ---------------------------------------------------------------------------


def test_pendulum_friction_terminal_speed():
    p = PendulumParams(g=9.81, eps=1e-2)
    f = make_pendulum("friction", p)
    cfg = IntegratorConfig(t_span=(0.0, 1.0), dt=p.eps / 20, sample_dt=1e-2)
    traj = integrate(f, [0.0, -1.0, 0.0, 0.0], cfg)
    assert_allclose(traj.states[-1, 3], -p.eps * p.g, rtol=1e-6)
    assert_allclose(traj.states[:, 0], 0.0, atol=1e-14)  # stays on the axis


def test_pendulum_inertial_axis_acceleration():
    p = PendulumParams(g=9.81, eps=1e-3)
    f = make_pendulum("inertial", p)
    out = f(np.array([0.0, -1.0, 0.0, 0.0]))
    assert_allclose(out[3], -p.g / (1.0 + 1.0 / p.eps), atol=1e-14)


def test_pendulum_potential_equilibrium():
    # the stretched hanging point r = 1 + eps g is a genuine equilibrium
    p = PendulumParams(g=9.81, eps=1e-2)
    f = make_pendulum("potential", p)
    out = f(np.array([0.0, -(1.0 + p.eps * p.g), 0.0, 0.0]))
    assert_allclose(out, 0.0, atol=1e-12)
    # starting at rest on the circle, motion stays within the spring scale
    cfg = IntegratorConfig(t_span=(0.0, 2.0), dt=1e-3, sample_dt=1e-3)
    traj = integrate(f, [0.0, -1.0, 0.0, 0.0], cfg)
    r = np.abs(traj.states[:, 1])
    assert np.max(np.abs(r - 1.0)) < 2.5 * p.eps * p.g


def test_pendulum_friction_radius_grows():
    # swinging below the pivot, the slaved radial drift is outward: the mass
    # sinks, so the radius increases after the initial relaxation
    p = PendulumParams(g=9.81, eps=1e-2)
    f = make_pendulum("friction", p)
    cfg = IntegratorConfig(t_span=(0.0, 10.0), dt=p.eps / 20, sample_dt=1e-2)
    traj = integrate(f, pendulum_default_state(), cfg)
    r = np.linalg.norm(traj.states[:, :2], axis=1)
    keep = traj.times >= 1.0
    assert np.all(np.diff(r[keep]) > -1e-12)


def test_pendulum_origin_singularity():
    p = PendulumParams(g=9.81, eps=1e-2)
    for variant in ("potential", "friction", "inertial"):
        f = make_pendulum(variant, p)
        with pytest.raises(OriginSingularity):
            f(np.array([0.0, 0.0, 0.1, 0.1]))


def test_make_pendulum_unknown_variant():
    with pytest.raises(ValueError):
        make_pendulum("magnetic", PendulumParams())


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def test_registry_names():
    assert set(REGISTRY) == {
        "sleigh",
        "pendulum-potential",
        "pendulum-friction",
        "pendulum-inertial",
    }
    with pytest.raises(KeyError):
        get_system("rolling-ball")


def test_registry_models_and_states():
    sleigh_entry = get_system("sleigh")
    assert set(sleigh_entry.models) == {"nh", "friction", "corrected", "fast"}
    st = np.array(sleigh_entry.models["friction"].default_state)
    assert st.shape == (6,)
    pend = get_system("pendulum-friction")
    assert "fast" in pend.models
    assert "fast" not in get_system("pendulum-potential").models


def test_registry_builds_callable_fields():
    entry = get_system("sleigh")
    for name, spec in entry.models.items():
        eps = 0.01 if spec.needs_eps else None
        fld = spec.build({}, eps)
        out = fld(np.array(spec.default_state))
        assert np.shape(out) == (len(spec.columns),)


@pytest.mark.parametrize("system", sorted(REGISTRY))
def test_fields_take_lists_and_arrays_alike(system):
    # the integrators hand fields a list of floats; values must not depend on it
    for name, spec in REGISTRY[system].models.items():
        fld = spec.build({}, 0.01 if spec.needs_eps else None)
        off = 0.1 * np.arange(1, len(spec.columns) + 1)  # off the constraint, moving
        state = np.array(spec.default_state) + off
        from_list = np.asarray(fld(state.tolist()), dtype=float)
        from_array = np.asarray(fld(state), dtype=float)
        assert from_list.tobytes() == from_array.tobytes(), name


@pytest.mark.parametrize("params", [{}, {"m": 2.0, "I": 0.7, "a": 0.3}])
def test_registry_derived_state_maps(params):
    entry = get_system("sleigh")
    frame_map = entry.frame_state_matrix(params)
    reduce = entry.reduce_matrix(params)
    assert reduce.tobytes() == frame_map[:5].tobytes()
    for reduced in (
        np.array([0.0, 0.0, 0.0, -1.0, 0.5]),
        np.array([1.5, -2.0, 0.3, 0.8, -0.25]),
        np.array([-3.0, 7.0, 2.5, 1e-9, 4.0]),
    ):
        lifted = entry.lift_state(params, reduced)
        assert (reduce @ lifted).tobytes() == reduced.tobytes()
        assert np.all(frame_map[5:] @ lifted == 0.0)  # no slip
