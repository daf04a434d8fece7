import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nonholib.dynamics import relaxation_rate
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
    sleigh_ortho_frame,
    sleigh_uvw_frame,
    sleigh_x1_rhs,
)

SLEIGH_PARAMS = ({}, {"m": 2.0, "I": 0.7, "a": 0.3}, {"m": 1.3, "I": 0.45, "a": 0.77})


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


@pytest.mark.parametrize("params", SLEIGH_PARAMS)
def test_sleigh_params_cached_constants(params):
    p = SleighParams(**params)
    m, inertia, a = p.m, p.I, p.a
    assert p.itot == inertia + m * a**2
    assert p.coupling == m * a / (inertia + m * a**2)
    assert p.slaving == m * inertia / (inertia + m * a**2)
    # once read, the cached constants change nothing a dataclass derives
    # from its fields
    fresh = SleighParams(**params)
    assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)
    assert dataclasses.astuple(p) == dataclasses.astuple(fresh) == (m, inertia, a)
    assert dataclasses.replace(p) == fresh
    heavier = dataclasses.replace(p, m=2 * m)
    assert heavier != p
    assert heavier.itot == inertia + 2 * m * a**2
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.itot = 1.0


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


def test_nh_conserves_energy_from_random_states():
    # Q = m u^2 + itot omega^2 = 2 * kinetic energy is a first integral of
    # the nh field.  rk4 is order 4, so over [0, T] the drift is about
    # T lam^5 h^4 Q, lam a bound on |d(udot, omegadot)/d(u, omega)| on the
    # level set of Q; constant 1, plus 1e-13 Q for roundoff over 200 steps
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    h, t_end = 1e-2, 2.0

    @hyp.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hyp.given(
        m=st.floats(0.5, 2.0),
        inertia=st.floats(0.5, 2.0),
        a=st.floats(0.0, 1.0),
        phi=st.floats(-np.pi, np.pi),
        u=st.floats(-1.0, 1.0),
        omega=st.floats(-1.0, 1.0),
    )
    def check(m, inertia, a, phi, u, omega):
        p = SleighParams(m=m, I=inertia, a=a)
        cfg = IntegratorConfig(t_span=(0.0, t_end), dt=h, sample_dt=0.1)
        traj = integrate(sleigh_nh_field(p), [0.0, 0.0, phi, u, omega], cfg)
        us, oms = traj.states[:, 3], traj.states[:, 4]
        q0 = p.m * u * u + p.itot * omega * omega
        u_max, om_max = np.sqrt(q0 / p.m), np.sqrt(q0 / p.itot)
        lam = 2 * p.a * om_max + p.coupling * (u_max + om_max)
        bound = (t_end * lam**5 * h**4 + 1e-13) * q0
        q = p.m * us * us + p.itot * oms * oms
        assert np.max(np.abs(q - q0)) <= bound
        energy = sleigh_energy(p, us, 0.0, oms)
        assert np.max(np.abs(energy - sleigh_energy(p, u, 0.0, omega))) <= 0.5 * bound

    check()


def test_corrected_field_zero_eps_is_nh(sleigh):
    nh = sleigh_nh_field(sleigh)
    corr = sleigh_corrected_field(sleigh, 0.0)
    rng = np.random.default_rng(32)
    for _ in range(10):
        st = rng.uniform(-1, 1, 5)
        assert_allclose(corr(st), nh(st), atol=0.0, rtol=0.0)


def _nh_oracle(p, st):
    x, y, phi, u, om = st
    return (u * math.cos(phi), u * math.sin(phi), om, *sleigh_nh_rhs(p, u, om))


def _friction_oracle(p, eps, st):
    x, y, phi, u, v, om = st
    s, c = math.sin(phi), math.cos(phi)
    udot, vdot, omdot = sleigh_friction_rhs(p, eps, u, v, om)
    return (u * c - v * s, u * s + v * c, om, udot, vdot, omdot)


def _corrected_oracle(p, eps, st):
    nh = _nh_oracle(p, st)
    return tuple(a + eps * b for a, b in zip(nh, sleigh_x1_rhs(p, *st)))


@pytest.mark.parametrize(
    "params", ({}, {"m": 2.5}, {"I": 0.3}, {"a": 0.0}, {"a": 0.7})
)
@pytest.mark.parametrize("eps", (8e-3, 2e-3))
def test_run_path_fields_equal_their_rate_helpers(params, eps):
    # the run-path fields bind their constants once; every value must stay
    # bitwise that of the per-call helper composition, for list rows (the
    # integrator's) and ndarray rows alike
    p = SleighParams(**params)
    nh, fric = sleigh_nh_field(p), sleigh_friction_field(p, eps)
    corr, corr0 = sleigh_corrected_field(p, eps), sleigh_corrected_field(p, 0.0)
    rng = np.random.default_rng(33)
    for row in rng.uniform(-3.0, 3.0, (1000, 6)):
        for st in (row, row.tolist()):
            assert fric(st) == _friction_oracle(p, eps, st)
            st5 = st[:5]
            assert nh(st5) == _nh_oracle(p, st5)
            assert corr(st5) == _corrected_oracle(p, eps, st5)
            assert corr0(st5) == nh(st5)


def test_run_path_fields_refuse_eps_when_built(sleigh):
    for eps in (0.0, -1e-3, float("nan")):
        with pytest.raises(ValueError):
            sleigh_friction_field(sleigh, eps)
    with pytest.raises(ValueError):
        sleigh_corrected_field(sleigh, -1e-3)


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


def derived_rate(system, params, eps):
    """The rk4 refusal's rate: relaxation rate at the default start q over eps."""
    entry = get_system(system)
    sysm, _, fric = entry.realization(params)
    start = np.array(entry.models["friction"].default_state)
    return relaxation_rate(sysm, fric, start[: sysm.n]) / eps


@pytest.mark.parametrize("params", SLEIGH_PARAMS)
def test_derived_rate_matches_closed_form(params):
    for eps in (1e-2, 2e-3):
        expected = SleighParams(**params).fast_rate(eps)
        assert_allclose(derived_rate("sleigh", params, eps), expected, rtol=1e-15)


def test_derived_rate_pendulum_friction():
    for eps in (1e-2, 1e-3):
        assert_allclose(derived_rate("pendulum-friction", {}, eps), 1.0 / eps, rtol=1e-15)


@pytest.mark.parametrize("params", SLEIGH_PARAMS)
def test_derived_frame_state_map(params):
    # psi = omega + coupling * v and eta = v, bit for bit (no -0.0 entries),
    # so the reduced and frame trajectories of the reports do not move
    p = SleighParams(**params)
    expected = np.eye(6)
    expected[4:, 4:] = [[p.coupling, 1.0], [1.0, 0.0]]
    frame_map = get_system("sleigh").frame_state_matrix(params)
    assert frame_map.tobytes() == expected.tobytes()
    # the map reads the change of frame at q = 0; it holds at every phi
    rng = np.random.default_rng(33)
    for _ in range(50):
        q = rng.uniform(-5.0, 5.0, 3)
        ortho, uvw = sleigh_ortho_frame(p).fields_at(q), sleigh_uvw_frame(p).fields_at(q)
        assert_allclose(np.linalg.inv(ortho) @ uvw, frame_map[3:, 3:], rtol=0.0, atol=1e-15)


def test_sleigh_fast_model_moves_only_slip():
    # mapped to (q, u, psi, v), the derived fast model is v' = -B v with
    # B = (I + m a^2)/(m I), everything else frozen; |B v| <= 4 here, so
    # 1e-14 is a few roundoffs of the largest rate
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    entry = get_system("sleigh")

    @hyp.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hyp.given(
        m=st.floats(0.5, 2.0),
        inertia=st.floats(0.5, 2.0),
        a=st.floats(0.0, 1.0),
        state=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
    )
    def check(m, inertia, a, state):
        params = {"m": m, "I": inertia, "a": a}
        frame_map = entry.frame_state_matrix(params)
        rates = frame_map @ np.asarray(entry.models["fast"].build(params, None)(state))
        slip = (frame_map @ np.array(state))[5]
        expected = np.zeros(6)
        expected[5] = -SleighParams(**params).fast_rate(1.0) * slip
        assert_allclose(rates, expected, rtol=0.0, atol=1e-14)

    check()
