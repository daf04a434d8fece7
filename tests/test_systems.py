import ast
import dataclasses
import decimal
import math
import traceback

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_sleigh_q, text_of
from nonholib import ode
from nonholib.dynamics import compute_h1, friction_matrix
from nonholib.geometry import COND_LIMIT, connection_coefficients, frame_metric
from nonholib.ode import IntegratorConfig, integrate
from nonholib.systems import (
    PENDULUM_VARIANTS,
    InvalidParameter,
    OriginSingularity,
    PendulumParams,
    REGISTRY,
    SleighParams,
    _SLEIGH_FRICTION,
    get_system,
    _radial,
    make_pendulum,
    pendulum_default_state,
    pendulum_nh_field,
    sleigh_corrected_field,
    sleigh_energy,
    sleigh_friction_field,
    sleigh_nh_field,
    sleigh_ortho_frame,
    sleigh_system,
    sleigh_uvw_frame,
)

from oracles import (
    corrected_oracle,
    friction_oracle,
    nh_oracle,
    relaxation_rate,
    sleigh_constraint_force,
    sleigh_energy_ortho,
    sleigh_friction_ortho_rhs,
    sleigh_friction_rhs,
    sleigh_h1_rhs,
    sleigh_nh_rhs,
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
    # finite fields whose derived constants overflow: a**2 raises, m * I is inf
    for bad in ({"a": 1e300}, {"m": 1e200, "I": 1e200}):
        with pytest.raises(InvalidParameter, match="must be finite"):
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
        PendulumParams(g=0.0)
    for bad in ({"g": float("inf")}, {"g": float("nan")}):
        with pytest.raises(ValueError):
            PendulumParams(**bad)
    for variant in PENDULUM_VARIANTS:
        for eps in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                make_pendulum(variant, PendulumParams(g=9.81), eps)


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
    for eps in (0.0, -1e-2):
        with pytest.raises(ValueError, match="eps must be positive"):
            sleigh_friction_ortho_rhs(sleigh, eps, 1.0, 0.0, 1.0)


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


run_path_params = pytest.mark.parametrize(
    "params", ({}, {"m": 2.5}, {"I": 0.3}, {"a": 0.0}, {"a": 0.7})
)
run_path_eps = pytest.mark.parametrize("eps", (8e-3, 2e-3))


@run_path_params
@run_path_eps
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
            assert fric(st) == friction_oracle(p, eps, st)
            st5 = st[:5]
            assert nh(st5) == nh_oracle(p, st5)
            assert corr(st5) == corrected_oracle(p, eps, st5)
            assert corr0(st5) == nh(st5)


@run_path_params
@run_path_eps
def test_folded_friction_rates_differ_from_closed_forms_by_rounding(params, eps):
    # The field folds its eps constants when built.  Against the unfolded
    # closed forms, each side rounds at most 8 times along any term's path,
    # so a rate differs by at most about 16 u = 8 ulps(1.0) of its scale, the
    # sum of its terms' magnitudes; the bound allows 10.
    p = SleighParams(**params)
    fric = sleigh_friction_field(p, eps)
    m, inertia, a = p.m, p.I, p.a
    ulp = np.finfo(float).eps
    rng = np.random.default_rng(34)
    for st in rng.uniform(-3.0, 3.0, (1000, 6)).tolist():
        x, y, phi, u, v, om = st
        closed_forms = (
            (v * om, a * om * om),
            (-u * om, -(inertia + m * a * a) * v / (m * inertia * eps)),
            (a * v / (inertia * eps),),
        )
        for rate, terms in zip(fric(st)[3:], closed_forms):
            assert abs(rate - sum(terms)) <= 10 * ulp * sum(map(abs, terms))


def test_friction_text_stage_operation_count():
    # A stage of the friction text costs 7 float operations on the velocity
    # rates and no division, because the eps constants are folded when the
    # field is built (11, two of them divisions, when each stage rebuilt the
    # fast rate).  ROADMAP item 10's text derived from the description has to
    # keep this count.
    (fn,) = ast.parse(_SLEIGH_FRICTION).body
    u_v_omega_rates = fn.body[-1].value.elts[3:]
    ops = [
        node
        for rate in u_v_omega_rates
        for node in ast.walk(rate)
        if isinstance(node, (ast.BinOp, ast.UnaryOp))
    ]
    assert len(ops) <= 7
    assert not any(isinstance(getattr(node, "op", None), ast.Div) for node in ops)


def test_run_path_fields_refuse_eps_when_built(sleigh):
    for eps in (0.0, -1e-3, float("nan")):
        with pytest.raises(ValueError):
            sleigh_friction_field(sleigh, eps)
    with pytest.raises(ValueError):
        sleigh_corrected_field(sleigh, -1e-3)
    # m I eps underflows to 0, so the fast rate cannot be folded
    with pytest.raises(InvalidParameter, match="m=1e-20, I=1e-20, eps=1e-300"):
        sleigh_friction_field(SleighParams(m=1e-20, I=1e-20), 1e-300)


# the models whose fields the steppers call; every other model's field is a
# declared text, written into the steppers' stages
CALLED_MODELS = {
    ("sleigh", "fast"),
    ("pendulum-friction", "fast"),
}


def test_registered_fields_are_declared_unless_called():
    # a run-path field that stops being a declared text would silently take
    # the slower called path
    models = set()
    for system, entry in REGISTRY.items():
        for model, spec in entry.models.items():
            field = spec.build(dict(entry.param_defaults), 4e-3 if spec.needs_eps else None)
            declared = ode._TEXTS.get(getattr(field, "__code__", None)) is not None
            assert declared == ((system, model) not in CALLED_MODELS), (system, model)
            models.add((system, model))
    assert CALLED_MODELS <= models


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


def test_friction_rung_matches_radau(sleigh):
    # The 8e-3 rung of the sleigh ladder (README start, 10 s, rk4 at the
    # CLI's step eps/20) against scipy's implicit Radau IIA as an independent
    # stiff reference, at the final state.  The bound was fixed before the
    # first run: twice the sum of the two methods' error estimates, each
    # taken from a second run of the method.  rk4's is 16/15 of the change
    # when its step is halved (order 4).  The reference is Radau at
    # rtol = atol = 1e-13; its estimate is its distance to Radau at 1e-12,
    # which measures the looser run's error, about ten times the reference's
    # when the error follows the tolerance.  Both differences also carry the
    # runs' rounding, which is of the size of the agreement checked here.
    # The first run read a gap of 4.1e-14 against a bound of 1.2e-13 (rk4
    # 4.1e-14, Radau 2.0e-14 over 3,809 steps), so a disagreement of about
    # 1e-13 or more fails the check.
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    eps, x0 = 8e-3, [0.0, 0.0, 0.0, -1.0, 0.0, 0.5]
    field = sleigh_friction_field(sleigh, eps)
    ends = []
    for dt in (eps / 20, eps / 40):
        cfg = IntegratorConfig(t_span=(0.0, 10.0), dt=dt, sample_dt=1e-2)
        ends.append(integrate(field, x0, cfg).states[-1])
    rk4_error = 16 / 15 * np.max(np.abs(ends[0] - ends[1]))
    radau = []
    for tol in (1e-13, 1e-12):
        sol = solve_ivp(
            lambda t, x: field(x), (0.0, 10.0), x0, method="Radau", rtol=tol, atol=tol
        )
        assert sol.success
        radau.append(sol.y[:, -1])
    radau_error = np.max(np.abs(radau[0] - radau[1]))
    assert np.max(np.abs(ends[0] - radau[0])) <= 2 * (rk4_error + radau_error)


# ---------------------------------------------------------------------------
# pendulum
# ---------------------------------------------------------------------------


def test_pendulum_friction_terminal_speed():
    p, eps = PendulumParams(g=9.81), 1e-2
    f = make_pendulum("friction", p, eps)
    cfg = IntegratorConfig(t_span=(0.0, 1.0), dt=eps / 20, sample_dt=1e-2)
    traj = integrate(f, [0.0, -1.0, 0.0, 0.0], cfg)
    assert_allclose(traj.states[-1, 3], -eps * p.g, rtol=1e-6)
    assert_allclose(traj.states[:, 0], 0.0, atol=1e-14)  # stays on the axis


def test_pendulum_inertial_axis_acceleration():
    p, eps = PendulumParams(g=9.81), 1e-3
    f = make_pendulum("inertial", p, eps)
    out = f(np.array([0.0, -1.0, 0.0, 0.0]))
    assert_allclose(out[3], -p.g / (1.0 + 1.0 / eps), atol=1e-14)


def test_pendulum_inertial_friction_model_has_no_fast_mode():
    # Its inverse mass matrix is 1 - e e^T / (1 + eps), so the radial
    # acceleration carries eps / (1 + eps) and 1 / (1 + eps), and no 1 / eps:
    # no rk4 step bound or stiff default step is owed to it.  The bound 10 was
    # fixed before the run; the same measurement finds pendulum-friction's
    # relaxation rate 1 / eps.
    rng = np.random.default_rng(0)
    r, th = rng.uniform(0.95, 1.05, 200), rng.uniform(-np.pi, np.pi, 200)
    states = np.column_stack((r * np.sin(th), -r * np.cos(th), rng.uniform(-2, 2, (200, 2))))
    step = 1e-6 * np.eye(4)

    def largest_rate(field):
        return max(
            np.abs(np.linalg.eigvals(np.column_stack(
                [(np.asarray(field(x + d)) - np.asarray(field(x - d))) / 2e-6 for d in step]
            ))).max()
            for x in states
        )

    for eps in (1e-2, 1e-3, 1e-4):
        p = PendulumParams()
        assert largest_rate(make_pendulum("inertial", p, eps)) < 10.0
        assert_allclose(largest_rate(make_pendulum("friction", p, eps)), 1.0 / eps, rtol=1e-3)


def test_pendulum_potential_equilibrium():
    # the stretched hanging point r = 1 + eps g is a genuine equilibrium
    p, eps = PendulumParams(g=9.81), 1e-2
    f = make_pendulum("potential", p, eps)
    out = f(np.array([0.0, -(1.0 + eps * p.g), 0.0, 0.0]))
    assert_allclose(out, 0.0, atol=1e-12)
    # starting at rest on the circle, motion stays within the spring scale
    cfg = IntegratorConfig(t_span=(0.0, 2.0), dt=1e-3, sample_dt=1e-3)
    traj = integrate(f, [0.0, -1.0, 0.0, 0.0], cfg)
    r = np.abs(traj.states[:, 1])
    assert np.max(np.abs(r - 1.0)) < 2.5 * eps * p.g


def test_pendulum_friction_radius_grows():
    # swinging below the pivot, the slaved radial drift is outward: the mass
    # sinks, so the radius increases after the initial relaxation
    p, eps = PendulumParams(g=9.81), 1e-2
    f = make_pendulum("friction", p, eps)
    cfg = IntegratorConfig(t_span=(0.0, 10.0), dt=eps / 20, sample_dt=1e-2)
    traj = integrate(f, pendulum_default_state(), cfg)
    r = np.linalg.norm(traj.states[:, :2], axis=1)
    keep = traj.times >= 1.0
    assert np.all(np.diff(r[keep]) > -1e-12)


def test_pendulum_origin_singularity():
    p = PendulumParams(g=9.81)
    for variant in ("potential", "friction", "inertial"):
        f = make_pendulum(variant, p, 1e-2)
        with pytest.raises(OriginSingularity):
            f(np.array([0.0, 0.0, 0.1, 0.1]))


def _radial_rates(variant, p, eps, st):
    """The potential and friction rates as composed from _radial."""
    x, y, vx, vy = st
    r, ex, ey = _radial(x, y)
    k = (r - 1.0) / eps if variant == "potential" else (ex * vx + ey * vy) / eps
    return (vx, vy, -k * ex, -p.g - k * ey)


def _pendulum_states(rng, count):
    """Random states; a quarter of them with positions scaled down to radii
    from 1e-9 to 1, around the origin check at 1e-8."""
    states = rng.uniform(-3.0, 3.0, (count, 4))
    near = states[: count // 4]
    near[:, :2] *= 10.0 ** rng.uniform(-9.0, 0.0, (len(near), 1))
    return states


@pytest.mark.parametrize("variant", ("potential", "friction"))
def test_pendulum_texts_equal_their_radial_composition(variant):
    # the texts write _radial out, guard included; every value stays bitwise
    # the composition's, for list rows (the integrator's) and ndarray rows
    rng = np.random.default_rng(35)
    for eps in (1e-2, 2e-3):
        p = PendulumParams(g=9.81)
        field = make_pendulum(variant, p, eps)
        for row in _pendulum_states(rng, 5000):
            for st in (row, row.tolist()):
                try:
                    want = _radial_rates(variant, p, eps, st)
                except OriginSingularity:
                    with pytest.raises(OriginSingularity):
                        field(st)
                    continue
                assert field(st) == want


def _nh_numpy_rates(p, st):
    """The constrained pendulum's rates as numpy computed them before its
    field became a text."""
    x, y, vx, vy = st
    r, ex, ey = _radial(x, y)
    e_r, v, grav = np.array([ex, ey]), np.array([vx, vy]), np.array([0.0, -p.g])
    acc = grav - (grav @ e_r) * e_r - (v @ v) / r * e_r
    return np.array([vx, vy, acc[0], acc[1]])


def test_pendulum_nh_text_within_four_ulps_of_the_numpy_rates():
    # not bitwise: numpy's 2-term v @ v rounds differently from
    # vx * vx + vy * vy.  The bound was fixed before the first run: 4 ulps
    # of 1 (2**-52) times the scale g + |v|^2 / r of the accelerations
    rng = np.random.default_rng(36)
    for g in (9.81, 1.0):
        p = PendulumParams(g=g)
        field = pendulum_nh_field(p)
        for row in rng.uniform(-3.0, 3.0, (5000, 4)):
            want = _nh_numpy_rates(p, row)
            x, y, vx, vy = row
            bound = 4 * 2.0**-52 * (g + (vx * vx + vy * vy) / math.hypot(x, y))
            for st in (row, row.tolist()):
                got = field(st)
                assert got[:2] == (want[0], want[1])
                assert abs(got[2] - want[2]) <= bound and abs(got[3] - want[3]) <= bound


def _inertial_numpy_rates(p, eps, st):
    """The heavy-mass rates as numpy computed them before the field became
    a text: the mass matrix assembled and solved at every state."""
    x, y, vx, vy = st
    r, ex, ey = _radial(x, y)
    e_r = np.array([ex, ey])
    v = np.array([vx, vy])
    v_perp = v - (e_r @ v) * e_r
    mass = np.eye(2) + np.outer(e_r, e_r) / eps
    force = np.array([0.0, -p.g]) - (v_perp @ v_perp) / (eps * r) * e_r
    acc = np.linalg.solve(mass, force)
    return np.array([vx, vy, acc[0], acc[1]])


def _inertial_exact_rates(g, eps, st):
    """The heavy-mass accelerations at the float state st, in 60-digit
    decimal arithmetic: the same mass matrix I + e e^T / eps and force,
    solved by Cramer's rule rather than through the closed-form inverse."""
    D = decimal.Decimal
    x, y, vx, vy = map(D, st)
    g, eps = D(g), D(eps)
    r = (x * x + y * y).sqrt()
    ex, ey = x / r, y / r
    rdot = ex * vx + ey * vy
    c = (vx * vx + vy * vy - rdot * rdot) / (eps * r)
    fx, fy = -c * ex, -g - c * ey
    m11, m12, m22 = 1 + ex * ex / eps, ex * ey / eps, 1 + ey * ey / eps
    det = m11 * m22 - m12 * m12
    return (fx * m22 - m12 * fy) / det, (m11 * fy - m12 * fx) / det


def _inertial_states(rng, count):
    """Random states; a quarter of them with velocities 1e-8 to 1e-2
    (relative) off the radial direction, where |v_perp|^2 cancels."""
    states = rng.uniform(-3.0, 3.0, (count, 4))
    near = states[: count // 4]
    x, y, s = near[:, 0], near[:, 1], near[:, 2]
    r = np.hypot(x, y)
    t = s * 10.0 ** rng.uniform(-8.0, -2.0, len(near))
    near[:, 2], near[:, 3] = (s * x - t * y) / r, (s * y + t * x) / r
    return states


INERTIAL_EPS = (1e-1, 1e-2, 1e-3, 1e-4)


def test_pendulum_inertial_text_within_four_ulps_of_a_60_digit_solve():
    # The bound was fixed before the first run: 4 ulps of 1 (2**-52) times
    # the scale g + |v|^2 / r of the accelerations, at every eps, with
    # near-radial velocities among the states
    rng = np.random.default_rng(37)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        for g in (9.81, 1.0):
            for eps in INERTIAL_EPS:
                field = make_pendulum("inertial", PendulumParams(g=g), eps)
                for row in _inertial_states(rng, 500):
                    x, y, vx, vy = row.tolist()
                    got = field(row.tolist())
                    assert got[:2] == (vx, vy)
                    bound = decimal.Decimal(4 * 2.0**-52 * (g + (vx * vx + vy * vy) / math.hypot(x, y)))
                    for a, want in zip(got[2:], _inertial_exact_rates(g, eps, row.tolist())):
                        assert abs(decimal.Decimal(a) - want) <= bound, (g, eps, row)


def test_pendulum_inertial_text_within_the_numpy_solves_error():
    # numpy's rates carry the error of the solve, whose condition number is
    # 1 + 1/eps (Higham, Accuracy and Stability of Numerical Algorithms,
    # ch. 7): the force's radial term c = |v_perp|^2 / (eps r) is up to
    # 1/eps times the scale g + |v|^2 / r and takes about 7 roundings before
    # the solve.  The bound was fixed before the first run: 8 (1 + 1/eps)
    # ulps of 1 (2**-52) times that scale.
    rng = np.random.default_rng(38)
    for g in (9.81, 1.0):
        p = PendulumParams(g=g)
        for eps in INERTIAL_EPS:
            field = make_pendulum("inertial", p, eps)
            for row in _inertial_states(rng, 500):
                want = _inertial_numpy_rates(p, eps, row)
                x, y, vx, vy = row
                scale = g + (vx * vx + vy * vy) / math.hypot(x, y)
                bound = 8 * (1.0 + 1.0 / eps) * 2.0**-52 * scale
                got = field(row)
                assert got[:2] == (want[0], want[1])
                assert abs(got[2] - want[2]) <= bound and abs(got[3] - want[3]) <= bound


@pytest.mark.parametrize("model", ("potential", "friction", "inertial", "nh"))
def test_pendulum_texts_refuse_the_origin_called_and_inlined(model):
    p = PendulumParams(g=9.81)
    field = pendulum_nh_field(p) if model == "nh" else make_pendulum(model, p, 1e-2)
    state = [5e-9, 0.0, 0.0, 0.0]  # 0 < r < 1e-8
    with pytest.raises(OriginSingularity):
        field(state)
    for method in ("rk4", "rkf45"):
        run = ode._stepper(method, 4, ode._TEXTS[field.__code__])
        cfg = IntegratorConfig(t_span=(0.0, 1.0), method=method)
        with pytest.raises(OriginSingularity) as err:
            run(field, state, [0.0, 1e-2], cfg)
        # raised by the guard written into the first sample, not by a call
        last = traceback.extract_tb(err.tb)[-2]
        assert last.filename == f"nonholib.ode {method} n=4 pendulum_{model}"
        assert "f__origin()" in last.line


def test_make_pendulum_unknown_variant():
    with pytest.raises(ValueError):
        make_pendulum("magnetic", PendulumParams(), 1e-2)


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


def eigenvalue_rate(system, params, q):
    """The generic route to a declared relaxation rate: the largest
    eigenvalue of kappa^{-1} nu at q."""
    sysm, _, fric = get_system(system).realization(params)
    return relaxation_rate(sysm, fric, np.asarray(q, dtype=float))


@pytest.mark.parametrize("params", SLEIGH_PARAMS)
def test_derived_rate_matches_closed_form(params):
    # the declared rate is the eigenvalue route's at the default start q and
    # at every q: kappa^{-1} nu is invariant under rigid motions of the plane
    entry = get_system("sleigh")
    declared = entry.relaxation_rate(params)
    assert declared == SleighParams(**params).fast_rate(1.0)
    start = entry.models["friction"].default_state[:3]
    assert_allclose(declared, eigenvalue_rate("sleigh", params, start), rtol=1e-15)
    for q in np.random.default_rng(36).uniform(-5.0, 5.0, (20, 3)):
        assert_allclose(declared, eigenvalue_rate("sleigh", params, q), rtol=1e-14)


def test_derived_rate_pendulum_friction():
    declared = get_system("pendulum-friction").relaxation_rate({})
    assert declared == 1.0
    for q in (pendulum_default_state()[:2], [0.3, -2.0], [-1e3, 4.0]):
        assert_allclose(eigenvalue_rate("pendulum-friction", {}, q), declared, rtol=1e-15)


@pytest.mark.parametrize("params", SLEIGH_PARAMS)
def test_derived_frame_state_map(params):
    # psi = omega + coupling * v and eta = v, bit for bit (no -0.0 entries),
    # so the reduced and frame trajectories of the reports do not move
    p = SleighParams(**params)
    expected = np.eye(6)
    expected[4:, 4:] = [[p.coupling, 1.0], [1.0, 0.0]]
    entry = get_system("sleigh")
    frame_map = entry.frame_state_matrix(params)
    assert frame_map.tobytes() == expected.tobytes()
    change, inverse = entry.change_of_frame(params)
    assert np.array_equal(change @ inverse, np.eye(3))
    assert np.array_equal(inverse @ change, np.eye(3))
    # the declared change is the generic frames' at every phi
    rng = np.random.default_rng(33)
    for _ in range(50):
        q = rng.uniform(-5.0, 5.0, 3)
        ortho, uvw = sleigh_ortho_frame(p).fields_at(q), sleigh_uvw_frame(p).fields_at(q)
        assert_allclose(np.linalg.inv(ortho) @ uvw, inverse, rtol=0.0, atol=1e-15)
        assert_allclose(uvw @ change, ortho, rtol=0.0, atol=1e-15)


def test_closed_form_condition_numbers_match_numpy():
    # metric_cond and frame_cond, on which the declared rate and change of
    # frame refuse, against np.linalg.cond of the generic metric and
    # adapted frame, over a box whose condition numbers run from 1 to past
    # 1e14.  The SVD's smallest singular value is off by about eps times
    # the largest, so numpy's number is within 1e-12 + 4 eps cond relative;
    # past 1e15 it resolves nothing.  Half the draws put m/I up to 1e16 and
    # a near sqrt(I/m), where the coupling, and so frame_cond (up to about
    # m/(4 I)), peaks.
    rng = np.random.default_rng(36)
    beyond = {"metric": 0, "frame": 0}
    for i in range(2000):
        m, inertia = 10.0 ** rng.uniform(-7.0, 7.0, 2)
        a = 10.0 ** rng.uniform(-8.0, 3.0)
        if i % 2:
            m = inertia * 10.0 ** rng.uniform(0.0, 16.0)
            a = math.sqrt(inertia / m) * 10.0 ** rng.uniform(-1.0, 1.0)
        p = SleighParams(m=m, I=inertia, a=a)
        q = np.zeros(3) if i % 4 < 2 else rng.uniform(-5.0, 5.0, 3)
        for name, closed, matrix in (
            ("metric", p.metric_cond, sleigh_system(p).metric(q)),
            ("frame", p.frame_cond, sleigh_ortho_frame(p).fields(q)),
        ):
            if closed > 1e15:
                continue
            beyond[name] += closed > 1e12
            rtol = 1e-12 + 4 * np.finfo(float).eps * closed
            assert_allclose(closed, np.linalg.cond(matrix), rtol=rtol, err_msg=name)
    assert min(beyond.values()) >= 10, beyond


def test_sleigh_geometry_equals_its_closed_forms():
    # the metric and both frames come from constant, sin and cos parts, and
    # their derivatives from those parts; every value must equal the closed
    # form (== ignores the sign of a zero entry)
    rng = np.random.default_rng(71)
    for i in range(240):
        m, inertia = rng.uniform(0.1, 3.0, 2)
        p = SleighParams(m=m, I=inertia, a=0.0 if i % 4 == 0 else rng.uniform(0.0, 2.0))
        q = rng.uniform(-10.0, 10.0, 3)
        q[2] = 0.0 if i % 3 == 0 else q[2]
        s, c, k = math.sin(q[2]), math.cos(q[2]), p.coupling
        mas, mac = p.m * p.a * s, p.m * p.a * c
        sysm, uvw, ortho = sleigh_system(p), sleigh_uvw_frame(p), sleigh_ortho_frame(p)
        closed = [
            (sysm.metric, [[p.m, 0, -mas], [0, p.m, mac], [-mas, mac, p.itot]]),
            (sysm.metric_derivs, [[0, 0, -mac], [0, 0, -mas], [-mac, -mas, 0]]),
            (uvw.fields, [[c, -s, 0], [s, c, 0], [0, 0, 1]]),
            (uvw.field_derivs, [[-s, -c, 0], [c, -s, 0], [0, 0, 0]]),
            (ortho.fields, [[c, 0, -s], [s, 0, c], [0, 1, -k]]),
            (ortho.field_derivs, [[-s, 0, -c], [c, 0, -s], [0, 0, 0]]),
        ]
        for fn, expected in closed:
            value = fn(q)
            if value.ndim == 3:  # a derivative: only the phi slot is nonzero
                assert np.all(value[..., :2] == 0.0)
                value = value[..., 2]
            assert np.array_equal(value, np.array(expected, dtype=float)), (fn, p, q)


@pytest.mark.parametrize("params", SLEIGH_PARAMS)
def test_sleigh_cyclic_rows_are_read_by_no_callback(params):
    # compare's and manifold's runs leave out the rows that no rate of the
    # friction text reads, x and y (NaN); every callback the generic h1
    # reads, the generic h1 and the declared one that manifold fits must
    # then return the very bits they return at the whole q
    entry = get_system("sleigh")
    sysm, uvw, fric = entry.realization(params)
    rates_read = ode._rows_read(text_of(entry.models["friction"].build(params, 1e-2)))
    left_out_rows = sorted(set(range(sysm.n)) - rates_read)
    assert left_out_rows == [0, 1]
    ortho = entry.adapted_frame(params)
    h1 = compute_h1(sysm, ortho, fric).h1
    rng = np.random.default_rng(29)
    qs = random_sleigh_q(rng, 20)
    xis = rng.uniform(-1.0, 1.0, (20, 2))
    left_out = qs.copy()
    left_out[:, left_out_rows] = np.nan
    callbacks = [sysm.metric, sysm.metric_derivs, fric.nu]
    callbacks += [fr.fields for fr in (uvw, ortho)] + [fr.field_derivs for fr in (uvw, ortho)]
    for q, q_nan in zip(qs, left_out):
        for fn in callbacks:
            assert np.asarray(fn(q_nan)).tobytes() == np.asarray(fn(q)).tobytes(), fn
    assert h1(left_out, xis).tobytes() == h1(qs, xis).tobytes()
    declared = entry.slow_graph(params).h1
    assert declared(left_out, xis).tobytes() == declared(qs, xis).tobytes()


@pytest.mark.parametrize("params", SLEIGH_PARAMS)
def test_sleigh_frame_data_are_the_same_at_every_q(params):
    # the declared slow graph holds at every q because h1's frame data do:
    # at random q the frame metric, connection and friction eta-block must
    # equal their q = 0 values to 1e-14 of their largest entry, and the
    # declared h1 the generic one to 1e-14 of max(1, |h1|) at each entry
    entry = get_system("sleigh")
    sysm, ortho, fric = entry.generic_builders(params)
    k = ortho.k

    def frame_data(q):
        return (
            frame_metric(sysm, ortho, q),
            connection_coefficients(sysm, ortho, q),
            friction_matrix(sysm, ortho, fric, q)[..., k:, k:],
        )

    rng = np.random.default_rng(41)
    qs = random_sleigh_q(rng, 200)
    for got, want in zip(frame_data(qs), frame_data(np.zeros(3))):
        scale = max(1.0, np.max(np.abs(want)))
        assert_allclose(got, np.broadcast_to(want, got.shape), rtol=0.0, atol=1e-14 * scale)
    xis = rng.uniform(-1.2, 1.2, (200, 2))
    want = compute_h1(sysm, ortho, fric).h1(qs, xis)
    declared = entry.slow_graph(params).h1
    got = declared(qs, xis)
    assert got.shape == want.shape == (200, 1)
    assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))
    # ExpansionData's other two shapes: one point, and one q with a stack
    assert declared(qs[0], xis[0]).tobytes() == got[0].tobytes()
    assert declared(qs[0], xis).tobytes() == got.tobytes()


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
