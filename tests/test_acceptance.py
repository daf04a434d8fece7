"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All tolerances are fixed here; nothing is calibrated at run time.

Criterion 02 takes its horizon from the closed-form sleigh solution: from
(u, omega) = (-1, 0.5) tan(theta/2) decays at k = m a u* / (I + m a^2)
~ 0.216/s, so |omega| first reaches 1e-3 at t* ~ 42.26 s (at t = 10 s it
is still ~0.86).  The run ends four decay times 1/k past t*, rounded up to
whole seconds (61 s), and the bound |omega| <= 1e-3 is unchanged.

Known red criterion (the check is implemented as stated and the honest
numbers are printed):

* criterion 09 (ratio clause): starting at rest on the circle, the radial
  deviation is set by force balance and scales linearly in eps (ratio ~10
  per decade), not with the square root of the energy-barrier bound.  The
  exact energy bound is |r - 1 - eps g| <= sqrt(2 eps e0); it scales like
  sqrt(eps) and is sharp only when the radial mode carries the energy.
"""

from dataclasses import asdict

import numpy as np
import pytest

from nonholib.analysis import (
    energy_audit,
    estimate_order,
    fit_slope_through_origin,
    manifold_fit,
    sup_distance,
)
from nonholib.cli import main as cli_main
from nonholib.dynamics import compute_h1, first_order_field, nonholonomic_field
from nonholib.dynamics import friction_field
from nonholib.geometry import (
    christoffel_to_frame,
    connection_coefficients,
    geodesic_rhs_conn,
    geodesic_rhs_struct,
    structure_functions,
)
from nonholib.ode import IntegratorConfig, integrate, transform_linear
from nonholib.systems import (
    PendulumParams,
    REGISTRY,
    SleighParams,
    make_pendulum,
    pendulum_default_state,
    sleigh_corrected_field,
    sleigh_friction_field,
    sleigh_friction_form,
    sleigh_friction_ortho_rhs,
    sleigh_h1_rhs,
    sleigh_nh_field,
    sleigh_nh_rhs,
    sleigh_ortho_frame,
    sleigh_system,
    sleigh_uvw_frame,
    sleigh_x1_rhs,
)

P = SleighParams(m=1.0, I=1.0, a=0.2)
# friction-model state -> (q, u, psi, v), derived by the registry
FRAME_MAP = REGISTRY["sleigh"].frame_state_matrix(asdict(P))
G = 9.81
T_END = 10.0
WINDOW = (0.5, 10.0)
LADDER = (8e-3, 4e-3, 2e-3)
NH_STATE = np.array([0.0, 0.0, 0.0, -1.0, 0.5])
FRIC_STATE = np.array([0.0, 0.0, 0.0, -1.0, 0.0, 0.5])


def report(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def friction_dt(eps):
    return min(1e-3, eps / 20.0)


@pytest.fixture(scope="module")
def nh_traj():
    cfg = IntegratorConfig(t_span=(0.0, T_END), dt=1e-3, sample_dt=1e-2)
    return integrate(sleigh_nh_field(P), NH_STATE, cfg)


@pytest.fixture(scope="module")
def friction_ladder():
    out = {}
    for eps in LADDER + (1e-2, 5e-3):
        if eps in out:
            continue
        cfg = IntegratorConfig(
            t_span=(0.0, T_END), dt=friction_dt(eps), sample_dt=1e-2
        )
        out[eps] = integrate(sleigh_friction_field(P, eps), FRIC_STATE, cfg)
    return out


def reduced(traj):
    return transform_linear(traj, FRAME_MAP[:5])


# 1 ---------------------------------------------------------------------------


def test_criterion_01_nh_conservation(nh_traj):
    u, om = nh_traj.states[:, 3], nh_traj.states[:, 4]
    q = P.m * u**2 + P.itot * om**2
    drift = float(np.max(np.abs(q - q[0])) / q[0])
    report(1, drift <= 1e-8, f"m u^2 + (I+m a^2) om^2 relative drift {drift:.3e} <= 1e-8")


# 2 ---------------------------------------------------------------------------


def test_criterion_02_nh_asymptotics():
    # closed form on the conserved ellipse Q = m u^2 + (I + m a^2) om^2:
    # om = rw sin(th), and tan(th/2) decays at k = m a u*/(I + m a^2)
    u0, om0 = NH_STATE[3], NH_STATE[4]
    q = P.m * u0**2 + P.itot * om0**2
    u_star, rw = np.sqrt(q / P.m), np.sqrt(q / P.itot)
    k = P.coupling * u_star
    tau0 = np.tan(np.arctan2(om0 / rw, u0 / u_star) / 2.0)
    # |om| = 2 rw tau / (1 + tau^2) equals tol at the smaller root tau
    tol = 1e-3
    tau_star = (rw - np.sqrt(rw * rw - tol * tol)) / tol
    t_star = float(np.log(tau0 / tau_star) / k)
    # horizon: four decay times 1/k past t*, rounded up to whole seconds
    t_end = float(np.ceil(t_star + 4.0 / k))
    cfg = IntegratorConfig(t_span=(0.0, t_end), dt=1e-3, sample_dt=1e-2)
    traj = integrate(sleigh_nh_field(P), NH_STATE, cfg)
    uT = float(traj.states[-1, 3])
    omT = float(traj.states[-1, 4])
    below = np.abs(traj.states[:, 4]) <= 1e-3
    t_cross = float(traj.times[np.argmax(below)]) if below.any() else np.inf
    ok = (abs(omT) <= 1e-3) and (uT > 0)
    report(
        2,
        ok,
        f"u({t_end:.0f}) = {uT:.6f} > 0 (u* = {u_star:.6f}) and "
        f"|omega({t_end:.0f})| = {abs(omT):.2e} <= 1e-3 (decay rate "
        f"m a u*/(I+m a^2) = {k:.3f}/s; |omega| reaches 1e-3 at "
        f"t* = {t_star:.2f} s exact, {t_cross:.2f} s integrated)",
    )


# 3 ---------------------------------------------------------------------------


def test_criterion_03_friction_to_nh_rate(nh_traj, friction_ladder):
    errors = [
        sup_distance(reduced(friction_ladder[eps]), nh_traj, *WINDOW, (3, 4))
        for eps in LADDER
    ]
    orders = estimate_order(LADDER, errors)
    ok = bool(np.all((orders >= 0.8) & (orders <= 1.2)))
    report(3, ok, f"sup-distance orders vs constrained flow {np.round(orders, 3)} in [0.8, 1.2]")


# 4 ---------------------------------------------------------------------------


def test_criterion_04_first_order_rate(friction_ladder):
    cfg = IntegratorConfig(t_span=(0.0, T_END), dt=1e-3, sample_dt=1e-2)
    errors = []
    for eps in LADDER:
        corr = integrate(sleigh_corrected_field(P, eps), NH_STATE, cfg)
        errors.append(sup_distance(reduced(friction_ladder[eps]), corr, *WINDOW, (3, 4)))
    orders = estimate_order(LADDER, errors)
    ok = bool(np.all((orders >= 1.7) & (orders <= 2.3)))
    report(4, ok, f"sup-distance orders vs corrected flow {np.round(orders, 3)} in [1.7, 2.3]")


# 5 ---------------------------------------------------------------------------


def test_criterion_05_slow_manifold_slaving(friction_ladder):
    expansion = compute_h1(sleigh_system(P), sleigh_ortho_frame(P), sleigh_friction_form(P))
    sups, slope_ok = [], []
    for eps in (1e-2, 5e-3):
        fit = manifold_fit(
            transform_linear(friction_ladder[eps], FRAME_MAP), expansion, eps, 0.5, 3, 2
        )
        sups.append(fit.residual_sup)
        slope = fit_slope_through_origin(fit.xis[:, 0] * fit.xis[:, 1], fit.etas[:, 0])
        expected = -eps * P.slaving
        slope_ok.append(abs(slope - expected) / abs(expected) <= 0.05)
    ratio = sups[0] / sups[1]
    ok = (3.0 <= ratio <= 5.0) and all(slope_ok)
    report(
        5,
        ok,
        f"slip residual ratio {ratio:.2f} in [3, 5]; slip-vs-drive slopes "
        f"within 5% of -eps m I/(I+m a^2): {slope_ok}",
    )


# 6 ---------------------------------------------------------------------------


def test_criterion_06_dissipation_identity():
    sysm, frame, fric = sleigh_system(P), sleigh_ortho_frame(P), sleigh_friction_form(P)
    eps = 1e-2
    cfg = IntegratorConfig(t_span=(0.0, T_END), dt=5e-4, sample_dt=5e-4)
    traj = integrate(sleigh_friction_field(P, eps), FRIC_STATE, cfg)
    u, v, om = traj.states[:, 3], traj.states[:, 4], traj.states[:, 5]
    e_sleigh = 0.5 * P.m * (u**2 + v**2) + 0.5 * P.itot * om**2 + P.m * P.a * om * v
    mono_sleigh = float(np.max(np.diff(e_sleigh)))
    viol_sleigh = energy_audit(
        transform_linear(traj, FRAME_MAP), sysm, fric, eps,
        frame=frame,
    )

    pp, peps = PendulumParams(g=G), 1e-2
    pcfg = IntegratorConfig(t_span=(0.0, T_END), dt=5e-4, sample_dt=5e-4)
    ptraj = integrate(make_pendulum("friction", pp, peps), pendulum_default_state(), pcfg)
    from nonholib.systems import pendulum_friction_form, pendulum_system

    viol_pend = energy_audit(ptraj, pendulum_system(pp), pendulum_friction_form(pp), peps)
    e_pend = 0.5 * np.sum(ptraj.states[:, 2:] ** 2, axis=1) + G * ptraj.states[:, 1]
    mono_pend = float(np.max(np.diff(e_pend)))

    ok = (
        viol_sleigh <= 1e-4
        and viol_pend <= 1e-4
        and mono_sleigh <= 1e-10
        and mono_pend <= 1e-10
    )
    report(
        6,
        ok,
        f"power-balance violation sleigh {viol_sleigh:.2e}, pendulum "
        f"{viol_pend:.2e} (<= 1e-4); energy nonincreasing (max increments "
        f"{mono_sleigh:.1e}, {mono_pend:.1e})",
    )


# 7 ---------------------------------------------------------------------------


def test_criterion_07_pendulum_friction_terminal_speed():
    eps = 1e-3
    p = PendulumParams(g=G)
    cfg = IntegratorConfig(t_span=(0.0, T_END), dt=eps / 20, sample_dt=1e-2)
    traj = integrate(make_pendulum("friction", p, eps), [0.0, -1.0, 0.0, 0.0], cfg)
    mask = traj.times >= 1.0
    dev = float(np.max(np.abs(traj.states[mask, 3] + eps * G)) / (eps * G))
    report(7, dev <= 0.05, f"max |ydot + eps g|/(eps g) on [1, 10] = {dev:.2e} <= 0.05")


# 8 ---------------------------------------------------------------------------


def test_criterion_08_pendulum_inertial_quadratic():
    eps = 1e-3
    p = PendulumParams(g=G)
    cfg = IntegratorConfig(t_span=(0.0, 5.0), dt=1e-3, sample_dt=1e-2)
    traj = integrate(make_pendulum("inertial", p, eps), [0.0, -1.0, 0.0, 0.0], cfg)
    ref = -1.0 - 0.5 * (G / (1.0 + 1.0 / eps)) * traj.times**2
    dev = float(np.max(np.abs(traj.states[:, 1] - ref)))
    report(8, dev <= 1e-6, f"max |y - slowed free fall| on [0, 5] = {dev:.2e} <= 1e-6")


# 9 ---------------------------------------------------------------------------


def test_criterion_09_pendulum_potential_barrier():
    state0 = pendulum_default_state()
    devs, bounds = {}, {}
    for eps in (1e-2, 1e-3):
        p = PendulumParams(g=G)
        cfg = IntegratorConfig(t_span=(0.0, T_END), dt=1e-3, sample_dt=1e-3)
        traj = integrate(make_pendulum("potential", p, eps), state0, cfg)
        r = np.linalg.norm(traj.states[:, :2], axis=1)
        devs[eps] = float(np.max(np.abs(r - 1.0)))
        # initial energy above the global minimum -g - eps g^2 / 2
        e0 = G * state0[1] + G + eps * G * G / 2.0
        bounds[eps] = 1.05 * np.sqrt(2.0 * eps * e0)
    ratio = devs[1e-2] / devs[1e-3]
    in_bound = all(devs[e] <= bounds[e] for e in devs)
    lo, hi = np.sqrt(10.0) * 0.8, np.sqrt(10.0) * 1.2
    ok = in_bound and (lo <= ratio <= hi)
    report(
        9,
        ok,
        f"max|r-1| = {devs[1e-2]:.4f}/{devs[1e-3]:.4f} vs energy bounds "
        f"{bounds[1e-2]:.4f}/{bounds[1e-3]:.4f} (in bound: {in_bound}); "
        f"ratio {ratio:.2f} required in [{lo:.2f}, {hi:.2f}] "
        f"(deviation scales like eps, not sqrt(eps))",
    )


# 10 --------------------------------------------------------------------------


def test_criterion_10_oracle_equivalence():
    sysm, frame, fric = sleigh_system(P), sleigh_ortho_frame(P), sleigh_friction_form(P)
    nh = nonholonomic_field(sysm, frame)
    ff = friction_field(sysm, frame, fric, 1e-2)
    x1 = first_order_field(sysm, frame, fric)
    expansion = compute_h1(sysm, frame, fric)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        q = rng.uniform(-1.0, 1.0, 3)
        q[2] = rng.uniform(-np.pi, np.pi)
        while True:
            u, psi, v = rng.uniform(-1.6, 1.6, 3)
            if 0.5 * (P.m * u * u + P.itot * psi * psi + P.slaving * v * v) <= 2.0:
                break
        s, c = np.sin(q[2]), np.cos(q[2])
        # constrained field
        udot, psidot = sleigh_nh_rhs(P, u, psi)
        ref = np.array([u * c, u * s, psi, udot, psidot])
        worst = max(worst, np.max(np.abs(nh(np.concatenate([q, [u, psi]])) - ref)))
        # friction field
        udot, vdot, psidot = sleigh_friction_ortho_rhs(P, 1e-2, u, v, psi)
        ref = np.array(
            [u * c - v * s, u * s + v * c, psi - P.coupling * v, udot, psidot, vdot]
        )
        worst = max(worst, np.max(np.abs(ff(np.concatenate([q, [u, psi, v]])) - ref)))
        # slow-manifold coefficient and first-order correction
        worst = max(
            worst,
            abs(expansion.h1(q, np.array([u, psi]))[0] - sleigh_h1_rhs(P, u, psi)),
        )
        ref = np.asarray(sleigh_x1_rhs(P, q[0], q[1], q[2], u, psi))
        worst = max(worst, np.max(np.abs(x1(np.concatenate([q, [u, psi]])) - ref)))
    report(10, worst <= 1e-10, f"generic vs hand-coded max deviation {worst:.2e} <= 1e-10")


# 11 --------------------------------------------------------------------------


def test_criterion_11_frame_identities():
    sysm = sleigh_system(P)
    frames = (sleigh_ortho_frame(P), sleigh_uvw_frame(P))
    rng = np.random.default_rng(2025)
    worst_torsion = worst_geo = worst_christoffel = 0.0
    for i in range(100):
        fr = frames[i % 2]
        q = rng.uniform(-1.0, 1.0, 3)
        q[2] = rng.uniform(-np.pi, np.pi)
        v = rng.uniform(-1.5, 1.5, 3)
        omega = connection_coefficients(sysm, fr, q)
        cfun = structure_functions(fr, q)
        worst_torsion = max(
            worst_torsion, np.max(np.abs(omega.transpose(0, 2, 1) - omega - cfun))
        )
        worst_geo = max(
            worst_geo,
            np.max(
                np.abs(geodesic_rhs_conn(sysm, fr, q, v) - geodesic_rhs_struct(sysm, fr, q, v))
            ),
        )
        worst_christoffel = max(
            worst_christoffel,
            np.max(np.abs(omega - christoffel_to_frame(sysm, fr, q))),
        )
    ok = worst_torsion <= 1e-9 and worst_geo <= 1e-10 and worst_christoffel <= 1e-9
    report(
        11,
        ok,
        f"torsion {worst_torsion:.1e} <= 1e-9; geodesic forms {worst_geo:.1e} "
        f"<= 1e-10; Christoffel route {worst_christoffel:.1e} <= 1e-9",
    )


# 12 --------------------------------------------------------------------------


def test_criterion_12_determinism(tmp_path):
    sim_args = [
        "simulate",
        "--system", "sleigh",
        "--model", "friction",
        "--eps", "1e-2",
        "--t1", "2",
    ]
    cmp_args = [
        "compare",
        "--system", "sleigh",
        "--eps", "8e-3",
        "--eps", "4e-3",
        "--eps", "2e-3",
        "--t1", "2",
        "--window-start", "0.3",
    ]
    pairs = []
    for tag, args, artifact in (
        ("sim", sim_args, "{}.csv"),
        ("cmp", cmp_args, "{}_compare.json"),
    ):
        blobs = []
        for run_id in ("a", "b"):
            base = tmp_path / f"{tag}_{run_id}"
            assert cli_main(args + ["--out", str(base)]) == 0
            blobs.append((tmp_path / artifact.format(base.name)).read_bytes())
        pairs.append(blobs[0] == blobs[1])
    # the reports embed no paths or timestamps, so reruns are byte-identical
    ok = all(pairs)
    report(12, ok, f"byte-identical reruns (csv, json) = {pairs}")
