"""Independent routes that the tests check the package against.

Nothing in the package calls these.  The sleigh's closed-form rates read the
parameters on every call, in the operation order of the run-path texts in
nonholib.systems, so they are those fields' bitwise oracles and criterion
10's oracles of the generic fields.  The geometry routes reach the
connection through the Christoffel symbols, and the structure functions and
the Euler-Lagrange form of the geodesic rates through plain einsums on the
public point accessors (fields_at, field_derivs_at, metric_at,
metric_derivs_at), so that they share no helper with
nonholib.geometry.connection_coefficients, which they check (criterion 11).
They take one point q.  The relaxation rate is the eigenvalue route that
the registry's closed-form rates are checked against.
"""

from __future__ import annotations

import math

import numpy as np

from nonholib.dynamics import RayleighFriction
from nonholib.geometry import MechanicalSystem, MovingFrame, christoffel, connection_coefficients
from nonholib.systems import SleighParams

# ---------------------------------------------------------------------------
# sleigh closed forms
# ---------------------------------------------------------------------------


def sleigh_nh_rhs(p: SleighParams, u: float, omega: float):
    """Constrained sleigh: udot = a omega^2, omegadot = -m a u omega / (I + m a^2)."""
    return p.a * omega * omega, -p.coupling * u * omega


def sleigh_constraint_force(p: SleighParams, u, omega, omegadot) -> float:
    """Reaction force magnitude m (u omega + a omegadot); it acts along
    (-sin phi, cos phi).  On constrained orbits this is m u omega I/(I + m a^2)."""
    return p.m * (u * omega + p.a * omegadot)


def sleigh_friction_rhs(p: SleighParams, eps: float, u, v, omega):
    """Slip-friction sleigh rates in the (u, v, omega) frame: udot =
    omega (v + a omega), vdot = -u omega - fast_rate(eps) v (the slip
    relaxes at the fast rate) and omegadot = a v/(I eps), in the operation
    order of :func:`sleigh_friction_field`'s text."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    udot = omega * (v + p.a * omega)
    vdot = -p.fast_rate(eps) * v - u * omega
    omegadot = p.a / (p.I * eps) * v
    return udot, vdot, omegadot


def sleigh_friction_ortho_rhs(p: SleighParams, eps: float, u, v, psi):
    """Slip-friction sleigh rates in the orthogonal (u, v, psi) frame."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    c = p.coupling
    udot = (
        -(p.m * p.a**2 - p.I) / p.itot * v * psi
        - p.m * p.a * p.I / p.itot**2 * v * v
        + p.a * psi * psi
    )
    vdot = -u * psi + c * u * v - p.fast_rate(eps) * v
    psidot = -c * u * psi + c * c * u * v
    return udot, vdot, psidot


def sleigh_h1_rhs(p: SleighParams, u: float, psi: float) -> float:
    """First-order slip drift: the slow manifold is v = eps * h1 + O(eps^2)
    with h1 = -m I u psi / (I + m a^2)."""
    return -p.slaving * u * psi


def sleigh_x1_rhs(p: SleighParams, x, y, phi, u, psi):
    """First-order correction field on (x, y, phi, u, psi).

    The (x, y) drift is the slip velocity along the blade normal; phi picks
    up the difference between omega and psi off the constraint.  Note the
    phi rate is -coupling * h1, i.e. positive for u psi > 0.
    """
    h1 = sleigh_h1_rhs(p, u, psi)
    s, c = math.sin(phi), math.cos(phi)
    return (
        -h1 * s,
        h1 * c,
        -p.coupling * h1,
        p.slaving * (p.m * p.a**2 - p.I) / p.itot * u * psi * psi,
        -p.slaving * p.coupling**2 * u * u * psi,
    )


def sleigh_energy_ortho(p: SleighParams, u, v, psi) -> float:
    """Kinetic energy in the diagonalizing (u, v, psi) frame."""
    return 0.5 * (p.m * u * u + p.slaving * v * v + p.itot * psi * psi)


# the run-path fields' whole states, composed from the rate helpers


def nh_oracle(p, st):
    x, y, phi, u, om = st
    return (u * math.cos(phi), u * math.sin(phi), om, *sleigh_nh_rhs(p, u, om))


def friction_oracle(p, eps, st):
    x, y, phi, u, v, om = st
    s, c = math.sin(phi), math.cos(phi)
    udot, vdot, omdot = sleigh_friction_rhs(p, eps, u, v, om)
    return (u * c - v * s, u * s + v * c, om, udot, vdot, omdot)


def corrected_oracle(p, eps, st):
    nh = nh_oracle(p, st)
    return tuple(a + eps * b for a, b in zip(nh, sleigh_x1_rhs(p, *st)))


# ---------------------------------------------------------------------------
# frame geometry
# ---------------------------------------------------------------------------


def structure_functions(fr: MovingFrame, q) -> np.ndarray:
    """Lie brackets relative to the frame: [f_b, f_g] = C^a_bg f_a, from
    [f_b, f_g]^i = f_b(f^i_g) - f_g(f^i_b) with f_b(f^i_g) = f^m_b d_m f^i_g."""
    f, df = fr.fields_at(q), fr.field_derivs_at(q)
    along = np.einsum("mb,igm->ibg", f, df)  # along[i, b, g] = f_b(f^i_g)
    return np.einsum("ai,ibg->abg", np.linalg.inv(f), along - along.transpose(0, 2, 1))


def christoffel_to_frame(sys: MechanicalSystem, fr: MovingFrame, q) -> np.ndarray:
    """Connection coefficients obtained from the chart Christoffel symbols.

    omega^a_bg = lam^a_i (G^i_jk f^j_b f^k_g + (d_k f^i_b) f^k_g); agrees
    with :func:`connection_coefficients` and serves as an independent route
    in the identity tests.
    """
    f = fr.fields_at(q)
    df = fr.field_derivs_at(q)
    lam = np.linalg.inv(f)
    gamma = christoffel(sys, q)
    return np.einsum("ai,ijk,jb,kg->abg", lam, gamma, f, f) + np.einsum(
        "ai,ibk,kg->abg", lam, df, f
    )


def geodesic_rhs_conn(sys: MechanicalSystem, fr: MovingFrame, q, v) -> np.ndarray:
    """Quasi-velocity geodesic acceleration via connection coefficients:
    vdot^a = -omega^a_bg v^b v^g."""
    v = np.asarray(v, dtype=float)
    omega = connection_coefficients(sys, fr, q)
    return -np.einsum("abg,b,g->a", omega, v, v)


def geodesic_rhs_struct(sys: MechanicalSystem, fr: MovingFrame, q, v) -> np.ndarray:
    """Same acceleration via the quasi-velocity Euler-Lagrange reduction
    (structure functions and frame-directional derivatives of the frame
    metric K = f^T kappa f):

    vdot^m = -K^{ma} [ f_g(K_ab) - 1/2 f_a(K_bg) - K_dg C^d_ba ] v^b v^g
    """
    v = np.asarray(v, dtype=float)
    f, df = fr.fields_at(q), fr.field_derivs_at(q)
    kappa, dkappa = sys.metric_at(q), sys.metric_derivs_at(q)
    K = f.T @ kappa @ f
    # d_m K_ab by the product rule on K_ab = f^i_a kappa_ij f^j_b, then
    # DK[a, b, c] = f_c(K_ab) = f^m_c d_m K_ab
    dK = (
        np.einsum("iam,ij,jb->abm", df, kappa, f)
        + np.einsum("ia,ijm,jb->abm", f, dkappa, f)
        + np.einsum("ia,ij,jbm->abm", f, kappa, df)
    )
    DK = np.einsum("abm,mc->abc", dK, f)
    C = structure_functions(fr, q)
    lowered = (
        np.einsum("abg,b,g->a", DK, v, v)
        - 0.5 * np.einsum("bga,b,g->a", DK, v, v)
        - np.einsum("dg,dba,b,g->a", K, C, v, v)
    )
    return -np.linalg.inv(K) @ lowered


# ---------------------------------------------------------------------------
# fast dynamics
# ---------------------------------------------------------------------------


def relaxation_rate(sys: MechanicalSystem, fric: RayleighFriction, q) -> float:
    """Fastest decay rate of the fast field at q: the largest eigenvalue of
    kappa^{-1} nu, the same in every frame.  The friction dynamics relaxes
    at this rate over eps."""
    kappa_nu = np.linalg.solve(sys.metric_at(q), fric.nu_at(q))
    return float(np.max(np.linalg.eigvals(kappa_nu).real))
