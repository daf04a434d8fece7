"""Vector fields for constrained, friction-realized and corrected dynamics.

Given a mechanical system, an adapted moving frame (first k columns spanning
the constraint distribution D, last n-k columns its metric-orthogonal
complement) and a Rayleigh friction form with kernel D, this module builds:

* the nonholonomic field on reduced states (q, xi),
* the large-friction field on full quasi-velocity states (q, xi, eta) in
  slow time, with the friction term scaled by 1/eps,
* its chart-coordinate counterpart on (q, qdot),
* the fast field obtained at eps = 0 after rescaling time by eps, whose
  fixed-point set is {eta = 0},
* the first-order slow-manifold data eta = eps * h1(q, xi) and the
  first-order correction field, so that nonholonomic + eps * correction
  approximates the friction dynamics on the slow manifold to second order.

State layouts are flat vectors: reduced (q, xi) of length n + k, frame
(q, xi, eta) of length 2n, chart (q, qdot) of length 2n.  Field builders
return pure callables and are safe to evaluate concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import (
    COND_LIMIT,
    MechanicalSystem,
    MovingFrame,
    christoffel,
    connection_coefficients,
    frame_metric,
)


class NonPositiveEpsilon(ValueError):
    """Friction scaling parameter must be positive."""


class SingularEtaBlock(RuntimeError):
    """The eta-block of the friction operator is not invertible."""


@dataclass(frozen=True)
class RayleighFriction:
    """Positive semi-definite friction form in chart indices.

    ``nu(q)`` returns the n x n quadratic-form matrix; its kernel must be
    the constraint distribution (the span of the frame's first k fields),
    and it must be positive definite on the complement.  The dissipative
    force is -nu(qdot)/eps.
    """

    nu: Callable

    def nu_at(self, q) -> np.ndarray:
        m = np.asarray(self.nu(q), dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("friction form must be a square matrix field")
        return m


def friction_matrix(sys, fr, fric, q) -> np.ndarray:
    """Frame representation of the friction operator kappa^{-1} nu.

    For an adapted orthogonal frame this matrix vanishes outside the
    eta-eta block because nu kills D and kappa^{-1} maps the annihilator
    of D onto its orthogonal complement.
    """
    f = fr.fields_at(q)
    lam = np.linalg.inv(f)
    kappa = sys.metric_at(q)
    nu = fric.nu_at(q)
    return lam @ np.linalg.solve(kappa, nu) @ f


def eta_block_operator(sys, fr, fric, q) -> np.ndarray:
    """The eta-eta block of :func:`friction_matrix`; must be invertible."""
    k = fr.k
    block = friction_matrix(sys, fr, fric, q)[k:, k:]
    if block.size and np.linalg.cond(block) > COND_LIMIT:
        raise SingularEtaBlock("eta block of the friction operator is singular")
    return block


def _reduced_accel(sys, fr, q, w) -> np.ndarray:
    """Connection and potential contributions to all quasi-velocity rates."""
    omega = connection_coefficients(sys, fr, q)
    acc = -np.einsum("abg,b,g->a", omega, w, w)
    dV = sys.potential_grad_at(q)
    if np.any(dV):
        lam = fr.inverse_at(q)
        kappa = sys.metric_at(q)
        acc = acc - lam @ np.linalg.solve(kappa, dV)
    return acc


def nonholonomic_field(sys: MechanicalSystem, fr: MovingFrame) -> Callable:
    """Constrained dynamics on reduced states y = (q, xi), length n + k.

    qdot = f (xi, 0) and xi' is the xi-block of the free quasi-velocity
    acceleration with the potential force; the energy
    0.5 kappa(qdot, qdot) + V is conserved along the flow.
    """
    n, k = sys.n, fr.k

    def rhs(y):
        y = np.asarray(y, dtype=float)
        q, xi = y[:n], y[n:]
        w = np.zeros(n)
        w[:k] = xi
        qdot = fr.fields_at(q) @ w
        acc = _reduced_accel(sys, fr, q, w)
        return np.concatenate([qdot, acc[:k]])

    return rhs


def friction_field(sys, fr, fric: RayleighFriction, eps: float) -> Callable:
    """Unconstrained dynamics with friction scaled by 1/eps, slow time.

    Acts on frame states y = (q, xi, eta) of length 2n.  The friction
    enters only the eta rates when the frame is orthogonally adapted; the
    full friction matrix is applied, so non-adapted frames are represented
    exactly as well.
    """
    if not eps > 0:
        raise NonPositiveEpsilon(f"eps must be positive, got {eps}")
    n = sys.n

    def rhs(y):
        y = np.asarray(y, dtype=float)
        q, w = y[:n], y[n:]
        qdot = fr.fields_at(q) @ w
        acc = _reduced_accel(sys, fr, q, w)
        acc = acc - friction_matrix(sys, fr, fric, q) @ w / eps
        return np.concatenate([qdot, acc])

    return rhs


def friction_field_chart(sys, fric: RayleighFriction, eps: float) -> Callable:
    """Chart-coordinate friction dynamics on y = (q, qdot), length 2n:
    qdot' = -Gamma(qdot, qdot) + kappa^{-1}(-dV - nu(qdot)/eps)."""
    if not eps > 0:
        raise NonPositiveEpsilon(f"eps must be positive, got {eps}")
    n = sys.n

    def rhs(y):
        y = np.asarray(y, dtype=float)
        q, v = y[:n], y[n:]
        gamma = christoffel(sys, q)
        force = -sys.potential_grad_at(q) - fric.nu_at(q) @ v / eps
        acc = -np.einsum("ijk,j,k->i", gamma, v, v) + np.linalg.solve(
            sys.metric_at(q), force
        )
        return np.concatenate([v, acc])

    return rhs


def fast_field_y0(sys, fr, fric: RayleighFriction) -> Callable:
    """Limit of the friction dynamics in fast time: q' = 0, xi' = 0 and
    eta' = -(kappa^{-1} nu)|_eta eta.  {eta = 0} is the fixed-point set and
    is exponentially attractive in the normal directions."""
    n, k = sys.n, fr.k

    def rhs(y):
        y = np.asarray(y, dtype=float)
        q, eta = y[:n], y[n + k :]
        block = eta_block_operator(sys, fr, fric, q)
        out = np.zeros(2 * n)
        out[n + k :] = -block @ eta
        return out

    return rhs


@dataclass(frozen=True)
class ExpansionData:
    """First-order slow-manifold data.

    h1(q, xi) is the leading graph coefficient: the invariant manifold of
    the friction dynamics is eta = eps * h1 + O(eps^2).  The eta-block
    operator is exposed for diagnostics.
    """

    h1: Callable
    eta_block: Callable


def compute_h1(sys, fr, fric: RayleighFriction) -> ExpansionData:
    """Solve the first-order balance for the slow-manifold graph.

    h1(q, xi) = block^{-1} pr_eta[connection + potential acceleration at
    (xi, 0)], where block is the eta-block of kappa^{-1} nu in the frame.
    With no potential and xi = 0 this vanishes: no drive, no drift.
    """
    n, k = sys.n, fr.k

    def block_at(q):
        return eta_block_operator(sys, fr, fric, q)

    def h1(q, xi):
        q = np.asarray(q, dtype=float)
        xi = np.asarray(xi, dtype=float)
        w = np.zeros(n)
        w[:k] = xi
        g1 = _reduced_accel(sys, fr, q, w)[k:]
        return np.linalg.solve(block_at(q), g1)

    return ExpansionData(h1=h1, eta_block=block_at)


def first_order_field(
    sys, fr, fric: RayleighFriction, expansion: Optional[ExpansionData] = None
) -> Callable:
    """First-order correction to the nonholonomic field on (q, xi).

    The drift velocity eps * h1 violates the constraint, so the corrected
    dynamics is no longer second order on D: qdot picks up f (0, h1) and
    xi' the symmetrized connection cross terms between (xi, 0) and
    (0, h1).
    """
    n, k = sys.n, fr.k
    if expansion is None:
        expansion = compute_h1(sys, fr, fric)

    def rhs(y):
        y = np.asarray(y, dtype=float)
        q, xi = y[:n], y[n:]
        h = expansion.h1(q, xi)
        w = np.zeros(n)
        w[:k] = xi
        z = np.zeros(n)
        z[k:] = h
        qdot = fr.fields_at(q) @ z
        omega = connection_coefficients(sys, fr, q)
        cross = np.einsum("abg,b,g->a", omega, w, z) + np.einsum(
            "abg,b,g->a", omega, z, w
        )
        return np.concatenate([qdot, -cross[:k]])

    return rhs


def corrected_field(sys, fr, fric: RayleighFriction, eps: float) -> Callable:
    """Nonholonomic field plus eps times the first-order correction.

    At eps = 0 this is exactly the nonholonomic field.
    """
    if eps < 0:
        raise NonPositiveEpsilon(f"eps must be >= 0, got {eps}")
    nh = nonholonomic_field(sys, fr)
    x1 = first_order_field(sys, fr, fric)

    def rhs(y):
        return nh(y) + eps * x1(y)

    return rhs


# ---------------------------------------------------------------------------
# scalar observables
# ---------------------------------------------------------------------------


def energy(sys: MechanicalSystem, q, qdot) -> float:
    """Total energy 0.5 kappa(qdot, qdot) + V(q) in chart coordinates."""
    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    return 0.5 * float(qdot @ sys.metric_at(q) @ qdot) + sys.potential_at(q)


def energy_frame(sys, fr, q, w) -> float:
    """Total energy from quasi-velocities w = (xi, eta)."""
    w = np.asarray(w, dtype=float)
    K = frame_metric(sys, fr, q)
    return 0.5 * float(w @ K @ w) + sys.potential_at(q)


def rayleigh_power(fric: RayleighFriction, q, qdot) -> float:
    """Instantaneous dissipation form nu(qdot, qdot) >= 0."""
    qdot = np.asarray(qdot, dtype=float)
    return float(qdot @ fric.nu_at(q) @ qdot)


def expansion_defect(sys, fr, fric, eps, q, xi, fd_step: float = 1e-6) -> np.ndarray:
    """Fast-time invariance defect of the first-order graph eta = eps h1.

    Inserts the truncated graph into the invariance relation
    eta' = D h . (q', xi') for the fast-time dynamics and returns the
    residual, which shrinks by a factor of four when eps is halved.
    """
    if not eps > 0:
        raise NonPositiveEpsilon(f"eps must be positive, got {eps}")
    n, k = sys.n, fr.k
    expansion = compute_h1(sys, fr, fric)
    fric_rhs = friction_field(sys, fr, fric, eps)

    q = np.asarray(q, dtype=float)
    xi = np.asarray(xi, dtype=float)
    eta = eps * expansion.h1(q, xi)
    rates = fric_rhs(np.concatenate([q, xi, eta]))
    slow_rates = rates[: n + k]  # (q', xi') in slow time
    eta_rate = rates[n + k :]

    # Jacobian of (q, xi) -> eps * h1 by central differences.
    y = np.concatenate([q, xi])
    jac = np.empty((n - k, n + k))
    for m in range(n + k):
        dy = np.zeros(n + k)
        dy[m] = fd_step
        hp = expansion.h1((y + dy)[:n], (y + dy)[n:])
        hm = expansion.h1((y - dy)[:n], (y - dy)[n:])
        jac[:, m] = (hp - hm) / (2.0 * fd_step)
    # Fast-time residual: both sides of the invariance relation carry one
    # factor of eps relative to slow time.
    return eps * (eta_rate - eps * jac @ slow_rates)
