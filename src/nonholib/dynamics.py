"""Vector fields for constrained, friction-realized and corrected dynamics.

Given a mechanical system, an adapted moving frame (first k columns spanning
the constraint distribution D, last n-k columns its metric-orthogonal
complement) and a Rayleigh friction form with kernel D, this module builds:

* the nonholonomic field on reduced states (q, xi),
* the large-friction field on full quasi-velocity states (q, xi, eta) in
  slow time, with the friction term scaled by 1/eps,
* its chart-coordinate counterpart on (q, qdot),
* the fast field obtained at eps = 0 after rescaling time by eps, whose
  fixed-point set is {eta = 0}, and its fastest decay rate,
* the first-order slow-manifold data eta = eps * h1(q, xi) and the
  first-order correction field, so that nonholonomic + eps * correction
  approximates the friction dynamics on the slow manifold to second order.

State layouts are flat vectors: reduced (q, xi) of length n + k, frame
(q, xi, eta) of length 2n, chart (q, qdot) of length 2n.  Field builders
return pure callables and are safe to evaluate concurrently.

Each evaluation of a frame-based field or of h1 reads its point data once
(_Point): one connection evaluation, one frame read and one metric read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import (
    COND_LIMIT,
    MechanicalSystem,
    MovingFrame,
    _central_difference,
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
    return _frame_friction(fric, q, f, np.linalg.inv(f), sys.metric_at(q))


def _frame_friction(fric, q, f, lam, kappa) -> np.ndarray:
    return lam @ np.linalg.solve(kappa, fric.nu_at(q)) @ f


def _eta_block(matrix, k) -> np.ndarray:
    block = matrix[k:, k:]
    if block.size and np.linalg.cond(block) > COND_LIMIT:
        raise SingularEtaBlock("eta block of the friction operator is singular")
    return block


class _Point:
    """What the frame-based fields need at a state (q, w): the frame f, its
    inverse lam, the metric kappa, the connection omega, and acc, the
    connection and potential contributions to all quasi-velocity rates."""

    def __init__(self, sys, fr, q, w):
        self.q, self.w, self.k = q, w, fr.k
        self.f = fr.fields_at(q)
        self.lam = np.linalg.inv(self.f)
        self.kappa = sys.metric_at(q)
        self.omega = connection_coefficients(sys, fr, q)
        self.acc = -np.einsum("abg,b,g->a", self.omega, w, w)
        dV = sys.potential_grad_at(q)
        if np.any(dV):
            self.acc = self.acc - self.lam @ np.linalg.solve(self.kappa, dV)

    @classmethod
    def reduced(cls, sys, fr, q, xi):
        """At a reduced state (q, xi), with w = (xi, 0)."""
        w = np.zeros(sys.n)
        w[: fr.k] = xi
        return cls(sys, fr, q, w)

    def friction(self, fric) -> np.ndarray:
        return _frame_friction(fric, self.q, self.f, self.lam, self.kappa)

    def nh_rates(self) -> np.ndarray:
        return np.concatenate([self.f @ self.w, self.acc[: self.k]])

    def h1(self, fric) -> np.ndarray:
        block = _eta_block(self.friction(fric), self.k)
        return np.linalg.solve(block, self.acc[self.k :])

    def first_order_rates(self, fric) -> np.ndarray:
        z = np.zeros(len(self.w))
        z[self.k :] = self.h1(fric)
        omega, w = self.omega, self.w
        cross = np.einsum("abg,b,g->a", omega, w, z) + np.einsum(
            "abg,b,g->a", omega, z, w
        )
        return np.concatenate([self.f @ z, -cross[: self.k]])


def _reduced_field(sys, fr, rates: Callable) -> Callable:
    """Field on reduced states y = (q, xi) with value rates(point at y)."""
    n = sys.n

    def rhs(y):
        y = np.asarray(y, dtype=float)
        return rates(_Point.reduced(sys, fr, y[:n], y[n:]))

    return rhs


def nonholonomic_field(sys: MechanicalSystem, fr: MovingFrame) -> Callable:
    """Constrained dynamics on reduced states y = (q, xi), length n + k.

    qdot = f (xi, 0) and xi' is the xi-block of the free quasi-velocity
    acceleration with the potential force; the energy
    0.5 kappa(qdot, qdot) + V is conserved along the flow.
    """
    return _reduced_field(sys, fr, _Point.nh_rates)


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
        pt = _Point(sys, fr, q, w)
        acc = pt.acc - pt.friction(fric) @ w / eps
        return np.concatenate([pt.f @ w, acc])

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
    """Limit of the friction dynamics in fast time on y = (q, w): q' = 0
    and w' = -F w, with F the full :func:`friction_matrix`.  In an adapted
    orthogonal frame only eta moves, eta' = -(kappa^{-1} nu)|_eta eta;
    {eta = 0} is the fixed-point set and is exponentially attractive in the
    normal directions."""
    n = sys.n

    def rhs(y):
        y = np.asarray(y, dtype=float)
        q, w = y[:n], y[n:]
        return np.concatenate([np.zeros(n), -friction_matrix(sys, fr, fric, q) @ w])

    return rhs


def relaxation_rate(sys, fric: RayleighFriction, q) -> float:
    """Fastest decay rate of the fast field at q: the largest eigenvalue of
    kappa^{-1} nu, the same in every frame.  The friction dynamics relaxes
    at this rate over eps."""
    kappa_nu = np.linalg.solve(sys.metric_at(q), fric.nu_at(q))
    return float(np.max(np.linalg.eigvals(kappa_nu).real))


@dataclass(frozen=True)
class ExpansionData:
    """First-order slow-manifold data.

    h1(q, xi) is the leading graph coefficient: the invariant manifold of
    the friction dynamics is eta = eps * h1 + O(eps^2).
    """

    h1: Callable


def compute_h1(sys, fr, fric: RayleighFriction) -> ExpansionData:
    """Solve the first-order balance for the slow-manifold graph.

    h1(q, xi) = block^{-1} pr_eta[connection + potential acceleration at
    (xi, 0)], where block is the eta-block of kappa^{-1} nu in the frame.
    With no potential and xi = 0 this vanishes: no drive, no drift.
    """

    def h1(q, xi):
        return _Point.reduced(sys, fr, np.asarray(q, dtype=float), xi).h1(fric)

    return ExpansionData(h1=h1)


def first_order_field(sys, fr, fric: RayleighFriction) -> Callable:
    """First-order correction to the nonholonomic field on (q, xi).

    The drift velocity eps * h1 violates the constraint, so the corrected
    dynamics is no longer second order on D: qdot picks up f (0, h1) and
    xi' the symmetrized connection cross terms between (xi, 0) and
    (0, h1).
    """
    return _reduced_field(sys, fr, lambda pt: pt.first_order_rates(fric))


def corrected_field(sys, fr, fric: RayleighFriction, eps: float) -> Callable:
    """Nonholonomic field plus eps times the first-order correction.

    At eps = 0 this is exactly the nonholonomic field.
    """
    if eps < 0:
        raise NonPositiveEpsilon(f"eps must be >= 0, got {eps}")
    return _reduced_field(
        sys, fr, lambda pt: pt.nh_rates() + eps * pt.first_order_rates(fric)
    )


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


def expansion_defect(sys, fr, fric, eps, q, xi) -> np.ndarray:
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

    # Jacobian of (q, xi) -> h1 by central differences.
    jac = _central_difference(lambda y: expansion.h1(y[:n], y[n:]), n + k)(
        np.concatenate([q, xi])
    )
    # Fast-time residual: both sides of the invariance relation carry one
    # factor of eps relative to slow time.
    return eps * (eta_rate - eps * jac @ slow_rates)
