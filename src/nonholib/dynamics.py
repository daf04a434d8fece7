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
_Point works on stacks of states with a leading sample axis, and a single
state is a stack of one.  h1 takes one point (q, xi) or stacks (qs, xis) of
shapes (m, n) and (m, k); a stack goes through geometry.in_blocks in blocks
of at most geometry.BLOCK_ROWS rows, each block read with one call per
point accessor and checked row by row as in geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import (
    COND_LIMIT,
    MechanicalSystem,
    MovingFrame,
    _at_rows,
    _central_difference,
    _square,
    christoffel,
    connection_coefficients,
    frame_metric,
    in_blocks,
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
        """nu at one point q of shape (n,) or at each row of an (m, n) stack."""
        shape = "friction form must be a square matrix field"
        m = _at_rows(self.nu, q, shape)
        if not _square(m, q):
            raise ValueError(shape)
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
    block = matrix[..., k:, k:]
    if block.size and (np.linalg.cond(block) > COND_LIMIT).any():
        raise SingularEtaBlock("eta block of the friction operator is singular")
    return block


def _matvec(a, x) -> np.ndarray:
    """a @ x for stacks of matrices a and vectors x."""
    return (a @ x[..., None])[..., 0]


def _solve(a, b) -> np.ndarray:
    """a^{-1} b for stacks of matrices a and vectors b."""
    return np.linalg.solve(a, b[..., None])[..., 0]


def _contract(w, omega, v) -> np.ndarray:
    """omega^a_bg w^b v^g for stacks of coefficients and vectors."""
    return np.einsum("...abg,...b,...g->...a", omega, w, v)


class _Point:
    """What the frame-based fields need at a stack of states (q, w) of shape
    (m, n) each: the frames f, their inverses lam, the metrics kappa, the
    connections omega, and acc, the connection and potential contributions
    to all quasi-velocity rates.  Every array has the leading axis m."""

    def __init__(self, sys, fr, q, w):
        self.q, self.w, self.k = q, w, fr.k
        self.f = fr.fields_at(q)
        self.lam = np.linalg.inv(self.f)
        self.kappa = sys.metric_at(q)
        self.omega = connection_coefficients(sys, fr, q)
        self.acc = -_contract(w, self.omega, w)
        dV = sys.potential_grad_at(q)
        # only rows with a potential force are touched, so a row without one
        # keeps the signed zeros of its connection term
        pushed = dV.any(axis=-1)
        if pushed.any():
            force = _matvec(self.lam[pushed], _solve(self.kappa[pushed], dV[pushed]))
            self.acc[pushed] = self.acc[pushed] - force

    @classmethod
    def reduced(cls, sys, fr, q, xi):
        """At reduced states (q, xi), with w = (xi, 0)."""
        w = np.zeros((len(q), sys.n))
        w[:, : fr.k] = xi
        return cls(sys, fr, q, w)

    def friction(self, fric) -> np.ndarray:
        return _frame_friction(fric, self.q, self.f, self.lam, self.kappa)

    def nh_rates(self) -> np.ndarray:
        return np.concatenate([_matvec(self.f, self.w), self.acc[:, : self.k]], axis=1)

    def h1(self, fric) -> np.ndarray:
        block = _eta_block(self.friction(fric), self.k)
        return _solve(block, self.acc[:, self.k :])

    def first_order_rates(self, fric) -> np.ndarray:
        z = np.zeros_like(self.w)
        z[:, self.k :] = self.h1(fric)
        omega, w = self.omega, self.w
        cross = _contract(w, omega, z) + _contract(z, omega, w)
        return np.concatenate([_matvec(self.f, z), -cross[:, : self.k]], axis=1)


def _reduced_field(sys, fr, rates: Callable) -> Callable:
    """Field on reduced states y = (q, xi) with value rates(point at y)."""
    n = sys.n

    def rhs(y):
        y = np.asarray(y, dtype=float)[None]
        return rates(_Point.reduced(sys, fr, y[:, :n], y[:, n:]))[0]

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
        y = np.asarray(y, dtype=float)[None]
        pt = _Point(sys, fr, y[:, :n], y[:, n:])
        acc = pt.acc - _matvec(pt.friction(fric), pt.w) / eps
        return np.concatenate([_matvec(pt.f, pt.w), acc], axis=1)[0]

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
    the friction dynamics is eta = eps * h1 + O(eps^2).  It takes one point
    (q of shape (n,), xi of shape (k,)) or stacks of m points ((m, n) and
    (m, k)) and returns shape (n - k,) or (m, n - k).
    """

    h1: Callable


def compute_h1(sys, fr, fric: RayleighFriction) -> ExpansionData:
    """Solve the first-order balance for the slow-manifold graph.

    h1(q, xi) = block^{-1} pr_eta[connection + potential acceleration at
    (xi, 0)], where block is the eta-block of kappa^{-1} nu in the frame.
    With no potential and xi = 0 this vanishes: no drive, no drift.
    """

    def h1_rows(q, xi):
        return _Point.reduced(sys, fr, q, xi).h1(fric)

    def h1(q, xi):
        q, xi = np.asarray(q, dtype=float), np.asarray(xi, dtype=float)
        if q.ndim == 1:
            return in_blocks(h1_rows, q[None], xi[None])[0]
        return in_blocks(h1_rows, q, xi)

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
# scalar observables: a float at one point, an (m,) array on a stack
# ---------------------------------------------------------------------------


def _quadratic_form(a, v):
    """v . a v for a matrix and a vector, or for stacks of both."""
    v = np.asarray(v, dtype=float)
    return (v[..., None, :] @ a @ v[..., :, None])[..., 0, 0]


def energy(sys: MechanicalSystem, q, qdot):
    """Total energy 0.5 kappa(qdot, qdot) + V(q) in chart coordinates."""
    return 0.5 * _quadratic_form(sys.metric_at(q), qdot) + sys.potential_at(q)


def energy_frame(sys, fr, q, w):
    """Total energy from quasi-velocities w = (xi, eta)."""
    return 0.5 * _quadratic_form(frame_metric(sys, fr, q), w) + sys.potential_at(q)


def rayleigh_power(fric: RayleighFriction, q, qdot):
    """Instantaneous dissipation form nu(qdot, qdot) >= 0."""
    return _quadratic_form(fric.nu_at(q), qdot)


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
