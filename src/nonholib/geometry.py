"""Moving-frame differential geometry on a single coordinate chart.

A mechanical system is a Riemannian metric plus a potential on an
n-dimensional chart.  A moving frame is an invertible matrix field whose
columns are vector fields; the first k columns span the constraint
distribution D and, for adapted frames, the remaining n-k columns span the
metric-orthogonal complement of D.

Index conventions used throughout (all arrays are plain ndarrays):

* metric(q)[i, j]               kappa_ij
* metric_derivs(q)[i, j, m]     d kappa_ij / d q^m
* fields(q)[i, a]               component i of frame vector a (columns)
* field_derivs(q)[i, a, m]      d f^i_a / d q^m
* structure functions C[a, b, g]    [f_b, f_g] = C^a_bg f_a
* connection omega[a, b, g]     nabla_{f_g} f_b = omega^a_bg f_a
* christoffel G[i, j, k]        chart-frame Levi-Civita symbols

Quasi-velocities split as (xi, eta) with xi the first k frame components
(along D) and eta the rest; projections onto the blocks are plain slices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

#: Condition number beyond which a frame or metric is treated as singular;
#: past this point double precision identity checks are meaningless.
COND_LIMIT = 1e12

#: Central finite-difference step for the derivative fallbacks.
FD_STEP = 1e-6


class SingularFrame(RuntimeError):
    """Frame matrix is numerically singular at the queried point."""


class SingularMetric(RuntimeError):
    """Metric is not symmetric positive definite at the queried point."""


def _fd_matrix_derivs(fn: Callable, n: int, step: float = FD_STEP) -> Callable:
    """Central finite differences of a matrix-valued map q -> (n, n)."""

    def derivs(q):
        q = np.asarray(q, dtype=float)
        out = np.empty((n, n, n))
        for m in range(n):
            dq = np.zeros(n)
            dq[m] = step
            out[:, :, m] = (fn(q + dq) - fn(q - dq)) / (2.0 * step)
        return out

    return derivs


def _fd_gradient(fn: Callable, n: int, step: float = FD_STEP) -> Callable:
    def grad(q):
        q = np.asarray(q, dtype=float)
        out = np.empty(n)
        for m in range(n):
            dq = np.zeros(n)
            dq[m] = step
            out[m] = (fn(q + dq) - fn(q - dq)) / (2.0 * step)
        return out

    return grad


@dataclass(frozen=True)
class MechanicalSystem:
    """Chart dimension, kinetic-energy metric and potential.

    metric(q) must be symmetric positive definite wherever queried.  When
    analytic derivative callbacks are omitted, central finite differences
    with step 1e-6 are used; identity tests at the 1e-10 level need the
    analytic versions.
    """

    n: int
    metric: Callable
    potential: Optional[Callable] = None
    metric_derivs: Optional[Callable] = None
    potential_grad: Optional[Callable] = None

    def metric_at(self, q) -> np.ndarray:
        kappa = np.asarray(self.metric(q), dtype=float)
        if kappa.shape != (self.n, self.n):
            raise ValueError(f"metric must be {self.n}x{self.n}")
        if not np.all(np.isfinite(kappa)):
            raise SingularMetric("metric has non-finite entries")
        if not np.allclose(kappa, kappa.T, rtol=0.0, atol=1e-12 * _scale(kappa)):
            raise SingularMetric("metric is not symmetric")
        try:
            np.linalg.cholesky(kappa)
        except np.linalg.LinAlgError:
            raise SingularMetric("metric is not positive definite") from None
        if np.linalg.cond(kappa) > COND_LIMIT:
            raise SingularMetric("metric condition number exceeds 1e12")
        return kappa

    def metric_derivs_at(self, q) -> np.ndarray:
        fn = self.metric_derivs
        if fn is None:
            fn = _fd_matrix_derivs(lambda p: np.asarray(self.metric(p), float), self.n)
        return np.asarray(fn(q), dtype=float)

    def potential_at(self, q) -> float:
        return 0.0 if self.potential is None else float(self.potential(q))

    def potential_grad_at(self, q) -> np.ndarray:
        if self.potential is None:
            return np.zeros(self.n)
        fn = self.potential_grad
        if fn is None:
            fn = _fd_gradient(self.potential, self.n)
        return np.asarray(fn(q), dtype=float)


def _scale(a: np.ndarray) -> float:
    m = float(np.max(np.abs(a))) if a.size else 0.0
    return max(m, 1.0)


@dataclass(frozen=True)
class MovingFrame:
    """Invertible matrix field of frame vector fields.

    k is the split rank; the first k columns are meant to span the
    constraint distribution D.  The friction dynamics relies on the last
    n-k columns spanning the metric-orthogonal complement.  Geometry
    operations work for any invertible frame regardless of adaptation.
    """

    k: int
    fields: Callable
    field_derivs: Optional[Callable] = None

    def fields_at(self, q) -> np.ndarray:
        f = np.asarray(self.fields(q), dtype=float)
        if f.ndim != 2 or f.shape[0] != f.shape[1]:
            raise ValueError("frame must be a square matrix field")
        if not np.all(np.isfinite(f)):
            raise SingularFrame("frame has non-finite entries")
        if np.linalg.cond(f) > COND_LIMIT:
            raise SingularFrame("frame condition number exceeds 1e12")
        return f

    def inverse_at(self, q) -> np.ndarray:
        return np.linalg.inv(self.fields_at(q))

    def field_derivs_at(self, q) -> np.ndarray:
        fn = self.field_derivs
        if fn is None:
            n = self.fields_at(np.asarray(q, dtype=float)).shape[0]
            fn = _fd_matrix_derivs(lambda p: np.asarray(self.fields(p), float), n)
        return np.asarray(fn(q), dtype=float)


@dataclass
class FrameState:
    """Quasi-velocity state (q, xi, eta) relative to an adapted frame."""

    q: np.ndarray
    xi: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.xi = np.asarray(self.xi, dtype=float)
        self.eta = np.asarray(self.eta, dtype=float)
        if self.xi.size + self.eta.size != self.q.size:
            raise ValueError("xi and eta sizes must add up to dim(q)")


# ---------------------------------------------------------------------------
# frame-relative tensors
# ---------------------------------------------------------------------------


def frame_metric(sys: MechanicalSystem, fr: MovingFrame, q) -> np.ndarray:
    """Metric in frame components, kappa_ab = kappa(f_a, f_b)."""
    f = fr.fields_at(q)
    kappa = sys.metric_at(q)
    return f.T @ kappa @ f


def structure_functions(fr: MovingFrame, q) -> np.ndarray:
    """Lie brackets relative to the frame: [f_b, f_g] = C^a_bg f_a.

    Antisymmetric in the lower pair; identically zero for frames induced by
    coordinates.
    """
    f = fr.fields_at(q)
    df = fr.field_derivs_at(q)
    lam = np.linalg.inv(f)
    # bracket[i, b, g] = f^m_b d_m f^i_g - f^m_g d_m f^i_b
    bracket = np.einsum("mb,igm->ibg", f, df) - np.einsum("mg,ibm->ibg", f, df)
    return np.einsum("ai,ibg->abg", lam, bracket)


def _frame_metric_directional_derivs(sys, fr, q) -> np.ndarray:
    """DK[a, b, c] = f_c(kappa_ab), directional derivative along f_c."""
    f = fr.fields_at(q)
    df = fr.field_derivs_at(q)
    kappa = sys.metric_at(q)
    dkappa = sys.metric_derivs_at(q)
    dk_chart = (
        np.einsum("iam,ij,jb->abm", df, kappa, f)
        + np.einsum("ia,ijm,jb->abm", f, dkappa, f)
        + np.einsum("ia,ij,jbm->abm", f, kappa, df)
    )
    return np.einsum("abm,mc->abc", dk_chart, f)


def connection_coefficients(sys: MechanicalSystem, fr: MovingFrame, q) -> np.ndarray:
    """Levi-Civita connection in frame components.

    Returns omega with omega[a, b, g] the f_a-component of the covariant
    derivative of f_b along f_g.  Built from the Koszul formula: metric
    directional derivatives along the frame plus structure-function terms.
    The lower-index antisymmetric part reproduces the structure functions
    (torsion-freeness), which the test suite checks explicitly.
    """
    K = frame_metric(sys, fr, q)
    Kinv = np.linalg.inv(K)
    DK = _frame_metric_directional_derivs(sys, fr, q)
    C = structure_functions(fr, q)
    kosz = 0.5 * (
        np.einsum("eb,gbd->egd", Kinv, DK)
        + np.einsum("eb,dbg->egd", Kinv, DK)
        - np.einsum("eb,dgb->egd", Kinv, DK)
    )
    cterm = 0.5 * (
        np.transpose(C, (0, 2, 1))
        + np.einsum("ag,eb,abd->egd", K, Kinv, C)
        + np.einsum("ad,eb,abg->egd", K, Kinv, C)
    )
    return kosz + cterm


def christoffel(sys: MechanicalSystem, q) -> np.ndarray:
    """Levi-Civita symbols of the chart metric, symmetric in the lower pair."""
    kappa = sys.metric_at(q)
    dk = sys.metric_derivs_at(q)
    kinv = np.linalg.inv(kappa)
    # G^i_jk = 1/2 kappa^il (d_j kappa_lk + d_k kappa_lj - d_l kappa_jk)
    t1 = np.transpose(dk, (0, 2, 1))  # t1[l, j, k] = dk[l, k, j] = d_j kappa_lk
    gamma = 0.5 * (
        np.einsum("il,ljk->ijk", kinv, t1)
        + np.einsum("il,ljk->ijk", kinv, dk)
        - np.einsum("il,jkl->ijk", kinv, dk)
    )
    return gamma


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


# ---------------------------------------------------------------------------
# chart <-> quasi-velocity conversions
# ---------------------------------------------------------------------------


def chart_to_frame(fr: MovingFrame, q, qdot) -> FrameState:
    """Split a chart velocity into quasi-velocities (xi, eta)."""
    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    w = fr.inverse_at(q) @ qdot
    return FrameState(q, w[: fr.k], w[fr.k :])


def frame_to_chart(fr: MovingFrame, state: FrameState):
    """Inverse of :func:`chart_to_frame`."""
    w = np.concatenate([state.xi, state.eta])
    return state.q.copy(), fr.fields_at(state.q) @ w


# ---------------------------------------------------------------------------
# free (geodesic) quasi-velocity dynamics, two equivalent forms
# ---------------------------------------------------------------------------


def geodesic_rhs_conn(sys: MechanicalSystem, fr: MovingFrame, q, v) -> np.ndarray:
    """Quasi-velocity geodesic acceleration via connection coefficients:
    vdot^a = -omega^a_bg v^b v^g."""
    v = np.asarray(v, dtype=float)
    omega = connection_coefficients(sys, fr, q)
    return -np.einsum("abg,b,g->a", omega, v, v)


def geodesic_rhs_struct(sys: MechanicalSystem, fr: MovingFrame, q, v) -> np.ndarray:
    """Same acceleration via the quasi-velocity Euler-Lagrange reduction
    (structure functions and frame-directional metric derivatives):

    vdot^m = -kappa^{ma} [ f_g(kappa_ab) - 1/2 f_a(kappa_bg)
                           - kappa_{dg} C^d_ba ] v^b v^g
    """
    v = np.asarray(v, dtype=float)
    K = frame_metric(sys, fr, q)
    Kinv = np.linalg.inv(K)
    DK = _frame_metric_directional_derivs(sys, fr, q)
    C = structure_functions(fr, q)
    return -(
        np.einsum("ma,abg,b,g->m", Kinv, DK, v, v)
        - 0.5 * np.einsum("ma,bga,b,g->m", Kinv, DK, v, v)
        - np.einsum("ma,dg,dba,b,g->m", Kinv, K, C, v, v)
    )
