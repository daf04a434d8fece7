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

connection_coefficients and geodesic_rhs_struct read each of the four
callbacks (fields, field_derivs, metric, metric_derivs) once per point.

Leading sample axis: the point accessors (metric_at, metric_derivs_at,
potential_at, potential_grad_at, fields_at, field_derivs_at) and
frame_metric, structure_functions and connection_coefficients take either
one point q of shape (n,) or a stack of m points of shape (m, n), and then
return their arrays with a leading axis of length m.  A stack calls the
user's callbacks row by row and runs every validity check on every row,
one stacked numpy call per check.  Callers that hold many samples feed
them through in_blocks, which cuts a stack into blocks of at most
BLOCK_ROWS rows so that the stacked temporaries stay small.
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

#: Rows per block in in_blocks.  Unblocked, the 951 samples of one rung of
#: the sleigh manifold report raised its peak RSS from 32.6 to 34.3 MB and
#: ran no faster.
BLOCK_ROWS = 256


class SingularFrame(RuntimeError):
    """Frame matrix is numerically singular at the queried point."""


class SingularMetric(RuntimeError):
    """Metric is not symmetric positive definite at the queried point."""


def in_blocks(fn: Callable, *stacks) -> np.ndarray:
    """fn applied to consecutive blocks of at most BLOCK_ROWS rows of the
    equally long, non-empty stacks; the results are joined along the
    leading axis."""
    return np.concatenate(
        [
            fn(*(s[i : i + BLOCK_ROWS] for s in stacks))
            for i in range(0, len(stacks[0]), BLOCK_ROWS)
        ]
    )


def _at_rows(fn: Callable, q, message: str = "") -> np.ndarray:
    """fn at one point q of shape (n,), as a float array; at a stack of
    shape (m, n), fn at each row, stacked along a leading axis.  With a
    message, rows whose values differ in shape raise ValueError(message),
    the error a single point of the odd shape raises."""
    q = np.asarray(q, dtype=float)
    if q.ndim == 1:
        return np.asarray(fn(q), dtype=float)
    rows = [np.asarray(fn(p), dtype=float) for p in q]
    if message and any(r.shape != rows[0].shape for r in rows):
        raise ValueError(message)
    return np.array(rows)


def _square(a: np.ndarray, q) -> bool:
    """Whether a holds one square matrix per point of q."""
    return a.ndim == np.ndim(q) + 1 and a.shape[-1] == a.shape[-2]


def _central_difference(fn: Callable, n: int) -> Callable:
    """Central finite differences of a scalar-, vector- or matrix-valued map
    of q; the derivative index is the last axis."""

    def derivs(q):
        q = np.asarray(q, dtype=float)
        cols = []
        for m in range(n):
            dq = np.zeros(n)
            dq[m] = FD_STEP
            diff = np.asarray(fn(q + dq), float) - np.asarray(fn(q - dq), float)
            cols.append(diff / (2.0 * FD_STEP))
        return np.stack(cols, axis=-1)

    return derivs


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
        shape = f"metric must be {self.n}x{self.n}"
        kappa = _at_rows(self.metric, q, shape)
        if kappa.shape != np.shape(q)[:-1] + (self.n, self.n):
            raise ValueError(shape)
        if not np.isfinite(kappa).all():
            raise SingularMetric("metric has non-finite entries")
        asym = np.abs(kappa - np.swapaxes(kappa, -1, -2))
        if not (asym <= 1e-12 * _scale(kappa)).all():
            raise SingularMetric("metric is not symmetric")
        try:
            np.linalg.cholesky(kappa)
        except np.linalg.LinAlgError:
            raise SingularMetric("metric is not positive definite") from None
        if (np.linalg.cond(kappa) > COND_LIMIT).any():
            raise SingularMetric("metric condition number exceeds 1e12")
        return kappa

    def metric_derivs_at(self, q) -> np.ndarray:
        fn = self.metric_derivs
        if fn is None:
            fn = _central_difference(self.metric, self.n)
        return _at_rows(fn, q)

    def potential_at(self, q):
        """V(q): a float at one point, an (m,) array on a stack."""
        if self.potential is None:
            return 0.0 if np.ndim(q) == 1 else np.zeros(len(q))
        v = _at_rows(lambda p: float(self.potential(p)), q)
        return float(v) if v.ndim == 0 else v

    def potential_grad_at(self, q) -> np.ndarray:
        if self.potential is None:
            return np.zeros(np.shape(q)[:-1] + (self.n,))
        fn = self.potential_grad
        if fn is None:
            fn = _central_difference(self.potential, self.n)
        return _at_rows(fn, q)


def _scale(a: np.ndarray) -> np.ndarray:
    """max(max |entry|, 1) of each matrix in a, broadcastable against a."""
    if not a.size:
        return np.ones(a.shape[:-2] + (1, 1))
    return np.maximum(np.max(np.abs(a), axis=(-2, -1), keepdims=True), 1.0)


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
        shape = "frame must be a square matrix field"
        f = _at_rows(self.fields, q, shape)
        if not _square(f, q):
            raise ValueError(shape)
        if not np.isfinite(f).all():
            raise SingularFrame("frame has non-finite entries")
        if (np.linalg.cond(f) > COND_LIMIT).any():
            raise SingularFrame("frame condition number exceeds 1e12")
        return f

    def inverse_at(self, q) -> np.ndarray:
        return np.linalg.inv(self.fields_at(q))

    def field_derivs_at(self, q) -> np.ndarray:
        fn = self.field_derivs
        if fn is None:
            fn = _central_difference(self.fields, np.shape(q)[-1])
        return _at_rows(fn, q)


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
    return np.swapaxes(f, -1, -2) @ kappa @ f


def structure_functions(fr: MovingFrame, q) -> np.ndarray:
    """Lie brackets relative to the frame: [f_b, f_g] = C^a_bg f_a.

    Antisymmetric in the lower pair; identically zero for frames induced by
    coordinates.
    """
    return _brackets(fr.fields_at(q), fr.field_derivs_at(q))


def _brackets(f, df) -> np.ndarray:
    """Structure functions from the frame f and its chart derivatives df."""
    lam = np.linalg.inv(f)
    # bracket[i, b, g] = f^m_b d_m f^i_g - f^m_g d_m f^i_b
    bracket = np.einsum("...mb,...igm->...ibg", f, df) - np.einsum(
        "...mg,...ibm->...ibg", f, df
    )
    return np.einsum("...ai,...ibg->...abg", lam, bracket)


def _connection_terms(sys, fr, q):
    """Frame metric K, its inverse, its directional derivatives
    DK[a, b, c] = f_c(K_ab) and the structure functions C at q, from one
    read of each of the frame, metric and derivative callbacks."""
    f = fr.fields_at(q)
    df = fr.field_derivs_at(q)
    kappa = sys.metric_at(q)
    dkappa = sys.metric_derivs_at(q)
    K = np.swapaxes(f, -1, -2) @ kappa @ f
    dk_chart = (
        np.einsum("...iam,...ij,...jb->...abm", df, kappa, f)
        + np.einsum("...ia,...ijm,...jb->...abm", f, dkappa, f)
        + np.einsum("...ia,...ij,...jbm->...abm", f, kappa, df)
    )
    DK = np.einsum("...abm,...mc->...abc", dk_chart, f)
    return K, np.linalg.inv(K), DK, _brackets(f, df)


def connection_coefficients(sys: MechanicalSystem, fr: MovingFrame, q) -> np.ndarray:
    """Levi-Civita connection in frame components.

    Returns omega with omega[a, b, g] the f_a-component of the covariant
    derivative of f_b along f_g.  Built from the Koszul formula: metric
    directional derivatives along the frame plus structure-function terms.
    The lower-index antisymmetric part reproduces the structure functions
    (torsion-freeness), which the test suite checks explicitly.
    """
    K, Kinv, DK, C = _connection_terms(sys, fr, q)
    kosz = 0.5 * (
        np.einsum("...eb,...gbd->...egd", Kinv, DK)
        + np.einsum("...eb,...dbg->...egd", Kinv, DK)
        - np.einsum("...eb,...dgb->...egd", Kinv, DK)
    )
    cterm = 0.5 * (
        np.swapaxes(C, -1, -2)
        + np.einsum("...ag,...eb,...abd->...egd", K, Kinv, C)
        + np.einsum("...ad,...eb,...abg->...egd", K, Kinv, C)
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
    K, Kinv, DK, C = _connection_terms(sys, fr, q)
    return -(
        np.einsum("ma,abg,b,g->m", Kinv, DK, v, v)
        - 0.5 * np.einsum("ma,bga,b,g->m", Kinv, DK, v, v)
        - np.einsum("ma,dg,dba,b,g->m", Kinv, K, C, v, v)
    )
