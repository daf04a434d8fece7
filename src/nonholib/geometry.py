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

connection_coefficients reads each of the four callbacks (fields,
field_derivs, metric, metric_derivs) once per point; given the checked
frame, its inverse and the checked metric, it reads only the two
derivative callbacks.  It takes every product of three or more arrays two
factors at a time, in the order written: on a stack of 256 points of
n = 3, a three-operand einsum took 1.5 to 5 times as long as its two
pairwise steps (numpy 2.4, 2-vCPU Xeon VM).

Leading sample axis: the point accessors (metric_at, metric_derivs_at,
potential_at, potential_grad_at, fields_at, field_derivs_at),
frame_metric and connection_coefficients take either one point q of shape
(n,) or a stack of m points of shape (m, n), and then return their arrays
with a leading axis of length m.  A stack calls the user's callbacks row
by row and runs every validity check on every row, one stacked numpy call
per check.  Callers that hold many samples feed them through in_blocks,
which cuts a stack into blocks of at most BLOCK_ROWS rows so that the
stacked temporaries stay small.
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

#: Rows per block in in_blocks.  Unblocked, energy_audit on a 20,001-sample
#: sleigh trajectory raised peak RSS by 8.0 MB (0.25 MB in blocks) and the
#: per-row h1 on 951 sleigh samples by 2.9 MB (1.7 MB), neither running
#: faster (numpy 2.4, 2-vCPU Xeon VM).
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

    def field_derivs_at(self, q) -> np.ndarray:
        fn = self.field_derivs
        if fn is None:
            fn = _central_difference(self.fields, np.shape(q)[-1])
        return _at_rows(fn, q)


# ---------------------------------------------------------------------------
# frame-relative tensors
# ---------------------------------------------------------------------------


def frame_metric(sys: MechanicalSystem, fr: MovingFrame, q) -> np.ndarray:
    """Metric in frame components, kappa_ab = kappa(f_a, f_b)."""
    f = fr.fields_at(q)
    kappa = sys.metric_at(q)
    return np.swapaxes(f, -1, -2) @ kappa @ f


def _along_frame(d, f) -> np.ndarray:
    """Chart derivatives d[..., m] turned into derivatives along the frame
    vectors: out[..., c] = f^m_c d[..., m]."""
    return d @ f[..., None, :, :]


def _read_point(sys, fr, q) -> tuple:
    """The checked frame f, its inverse lam and the checked metric kappa."""
    f = fr.fields_at(q)
    return f, np.linalg.inv(f), sys.metric_at(q)


def connection_coefficients(
    sys: MechanicalSystem, fr: MovingFrame, q, *, checked=None
) -> np.ndarray:
    """Levi-Civita connection in frame components.

    Returns omega with omega[a, b, g] the f_a-component of the covariant
    derivative of f_b along f_g.  Built from the Koszul formula: metric
    directional derivatives along the frame plus structure-function terms.
    The lower-index antisymmetric part reproduces the structure functions
    (torsion-freeness), which the test suite checks explicitly.

    A caller that has already read the checked frame f = fr.fields_at(q),
    its inverse lam and the checked metric kappa = sys.metric_at(q) passes
    checked=(f, lam, kappa), and only the two derivative callbacks are read.
    """
    f, lam, kappa = checked or _read_point(sys, fr, q)
    df_f = _along_frame(fr.field_derivs_at(q), f)
    dkappa_f = _along_frame(sys.metric_derivs_at(q), f)
    ftk = np.swapaxes(f, -1, -2) @ kappa
    K = ftk @ f
    # DK[a, b, c] = f_c(K_ab), by the product rule on K_ab = f^i_a kappa_ij
    # f^j_b, two factors at a time
    DK = (
        np.einsum("...ib,...iac->...abc", kappa @ f, df_f)
        + np.einsum("...ajc,...jb->...abc", np.einsum("...ia,...ijc->...ajc", f, dkappa_f), f)
        + np.einsum("...aj,...jbc->...abc", ftk, df_f)
    )
    # structure functions [f_b, f_g] = C^a_bg f_a from the brackets
    # [f_b, f_g]^i = f_b(f^i_g) - f_g(f^i_b)
    C = np.einsum("...ai,...ibg->...abg", lam, np.swapaxes(df_f, -1, -2) - df_f)
    # omega^e_gd = 1/2 (K^eb L_gbd + C^e_dg), with the lowered terms
    # L_gbd = S_gbd + S_dbg - f_b(K_dg) and S_gbd = f_d(K_gb) + K_ag C^a_bd
    S = DK + np.einsum("...ag,...abd->...gbd", K, C)
    L = S + np.swapaxes(S, -1, -3) - np.moveaxis(DK, -3, -1)
    return 0.5 * (
        np.einsum("...eb,...gbd->...egd", np.linalg.inv(K), L) + np.swapaxes(C, -1, -2)
    )


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
