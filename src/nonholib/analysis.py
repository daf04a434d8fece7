"""Quantitative trajectory comparison: sup distances, convergence orders,
invariance defects, energy audits and slow-manifold extraction.

The comparison window [t1, T] always starts at some t1 > 0 so that the
initial relaxation layer of the friction dynamics is excluded; defaults are
t1 = 0.5 s and T = 10 s.  Distances are component-wise Euclidean in frame
coordinates at the compared runs' own sample times, so all report
quantities are deterministic given the configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .dynamics import (
    ExpansionData,
    RayleighFriction,
    _matvec,
    energy,
    rayleigh_power,
)
from .geometry import MechanicalSystem, MovingFrame, SingularFrame, SingularMetric, in_blocks
from .ode import Trajectory

DEFAULT_T1 = 0.5


class WindowMismatch(ValueError):
    """Trajectories do not cover the requested comparison window."""


class LadderTooShort(ValueError):
    """Order estimation needs at least two ladder entries."""


class TransientTooShort(ValueError):
    """Trajectory ends before the transient cutoff."""


class DegenerateFit(ValueError):
    """A fit's data is identically zero, so the fit is undetermined."""


class NonFiniteValue(ValueError):
    """A value an analysis pass reads is NaN or infinite, such as a state
    column that `ode.integrate` left out."""


def _finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise NonFiniteValue(f"{what} holds a non-finite value")


def _row_norms(x: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row, in np.linalg.norm(x, axis=1)'s
    operation order, so bitwise its value; compare calls no numpy.linalg
    function."""
    return np.sqrt((x * x).sum(axis=1))


@dataclass
class ManifoldFit:
    """Post-transient samples against the first-order slow-manifold graph."""

    qs: np.ndarray  # (m, n) chart points; a row left out of the run is NaN
    xis: np.ndarray  # (m, k)
    etas: np.ndarray  # (m, n - k)
    predicted: np.ndarray  # (m, n - k), eps * h1 per sample
    residual_sup: float = field(init=False)

    def __post_init__(self):
        res = _row_norms(self.etas - self.predicted)
        self.residual_sup = float(res.max()) if len(res) else 0.0


def sup_distance(
    traj_a: Trajectory,
    traj_b: Trajectory,
    t1: float,
    t_end: float,
    components: Optional[Sequence[int]] = None,
) -> float:
    """Maximum Euclidean distance between two trajectories on [t1, t_end].

    The window must lie inside both spans (WindowMismatch otherwise); both
    are evaluated at its two ends and at every stored sample time of either
    inside it.  Distance is over the selected components (all shared by
    default); symmetric, and a metric on trajectories that share their sample
    times.  Raises NonFiniteValue if a selected component is not finite there.
    """
    if t_end <= t1:
        raise WindowMismatch(f"need t_end > t1, got [{t1}, {t_end}]")
    for traj in (traj_a, traj_b):
        lo, hi = traj.t_span
        if t1 < lo or t_end > hi:
            raise WindowMismatch(
                f"trajectory spans [{lo!r}, {hi!r}], window is [{t1!r}, {t_end!r}]"
            )
    # a time both runs store is read twice, which leaves the max as it is;
    # np.unique would cost about 0.8 MB of peak RSS for the pages it loads
    ts = np.concatenate(([t1, t_end], traj_a.times, traj_b.times))
    ts = ts[(ts >= t1) & (ts <= t_end)]
    xa = traj_a.sample_at(ts)
    xb = traj_b.sample_at(ts)
    if components is not None:
        idx = list(components)
        xa = xa[:, idx]
        xb = xb[:, idx]
    elif xa.shape[1] != xb.shape[1]:
        raise WindowMismatch("trajectories have different dimensions")
    _finite(xa, "the first trajectory")
    _finite(xb, "the second trajectory")
    return float(np.max(_row_norms(xa - xb)))


def estimate_order(eps_ladder, errors) -> np.ndarray:
    """Convergence order from adjacent ladder pairs.

    order_i = log(e_i / e_{i+1}) / log(eps_i / eps_{i+1}); for a halving
    ladder this is log2 of the error ratio.  Requires >= 2 entries with
    strictly decreasing eps.  A zero error, as from an equilibrium start
    where the compared models coincide, raises DegenerateFit.
    """
    eps_ladder = np.asarray(eps_ladder, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if eps_ladder.ndim != 1 or eps_ladder.shape != errors.shape:
        raise ValueError("eps_ladder and errors must be matching 1-d arrays")
    if len(eps_ladder) < 2:
        raise LadderTooShort("need at least two ladder entries")
    if not np.all(np.diff(eps_ladder) < 0):
        raise ValueError("eps ladder must be strictly decreasing")
    if np.any(errors <= 0):
        raise DegenerateFit(
            "errors must be positive; a zero error means the compared runs coincide"
        )
    return np.log(errors[:-1] / errors[1:]) / np.log(eps_ladder[:-1] / eps_ladder[1:])


def pseudo_solution_defect(traj: Trajectory, field_fn: Callable) -> float:
    """sup_t ||xdot(t) - X(x(t))|| over the stored samples.

    Measures how far a curve is from solving the given field; a trajectory
    produced by integrating the same field has zero defect by construction,
    while a projected large-friction trajectory tested against the
    constrained field has a defect proportional to eps.  The field gets
    each state as a list of floats, as `integrate`'s fields do, and may be
    handed states with non-finite columns it does not read; a difference
    that is not finite raises NonFiniteValue.
    """
    diffs = np.empty_like(traj.states)
    for i, row in enumerate(traj.states.tolist()):
        diffs[i] = field_fn(row)
    # elementwise, so bitwise the per-row difference
    np.subtract(traj.derivs, diffs, out=diffs)
    _finite(diffs, "the defect xdot - X(x)")
    return float(np.max(_row_norms(diffs)))


def _fd_rate_5pt(values: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order central differences on the interior (edges excluded)."""
    if len(values) < 5:
        raise ValueError("need at least five samples for the 5-point stencil")
    v = values
    return (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / (12.0 * h)


def energy_audit(
    traj: Trajectory,
    sys: MechanicalSystem,
    fric: Optional[RayleighFriction],
    eps: float,
    frame: Optional[MovingFrame] = None,
) -> float:
    """Max relative violation of the power balance dE/dt = -nu(qdot, qdot)/eps.

    The energy time series is differentiated with a fourth-order stencil on
    the sample grid (interior points only) and compared against the
    dissipation computed from the states.  States are chart pairs
    (q, qdot) unless a frame is given, in which case they are quasi-velocity
    triples (q, xi, eta).  The violation is normalized by the peak
    dissipation rate, or by an energy-scale rate when the friction form is
    absent or inactive (then the audit degenerates to an energy-conservation
    check).  The metric, frame and friction form are read on blocks of
    samples (geometry.in_blocks), every sample checked as in geometry.
    """
    n = sys.n
    if traj.dim != 2 * n:
        raise ValueError(f"expected state dimension {2 * n}, got {traj.dim}")
    steps = np.diff(traj.times)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError("energy audit needs a uniform sample grid")
    h = float(steps[0])

    def energy_and_power(states):
        q, qdot = states[:, :n], states[:, n:]
        if frame is not None:  # quasi-velocities: qdot = F w, one frame read
            qdot = _matvec(frame.fields_at(q), qdot)
        e = energy(sys, q, qdot)
        power = np.zeros(len(q)) if fric is None else rayleigh_power(fric, q, qdot)
        return np.stack([e, power], axis=1)

    energies, powers = in_blocks(energy_and_power, traj.states).T

    de_dt = _fd_rate_5pt(energies, h)
    expected = -powers[2:-2] / eps
    peak = float(np.max(powers / eps)) if fric is not None else 0.0
    if peak <= 0.0:
        # conservative case: normalize by an energy-per-window rate
        span = traj.times[-1] - traj.times[0]
        peak = max(float(np.max(np.abs(energies))), 1.0) / span
    return float(np.max(np.abs(de_dt - expected)) / peak)


def manifold_fit(
    traj: Trajectory,
    expansion: ExpansionData,
    eps: float,
    transient_cutoff: float,
    n: int,
    k: int,
) -> ManifoldFit:
    """Collect post-transient (q, xi, eta) samples and compare eta against
    the first-order graph eps * h1(q, xi).

    The trajectory must hold frame states (q, xi, eta) of length 2n.  The
    cutoff should cover several fast time constants; samples before it are
    discarded.  The sup residual shrinks like eps^2 along an eps ladder.
    A chart row left out of the run (NaN) must be one that h1 never reads;
    a graph that reads one raises NonFiniteValue, whether a checked
    callback refuses it or the graph comes out non-finite.
    """
    if traj.dim != 2 * n:
        raise ValueError(f"expected frame-state dimension {2 * n}, got {traj.dim}")
    if traj.times[-1] < transient_cutoff:
        raise TransientTooShort(
            f"trajectory ends at {traj.times[-1]:.6g} before the cutoff "
            f"{transient_cutoff:.6g}"
        )
    keep = traj.times >= transient_cutoff
    states = traj.states[keep]
    qs = states[:, :n]
    xis = states[:, n : n + k]
    etas = states[:, n + k :]
    try:
        predicted = eps * expansion.h1(qs, xis)
    except (SingularFrame, SingularMetric) as exc:
        if np.isfinite(qs).all():
            raise
        raise NonFiniteValue(f"h1 reads a chart row left out of the run: {exc}") from None
    _finite(predicted, "the first-order graph eps * h1")
    return ManifoldFit(qs=qs, xis=xis, etas=etas, predicted=predicted)


def fit_slope_through_origin(x, y) -> float:
    """Least-squares slope of y against x with zero intercept."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    denom = float(x @ x)
    if denom == 0.0:
        raise DegenerateFit("cannot fit a slope against identically zero data")
    return float(x @ y) / denom
