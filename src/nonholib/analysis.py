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


class FrameNotInvariant(ValueError):
    """A graph read at one point disagrees with the per-row graph at other
    samples: the frame data it takes to be the same at every q depend on q."""


#: Largest gap between the one-point and the per-row h1 at a rung's checked
#: samples, relative to max(1, |h1|), that one_point_graph accepts.  The
#: sleigh's gap is at most 2.2e-15, |h1| at most 2.3, over 20 one-point q
#: against 1,904 random (q, xi) with |xi| <= 1.2 for each of three parameter
#: sets; a metric factor 1 + 0.1 sin(phi) gives 1e-2 to 3e-2 on the sleigh
#: manifold's runs.
INVARIANCE_RTOL = 1e-12

#: Samples at which one_point_graph checks the one-point h1 against the
#: per-row h1: spread evenly over a stack, its last row included.
INVARIANCE_ROWS = 8


def _finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise NonFiniteValue(f"{what} holds a non-finite value")


@dataclass
class ManifoldFit:
    """Post-transient samples against the first-order slow-manifold graph."""

    qs: np.ndarray  # (m, n) chart points; a row left out of the run is NaN
    xis: np.ndarray  # (m, k)
    etas: np.ndarray  # (m, n - k)
    predicted: np.ndarray  # (m, n - k), eps * h1 per sample
    residual_sup: float = field(init=False)

    def __post_init__(self):
        res = np.linalg.norm(self.etas - self.predicted, axis=1)
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
    return float(np.max(np.linalg.norm(xa - xb, axis=1)))


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
    return float(np.max(np.linalg.norm(diffs, axis=1)))


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


def one_point_graph(expansion: ExpansionData) -> ExpansionData:
    """The graph of a system whose h1 reads nothing that varies with q: the
    adapted frame's metric, connection and friction eta-block and the
    potential force are the same at every q.  h1 of a stack (qs, xis) reads
    them once, at qs[0], for every xi.  The per-row h1 at INVARIANCE_ROWS
    samples spread over the stack, taken in one call on the stack of those
    samples, checks it.  An error that call raises at any of them
    (SingularFrame, SingularMetric) comes first; then, sample by sample, a
    gap past INVARIANCE_RTOL raises FrameNotInvariant, and a non-finite
    per-row value NonFiniteValue.  A dependence on q that agrees at every
    checked sample goes unseen.  A non-finite one-point graph is returned for
    manifold_fit to refuse."""
    h1 = expansion.h1

    def graph(qs, xis):
        one = h1(qs[0], xis)
        if not np.isfinite(one).all():
            return one
        last = len(qs) - 1
        checked = [last * j // INVARIANCE_ROWS for j in range(1, INVARIANCE_ROWS + 1)]
        for i, row in zip(checked, h1(qs[checked], xis[checked])):
            _finite(row, "the per-row h1 at a checked sample")
            gap = float(np.max(np.abs(one[i] - row)))
            bound = INVARIANCE_RTOL * max(1.0, float(np.max(np.abs(row))))
            if not gap <= bound:
                raise FrameNotInvariant(
                    f"h1 read once at the first sample is {gap:.3g} off the per-row h1 at"
                    f" sample {i} (bound {bound:.3g}): the frame data depend on q"
                )
        return one

    return ExpansionData(h1=graph)


def fit_slope_through_origin(x, y) -> float:
    """Least-squares slope of y against x with zero intercept."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    denom = float(x @ x)
    if denom == 0.0:
        raise DegenerateFit("cannot fit a slope against identically zero data")
    return float(x @ y) / denom
