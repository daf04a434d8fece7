"""Explicit Runge-Kutta integration with dense trajectory storage.

Two schemes are provided: classic fixed-step RK4 (the default for all
reproducible experiments) and the adaptive Fehlberg 4(5) embedded pair for
exploration of very stiff parameter regimes.  `integrate` owns the one
sample loop; a scheme is a stepper ``(field, x, t, target, h, cfg) -> (x, h)``
that advances one sample interval and hands on the step size to start the
next.  Integration is deterministic: identical inputs produce bit-identical
trajectories.

A field is called with the state as a list of Python floats and may return
any sequence of floats (a tuple, a list or an ndarray).  The steppers work
on Python floats because numpy's per-operation overhead dominates arithmetic
on vectors of a few components; they keep the operation order of
whole-array code, so their results are bitwise equal to it.  The adaptive
scheme's error norm is the root of a left-to-right sum of the squared
scaled errors divided by the number of components n.  Below 8 components
that sum is bitwise numpy's mean (a plain loop there); from 8 on numpy adds
in pairwise blocks, which differs at rounding level and can change the
step-size sequence.

Trajectories store the state *and* the right-hand side at every sample so
that dense output is available through cubic Hermite interpolation, which is
exact at the sample points and reproduces cubic polynomials in between.

All functions here are pure; a `Trajectory` is immutable after construction,
so concurrent use from several threads is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class NonFiniteState(RuntimeError):
    """A state component became NaN/Inf (blow-up or too large a step)."""

    def __init__(self, t: float):
        super().__init__(f"state became non-finite at t={t:.6g}")
        self.t = t


class StepUnderflow(RuntimeError):
    """The adaptive step size shrank below the resolvable limit."""


class OutOfRange(ValueError):
    """Interpolation time outside the stored trajectory span."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration settings.

    Parameters
    ----------
    t_span : (float, float)
        Start and end time, t1 > t0.
    dt : float
        Step size for the fixed-step scheme; initial step for the adaptive
        one.  The fixed-step scheme lands exactly on every sample time, so
        the effective step is sample_dt / round(sample_dt / dt).
    sample_dt : float
        Output sampling interval.  Samples are t0 + i * sample_dt.
    method : str
        "rk4" (fixed step) or "rkf45" (adaptive).
    abs_tol, rel_tol : float
        Error tolerances for the adaptive scheme.
    """

    t_span: tuple[float, float]
    dt: float = 1e-3
    sample_dt: float = 1e-2
    method: str = "rk4"
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9

    def __post_init__(self):
        t0, t1 = self.t_span
        if not t1 > t0:
            raise ValueError(f"t_span must satisfy t1 > t0, got {self.t_span}")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.sample_dt > 0:
            raise ValueError(f"sample_dt must be positive, got {self.sample_dt}")
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.method not in ("rk4", "rkf45"):
            raise ValueError(f"unknown method {self.method!r}")


class Trajectory:
    """Time-stamped samples of a solution curve with stored derivatives.

    times : (N,) strictly increasing sample times
    states : (N, dim) state vectors
    derivs : (N, dim) right-hand side evaluated at each sample
    """

    __slots__ = ("times", "states", "derivs")

    def __init__(self, times, states, derivs):
        times = np.ascontiguousarray(times, dtype=float)
        states = np.ascontiguousarray(states, dtype=float)
        derivs = np.ascontiguousarray(derivs, dtype=float)
        if times.ndim != 1 or len(times) < 1:
            raise ValueError("times must be a non-empty 1-d array")
        if states.shape != (len(times), states.shape[-1]) or states.ndim != 2:
            raise ValueError("states must have shape (len(times), dim)")
        if derivs.shape != states.shape:
            raise ValueError("derivs must have the same shape as states")
        if len(times) > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        for arr in (times, states, derivs):
            arr.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "derivs", derivs)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Trajectory is immutable")

    def __len__(self):
        return len(self.times)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def t_span(self) -> tuple[float, float]:
        return float(self.times[0]), float(self.times[-1])

    def sample_at(self, t):
        """Cubic Hermite interpolation; exact at the stored sample points.

        `t` may be a scalar or a 1-d array.  Returns shape (dim,) or
        (len(t), dim).
        """
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.ndim == 0
        tq = np.atleast_1d(t_arr)
        lo, hi = self.times[0], self.times[-1]
        slack = 1e-12 * max(1.0, abs(hi - lo))
        if np.any(tq < lo - slack) or np.any(tq > hi + slack):
            raise OutOfRange(f"t outside trajectory span [{lo:.6g}, {hi:.6g}]")
        tq = np.clip(tq, lo, hi)
        if len(self.times) == 1:
            out = np.repeat(self.states, len(tq), axis=0)
            return out[0] if scalar else out

        idx = np.searchsorted(self.times, tq, side="right") - 1
        idx = np.clip(idx, 0, len(self.times) - 2)
        t0 = self.times[idx]
        t1 = self.times[idx + 1]
        h = (t1 - t0)[:, None]
        s = ((tq - t0) / (t1 - t0))[:, None]
        s2 = s * s
        s3 = s2 * s
        out = (
            (2 * s3 - 3 * s2 + 1) * self.states[idx]
            + (s3 - 2 * s2 + s) * h * self.derivs[idx]
            + (-2 * s3 + 3 * s2) * self.states[idx + 1]
            + (s3 - s2) * h * self.derivs[idx + 1]
        )
        # Return the stored rows verbatim when t hits a node.
        exact_left = tq == t0
        exact_right = tq == t1
        if np.any(exact_left):
            out[exact_left] = self.states[idx[exact_left]]
        if np.any(exact_right):
            out[exact_right] = self.states[idx[exact_right] + 1]
        return out[0] if scalar else out


def transform_linear(traj: Trajectory, matrix) -> Trajectory:
    """Apply a constant linear map to states and derivatives.

    Useful for projecting onto a subset of components or for constant
    changes of quasi-velocity coordinates; both commute with d/dt, so the
    stored derivatives stay consistent.
    """
    m = np.asarray(matrix, dtype=float)
    return Trajectory(traj.times, traj.states @ m.T, traj.derivs @ m.T)


def restrict_window(traj: Trajectory, t_lo: float, t_hi: float) -> Trajectory:
    """Keep only the samples with t_lo <= t <= t_hi."""
    keep = (traj.times >= t_lo - 1e-12) & (traj.times <= t_hi + 1e-12)
    if not np.any(keep):
        raise OutOfRange(f"no samples inside [{t_lo:.6g}, {t_hi:.6g}]")
    return Trajectory(traj.times[keep], traj.states[keep], traj.derivs[keep])


def _sample_times(t0: float, t1: float, sample_dt: float) -> np.ndarray:
    n = int(np.floor((t1 - t0) / sample_dt + 1e-9))
    return t0 + sample_dt * np.arange(n + 1)


def integrate(field: Callable, x0, cfg: IntegratorConfig) -> Trajectory:
    """Integrate ``x' = field(x)`` over cfg.t_span, sampling every sample_dt.

    Parameters
    ----------
    field : callable
        Maps a state to its time derivative (autonomous): it receives a
        list of floats and returns a sequence of floats of the same length.
    x0 : array_like
        Initial state, finite.
    cfg : IntegratorConfig

    Returns
    -------
    Trajectory
        Sampled at t0 + i * sample_dt with stored derivatives.

    Raises
    ------
    NonFiniteState
        If any state component becomes NaN/Inf.
    StepUnderflow
        If the adaptive step falls below 1e-14 * (t1 - t0).
    """
    x0 = np.array(x0, dtype=float)
    if x0.ndim != 1:
        raise ValueError("x0 must be a flat vector")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    times = _sample_times(*cfg.t_span, cfg.sample_dt)
    step = _rk4_interval if cfg.method == "rk4" else _rkf45_interval
    states = np.empty((len(times), x0.size))
    derivs = np.empty((len(times), x0.size))
    ts = times.tolist()
    x = x0.tolist()
    h = cfg.dt
    states[0] = x
    derivs[0] = field(x)
    for i in range(1, len(ts)):
        x, h = step(field, x, ts[i - 1], ts[i], h, cfg)
        states[i] = x
        derivs[i] = field(x)
    return Trajectory(times, states, derivs)


def _is_finite(x) -> bool:
    # A finite sum implies finite terms; a sum that overflows falls back to
    # the termwise check.
    return math.isfinite(sum(x)) or all(map(math.isfinite, x))


def _rk4_interval(field, x, t, target, h, cfg):
    """Advance x from t to target in equal steps of about h; h is kept."""
    nsub = max(1, int(round((target - t) / h)))
    dt = (target - t) / nsub
    half, sixth = 0.5 * dt, dt / 6.0
    for j in range(nsub):
        xs = x
        try:
            k1 = field(xs)
            xs = [a + half * b for a, b in zip(x, k1)]
            k2 = field(xs)
            xs = [a + half * b for a, b in zip(x, k2)]
            k3 = field(xs)
            xs = [a + dt * b for a, b in zip(x, k3)]
            k4 = field(xs)
        except (ValueError, OverflowError):
            # a math call on a non-finite stage state (math.cos(inf))
            # is a blow-up; any other error is the field's own
            if _is_finite(xs):
                raise
            raise NonFiniteState(t + (j + 1) * dt) from None
        x = [
            a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)
        ]
        if not _is_finite(x):
            raise NonFiniteState(t + (j + 1) * dt)
    return x, h


# Fehlberg 4(5) tableau.  The fourth-order solution is propagated; the
# difference to the embedded fifth-order one estimates the local error.
_FE_A = (
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
_FE_B4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)
_FE_ERR = (1 / 360, 0.0, -128 / 4275, -2197 / 75240, 1 / 50, 2 / 55)


def _rkf45_interval(field, x, t, target, h, cfg):
    """Advance x from t to target in accepted adaptive steps; returns the
    step size to try first on the next interval."""
    h_min = 1e-14 * (cfg.t_span[1] - cfg.t_span[0])
    atol, rtol = cfg.abs_tol, cfg.rel_tol
    _, (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43), a5 = _FE_A
    a50, a51, a52, a53, a54 = a5
    b0, b1, b2, b3, b4, b5 = _FE_B4
    e0, e1, e2, e3, e4, e5 = _FE_ERR

    def attempt(x, h):
        # One Fehlberg step: (x4, err), or None once a stage state, x4 or
        # err is non-finite.  Each sum runs left to right from int 0 and
        # keeps its zero terms, the order of whole-array code, so every
        # value is bitwise equal to it.
        k0 = field(x)
        xs = [a + h * (0 + a10 * c0) for a, c0 in zip(x, k0)]
        if not _is_finite(xs):
            return None
        k1 = field(xs)
        xs = [a + h * ((0 + a20 * c0) + a21 * c1) for a, c0, c1 in zip(x, k0, k1)]
        if not _is_finite(xs):
            return None
        k2 = field(xs)
        xs = [
            a + h * (((0 + a30 * c0) + a31 * c1) + a32 * c2)
            for a, c0, c1, c2 in zip(x, k0, k1, k2)
        ]
        if not _is_finite(xs):
            return None
        k3 = field(xs)
        xs = [
            a + h * ((((0 + a40 * c0) + a41 * c1) + a42 * c2) + a43 * c3)
            for a, c0, c1, c2, c3 in zip(x, k0, k1, k2, k3)
        ]
        if not _is_finite(xs):
            return None
        k4 = field(xs)
        xs = [
            a + h * (((((0 + a50 * c0) + a51 * c1) + a52 * c2) + a53 * c3) + a54 * c4)
            for a, c0, c1, c2, c3, c4 in zip(x, k0, k1, k2, k3, k4)
        ]
        if not _is_finite(xs):
            return None
        k5 = field(xs)
        x4 = [
            a + h * ((((((0 + b0 * c0) + b1 * c1) + b2 * c2) + b3 * c3) + b4 * c4) + b5 * c5)
            for a, c0, c1, c2, c3, c4, c5 in zip(x, k0, k1, k2, k3, k4, k5)
        ]
        if not _is_finite(x4):
            return None
        # RMS of the scaled error: a left-to-right sum divided by n (not the
        # builtin sum, which is compensated from Python 3.12 on); np.mean
        # bitwise below 8 components, see the module docstring
        ratios = [
            h
            * ((((((0 + e0 * c0) + e1 * c1) + e2 * c2) + e3 * c3) + e4 * c4) + e5 * c5)
            / (atol + rtol * max(abs(a), abs(b)))
            for a, b, c0, c1, c2, c3, c4, c5 in zip(x, x4, k0, k1, k2, k3, k4, k5)
        ]
        total = 0.0
        for r in ratios:
            total += r * r
        err = math.sqrt(total / len(ratios))
        return (x4, err) if math.isfinite(err) else None

    while t < target - 1e-14 * max(1.0, abs(target)):
        h = min(h, target - t)
        if h < h_min:
            raise StepUnderflow(f"step size underflow at t={t:.6g}")
        step = attempt(x, h)
        if step is None:
            h *= 0.5
            continue
        x4, err = step
        if err <= 1.0:
            t += h
            x = x4
            if err == 0.0:
                h *= 5.0
            else:
                h *= min(5.0, max(0.2, 0.9 * err ** -0.2))
        else:
            h *= max(0.2, 0.9 * err ** -0.2)
    return x, h
