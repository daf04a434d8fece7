"""Explicit Runge-Kutta integration with dense trajectory storage.

Two schemes are provided: classic fixed-step RK4 (the default for all
reproducible experiments) and the adaptive Fehlberg 4(5) embedded pair for
exploration of very stiff parameter regimes.  Integration is deterministic:
identical inputs produce bit-identical trajectories.

Trajectories store the state *and* the right-hand side at every sample so
that dense output is available through cubic Hermite interpolation, which is
exact at the sample points and reproduces cubic polynomials in between.

All functions here are pure; a `Trajectory` is immutable after construction,
so concurrent use from several threads is safe.
"""

from __future__ import annotations

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
        Maps a flat state vector to its time derivative (autonomous).
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
    t0, t1 = cfg.t_span
    times = _sample_times(t0, t1, cfg.sample_dt)
    if cfg.method == "rk4":
        states, derivs = _run_rk4(field, x0, times, cfg)
    else:
        states, derivs = _run_rkf45(field, x0, times, cfg)
    return Trajectory(times, states, derivs)


def _run_rk4(field, x0, times, cfg):
    dim = x0.size
    n = len(times)
    states = np.empty((n, dim))
    derivs = np.empty((n, dim))
    x = x0
    states[0] = x
    derivs[0] = field(x)
    for i in range(n - 1):
        span = times[i + 1] - times[i]
        nsub = max(1, int(round(span / cfg.dt)))
        h = span / nsub
        for j in range(nsub):
            k1 = field(x)
            k2 = field(x + 0.5 * h * k1)
            k3 = field(x + 0.5 * h * k2)
            k4 = field(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(x)):
                raise NonFiniteState(times[i] + (j + 1) * h)
        states[i + 1] = x
        derivs[i + 1] = field(x)
    return states, derivs


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


def _run_rkf45(field, x0, times, cfg):
    dim = x0.size
    n = len(times)
    states = np.empty((n, dim))
    derivs = np.empty((n, dim))
    x = x0
    states[0] = x
    derivs[0] = field(x)
    h_min = 1e-14 * (times[-1] - times[0])
    h = min(cfg.dt, times[-1] - times[0])
    k = [None] * 6
    for i in range(n - 1):
        t = times[i]
        target = times[i + 1]
        while t < target - 1e-14 * max(1.0, abs(target)):
            h = min(h, target - t)
            if h < h_min:
                raise StepUnderflow(f"step size underflow at t={t:.6g}")
            k[0] = field(x)
            ok = True
            for s in range(1, 6):
                xs = x + h * sum(a * k[j] for j, a in enumerate(_FE_A[s]))
                if not np.all(np.isfinite(xs)):
                    ok = False
                    break
                k[s] = field(xs)
            if ok:
                x4 = x + h * sum(b * k[j] for j, b in enumerate(_FE_B4))
                err_vec = h * sum(e * k[j] for j, e in enumerate(_FE_ERR))
                scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(x), np.abs(x4))
                with np.errstate(invalid="ignore"):
                    err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
                ok = np.isfinite(err) and np.all(np.isfinite(x4))
            if not ok:
                h *= 0.5
                continue
            if err <= 1.0:
                t += h
                x = x4
                if err == 0.0:
                    h *= 5.0
                else:
                    h *= min(5.0, max(0.2, 0.9 * err ** -0.2))
            else:
                h *= max(0.2, 0.9 * err ** -0.2)
        if not np.all(np.isfinite(x)):
            raise NonFiniteState(target)
        states[i + 1] = x
        derivs[i + 1] = field(x)
    return states, derivs
