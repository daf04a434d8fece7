"""Explicit Runge-Kutta integration with dense trajectory storage.

Two schemes are provided: classic fixed-step RK4 (the default for all
reproducible experiments) and the adaptive Fehlberg 4(5) embedded pair for
exploration of very stiff parameter regimes.  `integrate` makes one call
per run, to a generated run function ``(field, x, ts, cfg) -> (states,
derivs)`` that owns the loop over the sample times ts: it integrates from x
at ts[0] and packs each sample's state and derivative into two flat float64
arrays, allocated for every sample at the start, which `integrate` reshapes
without a copy.  The Fehlberg step size carries over from one sample
interval to the next.
Integration is deterministic: identical inputs produce bit-identical
trajectories.

A field gets the state as a list of Python floats and may return any
sequence of floats (a tuple, a list or an ndarray).  The runs work on
Python floats because numpy's per-operation overhead dominates arithmetic
on vectors of a few components.  For each pair of scheme and state length n
the run is generated as straight-line source: it keeps the state in locals
``a0 ... a{n-1}`` for the whole run.  The Fehlberg run is generated from
the tableau ``_FE_A``/``_FE_B4``/``_FE_ERR``, so the tableau stays the one
statement of the method.

`_stepper` writes the skeleton that both methods' runs share: the constant
binds and state unpack, the two buffers, the first sample and the loop over
ts[1:] that stores each sample.  A ``_<method>_steps`` writer supplies the
rest: the stored derivative's name (``k1_#`` or ``k0_#``), the setup lines,
one sample interval's lines and those that take the derivative at its end.

Where the state is tested for NaN/Inf: a Fehlberg run tests every stage
state, x4 and the error, since a failed test halves the step.  An rk4 run
tests its state once per sample interval, after the interval's last step.
That is exact, because a non-finite a# stays non-finite under the update
a# + sixth * (...).  A stage error (ValueError or OverflowError) in a step
that started finite is a NonFiniteState at the step's end time if the stage
state is non-finite, and the field's own error, which propagates, if not.
A failed interval test, or any error in a step that started non-finite,
replays that one interval from its stored first state in `_rk4_replay`
(generated on the first failure and cached).  The replay takes each step's
first stage itself; the interval's first is the stored derivative computed
again, so the replay repeats the run's steps bit for bit.  It tests the
state after every step and returns the index j of the step that left it
non-finite.  The run then raises NonFiniteState(t + (j + 1) * dt) itself:
the time, the exception and the traceback's one run frame and line are
those of a test after every step.  A called field is thus called on the
non-finite states of the interval's remaining steps, and again by the
replay: up to 4 * substeps calls more than a test after every step makes.

A field declared as text with `straight_line` is not called by the run;
its text is written into every stage.  The text is one function
``def name(st): <n names> = st; <assignments>; return (<n expressions>)``
that reads st nowhere else, assigns no argument and reads no local before
assigning it.  Every other name it reads is a constant passed when the
field is built: the text is compiled once into a maker whose parameters are
these names, and each field is the maker's closure over its constants.  The
sleigh's nh, friction and corrected fields and the pendulum's potential,
friction, inertial and nh fields are declared this way.  In a stage the
text's arguments become the stage locals ``s0 ...`` and every other name
gets the prefix ``f_``; an rk4 stage stores only the arguments that its
lines load.  The constants are read from the field's closure at the start
of each run, so one run function, cached on the text, serves every field
built from it (every eps).  The stages and the callable come from one
text, so they cannot disagree.

A run of a text evaluates the whole text once at each sample: that is the
stored derivative, and, the same expressions on the same floats, the first
stage of the step that starts there (first same as last, after Dormand &
Prince, J. Comput. Appl. Math. 6 (1980) 19-26).  rk4 takes it as the first
stage of each interval's first step; Fehlberg takes the first stage once
per accepted state, and every attempt from that state, rejected or not,
reuses it.  So a field error at an accepted state surfaces before the next
attempt's step-size check.  Every other field is called with each stage
state as a list and its result unpacked into locals: the generic `dynamics`
fields (the ``fast`` models among them), which return an ndarray, and user
fields, lambdas and wrappers, such as the tracing wrapper of perfbench's
``--trace 1``, whose per-layer times therefore describe the called path.  A
called field is evaluated once per sample and 4 times per rk4 step or 6
times per Fehlberg attempt, so such a wrapper counts the evaluations that a
whole-array loop makes.  Both paths give bitwise-equal results.

Which rows are integrated: every row, unless the caller names the rows
it reads (`integrate`'s ``read``) and the field is declared as text.  A
text's rates read the rows that their expressions read, directly or
through the statements they need.  An rk4 run then leaves
out each row that the caller does not read and that no rate reads: its
run function, keyed on the text and the kept rows, writes into each stage
only the kept rows' results, the statements these need and the constants
they read (so the sleigh's ``s, c = math.sin(phi), math.cos(phi)`` goes
with its x and y rates).  No second text is declared; one run function
serves every eps, and its file name names the kept rows.  It stores NaN in
each left-out place, so a left-out row's state column is NaN from the
first sample on.  Its derivative column is exact: at each sample the run
writes the whole text, whose rates read only kept rows.  The kept rows are
bitwise those of the whole run.  An rkf45 run, a called field,
``read=None`` and a run that keeps no row or every row integrate every
row: the Fehlberg error norm reads every row, and a called field may read
any.

A run function is compiled on first use and cached.  Its source, like each
field text's maker, is registered in `linecache` under a file name: a
run's is such as ``nonholib.ode rk4 n=6``, to which an inlined run adds
the field's name (``... sleigh_friction``) and a restricted one its kept
rows (``... sleigh_friction rows 2,3,4,5``), its replay ``replay``, and
a maker's is the field's name (``nonholib.ode sleigh_friction``).  One
name declares one text, so tracebacks and profiles tell the runs and fields
apart and show their lines, after `linecache.clearcache` too.
`inspect.getsource` does not: after a clearcache it finds no module for
such a file name and raises OSError until a traceback has read the lines
again.

The runs keep the operation order of whole-array code, so their results
are bitwise equal to it, up to the sign of an exact zero: each Fehlberg
sum runs left to right over its nonzero terms, where whole-array code
starts from 0 and adds the zero-coefficient terms too.  For finite k that
can change a sum only in the sign of an exact zero.  A non-finite k5, whose
coefficient in the propagated fourth-order sum is 0, still halves the step,
through the error norm, which reads it; a non-finite k1, 0 in both sums,
is caught at the second stage, whose state reads it.  The adaptive
scheme's error norm is the root of a left-to-right sum of the squared
scaled errors divided by the number of components n.  Below 8 components
that sum is bitwise numpy's mean (a plain loop there); from 8 on numpy adds
in pairwise blocks, which differs at rounding level and can change the
step-size sequence.  The error norm and the step control call no builtin:
their min, max and abs are conditional expressions with the same values
(with a# and b# finite only the sign of a zero can differ, and
atol + rtol * -0.0 is atol).

Trajectories store the state *and* the right-hand side at every sample so
that dense output is available through cubic Hermite interpolation, which is
exact at the sample points and reproduces cubic polynomials in between.

All functions here are pure; a `Trajectory` is immutable after construction,
so concurrent use from several threads is safe.  The caches of run
functions and field texts are the shared state: threads that miss one at
once may each compile the same run function or text, and every copy
computes the same values.
"""

from __future__ import annotations

import ast
import functools
import linecache
import math
import struct
import textwrap
import types
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


class RunTooLong(ValueError):
    """A run would store more than MAX_SAMPLES samples or take more than
    MAX_RK4_STEPS rk4 steps."""


#: Most steps a config lets one rk4 run take (substeps times sample
#: intervals).  The generated sleigh friction run takes about 3 us a
#: step on a 2-vCPU Xeon VM, so this is most of an hour of it, and 80 times
#: the 1.2e7 steps of a sleigh rung at eps = 1e-4 on [0, 61] at the default
#: step eps / 20.
MAX_RK4_STEPS = 1e9

#: Most samples a config lets one run store.  A sample holds a state and
#: its derivative, 16 n bytes for n components, so this is 96 MB at the
#: sleigh friction model's n = 6, and 164 times the 6,101 samples of a
#: sleigh rung on [0, 61] at sample_dt = 1e-2.
MAX_SAMPLES = 1e6

#: Absolute and relative error tolerance of the adaptive Fehlberg scheme.
RKF45_TOL = 1e-9


class OutOfRange(ValueError):
    """Interpolation time outside the stored trajectory span."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration settings, and the one statement of a run's sample grid.

    Parameters
    ----------
    t_span : (float, float)
        Start and end time, t1 > t0.  t1 - t0 must be a finite, whole number
        (at least 1, within 1e-9) of sample intervals, and float rounding
        must keep the sample times strictly increasing.
    dt : float
        Step size for the fixed-step scheme; initial step for the adaptive
        one.  The fixed-step scheme lands exactly on every sample time: it
        takes `substeps` equal steps on every sample interval, so the
        effective step is sample_dt / substeps.  sample_dt / dt must be
        finite.
    sample_dt : float
        Output sampling interval.  Samples are t0 + i * sample_dt, i < `intervals`, then t1.
    method : str
        "rk4" (fixed step) or "rkf45" (adaptive, to the tolerance RKF45_TOL).

    `intervals` (sample intervals to t1) and `substeps` (rk4 steps in each)
    are derived once, when the config is made; read-only, and not fields.
    A config of more than MAX_SAMPLES samples, or of more than MAX_RK4_STEPS
    steps by rk4, raises RunTooLong, a ValueError.
    """

    t_span: tuple[float, float]
    dt: float = 1e-3
    sample_dt: float = 1e-2
    method: str = "rk4"

    def __post_init__(self):
        t0, t1 = self.t_span
        if not t1 > t0:
            raise ValueError(f"t_span must satisfy t1 > t0, got {self.t_span}")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.sample_dt > 0:
            raise ValueError(f"sample_dt must be positive, got {self.sample_dt}")
        if not math.isfinite(self.sample_dt / self.dt):
            raise ValueError(f"dt {self.dt:g} is too small for sample_dt {self.sample_dt:g}")
        count = (t1 - t0) / self.sample_dt
        if not math.isfinite(count):
            raise ValueError(f"horizon {t1 - t0:g} is too long for sample_dt {self.sample_dt:g}")
        if not (round(count) >= 1 and abs(count - round(count)) <= 1e-9):
            raise ValueError(
                f"horizon t1 - t0 = {t1 - t0:g} must be a whole number "
                f"(at least 1) of sample intervals sample_dt = {self.sample_dt:g}"
            )
        if self.method not in ("rk4", "rkf45"):
            raise ValueError(f"unknown method {self.method!r}")
        intervals, substeps = round(count), max(1, round(self.sample_dt / self.dt))
        if not intervals + 1 <= MAX_SAMPLES:
            raise RunTooLong(
                f"sample_dt {self.sample_dt:g} takes {intervals + 1:.3g} samples over "
                f"{self.t_span}, more than {MAX_SAMPLES:.0e}"
            )
        # a float product, which a step count past the largest float makes inf
        steps = substeps * float(intervals)
        if self.method == "rk4" and not steps <= MAX_RK4_STEPS:
            raise RunTooLong(
                f"dt {self.dt:g} takes {steps:.3g} rk4 steps over {self.t_span}, "
                f"more than {MAX_RK4_STEPS:.0e}"
            )
        # set past the frozen guard, which keeps them read-only afterwards
        object.__setattr__(self, "intervals", intervals)
        object.__setattr__(self, "substeps", substeps)
        if not np.all(np.diff(self.sample_times()) > 0):
            raise ValueError(f"sample_dt {self.sample_dt:g} is too fine for floats in {self.t_span}")

    def sample_times(self) -> np.ndarray:
        """The run's sample times, t0 + i * sample_dt for i < intervals, then t1."""
        t0, t1 = self.t_span
        return np.append(t0 + self.sample_dt * np.arange(self.intervals), t1)


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
    stored derivatives stay consistent.  Output j is the sum of
    ``x[i] * matrix[j, i]`` over the nonzero entries of row j, added left
    to right in column order and started from the first product, not from
    0.0 (an all-zero row gives 0.0).  It calls no BLAS routine, so its bits
    do not depend on the linked BLAS library.  A NaN (a row left out by
    `integrate`) makes NaN only the outputs whose map row has a nonzero
    entry in its column.
    """
    m = np.asarray(matrix, dtype=float)
    return Trajectory(traj.times, _apply(traj.states, m), _apply(traj.derivs, m))


def _apply(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    nan = np.isnan(x)
    clean = np.where(nan, 0.0, x)
    out = np.zeros((len(x), len(m)))
    for j, row in enumerate(m):
        cols = np.flatnonzero(row).tolist()
        if cols:
            out[:, j] = clean[:, cols[0]] * row[cols[0]]
        for i in cols[1:]:
            out[:, j] += clean[:, i] * row[i]
    out[nan @ (m != 0).T] = np.nan  # a bool product: no BLAS call
    return out


def restrict_window(traj: Trajectory, t_lo: float, t_hi: float) -> Trajectory:
    """Keep only the samples with t_lo <= t <= t_hi."""
    keep = (traj.times >= t_lo - 1e-12) & (traj.times <= t_hi + 1e-12)
    if not np.any(keep):
        raise OutOfRange(f"no samples inside [{t_lo:.6g}, {t_hi:.6g}]")
    return Trajectory(traj.times[keep], traj.states[keep], traj.derivs[keep])


def integrate(field: Callable, x0, cfg: IntegratorConfig, read=None) -> Trajectory:
    """Integrate ``x' = field(x)`` over cfg.t_span, sampling every sample_dt.

    Parameters
    ----------
    field : callable
        Maps a state to its time derivative (autonomous): it receives a
        list of floats and returns a sequence of floats of the same length.
    x0 : array_like
        Initial state, finite.
    cfg : IntegratorConfig
    read : iterable of int, optional
        The rows whose states the caller reads; None reads every row.  A
        row that is not read and that no rate of a declared field reads is
        left out of an rk4 run (see the module docstring).

    Returns
    -------
    Trajectory
        Sampled at cfg.sample_times(), the last at t1, with stored derivatives.

    Raises
    ------
    NonFiniteState
        If any state component becomes NaN/Inf.  An rk4 run finds that at
        the end of the sample interval and replays the interval for the
        step (see the module docstring), so a called field may be called
        on NaN/Inf states: it must return or raise on them.
    StepUnderflow
        If the adaptive step falls below 1e-14 * (t1 - t0).

    A run too long to take is refused earlier, by IntegratorConfig.
    """
    x0 = np.array(x0, dtype=float)
    if x0.ndim != 1 or x0.size == 0:
        raise ValueError("x0 must be a non-empty flat vector")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    n = x0.size
    if read is not None and not set(read) <= set(range(n)):
        raise ValueError(f"read rows {sorted(read)} outside a state of {n}")
    text = _TEXTS.get(getattr(field, "__code__", None))
    # rkf45's error norm reads every row, and a called field may read any
    reads = None if read is None or text is None or cfg.method != "rk4" else _rows_read(text)
    keep = () if reads is None else tuple(sorted(reads.union(read)))
    # keeping no row or every row is a whole run, whose file names no rows
    keep = keep if len(keep) < n else ()
    run = _stepper(cfg.method, n, text, *keep)
    times = cfg.sample_times()
    buffers = run(field, x0.tolist(), times.tolist(), cfg)
    return Trajectory(times, *(b.reshape(-1, n) for b in buffers))


def straight_line(source: str, **consts) -> Callable:
    """The field that the straight-line text `source` declares (see the
    module docstring), with every name it reads other than its arguments and
    locals bound to the constant of that name.  Raises ValueError for any
    other text and for a second text of a declared name, and TypeError for a
    missing or an extra constant."""
    maker, _ = _declared(source)
    return maker(**consts)


# the code of each declared field -> its text, and its name -> its text
_TEXTS = {}
_NAMES = {}


@functools.cache
def _declared(source: str) -> tuple:
    """(maker, code) of a field text: maker(**consts) builds a field whose
    code is code."""
    name, _, _, _, free = _parse(source)
    if _NAMES.setdefault(name, source) != source:
        raise ValueError(f"another field text is already named {name!r}")
    text = textwrap.indent(textwrap.dedent(source).strip("\n"), "    ")
    lines = [f"def make_{name}({', '.join(sorted(free))}):", text, f"    return {name}"]
    maker = _compile("\n".join(lines) + "\n", f"nonholib.ode {name}", f"make_{name}")
    [code] = [c for c in maker.__code__.co_consts if isinstance(c, types.CodeType)]
    _TEXTS[code] = source
    return maker, code


def _parse(source: str) -> tuple:
    """(name, argument names, statements, results, free names) of a field
    text, from a fresh syntax tree; ValueError unless the text has the
    shape that straight_line asks for."""
    refused = ValueError(f"not a straight-line field text:\n{source}")
    body = ast.parse(textwrap.dedent(source)).body
    if not (
        len(body) == 1
        and isinstance(body[0], ast.FunctionDef)
        and len(body[0].args.args) == 1
        and not body[0].decorator_list
        and len(body[0].body) > 1
    ):
        raise refused
    fn = body[0]
    param, (first, *stmts, last) = fn.args.args[0].arg, fn.body
    if not (
        isinstance(first, ast.Assign)
        and [type(t) for t in first.targets] == [ast.Tuple]
        and isinstance(first.value, ast.Name)
        and first.value.id == param
        and all(isinstance(stmt, ast.Assign) for stmt in stmts)
        and isinstance(last, ast.Return)
        and isinstance(last.value, ast.Tuple)
    ):
        raise refused
    args = [t.id for t in first.targets[0].elts if isinstance(t, ast.Name)]
    local = _names(stmts, ast.Store)
    free = _names(stmts + [last], ast.Load) - local - set(args)
    if (
        not len(set(args)) == len(first.targets[0].elts) == len(last.value.elts)
        or param in free
        or local & {param, *args}
    ):
        raise refused
    assigned = set(args)
    for stmt in stmts + [last]:
        # inlined, a read before the assignment would see an earlier stage's value
        if _names([stmt], ast.Load) & (local - assigned):
            raise refused
        assigned |= _names([stmt], ast.Store)
    return fn.name, args, stmts, last.value.elts, free


def _names(nodes, ctx) -> set:
    """The names that the nodes load (ctx ast.Load) or store (ast.Store)."""
    return {
        m.id
        for node in nodes
        for m in ast.walk(node)
        if isinstance(m, ast.Name) and isinstance(m.ctx, ctx)
    }


@functools.cache
def _rows_read(text: str) -> frozenset:
    _, args, stmts, results, _ = _parse(text)
    loads = _names(_live(stmts, results) + results, ast.Load)
    return frozenset(i for i, arg in enumerate(args) if arg in loads)


def _live(stmts: list, results: list) -> list:
    """The statements that the results need, directly or through each
    other, in their order."""
    need, live = _names(results, ast.Load), []
    for stmt in reversed(stmts):
        stored = _names([stmt], ast.Store)
        if stored & need:
            live.insert(0, stmt)
            need = need - stored | _names([stmt], ast.Load)
    return live


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


@functools.cache
def _stepper(method: str, n: int, text=None, *keep) -> Callable:
    """The run function of `method` for states of n components, compiled on
    first use: ``(field, x, ts, cfg) -> (states, derivs)`` integrates from
    the state x at ts[0] and returns the state and derivative at every time
    of ts, row after row, in two flat float64 arrays.  Given a field text
    (`straight_line`) it writes the text into every stage; otherwise it
    calls the field.  Given the rows to keep (an rk4 run of a text), its
    stages integrate only those, and every other place of a state is NaN."""
    rows = keep or range(n)
    bind, finite, stage, whole = _field_snippets(n, rows, text)
    if method == "rk4":
        k, setup, interval, end = _rk4_steps(rows, finite, stage, whole, text is not None)
    else:
        k, setup, interval, end = _rkf45_steps(n, stage, text is not None)
    # one sample row of n float64s, packed at and read from a byte offset o
    sample = struct.Struct(f"{n}d")
    state = ", ".join(f"a{i}" if i in rows else "nan" for i in range(n))
    store = [f"pack(states, o, {state})", f"pack(derivs, o, {_row(k, range(n))})"]
    lines = [
        f"def {method}_n{n}(field, x, ts, cfg):",
        *bind,
        f"    {_unpack('a', rows, n)}, = x",
        *setup,
        f"    states, derivs = empty(len(ts) * {n}), empty(len(ts) * {n})",
        "    o = 0",
        *whole(k, "    "),
        *("    " + line for line in store),
        "    t = ts[0]",
        "    for target in ts[1:]:",
        *interval,
        *end,
        f"        o += {sample.size}",
        *("        " + line for line in store),
        "        t = target",
        "    return states, derivs",
    ]
    return _compile(
        "\n".join(lines) + "\n",
        _run_name(method, n, text, keep),
        f"{method}_n{n}",
        empty=np.empty,
        pack=sample.pack_into,
        unpack=sample.unpack_from,
        # generated on the first failed interval only
        replay=lambda *args: _rk4_replay(n, text, *keep)(*args),
        isfinite=math.isfinite,
        sqrt=math.sqrt,
        nan=math.nan,
        NonFiniteState=NonFiniteState,
        StepUnderflow=StepUnderflow,
    )


@functools.cache
def _rk4_replay(n: int, text=None, *keep) -> Callable:
    """The replay of a failed sample interval of the rk4 run of the same
    key, compiled on first use: ``(field, x, dt, cfg) -> j`` takes the
    interval's steps of size dt from its first sample x, tests the state
    after each step and returns the index j of the first step that leaves
    it non-finite.  A field that is a function of the state raises nothing
    here, since the run raised any error of a step that started finite;
    one that is not may find no such step, and then j is the interval's
    last step."""
    rows = keep or range(n)
    bind, _, stage, _ = _field_snippets(n, rows, text)
    lines = [
        f"def rk4_n{n}_replay(field, x, dt, cfg):",
        *bind,
        f"    {_unpack('a', rows, n)}, = x",
        "    half, sixth = 0.5 * dt, dt / 6.0",
        "    for j in range(cfg.substeps):",
        *_rk4_step(rows, stage, False, " " * 8),
        f"        if not ({_all_finite('a', rows)}):",
        "            return j",
        "    return cfg.substeps - 1",
    ]
    return _compile(
        "\n".join(lines) + "\n",
        _run_name("rk4", n, text, keep) + " replay",
        f"rk4_n{n}_replay",
        isfinite=math.isfinite,
    )


def _run_name(method: str, n: int, text, keep) -> str:
    """The file name of a run (see the module docstring)."""
    name = f"nonholib.ode {method} n={n}"
    if text is not None:
        name += " " + _declared(text)[1].co_name
    if keep:
        name += f" rows {','.join(map(str, keep))}"
    return name


def _unpack(v: str, rows, n: int) -> str:
    """The targets v# for rows, _ for every other of n places."""
    return ", ".join(f"{v}{i}" if i in rows else "_" for i in range(n))


def _compile(source: str, filename: str, name: str, **names) -> Callable:
    """The function `name` that source defines, compiled as the file
    filename with the given globals.  The source is put in linecache, so
    tracebacks and inspect.getsource show it, and the loader in its
    namespace lets tracebacks read it again after a clearcache()."""
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {
        # a name no module has, so inspect never reads another module's source
        "__name__": filename,
        "__loader__": types.SimpleNamespace(get_source=lambda _: source),
        **names,
    }
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


def _field_snippets(n: int, rows, text) -> tuple:
    """(lines binding the field's constants at the start of a run, a test
    that the stage state last taken is finite, stage(out, state, pad): the
    lines, indented by pad, that set out (# replaced by the row) for each #
    in rows to the field's value at the stage state whose component # is
    the expression state, and whole(out, pad): the same for every row at the
    state a#).  Without a text a stage calls the field with the state as the
    list xs; with one it writes only the results of rows, the statements
    they need and the constants these read, and holds in the locals s# only
    the state components that these load (a stage at a# or s# reads them,
    and the finite test reads only them)."""
    if text is None:

        def call(out, state, pad):
            return [f"{pad}xs = [{_row(state, rows)}]", f"{pad}{_row(out, rows)}, = field(xs)"]

        return [], "all(map(isfinite, xs))", call, lambda out, pad: call(out, "a#", pad)
    stage, loads, loaded = _text_stage(text, rows)
    # the whole text loads every name that a stage loads, and no state
    # component outside rows: integrate keeps every row that a rate reads
    whole, loads, _ = (stage, loads, loaded) if len(rows) == n else _text_stage(text, range(n))
    # read at every call, so one run function serves every field of the text
    bind = [
        f"    f_{const} = field.__closure__[{i}].cell_contents"
        for i, const in enumerate(_declared(text)[1].co_freevars)
        if const in loads
    ]
    # a stage that loads no state component can raise only the field's own errors
    finite = _all_finite("s", loaded) if loaded else "True"
    return bind, finite, stage, lambda out, pad: whole(out, "a#", pad)


def _text_stage(text: str, rows) -> tuple:
    """(stage, the names that it loads, the rows of the state that it loads)
    for the results of rows of a field text, stage as in _field_snippets."""
    _, args, stmts, results, _ = _parse(text)
    results = [results[i] for i in rows]
    stmts = _live(stmts, results)
    nodes = stmts + results
    loads = _names(nodes, ast.Load)
    loaded = [i for i in rows if args[i] in loads]
    names = [(m, m.id) for node in nodes for m in ast.walk(node) if isinstance(m, ast.Name)]

    def render(v):
        # the arguments become the stage state v#, every other name f_<name>
        rename = {arg: f"{v}{i}" for i, arg in enumerate(args)}
        for m, name in names:
            m.id = rename.get(name, "f_" + name)
        return [ast.unparse(stmt) for stmt in stmts], [ast.unparse(e) for e in results]

    rendered = {v: render(v) for v in "as"}

    def stage(out, state, pad):
        in_locals = state in ("a#", "s#")
        lines, values = rendered[state[0] if in_locals else "s"]
        return (
            ([] if in_locals else [_row(f"{pad}s# = {state}", [i]) for i in loaded])
            + [pad + line for line in lines]
            + [f"{pad}{_row(out, [i])} = {value}" for i, value in zip(rows, values)]
        )

    return stage, loads, loaded


def _row(template: str, rows, sep: str = ", ") -> str:
    """The template once per row, # replaced by its index, joined by sep."""
    return sep.join(template.replace("#", str(i)) for i in rows)


def _all_finite(v: str, rows) -> str:
    # A finite sum implies finite terms; a sum that overflows falls back to
    # the termwise check.
    terms = _row(f"isfinite({v}#)", rows, " and ")
    return terms if len(rows) == 1 else f"isfinite({_row(v + '#', rows, ' + ')}) or {terms}"


def _rk4_steps(rows, finite: str, stage, whole, fsal: bool) -> tuple:
    """rk4's parts of a run: cfg.substeps equal steps per sample interval on
    the rows of x.  The derivative at a sample is the whole field there, so
    with fsal (a text) it is also the first stage of the interval's first step.
    The state is tested once per interval, and a failed interval is
    replayed to find its step (see the module docstring)."""
    a_finite = _all_finite("a", rows)
    interval = [
        "        dt = (target - t) / nsub",
        "        half, sixth = 0.5 * dt, dt / 6.0",
        "        try:",
        "            for j in range(nsub):",
        *_rk4_step(rows, stage, fsal, " " * 16, finite),
        "        except Exception:",
        "            # a# is the state the failing step started from: if it is",
        "            # finite, the error is the one a per-step test would raise",
        f"            if {a_finite}:",
        "                raise",
        f"        if not ({a_finite}):",
        "            j = replay(field, unpack(states, o), dt, cfg)",
        "            raise NonFiniteState(t + (j + 1) * dt)",
    ]
    return "k1_#", ["    nsub = cfg.substeps"], interval, whole("k1_#", "        ")


def _rk4_step(rows, stage, fsal: bool, p: str, finite=None) -> list:
    """The lines, indented by p, of the rk4 step j from the state a#.
    Given `finite`, the test of a stage state, a stage error after the
    first stage is a blow-up when the stage state is not finite."""
    q = p + "    "
    # an error at the first stage of a step that starts finite is the
    # field's own, so it needs no stage handler
    first = [f"{p}if j:", *stage("k1_#", "a#", q)] if fsal else stage("k1_#", "a#", p)
    pad = p if finite is None else q
    later = [
        *stage("k2_#", "a# + half * k1_#", pad),
        *stage("k3_#", "a# + half * k2_#", pad),
        *stage("k4_#", "a# + dt * k3_#", pad),
    ]
    if finite is not None:
        later = [
            f"{p}try:",
            *later,
            f"{p}except (ValueError, OverflowError):",
            f"{q}# a math call on a non-finite stage state (math.cos(inf))",
            f"{q}# is a blow-up; any other error is the field's own",
            f"{q}if {finite}:",
            f"{q}    raise",
            f"{q}raise NonFiniteState(t + (j + 1) * dt) from None",
        ]
    return [*first, *later, _row(f"{p}a# = a# + sixth * (((k1_# + 2.0 * k2_#) + 2.0 * k3_#) + k4_#)", rows, "\n")]


def _rkf45_steps(n: int, stage, fsal: bool) -> tuple:
    """Fehlberg's parts of a run: accepted adaptive steps on every row of x;
    the step size carries over from one sample interval to the next.  An
    attempt whose stage state, x4 or error is non-finite halves the step.
    The first stage is the field at the accepted state: with fsal (a text) it
    is taken once per accepted state, reused by every attempt from it and
    stored as the sample's derivative; a called field is called afresh each time."""

    def combine(coeffs) -> str:
        # left to right, zero terms skipped (see the module docstring)
        return " + ".join(f"{c!r} * k{j}_#" for j, c in enumerate(coeffs) if c)

    def first(pad: str) -> list:
        return stage("k0_#", "a#", pad)

    rows, pad = range(n), " " * 12
    halve = ["                h *= 0.5", "                continue"]
    setup = [
        "    h = cfg.dt",
        "    h_min = 1e-14 * (cfg.t_span[1] - cfg.t_span[0])",
        f"    atol = rtol = {RKF45_TOL!r}",
    ]
    interval = [
        # max(1.0, abs(target)) and min(h, target - t), written out
        "        stop = target - 1e-14 * ("
        "target if target > 1.0 else -target if target < -1.0 else 1.0)",
        "        while t < stop:",
        "            rest = target - t",
        "            h = rest if rest < h else h",
        "            if h < h_min:",
        '                raise StepUnderflow(f"step size underflow at t={t:.6g}")',
        *([] if fsal else first(pad)),
    ]
    for s in range(1, 6):
        interval += [
            _row(f"            s# = a# + h * ({combine(_FE_A[s])})", rows, "\n"),
            f"            if not ({_all_finite('s', rows)}):",
            *halve,
            *stage(f"k{s}_#", "s#", pad),
        ]
    interval += [
        _row(f"            b# = a# + h * ({combine(_FE_B4)})", rows, "\n"),
        f"            if not ({_all_finite('b', rows)}):",
        *halve,
        # max(abs(a#), abs(b#)) written out: a and b are finite here, so only
        # the sign of a zero can differ, and atol + rtol * -0.0 is atol
        _row("            p# = a# if a# >= 0.0 else -a#", rows, "\n"),
        _row("            q# = b# if b# >= 0.0 else -b#", rows, "\n"),
        # RMS of the scaled error: a left-to-right sum divided by n (not the
        # builtin sum, which is compensated from Python 3.12 on); np.mean
        # bitwise below 8 components, see the module docstring
        _row(
            f"            r# = h * ({combine(_FE_ERR)}) / (atol + rtol * (q# if q# > p# else p#))",
            rows,
            "\n",
        ),
        f"            err = sqrt(({_row('r# * r#', rows, ' + ')}) / {n})",
        "            if not isfinite(err):",
        *halve,
        "            if err <= 1.0:",
        "                t += h",
        _row("                a# = b#", rows, "\n"),
        *(first(pad + "    ") if fsal else []),
        # min(5.0, max(0.2, grow)) and max(0.2, grow), written out; an
        # accepted err is at most 1, so its grow is at least 0.9
        "                if err == 0.0:",
        "                    h *= 5.0",
        "                else:",
        "                    grow = 0.9 * err ** -0.2",
        "                    h *= 5.0 if grow >= 5.0 else grow",
        "            else:",
        "                grow = 0.9 * err ** -0.2",
        "                h *= grow if grow > 0.2 else 0.2",
    ]
    return "k0_#", setup, interval, [] if fsal else first("        ")
