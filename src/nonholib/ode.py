"""Explicit Runge-Kutta integration with dense trajectory storage.

Two schemes are provided: classic fixed-step RK4 (the default for all
reproducible experiments) and the adaptive Fehlberg 4(5) embedded pair for
exploration of very stiff parameter regimes.  `integrate` owns the one
sample loop; a scheme is a stepper ``(field, x, t, target, h, cfg) -> (x, h)``
that advances one sample interval and hands on the step size to start the
next.  Integration is deterministic: identical inputs produce bit-identical
trajectories.

A field gets the state as a list of Python floats and may return any
sequence of floats (a tuple, a list or an ndarray).  The steppers work on
Python floats because numpy's per-operation overhead dominates arithmetic
on vectors of a few components.  For each pair of scheme and state length n
the stepper is generated as straight-line source: it keeps the state in
locals ``a0 ... a{n-1}`` for the whole sample interval and builds a list
only when it returns.  The Fehlberg stepper is generated from the tableau
``_FE_A``/``_FE_B4``/``_FE_ERR``, so the tableau stays the one statement of
the method.

A field that is a plain straight-line function is not called by the
stepper; its body is written into every stage.  Such a field has one
parameter, unpacks it into n names in its first statement, only assigns to
names after that, ends in ``return (<n expressions>)``, uses the parameter
nowhere else, reads no local before assigning it and holds no lambda,
comprehension, walrus or yield.  The sleigh's nh, friction and corrected
fields and the pendulum's friction and potential fields are of this kind.
Its source is read from `linecache`, checked with `ast` and compiled again:
a source whose bytecode, names or constants differ from the field's code
(a file edited since it was imported) is not inlined.  Its arguments
become the stage locals ``s0 ...`` and every other name gets the prefix
``f_``.  Its closure cells and globals (builtins as the fallback) are read
at the start of each stepper call, so one stepper, cached on the field's
code, serves every closure of it (every eps), and a patched global is
seen.  Every other field is called with each stage state
as a list and its result unpacked into locals: fields that return an
ndarray, the generic `dynamics` fields, lambdas and wrappers, such as the
tracing wrapper of perfbench's ``--trace 1``, whose per-layer times
therefore describe the called path (its evaluation counts stay exact).
Both paths give bitwise-equal results.

A stepper is compiled on first use and cached.  Its source is registered in
`linecache` under a file name such as ``nonholib.ode rk4 n=6``, to which an
inlined stepper adds the field's name, file and first line (``... rhs
systems.py:201``), so tracebacks and profiles tell the steppers apart and
show their lines, after `linecache.clearcache` too.

The steppers keep the operation order of whole-array code, so their results
are bitwise equal to it: each Fehlberg sum runs left to right from int 0 and
keeps its zero-coefficient terms.  The adaptive scheme's error norm is the
root of a left-to-right sum of the squared scaled errors divided by the
number of components n.  Below 8 components that sum is bitwise numpy's mean
(a plain loop there); from 8 on numpy adds in pairwise blocks, which differs
at rounding level and can change the step-size sequence.

Trajectories store the state *and* the right-hand side at every sample so
that dense output is available through cubic Hermite interpolation, which is
exact at the sample points and reproduces cubic polynomials in between.

All functions here are pure; a `Trajectory` is immutable after construction,
so concurrent use from several threads is safe.  The stepper cache is the
one piece of shared state: threads that miss it at once may each compile
the same stepper, and every copy computes the same values.  They read a
field's source from `linecache` one at a time.
"""

from __future__ import annotations

import ast
import functools
import inspect
import linecache
import math
import os
import textwrap
import threading
import tokenize
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
    if x0.ndim != 1 or x0.size == 0:
        raise ValueError("x0 must be a non-empty flat vector")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    times = _sample_times(*cfg.t_span, cfg.sample_dt)
    code = field.__code__ if isinstance(field, types.FunctionType) else None
    step = _stepper(cfg.method, x0.size, code)
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
def _stepper(method: str, n: int, code=None) -> Callable:
    """The stepper of `method` for states of n components, compiled on first
    use.  Given the code of a straight-line field (`_straight_line`) it
    writes the field's body into every stage; otherwise it calls the field.
    Its source is put in linecache under its file name, and the loader in its
    namespace lets linecache read it again after a clearcache(), so
    tracebacks and inspect.getsource show it."""
    body = None if code is None else _straight_line(code, n)
    if code is not None and body is None:
        return _stepper(method, n)
    filename = f"nonholib.ode {method} n={n}"
    if body is not None:
        filename += f" {code.co_name} {os.path.basename(code.co_filename)}:{code.co_firstlineno}"
    snippets = _field_snippets(n, code, body)
    lines = (_rk4_lines if method == "rk4" else _rkf45_lines)(n, *snippets)
    source = "\n".join(lines) + "\n"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {
        # a name no module has, so inspect never reads another module's source
        "__name__": filename,
        "__loader__": types.SimpleNamespace(get_source=lambda name: source),
        "isfinite": math.isfinite,
        "sqrt": math.sqrt,
        "NonFiniteState": NonFiniteState,
        "StepUnderflow": StepUnderflow,
    }
    exec(compile(source, filename, "exec"), namespace)
    return namespace[f"{method}_n{n}"]


# linecache.getlines checks for a file and then updates it, so threads that
# read one file at once can drop each other's entry (a KeyError)
_LINECACHE_LOCK = threading.Lock()

# nodes that would give an inlined statement a scope or a value of its own
_NOT_STRAIGHT = (
    ast.Lambda, ast.comprehension, ast.NamedExpr, ast.Yield, ast.YieldFrom, ast.Await
)


def _names(nodes, ctx) -> set:
    """The names that the nodes load (ctx ast.Load) or store (ast.Store)."""
    return {
        m.id
        for node in nodes
        for m in ast.walk(node)
        if isinstance(m, ast.Name) and isinstance(m.ctx, ctx)
    }


def _straight_line(code, n: int):
    """(argument names, statements, results) of a field written as
    ``def f(st): <n names> = st; <assignments to names>; return (<n
    expressions>)`` that uses st nowhere else, reads no local before
    assigning it and holds no lambda, comprehension, walrus or yield; None
    for any other field.  The body is read from the field's source and
    checked against its code."""
    # the block at the code's first line, without inspect.getsource's search
    # of every module for the file
    with _LINECACHE_LOCK:
        lines = linecache.getlines(code.co_filename)[code.co_firstlineno - 1 :]
    try:
        fn = ast.parse(textwrap.dedent("".join(inspect.getblock(lines)))).body[0]
    except (SyntaxError, IndexError, tokenize.TokenError):
        return None
    if not (
        isinstance(fn, ast.FunctionDef)
        and fn.name == code.co_name
        and len(fn.args.args) == 1
        and len(fn.body) > 1
    ):
        return None
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
        return None
    args = [t.id for t in first.targets[0].elts if isinstance(t, ast.Name)]
    if not len(set(args)) == len(first.targets[0].elts) == len(last.value.elts) == n:
        return None
    local = {param, *args, *_names(stmts, ast.Store)}
    assigned = set(args)
    for stmt in stmts + [last]:
        targets = [] if stmt is last else stmt.targets
        stored = _names(targets, ast.Store)
        if (
            # each target a name or a tuple of names, and neither st nor an argument
            any(
                not isinstance(m, (ast.Name, ast.Tuple, ast.Store))
                for target in targets
                for m in ast.walk(target)
            )
            or stored & {param, *args}
            or any(isinstance(m, _NOT_STRAIGHT) for m in ast.walk(stmt.value))
            or _names([stmt.value], ast.Load) & (local - assigned)
        ):
            return None
        assigned |= stored
    # no local but these (no second parameter), and the source is this code's
    if set(code.co_varnames) != local or not _compiles_to(fn, code):
        return None
    return args, stmts, last.value.elts


def _compiles_to(fn: ast.FunctionDef, code) -> bool:
    """Whether fn compiles to code's bytecode, names and constants, so that a
    source edited since the code was compiled is not taken for it.  fn is
    compiled in a function that binds code's free names, as a closure of it
    is, and then once more with the globals whose attributes it reads
    imported, since a method call on a name imported at a module's top
    compiles to other bytecode."""
    bases = {
        node.value.id
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    } - {*code.co_freevars, *code.co_varnames}
    closure = "def _():\n    " + "".join(f"{name} = " for name in code.co_freevars) + "None"
    for imports in ("", "".join(f"import {name}\n" for name in sorted(bases))):
        module = ast.parse(imports + closure)
        module.body[-1].body.append(fn)
        compiled = compile(module, code.co_filename, "exec", dont_inherit=True)
        for name in ("_", fn.name):  # the module's code holds the closure's, which holds fn's
            [compiled] = [c for c in compiled.co_consts if getattr(c, "co_name", None) == name]
        if _fingerprint(compiled) == _fingerprint(code):
            return True
    return False


def _fingerprint(code) -> tuple:
    # constants told apart by type and repr: 0 == 0.0 == -0.0
    consts = tuple((type(c), repr(c)) for c in code.co_consts)
    return code.co_code, code.co_names, code.co_varnames, code.co_freevars, consts


def _field_snippets(n: int, code, body) -> tuple:
    """(lines binding the field's free names at the start of a stepper call,
    a test that the stage state last taken is finite, stage(k, state, pad):
    the lines, indented by pad, that set k{k}_# to the field's value at the
    stage state whose component # is the expression state).  Without a body
    the stage calls the field with the state as the list xs; with one it
    holds the state in the locals s# (a stage at a# or s# reads them)."""
    if body is None:

        def call(k, state, pad):
            return [f"{pad}xs = [{_row(state, n)}]", f"{pad}{_row(f'k{k}_#', n)}, = field(xs)"]

        return [], "all(map(isfinite, xs))", call
    args, stmts, results = body
    nodes = stmts + results
    # read at every call, so one stepper serves every closure of the code
    # and a patched global is seen
    bind = ["    glob, builtin = field.__globals__, field.__builtins__"]
    for name in sorted(_names(nodes, ast.Load) - set(code.co_varnames)):
        if name in code.co_freevars:
            cell = code.co_freevars.index(name)
            bind.append(f"    f_{name} = field.__closure__[{cell}].cell_contents")
        else:
            get = f"glob[{name!r}] if {name!r} in glob else builtin[{name!r}]"
            bind.append(f"    f_{name} = {get}")
    names = [(m, m.id) for node in nodes for m in ast.walk(node) if isinstance(m, ast.Name)]

    def render(v):
        # the arguments become the stage state v#, every other name f_<name>
        rename = {arg: f"{v}{i}" for i, arg in enumerate(args)}
        for m, name in names:
            m.id = rename.get(name, "f_" + name)
        return [ast.unparse(stmt) for stmt in stmts], [ast.unparse(e) for e in results]

    rendered = {v: render(v) for v in "as"}

    def stage(k, state, pad):
        in_locals = state in ("a#", "s#")
        lines, values = rendered[state[0] if in_locals else "s"]
        return (
            ([] if in_locals else [_row(f"{pad}s# = {state}", n, "\n")])
            + [pad + line for line in lines]
            + [f"{pad}k{k}_{i} = {value}" for i, value in enumerate(values)]
        )

    return bind, _all_finite("s", n), stage


def _row(template: str, n: int, sep: str = ", ") -> str:
    """The template once per component, # replaced by its index, joined by sep."""
    return sep.join(template.replace("#", str(i)) for i in range(n))


def _all_finite(v: str, n: int) -> str:
    # A finite sum implies finite terms; a sum that overflows falls back to
    # the termwise check.
    terms = _row(f"isfinite({v}#)", n, " and ")
    return terms if n == 1 else f"isfinite({_row(v + '#', n, ' + ')}) or {terms}"


def _rk4_lines(n: int, bind: list, finite: str, stage: Callable) -> list:
    """Advance x from t to target in equal steps of about h; h is kept."""
    pad = " " * 12
    return [
        f"def rk4_n{n}(field, x, t, target, h, cfg):",
        *bind,
        f"    {_row('a#', n)}, = x",
        "    nsub = max(1, int(round((target - t) / h)))",
        "    dt = (target - t) / nsub",
        "    half, sixth = 0.5 * dt, dt / 6.0",
        "    for j in range(nsub):",
        # a# is finite here (x is, and so is every step), so an error at the
        # first stage is the field's own and needs no handler
        *stage(1, "a#", pad[4:]),
        "        try:",
        *stage(2, "a# + half * k1_#", pad),
        *stage(3, "a# + half * k2_#", pad),
        *stage(4, "a# + dt * k3_#", pad),
        "        except (ValueError, OverflowError):",
        "            # a math call on a non-finite stage state (math.cos(inf))",
        "            # is a blow-up; any other error is the field's own",
        f"            if {finite}:",
        "                raise",
        "            raise NonFiniteState(t + (j + 1) * dt) from None",
        _row("        a# = a# + sixth * (((k1_# + 2.0 * k2_#) + 2.0 * k3_#) + k4_#)", n, "\n"),
        f"        if not ({_all_finite('a', n)}):",
        "            raise NonFiniteState(t + (j + 1) * dt)",
        f"    return [{_row('a#', n)}], h",
    ]


def _rkf45_lines(n: int, bind: list, finite: str, stage: Callable) -> list:
    """Advance x from t to target in accepted adaptive steps; the stepper
    returns the step size to try first on the next interval.  An attempt
    whose stage state, x4 or error is non-finite halves the step."""

    def combine(coeffs) -> str:
        # left to right from int 0, zero terms kept: whole-array code's order
        return "0" + "".join(f" + {c!r} * k{j}_#" for j, c in enumerate(coeffs))

    pad = " " * 8
    halve = ["            h *= 0.5", "            continue"]
    lines = [
        f"def rkf45_n{n}(field, x, t, target, h, cfg):",
        *bind,
        f"    {_row('a#', n)}, = x",
        "    h_min = 1e-14 * (cfg.t_span[1] - cfg.t_span[0])",
        "    atol, rtol = cfg.abs_tol, cfg.rel_tol",
        "    stop = target - 1e-14 * max(1.0, abs(target))",
        "    while t < stop:",
        "        h = min(h, target - t)",
        "        if h < h_min:",
        '            raise StepUnderflow(f"step size underflow at t={t:.6g}")',
        *stage(0, "a#", pad),
    ]
    for s in range(1, 6):
        lines += [
            _row(f"        s# = a# + h * ({combine(_FE_A[s])})", n, "\n"),
            f"        if not ({_all_finite('s', n)}):",
            *halve,
            *stage(s, "s#", pad),
        ]
    lines += [
        _row(f"        b# = a# + h * ({combine(_FE_B4)})", n, "\n"),
        f"        if not ({_all_finite('b', n)}):",
        *halve,
        # RMS of the scaled error: a left-to-right sum divided by n (not the
        # builtin sum, which is compensated from Python 3.12 on); np.mean
        # bitwise below 8 components, see the module docstring
        _row(
            f"        r# = h * ({combine(_FE_ERR)}) / (atol + rtol * max(abs(a#), abs(b#)))",
            n,
            "\n",
        ),
        f"        err = sqrt((0.0 + {_row('r# * r#', n, ' + ')}) / {n})",
        "        if not isfinite(err):",
        *halve,
        "        if err <= 1.0:",
        "            t += h",
        _row("            a# = b#", n, "\n"),
        "            if err == 0.0:",
        "                h *= 5.0",
        "            else:",
        "                h *= min(5.0, max(0.2, 0.9 * err ** -0.2))",
        "        else:",
        "            h *= max(0.2, 0.9 * err ** -0.2)",
        f"    return [{_row('a#', n)}], h",
    ]
    return lines
