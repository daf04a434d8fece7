"""One nonholib CLI invocation in a fresh interpreter, optionally traced.

    python3 perfbench/child.py RESULT_JSON [--trace | --setup-only] -- CLI_ARGV...

The parent (run.py) starts this script once per repetition with
``src`` on PYTHONPATH and NONHOLIB_OUT_DIR pointing at a scratch directory,
so the CLI writes its reports exactly where a user's run would put them.

RESULT_JSON receives:

* ``ready_cpu_s``: ``time.process_time()`` right after ``nonholib.cli`` is
  imported (the import builds the system REGISTRY): the CPU time of a fresh
  interpreter's set-up, counted from the start of the process.
* ``wall_s`` / ``cpu_s``: perf_counter and process_time spans of ``cli.main``.
* ``exit``: the return code of ``cli.main``; ``maxrss_kb``: ru_maxrss.
* ``setup_host`` / ``run_host``: the host-speed samples taken during the
  import and during ``cli.main`` (see HostSpeed); not taken with ``--trace``.
* with ``--trace``: ``spans``, one ``[name, start, end, parent, rhs_calls,
  rhs_s, child_s]`` record per layer-boundary call.

Tracing changes no file under ``src/``.  It rebinds the public names a calling
module looks up at call time (``nonholib.cli.integrate``,
``nonholib.analysis.manifold_fit``, ``nonholib.dynamics.connection_coefficients``
and so on) and wraps each field callable handed to ``integrate`` or
``pseudo_solution_defect``.  Field calls are far too many for one span each, so
they are counted and timed into the span that received the field.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import signal
import sys
import time

import numpy as np

NAME, START, END, PARENT, RHS_CALLS, RHS_S, CHILD_S = range(7)

# (module, attribute, span name, index of a field-callable argument or None)
TRACED_CALLS = (
    ("cli", "integrate", "ode.integrate", 0),
    ("cli", "transform_linear", "ode.transform_linear", None),
    ("cli", "restrict_window", "ode.restrict_window", None),
    ("analysis", "sup_distance", "analysis.sup_distance", None),
    ("analysis", "pseudo_solution_defect", "analysis.pseudo_solution_defect", 1),
    ("analysis", "manifold_fit", "analysis.manifold_fit", None),
    ("dynamics", "connection_coefficients", "geometry.connection_coefficients", None),
    ("dynamics", "frame_metric", "geometry.frame_metric", None),
    ("dynamics", "christoffel", "geometry.christoffel", None),
)


# Host-speed sampling.  The machine is a VM on a shared host, and how fast it
# runs the same code, while it runs at all, drifts by a third and more over
# minutes with the other tenants' load.  (The time the host does not run the
# VM at all is steal time; process CPU time leaves it out.)  A timer
# interrupts the program every SETUP_PERIOD_S during the import and every
# RUN_PERIOD_S during cli.main, and times one fixed reference unit of work in
# the program's mix (small-array numpy arithmetic, float loops, object
# creation), which involves nothing of nonholib.  REF_UNIT_S is the unit's
# time on an idle host (a 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4), so
# REF_UNIT_S / (a sample) is the host's momentary speed, about 1 when idle.
# The handler runs between bytecodes of the main thread, like any Python
# signal handler, so it leaves the program's arithmetic untouched.  numpy is
# imported before sampling starts; its import still counts in the set-up CPU
# time, rescaled by the speed sampled over the rest of the import.
SETUP_PERIOD_S = 0.002
RUN_PERIOD_S = 0.02
REF_UNIT_S = 2.2e-4


def _ref_field(x):
    u, v, w = x[0], x[1], x[2]
    return np.array((v * w + 0.2 * w * w, -u * w - 3.0 * v, 0.5 * v))


class _RefPoint:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def reference_unit() -> float:
    x, h = np.array((1.0, 0.1, 0.5)), 1e-3
    for _ in range(12):
        k1 = _ref_field(x)
        k2 = _ref_field(x + 0.5 * h * k1)
        k3 = _ref_field(x + 0.5 * h * k2)
        k4 = _ref_field(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    s = float(x[0])
    for i in range(1000):
        s += i * 0.5
    for i in range(150):
        p = _RefPoint(float(i), i * 0.5)
        s += p.a * p.b + len(str(i))
    return s


class HostSpeed:
    """SIGALRM-driven samples of the reference unit's duration."""

    def __init__(self):
        self.samples = []
        self.spent_cpu_s = 0.0

    def _tick(self, signum, frame):
        w0, c0 = time.perf_counter(), time.process_time()
        reference_unit()
        self.samples.append(time.perf_counter() - w0)
        self.spent_cpu_s += time.process_time() - c0

    def start(self, period_s: float) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, period_s, period_s)
        return self

    def stop(self) -> dict:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return {"samples": self.samples, "spent_cpu_s": self.spent_cpu_s}


class Tracer:
    """In-memory spans with a parent stack; written out when the run ends."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, 0, 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()
        if rec[PARENT] >= 0:
            self.spans[rec[PARENT]][CHILD_S] += rec[END] - rec[START]

    def wrap(self, name: str, fn, field_arg=None):
        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                if field_arg is not None:
                    args = list(args)
                    args[field_arg] = _counted_field(args[field_arg], rec)
                return fn(*args, **kwargs)
            finally:
                self.close(rec)

        return traced

    def install(self, nonholib) -> None:
        for module, attr, name, field_arg in TRACED_CALLS:
            mod = getattr(nonholib, module)
            setattr(mod, attr, self.wrap(name, getattr(mod, attr), field_arg))
        compute_h1 = nonholib.dynamics.compute_h1
        wrap = self.wrap

        def traced_compute_h1(*args, **kwargs):
            expansion = compute_h1(*args, **kwargs)
            return dataclasses.replace(expansion, h1=wrap("dynamics.h1", expansion.h1))

        nonholib.dynamics.compute_h1 = self.wrap("dynamics.compute_h1", traced_compute_h1)


def _counted_field(field, rec: list):
    pc = time.perf_counter

    def traced_field(x):
        t = pc()
        out = field(x)
        rec[RHS_S] += pc() - t
        rec[RHS_CALLS] += 1
        return out

    return traced_field


def main(argv) -> int:
    split = argv.index("--")
    result_path, flags, cli_argv = argv[0], argv[1:split], argv[split + 1 :]

    traced = "--trace" in flags
    host = None if traced else HostSpeed().start(SETUP_PERIOD_S)
    import nonholib.cli as cli

    result = {}
    if host is not None:
        result["setup_host"] = host.stop()
    result["ready_cpu_s"] = time.process_time()
    if "--setup-only" not in flags:
        tracer = None
        if traced:
            import nonholib

            tracer = Tracer()
            tracer.install(nonholib)
        w0, c0 = time.perf_counter(), time.process_time()
        if tracer is None:
            host = HostSpeed().start(RUN_PERIOD_S)
            try:
                code = cli.main(cli_argv)
            finally:
                result["run_host"] = host.stop()
        else:
            root = tracer.open("cli.main")
            try:
                code = cli.main(cli_argv)
            finally:
                tracer.close(root)
        result["wall_s"] = time.perf_counter() - w0
        result["cpu_s"] = time.process_time() - c0
        result["exit"] = code
        if tracer is not None:
            result["spans"] = tracer.spans
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["numpy"] = sys.modules["numpy"].__version__
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
