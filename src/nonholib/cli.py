"""Experiment command-line driver.

Subcommands
-----------
simulate      integrate one model and write trajectory CSV files
compare       run an eps ladder of friction trajectories against the
              constrained and first-order-corrected models, write a JSON
              convergence report
manifold      extract slow-manifold samples from friction trajectories,
              write a JSON residual report plus scatter CSVs
list-systems  show the registry

Configuration is a flat key=value file with dotted namespaces (the keys
of SETTINGS, plus params.<name> per system parameter); every CLI flag takes
its file key's value syntax and overrides it.
Outputs are deterministic: repeated runs of the same configuration produce
byte-identical files.  The default output directory is $NONHOLIB_OUT_DIR
(falling back to the working directory).

Exit codes: 0 ok, 2 configuration error (including an rk4 step past the
stability bound, a system parameter out of range or overflowing, and a run
that ode.IntegratorConfig refuses: a dt too small for sample_dt, a horizon
that is not a whole number of sample intervals or holds a count of them
that is not finite, a sample grid too fine for float times to increase
along it, or more than ode.MAX_SAMPLES samples or
ode.MAX_RK4_STEPS rk4 steps, and two eps values whose files would share
one tag; each refused before a command's first run), 3 numerical blow-up
or singular state, 4 analysis precondition failure (including a left-out
row that a report reads, a compare window that starts at or past --t1 and
a manifold cutoff past --t1, the latter two refused before the first run).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import analysis
from .geometry import SingularFrame, SingularMetric
from .ode import (
    IntegratorConfig,
    NonFiniteState,
    StepUnderflow,
    Trajectory,
    integrate,
    restrict_window,
    transform_linear,
)
from .systems import (
    REGISTRY,
    InvalidParameter,
    ModelSpec,
    OriginSingularity,
    get_system,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_ANALYSIS = 4

#: Step-size cap for friction models: explicit stability needs the step to
#: resolve the fast relaxation rate, so dt = min(1e-3, eps/20).
STIFF_DT_CAP = 1e-3
STIFF_DT_FRACTION = 20.0

#: Stability intervals of classic RK4 on the negative real axis and on the
#: imaginary axis (2 sqrt(2)): a step h with h * fast_rate beyond the bound
#: of its mode amplifies the fast relaxation or oscillation.
RK4_STABILITY_BOUND = 2.785
RK4_OSCILLATION_BOUND = 2.83


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Resolved experiment settings (file keys with flag overrides applied)."""

    system: str = "sleigh"
    model: str = "nh"
    params: dict = field(default_factory=dict)
    eps: tuple = ()
    initial_state: Optional[tuple] = None
    t0: float = 0.0
    t1: float = 10.0
    dt: Optional[float] = None
    sample_dt: float = 1e-2
    method: str = "rk4"
    out: Optional[str] = None
    fmt: str = "csv"
    window_start: float = analysis.DEFAULT_T1
    transient_cutoff: float = analysis.DEFAULT_T1

    def echo(self) -> dict:
        """The settings a report depends on (JSON writes tuples as lists)."""
        return {k: v for k, v in asdict(self).items() if k not in ("out", "fmt")}


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------


def _parse_finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _parse_float_list(text: str) -> tuple:
    return tuple(_parse_finite(tok) for tok in text.split(",") if tok.strip())


def _parse_format(text: str) -> str:
    if text not in TRAJECTORY_WRITERS:
        raise ValueError(f"expected {' or '.join(TRAJECTORY_WRITERS)}, got {text!r}")
    return text


#: Every setting once: config key, ExperimentConfig attribute, value parser
#: and flag help.  The flag is "--" plus the key's last dotted part with "-"
#: for "_"; it takes the key's value syntax and overrides the key.  Models
#: and methods are checked where they are resolved.
SETTINGS = (
    ("system", "system", str, "registered system name"),
    ("model", "model", str, "nh, friction, corrected or fast"),
    ("eps", "eps", _parse_float_list, "friction scale; a list or repeats for a ladder"),
    ("state", "initial_state", _parse_float_list, "comma-separated initial state"),
    ("out", "out", str, "output path (default under $NONHOLIB_OUT_DIR)"),
    ("format", "fmt", _parse_format, "csv or json"),
    ("integrator.t0", "t0", _parse_finite, "start time"),
    ("integrator.t1", "t1", _parse_finite, "end time"),
    ("integrator.dt", "dt", _parse_finite, "fixed step (default: min(1e-3, eps/20))"),
    ("integrator.sample_dt", "sample_dt", _parse_finite, "output sampling interval"),
    ("integrator.method", "method", str, "rk4 or rkf45"),
    ("compare.window_start", "window_start", _parse_finite, "compare window start"),
    ("manifold.transient_cutoff", "transient_cutoff", _parse_finite, "end of the transient"),
)


def _flag(key: str) -> str:
    return "--" + key.rsplit(".", 1)[-1].replace("_", "-")


def read_config_file(path: str) -> dict:
    """Flat key=value lines; '#' starts a comment; later keys win."""
    keys = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected KEY=VALUE, got {raw!r}")
        key, value = line.split("=", 1)
        keys[key.strip()] = value.strip()
    return keys


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """File keys first, then the flags that override them."""
    cfg = ExperimentConfig()
    file_keys = read_config_file(args.config) if getattr(args, "config", None) else {}
    for key, attr, parse, _ in SETTINGS:
        flag_value = getattr(args, attr, None)  # the flag's raw string(s)
        if isinstance(flag_value, list):  # a repeated flag lists its values
            flag_value = ",".join(flag_value)
        for name, raw in ((key, file_keys.pop(key, None)), (_flag(key), flag_value)):
            if raw is not None:
                try:
                    setattr(cfg, attr, parse(raw))
                except ValueError as exc:
                    raise ConfigError(f"bad value for {name}: {exc}") from None
    for kv in getattr(args, "param", None) or ():  # --param KEY=VAL is params.KEY
        if "=" not in kv:
            raise ConfigError(f"--param expects KEY=VALUE, got {kv!r}")
        key, value = kv.split("=", 1)
        file_keys[f"params.{key.strip()}"] = value
    for key in list(file_keys):
        if key.startswith("params."):
            try:
                cfg.params[key.split(".", 1)[1]] = float(file_keys.pop(key))
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {exc}") from None
    if file_keys:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(file_keys))}")
    return cfg


def _resolve_model(cfg: ExperimentConfig):
    try:
        entry = get_system(cfg.system)
    except KeyError as exc:
        raise ConfigError(exc.args[0])
    unknown = set(cfg.params) - set(entry.param_defaults)
    if unknown:
        raise ConfigError(
            f"unknown parameters for {cfg.system!r}: {', '.join(sorted(unknown))}"
        )
    spec = entry.models.get(cfg.model)
    if spec is None:
        raise ConfigError(
            f"model {cfg.model!r} not supported by {cfg.system!r}; "
            f"available: {', '.join(sorted(entry.models))}"
        )
    if spec.needs_eps and not cfg.eps:
        raise ConfigError(f"model {cfg.model!r} requires --eps > 0")
    for e in cfg.eps:
        if not e > 0:
            raise ConfigError(f"eps values must be positive, got {e}")
    return entry, spec


def _initial_state(cfg: ExperimentConfig, spec: ModelSpec) -> np.ndarray:
    if cfg.initial_state is None:
        return np.array(spec.default_state)
    state = np.asarray(cfg.initial_state, dtype=float)
    if state.shape != (len(spec.columns),):
        raise ConfigError(
            f"state must have {len(spec.columns)} components "
            f"({','.join(spec.columns)}), got {state.size}"
        )
    return state


def _fast_rate(cfg: ExperimentConfig, entry) -> Optional[tuple]:
    """For a stiff friction run, (rate, rk4's stability bound for its mode),
    rate(eps) being the fast rate at eps: a Rayleigh realization's declared
    relaxation rate over eps, or a declared oscillation rate.  None for
    other runs.  A relaxation rate is evaluated only where a check reads it
    (rk4's step check, manifold's transient cutoff), so that its metric
    check refuses no other run, as the generic route's did."""
    if cfg.model != "friction":
        return None
    if entry.oscillation_rate is not None:
        return entry.oscillation_rate, RK4_OSCILLATION_BOUND
    if entry.relaxation_rate is None:
        return None
    return (lambda eps: entry.relaxation_rate(cfg.params) / eps, RK4_STABILITY_BOUND)


def _integrator_config(cfg: ExperimentConfig, eps=None, fast=None) -> IntegratorConfig:
    """One run's settings; fast is :func:`_fast_rate`, None if nonstiff.  Decides only what
    needs the system, the default step and its stability; IntegratorConfig the grid and size."""
    dt = cfg.dt
    if dt is None:
        dt = min(STIFF_DT_CAP, eps / STIFF_DT_FRACTION) if fast else STIFF_DT_CAP
    try:
        icfg = IntegratorConfig(
            t_span=(cfg.t0, cfg.t1),
            dt=dt,
            sample_dt=cfg.sample_dt,
            method=cfg.method,
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    if fast and cfg.method == "rk4":
        rate, bound = fast
        # the step every interval takes: rk4 lands exactly on every sample time
        h = cfg.sample_dt / icfg.substeps
        ratio = h * rate(eps)
        if ratio > bound:
            raise ConfigError(
                f"rk4 step {h:g} times fast rate at eps={eps:g} is {ratio:.4g}, "
                f"past the stability bound {bound}; lower --dt"
            )
    return icfg


def _out_dir() -> Path:
    return Path(os.environ.get("NONHOLIB_OUT_DIR", "."))


def _out_path(cfg: ExperimentConfig, suffix: str, tag: str = "") -> Path:
    if cfg.out is not None:
        path = Path(cfg.out)
        if tag:  # the command names tagged files, so their suffix is their format
            path = path.with_name(f"{path.stem}{tag}{suffix}")
        elif not path.suffix:
            path = path.with_suffix(suffix)
        return path
    name = f"{cfg.system}_{cfg.model}{tag}{suffix}"
    return _out_dir() / name


# ---------------------------------------------------------------------------
# writers (17 significant digits, comma separated, LF endings)
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        f.writelines(",".join(_fmt(v) for v in row) + "\n" for row in rows)


def write_trajectory_csv(path: Path, traj: Trajectory, columns) -> None:
    _write_csv(path, ("t", *columns), np.column_stack((traj.times, traj.states)))


def write_trajectory_json(path: Path, traj: Trajectory, columns) -> None:
    """The bytes of _write_json's doc {"columns": ["t", *columns], "rows":
    [[t, *state], ...]}, written a row at a time so that neither the text
    nor a list of every row is held."""
    path.parent.mkdir(parents=True, exist_ok=True)
    head = json.dumps({"columns": ["t", *columns]}, indent=2)
    with path.open("w", newline="\n") as f:
        f.write(head[: -len("\n}")] + ',\n  "rows": [')
        sep = "\n"
        for row in np.column_stack((traj.times, traj.states)):
            # compact JSON joins a list's numbers with ", ", which no number holds
            items = json.dumps(row.tolist())[1:-1].replace(", ", ",\n      ")
            f.write(f"{sep}    [\n      {items}\n    ]")
            sep = ",\n"
        f.write("\n  ]\n}\n")


def _write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", newline="\n")


#: --format value -> trajectory writer; the value is also the file suffix
TRAJECTORY_WRITERS = {"csv": write_trajectory_csv, "json": write_trajectory_json}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(cfg: ExperimentConfig) -> int:
    entry, spec = _resolve_model(cfg)
    state = _initial_state(cfg, spec)
    eps_list = list(cfg.eps) if spec.needs_eps else [None]
    multi = len(eps_list) > 1
    if multi:
        _require_distinct_tags(eps_list)
    # every run's step, size and field are checked before the first file is
    # written
    fast = _fast_rate(cfg, entry)
    icfgs = [_integrator_config(cfg, eps, fast) for eps in eps_list]
    fields = [spec.build(cfg.params, eps) for eps in eps_list]
    for eps, icfg, field_fn in zip(eps_list, icfgs, fields):
        traj = integrate(field_fn, state, icfg)
        tag = f"_eps{eps:g}" if (multi and eps is not None) else ""
        path = _out_path(cfg, f".{cfg.fmt}", tag)
        TRAJECTORY_WRITERS[cfg.fmt](path, traj, spec.columns)
        print(f"wrote {path}")
    return EXIT_OK


def _require_decreasing(eps_ladder) -> None:
    """Ratios along a ladder read as convergence orders only when eps falls."""
    if not all(b < a for a, b in zip(eps_ladder, eps_ladder[1:])):
        raise ConfigError("eps ladder must be strictly decreasing")


def _require_distinct_tags(eps_ladder) -> None:
    """Each rung writes its own files, tagged _eps{eps:g}; two eps values
    with one tag would overwrite each other's output."""
    seen = {}
    for eps in eps_ladder:
        tag = f"_eps{eps:g}"
        if tag in seen:
            raise ConfigError(f"eps values {seen[tag]!r} and {eps!r} share the file tag {tag}")
        seen[tag] = eps


def _friction_rows(matrix: np.ndarray, rows) -> list:
    """The friction-model rows that matrix maps onto the given rows of a
    report's state.  A friction run keeps these, and `integrate` adds every
    row a rate of the field reads.  The limit models read no configuration
    that the friction field ignores, so such a row (the sleigh's x, y) is
    left out, NaN; a report that reads one exits 4 on a non-finite value."""
    return np.flatnonzero(matrix[list(rows)].any(axis=0)).tolist()


def cmd_compare(cfg: ExperimentConfig) -> int:
    entry, _ = _resolve_model(cfg)  # checks the named model before it is replaced
    cfg.model = "friction"
    if len(cfg.eps) < 3:
        raise ConfigError("compare needs an eps ladder with at least 3 entries")
    _require_decreasing(cfg.eps)
    if not cfg.window_start > cfg.t0:
        raise ConfigError(
            f"compare window start must be after t0={cfg.t0:g}, got {cfg.window_start:g}"
        )

    fric_spec = entry.models["friction"]
    nh_spec = entry.models["nh"]
    corr_spec = entry.models.get("corrected")

    nh_state = _initial_state(cfg, nh_spec)
    fric_state = entry.lift_state(cfg.params, nh_state)
    fast = _fast_rate(cfg, entry)
    fric_icfgs = [_integrator_config(cfg, eps, fast) for eps in cfg.eps]
    fric_fields = [fric_spec.build(cfg.params, eps) for eps in cfg.eps]
    nh_icfg = _integrator_config(cfg)
    # sup_distance's and restrict_window's refusals, before the first run: every run ends at t1
    if not cfg.window_start < cfg.t1:
        raise analysis.WindowMismatch(
            f"compare window [--window-start {cfg.window_start!r}, --t1 {cfg.t1!r}] is empty"
        )
    # with an adapted frame the compared rows are the reduced velocities xi,
    # rows n to n + k - 1 of the reduced state (q, xi); without one, every row
    adapted = entry.change_of_frame is not None
    to_reduced = entry.reduce_matrix(cfg.params) if adapted else None
    comps = tuple(range(to_reduced.shape[1] // 2, len(to_reduced))) if adapted else None
    nh_field = nh_spec.build(cfg.params, None)
    nh_traj = integrate(nh_field, nh_state, nh_icfg, read=comps)
    t1, t_end = cfg.window_start, cfg.t1
    fric_read = _friction_rows(to_reduced, comps) if adapted else None

    errors, defects, corr_errors = [], [], []
    for eps, fric_icfg, fric_field in zip(cfg.eps, fric_icfgs, fric_fields):
        fric_traj = integrate(fric_field, fric_state, fric_icfg, read=fric_read)
        reduced = transform_linear(fric_traj, to_reduced) if adapted else fric_traj
        errors.append(analysis.sup_distance(reduced, nh_traj, t1, t_end, comps))
        # defect over the post-transient window, matching the report window
        defects.append(
            analysis.pseudo_solution_defect(restrict_window(reduced, t1, t_end), nh_field)
        )
        if corr_spec is not None:
            corr_traj = integrate(
                corr_spec.build(cfg.params, eps), nh_state, nh_icfg, read=comps
            )
            corr_errors.append(
                analysis.sup_distance(reduced, corr_traj, t1, t_end, comps)
            )

    doc = {
        "system": cfg.system,
        "model": "friction",
        "config_echo": cfg.echo(),
        "initial_energy": float(entry.energy_of_state(cfg.params, fric_state)),
        "eps_ladder": list(cfg.eps),
        "errors": errors,
        "orders": analysis.estimate_order(cfg.eps, errors).tolist(),
        "t_window": [t1, t_end],
        "defects": defects,
    }
    if corr_errors:
        doc["corrected_errors"] = corr_errors
        doc["corrected_orders"] = analysis.estimate_order(cfg.eps, corr_errors).tolist()
    path = _out_path(cfg, ".json", "_compare")
    _write_json(path, doc)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_manifold(cfg: ExperimentConfig) -> int:
    if cfg.model != "friction":
        raise ConfigError("manifold extraction requires the friction model")
    entry, fric_spec = _resolve_model(cfg)
    if entry.slow_graph is None:
        raise ConfigError(f"system {cfg.system!r} has no slow-manifold support")
    _require_decreasing(cfg.eps)
    _require_distinct_tags(cfg.eps)
    state = _initial_state(cfg, fric_spec)
    fast = _fast_rate(cfg, entry)
    # The initial slip offset is O(eps) and the slow-manifold residual
    # O(eps^2): e^-10 of the offset is below eps^2 for every eps above 5e-5,
    # so the cutoff must cover 10 fast time constants at the largest eps.
    constants = (cfg.transient_cutoff - cfg.t0) * fast[0](max(cfg.eps))
    if not constants >= 10:
        raise ConfigError(
            f"manifold transient cutoff {cfg.transient_cutoff:g} covers {constants:.3g}"
            f" fast time constants after t0={cfg.t0:g} at eps={max(cfg.eps):g}; needs 10"
        )
    icfgs = [_integrator_config(cfg, eps, fast) for eps in cfg.eps]
    fields = [fric_spec.build(cfg.params, eps) for eps in cfg.eps]
    # manifold_fit's refusal, before the first run: every run ends at t1
    if cfg.t1 < cfg.transient_cutoff:
        raise analysis.TransientTooShort(
            f"--transient-cutoff {cfg.transient_cutoff!r} is past --t1 {cfg.t1!r}"
        )
    graph = entry.slow_graph(cfg.params)
    to_frame = entry.frame_state_matrix(cfg.params)
    n = len(to_frame) // 2
    k = len(entry.models["nh"].columns) - n
    fric_read = _friction_rows(to_frame, range(n, 2 * n))

    residuals, slopes, expected_slopes = [], [], []
    for eps, icfg, field in zip(cfg.eps, icfgs, fields):
        traj = integrate(field, state, icfg, read=fric_read)
        frame_traj = transform_linear(traj, to_frame)
        fit = analysis.manifold_fit(frame_traj, graph, eps, cfg.transient_cutoff, n, k)
        residuals.append(fit.residual_sup)
        # scatter of slip velocity against the drive term u*psi; the graph
        # coefficient is bilinear, so its value at xi = (1, 1) is exactly
        # the predicted slope per unit eps
        drive = fit.xis[:, 0] * fit.xis[:, 1]
        slip = fit.etas[:, 0]
        slopes.append(analysis.fit_slope_through_origin(drive, slip))
        expected_slopes.append(eps * graph.h1(fit.qs[:1], np.ones((1, k)))[0, 0])
        scatter = _out_path(cfg, ".csv", f"_manifold_eps{eps:g}")
        _write_csv(scatter, ("drive", "slip"), zip(drive, slip))
        print(f"wrote {scatter}")

    doc = {
        "system": cfg.system,
        "model": cfg.model,
        "eps_ladder": list(cfg.eps),
        "transient_cutoff": cfg.transient_cutoff,
        "initial_energy": float(entry.energy_of_state(cfg.params, state)),
        "residual_sup": residuals,
        "residual_ratios": [
            residuals[i] / residuals[i + 1] for i in range(len(residuals) - 1)
        ],
        "slopes": slopes,
        "expected_slopes": expected_slopes,
        "config_echo": cfg.echo(),
    }
    path = _out_path(cfg, ".json", "_manifold")
    _write_json(path, doc)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_list_systems() -> int:
    for name in sorted(REGISTRY):
        entry = REGISTRY[name]
        models = ", ".join(sorted(entry.models))
        params = ", ".join(
            f"{k}={v:g}" for k, v in sorted(entry.param_defaults.items())
        )
        print(f"{name}: models = {models}; params = {params}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value configuration file")
    for key, attr, _, help_text in SETTINGS:
        action = "append" if key == "eps" else "store"
        p.add_argument(_flag(key), dest=attr, action=action, help=help_text)
    p.add_argument(
        "--param",
        action="append",
        metavar="KEY=VAL",
        help="numeric system parameter, repeatable",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nonholib",
        description="Constrained-dynamics experiments: large-friction "
        "realizations, convergence ladders and slow-manifold extraction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("simulate", "integrate one model and write trajectory files"),
        ("compare", "eps-ladder convergence report against the constrained model"),
        ("manifold", "slow-manifold residuals and scatter data"),
    ):
        _add_common_flags(sub.add_parser(name, help=desc))
    sub.add_parser("list-systems", help="show the system registry")

    args = parser.parse_args(argv)
    if args.command == "list-systems":
        return cmd_list_systems()
    try:  # no numpy warnings before the one-line message; finite checks still raise
        with np.errstate(all="ignore"):
            cfg = build_config(args)
            if args.command == "simulate":
                return cmd_simulate(cfg)
            if args.command == "compare":
                return cmd_compare(cfg)
            return cmd_manifold(cfg)
    except (ConfigError, InvalidParameter) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        NonFiniteState,
        StepUnderflow,
        OriginSingularity,
        SingularFrame,
        SingularMetric,
    ) as exc:
        t = getattr(exc, "t", None)
        where = f" at t={t:.6g}" if t is not None else ""
        print(f"numerical failure{where}: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except (
        analysis.TransientTooShort,
        analysis.WindowMismatch,
        analysis.DegenerateFit,
        analysis.NonFiniteValue,
    ) as exc:
        print(f"analysis precondition failed: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
