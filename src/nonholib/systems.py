"""Hand-coded reference systems: knife-edge sleigh and planar pendulum.

Closed-form right-hand sides live here so that the generic frame machinery
in :mod:`nonholib.dynamics` can be cross-checked against them, and so that
experiment runs do not pay the generic machinery's per-evaluation cost.
The sleigh's run-path fields (``sleigh_*_field``) bind their parameter
constants at build time; the ``sleigh_*_rhs`` helpers, which read them on
every call in the same operation order, are their bitwise oracle.

Sleigh conventions.  Chart (x, y, phi): skate contact point and blade
angle; mass m, inertia I about the center of mass, which sits a distance
a ahead of the contact point along the blade.  Quasi-velocities:

* u      speed along the blade
* v      sideways slip speed (the constrained direction, v = 0 on D)
* omega  angular velocity
* psi    = omega + (m a / (I + m a^2)) v, the angular coordinate that
         diagonalizes the kinetic metric; psi = omega on D.

The friction force is -v/eps times the unit covector normal to the blade
(unit friction coefficient in the slip direction).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from functools import cached_property
from typing import Callable

import numpy as np

from .dynamics import RayleighFriction, fast_field_y0
from .geometry import MechanicalSystem, MovingFrame


class OriginSingularity(ValueError):
    """Pendulum fields are undefined at the origin (no radial direction)."""


class InvalidParameter(ValueError):
    """A system parameter is outside its physical range."""


def _require_finite(params) -> None:
    if not all(map(math.isfinite, astuple(params))):
        raise InvalidParameter(f"parameters must be finite, got {params}")


# ---------------------------------------------------------------------------
# sleigh
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SleighParams:
    m: float = 1.0
    I: float = 1.0
    a: float = 0.2

    def __post_init__(self):
        _require_finite(self)
        if not self.m > 0:
            raise InvalidParameter("m must be positive")
        if not self.I > 0:
            raise InvalidParameter("I must be positive")
        if self.a < 0:
            raise InvalidParameter("a must be nonnegative")

    # Computed once, as the sleigh rate helpers read them on every call.
    # cached_property writes __dict__ directly, so it works on a frozen
    # dataclass; equality, hash and repr still use the fields alone.
    @cached_property
    def itot(self) -> float:
        """Moment of inertia about the contact point, I + m a^2."""
        return self.I + self.m * self.a**2

    @cached_property
    def coupling(self) -> float:
        """m a / (I + m a^2): psi = omega + coupling * v."""
        return self.m * self.a / self.itot

    @cached_property
    def slaving(self) -> float:
        """m I / (I + m a^2): slip drift is v ~ -eps * slaving * u * psi.
        Also the metric weight of the slip direction."""
        return self.m * self.I / self.itot

    def fast_rate(self, eps: float) -> float:
        """Exponential decay rate of the slip velocity, (I + m a^2)/(I m eps)."""
        return self.itot / (self.I * self.m * eps)


def sleigh_nh_rhs(p: SleighParams, u: float, omega: float):
    """Constrained sleigh: udot = a omega^2, omegadot = -m a u omega / (I + m a^2)."""
    return p.a * omega * omega, -p.coupling * u * omega


def sleigh_constraint_force(p: SleighParams, u, omega, omegadot) -> float:
    """Reaction force magnitude m (u omega + a omegadot); it acts along
    (-sin phi, cos phi).  On constrained orbits this is m u omega I/(I + m a^2)."""
    return p.m * (u * omega + p.a * omegadot)


def sleigh_friction_rhs(p: SleighParams, eps: float, u, v, omega):
    """Slip-friction sleigh rates in the (u, v, omega) frame."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    udot = v * omega + p.a * omega * omega
    omegadot = p.a * v / (p.I * eps)
    vdot = -u * omega - p.itot * v / (p.m * p.I * eps)
    return udot, vdot, omegadot


def sleigh_friction_ortho_rhs(p: SleighParams, eps: float, u, v, psi):
    """Slip-friction sleigh rates in the orthogonal (u, v, psi) frame."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    c = p.coupling
    udot = (
        -(p.m * p.a**2 - p.I) / p.itot * v * psi
        - p.m * p.a * p.I / p.itot**2 * v * v
        + p.a * psi * psi
    )
    vdot = -u * psi + c * u * v - p.fast_rate(eps) * v
    psidot = -c * u * psi + c * c * u * v
    return udot, vdot, psidot


def sleigh_fast_closed_form(p: SleighParams, eps: float, u, omega, v0, t):
    """Frozen-coefficient slip relaxation:
    v(t) = (v0 + u omega / rho) exp(-rho t) - u omega / rho."""
    rho = p.fast_rate(eps)
    settle = -u * omega / rho
    return (v0 - settle) * np.exp(-rho * np.asarray(t, dtype=float)) + settle


def sleigh_h1_rhs(p: SleighParams, u: float, psi: float) -> float:
    """First-order slip drift: the slow manifold is v = eps * h1 + O(eps^2)
    with h1 = -m I u psi / (I + m a^2)."""
    return -p.slaving * u * psi


def sleigh_x1_rhs(p: SleighParams, x, y, phi, u, psi):
    """First-order correction field on (x, y, phi, u, psi).

    The (x, y) drift is the slip velocity along the blade normal; phi picks
    up the difference between omega and psi off the constraint.  Note the
    phi rate is -coupling * h1, i.e. positive for u psi > 0.
    """
    h1 = sleigh_h1_rhs(p, u, psi)
    s, c = math.sin(phi), math.cos(phi)
    return (
        -h1 * s,
        h1 * c,
        -p.coupling * h1,
        p.slaving * (p.m * p.a**2 - p.I) / p.itot * u * psi * psi,
        -p.slaving * p.coupling**2 * u * u * psi,
    )


def sleigh_energy(p: SleighParams, u, v, omega) -> float:
    """Kinetic energy in the (u, v, omega) frame (the metric couples v and
    omega through m a)."""
    return (
        0.5 * p.m * (u * u + v * v)
        + 0.5 * p.itot * omega * omega
        + p.m * p.a * omega * v
    )


def sleigh_energy_ortho(p: SleighParams, u, v, psi) -> float:
    """Kinetic energy in the diagonalizing (u, v, psi) frame."""
    return 0.5 * (p.m * u * u + p.slaving * v * v + p.itot * psi * psi)


# full-state fields used by the experiment driver ---------------------------


def sleigh_nh_field(p: SleighParams) -> Callable:
    """State (x, y, phi, u, omega); the rates of :func:`sleigh_nh_rhs`,
    its oracle, with the constants bound at build time."""
    a, nc = p.a, -p.coupling

    def rhs(st):
        x, y, phi, u, om = st
        return (u * math.cos(phi), u * math.sin(phi), om, a * om * om, nc * u * om)

    return rhs


def sleigh_friction_field(p: SleighParams, eps: float) -> Callable:
    """State (x, y, phi, u, v, omega); the rates of
    :func:`sleigh_friction_rhs`, its oracle, with the constants bound at
    build time."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    a, itot = p.a, p.itot
    ie, mie = p.I * eps, p.m * p.I * eps

    def rhs(st):
        x, y, phi, u, v, om = st
        s, c = math.sin(phi), math.cos(phi)
        return (
            u * c - v * s,
            u * s + v * c,
            om,
            v * om + a * om * om,
            -u * om - itot * v / mie,
            a * v / ie,
        )

    return rhs


def sleigh_corrected_field(p: SleighParams, eps: float) -> Callable:
    """Nonholonomic field plus eps times the first-order correction,
    state (x, y, phi, u, psi): :func:`sleigh_nh_rhs` plus eps times
    :func:`sleigh_x1_rhs`, its oracles, with the constants bound at build
    time.  At eps = 0 it is :func:`sleigh_nh_field`."""
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    if eps == 0.0:
        return sleigh_nh_field(p)
    a, nc, nsl = p.a, -p.coupling, -p.slaving
    ku = p.slaving * (p.m * p.a**2 - p.I) / p.itot
    kpsi = -p.slaving * p.coupling**2

    def rhs(st):
        x, y, phi, u, psi = st
        s, c = math.sin(phi), math.cos(phi)
        h1 = nsl * u * psi
        return (
            u * c + eps * (-h1 * s),
            u * s + eps * (h1 * c),
            psi + eps * (nc * h1),
            a * psi * psi + eps * (ku * u * psi * psi),
            nc * u * psi + eps * (kpsi * u * u * psi),
        )

    return rhs


# generic-machinery builders -------------------------------------------------


def sleigh_system(p: SleighParams) -> MechanicalSystem:
    """Chart metric of the sleigh with analytic derivatives, no potential."""

    def metric(q):
        phi = q[2]
        s, c = math.sin(phi), math.cos(phi)
        ma = p.m * p.a
        return np.array(
            [
                [p.m, 0.0, -ma * s],
                [0.0, p.m, ma * c],
                [-ma * s, ma * c, p.itot],
            ]
        )

    def metric_derivs(q):
        phi = q[2]
        s, c = math.sin(phi), math.cos(phi)
        ma = p.m * p.a
        out = np.zeros((3, 3, 3))
        out[:, :, 2] = np.array(
            [
                [0.0, 0.0, -ma * c],
                [0.0, 0.0, -ma * s],
                [-ma * c, -ma * s, 0.0],
            ]
        )
        return out

    return MechanicalSystem(n=3, metric=metric, metric_derivs=metric_derivs)


def sleigh_ortho_frame(p: SleighParams) -> MovingFrame:
    """Adapted orthogonal frame, columns ordered (u, psi, v), k = 2.

    The first two fields span the constraint distribution, the third its
    orthogonal complement; the frame metric is diag(m, I + m a^2,
    m I/(I + m a^2)).
    """
    c0 = p.coupling

    def fields(q):
        phi = q[2]
        s, c = math.sin(phi), math.cos(phi)
        return np.array(
            [
                [c, 0.0, -s],
                [s, 0.0, c],
                [0.0, 1.0, -c0],
            ]
        )

    def field_derivs(q):
        phi = q[2]
        s, c = math.sin(phi), math.cos(phi)
        out = np.zeros((3, 3, 3))
        out[:, :, 2] = np.array(
            [
                [-s, 0.0, -c],
                [c, 0.0, -s],
                [0.0, 0.0, 0.0],
            ]
        )
        return out

    return MovingFrame(k=2, fields=fields, field_derivs=field_derivs)


def sleigh_uvw_frame(p: SleighParams) -> MovingFrame:
    """Blade-aligned frame with columns (u, v, omega): the frame of the
    friction model's velocity columns, so the registry derives the sleigh's
    fast model and frame-state map from it.

    It is not orthogonally adapted (the frame metric couples v and omega),
    so the generic slow-manifold fields use :func:`sleigh_ortho_frame`.
    """

    def fields(q):
        phi = q[2]
        s, c = math.sin(phi), math.cos(phi)
        return np.array(
            [
                [c, -s, 0.0],
                [s, c, 0.0],
                [0.0, 0.0, 1.0],
            ]
        )

    def field_derivs(q):
        phi = q[2]
        s, c = math.sin(phi), math.cos(phi)
        out = np.zeros((3, 3, 3))
        out[:, :, 2] = np.array(
            [
                [-s, -c, 0.0],
                [c, -s, 0.0],
                [0.0, 0.0, 0.0],
            ]
        )
        return out

    return MovingFrame(k=2, fields=fields, field_derivs=field_derivs)


def sleigh_friction_form(p: SleighParams) -> RayleighFriction:
    """Unit sideways-slip friction: nu = w w^T with w the blade normal."""

    def nu(q):
        phi = q[2]
        w = np.array([-math.sin(phi), math.cos(phi), 0.0])
        return np.outer(w, w)

    return RayleighFriction(nu=nu)


# ---------------------------------------------------------------------------
# pendulum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PendulumParams:
    g: float = 9.81
    eps: float = 1e-2

    def __post_init__(self):
        _require_finite(self)
        if not self.g > 0:
            raise InvalidParameter("g must be positive")
        if not self.eps > 0:
            raise InvalidParameter("eps must be positive")


PENDULUM_VARIANTS = ("potential", "friction", "inertial")

_R_MIN = 1e-8


def _radial(qx, qy):
    r = math.hypot(qx, qy)
    if r < _R_MIN:
        raise OriginSingularity("pendulum state too close to the origin")
    return r, qx / r, qy / r


def make_pendulum(variant: str, p: PendulumParams) -> Callable:
    """Unit-mass planar pendulum realizations on states (x, y, xdot, ydot).

    variant "potential": stiff radial spring (r - 1)^2 / (2 eps) keeps the
    mass near the unit circle.  variant "friction": radial Rayleigh
    friction rdot^2/(2 eps) damps motion off concentric circles.  variant
    "inertial": a heavy radial mass term rdot^2/(2 eps) slows radial
    motion; the modified mass matrix is assembled in Cartesian coordinates
    and inverted pointwise.
    """
    if variant not in PENDULUM_VARIANTS:
        raise ValueError(f"unknown pendulum variant {variant!r}")
    g, eps = p.g, p.eps

    if variant == "potential":

        def rhs(st):
            x, y, vx, vy = st
            r, ex, ey = _radial(x, y)
            k = (r - 1.0) / eps
            return (vx, vy, -k * ex, -g - k * ey)

    elif variant == "friction":

        def rhs(st):
            x, y, vx, vy = st
            r, ex, ey = _radial(x, y)
            rdot = ex * vx + ey * vy
            k = rdot / eps
            return (vx, vy, -k * ex, -g - k * ey)

    else:  # inertial

        def rhs(st):
            x, y, vx, vy = st
            r, ex, ey = _radial(x, y)
            e_r = np.array([ex, ey])
            v = np.array([vx, vy])
            v_perp = v - (e_r @ v) * e_r
            mass = np.eye(2) + np.outer(e_r, e_r) / eps
            force = np.array([0.0, -g]) - (v_perp @ v_perp) / (eps * r) * e_r
            acc = np.linalg.solve(mass, force)
            return np.array([vx, vy, acc[0], acc[1]])

    return rhs


def pendulum_nh_field(p: PendulumParams) -> Callable:
    """Limit dynamics on concentric circles: tangential gravity only plus
    the centripetal acceleration that keeps r constant."""
    g = p.g

    def rhs(st):
        x, y, vx, vy = st
        r, ex, ey = _radial(x, y)
        e_r = np.array([ex, ey])
        v = np.array([vx, vy])
        grav = np.array([0.0, -g])
        tang = grav - (grav @ e_r) * e_r
        acc = tang - (v @ v) / r * e_r
        return np.array([vx, vy, acc[0], acc[1]])

    return rhs


def pendulum_system(p: PendulumParams) -> MechanicalSystem:
    """Euclidean metric with gravity, for the friction-variant cross checks."""
    return MechanicalSystem(
        n=2,
        metric=lambda q: np.eye(2),
        metric_derivs=lambda q: np.zeros((2, 2, 2)),
        potential=lambda q: p.g * q[1],
        potential_grad=lambda q: np.array([0.0, p.g]),
    )


def pendulum_frame(p: PendulumParams) -> MovingFrame:
    """Adapted frame (tangential, radial) for the circle distribution, k = 1."""

    def fields(q):
        r, ex, ey = _radial(q[0], q[1])
        return np.array([[-ey, ex], [ex, ey]])

    def field_derivs(q):
        r, ex, ey = _radial(q[0], q[1])
        e_r = np.array([ex, ey])
        proj = (np.eye(2) - np.outer(e_r, e_r)) / r
        out = np.empty((2, 2, 2))
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        out[:, 0, :] = rot @ proj  # d(e_theta)/dq
        out[:, 1, :] = proj  # d(e_r)/dq
        return out

    return MovingFrame(k=1, fields=fields, field_derivs=field_derivs)


def pendulum_friction_form(p: PendulumParams) -> RayleighFriction:
    """Unit radial friction form nu = e_r e_r^T."""

    def nu(q):
        r, ex, ey = _radial(q[0], q[1])
        e_r = np.array([ex, ey])
        return np.outer(e_r, e_r)

    return RayleighFriction(nu=nu)


def pendulum_default_state() -> np.ndarray:
    """At rest on the unit circle, 45 degrees from the downward vertical."""
    return np.array([math.sin(math.pi / 4), -math.cos(math.pi / 4), 0.0, 0.0])


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    """One runnable model of a registered system."""

    columns: tuple
    needs_eps: bool
    build: Callable  # (params: dict, eps: float | None) -> field callable
    default_state: tuple


@dataclass(frozen=True)
class SystemEntry:
    """Registry entry: models plus the adapters the analysis driver needs.

    A Rayleigh friction realization is declared once, as ``realization``;
    the ``fast`` model and the friction model's rk4 step check derive from
    it.  An ``adapted_frame`` adds the frame-state, reduce and lift maps;
    without one the friction and constrained states share one layout.
    """

    param_defaults: dict
    models: dict
    # (params: dict, friction-model state) -> total energy, used to flag
    # runs started outside the moderate-energy regime in the reports
    energy_of_state: Callable
    compare_components: tuple = ()
    # (params: dict) -> (system, frame, friction): the friction model's
    # state is (q, w) with w the components of qdot in this frame
    realization: Callable = None
    # (params: dict) -> adapted orthogonal frame; its change of frame from
    # the realization's frame must be constant in q
    adapted_frame: Callable = None

    def __post_init__(self):
        if self.realization is not None:  # fast time at eps = 0, same columns
            fric = self.models["friction"]
            self.models["fast"] = ModelSpec(
                columns=fric.columns,
                needs_eps=False,
                build=lambda params, eps: fast_field_y0(*self.realization(params)),
                default_state=fric.default_state,
            )

    def generic_builders(self, params: dict) -> tuple:
        """(system, adapted frame, friction) for the generic fields."""
        sysm, _, fric = self.realization(params)
        return sysm, self.adapted_frame(params), fric

    def frame_state_matrix(self, params: dict) -> np.ndarray:
        """Linear map from the friction-model state to the (q, xi, eta)
        layout of the adapted frame: identity on q, and inv(F_adapted) @
        F_model on the velocities, read at q = 0."""
        sysm, frame, _ = self.realization(params)
        n = sysm.n
        q0 = np.zeros(n)
        m = np.eye(2 * n)
        # inv(...) @ rather than solve, which leaves -0.0 entries in the map
        adapted = np.linalg.inv(self.adapted_frame(params).fields_at(q0))
        m[n:, n:] = adapted @ frame.fields_at(q0)
        return m

    def reduce_matrix(self, params: dict) -> np.ndarray:
        """Friction-model state -> reduced state (q, xi): the first n + k
        rows of the frame-state map, which drop the slip components eta."""
        m = self.frame_state_matrix(params)
        return m[: len(m) // 2 + self.adapted_frame(params).k]

    def lift_state(self, params: dict, reduced_state) -> np.ndarray:
        """Reduced state (q, xi) -> friction-model state with zero slip,
        by inverting the frame-state map at eta = 0.  Without an adapted
        frame the two states share one layout."""
        if self.adapted_frame is None:
            return np.asarray(reduced_state, dtype=float)
        m = self.frame_state_matrix(params)
        frame_state = np.zeros(len(m))
        frame_state[: len(reduced_state)] = reduced_state
        return np.linalg.solve(m, frame_state)


def _param_defaults(params_cls) -> dict:
    """The --param names of a system and their defaults: the fields of its
    params dataclass, except eps, which comes from the eps ladder."""
    return {f.name: f.default for f in fields(params_cls) if f.name != "eps"}


def _sleigh_entry() -> SystemEntry:
    nh_state = (0.0, 0.0, 0.0, -1.0, 0.5)

    models = {
        "nh": ModelSpec(
            columns=("x", "y", "phi", "u", "omega"),
            needs_eps=False,
            build=lambda params, eps: sleigh_nh_field(SleighParams(**params)),
            default_state=nh_state,
        ),
        "friction": ModelSpec(
            columns=("x", "y", "phi", "u", "v", "omega"),
            needs_eps=True,
            build=lambda params, eps: sleigh_friction_field(
                SleighParams(**params), eps
            ),
            default_state=(0.0, 0.0, 0.0, -1.0, 0.0, 0.5),
        ),
        "corrected": ModelSpec(
            columns=("x", "y", "phi", "u", "psi"),
            needs_eps=True,
            build=lambda params, eps: sleigh_corrected_field(
                SleighParams(**params), eps
            ),
            default_state=nh_state,
        ),
    }

    def realization(params):
        p = SleighParams(**params)
        return sleigh_system(p), sleigh_uvw_frame(p), sleigh_friction_form(p)

    def energy_of(params, state):
        p = SleighParams(**params)
        return sleigh_energy(p, state[3], state[4], state[5])

    return SystemEntry(
        param_defaults=_param_defaults(SleighParams),
        models=models,
        energy_of_state=energy_of,
        compare_components=(3, 4),
        realization=realization,
        adapted_frame=lambda params: sleigh_ortho_frame(SleighParams(**params)),
    )


def _pendulum_entry(variant: str) -> SystemEntry:
    columns = ("x", "y", "vx", "vy")
    state = tuple(pendulum_default_state())

    models = {
        "nh": ModelSpec(
            columns=columns,
            needs_eps=False,
            build=lambda params, eps: pendulum_nh_field(
                PendulumParams(**params, eps=1.0)
            ),
            default_state=state,
        ),
        # "friction" selects the eps-scaled realization field of this
        # variant (stiff potential / radial friction / heavy radial mass).
        "friction": ModelSpec(
            columns=columns,
            needs_eps=True,
            build=lambda params, eps: make_pendulum(
                variant, PendulumParams(**params, eps=eps)
            ),
            default_state=state,
        ),
    }

    def realization(params):  # (x, y, vx, vy): the identity (chart) frame
        p = PendulumParams(**params, eps=1.0)
        chart = MovingFrame(1, lambda q: np.eye(2), lambda q: np.zeros((2, 2, 2)))
        return pendulum_system(p), chart, pendulum_friction_form(p)

    def energy_of(params, state):
        g = PendulumParams(**params, eps=1.0).g
        return 0.5 * float(state[2] ** 2 + state[3] ** 2) + g * float(state[1])

    return SystemEntry(
        param_defaults=_param_defaults(PendulumParams),
        models=models,
        energy_of_state=energy_of,
        realization=realization if variant == "friction" else None,
    )


REGISTRY = {
    "sleigh": _sleigh_entry(),
    "pendulum-potential": _pendulum_entry("potential"),
    "pendulum-friction": _pendulum_entry("friction"),
    "pendulum-inertial": _pendulum_entry("inertial"),
}


def get_system(name: str) -> SystemEntry:
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown system {name!r}; available: {', '.join(sorted(REGISTRY))}"
        ) from None
