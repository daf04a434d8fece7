"""Hand-coded reference systems: knife-edge sleigh and planar pendulum.

Closed-form right-hand sides live here so that experiment runs do not pay
the generic machinery's per-evaluation cost of :mod:`nonholib.dynamics`.
The run-path fields (``sleigh_*_field`` and the pendulum's three
realizations and nh field) are declared once each, as a straight-line text
that `nonholib.ode.straight_line` compiles with its constants bound at
build time; the integrator writes that text into its stages instead of
calling the field, so a stage makes no Python-level call.  The pendulum
texts write ``_radial`` out, its origin check included, so the potential
and friction fields are bitwise its composition.  The nh field agrees with
the numpy formula it replaced to a few ulps of g + |v|^2 / r; the
heavy-mass field inverts its mass matrix in closed form and is within a few
such ulps of the exact rates, where the numpy solve it replaced was off by
up to about (1 + 1/eps) / 2.

Sleigh conventions.  Chart (x, y, phi): skate contact point and blade
angle; mass m, inertia I about the center of mass, which sits a distance
a ahead of the contact point along the blade.  Quasi-velocities:

* u      speed along the blade
* v      sideways slip speed (the constrained direction, v = 0 on D)
* omega  angular velocity
* psi    = omega + (m a / (I + m a^2)) v, the angular coordinate that
         diagonalizes the kinetic metric; psi = omega on D.

The chart metric and the blade frame (u, v, omega) are each written once,
as constant, sin phi and cos phi parts, and their phi-derivatives are
derived from the parts; the adapted frame (u, psi, v) is the blade frame
times the constant change of frame that psi makes.  The registry reads that
change, its inverse, the slip's relaxation rate and the slow-manifold graph
in closed form, so that compare and manifold call no numpy.linalg function.

The friction force is -v/eps times the unit covector normal to the blade
(unit friction coefficient in the slip direction).
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass
from typing import Callable

import numpy as np

from .dynamics import ExpansionData, RayleighFriction, fast_field_y0
from .geometry import COND_LIMIT, MechanicalSystem, MovingFrame, SingularFrame, SingularMetric
from .ode import straight_line


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
        try:  # a float's ** raises OverflowError where * gives inf
            derived = (self.itot, self.coupling, self.slaving)
        except OverflowError:
            derived = (math.inf,)
        if not all(map(math.isfinite, derived)):
            raise InvalidParameter(f"I + m a^2 and its ratios must be finite, got {self}")

    @property
    def itot(self) -> float:
        """Moment of inertia about the contact point, I + m a^2."""
        return self.I + self.m * self.a**2

    @property
    def coupling(self) -> float:
        """m a / (I + m a^2): psi = omega + coupling * v."""
        return self.m * self.a / self.itot

    @property
    def slaving(self) -> float:
        """m I / (I + m a^2): slip drift is v ~ -eps * slaving * u * psi.
        Also the metric weight of the slip direction."""
        return self.m * self.I / self.itot

    def fast_rate(self, eps: float) -> float:
        """Exponential decay rate of the slip velocity, (I + m a^2)/(I m eps)."""
        return self.itot / (self.I * self.m * eps)

    @property
    def metric_cond(self) -> float:
        """Condition number of the chart metric, the same at every q:
        lam^2/(m I), lam the larger root of x^2 - (m + I + m a^2) x + m I.
        The eigenvalues are m and the two roots, whose product is m I; the
        roots are (m + itot)/2 +- hypot((m - itot)/2, m a), with no
        cancellation."""
        lam = 0.5 * self.m + 0.5 * self.itot
        lam += math.hypot(0.5 * (self.m - self.itot), self.m * self.a)
        return lam / self.m * (lam / self.I)

    @property
    def frame_cond(self) -> float:
        """Condition number of the adapted frame (u, psi, v), the same at
        every q: ((sqrt(c^2 + 4) + c)/2)^2 with c the coupling.  The blade
        frame is a rotation, so it is the change of frame's, whose singular
        values are 1 and (sqrt(c^2 + 4) +- c)/2, of product 1."""
        top = 0.5 * (math.hypot(self.coupling, 2.0) + self.coupling)
        return top * top


def sleigh_energy(p: SleighParams, u, v, omega) -> float:
    """Kinetic energy in the (u, v, omega) frame (the metric couples v and
    omega through m a)."""
    return (
        0.5 * p.m * (u * u + v * v)
        + 0.5 * p.itot * omega * omega
        + p.m * p.a * omega * v
    )


# full-state fields used by the experiment driver ---------------------------


_SLEIGH_NH = """
def sleigh_nh(st):
    x, y, phi, u, om = st
    return (u * math.cos(phi), u * math.sin(phi), om, a * om * om, nc * u * om)
"""


def sleigh_nh_field(p: SleighParams) -> Callable:
    """State (x, y, phi, u, omega); xdot = u cos phi, ydot = u sin phi,
    phidot = omega, udot = a omega^2 and omegadot = -m a u omega / (I + m
    a^2), with the constants bound at build time."""
    return straight_line(_SLEIGH_NH, a=p.a, nc=-p.coupling, math=math)


_SLEIGH_FRICTION = """
def sleigh_friction(st):
    x, y, phi, u, v, om = st
    s, c = math.sin(phi), math.cos(phi)
    return (
        u * c - v * s,
        u * s + v * c,
        om,
        om * (v + a * om),
        nrate * v - u * om,
        lever * v,
    )
"""


def sleigh_friction_field(p: SleighParams, eps: float) -> Callable:
    """State (x, y, phi, u, v, omega); (xdot, ydot) = u (cos phi, sin phi)
    + v (-sin phi, cos phi), phidot = omega, udot = omega (v + a omega),
    vdot = -u omega - fast_rate(eps) v (the slip relaxes at the fast rate)
    and omegadot = a v/(I eps), with the constants bound at build time.
    Its eps constants are folded then, so a stage divides nowhere: vdot
    reads nrate = -fast_rate(eps), and omegadot reads lever = a/(I eps).
    Raises InvalidParameter when either is not finite (m I eps underflowing
    to 0, say)."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    try:
        nrate, lever = -p.fast_rate(eps), p.a / (p.I * eps)
    except ZeroDivisionError:
        nrate = lever = math.nan
    if not (math.isfinite(nrate) and math.isfinite(lever)):
        raise InvalidParameter(
            "the friction rates (I + m a^2)/(m I eps) and a/(I eps) must be finite,"
            f" got m={p.m:g}, I={p.I:g}, eps={eps:g}"
        )
    return straight_line(_SLEIGH_FRICTION, a=p.a, nrate=nrate, lever=lever, math=math)


_SLEIGH_CORRECTED = """
def sleigh_corrected(st):
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
"""


def sleigh_corrected_field(p: SleighParams, eps: float) -> Callable:
    """Nonholonomic field plus eps times the first-order correction,
    state (x, y, phi, u, psi), with the constants bound at build time.
    With the slip drift h1 = -m I u psi / (I + m a^2), the correction is
    (-h1 sin phi, h1 cos phi) on (x, y), -coupling h1 on phi,
    slaving (m a^2 - I)/(I + m a^2) u psi^2 on u and
    -slaving coupling^2 u^2 psi on psi.  At eps = 0 its rates equal
    :func:`sleigh_nh_field`'s."""
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    return straight_line(
        _SLEIGH_CORRECTED,
        a=p.a,
        nc=-p.coupling,
        nsl=-p.slaving,
        ku=p.slaving * (p.m * p.a**2 - p.I) / p.itot,
        kpsi=-p.slaving * p.coupling**2,
        eps=eps,
        math=math,
    )


# generic-machinery builders -------------------------------------------------


def _trig_field(k, sin_part, cos_part) -> tuple:
    """Callbacks (field, derivs) of k + sin_part sin(phi) + cos_part cos(phi),
    phi = q[2], and of its derivative: sin_part cos(phi) - cos_part sin(phi)
    in the phi slot, zero in the others.  Each is one dot product of
    (1, sin(phi), cos(phi)) with a coefficient stack built here, once."""
    parts = np.array([k, sin_part, cos_part], dtype=float)
    slopes = np.zeros(parts.shape + (len(k),))
    slopes[1, ..., 2], slopes[2, ..., 2] = -parts[2], parts[1]

    def callback(stack):
        flat, shape = stack.reshape(3, -1), stack.shape[1:]

        def at(q):
            phi = q[2]
            return np.dot((1.0, math.sin(phi), math.cos(phi)), flat).reshape(shape)

        return at

    return callback(parts), callback(slopes)


def sleigh_system(p: SleighParams) -> MechanicalSystem:
    """Chart metric of the sleigh with analytic derivatives, no potential:
    m on (x, y), I + m a^2 on phi, coupled to (x, y) through m a times the
    blade normal (-sin phi, cos phi)."""
    ma = p.m * p.a
    metric, metric_derivs = _trig_field(
        [[p.m, 0.0, 0.0], [0.0, p.m, 0.0], [0.0, 0.0, p.itot]],
        [[0.0, 0.0, -ma], [0.0, 0.0, 0.0], [-ma, 0.0, 0.0]],
        [[0.0, 0.0, 0.0], [0.0, 0.0, ma], [0.0, ma, 0.0]],
    )
    return MechanicalSystem(n=3, metric=metric, metric_derivs=metric_derivs)


_BLADE_PARTS = (
    [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
    [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
)


def sleigh_uvw_frame(p: SleighParams) -> MovingFrame:
    """Blade-aligned frame with columns (u, v, omega), the friction model's
    velocity columns: (cos phi, sin phi, 0), (-sin phi, cos phi, 0) and
    (0, 0, 1).  The registry derives the sleigh's fast model and
    frame-state map from it; its frame metric couples v and omega, so the
    generic slow-manifold fields use :func:`sleigh_ortho_frame`."""
    return MovingFrame(2, *_trig_field(*_BLADE_PARTS))


def _sleigh_change(c: float) -> np.ndarray:
    """The change of frame (u, v, omega) = change @ (u, psi, v) of
    psi = omega + c v."""
    return np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, -c]])


def sleigh_ortho_frame(p: SleighParams) -> MovingFrame:
    """Adapted orthogonal frame (u, psi, v), k = 2: the blade frame times
    the constant change of frame (u, v, omega) = change @ (u, psi, v) of
    psi = omega + coupling * v.  The first two fields span the constraint
    distribution, the third its orthogonal complement; the frame metric is
    diag(m, I + m a^2, m I/(I + m a^2))."""
    change = _sleigh_change(p.coupling)
    return MovingFrame(2, *_trig_field(*(np.array(b) @ change for b in _BLADE_PARTS)))


def sleigh_change_of_frame(p: SleighParams) -> tuple:
    """(change, inverse) of :func:`sleigh_ortho_frame` against the blade
    frame: (u, v, omega) = change @ (u, psi, v) and (u, psi, v) = inverse @
    (u, v, omega), with c = coupling in psi = omega + c v.  Raises
    SingularFrame, as the adapted frame's own check would, where its
    condition number frame_cond exceeds COND_LIMIT."""
    if p.frame_cond > COND_LIMIT:
        raise SingularFrame("frame condition number exceeds 1e12")
    c = p.coupling
    return _sleigh_change(c), np.array([[1.0, 0.0, 0.0], [0.0, c, 1.0], [0.0, 1.0, 0.0]])


def sleigh_relaxation_rate(p: SleighParams) -> float:
    """The slip's decay rate at eps = 1, (I + m a^2)/(m I): the one
    eigenvalue of kappa^{-1} nu off its kernel, at every q.  Raises
    SingularMetric, as the chart metric's own check would, where its
    condition number metric_cond exceeds COND_LIMIT."""
    if p.metric_cond > COND_LIMIT:
        raise SingularMetric("metric condition number exceeds 1e12")
    return p.fast_rate(1.0)


def sleigh_slow_graph(p: SleighParams) -> ExpansionData:
    """The first-order slow-manifold graph in the adapted frame, at every q:
    the slip drift h1(q, xi) = -slaving * u * psi of xi = (u, psi), the h1
    that dynamics.compute_h1 solves for.  h1 takes every shape that
    ExpansionData documents and reads no row of q."""
    nsl = -p.slaving
    return ExpansionData(h1=lambda qs, xis: nsl * xis[..., :1] * xis[..., 1:])


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

    def __post_init__(self):
        _require_finite(self)
        if not self.g > 0:
            raise InvalidParameter("g must be positive")


_R_MIN = 1e-8


def _origin():
    raise OriginSingularity("pendulum state too close to the origin")


def _radial(qx, qy):
    r = math.hypot(qx, qy)
    if r < _R_MIN:
        _origin()
    return r, qx / r, qy / r


# The pendulum texts open with _radial's values written out: the guard sits
# in r, which every result reads, and a NaN radius passes it as in _radial.
_PENDULUM_PROLOGUE = """\
    x, y, vx, vy = st
    h = hypot(x, y)
    r = _origin() if h < r_min else h
    ex, ey = x / r, y / r
"""

# The texts read ng = -g and neps = -eps, bound when a field is built, so no
# stage negates a constant.  The bits are those of -k * ex and -g - k * ey
# with k = rdot / eps: IEEE negation and division are sign-exact, so nk is
# -k and nk * ey is -(k * ey), and x - y is x + (-y).  The heavy mass's
# inverse mass matrix is I - e e^T / (1 + eps) in closed form, so its k is
# (|v_perp|^2 / r - g ey) / (1 + eps), with no solve.
_PENDULUM_TEXTS = {
    "potential": f"""
def pendulum_potential(st):
{_PENDULUM_PROLOGUE}    nk = (r - 1.0) / neps
    return (vx, vy, nk * ex, ng + nk * ey)
""",
    "friction": f"""
def pendulum_friction(st):
{_PENDULUM_PROLOGUE}    rdot = ex * vx + ey * vy
    nk = rdot / neps
    return (vx, vy, nk * ex, ng + nk * ey)
""",
    "inertial": f"""
def pendulum_inertial(st):
{_PENDULUM_PROLOGUE}    rdot = ex * vx + ey * vy
    nk = ((vx * vx + vy * vy - rdot * rdot) / r + ng * ey) / (neps - 1.0)
    return (vx, vy, nk * ex, ng + nk * ey)
""",
}

PENDULUM_VARIANTS = tuple(_PENDULUM_TEXTS)

# gravity less its radial part gr e_r, less the centripetal |v|^2 / r e_r
_PENDULUM_NH = f"""
def pendulum_nh(st):
{_PENDULUM_PROLOGUE}    gr = ng * ey
    c = (vx * vx + vy * vy) / r
    return (vx, vy, -gr * ex - c * ex, (ng - gr * ey) - c * ey)
"""

# the names the pendulum texts read besides ng and neps
_RADIUS = {"hypot": math.hypot, "_origin": _origin, "r_min": _R_MIN}


def make_pendulum(variant: str, p: PendulumParams, eps: float) -> Callable:
    """Unit-mass planar pendulum realizations on states (x, y, xdot, ydot).

    variant "potential": stiff radial spring (r - 1)^2 / (2 eps) keeps the
    mass near the unit circle.  variant "friction": radial Rayleigh
    friction rdot^2/(2 eps) damps motion off concentric circles.  variant
    "inertial": a heavy radial mass term rdot^2/(2 eps) slows radial
    motion; its mass matrix I + e_r e_r^T / eps is inverted in closed form,
    as I - e_r e_r^T / (1 + eps).  eps must be positive and finite.
    """
    if variant not in PENDULUM_VARIANTS:
        raise ValueError(f"unknown pendulum variant {variant!r}")
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    return straight_line(_PENDULUM_TEXTS[variant], ng=-p.g, neps=-eps, **_RADIUS)


def pendulum_nh_field(p: PendulumParams) -> Callable:
    """Limit dynamics on concentric circles: tangential gravity only plus
    the centripetal acceleration that keeps r constant."""
    return straight_line(_PENDULUM_NH, ng=-p.g, **_RADIUS)


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

    A Rayleigh friction realization is declared once, as ``realization``,
    with its eps-free ``relaxation_rate`` in closed form; the ``fast`` model
    derives from the realization and the friction model's rk4 step check
    from the rate.  A realization without a Rayleigh form declares the rate
    of its stiff oscillation instead, for the same check.  An
    ``adapted_frame`` comes with its constant ``change_of_frame`` from the
    realization's frame, from which the frame-state, reduce and lift maps
    derive in closed form; without one the friction and constrained states
    share one layout.  The rate refuses a chart metric, and the change an
    adapted frame, whose condition number exceeds geometry.COND_LIMIT, with
    the generic checks' exception and message.  A chart row that no rate
    of the friction field reads (the sleigh's x and y: it is invariant
    under translations of the plane) is left out of ``compare`` and
    ``manifold`` runs, NaN in their samples, so the nh model and the
    ``slow_graph`` must not read it either; a report that reads one exits
    4.  An adapted frame with a ``slow_graph``, its first-order graph in
    closed form, has ``manifold`` support.
    """

    param_defaults: dict
    models: dict
    # (params: dict, friction-model state) -> total energy, used to flag
    # runs started outside the moderate-energy regime in the reports
    energy_of_state: Callable
    # (params: dict) -> (system, frame, friction): the friction model's
    # state is (q, w) with w the components of qdot in this frame
    realization: Callable = None
    # (params: dict) -> the realization's fast rate at eps = 1, the largest
    # eigenvalue of kappa^{-1} nu, the same at every q
    relaxation_rate: Callable = None
    # (params: dict) -> adapted orthogonal frame
    adapted_frame: Callable = None
    # (params: dict) -> (change, inverse): the realization's frame times
    # change is the adapted frame, at every q
    change_of_frame: Callable = None
    # (params: dict) -> ExpansionData: the graph eta = eps h1(q, xi) of the
    # slow manifold to first order, in the adapted frame
    slow_graph: Callable = None
    # eps -> angular frequency of the friction model's stiff oscillation,
    # for a realization without a Rayleigh form
    oscillation_rate: Callable = None

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
        layout of the adapted frame: identity on q, and the inverse change
        of frame on the velocities."""
        _, inverse = self.change_of_frame(params)
        n = len(inverse)
        m = np.eye(2 * n)
        m[n:, n:] = inverse
        return m

    def reduce_matrix(self, params: dict) -> np.ndarray:
        """Friction-model state -> reduced state (q, xi): the first n + k
        rows of the frame-state map, which drop the slip components eta."""
        m = self.frame_state_matrix(params)
        return m[: len(m) // 2 + self.adapted_frame(params).k]

    def lift_state(self, params: dict, reduced_state) -> np.ndarray:
        """Reduced state (q, xi) -> friction-model state with zero slip:
        q, then the velocities change @ (xi, 0).  Without an adapted frame
        the two states share one layout."""
        reduced = np.asarray(reduced_state, dtype=float)
        if self.adapted_frame is None:
            return reduced
        change, _ = self.change_of_frame(params)
        n = len(change)
        return np.concatenate([reduced[:n], change[:, : len(reduced) - n] @ reduced[n:]])


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
        param_defaults=asdict(SleighParams()),
        models=models,
        energy_of_state=energy_of,
        realization=realization,
        relaxation_rate=lambda params: sleigh_relaxation_rate(SleighParams(**params)),
        adapted_frame=lambda params: sleigh_ortho_frame(SleighParams(**params)),
        change_of_frame=lambda params: sleigh_change_of_frame(SleighParams(**params)),
        slow_graph=lambda params: sleigh_slow_graph(SleighParams(**params)),
    )


def _pendulum_entry(variant: str) -> SystemEntry:
    columns = ("x", "y", "vx", "vy")
    state = tuple(pendulum_default_state())

    models = {
        "nh": ModelSpec(
            columns=columns,
            needs_eps=False,
            build=lambda params, eps: pendulum_nh_field(PendulumParams(**params)),
            default_state=state,
        ),
        # "friction" selects the eps-scaled realization field of this
        # variant (stiff potential / radial friction / heavy radial mass).
        "friction": ModelSpec(
            columns=columns,
            needs_eps=True,
            build=lambda params, eps: make_pendulum(variant, PendulumParams(**params), eps),
            default_state=state,
        ),
    }

    def realization(params):  # (x, y, vx, vy): the identity (chart) frame
        p = PendulumParams(**params)
        chart = MovingFrame(1, lambda q: np.eye(2), lambda q: np.zeros((2, 2, 2)))
        return pendulum_system(p), chart, pendulum_friction_form(p)

    # the constrained energy, without the realization's eps terms (the
    # spring's (r-1)^2/(2 eps), the radial mass's rdot^2/(2 eps)): a report
    # echoes one initial energy per ladder, and these change with eps
    def energy_of(params, state):
        g = PendulumParams(**params).g
        return 0.5 * float(state[2] ** 2 + state[3] ** 2) + g * float(state[1])

    return SystemEntry(
        param_defaults=asdict(PendulumParams()),
        models=models,
        energy_of_state=energy_of,
        realization=realization if variant == "friction" else None,
        # unit mass, unit radial friction: kappa^{-1} nu = e_r e_r^T
        relaxation_rate=(lambda params: 1.0) if variant == "friction" else None,
        # the radial spring: stiffness 1/eps at unit mass
        oscillation_rate=(
            (lambda eps: 1.0 / math.sqrt(eps)) if variant == "potential" else None
        ),
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
