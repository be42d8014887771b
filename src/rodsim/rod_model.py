"""Physical rod description: parameters, state, internal-force closures, output.

The planar Kirchhoff state consists of three 2-vector fields on a uniform
arclength grid: curvature, angular velocity and linear velocity, all expressed
in the director frame. The internal couple follows a linear isotropic bending
law; the internal (contact) force is a constraint reaction recovered each step
from a linear boundary-value problem. Rods of one material on one grid can
share a state with a rod axis between the node and component axes.

A step packs a state into one array, components and rods first and nodes
last (``_GridState._packed``), which ``_contact_force``, ``_energy`` and
``_drift_norms`` take. The momentum stage of both step cores
(``integrators._momentum``) solves for the contact force with the factors of
``_contact_operator``, which each block of steps looks up once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ConfigurationError, InputError, SingularSystemError
from .grid_fields import (
    Grid1D,
    TridiagFactors,
    _diff_last,
    _gttrs,
    factor_tridiag,
)

__all__ = [
    "MaterialParams",
    "RodState",
    "Loads",
    "BoundaryConditions",
    "adiag",
    "energy",
    "reconstruct_centerline",
]

_ADIAG_SIGNS = np.array([1.0, -1.0])


def adiag(v: np.ndarray) -> np.ndarray:
    """Apply the antidiagonal matrix [[0, 1], [-1, 0]] to 2-vectors (last axis)."""
    return v[..., ::-1] * _ADIAG_SIGNS


def _drift_norms(raw: np.ndarray, spacing: float, collinear: bool) -> np.ndarray:
    """Max-norms (3, K) over the nodes of a packed raw state's constraint
    residuals, R4, R5 and R6 per rod.

    R4 is the velocity compatibility residual lin_vel' - adiag(ang_vel), R5
    and R6 the collinearity of the angular and linear velocity with the
    curvature. A ``collinear`` state (a lifted manifold state) has R5 = R6 = 0
    by representation; they are set, not computed.
    """
    norms = np.zeros((3,) + raw.shape[1:2])
    r4 = _diff_last(raw[4:6], spacing, np.empty((2,) + raw.shape[1:]))
    r4[0] -= raw[3]  # adiag(w) = (w1, -w0), and x - (-y) is x + y
    r4[1] += raw[2]
    norms[0] = np.abs(r4, out=r4).max(axis=(0, -1))
    if not collinear:
        norms[1] = np.abs(raw[2] * raw[1] - raw[3] * raw[0]).max(axis=-1)
        norms[2] = np.abs(raw[4] * raw[1] - raw[5] * raw[0]).max(axis=-1)
    return norms


@dataclass(frozen=True)
class MaterialParams:
    """Material and discretization constants of a single rod."""

    rho: float          # mass density
    area: float         # cross-section area
    moment: float       # second moment of area
    EI: float           # bending stiffness per curvature component
    length: float
    nodes: int

    def __post_init__(self):
        for name in ("rho", "area", "moment", "EI", "length"):
            if not getattr(self, name) > 0.0:
                raise InputError(f"{name} must be strictly positive")
        if self.nodes < 3:
            raise InputError(f"need at least 3 nodes, got {self.nodes}")

    @property
    def rho_A(self) -> float:
        return self.rho * self.area

    @property
    def rho_I(self) -> float:
        return self.rho * self.moment

    def grid(self) -> Grid1D:
        return Grid1D(self.length, self.nodes)


@dataclass
class _GridState:
    """Fields on a rod's grid, each (N, *component) for one rod or
    (N, K, *component) for K rods; the first field's shape decides which.

    Subclasses are dataclasses whose fields after ``grid`` are the arrays,
    and set ``_component``, the trailing shape of each field.
    """

    grid: Grid1D
    _component = ()

    def __post_init__(self):
        names = [f.name for f in fields(self)][1:]
        first = np.shape(getattr(self, names[0]))
        rods = first[1:len(first) - len(self._component)][:1]  # () or (K,)
        shape = (self.grid.node_count, *rods, *self._component)
        for name in names:
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise InputError(f"{name} must have shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise InputError(f"{name} contains non-finite entries")
            setattr(self, name, arr)

    @classmethod
    def zero(cls, grid: Grid1D, rods: int = None):
        """The all-zero state, with a rod axis of ``rods`` rods when given."""
        rod_axis = () if rods is None else (rods,)
        shape = (grid.node_count, *rod_axis, *cls._component)
        return cls(grid, *(np.zeros(shape) for _ in fields(cls)[1:]))

    @property
    def _batched(self) -> bool:
        """Whether the fields carry a rod axis."""
        _, first, *_ = vars(self).values()  # in field order, grid first
        return first.ndim > 1 + len(self._component)

    def _packed(self) -> np.ndarray:
        """The fields in the stepping layout, (C, K, N): each field's
        components in turn, then rods (K = 1 without a rod axis), nodes last."""
        grid, *arrays = vars(self).values()
        width = math.prod(self._component)
        node_first = [a.reshape(grid.node_count, -1, width) for a in arrays]
        return np.concatenate(node_first, axis=-1).T.copy()

    @classmethod
    def _from_packed(cls, grid: Grid1D, packed: np.ndarray, batched: bool = True):
        """The state of views into a ``_packed`` array, without its rod axis
        unless ``batched``. Built without ``__post_init__``: states are checked
        where they enter, and the steppers check what they compute."""
        width = math.prod(cls._component)
        shape = (grid.node_count, *packed.shape[1:2 if batched else 1], *cls._component)
        state = object.__new__(cls)
        views = (packed[i:i + width].T.reshape(shape) for i in range(0, len(packed), width))
        vars(state).update(zip(cls.__dataclass_fields__, (grid, *views)))
        return state


@dataclass
class RodState(_GridState):
    """Curvature, angular and linear velocity 2-vector fields, (N, 2) or (N, K, 2)."""

    curvature: np.ndarray
    ang_vel: np.ndarray
    lin_vel: np.ndarray
    _component = (2,)


def _zero_load(s, t):
    return np.zeros((np.shape(s)[0], 2))


@dataclass
class Loads:
    """Distributed force and couple per unit length, as callables (s_array, t).

    An (N, K, 2) value loads K rods one by one; anything else acts on all alike.
    """

    force: Callable = _zero_load
    couple: Callable = _zero_load


def _zero_signal(t):
    return np.zeros(2)


@dataclass
class BoundaryConditions:
    """End conditions: each end is either clamped (velocities prescribed) or free.

    For clamped ends the prescribed linear/angular velocity time signals and
    the time derivative of the linear velocity are required (zero for a static
    clamp).
    """

    base: str = "clamped"
    tip: str = "free"
    base_lin_vel: Callable = _zero_signal
    base_ang_vel: Callable = _zero_signal
    base_lin_acc: Callable = _zero_signal
    tip_lin_vel: Callable = _zero_signal
    tip_ang_vel: Callable = _zero_signal
    tip_lin_acc: Callable = _zero_signal

    def __post_init__(self):
        for end, kind in (("base", self.base), ("tip", self.tip)):
            if kind not in ("clamped", "free"):
                raise ConfigurationError(f"{end} must be 'clamped' or 'free'")


@lru_cache(maxsize=16)
def _contact_operator(params: MaterialParams, base: str, tip: str) -> TridiagFactors:
    """Factor the contact-force matrix of ``_contact_force``, shared by both
    force components, on the grid of ``params``.

    The matrix depends only on the material, its grid and the end kinds, so
    a run factors it once. Coefficients 1/(rho A ds**2) and 1/(rho I) that
    overflow, or whose products in the elimination do, are an InputError
    naming the material keys; that and a singular matrix raise every time the
    operator is requested (nothing is cached). With both ends free a failed
    factorization is a ConfigurationError.
    """
    nodes = params.nodes
    ds = params.length / (nodes - 1)
    try:
        a_off = 1.0 / (params.rho_A * ds**2)
        scale = max(a_off, 1.0 / params.rho_I)
    except (OverflowError, ZeroDivisionError):
        scale = math.inf
    if not math.isfinite(scale):
        raise _overflowing_material(params)
    lower = np.full(nodes - 1, a_off)
    upper = np.full(nodes - 1, a_off)
    diag = np.full(nodes, -2.0 * a_off + 1.0 / params.rho_I)
    if base == "free":
        diag[0], upper[0] = 1.0, 0.0
    else:
        diag[0], upper[0] = -1.0 / ds, 1.0 / ds
    if tip == "free":
        diag[-1], lower[-1] = 1.0, 0.0
    else:
        diag[-1], lower[-1] = 1.0 / ds, -1.0 / ds
    try:
        with np.errstate(all="ignore"):  # a failed elimination raises below
            return factor_tridiag(lower, diag, upper)
    except SingularSystemError as err:
        if base == "free" and tip == "free":
            raise ConfigurationError(
                "contact-force system singular with both ends free "
                f"(incompatible loads); pivot row {err.row}"
            ) from err
        if not math.isfinite(a_off * a_off):  # elimination multiplies lower and upper
            raise _overflowing_material(params) from err
        raise


def _overflowing_material(params: MaterialParams) -> InputError:
    return InputError(
        "the contact-force coefficients 1/(rho*area*ds**2) and 1/(rho*moment), "
        f"ds = length/(nodes - 1), overflow for material.rho={params.rho!r}, "
        f"material.area={params.area!r}, material.moment={params.moment!r}, "
        f"material.length={params.length!r} and material.nodes={params.nodes}")


def _loads_at(loads: Loads, t: float, grid: Grid1D):
    """The distributed force f and couple l at time t, each with a rod axis.

    A load value of shape (N, K, 2) acts rod by rod; any other value is
    broadcast to (N, 2) and acts on every rod alike, through a rod axis of
    length 1.
    """

    def shaped(load):
        value = np.asarray(load(grid.nodes, t), float)
        if value.ndim == 3:
            return value
        return np.broadcast_to(value, (grid.node_count, 2))[:, None]

    return shaped(loads.force), shaped(loads.couple)


def _contact_force(dm, l, df, ends, params, factors, n, rhs):
    """Recover the internal contact force as a constraint reaction.

    Time-differentiating the velocity compatibility relation and substituting
    the momentum balances yields a linear two-point boundary-value problem for
    the force field:

        (1/rho A) n'' + (1/rho I) n = (1/rho I) adiag(m' + l) - (1/rho A) f',

    discretized with central differences. ``dm`` is m', the arclength
    derivative of the bending couple, and ``l`` the distributed couple, both
    packed, (2, ..., N); ``df`` is f' / rho A, or None for a zero force.
    Both components share one scalar tridiagonal matrix, whose ``factors``
    (``_contact_operator``) the caller looks up. Free ends impose n = 0;
    clamped ends impose n' = -f + rho A * (d/dt prescribed linear velocity):
    the end rows ``ends`` (2, K, 2), base then tip last. Writes the
    right-hand side into ``rhs`` and the force, unchecked (a blown-up state
    gives a non-finite force), into ``n``, both contiguous (2, K, N): LAPACK
    solves in place in n's transposed columns.
    """
    # adiag(v) = (v1, -v0), the sign moved to the divisor: (-v0) / c is v0 / (-c).
    np.add(dm[::-1], l[::-1], out=rhs)
    np.divide(rhs[0], params.rho_I, out=rhs[0])
    np.divide(rhs[1], -params.rho_I, out=rhs[1])
    if df is not None:
        rhs -= df
    rhs[..., ::rhs.shape[-1] - 1] = ends
    n[...] = rhs
    _gttrs(*factors.lu, n.reshape(-1, n.shape[-1]).T, overwrite_b=1)


def energy(state: _GridState, params: MaterialParams):
    """Kinetic plus bending energy of each rod, integrated with the trapezoid
    rule: a float for one rod, an array of K energies for K rods.

    A RodState or a ManifoldState: a collinear state's energy comes from its
    magnitudes, as the unit direction drops out of every squared norm, and
    agrees with the energy of its lifted vectors to rounding.
    """
    e = _energy(state._packed(), params, state.grid.spacing)
    return e if state._batched else e[0]


def _energy(packed: np.ndarray, params: MaterialParams, spacing: float) -> np.ndarray:
    """Per-rod energy (K,) of a packed RodState, or of a packed ManifoldState
    (angle and magnitudes: the unit direction drops out of every square).
    A stack of B packed states, (B, C, K, N), gives (B, K).

    The trapezoid rule sums the increments node by node, as ``cumtrapz``
    does, so a state's energy has the same bits alone and in a stack."""
    components = packed.swapaxes(0, -3)  # (C, ..., K, N)
    if len(components) == 4:
        curv2, ang2, vel2 = np.square(components[1:])
    else:  # the bits of np.sum(v**2, axis=-1) for 2-vectors, without a reduction
        squares = np.square(components)
        curv2, ang2, vel2 = squares[0::2] + squares[1::2]
    density = params.rho_A * vel2
    density += params.rho_I * ang2
    density += params.EI * curv2
    density *= 0.5
    increments = density[..., 1:] + density[..., :-1]
    increments *= 0.5 * spacing
    return np.cumsum(increments, axis=-1)[..., -1]


def _interval_operators(kappa: np.ndarray, ds: float):
    """Rotation and tangent step of every constant-curvature interval.

    Interval i carries the midpoint curvature (k1, k2) of nodes i and i+1, K
    its skew matrix [[0, 0, k2], [0, 0, -k1], [-k2, k1, 0]]; ``kappa`` is
    (N, ..., 2). Returns (exp(ds*K) (N-1, ..., 3, 3), V e3 (N-1, ..., 3))
    with V = integral_0^ds exp(sigma*K) dsigma, both in closed form
    (Rodrigues), so constant-curvature segments are exact; intervals turning
    less than 1e-8 rad use the Taylor coefficients instead. The entries of
    I + c1 K + c2 K**2 and c2 K e3 + c3 K**2 e3 + ds e3 are written out, each
    zero with the sign that the matrix sums give it.
    """
    mid = 0.5 * (kappa[:-1] + kappa[1:])
    k1, k2 = mid[..., 0], mid[..., 1]
    q1, q2 = k1 * k1, k2 * k2
    q = q1 + q2
    theta = np.sqrt(q)
    ang = theta * ds
    small = ang < 1e-8
    theta = np.where(small, 1.0, theta)
    sin_t = np.sin(ang) / theta
    c1 = np.where(small, ds, sin_t)
    c2 = np.where(small, 0.5 * ds**2, (1.0 - np.cos(ang)) / theta**2)
    c3 = np.where(small, ds**3 / 6.0, (ds - sin_t) / theta**2)
    rot = np.empty(mid.shape[:-1] + (3, 3))
    rot[..., 0, 0], rot[..., 1, 1], rot[..., 2, 2] = 1.0 - c2 * q2, 1.0 - c2 * q1, 1.0 - c2 * q
    rot[..., 0, 1] = rot[..., 1, 0] = 0.0 + c2 * (k1 * k2)
    rot[..., 0, 2], rot[..., 2, 0] = 0.0 + c1 * k2, 0.0 - c1 * k2
    rot[..., 2, 1], rot[..., 1, 2] = 0.0 + c1 * k1, 0.0 - c1 * k1
    zero = c3 * 0.0  # c3 times K**2 e3's zero entries
    step = np.stack([c2 * k2 + zero, zero - c2 * k1, ds - c3 * q], axis=-1)
    return rot, step


def reconstruct_centerline(curvature: np.ndarray, spacing: float,
                           base_position=(0.0, 0.0, 0.0)):
    """Integrate the director frame and centerline from the curvature field.

    The frame satisfies dR/ds = R * skew(k1, k2, 0); each interval uses the
    matrix exponential of the midpoint curvature, and the position update uses
    the exact tangent integral of that constant-curvature rotation. Returns
    (positions (N, 3), frames (N, 3, 3)); frame columns are the directors, the
    third column being the centerline tangent, and the base frame is the
    identity. An (N, ..., K, 2) curvature gives many rods at once, (N, ...,
    K, 3) positions and (N, ..., K, 3, 3) frames, rod k of each starting from
    row k of a (K, 3) ``base_position`` (or all from one shared (3,) base).
    """
    kappa = np.asarray(curvature, dtype=float)
    rot, step = _interval_operators(kappa, spacing)
    n = kappa.shape[0]
    frames = np.empty(kappa.shape[:-1] + (3, 3))
    frames[0] = np.eye(3)
    views = list(frames.reshape(n, -1, 3, 3))
    for prev, r, nxt in zip(views, rot.reshape(n - 1, -1, 3, 3), views[1:]):
        np.matmul(prev, r, out=nxt)
    positions = np.empty(kappa.shape[:-1] + (3,))
    positions[0] = np.asarray(base_position, dtype=float)
    positions[1:] = np.einsum("...ij,...j->...i", frames[:-1], step)
    np.cumsum(positions, axis=0, out=positions)
    return positions, frames
