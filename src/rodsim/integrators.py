"""Time-stepping schemes: the purely numerical baseline and the semi-analytic one.

The baseline discretizes all six scalar equations with central differences in
space and forward Euler in time; the compatibility relation and the two
collinearity constraints are not enforced, so they drift. The semi-analytic
scheme keeps the state on the collinear manifold of the closed-form solution
family: the three vectors share one direction angle, so the collinearity
constraints hold exactly by representation, and the spatial structure of the
velocity compatibility relation is enforced by integrating the angle along
the rod.

Both schemes impose the moment-free condition m = 0 (zero curvature) at free
ends in addition to the clamped-end velocity signals. A step returns only the
next state; ``drift_norms`` and ``rod_model.energy`` measure a state of either
kind when the caller asks. A state with a rod axis steps K rods at once; the
projection threshold, the energy and the drift norms are then taken rod by
rod, and a rod that blows up leaves the others' bits as they would be alone.

A step works on one packed array per state, (6, K, N) for a RodState and
(4, K, N) for a ManifoldState (``rod_model._GridState._packed``). The cores
``_steps_pure`` and ``_steps_semi`` fill a block of B steps, (B + 1, C, K, N),
from its first state, on one ``_Workspace`` made per block, each a list of
calls to one set of stages: ``_momentum`` (contact force and angular
velocity), ``_curvature`` (zero at free ends) and ``_clamp``, and in the semi
core ``_projection`` and ``_angle_integration``. A core ends with one
residual check of its block's contact-force solves (``check_tridiag``),
which raises SingularSystemError. The public functions run a core on a block
of one step, with the same bits as ``scenarios.simulate_rod``. A rod that
blows up gets non-finite rows, which the residual check leaves out and
``_nonfinite_rods`` finds: the public steps raise DivergenceError naming them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InputError, InstabilityError
from .grid_fields import _diff_last, central_diff, check_tridiag
from .rod_model import (
    BoundaryConditions,
    Loads,
    MaterialParams,
    RodState,
    _GridState,
    _contact_force,
    _contact_operator,
    _drift_norms,
    _loads_at,
    _zero_signal,
)

__all__ = [
    "ManifoldState",
    "drift_norms",
    "lift",
    "project",
    "step_pure_numeric",
    "step_semi_analytic",
    "max_stable_dt",
]


@dataclass
class ManifoldState(_GridState):
    """Collinear state: a direction angle plus signed magnitudes, (N,) or (N, K)."""

    angle: np.ndarray
    curv_mag: np.ndarray
    ang_mag: np.ndarray
    vel_mag: np.ndarray


def _direction(angle: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """The unit vectors (cos, sin) of the angles, component first, into ``out``."""
    e = np.empty((2,) + np.shape(angle)) if out is None else out
    np.cos(angle, out=e[0])
    np.sin(angle, out=e[1])
    return e


def _lift(m: np.ndarray, out: np.ndarray = None, direction: np.ndarray = None) -> np.ndarray:
    """The packed raw state (6, K, N) of a packed manifold state, into a
    contiguous ``out``, with its unit vectors into ``direction``."""
    out = np.empty((6,) + m.shape[1:]) if out is None else out
    np.multiply(m[1:, None], _direction(m[0], direction), out=out.reshape((3, 2) + m.shape[1:]))
    return out


def lift(m: ManifoldState) -> RodState:
    """Expand a collinear state into the raw vector representation."""
    return RodState._from_packed(m.grid, _lift(m._packed()), m._batched)


def _project(fields: np.ndarray, prev_angle: np.ndarray, eps, out: np.ndarray = None,
             direction: np.ndarray = None) -> np.ndarray:
    """The angle and one magnitude per field, (1 + F, K, N), into ``out``, of
    a stack of F packed 2-vector fields (2F, K, N) whose last pair is the
    linear velocity; ``prev_angle`` and ``eps`` broadcast against (K, N), and
    ``direction`` takes the unit vectors."""
    v0, v1 = fields[-2], fields[-1]
    m = np.empty((1 + len(fields) // 2,) + v0.shape) if out is None else out
    m[0] = np.where(np.hypot(v0, v1) > eps, np.arctan2(v1, v0), prev_angle)
    np.einsum("fjkn,jkn->fkn", fields.reshape((-1, 2) + v0.shape),
              _direction(m[0], direction), out=m[1:])
    return m


def project(r: RodState, prev_angle: np.ndarray, eps) -> ManifoldState:
    """Project a raw state onto the collinear manifold.

    The direction angle follows the linear velocity where its magnitude
    exceeds ``eps`` (a float, or one per rod); below that the previous angle
    is carried through. Normal components of all three fields are discarded.
    """
    eps = np.asarray(eps)
    if not (eps > 0.0).all():
        raise InputError("projection threshold must be positive")
    if not np.isfinite(prev_angle).all():
        raise InputError("previous angle contains non-finite entries")
    m = _project(r._packed(), np.asarray(prev_angle, float).T, eps[..., None])
    return ManifoldState._from_packed(r.grid, m, r._batched)


def drift_norms(state):
    """Max-norms (R4, R5, R6) of a RodState or ManifoldState
    (``rod_model._drift_norms``).

    On the manifold the three vectors share one direction, so R5 and R6 are
    zero by representation; R4 is measured on the lifted vectors. Each norm
    is a float for one rod and an array of K norms for K rods.
    """
    collinear = isinstance(state, ManifoldState)
    raw = _lift(state._packed()) if collinear else state._packed()
    norms = _drift_norms(raw, state.grid.spacing, collinear)
    return tuple(norms if state._batched else norms[:, 0])


def _nonfinite_rods(packed: np.ndarray) -> np.ndarray:
    """The (..., K) mask of rods with a non-finite entry in packed states
    (..., C, K, N)."""
    if np.isfinite(packed).all():  # the common case, one pass
        return np.zeros(packed.shape[:-3] + packed.shape[-2:-1], bool)
    return ~np.isfinite(packed).all(axis=(-3, -1))


def _end_nodes(bc: BoundaryConditions, kind: str, n: int) -> slice:
    """The node slice of the ends of a kind: node 0, node N-1, both or none."""
    base, tip = bc.base == kind, bc.tip == kind
    return slice(0 if base else n - 1, n if tip else 1, n - 1)  # neither: empty, as n > 2


def _signals(bc: BoundaryConditions, name: str, ends, times, rods: int) -> np.ndarray:
    """The boundary signal ``name`` ("lin_vel", "ang_vel" or "lin_acc") of
    each end in ``ends`` at ``times`` (B,), (B, 2, rods, len(ends)). A
    ``_zero_signal`` (a static clamp) leaves its zero rows without a call;
    any other signal is called once per time, and a value that does not
    broadcast to the end's (rods, 2) is an InputError."""
    table = np.zeros((len(times), 2, rods, len(ends)))
    for e, end in enumerate(ends):
        signal = getattr(bc, f"{end}_{name}")
        if signal is _zero_signal:
            continue
        for value, t in zip(table[..., e].transpose(0, 2, 1), times):  # each (rods, 2)
            try:
                value[...] = signal(t)
            except (TypeError, ValueError) as err:
                raise InputError(f"boundary signal {end}_{name} at t={t:.6g} is not a "
                                 f"2-vector for each of {rods} rod(s): {err}") from None
    return table


class _Workspace:
    """A block of B steps of K rods: its tables and its stages' (…, K, N)
    buffers. ``clamps`` (B, 4, K, E) holds the angular then linear velocity of
    the ``clamped`` ends at each step's end, ``ends`` (B, 2, K, 2) the
    contact-force end rows at each step's time, ``df`` f' / rho A or None."""

    def __init__(self, params, bc, grid, f, times, dt, rods):
        n, self.ds = grid.node_count, grid.spacing
        self.params, self.f, self.dt = params, f, dt
        self.factors = _contact_operator(params, bc.base, bc.tip)
        self.clamped, self.free = _end_nodes(bc, "clamped", n), _end_nodes(bc, "free", n)
        clamped = [end for end in ("base", "tip") if getattr(bc, end) == "clamped"]
        self.clamps = np.concatenate([_signals(bc, name, clamped, times + dt, rods)
                                      for name in ("ang_vel", "lin_vel")], axis=1)
        self.ends = np.zeros((len(times), 2, rods, 2))  # n = 0 at a free end
        for e, end in enumerate(("base", "tip")):
            if end in clamped:  # n' = -f + rho A * lin_acc, node 0 or -1
                acc = _signals(bc, "lin_acc", (end,), times, rods)[..., 0]
                self.ends[..., e] = -f[..., -e] + params.rho_A * acc
        # A zero force's derivative is +0.0, and x - 0.0 is x: none is subtracted.
        self.df = central_diff(f.T, self.ds).T / params.rho_A if f.any() else None
        # The pure core stacks its stencil input in ``velocities``.
        self.lifted, self.derivatives, self.velocities, self.direction, self.torque = (
            np.empty((c, rods, n)) for c in (6, 4, 4, 2, 2))
        self.slope, self.increments = np.empty((rods, n)), np.empty((rods, n - 1))


def _momentum(w, dm, ang_vel, l, i, n, rhs, out):
    """The momentum stage of step i: from m' (``dm``) and the couple ``l``,
    the contact force into ``n`` (right-hand side into ``rhs``) and the
    forward-Euler angular velocity ang_vel + dt (m' + adiag(n) + l) / rho I
    into ``out``, with adiag(n) = (n1, -n0) (x + (-y) is x - y to the bit)."""
    _contact_force(dm, l, w.df, w.ends[i], w.params, w.factors, n, rhs)
    torque = w.torque
    np.add(dm[0], n[1], out=torque[0])
    np.subtract(dm[1], n[0], out=torque[1])
    torque += l
    torque *= w.dt
    torque /= w.params.rho_I
    np.add(ang_vel, torque, out=out)


def _curvature(w, old, derivative, out):
    """The curvature stage: old + dt derivative into ``out``, scaling
    ``derivative`` in place, and zero at free ends, which carry no bending
    moment: else the energy flux m·ω through one feeds a spurious instability."""
    derivative *= w.dt
    np.add(old, derivative, out=out)
    out[..., w.free] = 0.0


def _clamp(w, velocities, values):
    """The clamp rule: ``values`` (rows of w.clamps) at the clamped ends."""
    velocities[..., w.clamped] = values


def _velocity_increment(w, dn):
    """dt (n' + f) / rho A in place of n' (``dn``) of one or more steps."""
    dn += w.f
    dn *= w.dt
    dn /= w.params.rho_A
    return dn


def _linear_velocities(w, block, forces):
    """The pure linear velocity of a block, which feeds nothing back: its
    steps' increments from one stencil pass, added step by step, clamped."""
    increments = _velocity_increment(w, _diff_last(forces, w.ds, np.empty_like(forces)))
    for i, increment in enumerate(increments):
        np.add(block[i, 4:6], increment, out=block[i + 1, 4:6])
    _clamp(w, block[1:, 4:6], w.clamps[:, 2:])


def _velocities(w, m, l, i, n, rhs):
    """The semi step's velocities into w.velocities: the momentum stage on the
    lifted m, then the linear velocity, then one clamp of all four rows."""
    raw = _lift(m, w.lifted, w.direction)
    dm, dn = w.derivatives[:2], w.derivatives[2:]
    _diff_last(np.multiply(w.params.EI, raw[0:2], out=w.torque), w.ds, dm)
    _momentum(w, dm, raw[2:4], l, i, n, rhs, w.velocities[:2])
    np.add(raw[4:6], _velocity_increment(w, _diff_last(n, w.ds, dn)), out=w.velocities[2:])
    _clamp(w, w.velocities, w.clamps[i])


def _projection(w, m, new):
    """The velocities' magnitudes into new[2:4], along the linear velocity
    where its magnitude exceeds w.eps, 1e-8 of the rod's largest component,
    and along m's angle elsewhere; new[1] holds that angle."""
    w.eps = np.maximum(1e-8 * np.abs(w.velocities[2:]).max(axis=(0, 2)), 1e-300)[:, None]
    _project(w.velocities, m[0], w.eps, new[1:], w.direction)


def _angle_integration(w, m, new):
    """The angle into new[0], the slope -ang_mag / vel_mag integrated from
    the base node, which turns by dt ang_mag; every interval next to a node
    in the projection's dead zone keeps m's increment."""
    ang_mag, vel_mag = new[2], new[3]
    ok = np.abs(vel_mag) > w.eps
    incr = w.increments
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.negative(ang_mag, out=w.slope)
        slope /= vel_mag
        np.add(slope[:, 1:], slope[:, :-1], out=incr)
        incr *= 0.5 * w.ds
    np.subtract(m[0, :, 1:], m[0, :, :-1], out=incr, where=~(ok[:, 1:] & ok[:, :-1]))
    angle = new[0]
    angle[:, 0] = 0.0
    np.cumsum(incr, axis=1, out=angle[:, 1:])
    angle += m[0, :, :1] + w.dt * ang_mag[:, :1]


def _steps_pure(block, solves, params, bc, grid, f, couples, times, dt):
    """``step_pure_numeric`` on a block of packed raw states: fill block[1:]
    from block[0], step i at times[i] under the couple couples[i], into
    ``solves`` (2, B, 2, K, N) the steps' contact forces and right-hand sides."""
    w = _Workspace(params, bc, grid, f, times, dt, block.shape[2])
    forces, rhs = solves
    stack, derivatives = w.velocities, w.derivatives
    for i, l in enumerate(couples):
        raw, new = block[i], block[i + 1]
        # One stencil pass over the bending couple and the angular velocity.
        np.multiply(params.EI, raw[0:2], out=stack[:2])
        stack[2:] = raw[2:4]
        _diff_last(stack, w.ds, derivatives)
        _curvature(w, raw[0:2], derivatives[2:], new[0:2])
        _momentum(w, derivatives[:2], raw[2:4], l, i, forces[i], rhs[i], new[2:4])
        _clamp(w, new[2:4], w.clamps[i, :2])
    _linear_velocities(w, block, forces)
    check_tridiag(w.factors, forces, rhs)


def _steps_semi(block, solves, params, bc, grid, f, couples, times, dt):
    """``step_semi_analytic`` on a block of packed manifold states, as
    ``_steps_pure`` does, the curvature advanced from the new ang_mag."""
    w = _Workspace(params, bc, grid, f, times, dt, block.shape[2])
    forces, rhs = solves
    for i, l in enumerate(couples):
        m, new = block[i], block[i + 1]
        _velocities(w, m, l, i, forces[i], rhs[i])
        _projection(w, m, new)
        _angle_integration(w, m, new)
        _curvature(w, m[1], _diff_last(new[2], w.ds, w.slope), new[1])
    check_tridiag(w.factors, forces, rhs)


def _step(steps, state, params, loads, bc, t, dt):
    """Run the block core ``steps`` on a public state on the material's grid,
    as a block of one: pack, evaluate the loads, step, raise DivergenceError
    naming the rods whose new rows are not all finite, unpack."""
    if not dt > 0.0:
        raise InputError("dt must be positive")
    grid = state.grid
    if grid != params.grid():  # the contact-force factors are on the material's grid
        raise InputError(f"state grid {grid} differs from the material's {params.grid()}")
    f, l = (v.T for v in _loads_at(loads, t, grid))
    block = np.stack([state._packed()] * 2)  # the state, then the step's
    solves = np.empty((2, 1, 2) + block.shape[2:])
    steps(block, solves, params, bc, grid, f, l[None], np.array([t]), dt)
    bad = _nonfinite_rods(block[1])
    if bad.any():
        raise DivergenceError("a time step produced non-finite values",
                              rods=np.flatnonzero(bad))
    return type(state)._from_packed(grid, block[1], state._batched)


def step_pure_numeric(
    state: RodState,
    params: MaterialParams,
    loads: Loads,
    bc: BoundaryConditions,
    t: float,
    dt: float,
) -> RodState:
    """Forward-Euler step of the raw scheme; constraints drift freely.

    All right-hand sides are evaluated at the pre-step state (simultaneous
    update). Raises DivergenceError if the step produces non-finite values.
    """
    return _step(_steps_pure, state, params, loads, bc, t, dt)


def step_semi_analytic(
    m: ManifoldState,
    params: MaterialParams,
    loads: Loads,
    bc: BoundaryConditions,
    t: float,
    dt: float,
) -> ManifoldState:
    """One step of the semi-analytic scheme on the collinear manifold.

    Stages: lift to vectors; forward-Euler update of the momentum balances;
    projection back to the manifold (direction from the updated velocity);
    exact spatial reconstruction of the angle by integrating
    d(angle)/ds = -ang_mag / vel_mag from the base; scalar advection of the
    curvature magnitude. Collinearity holds exactly by representation.
    Raises DivergenceError if the step produces non-finite values. The
    projection threshold ``eps`` is 1e-8 of each rod's largest velocity
    component.
    """
    return _step(_steps_semi, m, params, loads, bc, t, dt)


def max_stable_dt(is_stable, dt_min: float, dt_max: float) -> float:
    """Largest stable step size by bisection on log(dt).

    ``is_stable(dt)`` must run the candidate step size over the assessment
    horizon and report a boolean. The lower bound must itself be stable:
    if it is not, that is a finding about the scheme, not about the input,
    and ``InstabilityError`` is raised. Terminates once the bracket is within
    0.05 in log space.
    """
    if not (0.0 < dt_min < dt_max):
        raise InputError("need 0 < dt_min < dt_max")
    if not is_stable(dt_min):
        raise InstabilityError(f"lower bound dt = {dt_min} is already unstable")
    if is_stable(dt_max):
        return dt_max
    lo, hi = dt_min, dt_max
    while math.log(hi / lo) > 0.05:
        mid = math.sqrt(lo * hi)
        if is_stable(mid):
            lo = mid
        else:
            hi = mid
    return lo
