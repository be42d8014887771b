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
(4, K, N) for a ManifoldState (``rod_model._GridState._packed``): every
component is a contiguous block. The cores ``_steps_pure`` and ``_steps_semi``
fill a block of B steps, (B + 1, C, K, N), from its first state, taking the
loads already evaluated as packed arrays. Each looks up the contact-force
factors (``rod_model._contact_operator``) once, fills a (2, B, 2, K, N)
buffer with its steps' contact forces and right-hand sides, and ends with one
residual check of them all (``grid_fields.check_tridiag``), which raises
SingularSystemError. The public functions pack, evaluate the loads, run the
core that ``scenarios.simulate_rod`` steps with on a block of one step, and
unpack; both give the same bits, and ``simulate_rod`` measures its frames on
the packed array as ``drift_norms`` does. A rod that blows up gets non-finite
rows, which the residual check leaves out and ``_nonfinite_rods`` finds:
``simulate_rod`` once per block of steps, the public steps at each step,
raising DivergenceError naming them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InputError, InstabilityError
from .grid_fields import central_diff, check_tridiag
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
    adiag,
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


def _direction(angle: np.ndarray) -> np.ndarray:
    """The unit vectors (cos, sin) of the angles, component first."""
    e = np.empty((2,) + np.shape(angle))
    np.cos(angle, out=e[0])
    np.sin(angle, out=e[1])
    return e


def _lift(m: np.ndarray) -> np.ndarray:
    """The packed raw state of a packed manifold state."""
    return (m[1:, None] * _direction(m[0])).reshape((6,) + m.shape[1:])


def lift(m: ManifoldState) -> RodState:
    """Expand a collinear state into the raw vector representation."""
    return RodState._from_packed(m.grid, _lift(m._packed()), m._batched)


def _project(fields: np.ndarray, prev_angle: np.ndarray, eps) -> np.ndarray:
    """The angle and one magnitude per field, (1 + F, K, N), of a stack of F
    packed 2-vector fields (2F, K, N) whose last pair is the linear velocity;
    ``prev_angle`` and ``eps`` broadcast against (K, N)."""
    v0, v1 = fields[-2], fields[-1]
    m = np.empty((1 + len(fields) // 2,) + v0.shape)
    m[0] = np.where(np.hypot(v0, v1) > eps, np.arctan2(v1, v0), prev_angle)
    np.einsum("fjkn,jkn->fkn", fields.reshape((-1, 2) + v0.shape), _direction(m[0]),
              out=m[1:])
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


def _apply_free_moment(curvature, bc: BoundaryConditions):
    """Zero the curvature at free ends (a free end carries no bending moment).

    Without this condition the boundary energy flux m·ω through a free end is
    uncontrolled and feeds a spurious instability localized at the end node.
    """
    if bc.base == "free":
        curvature[..., 0] = 0.0
    if bc.tip == "free":
        curvature[..., -1] = 0.0


def _apply_clamps(field, bc: BoundaryConditions, t_next: float, signal: str):
    """Impose the clamped ends' ``signal``, "ang_vel" or "lin_vel", on a
    packed (2, K, N) velocity, through each end's (K, 2) transpose."""
    for end, kind, name in ((0, bc.base, "base_"), (-1, bc.tip, "tip_")):
        if kind == "clamped":
            field[..., end].T[...] = np.asarray(getattr(bc, name + signal)(t_next), float)


def _steps_pure(block, solves, params, bc, grid, f, couples, times, dt):
    """``step_pure_numeric`` on a block of packed raw states: fill block[1:]
    from block[0], step i at times[i] under the couple couples[i], with
    ``solves`` (2, B, 2, K, N) as the buffer of the steps' contact forces and
    their right-hand sides, all residual-checked at the end.

    The linear velocity feeds nothing back, so it advances last, from one
    stencil pass over all the block's forces."""
    ds = grid.spacing
    factors = _contact_operator(params, bc.base, bc.tip)
    forces, rhs = solves
    for i, l in enumerate(couples):
        raw, new = block[i], block[i + 1]
        # One stencil call differentiates the bending couple and the angular
        # velocity, stacked along the component axis.
        derivatives = central_diff(np.concatenate((params.EI * raw[0:2], raw[2:4])).T, ds).T
        dm = derivatives[:2]
        np.add(raw[0:2], dt * derivatives[2:], out=new[0:2])
        forces[i] = _contact_force(dm, f, l, params, bc, times[i], ds, factors, rhs[i])[0]
        np.add(raw[2:4], dt * (dm + adiag(forces[i].T).T + l) / params.rho_I, out=new[2:4])
        _apply_clamps(new[2:4], bc, times[i] + dt, "ang_vel")
        _apply_free_moment(new[0:2], bc)
    increments = central_diff(forces.T, ds).T
    increments += f
    increments *= dt
    increments /= params.rho_A
    for i, increment in enumerate(increments):
        np.add(block[i, 4:6], increment, out=block[i + 1, 4:6])
        _apply_clamps(block[i + 1, 4:6], bc, times[i] + dt, "lin_vel")
    check_tridiag(factors, forces, rhs)


def _steps_semi(block, solves, params, bc, grid, f, couples, times, dt):
    """``step_semi_analytic`` on a block of packed manifold states, as
    ``_steps_pure`` does; each step's linear velocity sets its angle."""
    ds = grid.spacing
    factors = _contact_operator(params, bc.base, bc.tip)
    forces, rhs = solves
    for i, l in enumerate(couples):
        m, new = block[i], block[i + 1]
        raw = _lift(m)
        dm = central_diff((params.EI * raw[0:2]).T, ds).T
        forces[i] = _contact_force(dm, f, l, params, bc, times[i], ds, factors, rhs[i])[0]
        n = forces[i]
        velocities = np.empty((4,) + dm.shape[1:])
        np.add(raw[2:4], dt * (dm + adiag(n.T).T + l) / params.rho_I, out=velocities[:2])
        np.add(raw[4:6], dt * (central_diff(n.T, ds).T + f) / params.rho_A,
               out=velocities[2:])
        _apply_clamps(velocities[:2], bc, times[i] + dt, "ang_vel")
        _apply_clamps(velocities[2:], bc, times[i] + dt, "lin_vel")
        eps = np.maximum(1e-8 * np.abs(velocities[2:]).max(axis=(0, 2)), 1e-300)[:, None]
        # new holds the angle, the curvature, then the projected magnitudes.
        new[2:] = _project(velocities, m[0], eps)[1:]
        ang_mag, vel_mag = new[2], new[3]

        # Angle reconstruction: integrate the angle slope from the base node,
        # carrying the previous local increment across every interval next to
        # a near-zero-velocity node.
        ok = np.abs(vel_mag) > eps
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = -ang_mag / vel_mag
            incr = 0.5 * ds * (slope[:, 1:] + slope[:, :-1])
        incr = np.where(ok[:, 1:] & ok[:, :-1], incr, m[0, :, 1:] - m[0, :, :-1])
        angle = new[0]
        angle[:, 0] = 0.0
        np.cumsum(incr, axis=1, out=angle[:, 1:])
        angle += m[0, :, :1] + dt * ang_mag[:, :1]  # the base node's angle

        np.add(m[1], dt * central_diff(ang_mag.T, ds).T, out=new[1])
        _apply_free_moment(new[1], bc)
    check_tridiag(factors, forces, rhs)


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
