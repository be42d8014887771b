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
next state and raises DivergenceError when it produces non-finite values;
``drift_norms`` and ``state_energy`` measure a state when the caller asks.
A state with a rod axis steps K rods at once; the projection threshold, the
finite check, the energy and the drift norms are then taken rod by rod.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InputError, InstabilityError
from .grid_fields import central_diff
from .rod_model import (
    BoundaryConditions,
    Loads,
    MaterialParams,
    RodState,
    _GridState,
    _energy_from_squares,
    _loads_at,
    _trusted_state,
    adiag,
    bending_couple,
    constraint_norms,
    contact_force,
    energy,
)

__all__ = [
    "ManifoldState",
    "drift_norms",
    "state_energy",
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
    e = np.empty(np.shape(angle) + (2,))
    np.cos(angle, out=e[..., 0])
    np.sin(angle, out=e[..., 1])
    return e


def lift(m: ManifoldState) -> RodState:
    """Expand a collinear state into the raw vector representation."""
    e = _direction(m.angle)
    return _trusted_state(
        RodState,
        m.grid,
        m.curv_mag[..., None] * e,
        m.ang_mag[..., None] * e,
        m.vel_mag[..., None] * e,
    )


def project(r: RodState, prev_angle: np.ndarray, eps) -> ManifoldState:
    """Project a raw state onto the collinear manifold.

    The direction angle follows the linear velocity where its magnitude
    exceeds ``eps`` (a float, or one per rod); below that the previous angle
    is carried through. Normal components of all three fields are discarded.
    """
    if not (np.asarray(eps) > 0.0).all():
        raise InputError("projection threshold must be positive")
    if not np.isfinite(prev_angle).all():
        raise InputError("previous angle contains non-finite entries")
    speed = np.hypot(r.lin_vel[..., 0], r.lin_vel[..., 1])
    angle = np.where(
        speed > eps, np.arctan2(r.lin_vel[..., 1], r.lin_vel[..., 0]), prev_angle
    )
    # The three fields side by side, so one einsum takes all their components
    # along the direction.
    vectors = np.empty((3,) + r.lin_vel.shape)
    vectors[0], vectors[1], vectors[2] = r.curvature, r.ang_vel, r.lin_vel
    magnitudes = np.einsum("...j,...j->...", vectors, _direction(angle))
    return _trusted_state(ManifoldState, r.grid, angle, *magnitudes)


def drift_norms(state):
    """Max-norms (R4, R5, R6) of a RodState or ManifoldState
    (``rod_model.constraint_norms``).

    On the manifold the three vectors share one direction, so R5 and R6 are
    zero by representation; R4 is measured on the lifted vectors. Each norm
    is a float for one rod and an array of K norms for K rods.
    """
    if isinstance(state, ManifoldState):
        r4 = constraint_norms(lift(state))[0]
        zero = np.zeros_like(r4)[()]  # [()] gives a scalar for one rod
        return r4, zero, zero
    return constraint_norms(state)


def state_energy(state, params: MaterialParams):
    """Kinetic plus bending energy of a RodState or ManifoldState, per rod.

    A collinear state's energy comes from its magnitudes: the unit direction
    drops out of every squared norm, so no vectors are built. It agrees with
    ``energy(lift(m))`` to rounding.
    """
    if not isinstance(state, ManifoldState):
        return energy(state, params)
    return _energy_from_squares(state.vel_mag**2, state.ang_mag**2, state.curv_mag**2,
                                params, state.grid.spacing)


def _require_finite(*fields):
    """Raise DivergenceError naming the rods whose vector fields are not all finite."""
    if not all(np.isfinite(f).all() for f in fields):
        ok = np.logical_and.reduce([np.isfinite(f).all(axis=(0, -1)) for f in fields])
        rods = None if ok.ndim == 0 else np.flatnonzero(~ok)
        raise DivergenceError("a time step produced non-finite values", rods=rods)


def _apply_free_moment(curvature, bc: BoundaryConditions):
    """Zero the curvature at free ends (a free end carries no bending moment).

    Without this condition the boundary energy flux m·ω through a free end is
    uncontrolled and feeds a spurious instability localized at the end node.
    """
    if bc.base == "free":
        curvature[0] = 0.0
    if bc.tip == "free":
        curvature[-1] = 0.0


def _apply_clamps(lin_vel, ang_vel, bc: BoundaryConditions, t_next: float):
    if bc.base == "clamped":
        lin_vel[0] = np.asarray(bc.base_lin_vel(t_next), float)
        ang_vel[0] = np.asarray(bc.base_ang_vel(t_next), float)
    if bc.tip == "clamped":
        lin_vel[-1] = np.asarray(bc.tip_lin_vel(t_next), float)
        ang_vel[-1] = np.asarray(bc.tip_ang_vel(t_next), float)


def _euler_velocities(state, dm, params, loads, bc, t, dt):
    """One forward-Euler update of the two momentum balances; ``dm`` is the
    arclength derivative of the state's bending couple."""
    ds = state.grid.spacing
    f, l = _loads_at(loads, t, dm, state.grid)
    # A blown-up state gives a non-finite force, and so a non-finite step.
    n = contact_force(dm, f, l, params, bc, t, state.grid)
    lin_vel = state.lin_vel + dt * (central_diff(n, ds) + f) / params.rho_A
    ang_vel = state.ang_vel + dt * (dm + adiag(n) + l) / params.rho_I
    return lin_vel, ang_vel


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
    if not dt > 0.0:
        raise InputError("dt must be positive")
    # One stencil call differentiates the bending couple and the angular
    # velocity, side by side along the component axis.
    both = np.concatenate((bending_couple(state, params), state.ang_vel), axis=-1)
    derivatives = central_diff(both, state.grid.spacing)
    lin_vel, ang_vel = _euler_velocities(
        state, derivatives[..., :2], params, loads, bc, t, dt)
    curvature = state.curvature + dt * derivatives[..., 2:]
    _apply_clamps(lin_vel, ang_vel, bc, t + dt)
    _apply_free_moment(curvature, bc)
    _require_finite(lin_vel, ang_vel, curvature)
    return _trusted_state(RodState, state.grid, curvature, ang_vel, lin_vel)


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
    if not dt > 0.0:
        raise InputError("dt must be positive")
    grid = m.grid
    ds = grid.spacing
    state = lift(m)
    dm = central_diff(bending_couple(state, params), ds)
    lin_vel, ang_vel = _euler_velocities(state, dm, params, loads, bc, t, dt)
    _apply_clamps(lin_vel, ang_vel, bc, t + dt)
    _require_finite(lin_vel, ang_vel)
    eps = np.maximum(1e-8 * np.abs(lin_vel).max(axis=(0, -1)), 1e-300)
    updated = _trusted_state(RodState, grid, state.curvature, ang_vel, lin_vel)
    proj = project(updated, m.angle, eps)

    # Angle reconstruction: integrate the angle slope from the base node,
    # carrying the previous local increment across near-zero-velocity nodes.
    ok = np.abs(proj.vel_mag) > eps
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(ok, -proj.ang_mag / proj.vel_mag, 0.0)
    incr = 0.5 * ds * (slope[1:] + slope[:-1])
    prev_incr = m.angle[1:] - m.angle[:-1]
    usable = ok[1:] & ok[:-1]
    incr = np.where(usable, incr, prev_incr)
    angle = np.zeros_like(m.angle)
    np.cumsum(incr, axis=0, out=angle[1:])
    angle += m.angle[0] + dt * proj.ang_mag[0]  # the base node's angle

    curv_mag = m.curv_mag + dt * central_diff(proj.ang_mag, ds)
    _apply_free_moment(curv_mag, bc)
    fields = (angle, curv_mag, proj.ang_mag, proj.vel_mag)
    _require_finite(*(f[..., None] for f in fields))
    return _trusted_state(ManifoldState, grid, *fields)


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
