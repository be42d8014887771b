"""Time-stepping schemes: the purely numerical baseline and the semi-analytic one.

The baseline discretizes all six scalar equations with central differences in
space and forward Euler in time; the compatibility relation and the two
collinearity constraints are not enforced and their residuals are reported as
drift. The semi-analytic scheme keeps the state on the collinear manifold of
the closed-form solution family: the three vectors share one direction angle,
so the collinearity constraints hold exactly by representation, and the
spatial structure of the velocity compatibility relation is enforced by
integrating the angle along the rod.

Both schemes impose the moment-free condition m = 0 (zero curvature) at free
ends in addition to the clamped-end velocity signals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError
from .grid_fields import Grid1D, central_diff, cumtrapz
from .rod_model import (
    BoundaryConditions,
    Loads,
    MaterialParams,
    RodState,
    adiag,
    bending_couple,
    cross2,
    energy,
    solve_contact_force,
)

__all__ = [
    "ManifoldState",
    "StepReport",
    "lift",
    "project",
    "step_pure_numeric",
    "step_semi_analytic",
    "max_stable_dt",
]


@dataclass
class ManifoldState:
    """Collinear state: a direction angle plus signed magnitudes per node."""

    grid: Grid1D
    angle: np.ndarray
    curv_mag: np.ndarray
    ang_mag: np.ndarray
    vel_mag: np.ndarray

    def __post_init__(self):
        n = self.grid.node_count
        for name in ("angle", "curv_mag", "ang_mag", "vel_mag"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise InputError(f"{name} must have shape ({n},), got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise InputError(f"{name} contains non-finite entries")
            setattr(self, name, arr)

    @classmethod
    def zero(cls, grid: Grid1D) -> "ManifoldState":
        n = grid.node_count
        return cls(grid, np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n))


@dataclass
class StepReport:
    """Per-step diagnostics: drift norms, energy, and a finiteness flag."""

    dt: float
    drift_r4: float
    drift_r5: float
    drift_r6: float
    energy: float
    finite: bool
    tangential_residual: float = 0.0


def _direction(angle: np.ndarray) -> np.ndarray:
    return np.stack([np.cos(angle), np.sin(angle)], axis=-1)


def lift(m: ManifoldState) -> RodState:
    """Expand a collinear state into the raw vector representation."""
    e = _direction(m.angle)
    return RodState(
        m.grid,
        m.curv_mag[:, None] * e,
        m.ang_mag[:, None] * e,
        m.vel_mag[:, None] * e,
    )


def project(r: RodState, prev_angle: np.ndarray, eps: float) -> ManifoldState:
    """Project a raw state onto the collinear manifold.

    The direction angle follows the linear velocity where its magnitude
    exceeds ``eps``; below that the previous angle is carried through. Normal
    components of all three fields are discarded.
    """
    if not eps > 0.0:
        raise InputError("projection threshold must be positive")
    speed = np.hypot(r.lin_vel[:, 0], r.lin_vel[:, 1])
    angle = np.where(
        speed > eps, np.arctan2(r.lin_vel[:, 1], r.lin_vel[:, 0]), prev_angle
    )
    e = _direction(angle)
    return ManifoldState(
        r.grid,
        angle,
        np.einsum("ij,ij->i", r.curvature, e),
        np.einsum("ij,ij->i", r.ang_vel, e),
        np.einsum("ij,ij->i", r.lin_vel, e),
    )


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


def _euler_velocities(state, params, loads, bc, t, dt):
    """One forward-Euler update of the two momentum balances."""
    ds = state.grid.spacing
    s = state.grid.nodes
    m = bending_couple(state, params)
    # A blown-up state gives a non-finite force, and so a non-finite step.
    n = solve_contact_force(state, params, loads, bc, t)
    f = loads.force_at(s, t)
    l = loads.couple_at(s, t)
    lin_vel = state.lin_vel + dt * (central_diff(n, ds) + f) / params.rho_A
    ang_vel = state.ang_vel + dt * (central_diff(m, ds) + adiag(n) + l) / params.rho_I
    return lin_vel, ang_vel


def step_pure_numeric(
    state: RodState,
    params: MaterialParams,
    loads: Loads,
    bc: BoundaryConditions,
    t: float,
    dt: float,
):
    """Forward-Euler step of the raw scheme; constraints drift freely.

    All right-hand sides are evaluated at the pre-step state (simultaneous
    update). Returns (new_state, report).
    """
    if not dt > 0.0:
        raise InputError("dt must be positive")
    ds = state.grid.spacing
    lin_vel, ang_vel = _euler_velocities(state, params, loads, bc, t, dt)
    curvature = state.curvature + dt * central_diff(state.ang_vel, ds)
    _apply_clamps(lin_vel, ang_vel, bc, t + dt)
    _apply_free_moment(curvature, bc)
    finite = bool(
        np.all(np.isfinite(lin_vel))
        and np.all(np.isfinite(ang_vel))
        and np.all(np.isfinite(curvature))
    )
    if not finite:
        safe = state.copy()
        report = StepReport(dt, math.inf, math.inf, math.inf, math.inf, False)
        return safe, report
    new = RodState(state.grid, curvature, ang_vel, lin_vel)
    r4 = central_diff(lin_vel, ds) - adiag(ang_vel)
    report = StepReport(
        dt,
        float(np.abs(r4).max()),
        float(np.abs(cross2(ang_vel, curvature)).max()),
        float(np.abs(cross2(lin_vel, curvature)).max()),
        energy(new, params),
        True,
    )
    return new, report


def step_semi_analytic(
    m: ManifoldState,
    params: MaterialParams,
    loads: Loads,
    bc: BoundaryConditions,
    t: float,
    dt: float,
    eps: float = None,
):
    """One step of the semi-analytic scheme on the collinear manifold.

    Stages: lift to vectors; forward-Euler update of the momentum balances;
    projection back to the manifold (direction from the updated velocity);
    exact spatial reconstruction of the angle by integrating
    d(angle)/ds = -ang_mag / vel_mag from the base; scalar advection of the
    curvature magnitude. Collinearity holds exactly by representation; the
    tangential compatibility residual is reported as a diagnostic.
    """
    if not dt > 0.0:
        raise InputError("dt must be positive")
    grid = m.grid
    ds = grid.spacing
    state = lift(m)
    lin_vel, ang_vel = _euler_velocities(state, params, loads, bc, t, dt)
    _apply_clamps(lin_vel, ang_vel, bc, t + dt)
    if not (np.all(np.isfinite(lin_vel)) and np.all(np.isfinite(ang_vel))):
        return m, StepReport(dt, math.inf, 0.0, 0.0, math.inf, False)
    if eps is None:
        eps = max(1e-8 * np.abs(lin_vel).max(), 1e-300)
    updated = RodState(grid, state.curvature, ang_vel, lin_vel)
    proj = project(updated, m.angle, eps)

    # Angle reconstruction: integrate the angle slope from the base node,
    # carrying the previous local increment across near-zero-velocity nodes.
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(np.abs(proj.vel_mag) > eps, -proj.ang_mag / proj.vel_mag, 0.0)
    ok = np.abs(proj.vel_mag) > eps
    incr = 0.5 * ds * (slope[1:] + slope[:-1])
    prev_incr = m.angle[1:] - m.angle[:-1]
    usable = ok[1:] & ok[:-1]
    incr = np.where(usable, incr, prev_incr)
    base_angle = m.angle[0] + dt * proj.ang_mag[0]
    angle = base_angle + np.concatenate([[0.0], np.cumsum(incr)])

    curv_mag = m.curv_mag + dt * central_diff(proj.ang_mag, ds)
    _apply_free_moment(curv_mag, bc)
    finite = bool(np.all(np.isfinite(angle)) and np.all(np.isfinite(curv_mag)))
    if not finite:
        return m, StepReport(dt, math.inf, 0.0, 0.0, math.inf, False)
    new = ManifoldState(grid, angle, curv_mag, proj.ang_mag, proj.vel_mag)
    lifted = lift(new)
    r4 = central_diff(lifted.lin_vel, ds) - adiag(lifted.ang_vel)
    # Collinearity residuals, evaluated in factored form: the shared direction
    # cancels identically, so they are exactly zero on the manifold.
    angle_dir = _direction(angle)
    shared = angle_dir[:, 0] * angle_dir[:, 1] - angle_dir[:, 0] * angle_dir[:, 1]
    r5 = new.ang_mag * new.curv_mag * shared
    r6 = new.vel_mag * new.curv_mag * shared
    d_angle_dt = (angle - m.angle) / dt
    d_angle_ds = central_diff(angle, ds)
    tangential = new.curv_mag * d_angle_dt - new.ang_mag * d_angle_ds
    report = StepReport(
        dt,
        float(np.abs(r4).max()),
        float(np.abs(r5).max()),
        float(np.abs(r6).max()),
        energy(lifted, params),
        True,
        tangential_residual=float(np.abs(tangential).max()),
    )
    return new, report


def max_stable_dt(
    is_stable,
    dt_min: float,
    dt_max: float,
    log_tol: float = 0.05,
) -> float:
    """Largest stable step size by bisection on log(dt).

    ``is_stable(dt)`` must run the candidate step size over the assessment
    horizon and report a boolean. The lower bound must itself be stable.
    Terminates once the bracket is within ``log_tol`` in log space.
    """
    if not (0.0 < dt_min < dt_max):
        raise InputError("need 0 < dt_min < dt_max")
    if not is_stable(dt_min):
        raise ConfigurationError(f"lower bound dt = {dt_min} is already unstable")
    if is_stable(dt_max):
        return dt_max
    lo, hi = dt_min, dt_max
    while math.log(hi / lo) > log_tol:
        mid = math.sqrt(lo * hi)
        if is_stable(mid):
            lo = mid
        else:
            hi = mid
    return lo
