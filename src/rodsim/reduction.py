"""Numerical verification of the potential/developable-surface reduction chain.

Starting from compatible curvature/velocity data on an (s, t) rectangle, the
chain reconstructs scalar potentials, checks the residuals of the nonlinear
two-potential system, extracts the squared-speed profile (a function of time
only), and, after flattening time with its square root, checks that both
potentials describe zero-Gaussian-curvature surfaces.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .grid_fields import central_diff, cubic_spline, cumtrapz, eval_spline

__all__ = [
    "reconstruct_potentials",
    "potential_system_residuals",
    "extract_speed_profile",
    "developable_residuals",
]


def _d_t(v, dt, order=1):
    return central_diff(v.T, dt, order).T


def _potential(ds_field, dt_field, ds, dt):
    """Potential with the given s- and t-derivative fields, pinned to 0 at (0, 0).

    Integrates along s at t = 0 and then along t at each s (an L-shaped path).
    """
    along_s = cumtrapz(ds_field[:, 0], ds)
    return along_s[:, None] + cumtrapz(dt_field.T, dt).T


def _alt_potential(ds_field, dt_field, ds, dt):
    """Same potential via the other L-shaped path (t first, then s)."""
    along_t = cumtrapz(dt_field[0, :], dt)
    return along_t[None, :] + cumtrapz(ds_field, ds)


def _path_error_estimate(ds_field, dt_field, ds, dt):
    """Trapezoid-rule discretization scale for the two-path comparison."""
    ns, nt = ds_field.shape
    len_s = ds * (ns - 1)
    len_t = dt * (nt - 1)
    curv_s = np.abs(central_diff(ds_field, ds, 2)).max()
    curv_t = np.abs(_d_t(dt_field, dt, 2)).max()
    return (ds**2 / 12.0) * curv_s * len_s + (dt**2 / 12.0) * curv_t * len_t


def reconstruct_potentials(kappa, omega, vel, ds: float, dt: float):
    """Reconstruct the four potentials from sampled vector fields.

    ``kappa``, ``omega``, ``vel`` have shape (Ns, Nt, 2). Returns scalar
    arrays (p1, p2, f, g) with p1' pairing (curvature_1, ang_vel_1), p2
    pairing component 2, and f, g built from (p2, vel_1) and (-p1, vel_2).
    All potentials are pinned to 0 at the grid origin. Raises if the two
    L-shaped integration paths disagree by more than 10x the discretization
    estimate (the inputs were not a conservative field).
    """
    kappa = np.asarray(kappa, float)
    omega = np.asarray(omega, float)
    vel = np.asarray(vel, float)
    def checked(ds_field, dt_field):
        p = _potential(ds_field, dt_field, ds, dt)
        alt = _alt_potential(ds_field, dt_field, ds, dt)
        est = _path_error_estimate(ds_field, dt_field, ds, dt)
        gap = np.abs(p - alt).max()
        if gap > 10.0 * max(est, 1e-14):
            raise NumericalError(
                f"potential reconstruction is path dependent (gap {gap:.3e}, "
                f"estimate {est:.3e}); inputs are not compatible"
            )
        return p

    p1 = checked(kappa[..., 0], omega[..., 0])
    p2 = checked(kappa[..., 1], omega[..., 1])
    f = checked(p2, vel[..., 0])
    g = checked(-p1, vel[..., 1])
    return p1, p2, f, g


def potential_system_residuals(f, g, ds: float, dt: float):
    """Max-norm residuals of the two-potential system and its solvability relation.

    Returns {"R9", "R10", "R12"}: the cross second-derivative determinant
    relation, the second-derivative/time-slope relation, and the mixed-slope
    relation that makes the first two solvable.
    """
    f = np.asarray(f, float)
    g = np.asarray(g, float)
    f_ss = central_diff(f, ds, 2)
    g_ss = central_diff(g, ds, 2)
    f_t = _d_t(f, dt)
    g_t = _d_t(g, dt)
    f_st = _d_t(central_diff(f, ds), dt)
    g_st = _d_t(central_diff(g, ds), dt)
    return {
        "R9": float(np.abs(f_st * g_ss - g_st * f_ss).max()),
        "R10": float(np.abs(g_ss * g_t + f_ss * f_t).max()),
        "R12": float(np.abs(g_st * g_t + f_st * f_t).max()),
    }


def extract_speed_profile(f, g, dt: float):
    """Per-time squared speed (f_t^2 + g_t^2) and its deviation from s-uniformity.

    Returns (profile (Nt,), s_uniformity). The profile must be a function of
    time alone; positivity is required downstream, so nonpositive values are
    flagged immediately.
    """
    f = np.asarray(f, float)
    g = np.asarray(g, float)
    sq = _d_t(f, dt) ** 2 + _d_t(g, dt) ** 2
    profile = sq.mean(axis=0)
    if np.any(profile <= 0.0):
        raise NumericalError("squared-speed profile is not strictly positive")
    uniformity = float(np.abs(sq - profile[None, :]).max())
    return profile, uniformity


def developable_residuals(f, g, profile, ds: float, dt: float):
    """Residuals of the zero-Gaussian-curvature form after flattening time.

    Time is remapped by the antiderivative of the square root of the speed
    profile; the fields are resampled onto a uniform grid in the new time
    coordinate by not-a-knot cubic splines (the space coordinate is
    untouched).
    The uniform grid sits two knots inside the flattened-time range so the
    one-sided boundary stencils never act on near-extrapolated spline values.
    Returns {"R22", "R23", "R24"}: the two surface-curvature determinants and
    the unit-slope constraint.
    """
    f = np.asarray(f, float)
    g = np.asarray(g, float)
    profile = np.asarray(profile, float)
    if np.any(profile <= 0.0):
        raise NumericalError("speed profile must be strictly positive")
    y_knots = cumtrapz(np.sqrt(profile), dt)
    if not np.all(np.diff(y_knots) > 0.0):
        raise NumericalError("time flattening is not strictly increasing")
    nt = y_knots.size
    margin = 2 if nt >= 9 else 0
    y_lo, y_hi = y_knots[margin], y_knots[nt - 1 - margin]
    n_lin = nt - 2 * margin
    y_lin = np.linspace(y_lo, y_hi, n_lin)
    dy = (y_hi - y_lo) / (n_lin - 1)
    # Both fields along flattened time, as not-a-knot splines from one solve.
    table = cubic_spline(y_knots, np.stack((f, g)).T, ends="not-a-knot")
    f_res, g_res = eval_spline(y_knots, table, y_lin).T
    out = {}
    for name, field in (("R22", f_res), ("R23", g_res)):
        xx = central_diff(field, ds, 2)
        yy = _d_t(field, dy, 2)
        xy = _d_t(central_diff(field, ds), dy)
        out[name] = float(np.abs(xx * yy - xy**2).max())
    f_y = _d_t(f_res, dy)
    g_y = _d_t(g_res, dy)
    out["R24"] = float(np.abs(f_y**2 + g_y**2 - 1.0).max())
    return out
