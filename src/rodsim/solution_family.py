"""Closed-form solution family of the parameter-free rod subsystem.

The family is parametrized by three functions of one variable: an amplitude
``A(u)``, a direction angle ``C(u)`` and a time reparametrization ``F`` (with
the fourth function normalized to the identity). All three state vectors share
the direction (cos C, sin C), which makes the collinearity constraints hold
identically. The module evaluates the family on grids, matches it to boundary
(Cauchy) traces, and measures the residuals of the compatibility subsystem on
sampled data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DegeneracyError,
    DivergenceError,
    InputError,
    NumericalError,
    OutOfRangeError,
    SizeError,
)
from .grid_fields import Grid1D, SampledFn, central_diff, integrate_ode_rk4
from .rod_model import RodState, _drift_norms

__all__ = [
    "SolutionFamily",
    "CauchyTrace",
    "evaluate_family",
    "sample_state",
    "parameter_free_residuals",
    "match_boundary_trace",
    "verify_trace_match",
    "family_to_json",
    "random_family",
]

_DEGEN = 1e-12


@dataclass(frozen=True)
class SolutionFamily:
    """Solution-family data: amplitude, direction angle and time map.

    ``amp`` and ``angle`` are functions of the family parameter u; ``time_map``
    maps w = amp(u)*s + u to physical time. Each must be callable and provide
    ``derivative`` and ``value_and_slope`` methods (``SampledFn`` qualifies).
    """

    amp: SampledFn
    angle: SampledFn
    time_map: SampledFn
    u_range: tuple

    def __post_init__(self):
        lo, hi = self.u_range
        if not hi > lo:
            raise InputError(f"empty u range {self.u_range}")


def _check_denominator(name, value, scale, s, u):
    if np.any(np.abs(value) <= _DEGEN * scale):
        raise DegeneracyError(f"{name} degenerate at (s={s}, u={u})")


def evaluate_family(fam: SolutionFamily, s, u):
    """Evaluate curvature, angular velocity, linear velocity and time at (s, u).

    Accepts scalars or broadcastable arrays; vectors are returned with the
    component axis last.
    """
    s = np.asarray(s, dtype=float)
    u = np.asarray(u, dtype=float)
    a, da = fam.amp.value_and_slope(u)
    c, dc = fam.angle.value_and_slope(u)
    w = np.asarray(a * s + u)  # 0-d operands give a NumPy scalar, not an array
    den = da * s + 1.0
    t, fp = fam.time_map.value_and_slope(w)
    _check_denominator("A'(u)s + 1", den, np.maximum(1.0, np.abs(da * s)), s, u)
    _check_denominator("F'(A(u)s + u)", fp, 1.0, s, u)
    direction = np.stack([np.cos(c), np.sin(c)], axis=-1)
    kappa = (-(a**2) * dc / den)[..., None] * direction
    omega = (a * dc / (fp * den))[..., None] * direction
    vel = (1.0 / fp)[..., None] * direction
    return kappa, omega, vel, t


def _invert_monotone(fn, lo, hi, target):
    """Solve fn(u) = target elementwise on the bracket [lo, hi] by
    Chandrupatla's method.

    ``fn`` is monotone on the bracket, maps arrays elementwise and may
    broadcast (fn(lo) may already have the shape of the result); its direction
    is taken from the end values, through the signs of the end residuals.
    It gives both the end values and the iterates, which stay strictly inside
    the bracket, so a domain check in ``fn`` that passes at the ends passes
    on them. Each step is inverse quadratic interpolation through the two
    bracket ends and the end dropped last where that interpolant is monotone
    on the bracket, else bisection (T. R. Chandrupatla, Adv. Eng. Software
    28, 1997). An element stops at Brent's tolerance: its result u, the
    bracket end with the smaller residual, is an exact root or lies in a
    bracket no wider than 1e-14 + 4 eps |u|. A stopped element is not updated
    again, so it gets the same bits whether it is solved alone or in a block.
    """
    target = np.asarray(target, dtype=float)
    f_lo = np.asarray(fn(lo), dtype=float)
    f_hi = np.asarray(fn(hi), dtype=float)
    # NaN compares false, so a NaN target is out of range too.
    inside = (np.minimum(f_lo, f_hi) <= target) & (target <= np.maximum(f_lo, f_hi))
    if not np.all(inside):
        bad = np.broadcast_to(target, inside.shape)[~inside][0]
        raise OutOfRangeError(f"target {bad} not reachable on [{lo}, {hi}]")
    shape = inside.shape
    # x1 is the newest bracket end, x2 the other one and x3 the end dropped
    # last; f1, f2, f3 are their residuals fn - target.
    x1, f1 = np.full(shape, float(lo)), np.broadcast_to(f_lo - target, shape).copy()
    x2, f2 = np.full(shape, float(hi)), np.broadcast_to(f_hi - target, shape).copy()
    x3, f3 = x2.copy(), f2.copy()
    t = np.full(shape, 0.5)
    rtol = 2.0 * np.finfo(float).eps
    # Stopped and bisecting lanes may divide by zero in interpolation terms
    # that are then discarded.
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            u = np.where(np.abs(f1) < np.abs(f2), x1, x2)
            half_tol = 0.5e-14 + rtol * np.abs(u)
            width = np.abs(x2 - x1)
            active = (width > 2.0 * half_tol) & (f1 != 0.0) & (f2 != 0.0)
            if not active.any():
                return u
            # Each iterate keeps half_tol from both ends; stopped lanes bisect
            # their bracket, so every iterate stays strictly inside it.
            edge = half_tol / width
            t = np.where(active, np.minimum(np.maximum(t, edge), 1.0 - edge), 0.5)
            x = x1 + t * (x2 - x1)
            f = np.asarray(fn(x)) - target
            # The root stays between x and x2 where f has the sign of f1, else
            # between x and x1.
            same = (f < 0.0) == (f1 < 0.0)
            keep, swap = active & same, active & ~same
            np.copyto(x3, x1, where=keep)
            np.copyto(f3, f1, where=keep)
            np.copyto(x3, x2, where=swap)
            np.copyto(f3, f2, where=swap)
            np.copyto(x2, x1, where=swap)
            np.copyto(f2, f1, where=swap)
            np.copyto(x1, x, where=active)
            np.copyto(f1, f, where=active)
            # Interpolate inversely through the three points only where that
            # quadratic is monotone on the bracket (Chandrupatla's test).
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            iqi = (phi**2 < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
            t = np.where(iqi, f1 / (f2 - f1) * f3 / (f2 - f3)
                         + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2), 0.5)


def sample_state(fam: SolutionFamily, grid: Grid1D, t) -> RodState:
    """Evaluate the family on a grid at one physical time or at T times.

    A float ``t`` gives (N, 2) fields; an array of T times gives (N, T, 2)
    fields, column j at time t[j]. At fixed t the time-map argument w is the
    same at every node, so w is inverted once per time and u is then solved
    for every node and time in one array solve. Both solves evaluate the
    family's checked splines and stop each element at Brent's tolerance
    1e-14 + 4 eps |u| (see ``_invert_monotone``).
    """
    times = np.asarray(t, dtype=float)
    # At s = 0 the time-map argument equals u, so the reachable span of the
    # argument over the whole strip brackets the shared value.
    w_star = _invert_monotone(fam.time_map, *_w_span(fam, grid), times.reshape(1, -1))
    s = grid.nodes[:, None]
    us = _invert_monotone(lambda u: fam.amp(u) * s + u, *fam.u_range, w_star)
    shape = (grid.node_count, *times.shape)
    kappa, omega, vel, _ = evaluate_family(fam, s, us)
    return RodState(grid, *(v.reshape(*shape, 2) for v in (kappa, omega, vel)))


def _w_span(fam: SolutionFamily, grid: Grid1D):
    lo, hi = fam.u_range
    us = np.linspace(lo, hi, 17)
    a = np.asarray(fam.amp(us))
    w = np.concatenate([a * 0.0 + us, a * grid.length + us])
    f_lo, f_hi = fam.time_map.domain
    return max(w.min(), f_lo), min(w.max(), f_hi)


def parameter_free_residuals(prev: RodState, mid: RodState, nxt: RodState, dt: float):
    """Max-norm residuals of the four parameter-free relations.

    Time derivatives are central across the three states; spatial derivatives
    are central on the shared grid. Returns {"R3", "R4", "R5", "R6"}.
    """
    if prev.grid != mid.grid or nxt.grid != mid.grid:
        raise InputError("states must share one grid")
    ds = mid.grid.spacing
    r3 = (nxt.curvature - prev.curvature) / (2.0 * dt) - central_diff(mid.ang_vel, ds)
    r4, r5, r6 = _drift_norms(mid._packed(), ds, False).max(axis=1).tolist()
    return {"R3": float(np.abs(r3).max()), "R4": r4, "R5": r5, "R6": r6}


@dataclass(frozen=True)
class CauchyTrace:
    """Boundary data at s = 0: three time traces and one corner value.

    ``v1_trace``, ``w1_trace``, ``k1_trace`` are the first components of the
    linear velocity, angular velocity and curvature along the base line;
    ``v2_origin`` is the second linear-velocity component at (0, 0). All four
    must be nonzero where evaluated.
    """

    v1_trace: Callable
    w1_trace: Callable
    k1_trace: Callable
    v2_origin: float

    def __post_init__(self):
        for name in ("v1_trace", "w1_trace", "k1_trace"):
            if getattr(self, name)(0.0) == 0.0:
                raise InputError(f"{name}(0) must be nonzero")
        if self.v2_origin == 0.0:
            raise InputError("v2_origin must be nonzero")


def match_boundary_trace(
    data: CauchyTrace, u_max: float, steps: int = 1000
) -> SolutionFamily:
    """Fit the family functions to boundary-trace data by an RK4 march.

    Integrates the angle and time-map profile from their corner values, then
    sets the amplitude pointwise; the resulting family reproduces the traces
    along s = 0. A march that overflows, or an amplitude that is not finite,
    raises ``DivergenceError``.
    """
    if not u_max > 0.0:
        raise InputError(f"u_max must be positive, got {u_max}")
    if steps < 3:
        raise SizeError(f"steps must be at least 3 (a spline needs 4 knots), "
                        f"got {steps}")
    where = f"(u_max={u_max}, steps={steps})"
    v1, w1, k1 = data.v1_trace, data.w1_trace, data.k1_trace

    def rhs(u, y):
        c, f = y
        fv1, fw1, fk1 = v1(f), w1(f), k1(f)
        cos_c = np.cos(c)
        if abs(cos_c) < 1e-9:
            raise DegeneracyError(f"cos(angle) vanished near u = {u}")
        if min(abs(fv1), abs(fw1), abs(fk1)) < 1e-9:
            raise DegeneracyError(f"trace datum vanished near u = {u}")
        dc = -(fw1**2) * cos_c / (fk1 * fv1**2)
        df = cos_c / fv1
        return np.array([dc, df])

    c0 = np.arctan2(data.v2_origin, v1(0.0))
    if abs(np.cos(c0)) < 1e-9:
        raise DegeneracyError("initial angle too close to pi/2")
    try:
        us, ys = integrate_ode_rk4(rhs, np.array([c0, 0.0]), (0.0, u_max), steps)
    except OverflowError as err:  # a Python float power of a trace value
        raise DivergenceError(f"the trace march overflowed {where}: {err}") from err
    if not us[1] > us[0]:  # the spacing u_max / steps underflowed to zero
        raise InputError(f"u_max / steps is below the float range: the knots do "
                         f"not increase {where}")
    c_vals, f_vals = ys[:, 0], ys[:, 1]
    fv1 = np.asarray([v1(f) for f in f_vals])
    fw1 = np.asarray([w1(f) for f in f_vals])
    fk1 = np.asarray([k1(f) for f in f_vals])
    with np.errstate(over="ignore", invalid="ignore"):
        a_vals = -fk1 * fv1 / (fw1 * np.cos(c_vals))
    if not np.isfinite(a_vals).all():
        raise DivergenceError(f"the matched amplitude is not finite {where}")
    # The march knows the exact endpoint slopes; clamping the splines there
    # keeps the corner relations accurate to the RK4 error, not the natural
    # boundary-condition error.
    slope0 = rhs(us[0], ys[0])
    slope1 = rhs(us[-1], ys[-1])
    try:
        return SolutionFamily(
            amp=SampledFn(us, a_vals),
            angle=SampledFn(us, c_vals, end_slopes=(slope0[0], slope1[0])),
            time_map=SampledFn(us, f_vals, end_slopes=(slope0[1], slope1[1])),
            u_range=(0.0, u_max),
        )
    except NumericalError as err:  # a spline table that overflows
        raise DivergenceError(f"the fit overflowed {where}: {err}") from err


def verify_trace_match(fam: SolutionFamily, data: CauchyTrace, u_samples) -> float:
    """Worst absolute residual of the five trace-matching relations."""
    u = np.asarray(u_samples, dtype=float)
    c, dc = fam.angle.value_and_slope(u)
    a = np.asarray(fam.amp(u))
    f, df = fam.time_map.value_and_slope(u)
    cos_c = np.cos(c)
    v1 = np.asarray([data.v1_trace(x) for x in np.atleast_1d(f)])
    w1 = np.asarray([data.w1_trace(x) for x in np.atleast_1d(f)])
    k1 = np.asarray([data.k1_trace(x) for x in np.atleast_1d(f)])
    res = [
        np.abs(cos_c / df - v1).max(),
        np.abs(dc * a * cos_c / df - w1).max(),
        np.abs(-dc * a**2 * cos_c - k1).max(),
        abs(np.sin(fam.angle(0.0)) / fam.time_map.derivative(0.0) - data.v2_origin),
        abs(fam.time_map(0.0)),
    ]
    return float(np.max(res))  # NaN in any relation propagates


def family_to_json(fam: SolutionFamily) -> str:
    """The family's knot samples as JSON: a record of a fit, not a family.

    The clamped end slopes of the angle and time-map splines are not written,
    so the samples do not rebuild the same splines.
    """
    return json.dumps(
        {
            "u_knots": fam.amp.knots.tolist(),
            "A": fam.amp.values.tolist(),
            "C": fam.angle.values.tolist(),
            "F_knots": fam.time_map.knots.tolist(),
            "F": fam.time_map.values.tolist(),
        }
    )


def random_family(rng: np.random.Generator) -> SolutionFamily:
    """Draw a family on u in [-3, 3] from smooth trigonometric/polynomial
    coefficient pools.

    Coefficient ranges keep the invariants valid on the standard test strip
    s in [0, 1]: the time map is strictly increasing, the amplitude slope is
    small enough that A'(u)s + 1 stays away from zero, and the angle slope is
    bounded away from zero.
    """
    a = rng.uniform(0.8, 1.2)
    b = rng.uniform(0.05, 0.15)
    c = rng.uniform(0.5, 1.2)
    d = rng.uniform(0.0, 1.0)
    e = rng.uniform(0.7, 1.1) * rng.choice([-1.0, 1.0])
    g = rng.uniform(1.0, 1.5)
    h = rng.uniform(0.05, 0.3) * g
    k = rng.uniform(0.5, 1.2)
    lo, hi = -3.0, 3.0
    u_knots = np.linspace(lo, hi, 1201)
    w_lo, w_hi = lo - 1.6, hi + 1.6
    w_knots = np.linspace(w_lo, w_hi, 1601)
    return SolutionFamily(
        amp=SampledFn(u_knots, a + b * np.sin(c * u_knots)),
        angle=SampledFn(u_knots, d + e * u_knots),
        time_map=SampledFn(w_knots, g * w_knots + (h / k) * np.sin(k * w_knots)),
        u_range=(lo, hi),
    )
