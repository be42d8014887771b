"""Uniform-grid numerics: stencils, quadrature, ODE marching, linear solves
and cubic splines.

Fields are plain numpy arrays with node values along axis 0; a scalar field has
shape (N,), a planar 2-vector field shape (N, 2), and fields of K rods carry a
rod axis after the node axis. ``Grid1D`` carries the geometry. Everything here
is a pure function of its inputs.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    DivergenceError,
    DomainError,
    InputError,
    NumericalError,
    SingularSystemError,
    SizeError,
)


def _load_flapack():
    """SciPy's compiled LAPACK wrappers, ``scipy.linalg._flapack``.

    The extension is loaded from its file without importing the
    ``scipy.linalg`` package, whose initialisation costs most of a command's
    start-up and none of whose Python code is used here. A single-phase
    extension is initialised once per process, so its routines are the very
    objects SciPy's own ``lapack`` module exports, in either import order.
    """
    scipy = find_spec("scipy")  # locates the package without importing it
    if scipy is None:
        raise ModuleNotFoundError("rodsim needs SciPy, which is not installed",
                                  name="scipy")
    linalg = Path(scipy.origin).parent / "linalg"
    finder = FileFinder(str(linalg), (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.linalg._flapack")
    if spec is None:
        from importlib.metadata import version

        raise ImportError(f"SciPy's LAPACK extension _flapack is not in {linalg} "
                          f"(scipy {version('scipy')})")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    if "scipy.linalg" not in sys.modules:
        # Initialisation registered the module without its package; drop the
        # entry so that a later scipy.linalg import binds its own copy (the
        # same routines) as the package's attribute.
        sys.modules.pop(spec.name, None)
    return module


_flapack = _load_flapack()
_gttrf, _gttrs = _flapack.dgttrf, _flapack.dgttrs

__all__ = [
    "Grid1D",
    "SampledFn",
    "cubic_spline",
    "eval_spline",
    "central_diff",
    "cumtrapz",
    "integrate_ode_rk4",
    "TridiagFactors",
    "factor_tridiag",
    "solve_tridiag",
    "check_tridiag",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1D grid on [0, L] with nodes s_i = i * spacing."""

    length: float
    node_count: int

    def __post_init__(self):
        if self.node_count < 3:
            raise SizeError(f"need at least 3 nodes, got {self.node_count}")
        if not self.length > 0.0:
            raise SizeError(f"grid length must be positive, got {self.length}")

    @property
    def spacing(self) -> float:
        return self.length / (self.node_count - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        """The node abscissae, built once per grid and read-only."""
        nodes = np.arange(self.node_count) * self.spacing
        nodes.flags.writeable = False
        return nodes


@lru_cache(maxsize=64)
def _end_pairs(shape: tuple, strides: tuple):
    """For lines (M, N) with these strides: the flat node step, the flat
    positions of each line's node pairs (0, N-1), (1, N-2), (2, N-3),
    pair-major, and the end rows' weights on them, each sign on its operand."""
    (lines, n), (line_step, step) = shape, (s // 8 for s in strides)
    pairs = np.array([[[0, n - 1]], [[1, n - 2]], [[2, n - 3]]]) * step
    index = (pairs + line_step * np.arange(lines)[:, None]).ravel()
    weights = np.repeat([[[-3.0, 3.0]], [[4.0, -4.0]], [[-1.0, 1.0]]], lines, axis=1).ravel()
    index.flags.writeable = weights.flags.writeable = False
    return step, index, weights


def _diff_last(x: np.ndarray, spacing: float, out: np.ndarray) -> np.ndarray:
    """``central_diff`` of float ``x`` (..., N) along its last axis into
    ``out``, both C-contiguous or both 2-D transposes of C-contiguous arrays.
    One slice of the flat buffers holds every interior difference (entries
    straddling two lines are end nodes, set after it); the end rows
    -3 f0 + 4 f1 - f2 and 3 f[-1] - 4 f[-2] + f[-3] (x - y is x + (-y) to
    the bit) take one pass over all end-node pairs; one division scales all."""
    n = x.shape[-1]
    lines = x.reshape(-1, n)
    step, index, weights = _end_pairs(lines.shape, lines.strides)
    flat, out_flat = lines.ravel("K"), out.reshape(-1, n).ravel("K")
    np.subtract(flat[2 * step:], flat[:-2 * step], out=out_flat[step:-step])
    pairs = flat.take(index)
    pairs *= weights
    third = len(index) // 3
    ends = np.add(pairs[:third], pairs[third:2 * third])
    ends += pairs[2 * third:]
    out_flat.put(index[:third], ends)
    out_flat /= 2.0 * spacing
    return out


def central_diff(values: np.ndarray, spacing: float, order: int = 1) -> np.ndarray:
    """Second-order finite differences along axis 0.

    Interior nodes use central stencils; boundary nodes use one-sided
    second-order stencils (no ghost nodes). A first derivative keeps the
    memory order of ``values``, so a node-last array ``a`` is differenced
    along its contiguous last axis, without a copy, as ``central_diff(a.T, h).T``.
    """
    f = np.asarray(values, dtype=float)
    n = f.shape[0]
    if n < 3:
        raise SizeError(f"need at least 3 nodes to differentiate, got {n}")
    h = spacing
    if order == 1:
        # Lines of nodes in f's memory order, differenced node-last.
        lines = f.reshape(n, -1, order="A") if f.ndim > 1 else f
        lines = lines if lines.flags.forc else np.ascontiguousarray(lines)
        out = np.empty_like(lines)
        _diff_last(lines.T, h, out.T)
        return out.reshape(f.shape, order="A")
    out = np.empty_like(f)
    if order == 2:
        out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / h**2
        if n >= 4:
            out[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / h**2
            out[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / h**2
        else:
            # N == 3: the 3-point stencil is all we have (exact on quadratics).
            out[0] = out[1]
            out[-1] = out[1]
        return out
    raise ValueError(f"order must be 1 or 2, got {order}")


def cumtrapz(values: np.ndarray, spacing: float) -> np.ndarray:
    """Trapezoidal cumulative integral from node 0 along axis 0; result[0] = 0."""
    f = np.asarray(values, dtype=float)
    out = np.empty_like(f)
    out[0] = 0.0
    increments = 0.5 * spacing * (f[1:] + f[:-1])
    np.cumsum(increments, axis=0, out=out[1:])
    return out


def integrate_ode_rk4(rhs, y0, u_range, steps: int):
    """Classical fixed-step RK4 march.

    Returns ``(us, ys)`` with all intermediate states including both endpoints;
    ``ys`` has shape (steps + 1,) + shape(y0).
    """
    if steps < 1:
        raise SizeError(f"steps must be >= 1, got {steps}")
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    try:
        ys = np.empty((steps + 1,) + y.shape)
    except (ValueError, MemoryError) as err:  # more states than fit, or can be indexed
        raise SizeError(f"steps is too large for an array of states: {err}") from err
    u0, u1 = float(u_range[0]), float(u_range[1])
    h = (u1 - u0) / steps
    us = u0 + h * np.arange(steps + 1)
    ys[0] = y
    for i in range(steps):
        u = us[i]
        k1 = np.asarray(rhs(u, y))
        k2 = np.asarray(rhs(u + 0.5 * h, y + 0.5 * h * k1))
        k3 = np.asarray(rhs(u + 0.5 * h, y + 0.5 * h * k2))
        k4 = np.asarray(rhs(u + h, y + h * k3))
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise DivergenceError(f"RK4 state became non-finite near u = {u + h}")
        ys[i + 1] = y
    return us, ys


class TridiagFactors(NamedTuple):
    """Bands of a scalar tridiagonal matrix, its largest entry and its LU
    factors (LAPACK ``gttrf``), all read-only so solves can share them."""

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    scale: float
    lu: tuple


def factor_tridiag(lower, diag, upper) -> TridiagFactors:
    """LU-factor a scalar tridiagonal matrix with partial pivoting.

    ``diag`` has N entries; ``lower[i]`` couples row i+1 to row i and
    ``upper[i]`` row i to row i+1 (N-1 entries each). Raises
    ``SingularSystemError`` when a pivot falls below 1e-13 times the local row
    scale; its row is where elimination without row interchanges first meets
    such a pivot (interchanges would move a zero row to the end).
    """
    lower, diag, upper = (np.array(a, dtype=float) for a in (lower, diag, upper))
    n = diag.size
    if diag.ndim != 1 or lower.shape != (n - 1,) or upper.shape != (n - 1,):
        raise SizeError(f"bands {lower.shape}, {diag.shape}, {upper.shape} mismatch")
    *lu, _ = _gttrf(lower, diag, upper)
    tol = np.abs(diag)
    tol[1:] = np.maximum(tol[1:], np.abs(lower))
    tol[:-1] = np.maximum(tol[:-1], np.abs(upper))
    tol *= 1e-13
    # Step i of the pivoted factorization may use row i or row i+1.
    if not np.all(np.abs(lu[1]) > np.maximum(tol, np.append(tol[1:], 0.0))):
        pivot = diag[0]
        for row in range(n):
            if row:
                pivot = diag[row] - lower[row - 1] * upper[row - 1] / pivot
            if not abs(pivot) > tol[row]:
                break
        raise SingularSystemError(
            f"singular pivot in tridiagonal system at row {row}", row=row
        )
    for a in (lower, diag, upper, *lu):
        a.flags.writeable = False
    scale = max(np.abs(diag).max(), np.abs(lower).max(initial=0.0),
                np.abs(upper).max(initial=0.0))
    return TridiagFactors(lower, diag, upper, scale, tuple(lu))


def solve_tridiag(factors: TridiagFactors, rhs) -> np.ndarray:
    """Solve A x = rhs for an (N, k) rhs with ``factor_tridiag``'s factors.

    LAPACK solves each column on its own, so columns do not mix. The solution
    passes ``check_tridiag``. A non-finite or overflowing right-hand side
    gives a non-finite solution for the caller to handle.
    """
    b = np.asarray(rhs, dtype=float)
    n = factors.diag.shape[0]
    if b.ndim != 2 or b.shape[0] != n:
        raise SizeError(f"rhs shape {b.shape} does not match {n} rows")
    x, _ = _gttrs(*factors.lu, b)
    check_tridiag(factors, x.T[None], b.T[None])
    return x


def check_tridiag(factors: TridiagFactors, x, b) -> None:
    """Residual check of a stack of solves of A x = b, ``x`` and ``b`` shaped
    (B, ..., N): one solve per leading index, its columns node-last.

    Raises ``SingularSystemError`` at the worst row of the first solve whose
    residual exceeds 1e-10 times the scale of A x and b, measured over that
    solve's columns. A column with a non-finite entry in x, b or its residual
    is left out, so a blown-up column does not hide the others.
    """
    columns = tuple(range(1, x.ndim))  # the axes of one solve
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.multiply(factors.diag, x)
        residual -= b
        term = np.multiply(factors.lower, x[..., :-1])
        residual[..., 1:] += term
        np.multiply(factors.upper, x[..., 1:], out=term)
        residual[..., :-1] += term
        parts = np.abs(residual, out=residual), np.abs(x), np.abs(b)
        for blown_up in (False, True):
            if blown_up:  # leave out the columns with a non-finite entry
                finite = np.logical_and.reduce([np.isfinite(a).all(axis=-1) for a in parts])
                parts = [np.where(finite[..., None], a, 0.0) for a in parts]
            worst, x_max, b_max = (a.max(axis=columns) for a in parts)
            # NaN compares false, so a blown-up column takes the second pass;
            # a finite worst residual is never above an infinite bound.
            bound = 1e-10 * (3.0 * factors.scale * x_max + b_max)
            within = worst <= np.maximum(bound, 1e-300)
            if within.all():
                return
    solve = within.argmin()  # the first failing solve
    row = int(parts[0][solve].reshape(-1, x.shape[-1]).max(axis=0).argmax())
    raise SingularSystemError(
        f"residual {worst[solve]:.3e} above {bound[solve]:.3e} at row {row}", row=row
    )


@np.errstate(over="ignore", invalid="ignore")  # an overflowing table raises
def cubic_spline(knots, values, ends="natural") -> np.ndarray:
    """Horner table of the C^2 cubic spline through ``values`` at ``knots``.

    ``knots`` are N >= 3 strictly increasing finite abscissae; ``values`` has
    the knots along axis 0 and any trailing axes, each spline on its own.
    ``ends`` is "natural" (zero second derivative), "not-a-knot" (continuous
    third derivative at the second and second-to-last knots; with 3 knots the
    parabola through them) or a pair of end slopes (clamped). The knot slopes
    come from one ``factor_tridiag``/``solve_tridiag`` solve with de Boor's
    rows (A Practical Guide to Splines, 1978), whose pivot and residual checks
    apply. Returns shape (N, 4, *values.shape[1:]): row i < N-1 holds the
    coefficients of the cubic on [knots[i], knots[i+1]] in powers 3, 2, 1, 0
    of u - knots[i]; row N-1 holds the line through the last knot with its
    slope, so that every knot evaluates to its value exactly. A table that
    overflows raises ``NumericalError``, with no floating-point warning.
    """
    x = np.asarray(knots, dtype=float)
    y = np.asarray(values, dtype=float)
    n = x.shape[0] if x.ndim == 1 else 0
    if n < 3 or y.shape[:1] != (n,):
        raise SizeError(f"need at least 3 knots with one value each, got "
                        f"{x.shape} knots and {y.shape} values")
    h = np.diff(x)
    if not np.all(h > 0.0):
        raise SizeError("knot abscissae must be strictly increasing")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise InputError("knots and values must be finite")
    tail = y.shape[1:]
    y = y.reshape(n, -1)
    hc = h[:, None]
    secant = np.diff(y, axis=0) / hc
    # Row i relates the knot slopes i-1, i and i+1; lower[i] couples row i+1
    # to slope i and upper[i] row i to slope i+1.
    lower, diag, upper = np.empty(n - 1), np.empty(n), np.empty(n - 1)
    rhs = np.empty_like(y)
    diag[1:-1] = 2.0 * (h[:-1] + h[1:])
    lower[:-1], upper[1:] = h[1:], h[:-1]
    rhs[1:-1] = 3.0 * (hc[1:] * secant[:-1] + hc[:-1] * secant[1:])
    if not isinstance(ends, str):
        diag[0], upper[0], rhs[0] = 1.0, 0.0, ends[0]
        diag[-1], lower[-1], rhs[-1] = 1.0, 0.0, ends[1]
    elif ends == "natural":
        diag[0], upper[0], rhs[0] = 2.0 * h[0], h[0], 3.0 * (y[1] - y[0])
        diag[-1], lower[-1], rhs[-1] = 2.0 * h[-1], h[-1], 3.0 * (y[-1] - y[-2])
    elif ends == "not-a-knot" and n == 3:
        # Both end rows would state the one interior knot's condition; the
        # parabola's end rows take their place.
        diag[0], upper[0], rhs[0] = 1.0, 1.0, 2.0 * secant[0]
        diag[-1], lower[-1], rhs[-1] = 1.0, 1.0, 2.0 * secant[-1]
    elif ends == "not-a-knot":
        span = x[2] - x[0]
        diag[0], upper[0] = h[1], span
        rhs[0] = ((h[0] + 2.0 * span) * h[1] * secant[0] + h[0] ** 2 * secant[1]) / span
        span = x[-1] - x[-3]
        diag[-1], lower[-1] = h[-2], span
        rhs[-1] = (h[-1] ** 2 * secant[-2] + (2.0 * span + h[-1]) * h[-2] * secant[-1]) / span
    else:
        raise ValueError(f"ends must be 'natural', 'not-a-knot' or two slopes, got {ends!r}")
    slopes = solve_tridiag(factor_tridiag(lower, diag, upper), rhs)
    excess = (slopes[:-1] + slopes[1:] - 2.0 * secant) / hc
    table = np.zeros((n, 4, y.shape[1]))
    table[:-1, 0] = excess / hc
    table[:-1, 1] = (secant - slopes[:-1]) / hc - excess
    table[:, 2] = slopes
    table[:, 3] = y
    if not np.isfinite(table).all():
        raise NumericalError(f"the cubic spline table overflows on the knots "
                             f"[{float(x[0])!r}, {float(x[-1])!r}]")
    return table.reshape(n, 4, *tail)


def eval_spline(knots, table, u) -> np.ndarray:
    """A ``cubic_spline`` table at the points of the 1-D array ``u``.

    Each u must lie in [knots[0], knots[-1]] or be NaN, which passes through.
    One ``searchsorted`` finds the rows, one gather takes their coefficients
    and Horner's rule sums them. Returns shape (u.size, *table.shape[2:]).
    """
    # u's row is the count of knots after the first that are <= u, so the
    # last knot and NaN get the last row.
    row = np.searchsorted(knots[1:], u, side="right")
    coef = table[row]
    d = (u - knots[row]).reshape(-1, *(1,) * (table.ndim - 2))
    out = coef[:, 0] * d
    out += coef[:, 1]
    out *= d
    out += coef[:, 2]
    out *= d
    out += coef[:, 3]
    return out


class SampledFn:
    """Smooth function given by samples on strictly increasing knots.

    A ``cubic_spline`` (C^2 on the knot range) with natural ends, or clamped
    ones when the endpoint slopes are known exactly: pass them as
    ``end_slopes`` (the natural end perturbs the boundary derivative at first
    order in the knot spacing). Knot values are reproduced exactly, the last
    one included. Evaluation outside the knot range by more than a slack of
    1e-12 times max(width, 1) raises ``DomainError``; inside the slack the
    spline is taken at the end knot. NaN passes through, and a scalar
    argument gives a float.
    """

    def __init__(self, knots, values, end_slopes=None):
        knots = np.asarray(knots, dtype=float)
        values = np.asarray(values, dtype=float)
        if knots.ndim != 1 or knots.size < 4:
            raise SizeError(f"need at least 4 knots, got {knots.size}")
        if values.shape != knots.shape:
            raise SizeError("knot and value counts differ")
        if end_slopes is None:
            ends = "natural"
        else:
            ends = (float(end_slopes[0]), float(end_slopes[1]))
        coef = cubic_spline(knots, values, ends)
        # Value and slope coefficients side by side, so that one row lookup
        # serves both.
        slope = np.zeros_like(coef)
        slope[:, 1:] = coef[:, :3] * (3.0, 2.0, 1.0)
        self._table = np.stack([coef, slope], axis=-1)
        self._knots = knots
        self._values = values
        slack = 1e-12 * max(knots[-1] - knots[0], 1.0)
        self._limits = (float(knots[0] - slack), float(knots[-1] + slack))

    @property
    def knots(self) -> np.ndarray:
        return self._knots

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def domain(self):
        return float(self._knots[0]), float(self._knots[-1])

    def _evaluate(self, u, part):
        """Table columns ``part`` (0 value, 1 slope) at u, u's axes first."""
        u = np.asarray(u, dtype=float)
        lo, hi = self._limits
        # min and max propagate NaN, which compares false.
        if u.min(initial=np.inf) < lo or u.max(initial=-np.inf) > hi:
            raise DomainError(
                f"evaluation outside knot range [{self._knots[0]}, {self._knots[-1]}]"
            )
        clipped = np.minimum(np.maximum(u.ravel(), self._knots[0]), self._knots[-1])
        out = eval_spline(self._knots, self._table[..., part], clipped)
        return out.reshape(u.shape + out.shape[1:])

    def __call__(self, u):
        out = self._evaluate(u, 0)
        return float(out) if np.isscalar(u) else out

    def derivative(self, u):
        out = self._evaluate(u, 1)
        return float(out) if np.isscalar(u) else out

    def value_and_slope(self, u):
        """``(self(u), self.derivative(u))`` from one row lookup."""
        out = self._evaluate(u, slice(None))
        if np.isscalar(u):
            return float(out[0]), float(out[1])
        return out[..., 0], out[..., 1]
