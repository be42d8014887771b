"""Test-only constructors of sampled functions and boundary-trace data."""

import numpy as np

from rodsim.grid_fields import SampledFn
from rodsim.integrators import _steps_pure
from rodsim.rod_model import BoundaryConditions
from rodsim.solution_family import CauchyTrace


def sampled_fn(fn, lo: float, hi: float, n: int = 256) -> SampledFn:
    """``fn`` sampled on n evenly spaced knots of [lo, hi]."""
    knots = np.linspace(lo, hi, n)
    return SampledFn(knots, np.asarray([fn(u) for u in knots], dtype=float))


def random_trace(rng: np.random.Generator) -> CauchyTrace:
    """Draw nonvanishing boundary-trace data for round-trip checks."""

    def draw():
        base = rng.uniform(0.7, 1.3) * rng.choice([-1.0, 1.0])
        amp = rng.uniform(0.1, 0.4) * abs(base)
        freq = rng.uniform(0.3, 1.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        return lambda t, b=base, a=amp, f=freq, p=phase: b + a * np.cos(f * t + p)

    return CauchyTrace(
        v1_trace=draw(),
        w1_trace=draw(),
        k1_trace=draw(),
        v2_origin=rng.uniform(0.2, 0.9) * rng.choice([-1.0, 1.0]),
    )


def step_block(steps, packed, params, bc, grid, f, couples, times, dt):
    """A block of steps of the block core ``steps`` (``integrators._steps_pure``
    or ``_steps_semi``) from a packed state, under the force ``f`` and step
    i's couple couples[i] at times[i]: the block of states (B + 1, C, K, N)
    and the steps' contact forces and right-hand sides (2, B, 2, K, N)."""
    block = np.empty((len(times) + 1,) + packed.shape)
    block[0] = packed
    solves = np.empty((2, len(times), 2) + packed.shape[1:])
    steps(block, solves, params, bc, grid, f, couples, times, dt)
    return block, solves


def step_once(steps, packed, params, bc, grid, f, l, t, dt):
    """One step of the block core ``steps`` from a packed state, as a block of
    one, under the force ``f`` and the couple ``l``: the next packed state."""
    return step_block(steps, packed, params, bc, grid, f, l[None], np.array([t]), dt)[0][1]


def pure_step_matrices(config):
    """The 6N x 6N matrices (M, P) of the pure step under zero load, whose
    matrix is A(dt) = P + dt M: forward Euler is affine in dt, so
    M = A(2) - A(1) and P = A(1) - M. Each A(dt) is one pure step on the
    (6, 6N, N) identity batch, whose rod j is the j-th unit state."""
    params = config.material
    grid = params.grid()
    n = grid.node_count
    identity = np.eye(6 * n).reshape(6 * n, 6, n).transpose(1, 0, 2).copy()
    zero = np.zeros((2, 1, n))
    bc = BoundaryConditions(base=config.boundary.base, tip=config.boundary.tip)

    def matrix(dt):
        new = step_once(_steps_pure, identity, params, bc, grid, zero, zero, 0.0, dt)
        return new.transpose(1, 0, 2).reshape(6 * n, 6 * n).T  # column j: rod j

    a1 = matrix(1.0)
    m = matrix(2.0) - a1
    return m, a1 - m
