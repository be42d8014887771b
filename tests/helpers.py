"""Test-only constructors of sampled functions and boundary-trace data."""

import numpy as np

from rodsim.grid_fields import SampledFn, _diff_last, check_tridiag
from rodsim.integrators import (
    _Workspace,
    _angle_integration,
    _clamp,
    _curvature,
    _linear_velocities,
    _momentum,
    _projection,
    _steps_pure,
    _velocities,
)
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


def step_matrix(steps, config, dt):
    """The 6N x 6N matrix of one step of the raw block core ``steps`` under
    zero load and static clamps: the step on the (6, 6N, N) identity batch,
    whose rod j is the j-th unit state."""
    params = config.material
    grid = params.grid()
    n = grid.node_count
    identity = np.eye(6 * n).reshape(6 * n, 6, n).transpose(1, 0, 2).copy()
    zero = np.zeros((2, 1, n))
    bc = BoundaryConditions(base=config.boundary.base, tip=config.boundary.tip)
    new = step_once(steps, identity, params, bc, grid, zero, zero, 0.0, dt)
    return new.transpose(1, 0, 2).reshape(6 * n, 6 * n).T  # column j: rod j


def pure_step_matrices(config):
    """The 6N x 6N matrices (M, P) of the pure step under zero load, whose
    matrix is A(dt) = P + dt M: forward Euler is affine in dt, so
    M = A(2) - A(1) and P = A(1) - M."""
    a1 = step_matrix(_steps_pure, config, 1.0)
    m = step_matrix(_steps_pure, config, 2.0) - a1
    return m, a1 - m


def block_core(step, finish=None):
    """A block core with the signature of ``integrators._steps_pure``: each
    step i runs step(w, old, new, l, i, n, rhs) on the block's workspace,
    with its contact force and right-hand side into n and rhs; then
    finish(w, block, forces) runs, and the block's solves are checked."""

    def steps(block, solves, params, bc, grid, f, couples, times, dt):
        w = _Workspace(params, bc, grid, f, times, dt, block.shape[2])
        forces, rhs = solves
        for i, l in enumerate(couples):
            step(w, block[i], block[i + 1], l, i, forces[i], rhs[i])
        if finish is not None:
            finish(w, block, forces)
        check_tridiag(w.factors, forces, rhs)

    return steps


def _reordered(w, raw, new, l, i, n, rhs):
    """The pure step with the curvature advanced from the updated, clamped
    angular velocity: symplectic Euler on curvature and angular velocity."""
    dm = w.derivatives[:2]
    _diff_last(np.multiply(w.params.EI, raw[0:2], out=w.torque), w.ds, dm)
    _momentum(w, dm, raw[2:4], l, i, n, rhs, new[2:4])
    _clamp(w, new[2:4], w.clamps[i, :2])
    _curvature(w, raw[0:2], _diff_last(new[2:4], w.ds, w.derivatives[2:]), new[0:2])


def _semi_old_ang_mag(w, m, new, l, i, n, rhs):
    """The semi step without ingredient (i): the curvature advanced from the
    old ang_mag."""
    _velocities(w, m, l, i, n, rhs)
    _projection(w, m, new)
    _angle_integration(w, m, new)
    _curvature(w, m[1], _diff_last(m[2], w.ds, w.slope), new[1])


def _semi_projected_angle(w, m, new, l, i, n, rhs):
    """The semi step without ingredient (iii): the angle taken from the
    projection, not integrated along the rod."""
    _velocities(w, m, l, i, n, rhs)
    _projection(w, m, new)
    new[0] = new[1]
    _curvature(w, m[1], _diff_last(new[2], w.ds, w.slope), new[1])


# Scheme variants as block cores of the integrators' stages, which a test
# runs through ``scenarios.simulate_rod`` by swapping ``scenarios._steps_pure``
# or ``_steps_semi`` for one.
steps_reordered = block_core(_reordered, _linear_velocities)
steps_semi_old_ang_mag = block_core(_semi_old_ang_mag)
steps_semi_projected_angle = block_core(_semi_projected_angle)
