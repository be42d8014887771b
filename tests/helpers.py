"""Test-only constructors of sampled functions and boundary-trace data, the
test entry into the block cores (``step_block`` and ``step_once``), and the
tests' one reference run with its failures: ``step_loop``."""

import numpy as np
import pytest

from rodsim import scenarios
from rodsim.grid_fields import SampledFn, _diff_last, check_tridiag
from rodsim.integrators import (
    _Workspace,
    _angle_integration,
    _clamp,
    _curvature,
    _euler,
    _linear_velocities,
    _momentum,
    _nonfinite_rods,
    _projection,
    _lift,
    _project,
    _steps_pure,
    _velocities,
)
from rodsim.rod_model import BoundaryConditions, MaterialParams, _drift_norms
from rodsim.solution_family import CauchyTrace, SolutionFamily, sample_state


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


def step_block(steps, packed, params, bc, f, couples, times, dt):
    """A block of steps of the block core ``steps`` (``integrators._steps_pure``
    or ``_steps_semi``) from a packed state, under the force ``f`` and step
    i's couple couples[i] at times[i]: the block of states (B + 1, C, K, N)
    and the steps' contact forces and right-hand sides (2, B, 2, K, N)."""
    block = np.empty((len(times) + 1,) + packed.shape)
    block[0] = packed
    solves = np.empty((2, len(times), 2) + packed.shape[1:])
    steps(block, solves, params, bc, f, couples, times, dt)
    return block, solves


def step_once(steps, packed, params, bc, f, l, t, dt):
    """One step of the block core ``steps`` from a packed state, as a block of
    one, under the force ``f`` and the couple ``l``: the next packed state."""
    return step_block(steps, packed, params, bc, f, l[None], np.array([t]), dt)[0][1]


def step_unloaded(steps, packed, params, bc, t, dt):
    """``step_once`` under zero force and couple."""
    zero = np.zeros((2, 1, params.nodes))
    return step_once(steps, packed, params, bc, zero, zero, t, dt)


@np.errstate(all="ignore")  # a rod that blows up is found by the loop's checks
def step_loop(config):
    """The reference run of ``config``: a loop of one-step blocks that
    measures each state on its own. Returns the frames' times, energies
    (F, K), drift norms (F, K, 3) and curvatures (F, N, K, 2), and
    ``failed`` as ``scenarios.simulate_rod`` words it. A rod is dropped at
    its first failing step and the others step on to t_end; the frames stop
    at the first step that loses a rod. The drive, the energy and the block
    core are looked up in ``scenarios``, so a test that patches one there
    patches both runs. An error of the core (a failed residual check)
    propagates."""
    mat, semi = config.material, config.scheme == "semi"
    grid, rods = mat.grid(), np.arange(config.carpet.rods)
    phases = config.drive.phase + rods * config.carpet.phase_increment
    bc = scenarios._boundary(config)
    core = scenarios._steps_semi if semi else scenarios._steps_pure
    limit = 1e3 * max(config.drive.amplitude**2 * mat.length**3 / (2.0 * mat.EI), 1e-12)
    n_steps, stride = config.n_steps, config.output.stride
    dt = config.t_end / n_steps
    force = np.zeros((2, 1, grid.node_count))
    state = np.zeros((4 if semi else 6, rods.size, grid.node_count))
    frames, failed = [], {}
    for k in range(n_steps + 1):
        energies = scenarios._energy(state, mat, grid.spacing)
        nonfinite = _nonfinite_rods(state)
        lost = nonfinite | (energies > limit)
        for j in np.flatnonzero(lost):
            cause = ("non-finite" if nonfinite[j] else
                     f"energy {energies[j]:.3g} above bound {limit:.3g}")
            failed[rods[j].item()] = f"step {k} (t={k * dt:.6g}, {cause})"
        if not failed and (k % stride == 0 or k == n_steps):
            raw = _lift(state) if semi else state
            frames.append((k * dt, energies, _drift_norms(raw, grid.spacing, semi).T,
                           raw[0:2].T.copy()))
        rods, state = rods[~lost], state[:, ~lost]
        if k == n_steps or not rods.size:
            break
        couple = scenarios._drive(config, phases[rods], grid.nodes, np.array([k * dt]))[0]
        state = step_once(core, state, mat, bc, force, couple, k * dt, dt)
    return [np.array(column) for column in zip(*frames)], dict(sorted(failed.items()))


def drive_half_cutoff(config, phase, nodes, times):
    """The package's drive with half its couple at a node on the drive's
    cutoff s = active_fraction * length: the trapezoid value of the
    profile's jump, the drive of ROADMAP's "Second order in space" (b)."""
    couples = DRIVES["node-value"](config, phase, nodes, times)
    cutoff = config.drive.active_fraction * config.material.length
    couples[..., np.abs(nodes - cutoff) <= 1e-12 * config.material.length] *= 0.5
    return couples


# The drives that a failure test runs under, patched over ``scenarios._drive``
# (``simulate_rod`` and ``step_loop`` both look it up there): the package's,
# whose cutoff node takes full weight, and the half-weight one. What such a
# test asserts must not hang on the first-order cutoff node.
DRIVES = {"node-value": scenarios._drive, "half-cutoff": drive_half_cutoff}


def under_drives(cases):
    """Parameters (case, drive) of each case under each of ``DRIVES``; under
    the package's drive a case keeps its own id, so that its record reads
    on from before the drives. A test without cases of its own has no id to
    keep (any parameter adds one) and takes ``@pytest.mark.parametrize(
    "drive", DRIVES)`` instead."""
    return [pytest.param(case, drive, id=case if drive == "node-value" else f"{case}-{drive}")
            for drive in DRIVES for case in cases]


def adiag(v: np.ndarray) -> np.ndarray:
    """The antidiagonal matrix [[0, 1], [-1, 0]] applied to 2-vectors (last
    axis): (v1, -v0)."""
    return np.stack([v[..., 1], -v[..., 0]], axis=-1)


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
    new = step_once(steps, identity, params, bc, zero, zero, 0.0, dt)
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

    def steps(block, solves, params, bc, f, couples, times, dt):
        w = _Workspace(params, bc, f, times, dt, block.shape[2])
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
    dm = w.derivatives[0:2]
    _diff_last(np.multiply(w.params.EI, raw[0:2], out=w.torque), w.ds, dm)
    _momentum(w, dm, l, i, n, rhs, w.torque)
    _euler(w, raw[2:4], w.torque, new[2:4])
    _clamp(w, new[2:4], w.clamps[i, :2])
    _curvature(w, raw[0:2], _diff_last(new[2:4], w.ds, w.derivatives[2:4]), new[0:2])


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
# runs through ``step_block`` or ``cross_validation_error``, or through
# ``scenarios.simulate_rod`` by swapping ``scenarios._steps_pure`` or
# ``_steps_semi`` for one.
steps_reordered = block_core(_reordered, _linear_velocities)
steps_semi_old_ang_mag = block_core(_semi_old_ang_mag)
steps_semi_projected_angle = block_core(_semi_projected_angle)


def skew_interval_operators(kappa: np.ndarray, ds: float):
    """Reference for ``rod_model._interval_operators``: each interval's skew
    matrix K of the midpoint curvature, the stacked K @ K, and
    I + c1 K + c2 K**2 and c2 K e3 + c3 K**2 e3 + ds e3 as matrix sums;
    returns (rotations, tangent steps, K).

    K @ K runs through BLAS, whose kernel may fuse K**2[2, 2]'s two products
    into one rounding (an FMA), so on some machines that entry, and with it
    rot[2, 2] and step[2], can differ from the closed form's by an ulp at
    interval angles of half a radian or more."""
    mid = 0.5 * (kappa[:-1] + kappa[1:])
    k = np.zeros(mid.shape[:-1] + (3, 3))
    k[..., 0, 2], k[..., 2, 0] = mid[..., 1], -mid[..., 1]
    k[..., 2, 1], k[..., 1, 2] = mid[..., 0], -mid[..., 0]
    k2 = k @ k
    theta = np.linalg.norm(mid, axis=-1)
    ang = theta * ds
    small = ang < 1e-8
    theta = np.where(small, 1.0, theta)
    sin_t = np.sin(ang) / theta
    c1 = np.where(small, ds, sin_t)
    c2 = np.where(small, 0.5 * ds**2, (1.0 - np.cos(ang)) / theta**2)
    c3 = np.where(small, ds**3 / 6.0, (ds - sin_t) / theta**2)
    rot = np.eye(3) + c1[..., None, None] * k + c2[..., None, None] * k2
    step = c2[..., None] * k[..., :, 2] + c3[..., None] * k2[..., :, 2]
    step[..., 2] += ds
    return rot, step, k


def exact_family(span=3.0):
    """The unit-amplitude, linear-angle, identity-time-map family member,
    an exact solution of the momentum balances with f = l = 0 when
    EI = rho I - rho A."""
    return SolutionFamily(
        amp=sampled_fn(lambda u: 1.0, -span, span, 65),
        angle=sampled_fn(lambda u: u, -span, span, 65),
        time_map=sampled_fn(lambda w: w, -2 * span, 2 * span, 65),
        u_range=(-span, span),
    )


def exact_bc():
    """Both ends clamped to the exact solution's signals."""
    e = lambda a: np.array([np.cos(a), np.sin(a)])
    de = lambda a: np.array([-np.sin(a), np.cos(a)])
    return BoundaryConditions(
        base="clamped", tip="clamped",
        base_lin_vel=lambda t: e(t), base_ang_vel=lambda t: e(t),
        base_lin_acc=lambda t: de(t),
        tip_lin_vel=lambda t: e(t - 1.0), tip_ang_vel=lambda t: e(t - 1.0),
        tip_lin_acc=lambda t: de(t - 1.0),
    )


def cross_validation_error(steps, semi, nodes, dt, t_end=0.5):
    """Criterion 7's run of the block core ``steps`` on the exact solution
    at (nodes, dt) to t_end, as one ``step_block`` from the sampled state
    (projected for a ``semi`` core): its max-norm error against the exact
    state, and the final packed raw state (6, 1, N)."""
    fam = exact_family()
    params = MaterialParams(
        rho=1.0, area=0.01, moment=0.02, EI=0.01, length=1.0, nodes=nodes
    )
    grid = params.grid()
    state = sample_state(fam, grid, 0.0)
    if semi:
        state = _project(state, np.zeros(nodes), 1e-12)
    n_steps = int(round(t_end / dt))
    zero = np.zeros((2, 1, nodes))
    block, _ = step_block(steps, state, params, exact_bc(), zero,
                          np.zeros((n_steps, 2, 1, nodes)), np.arange(n_steps) * dt, dt)
    last = _lift(block[-1]) if semi else block[-1]
    exact = sample_state(fam, grid, t_end)
    return np.abs(last - exact).max(), last
