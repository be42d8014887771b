"""Tests for the pure-numeric and semi-analytic time steppers, through the
block cores (``helpers.step_block`` and ``step_once``) on packed states:
(6, K, N) raw, (4, K, N) on the manifold (angle, curv_mag, ang_mag,
vel_mag)."""

from dataclasses import replace

import numpy as np
import pytest

import rodsim
from rodsim import integrators, rod_model, scenarios
from rodsim.errors import InputError, InstabilityError, SingularSystemError
from rodsim.grid_fields import Grid1D, central_diff
from rodsim.integrators import _lift, _nonfinite_rods, _project, max_stable_dt
from rodsim.rod_model import (
    BoundaryConditions,
    MaterialParams,
    _drift_norms,
    _energy,
)
from rodsim.scenarios import default_config, simulate_rod
from rodsim.solution_family import random_family, sample_state

from helpers import (
    DRIVES,
    adiag,
    cross_validation_error,
    pure_step_matrices,
    step_block,
    step_matrix,
    step_loop,
    step_once,
    step_unloaded,
    steps_reordered,
    steps_semi_old_ang_mag,
    steps_semi_projected_angle,
)

PURE, SEMI = integrators._steps_pure, integrators._steps_semi
FREE = BoundaryConditions(base="free", tip="free")


def make_params(**overrides):
    base = dict(rho=1.0, area=1.0, moment=1e-2, EI=1e-1, length=1.0, nodes=41)
    base.update(overrides)
    return MaterialParams(**base)


def random_manifold(grid, seed=0, vel_floor=0.3):
    """A random packed manifold state of one rod, (4, 1, N)."""
    rng = np.random.default_rng(seed)
    n = grid.node_count
    vel = vel_floor + rng.uniform(0.0, 1.0, n)
    angle, curv_mag, ang_mag = (rng.uniform(-1.0, 1.0, n) for _ in range(3))
    vel_mag = vel * rng.choice([-1.0, 1.0])
    return np.stack([angle, curv_mag, ang_mag, vel_mag])[:, None]


def manifold(*fields):
    """The packed manifold state (4, K, N) of node-first (N,) or (N, K) fields."""
    return np.stack(fields).reshape(4, len(fields[0]), -1).swapaxes(1, 2).copy()


def at_rest(scheme, nodes):
    """The block core of ``scheme`` and its one-rod packed state at rest."""
    semi = scheme == "semi"
    return (SEMI if semi else PURE), np.zeros((4 if semi else 6, 1, nodes))


def drifts(raw, grid, collinear=False):
    """(R4, R5, R6) of a one-rod packed raw state, as floats."""
    return tuple(_drift_norms(raw, grid.spacing, collinear)[:, 0])


def energy(packed, params):
    """The energy of a one-rod packed state."""
    return _energy(packed, params, params.grid().spacing)[0]


class TestLiftProject:
    def test_round_trip_through_vectors(self):
        g = Grid1D(1.0, 31)
        m = random_manifold(g, seed=1)
        raw = _lift(m)
        back = _lift(_project(raw, m[0], 1e-12))
        for rows in (slice(0, 2), slice(2, 4), slice(4, 6)):  # each field
            np.testing.assert_allclose(back[rows], raw[rows], atol=1e-12)

    def test_angle_recovered_for_forward_velocity(self):
        g = Grid1D(1.0, 11)
        n = g.node_count
        angle = np.linspace(-1.0, 1.0, n)
        m = manifold(angle, np.zeros(n), np.zeros(n), np.ones(n))
        proj = _project(_lift(m), np.zeros(n), 1e-12)
        np.testing.assert_allclose(proj[0, 0], angle, atol=1e-12)

    def test_slow_nodes_keep_previous_angle(self):
        g = Grid1D(1.0, 11)
        n = g.node_count
        prev = np.full(n, 0.4)
        raw = np.zeros((6, 1, n))
        raw[4, 0, :5] = 1.0  # lin_vel's first component; the rest sits below threshold
        proj = _project(raw, prev, 1e-6)
        np.testing.assert_allclose(proj[0, 0, :5], 0.0, atol=1e-15)
        np.testing.assert_allclose(proj[0, 0, 5:], 0.4, atol=1e-15)

    def test_normal_components_discarded(self):
        g = Grid1D(1.0, 11)
        raw = np.zeros((6, 1, g.node_count))
        raw[4] = 1.0
        raw[1] = 0.7  # the curvature purely normal to the direction
        proj = _project(raw, np.zeros(g.node_count), 1e-12)
        np.testing.assert_allclose(proj[1], 0.0, atol=1e-15)


class TestPureStep:
    def test_zero_state_is_fixed_point(self):
        params = make_params()
        new = step_unloaded(PURE, np.zeros((6, 1, params.nodes)), params, FREE, 0.0, 1e-3)
        np.testing.assert_array_equal(new[0:2], 0.0)
        np.testing.assert_array_equal(new[4:6], 0.0)
        assert energy(new, params) == 0.0
        assert drifts(new, params.grid())[0] == 0.0

    def test_uniform_translation_is_fixed_point(self):
        params = make_params()
        state = np.zeros((6, 1, params.nodes))
        state[5] = 2.5
        new = step_unloaded(PURE, state, params, FREE, 0.0, 1e-3)
        np.testing.assert_allclose(new[4:6], state[4:6], atol=1e-12)
        np.testing.assert_allclose(new[2:4], 0.0, atol=1e-12)
        assert drifts(new, params.grid())[0] <= 1e-10

    def test_blowup_sets_finite_flag(self):
        # A stiff rod stepped far beyond its stability limit must produce a
        # non-finite step within a bounded number of steps, leaving the
        # caller's last finite state untouched.
        params = make_params(EI=1e3, nodes=101)
        state = np.zeros((6, 1, params.nodes))
        rng = np.random.default_rng(2)
        state[0:2, 0] = 0.1 * rng.standard_normal((params.nodes, 2)).T
        with np.errstate(all="ignore"):
            for k in range(1000):
                new = step_unloaded(PURE, state, params, FREE, k * 1.0, 1.0)
                if _nonfinite_rods(new).any():
                    break
                state = new
            else:
                pytest.fail("no step of 1000 was non-finite")
        assert np.all(np.isfinite(state[0:2]))

    @pytest.mark.parametrize(
        "bc",
        [BoundaryConditions(), FREE],
        ids=["clamped_base", "free_free"],
    )
    def test_huge_finite_state_is_a_non_finite_step(self, bc):
        # A state near overflow makes the force solve non-finite. That is a
        # blown-up step, not a singular (or, with free ends, misconfigured)
        # contact-force matrix.
        params = default_config().material
        grid = params.grid()
        state = np.zeros((6, 1, grid.node_count))
        state[0] = 1e305 * np.sin(3.0 * grid.nodes)
        before = state.copy()
        with np.errstate(all="ignore"):
            new = step_unloaded(PURE, state, params, bc, 0.0, 1e-4)
        assert _nonfinite_rods(new).all()
        np.testing.assert_array_equal(state, before)

    def test_free_ends_are_moment_free(self):
        # A free end carries no bending moment, so the curvature at free end
        # nodes is pinned to zero after every step (both schemes).
        params = make_params(nodes=21)
        fam = random_family(np.random.default_rng(8))
        t0 = float(fam.time_map(0.5))
        state = sample_state(fam, params.grid(), t0)
        new = step_unloaded(PURE, state, params, FREE, t0, 1e-4)
        np.testing.assert_array_equal(new[0:2, 0, 0], [0.0, 0.0])
        np.testing.assert_array_equal(new[0:2, 0, -1], [0.0, 0.0])
        m = _project(state, np.zeros(params.nodes), 1e-12)
        mnew = step_unloaded(SEMI, m, params, FREE, t0, 1e-4)
        assert mnew[1, 0, 0] == 0.0
        assert mnew[1, 0, -1] == 0.0

    def test_single_step_drift_linear_in_dt(self):
        # Starting exactly on the collinear manifold, one step leaves it by
        # O(dt): the post-step collinearity residual halves with dt.
        params = make_params(nodes=41)
        fam = random_family(np.random.default_rng(3))
        t0 = float(fam.time_map(0.5))
        init = sample_state(fam, params.grid(), t0)

        def single_step_r5(dt):
            return drifts(step_unloaded(PURE, init, params, FREE, t0, dt), params.grid())[1]

        ratio = single_step_r5(1e-6) / single_step_r5(5e-7)
        assert ratio == pytest.approx(2.0, rel=0.15)


class TestSemiStep:
    def test_zero_state_is_fixed_point(self):
        params = make_params()
        new = step_unloaded(SEMI, np.zeros((4, 1, params.nodes)), params, FREE, 0.0, 1e-3)
        np.testing.assert_array_equal(new[1], 0.0)
        np.testing.assert_array_equal(new[0], 0.0)

    def test_collinearity_bitwise_zero(self):
        # R5 and R6 of a manifold state are zero by representation
        # (``_drift_norms`` with collinear=True sets them).
        params = make_params()
        grid = params.grid()
        m = random_manifold(grid, seed=4)
        couple = np.outer(np.sin(3 * grid.nodes), [0.5, 0.0]).T[:, None]
        zero = np.zeros_like(couple)
        new = step_once(SEMI, m, params, FREE, zero, couple, 0.0, 1e-3)
        _, r5, r6 = drifts(_lift(new), grid, collinear=True)
        assert r5 == 0.0
        assert r6 == 0.0

    def test_angle_slope_matches_ratio(self):
        # Interior nodes must satisfy d(angle)/ds = -ang_mag / vel_mag after
        # the reconstruction stage, to the central-difference order.
        params = make_params(nodes=201)
        fam = random_family(np.random.default_rng(5))
        t0 = float(fam.time_map(0.5))
        raw = sample_state(fam, params.grid(), t0)
        m = _project(raw, np.zeros(params.nodes), 1e-12)
        new = step_unloaded(SEMI, m, params, FREE, t0, 1e-5)[:, 0]
        slope = central_diff(new[0], params.grid().spacing)
        target = -new[2] / new[3]
        np.testing.assert_allclose(slope[2:-2], target[2:-2], atol=5e-4)

    def test_dead_zone_carries_previous_increments(self):
        # Where the velocity magnitude sits below threshold, the per-interval
        # angle increments from the previous step are reused verbatim. The
        # velocity is zero everywhere, so every node is below threshold.
        params = make_params(nodes=21)
        n = params.nodes
        angle = np.linspace(0.0, 1.0, n)
        m = manifold(angle, np.zeros(n), np.zeros(n), np.zeros(n))
        new = step_unloaded(SEMI, m, params, FREE, 0.0, 1e-3)
        np.testing.assert_allclose(np.diff(new[0, 0]), np.diff(angle), atol=1e-15)

    def test_clamped_base_velocity_enforced(self):
        params = make_params()
        m = random_manifold(params.grid(), seed=6)
        new = step_unloaded(SEMI, m, params, BoundaryConditions(), 0.0, 1e-3)
        np.testing.assert_allclose(_lift(new)[4:6, 0, 0], [0.0, 0.0], atol=1e-12)

    def test_curvature_update_is_scalar_advection(self):
        params = make_params()
        m = random_manifold(params.grid(), seed=7)
        dt = 1e-6
        new = step_unloaded(SEMI, m, params, FREE, 0.0, dt)
        # For a tiny step the angular magnitude barely changes, so the
        # curvature increment is dt * d(ang_mag)/ds of the old state.
        # The scheme advects with the post-update angular magnitude, which
        # differs from the pre-step one at O(dt), so the prediction against
        # the old state is accurate to O(dt^2) times the stiff rate.
        predicted = m[1, 0] + dt * central_diff(m[2, 0], params.grid().spacing)
        predicted[[0, -1]] = 0.0  # free ends are moment-free
        np.testing.assert_allclose(new[1, 0], predicted, atol=1e-6)

    @staticmethod
    def dead_zone_step(scales, bc, base_speed=None):
        """One semi step of K straight rods, rod k at velocity scale
        scales[k], and the angle increments the step must give.

        With no curvature and no load the contact force is zero, so the step
        keeps every velocity but the clamped ones (a clamped base moves at
        base_speed times the rod's scale), and the projection threshold eps
        alone sets the dead zone: 1e-8 of the rod's largest linear-velocity
        component after the clamps. Node 9 moves at 3 eps and node 14 at
        0.3 eps. The angular velocity peaks 50 times above the linear one,
        so a threshold taken from it would put node 9 in the dead zone too.
        """
        params = make_params(nodes=21)
        grid = params.grid()
        scale = np.asarray(scales, float)
        angle = np.outer(0.3 * np.sin(3.0 * grid.nodes), np.ones_like(scale))
        vel = np.outer(np.linspace(0.5, 1.0, grid.node_count), scale)
        components = np.abs(vel * np.stack([np.cos(angle), np.sin(angle)]))
        after = vel.copy()
        if base_speed is not None:
            components[:, 0] = [base_speed * scale, 0.0 * scale]
            after[0] = base_speed * scale
        eps = 1e-8 * components.max(axis=(0, 1))
        vel[9], vel[14] = 3.0 * eps, 0.3 * eps
        after[9], after[14] = vel[9], vel[14]
        ang = 0.5 * vel
        ang[4] = 50.0 * scale
        ang_after = ang.copy()
        if base_speed is not None:
            ang_after[0] = 0.0
        m = manifold(angle, np.zeros_like(vel), ang, vel)
        new = step_unloaded(SEMI, m, params, bc, 0.0, 1e-3)
        ok = after > eps
        assert (~ok).sum(axis=0).tolist() == [1] * len(scale)  # node 14 alone
        slope = -ang_after / after
        traced = 0.5 * grid.spacing * (slope[1:] + slope[:-1])
        expected = np.where(ok[1:] & ok[:-1], traced, np.diff(angle, axis=0))
        return np.diff(new[0].T, axis=0), expected

    def test_projection_threshold_is_set_by_the_linear_velocity(self):
        got, expected = self.dead_zone_step([1.0], FREE)
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-12)

    def test_projection_threshold_is_per_rod_after_the_clamps(self):
        # Rods six decades apart, each clamped at ten times its own scale: a
        # shared threshold, or one taken before the clamps, moves the dead
        # zone of some rod.
        scales = [1.0, 1e3, 1e-3]
        clamp = np.array([[10.0 * s, 0.0] for s in scales])
        bc = BoundaryConditions(base_lin_vel=lambda t: clamp)
        got, expected = self.dead_zone_step(scales, bc, base_speed=10.0)
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-12)


class TestMaxStableDt:
    def test_threshold_located(self):
        found = max_stable_dt(lambda dt: dt <= 0.37, 1e-4, 1.0)
        assert 0.37 / 1.06 <= found <= 0.37

    def test_stable_upper_bound_short_circuits(self):
        calls = []

        def is_stable(dt):
            calls.append(dt)
            return True

        assert max_stable_dt(is_stable, 1e-3, 0.5) == 0.5
        assert calls == [1e-3, 0.5]

    def test_unstable_lower_bound_rejected(self):
        # An unstable lower bound is a numerical finding, not an input error.
        with pytest.raises(InstabilityError, match="lower bound dt = 0.001 is already unstable"):
            max_stable_dt(lambda dt: False, 1e-3, 1.0)

    def test_bad_bracket(self):
        with pytest.raises(InputError):
            max_stable_dt(lambda dt: True, 1.0, 0.5)


class TestDiagnostics:
    def test_manifold_drift_norms(self):
        # On the manifold R5 and R6 are zero by representation, and R4 is the
        # compatibility residual of the lifted vectors, bit for bit.
        g = Grid1D(1.0, 31)
        lifted = _lift(random_manifold(g, seed=9))
        r4, r5, r6 = drifts(lifted, g, collinear=True)
        lin_vel, ang_vel = lifted[4:6, 0].T, lifted[2:4, 0].T  # node-first (N, 2)
        expected = np.abs(central_diff(lin_vel, g.spacing) - adiag(ang_vel))
        assert r4 == float(expected.max())
        assert r4 == drifts(lifted, g)[0]
        assert (r5, r6) == (0.0, 0.0)

    def test_manifold_energy_matches_lifted(self):
        params = make_params(nodes=101)
        for seed in range(20):
            m = random_manifold(params.grid(), seed=seed)
            lifted = energy(_lift(m), params)
            assert abs(energy(m, params) - lifted) <= 1e-14 * lifted


class TestDefaultCiliumOffManifold:
    """The pure scheme's default driven cilium is not collinear.

    Curvature and linear velocity stay orthogonal at every node, so the
    collinearity residual R6 = |v x kappa| is part of the solution, not drift
    of the discretization: it does not shrink toward zero as dt is halved.
    """

    @staticmethod
    def pure_state(dt, t_end=0.5):
        """The packed state at t_end of the default driven pure cilium, as
        one block of steps."""
        config = default_config(scheme="pure", dt=dt, t_end=t_end)
        params = config.material
        grid = params.grid()
        times = np.arange(round(t_end / dt)) * dt
        couples = scenarios._drive(config, [config.drive.phase], grid.nodes, times)
        block, _ = step_block(PURE, np.zeros((6, 1, grid.node_count)), params,
                              scenarios._boundary(config),
                              np.zeros((2, 1, grid.node_count)), couples, times, dt)
        return block[-1]

    def test_r6_converges_away_from_zero(self):
        r6 = []
        for dt in (2e-4, 1e-4):
            state = self.pure_state(dt)
            kappa, vel = state[0:2], state[4:6]
            assert np.all(kappa[0] * vel[0] + kappa[1] * vel[1] == 0.0)
            r6.append(float(drifts(state, default_config().material.grid())[2]))
        coarse, fine = r6
        # Measured: 0.148 and 0.208. A first-order drift would halve instead.
        assert coarse > 0.1
        assert fine > 0.75 * coarse


class TestPackedCores:
    """The packed block cores ``_steps_pure`` and ``_steps_semi`` that
    ``simulate_rod`` steps with, here through blocks of one step: pure
    functions of the packed state that never raise for a blown-up rod. The
    tests named after ``step_once`` run the cores one step at a time
    through ``helpers.step_once``."""

    @staticmethod
    def setup(rods, semi, seed=0):
        """Default cilium material, boundary and zero force, a shared random
        couple (2, 1, N), and a random packed batch (C, rods, N)."""
        config = default_config()
        params = config.material
        grid = params.grid()
        rng = np.random.default_rng(seed)
        force = np.zeros((2, 1, grid.node_count))
        couple = rng.standard_normal((2, 1, grid.node_count))
        packed = rng.uniform(-1.0, 1.0, (4 if semi else 6, rods, grid.node_count))
        if semi:
            packed[3] += np.sign(packed[3]) * 0.3  # |v| away from the projection threshold
        return params, scenarios._boundary(config), grid, force, couple, packed

    def test_pure_step_is_linear_in_the_state_and_affine_in_dt(self):
        # Under zero load, with the clamp's zero signals, one forward-Euler
        # step maps the state linearly, and is affine in dt: A(dt) = P + dt M.
        params, bc, grid, force, _, packed = self.setup(8, semi=False)
        zero = np.zeros_like(force)
        x, y, c = packed[:, :4], packed[:, 4:], -2.7

        def step(batch, dt):
            return step_once(PURE, batch, params, bc, force, zero, 0.3, dt)

        # x, y and x + c y as the rods of one batch.
        out = step(np.concatenate((x, y, x + c * y), axis=1), 1e-3)
        ax, ay, axy = out[:, :4], out[:, 4:8], out[:, 8:]
        combined = ax + c * ay
        assert np.abs(axy - combined).max() <= 1e-12 * np.abs(combined).max()
        a1, a2 = step(x, 1.0), step(x, 2.0)
        slope = a2 - a1
        for dt in (0.25, 3.0):
            affine = a1 + (dt - 1.0) * slope
            assert np.abs(step(x, dt) - affine).max() <= 1e-12 * np.abs(affine).max()

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("scheme", ["pure", "semi"])
    def test_a_blown_up_rod_leaves_the_others_bits(self, scheme, bad):
        semi = scheme == "semi"
        core = SEMI if semi else PURE
        params, bc, grid, force, couple, packed = self.setup(3, semi)
        packed[:, 1, grid.node_count // 2] = bad
        with np.errstate(all="ignore"):
            new = step_once(core, packed, params, bc, force, couple, 0.1, 1e-3)
        alone = step_once(core, packed[:, [0, 2]].copy(), params, bc, force, couple, 0.1, 1e-3)
        assert new[:, [0, 2]].tobytes() == alone.tobytes()
        assert not np.isfinite(new[:, 1]).all()

    def test_pure_spectrum_is_neutral_and_euler_grows_by_its_square(self):
        # A(dt) = P + dt M. M's eigenvalues lie on the imaginary axis, so
        # forward Euler amplifies the fastest mode by |1 + i lam dt|, about
        # 1 + (lam dt)**2 / 2 per step, at every dt.
        m, p = pure_step_matrices(default_config())
        lam = np.linalg.eigvals(m)
        fastest = np.abs(lam).max()
        assert lam.real.max() <= 1e-9 * fastest
        for dt in (1e-5, 1e-4):
            growth = np.abs(np.linalg.eigvals(p + dt * m)).max() - 1.0
            expected = 0.5 * (fastest * dt) ** 2
            assert abs(growth - expected) <= 0.01 * expected, (dt, growth, expected)

    @pytest.mark.parametrize("scheme", ["pure", "semi"])
    def test_step_once_rejects_overflowing_contact_scales(self, scheme):
        # rho * area * ds**2 underflows to 0: an input error naming the
        # material keys, not a ZeroDivisionError.
        params = MaterialParams(rho=1e-320, area=2e-2, moment=1e-2, EI=0.1, length=1.0,
                                nodes=101)
        core, state = at_rest(scheme, params.nodes)
        with pytest.raises(InputError, match=r"material\.rho=1e-320"):
            step_unloaded(core, state, params, BoundaryConditions(), 0.0, 1e-3)

    @pytest.mark.parametrize("scheme", ["pure", "semi"])
    def test_step_once_runs_the_residual_check(self, monkeypatch, scheme):
        # Bands that do not match their LU factors fail the residual check of
        # the step's contact-force solve.
        operator = integrators._contact_operator
        monkeypatch.setattr(integrators, "_contact_operator",
                            lambda *key: operator(*key)._replace(diag=1.5 * operator(*key).diag))
        config = default_config()
        params = config.material
        grid = params.grid()
        if scheme == "semi":
            state, core = random_manifold(grid), SEMI
        else:
            state = np.random.default_rng(0).uniform(-1.0, 1.0, (6, 1, grid.node_count))
            core = PURE
        with pytest.raises(SingularSystemError, match="^residual .* at row "):
            step_unloaded(core, state, params, scenarios._boundary(config), 0.0, 1e-3)

    @pytest.mark.parametrize("scheme", ["pure", "semi"])
    def test_rod_by_rod_loads_step_each_rod_as_alone(self, scheme):
        # (2, K, N) loads, a force among them, act rod by rod.
        params = make_params()
        grid = params.grid()
        force, couple = (a.T for a in
                         np.random.default_rng(5).standard_normal((2, grid.node_count, 3, 2)))
        core = SEMI if scheme == "semi" else PURE
        rods = [random_manifold(grid, seed=k) for k in range(3)]
        if scheme == "pure":
            rods = [_lift(m) for m in rods]
        bc = BoundaryConditions()
        new = step_once(core, np.concatenate(rods, axis=1), params, bc, force, couple,
                        0.0, 1e-3)
        for k, rod in enumerate(rods):
            alone = step_once(core, rod, params, bc, force[:, k:k + 1],
                              couple[:, k:k + 1], 0.0, 1e-3)
            assert alone.tobytes() == new[:, k:k + 1].tobytes()

    @pytest.mark.parametrize("signal", ["base_ang_vel", "tip_lin_acc"])
    @pytest.mark.parametrize("scheme", ["pure", "semi"])
    def test_step_once_rejects_a_misshapen_signal(self, scheme, signal):
        # A 3-vector does not broadcast to the end's (rods, 2).
        params = make_params()
        bc = BoundaryConditions(tip="clamped", **{signal: lambda t: np.zeros(3)})
        core, state = at_rest(scheme, params.nodes)
        with pytest.raises(InputError, match=f"^boundary signal {signal} at t="):
            step_unloaded(core, state, params, bc, 0.0, 1e-3)

    @pytest.mark.parametrize("size", [1, 3, 64])
    @pytest.mark.parametrize("scheme", ["pure", "semi"])
    def test_a_block_under_moving_clamps_matches_step_once(self, scheme, size):
        # Both ends clamped to signals that change every step. A block of
        # steps gives the bytes of as many one-step blocks; each end holds its
        # signals at the step's end time, and each contact-force end row is
        # rho A times the acceleration at the step's time (no force acts).
        semi = scheme == "semi"
        params = make_params(nodes=21)
        grid = params.grid()
        e = lambda a: np.array([np.cos(a), np.sin(a)])
        lin_vel = {"base": lambda t: (0.5 + 20.0 * t) * e(3.0 * t),
                   "tip": lambda t: (0.4 + 30.0 * t) * e(1.0 - 2.0 * t)}
        ang_vel = {"base": lambda t: (0.2 + 10.0 * t) * e(5.0 * t + 1.0),
                   "tip": lambda t: (0.3 - 5.0 * t) * e(4.0 * t)}
        lin_acc = {"base": lambda t: 1.5 * e(7.0 * t + 0.5),
                   "tip": lambda t: -0.7 * e(2.0 * t)}
        bc = BoundaryConditions(base="clamped", tip="clamped", **{
            f"{end}_{name}": signals[end] for name, signals in
            (("lin_vel", lin_vel), ("ang_vel", ang_vel), ("lin_acc", lin_acc))
            for end in ("base", "tip")})
        dt = 1e-3 if semi else 1e-4
        times = np.arange(size) * dt
        state = random_manifold(grid, seed=size)
        state = state if semi else _lift(state)
        zero = np.zeros((2, 1, grid.node_count))
        core = SEMI if semi else PURE
        block, (_, rhs) = step_block(core, state, params, bc, zero,
                                     np.zeros((size, 2, 1, grid.node_count)), times, dt)
        for k in range(size):
            state = step_unloaded(core, state, params, bc, k * dt, dt)
            assert state.tobytes() == block[k + 1].tobytes(), k
        for k, t in enumerate(times):
            for node, end in ((0, "base"), (-1, "tip")):
                v, w = lin_vel[end](t + dt), ang_vel[end](t + dt)
                assert np.array_equal(rhs[k, :, 0, node], params.rho_A * lin_acc[end](t))
                if semi:  # the magnitudes along the clamped velocity
                    speed = np.hypot(*v)
                    np.testing.assert_allclose(block[k + 1, 2:4, 0, node],
                                               [w @ v / speed, speed], rtol=1e-12)
                else:
                    assert np.array_equal(block[k + 1, 2:4, 0, node], w)
                    assert np.array_equal(block[k + 1, 4:6, 0, node], v)


class TestSchemeVariants:
    """Scheme variants made of the integrators' stages (``helpers``), each
    differing from a scheme in one ingredient of the semi step: (i) the
    curvature advanced from the updated angular velocity, (ii) the projection
    onto one direction, (iii) the angle integrated along the rod."""

    def test_reordered_step_differs_from_the_pure_step_only_in_curvature(self):
        # Under a force, a couple and moving clamps at both ends, its
        # velocities are the pure step's to the bit: only (i) differs.
        params = default_config().material
        grid = params.grid()
        rng = np.random.default_rng(3)
        spin = lambda a, w: (lambda t: np.array([a * np.sin(w * t), a * np.cos(w * t)]))
        bc = BoundaryConditions("clamped", "clamped", spin(0.1, 3.0), spin(0.2, 2.0),
                                spin(0.3, 3.0), spin(0.05, 1.0), spin(0.15, 4.0),
                                spin(0.05, 1.0))
        force, couple = rng.standard_normal((2, 2, 1, grid.node_count))
        packed = rng.uniform(-1.0, 1.0, (6, 3, grid.node_count))
        pure, reordered = (step_once(core, packed, params, bc, force, couple, 0.4, 1e-3)
                           for core in (PURE, steps_reordered))
        assert reordered[2:].tobytes() == pure[2:].tobytes()
        assert not np.array_equal(reordered[:2], pure[:2])

    @pytest.fixture(scope="class")
    def threshold_51(self):
        """The N=51 default cilium and 2 / lambda_max of its pure step."""
        config = default_config()
        config = replace(config, material=replace(config.material, nodes=51))
        m, _ = pure_step_matrices(config)
        return config, 2.0 / np.abs(np.linalg.eigvals(m)).max()

    def test_reordered_step_is_stable_up_to_the_symplectic_euler_bound(self, threshold_51):
        # Symplectic Euler on curvature and angular velocity is stable for
        # |lambda dt| <= 2 (Hairer, Lubich & Wanner, Geometric Numerical
        # Integration, 2006, VI.3); 2 / lambda_max is 1.0637e-2 at N=51.
        config, bound = threshold_51
        assert abs(bound - 1.0637e-2) <= 1e-3 * bound
        inside, outside = (np.abs(np.linalg.eigvals(step_matrix(steps_reordered, config, dt)))
                           .max() for dt in (0.9 * bound, 1.1 * bound))
        assert inside <= 1.0 + 1e-9
        assert outside > 1.0

    @pytest.mark.parametrize("dt", [5e-3, 1e-3, 2.5e-4])
    def test_semi_without_i_fails_on_the_default_cilium(self, monkeypatch, dt):
        # Advanced from the old ang_mag, the curvature loses the default
        # cilium before t=1 at every dt (at t = 0.135, 0.206 and 0.316).
        monkeypatch.setattr(scenarios, "_steps_semi", steps_semi_old_ang_mag)
        _, stable, failed = simulate_rod(replace(default_config(), dt=dt, t_end=1.0))
        assert not stable and list(failed) == [0]

    @pytest.mark.parametrize("dt", [5e-3, 1e-3])
    def test_semi_without_iii_keeps_the_default_cilium_straight(self, monkeypatch, dt):
        # The cilium's curvature is orthogonal to its velocity, so with the
        # angle from the projection alone the rod stays straight, its tip at
        # (0, 0, 1); the semi step bends it.
        config = replace(default_config(), dt=dt, t_end=1.0)
        tip = lambda: simulate_rod(config)[0].positions[-1, 0, -1]
        assert np.abs(tip() - [0.0, 0.0, 1.0]).max() > 0.1
        monkeypatch.setattr(scenarios, "_steps_semi", steps_semi_projected_angle)
        assert np.abs(tip() - [0.0, 0.0, 1.0]).max() <= 1e-6

    @pytest.mark.parametrize("nodes", [51, 101])
    def test_semi_without_iii_is_within_15_percent_on_the_exact_solution(self, nodes):
        # On criterion 7's on-manifold exact solution at dt 1e-3, the angle
        # from the projection alone is nearly as accurate as the integrated
        # one: 4.577e-3 against 4.548e-3 at N=51, 2.560e-3 against 2.443e-3
        # at N=101. (ii), not (iii), carries the accuracy edge.
        semi, _ = cross_validation_error(SEMI, True, nodes, 1e-3)
        variant, _ = cross_validation_error(steps_semi_projected_angle, True, nodes, 1e-3)
        assert variant != semi
        assert abs(variant - semi) <= 0.15 * semi


class TestRunMatchesStepLoop:
    """``simulate_rod`` steps in blocks and measures each block's frames at
    once. A loop of ``step_once`` calls that measures each state on its own
    must give the same bits: how a run groups its steps changes none."""

    PURE_31 = dict(scheme="pure", dt=1e-4, t_end=0.05)
    SEMI_31 = dict(scheme="semi", dt=1e-3, t_end=0.5)
    CASES = {
        "pure-1-rod": (PURE_31, 1),
        "pure-3-rods": (PURE_31, 3),
        "semi-1-rod": (SEMI_31, 1),
        "semi-3-rods": (SEMI_31, 3),
    }

    @staticmethod
    def run(monkeypatch, config):
        """``simulate_rod(config)`` and the curvatures (F, N, K, 2) of its
        frames, as its centerline blocks receive them."""
        curvatures = []
        reconstruct = scenarios.reconstruct_centerline

        def recording_reconstruct(curvature, *args):  # (N, frames, rods, 2)
            curvatures.extend(curvature.swapaxes(0, 1).copy())
            return reconstruct(curvature, *args)

        monkeypatch.setattr(scenarios, "reconstruct_centerline", recording_reconstruct)
        with np.errstate(all="ignore"):
            traj, stable, failed = scenarios.simulate_rod(config)
        return traj, stable, failed, np.array(curvatures)

    def assert_same_frames(self, monkeypatch, config):
        traj, stable, failed, curvatures = self.run(monkeypatch, config)
        (times, energies, drifts, loop_curvatures), loop_failed = step_loop(config)
        assert failed == loop_failed and stable == (not loop_failed)
        for got, want in ((traj.times, times), (traj.energies, energies),
                          (traj.drifts, drifts), (curvatures, loop_curvatures)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        return traj, failed

    @pytest.mark.parametrize("case", list(CASES))
    def test_frames_are_those_of_a_step_loop(self, monkeypatch, case):
        overrides, rods = self.CASES[case]
        material = MaterialParams(rho=1.0, area=2e-2, moment=1e-2, EI=1e-1,
                                  length=1.0, nodes=31)
        config = default_config(
            material=material, **overrides,
            carpet=scenarios.CarpetConfig(rods=rods, spacing=0.5, phase_increment=2.1))
        assert config.n_steps > 2 * (scenarios.BLOCK // (rods * material.nodes))  # 3+ blocks
        _, failed = self.assert_same_frames(monkeypatch, config)
        assert not failed

    @pytest.mark.parametrize("drive", DRIVES)
    def test_a_failing_semi_run_keeps_its_failure_step_and_message(self, monkeypatch, drive):
        # Default cilium at dt=2e-2, about 3.7 times the semi scheme's dt*:
        # the run blows up within a few steps. It keeps every step up to the
        # one that loses the rod, and names that step as the loop does.
        monkeypatch.setattr(scenarios, "_drive", DRIVES[drive])
        config = default_config(dt=2e-2, t_end=1.0, output=scenarios.OutputConfig(stride=1))
        traj, failed = self.assert_same_frames(monkeypatch, config)
        assert list(failed) == [0]
        assert failed[0].startswith(f"step {traj.times.size} (t=")


# Names of the per-step API that the block cores replaced, and of the
# node-first state class that the packed layout replaced.
DELETED = ("ManifoldState", "lift", "project", "drift_norms", "step_pure_numeric",
           "step_semi_analytic", "Loads", "energy", "adiag", "_GridState", "_step",
           "_loads_at", "_zero_load", "_drive_loads", "RodState")


def test_rodsim_exports_none_of_the_per_step_api():
    modules = (rodsim, integrators, rod_model, scenarios)
    assert [(m.__name__, name) for m in modules for name in DELETED if hasattr(m, name)] == []
    assert not set(DELETED) & {name for m in modules for name in getattr(m, "__all__", ())}
