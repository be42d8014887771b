"""Tests for the pure-numeric and semi-analytic time steppers."""

import numpy as np
import pytest

from rodsim import integrators, scenarios
from rodsim.errors import DivergenceError, InputError, InstabilityError, SingularSystemError
from rodsim.grid_fields import Grid1D, central_diff
from rodsim.integrators import (
    ManifoldState,
    drift_norms,
    lift,
    max_stable_dt,
    project,
    step_pure_numeric,
    step_semi_analytic,
)
from rodsim.rod_model import (
    BoundaryConditions,
    Loads,
    MaterialParams,
    RodState,
    adiag,
    energy,
)
from rodsim.scenarios import default_config
from rodsim.solution_family import random_family, sample_state

from helpers import pure_step_matrices, step_block, step_once


def make_params(**overrides):
    base = dict(rho=1.0, area=1.0, moment=1e-2, EI=1e-1, length=1.0, nodes=41)
    base.update(overrides)
    return MaterialParams(**base)


def random_manifold(grid, seed=0, vel_floor=0.3):
    rng = np.random.default_rng(seed)
    n = grid.node_count
    vel = vel_floor + rng.uniform(0.0, 1.0, n)
    return ManifoldState(
        grid,
        rng.uniform(-1.0, 1.0, n),
        rng.uniform(-1.0, 1.0, n),
        rng.uniform(-1.0, 1.0, n),
        vel * rng.choice([-1.0, 1.0]),
    )


class TestManifoldState:
    def test_zero(self):
        m = ManifoldState.zero(Grid1D(1.0, 5))
        assert np.all(m.angle == 0.0)

    def test_shape_mismatch(self):
        g = Grid1D(1.0, 5)
        with pytest.raises(InputError):
            ManifoldState(g, np.zeros(4), np.zeros(5), np.zeros(5), np.zeros(5))

    def test_non_finite(self):
        g = Grid1D(1.0, 5)
        bad = np.zeros(5)
        bad[2] = np.inf
        with pytest.raises(InputError):
            ManifoldState(g, bad, np.zeros(5), np.zeros(5), np.zeros(5))


class TestLiftProject:
    def test_round_trip_through_vectors(self):
        g = Grid1D(1.0, 31)
        m = random_manifold(g, seed=1)
        raw = lift(m)
        back = lift(project(raw, m.angle, eps=1e-12))
        np.testing.assert_allclose(back.curvature, raw.curvature, atol=1e-12)
        np.testing.assert_allclose(back.ang_vel, raw.ang_vel, atol=1e-12)
        np.testing.assert_allclose(back.lin_vel, raw.lin_vel, atol=1e-12)

    def test_angle_recovered_for_forward_velocity(self):
        g = Grid1D(1.0, 11)
        n = g.node_count
        angle = np.linspace(-1.0, 1.0, n)
        m = ManifoldState(g, angle, np.zeros(n), np.zeros(n), np.ones(n))
        proj = project(lift(m), np.zeros(n), eps=1e-12)
        np.testing.assert_allclose(proj.angle, angle, atol=1e-12)

    def test_slow_nodes_keep_previous_angle(self):
        g = Grid1D(1.0, 11)
        n = g.node_count
        prev = np.full(n, 0.4)
        raw = RodState.zero(g)
        raw.lin_vel[:5, 0] = 1.0  # the rest sits below threshold
        proj = project(raw, prev, eps=1e-6)
        np.testing.assert_allclose(proj.angle[:5], 0.0, atol=1e-15)
        np.testing.assert_allclose(proj.angle[5:], 0.4, atol=1e-15)

    def test_normal_components_discarded(self):
        g = Grid1D(1.0, 11)
        raw = RodState.zero(g)
        raw.lin_vel[:, 0] = 1.0
        raw.curvature[:, 1] = 0.7  # purely normal to the direction
        proj = project(raw, np.zeros(g.node_count), eps=1e-12)
        np.testing.assert_allclose(proj.curv_mag, 0.0, atol=1e-15)

    def test_rejects_nonpositive_eps(self):
        g = Grid1D(1.0, 11)
        with pytest.raises(InputError):
            project(RodState.zero(g), np.zeros(g.node_count), eps=0.0)

    def test_rejects_non_finite_previous_angle(self):
        # At rest every node carries the previous angle through.
        g = Grid1D(1.0, 11)
        prev = np.zeros(g.node_count)
        prev[4] = np.nan
        with pytest.raises(InputError):
            project(RodState.zero(g), prev, eps=1e-12)


class TestPureStep:
    def test_zero_state_is_fixed_point(self):
        params = make_params()
        state = RodState.zero(params.grid())
        new = step_pure_numeric(
            state, params, Loads(), BoundaryConditions(base="free", tip="free"),
            0.0, 1e-3
        )
        np.testing.assert_array_equal(new.curvature, 0.0)
        np.testing.assert_array_equal(new.lin_vel, 0.0)
        assert energy(new, params) == 0.0
        assert drift_norms(new)[0] == 0.0

    def test_uniform_translation_is_fixed_point(self):
        params = make_params()
        state = RodState.zero(params.grid())
        state.lin_vel[:, 1] = 2.5
        new = step_pure_numeric(
            state, params, Loads(), BoundaryConditions(base="free", tip="free"),
            0.0, 1e-3
        )
        np.testing.assert_allclose(new.lin_vel, state.lin_vel, atol=1e-12)
        np.testing.assert_allclose(new.ang_vel, 0.0, atol=1e-12)
        assert drift_norms(new)[0] <= 1e-10

    def test_rejects_nonpositive_dt(self):
        params = make_params()
        with pytest.raises(InputError):
            step_pure_numeric(
                RodState.zero(params.grid()),
                params,
                Loads(),
                BoundaryConditions(base="free", tip="free"),
                0.0,
                0.0,
            )

    def test_blowup_sets_finite_flag(self):
        # A stiff rod stepped far beyond its stability limit must raise
        # DivergenceError within a bounded number of steps, leaving the
        # caller's last finite state untouched.
        params = make_params(EI=1e3, nodes=101)
        state = RodState.zero(params.grid())
        rng = np.random.default_rng(2)
        state.curvature[:] = 0.1 * rng.standard_normal((params.nodes, 2))
        bc = BoundaryConditions(base="free", tip="free")
        with np.errstate(all="ignore"), pytest.raises(DivergenceError):
            for k in range(1000):
                state = step_pure_numeric(state, params, Loads(), bc, k * 1.0, 1.0)
        assert np.all(np.isfinite(state.curvature))

    @pytest.mark.parametrize(
        "bc",
        [BoundaryConditions(), BoundaryConditions(base="free", tip="free")],
        ids=["clamped_base", "free_free"],
    )
    def test_huge_finite_state_is_a_non_finite_step(self, bc):
        # A state near overflow makes the force solve non-finite. That is a
        # blown-up step, not a singular (or, with free ends, misconfigured)
        # contact-force matrix.
        params = default_config().material
        grid = params.grid()
        state = RodState.zero(grid)
        state.curvature[:, 0] = 1e305 * np.sin(3.0 * grid.nodes)
        before = state.curvature.copy()
        with np.errstate(all="ignore"), pytest.raises(DivergenceError):
            step_pure_numeric(state, params, Loads(), bc, 0.0, 1e-4)
        np.testing.assert_array_equal(state.curvature, before)

    def test_free_ends_are_moment_free(self):
        # A free end carries no bending moment, so the curvature at free end
        # nodes is pinned to zero after every step (both schemes).
        params = make_params(nodes=21)
        fam = random_family(np.random.default_rng(8))
        t0 = float(fam.time_map(0.5))
        state = sample_state(fam, params.grid(), t0)
        bc = BoundaryConditions(base="free", tip="free")
        new = step_pure_numeric(state, params, Loads(), bc, t0, 1e-4)
        np.testing.assert_array_equal(new.curvature[0], [0.0, 0.0])
        np.testing.assert_array_equal(new.curvature[-1], [0.0, 0.0])
        m = project(state, np.zeros(params.nodes), eps=1e-12)
        mnew = step_semi_analytic(m, params, Loads(), bc, t0, 1e-4)
        assert mnew.curv_mag[0] == 0.0
        assert mnew.curv_mag[-1] == 0.0

    def test_single_step_drift_linear_in_dt(self):
        # Starting exactly on the collinear manifold, one step leaves it by
        # O(dt): the post-step collinearity residual halves with dt.
        params = make_params(nodes=41)
        fam = random_family(np.random.default_rng(3))
        t0 = float(fam.time_map(0.5))
        init = sample_state(fam, params.grid(), t0)
        bc = BoundaryConditions(base="free", tip="free")

        def single_step_r5(dt):
            new = step_pure_numeric(init, params, Loads(), bc, t0, dt)
            return drift_norms(new)[1]

        ratio = single_step_r5(1e-6) / single_step_r5(5e-7)
        assert ratio == pytest.approx(2.0, rel=0.15)


class TestSemiStep:
    def test_zero_state_is_fixed_point(self):
        params = make_params()
        m = ManifoldState.zero(params.grid())
        new = step_semi_analytic(
            m, params, Loads(), BoundaryConditions(base="free", tip="free"), 0.0, 1e-3
        )
        np.testing.assert_array_equal(new.curv_mag, 0.0)
        np.testing.assert_array_equal(new.angle, 0.0)

    def test_collinearity_bitwise_zero(self):
        params = make_params()
        m = random_manifold(params.grid(), seed=4)
        loads = Loads(couple=lambda s, t: np.outer(np.sin(3 * s), [0.5, 0.0]))
        new = step_semi_analytic(
            m, params, loads, BoundaryConditions(base="free", tip="free"), 0.0, 1e-3
        )
        _, r5, r6 = drift_norms(new)
        assert r5 == 0.0
        assert r6 == 0.0

    def test_angle_slope_matches_ratio(self):
        # Interior nodes must satisfy d(angle)/ds = -ang_mag / vel_mag after
        # the reconstruction stage, to the central-difference order.
        params = make_params(nodes=201)
        fam = random_family(np.random.default_rng(5))
        t0 = float(fam.time_map(0.5))
        raw = sample_state(fam, params.grid(), t0)
        m = project(raw, np.zeros(params.nodes), eps=1e-12)
        new = step_semi_analytic(
            m, params, Loads(), BoundaryConditions(base="free", tip="free"), t0, 1e-5
        )
        slope = central_diff(new.angle, params.grid().spacing)
        target = -new.ang_mag / new.vel_mag
        np.testing.assert_allclose(slope[2:-2], target[2:-2], atol=5e-4)

    def test_dead_zone_carries_previous_increments(self):
        # Where the velocity magnitude sits below threshold, the per-interval
        # angle increments from the previous step are reused verbatim. The
        # velocity is zero everywhere, so every node is below threshold.
        params = make_params(nodes=21)
        g = params.grid()
        n = g.node_count
        angle = np.linspace(0.0, 1.0, n)
        m = ManifoldState(g, angle, np.zeros(n), np.zeros(n), np.zeros(n))
        new = step_semi_analytic(
            m, params, Loads(), BoundaryConditions(base="free", tip="free"), 0.0, 1e-3
        )
        np.testing.assert_allclose(np.diff(new.angle), np.diff(angle), atol=1e-15)

    def test_clamped_base_velocity_enforced(self):
        params = make_params()
        m = random_manifold(params.grid(), seed=6)
        new = step_semi_analytic(
            m, params, Loads(), BoundaryConditions(), 0.0, 1e-3
        )
        lifted = lift(new)
        np.testing.assert_allclose(lifted.lin_vel[0], [0.0, 0.0], atol=1e-12)

    def test_rejects_nonpositive_dt(self):
        params = make_params()
        with pytest.raises(InputError):
            step_semi_analytic(
                ManifoldState.zero(params.grid()),
                params,
                Loads(),
                BoundaryConditions(base="free", tip="free"),
                0.0,
                -1e-3,
            )

    def test_curvature_update_is_scalar_advection(self):
        params = make_params()
        m = random_manifold(params.grid(), seed=7)
        dt = 1e-6
        new = step_semi_analytic(
            m, params, Loads(), BoundaryConditions(base="free", tip="free"), 0.0, dt
        )
        # For a tiny step the angular magnitude barely changes, so the
        # curvature increment is dt * d(ang_mag)/ds of the old state.
        # The scheme advects with the post-update angular magnitude, which
        # differs from the pre-step one at O(dt), so the prediction against
        # the old state is accurate to O(dt^2) times the stiff rate.
        predicted = m.curv_mag + dt * central_diff(m.ang_mag, m.grid.spacing)
        predicted[[0, -1]] = 0.0  # free ends are moment-free
        np.testing.assert_allclose(new.curv_mag, predicted, atol=1e-6)

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
        m = ManifoldState(grid, angle, np.zeros_like(vel), ang, vel)
        new = step_semi_analytic(m, params, Loads(), bc, 0.0, 1e-3)
        ok = after > eps
        assert (~ok).sum(axis=0).tolist() == [1] * len(scale)  # node 14 alone
        slope = -ang_after / after
        traced = 0.5 * grid.spacing * (slope[1:] + slope[:-1])
        expected = np.where(ok[1:] & ok[:-1], traced, np.diff(angle, axis=0))
        return np.diff(new.angle, axis=0), expected

    def test_projection_threshold_is_set_by_the_linear_velocity(self):
        got, expected = self.dead_zone_step([1.0], BoundaryConditions(base="free", tip="free"))
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
        m = random_manifold(g, seed=9)
        r4, r5, r6 = drift_norms(m)
        lifted = lift(m)
        expected = np.abs(central_diff(lifted.lin_vel, g.spacing) - adiag(lifted.ang_vel))
        assert r4 == float(expected.max())
        assert r4 == drift_norms(lifted)[0]
        assert (r5, r6) == (0.0, 0.0)

    def test_manifold_energy_matches_lifted(self):
        params = make_params(nodes=101)
        for seed in range(20):
            m = random_manifold(params.grid(), seed=seed)
            lifted = energy(lift(m), params)
            assert abs(energy(m, params) - lifted) <= 1e-14 * lifted


class TestDefaultCiliumOffManifold:
    """The pure scheme's default driven cilium is not collinear.

    Curvature and linear velocity stay orthogonal at every node, so the
    collinearity residual R6 = |v x kappa| is part of the solution, not drift
    of the discretization: it does not shrink toward zero as dt is halved.
    """

    @staticmethod
    def pure_state(dt, t_end=0.5):
        config = default_config(scheme="pure", dt=dt, t_end=t_end)
        params = config.material
        loads = scenarios._drive_loads(config, config.drive.phase)
        bc = scenarios._boundary(config)
        state = RodState.zero(params.grid())
        for k in range(round(t_end / dt)):
            state = step_pure_numeric(state, params, loads, bc, k * dt, dt)
        return state

    def test_r6_converges_away_from_zero(self):
        r6 = []
        for dt in (2e-4, 1e-4):
            state = self.pure_state(dt)
            kappa, vel = state.curvature, state.lin_vel
            assert np.all(kappa[..., 0] * vel[..., 0] + kappa[..., 1] * vel[..., 1] == 0.0)
            r6.append(float(drift_norms(state)[2]))
        coarse, fine = r6
        # Measured: 0.148 and 0.208. A first-order drift would halve instead.
        assert coarse > 0.1
        assert fine > 0.75 * coarse


class TestPackedCores:
    """The packed block cores ``_steps_pure`` and ``_steps_semi`` that
    ``simulate_rod`` steps with, here through blocks of one step: pure
    functions of the packed state that never raise for a blown-up rod."""

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
            return step_once(integrators._steps_pure, batch, params, bc, grid, force, zero,
                             0.3, dt)

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
        core = integrators._steps_semi if semi else integrators._steps_pure
        params, bc, grid, force, couple, packed = self.setup(3, semi)
        packed[:, 1, grid.node_count // 2] = bad
        with np.errstate(all="ignore"):
            new = step_once(core, packed, params, bc, grid, force, couple, 0.1, 1e-3)
        alone = step_once(core, packed[:, [0, 2]].copy(), params, bc, grid, force, couple,
                          0.1, 1e-3)
        assert new[:, [0, 2]].tobytes() == alone.tobytes()
        assert not np.isfinite(new[:, 1]).all()

    @pytest.mark.parametrize("scheme", ["pure", "semi"])
    def test_public_steps_raise_naming_the_rods(self, scheme):
        config = default_config()
        params = config.material
        state = (ManifoldState if scheme == "semi" else RodState).zero(params.grid(), 4)
        field = state.curv_mag if scheme == "semi" else state.curvature
        field[50, 1] = np.nan
        field[50, 3] = np.inf
        step = step_semi_analytic if scheme == "semi" else step_pure_numeric
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
            step(state, params, Loads(), scenarios._boundary(config), 0.0, 1e-3)
        assert list(err.value.rods) == [1, 3]

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
    def test_public_steps_reject_overflowing_contact_scales(self, scheme):
        # rho * area * ds**2 underflows to 0: an input error naming the
        # material keys, not a ZeroDivisionError.
        params = MaterialParams(rho=1e-320, area=2e-2, moment=1e-2, EI=0.1, length=1.0,
                                nodes=101)
        state = (ManifoldState if scheme == "semi" else RodState).zero(params.grid())
        step = step_semi_analytic if scheme == "semi" else step_pure_numeric
        with pytest.raises(InputError, match=r"material\.rho=1e-320"):
            step(state, params, Loads(), BoundaryConditions(), 0.0, 1e-3)

    @pytest.mark.parametrize("length, nodes", [(1.0, 21), (2.0, 41)])
    @pytest.mark.parametrize("scheme", ["pure", "semi"])
    def test_public_steps_reject_a_state_off_the_material_grid(self, scheme, length, nodes):
        # The contact-force factors are on the material's grid (41 nodes on
        # length 1), so a state on another grid is bad input.
        state = (ManifoldState if scheme == "semi" else RodState).zero(Grid1D(length, nodes))
        step = step_semi_analytic if scheme == "semi" else step_pure_numeric
        with pytest.raises(InputError, match="differs from the material's"):
            step(state, make_params(), Loads(), BoundaryConditions(), 0.0, 1e-3)

    @pytest.mark.parametrize("scheme", ["pure", "semi"])
    def test_public_steps_run_the_residual_check(self, monkeypatch, scheme):
        # Bands that do not match their LU factors fail the residual check of
        # the step's contact-force solve.
        operator = integrators._contact_operator
        monkeypatch.setattr(integrators, "_contact_operator",
                            lambda *key: operator(*key)._replace(diag=1.5 * operator(*key).diag))
        config = default_config()
        params = config.material
        grid = params.grid()
        if scheme == "semi":
            state, step = random_manifold(grid), step_semi_analytic
        else:
            fields = np.random.default_rng(0).uniform(-1.0, 1.0, (3, grid.node_count, 2))
            state, step = RodState(grid, *fields), step_pure_numeric
        with pytest.raises(SingularSystemError, match="^residual .* at row "):
            step(state, params, Loads(), scenarios._boundary(config), 0.0, 1e-3)

    @pytest.mark.parametrize("scheme", ["pure", "semi"])
    def test_rod_by_rod_loads_step_each_rod_as_alone(self, scheme):
        # (N, K, 2) loads, a force among them, act rod by rod.
        params = make_params()
        grid = params.grid()
        force, couple = np.random.default_rng(5).standard_normal((2, grid.node_count, 3, 2))
        step = step_semi_analytic if scheme == "semi" else step_pure_numeric
        rods = [random_manifold(grid, seed=k) for k in range(3)]
        if scheme == "pure":
            rods = [lift(m) for m in rods]
        fields = [np.stack(f, axis=1) for f in zip(*(list(vars(r).values())[1:] for r in rods))]
        state = type(rods[0])(grid, *fields)
        new = step(state, params, Loads(lambda s, t: force, lambda s, t: couple),
                   BoundaryConditions(), 0.0, 1e-3)
        for k, rod in enumerate(rods):
            loads = Loads(lambda s, t: force[:, k:k + 1], lambda s, t: couple[:, k:k + 1])
            alone = step(rod, params, loads, BoundaryConditions(), 0.0, 1e-3)
            for a, b in zip(list(vars(alone).values())[1:], list(vars(new).values())[1:]):
                assert a.tobytes() == b[:, k].tobytes()

    @pytest.mark.parametrize("signal", ["base_ang_vel", "tip_lin_acc"])
    @pytest.mark.parametrize("scheme", ["pure", "semi"])
    def test_public_steps_reject_a_misshapen_clamp_signal(self, scheme, signal):
        # A 3-vector does not broadcast to the end's (rods, 2).
        params = make_params()
        bc = BoundaryConditions(tip="clamped", **{signal: lambda t: np.zeros(3)})
        state = (ManifoldState if scheme == "semi" else RodState).zero(params.grid())
        step = step_semi_analytic if scheme == "semi" else step_pure_numeric
        with pytest.raises(InputError, match=f"^boundary signal {signal} at t="):
            step(state, params, Loads(), bc, 0.0, 1e-3)

    @pytest.mark.parametrize("size", [1, 3, 64])
    @pytest.mark.parametrize("scheme", ["pure", "semi"])
    def test_time_varying_clamps_in_a_block_match_public_steps(self, scheme, size):
        # Both ends clamped to signals that change every step. A block of
        # steps gives the bytes of as many public steps; each end holds its
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
        state = state if semi else lift(state)
        zero = np.zeros((2, 1, grid.node_count))
        core = integrators._steps_semi if semi else integrators._steps_pure
        block, (_, rhs) = step_block(core, state._packed(), params, bc, grid, zero,
                                     np.zeros((size, 2, 1, grid.node_count)), times, dt)
        step = step_semi_analytic if semi else step_pure_numeric
        for k in range(size):
            state = step(state, params, Loads(), bc, k * dt, dt)
            assert state._packed().tobytes() == block[k + 1].tobytes(), k
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


class TestPackedPathMatchesPublicPath:
    """``simulate_rod`` steps the packed layout; the public functions pack,
    step and unpack. Both must give the same bits."""

    @staticmethod
    def public_run(config):
        """Times, energies, drift norms and curvatures of the captured frames
        of ``config``, from a loop of the public calls alone."""
        mat, semi = config.material, config.scheme == "semi"
        rods = config.carpet.rods
        loads = scenarios._drive_loads(
            config, config.drive.phase + np.arange(rods) * config.carpet.phase_increment)
        bc = scenarios._boundary(config)
        state = (ManifoldState if semi else RodState).zero(mat.grid(), rods)
        step = step_semi_analytic if semi else step_pure_numeric
        n_steps, stride = config.n_steps, config.output.stride
        dt = config.t_end / n_steps
        frames = []
        for k in range(n_steps + 1):
            if k % stride == 0 or k == n_steps:
                frames.append((k * dt, energy(state, mat),
                               np.stack(drift_norms(state), axis=-1),
                               (lift(state) if semi else state).curvature.copy()))
            if k < n_steps:
                state = step(state, mat, loads, bc, k * dt, dt)
        return [np.array(column) for column in zip(*frames)]

    @pytest.mark.parametrize("scheme, dt, t_end", [("pure", 1e-4, 0.02), ("semi", 1e-3, 0.2)])
    def test_carpet_frames_are_bit_identical(self, monkeypatch, scheme, dt, t_end):
        material = MaterialParams(rho=1.0, area=2e-2, moment=1e-2, EI=1e-1,
                                  length=1.0, nodes=31)
        config = default_config(
            material=material, scheme=scheme, dt=dt, t_end=t_end,
            carpet=scenarios.CarpetConfig(rods=3, spacing=0.5, phase_increment=2.1))
        assert config.n_steps >= 200
        curvatures = []
        drift = scenarios._drift_norms

        def recording_drift_norms(raw, spacing, collinear):  # once per captured frame
            curvatures.append(raw[0:2].T.copy())
            return drift(raw, spacing, collinear)

        monkeypatch.setattr(scenarios, "_drift_norms", recording_drift_norms)
        traj, stable, _ = scenarios.simulate_rod(config)
        assert stable
        times, energies, drifts, public_curvatures = self.public_run(config)
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.energies, energies)
        assert np.array_equal(traj.drifts, drifts)
        assert np.array_equal(np.array(curvatures), public_curvatures)

    @pytest.mark.parametrize("scheme", ["pure", "semi"])
    def test_one_rod_step_equals_rod_axis_step(self, scheme):
        config = default_config(scheme=scheme)
        params = config.material
        loads = scenarios._drive_loads(config, 0.4)
        bc = scenarios._boundary(config)
        m = random_manifold(params.grid(), seed=3)
        single = m if scheme == "semi" else lift(m)
        batched = type(single)(params.grid(), *(a[:, None] for a in list(vars(single).values())[1:]))
        step = step_semi_analytic if scheme == "semi" else step_pure_numeric
        one = step(single, params, loads, bc, 0.1, 1e-4)
        axis = step(batched, params, loads, bc, 0.1, 1e-4)
        for a, b in zip(list(vars(one).values())[1:], list(vars(axis).values())[1:]):
            assert a.shape == b.shape[:1] + b.shape[2:]
            assert np.array_equal(a, b[:, 0])

    def test_unstable_semi_run_fails_at_the_same_step(self):
        # Default cilium at dt=1e-4: the semi scheme blows up before t=0.3
        # (ROADMAP item 3). simulate_rod captures every step up to the one
        # that loses the rod; the public loop must lose it at that step too.
        config = default_config(dt=1e-4, t_end=0.3,
                                output=scenarios.OutputConfig(stride=1))
        with np.errstate(all="ignore"):
            traj, stable, failed = scenarios.simulate_rod(config)
        assert not stable and list(failed) == [0]
        mat, dt = config.material, config.t_end / config.n_steps
        loads = scenarios._drive_loads(config, config.drive.phase)
        bc = scenarios._boundary(config)
        drive_scale = config.drive.amplitude**2 * mat.length**3 / (2.0 * mat.EI)
        m = ManifoldState.zero(mat.grid())
        lost_at = None
        with np.errstate(all="ignore"):
            for k in range(config.n_steps):
                try:
                    m = step_semi_analytic(m, mat, loads, bc, k * dt, dt)
                except DivergenceError:
                    lost_at = k
                    break
                if energy(m, mat) > 1e3 * drive_scale:
                    lost_at = k
                    break
        assert lost_at is not None
        assert traj.times.size == lost_at + 1
        assert failed[0].startswith(f"step {lost_at + 1} (t={(lost_at + 1) * dt:.6g}, ")
