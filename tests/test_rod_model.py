"""Tests for the rod model: closures, energy, centerline reconstruction."""

import re

import numpy as np
import pytest
from scipy.linalg import expm  # test oracle only

from rodsim import integrators, rod_model
from rodsim.errors import ConfigurationError, InputError
from rodsim.grid_fields import Grid1D, central_diff, check_tridiag
from rodsim.rod_model import (
    BoundaryConditions,
    MaterialParams,
    RodState,
    reconstruct_centerline,
)
from rodsim.scenarios import default_config, simulate_rod

from helpers import adiag, skew_interval_operators, step_unloaded


def make_params(**overrides):
    base = dict(rho=1.0, area=1.0, moment=1e-2, EI=1e-1, length=1.0, nodes=41)
    base.update(overrides)
    return MaterialParams(**base)


@pytest.fixture
def params():
    return make_params()


def zero(grid):
    """The one-rod state at rest."""
    return RodState(grid, *np.zeros((3, grid.node_count, 2)))


def energy(state, params):
    """``rod_model._energy`` of a one-rod RodState."""
    return rod_model._energy(state._packed(), params, state.grid.spacing)[0]


@pytest.fixture
def zero_state(params):
    return zero(params.grid())


def _node_first_drift_norms(state):
    """R4, R5 and R6 max-norms from the node-first fields: the compatibility
    residual lin_vel' - adiag(ang_vel) and the planar cross products."""
    kappa, omega, vel = state.curvature, state.ang_vel, state.lin_vel

    def cross(a, b):
        return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]

    r4 = central_diff(vel, state.grid.spacing) - adiag(omega)
    return (np.abs(r4).max(axis=(0, -1)), np.abs(cross(omega, kappa)).max(axis=0),
            np.abs(cross(vel, kappa)).max(axis=0))


class TestDriftNorms:
    # One rod without a rod axis, and K rods; K == N makes the node and rod
    # axes the same size.
    @pytest.mark.parametrize("rods", [None, 1, 3, 41])
    def test_bits_match_node_first_formulas(self, params, rods):
        rng = np.random.default_rng(0 if rods is None else rods)
        grid = params.grid()
        shape = (params.nodes, 2) if rods is None else (params.nodes, rods, 2)
        state = RodState(grid, *(rng.standard_normal(shape) for _ in range(3)))
        want = np.stack(_node_first_drift_norms(state)).reshape(3, -1)
        got = rod_model._drift_norms(state._packed(), grid.spacing, False)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        # A collinear state keeps R4 and has R5 = R6 = +0.0 exactly.
        collinear = rod_model._drift_norms(state._packed(), grid.spacing, True)
        assert collinear[0].tobytes() == want[0].tobytes()
        assert collinear[1:].tobytes() == np.zeros_like(want[1:]).tobytes()


def _dense_contact_oracle(dm, f, l, params, bc, t, grid):
    """Assemble the same discrete BVP densely and solve with numpy."""
    n = grid.node_count
    ds = grid.spacing
    rhs = adiag(dm + l) / params.rho_I - central_diff(f, ds) / params.rho_A
    a_off = 1.0 / (params.rho_A * ds**2)
    dense = np.zeros((2 * n, 2 * n))
    b = rhs.reshape(-1).copy()
    for i in range(1, n - 1):
        for c in range(2):
            r = 2 * i + c
            dense[r, 2 * (i - 1) + c] = a_off
            dense[r, 2 * (i + 1) + c] = a_off
            dense[r, 2 * i + c] = -2.0 * a_off + 1.0 / params.rho_I
    for end, idx, sign in (("base", 0, 1.0), ("tip", n - 1, -1.0)):
        kind = getattr(bc, end)
        if kind == "free":
            for c in range(2):
                dense[2 * idx + c, 2 * idx + c] = 1.0
                b[2 * idx + c] = 0.0
        else:
            other = idx + (1 if end == "base" else -1)
            acc = getattr(bc, f"{end}_lin_acc")(t)
            fb = f[idx]
            for c in range(2):
                dense[2 * idx + c, 2 * idx + c] = -sign / ds
                dense[2 * idx + c, 2 * other + c] = sign / ds
                b[2 * idx + c] = -fb[c] + params.rho_A * acc[c]
    return np.linalg.solve(dense, b).reshape(n, 2)


def contact_force(dm, f, l, params, bc, t, grid):
    """``rod_model._contact_force`` of node-first m', f and l, (N, ..., 2),
    with its end rows and f' from a step core's workspace and its solve
    residual-checked as the cores check it: the node-first force."""
    factors = rod_model._contact_operator(params, bc.base, bc.tip)
    shape = np.shape(dm)
    dm, f, l = (np.reshape(a, (params.nodes, -1, 2)).T for a in (dm, f, l))
    w = integrators._Workspace(params, bc, grid, f, np.array([t]), 1.0, dm.shape[1])
    n, rhs = np.empty((2,) + dm.shape)
    rod_model._contact_force(dm, l, w.df, w.ends[0], params, factors, n, rhs)
    check_tridiag(factors, n[None], rhs[None])
    return n.T.reshape(shape)


class TestContactForce:
    def test_resting_rod_free_ends(self, params):
        grid = params.grid()
        zero = np.zeros((params.nodes, 2))
        bc = BoundaryConditions(base="free", tip="free")
        n = contact_force(zero, zero, zero, params, bc, 0.0, grid)
        np.testing.assert_allclose(n, 0.0, atol=1e-12)

    def test_constant_gravity_matches_dense_oracle(self, params):
        grid = params.grid()
        zero = np.zeros((params.nodes, 2))
        gravity = np.tile([0.0, -1.0], (params.nodes, 1))
        bc = BoundaryConditions()
        n = contact_force(zero, gravity, zero, params, bc, 0.0, grid)
        oracle = _dense_contact_oracle(zero, gravity, zero, params, bc, 0.0, grid)
        np.testing.assert_allclose(n, oracle, rtol=1e-10, atol=1e-12)

    def test_linearity_in_loads(self, params):
        # Linearity holds in the load-dependent part; a zero bending couple
        # removes the fixed offset so plain superposition applies.
        rng = np.random.default_rng(7)
        grid = params.grid()
        s = grid.nodes
        zero = np.zeros((params.nodes, 2))
        bc = BoundaryConditions()

        def force_for(fv, lv):
            f, l = np.outer(np.sin(s + 1.0), fv), np.outer(np.cos(s), lv)
            return contact_force(zero, f, l, params, bc, 0.0, grid)

        cases = [(rng.standard_normal(2), rng.standard_normal(2)) for _ in range(2)]
        n1 = force_for(*cases[0])
        n2 = force_for(*cases[1])
        n12 = force_for(cases[0][0] + cases[1][0], cases[0][1] + cases[1][1])
        scale = np.abs(n12).max()
        np.testing.assert_allclose(n1 + n2, n12, atol=1e-10 * max(scale, 1.0))

    def test_constraint_drift_reduced_by_contact_force(self):
        # Stepping with the solved force keeps the compatibility residual
        # near its discretization floor; with the force zeroed out the
        # residual drifts at first order in dt.
        params = make_params(nodes=41)
        grid = params.grid()
        from rodsim.solution_family import random_family, sample_state

        fam = random_family(np.random.default_rng(0))
        t0 = float(fam.time_map(0.5))
        state = sample_state(fam, grid, t0)
        bc = BoundaryConditions(base="free", tip="free")
        dt = 1e-5

        def drift(with_force):
            if with_force:
                new = step_unloaded(integrators._steps_pure, state._packed(), params, bc, t0, dt)
                return rod_model._drift_norms(new, grid.spacing, False)[0, 0]
            ds = grid.spacing
            m = params.EI * state.curvature
            lin = state.lin_vel + dt * 0.0
            ang = state.ang_vel + dt * central_diff(m, ds) / params.rho_I
            new = RodState(grid, state.curvature.copy(), ang, lin)
            r4 = central_diff(new.lin_vel, ds) - adiag(new.ang_vel)
            return float(np.abs(r4).max())

        base = float(
            np.abs(
                central_diff(state.lin_vel, grid.spacing) - adiag(state.ang_vel)
            ).max()
        )
        with_force = drift(True)
        without = drift(False)
        assert abs(with_force - base) < abs(without - base)

    def test_free_free_resonance_raises_at_factor_time(self):
        # rho_I / rho_A = ds^2 / 2 makes the interior pivot exactly zero. The
        # error must come back on every call: a failed factorization is never
        # cached.
        params = MaterialParams(
            rho=1.0, area=1.0, moment=0.125, EI=1.0, length=1.0, nodes=3
        )
        zero = np.zeros((params.nodes, 2))
        bc = BoundaryConditions(base="free", tip="free")
        for _ in range(2):
            with pytest.raises(ConfigurationError, match="pivot row 1"):
                contact_force(zero, zero, zero, params, bc, 0.0, params.grid())

    def test_simulate_rod_factors_once(self, monkeypatch):
        calls = []
        factor = rod_model.factor_tridiag

        def counting_factor(*args, **kwargs):
            calls.append(1)
            return factor(*args, **kwargs)

        monkeypatch.setattr(rod_model, "factor_tridiag", counting_factor)
        rod_model._contact_operator.cache_clear()
        for scheme in ("pure", "semi"):
            config = default_config(scheme=scheme, dt=1e-4, t_end=1e-2)
            assert simulate_rod(config)[1]
        assert len(calls) == 1

    def test_simulate_rod_looks_up_the_operator_once_per_block(self, monkeypatch):
        # 150 steps of the default cilium run in blocks of 64, 64 and 22.
        calls = []
        operator = integrators._contact_operator
        monkeypatch.setattr(integrators, "_contact_operator",
                            lambda *key: calls.append(key) or operator(*key))
        for scheme in ("pure", "semi"):
            calls.clear()
            simulate_rod(default_config(scheme=scheme, dt=1e-3, t_end=0.15))
            assert len(calls) == 3, scheme


class TestRodState:
    """The constructor checks each field's shape and entries, and names the field."""

    @pytest.mark.parametrize("name", ["curvature", "ang_vel", "lin_vel"])
    @pytest.mark.parametrize("rods", [(), (3,)])
    def test_misshaped_field(self, params, name, rods):
        grid = params.grid()
        fields = dict(zip(("curvature", "ang_vel", "lin_vel"),
                          np.zeros((3, grid.node_count, *rods, 2))))
        fields[name] = np.zeros((grid.node_count + 1, *rods, 2))
        shape = (grid.node_count, *rods, 2)
        with pytest.raises(InputError, match=rf"^{name} must have shape {re.escape(str(shape))}"):
            RodState(grid, **fields)

    @pytest.mark.parametrize("name", ["curvature", "ang_vel", "lin_vel"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_entry(self, params, name, bad):
        grid = params.grid()
        fields = dict(zip(("curvature", "ang_vel", "lin_vel"), np.zeros((3, grid.node_count, 2))))
        fields[name][grid.node_count // 2, 1] = bad
        with pytest.raises(InputError, match=rf"^{name} contains non-finite entries"):
            RodState(grid, **fields)


class TestEnergy:
    def test_zero_state(self, params, zero_state):
        assert energy(zero_state, params) == 0.0

    def test_uniform_translation(self):
        params = make_params(rho=2.0, area=1.0)
        state = zero(params.grid())
        state.lin_vel[:, 0] = 1.0
        assert energy(state, params) == pytest.approx(1.0, abs=1e-12)

    def test_quadratic_scaling(self, params):
        rng = np.random.default_rng(5)
        state = zero(params.grid())
        state.curvature[:] = rng.standard_normal((params.nodes, 2))
        state.ang_vel[:] = rng.standard_normal((params.nodes, 2))
        state.lin_vel[:] = rng.standard_normal((params.nodes, 2))
        doubled = RodState(
            state.grid, 2 * state.curvature, 2 * state.ang_vel, 2 * state.lin_vel
        )
        assert energy(doubled, params) == pytest.approx(
            4.0 * energy(state, params), rel=1e-12
        )

    def test_rotation_invariance(self, params):
        rng = np.random.default_rng(6)
        state = zero(params.grid())
        state.curvature[:] = rng.standard_normal((params.nodes, 2))
        state.ang_vel[:] = rng.standard_normal((params.nodes, 2))
        state.lin_vel[:] = rng.standard_normal((params.nodes, 2))
        theta = 1.234
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        rotated = RodState(
            state.grid,
            state.curvature @ rot.T,
            state.ang_vel @ rot.T,
            state.lin_vel @ rot.T,
        )
        assert energy(rotated, params) == pytest.approx(
            energy(state, params), rel=1e-12
        )


class TestCenterline:
    def test_straight_rod(self):
        kappa = np.zeros((11, 2))
        positions, frames = reconstruct_centerline(kappa, 0.1)
        np.testing.assert_allclose(positions[-1], [0.0, 0.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(frames[-1], np.eye(3), atol=1e-14)

    def test_circular_arc(self):
        c = 1.0
        n = 201
        ds = 1.0 / (n - 1)
        kappa = np.tile([c, 0.0], (n, 1))
        positions, _ = reconstruct_centerline(kappa, ds)
        expected_tip = np.array([0.0, -(1.0 - np.cos(c)) / c, np.sin(c) / c])
        np.testing.assert_allclose(positions[-1], expected_tip, atol=1e-8)

    def test_frames_stay_orthonormal(self):
        rng = np.random.default_rng(11)
        n = 10_000
        kappa = 2.0 * rng.standard_normal((n, 2))
        _, frames = reconstruct_centerline(kappa, 1e-3)
        deviation = np.abs(
            np.einsum("nij,nik->njk", frames, frames) - np.eye(3)
        ).max()
        assert deviation <= 1e-10

    def test_arclength_preserved(self):
        n = 201
        s = np.linspace(0.0, 1.0, n)
        kappa = 0.5 * np.stack([np.sin(2.0 * s), np.cos(3.0 * s)], axis=1)
        positions, _ = reconstruct_centerline(kappa, 1.0 / (n - 1))
        total = np.linalg.norm(np.diff(positions, axis=0), axis=1).sum()
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_matches_per_interval_loop(self):
        rng = np.random.default_rng(17)
        n = 400
        kappa = 20.0 * rng.standard_normal((n, 2))
        kind = rng.integers(0, 3, n)
        kappa[kind == 0] = 0.0
        kappa[kind == 1] *= 1e-9 / 20.0
        base = (1.0, -2.0, 0.5)
        positions, frames = reconstruct_centerline(kappa, 1e-2, base)
        ref_positions, ref_frames = _loop_centerline(kappa, 1e-2, base)
        np.testing.assert_allclose(positions, ref_positions, rtol=0, atol=1e-13)
        np.testing.assert_allclose(frames, ref_frames, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("rods", [1, 7])
    def test_rod_axis_matches_per_rod_calls(self, rods):
        # Zero, 1e-9 (Taylor branch) and O(20) intervals, mixed within and
        # across rods; each rod starts from its own base.
        rng = np.random.default_rng(23)
        n = 101
        kappa = 20.0 * rng.standard_normal((n, rods, 2))
        kind = rng.integers(0, 3, (n, rods))
        kappa[kind == 0] = 0.0
        kappa[kind == 1] *= 1e-9 / 20.0
        bases = rng.standard_normal((rods, 3))
        positions, frames = reconstruct_centerline(kappa, 1e-2, bases)
        assert positions.shape == (n, rods, 3) and frames.shape == (n, rods, 3, 3)
        rot, _ = rod_model._interval_operators(kappa, 1e-2)
        for k in range(rods):
            one = reconstruct_centerline(kappa[:, k], 1e-2, bases[k])
            assert np.array_equal(positions[:, k], one[0])
            assert np.array_equal(frames[:, k], one[1])
            # The same frames as a one-rod np.dot recurrence.
            ref = [np.eye(3)]
            for r in rot[:, k]:
                ref.append(np.dot(ref[-1], r))
            assert np.array_equal(frames[:, k], np.array(ref))

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 10.0])
    def test_closed_form_intervals_have_the_skew_matrix_bytes(self, scale):
        # Random (N, F, K, 2) curvatures with exact +0.0 and -0.0 components,
        # nodes in the Taylor branch (below 1e-8 rad) and next to it. At
        # these interval angles (below 0.2 rad) a product that BLAS fuses in
        # the reference's K @ K changes no byte (helpers).
        rng = np.random.default_rng(29)
        kappa = scale * rng.standard_normal((41, 6, 5, 2))
        component = rng.integers(0, 4, kappa.shape)
        kappa[component == 0] = 0.0
        kappa[component == 1] = -0.0
        node = rng.integers(0, 3, kappa.shape[:-1])
        kappa[node == 0] *= 1e-7 / scale  # Taylor-branch intervals
        near = kappa[node == 1]  # largest component 1.02e-6: about 1e-8 rad
        kappa[node == 1] = 1.02e-6 * near / np.abs(near).max(-1, keepdims=True).clip(1e-300)
        rot, step = rod_model._interval_operators(kappa, 1e-2)
        ref_rot, ref_step, _ = skew_interval_operators(kappa, 1e-2)
        assert rot.shape == ref_rot.shape and step.shape == ref_step.shape
        assert rot.tobytes() == ref_rot.tobytes()
        assert step.tobytes() == ref_step.tobytes()

    @pytest.mark.parametrize("ds", [1e-2, 5e-2])
    def test_closed_form_intervals_just_above_the_taylor_branch(self, ds):
        # Turning 1e-8 to 1e-6 rad, with a signed zero k2: c2 can round to
        # zero and, at some spacings, ds - sin(theta ds) / theta below it,
        # so the tangent step's zero entries take the sign of c3 * 0.0.
        rng = np.random.default_rng(37)
        kappa = np.zeros((200_001, 2))
        kappa[:, 0] = rng.uniform(1e-8, 1e-6, len(kappa)) / ds
        kappa[::3, 0] *= -1.0
        kappa[::2, 1] = -0.0
        rot, step = rod_model._interval_operators(kappa, ds)
        ref_rot, ref_step, _ = skew_interval_operators(kappa, ds)
        assert rot.tobytes() == ref_rot.tobytes()
        assert step.tobytes() == ref_step.tobytes()

    def test_closed_form_rotations_are_exponentials(self):
        rng = np.random.default_rng(31)
        kappa = 20.0 * rng.standard_normal((101, 3, 2))
        kappa[rng.integers(0, 3, (101, 3)) == 0] *= 1e-9 / 20.0
        rot, _ = rod_model._interval_operators(kappa, 1e-2)
        *_, skew = skew_interval_operators(kappa, 1e-2)
        np.testing.assert_allclose(rot, expm(1e-2 * skew), rtol=0, atol=1e-14)

    def test_rod_axis_shares_one_base(self):
        kappa = np.zeros((5, 3, 2))
        positions, _ = reconstruct_centerline(kappa, 0.25, (1.0, 2.0, 3.0))
        np.testing.assert_allclose(positions[-1], np.tile([1.0, 2.0, 4.0], (3, 1)))


def _loop_centerline(kappa, ds, base_position):
    """Per-interval reference: Rodrigues rotation and tangent integral."""

    def interval_update(kappa3):
        k1, k2, k3 = kappa3
        k = np.array([[0.0, -k3, k2], [k3, 0.0, -k1], [-k2, k1, 0.0]])
        theta = float(np.linalg.norm(kappa3))
        ang = theta * ds
        if ang < 1e-8:
            rot = np.eye(3) + ds * k + 0.5 * ds**2 * (k @ k)
            v = ds * np.eye(3) + 0.5 * ds**2 * k + (ds**3 / 6.0) * (k @ k)
            return rot, v
        ku = k / theta
        ku2 = ku @ ku
        rot = np.eye(3) + np.sin(ang) * ku + (1.0 - np.cos(ang)) * ku2
        v = ds * np.eye(3) + ((1.0 - np.cos(ang)) / theta) * ku + (
            ds - np.sin(ang) / theta
        ) * ku2
        return rot, v

    n = kappa.shape[0]
    frames = np.empty((n, 3, 3))
    positions = np.empty((n, 3))
    frames[0] = np.eye(3)
    positions[0] = base_position
    e3 = np.array([0.0, 0.0, 1.0])
    for i in range(n - 1):
        mid = 0.5 * (kappa[i] + kappa[i + 1])
        rot, v = interval_update(np.array([mid[0], mid[1], 0.0]))
        positions[i + 1] = positions[i] + frames[i] @ (v @ e3)
        frames[i + 1] = frames[i] @ rot
    return positions, frames
