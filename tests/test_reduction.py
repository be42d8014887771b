"""Tests for the potential / developable-surface reduction chain."""

import numpy as np
import pytest

from rodsim.errors import NumericalError
from rodsim.grid_fields import Grid1D
from rodsim.reduction import (
    developable_residuals,
    extract_speed_profile,
    potential_system_residuals,
    reconstruct_potentials,
)
from rodsim.solution_family import SolutionFamily, random_family, sample_state
from rodsim.verify import chain_threshold, reduction_chain_residuals

from helpers import sampled_fn


def st_grid(ns=21, nt=21, s_len=1.0, t_len=0.2):
    s = np.linspace(0.0, s_len, ns)
    t = np.linspace(0.0, t_len, nt)
    return s[:, None], t[None, :], s_len / (ns - 1), t_len / (nt - 1)


def sample_rectangle(fam, n_nodes, n_times, dt, t0):
    grid = Grid1D(1.0, n_nodes)
    t_lo = t0 - 0.5 * (n_times - 1) * dt
    rect = sample_state(fam, grid, t_lo + np.arange(n_times) * dt)
    return rect.curvature, rect.ang_vel, rect.lin_vel, grid.spacing


class TestReconstructPotentials:
    def test_constant_unit_gradient(self):
        # curvature_1 = ang_vel_1 = 1 gives p1 = s + t exactly; pairing it
        # with vel_2 = -s keeps the second level conservative, so
        # g = -s^2/2 - s*t (trapezoids are exact on per-variable-linear data).
        s, t, ds, dt = st_grid()
        shape = np.broadcast_shapes(s.shape, t.shape)
        kappa = np.zeros(shape + (2,))
        omega = np.zeros(shape + (2,))
        vel = np.zeros(shape + (2,))
        kappa[..., 0] = 1.0
        omega[..., 0] = 1.0
        vel[..., 1] = np.broadcast_to(-s, shape)
        p1, p2, f, g = reconstruct_potentials(kappa, omega, vel, ds, dt)
        np.testing.assert_allclose(p1, s + t, atol=1e-13)
        np.testing.assert_allclose(p2, 0.0, atol=1e-13)
        np.testing.assert_allclose(f, 0.0, atol=1e-13)
        np.testing.assert_allclose(g, -0.5 * s**2 - s * t, atol=1e-13)

    def test_pinned_at_origin(self):
        fam = random_family(np.random.default_rng(1))
        kappa, omega, vel, ds = sample_rectangle(fam, 15, 15, 0.01, float(fam.time_map(0.5)))
        p1, p2, f, g = reconstruct_potentials(kappa, omega, vel, ds, 0.01)
        for arr in (p1, p2, f, g):
            assert arr[0, 0] == 0.0

    def test_incompatible_fields_rejected(self):
        # d/dt of the s-slope is -1 while d/ds of the t-slope is 0, so the
        # second-level potential integral is path dependent.
        s, t, ds, dt = st_grid()
        shape = np.broadcast_shapes(s.shape, t.shape)
        kappa = np.zeros(shape + (2,))
        omega = np.zeros(shape + (2,))
        vel = np.zeros(shape + (2,))
        kappa[..., 0] = 1.0
        omega[..., 0] = 1.0
        vel[..., 1] = np.broadcast_to(1.0 + 0.0 * s * t, shape)
        with pytest.raises(NumericalError, match="path dependent"):
            # g pairs (-p1, vel_2): slopes (-(s+t), 1) are not conservative.
            reconstruct_potentials(kappa, omega, vel, ds, dt)

    @pytest.mark.parametrize("seed", range(3))
    def test_family_gradients_recovered(self, seed):
        # The s-derivative of the first potential reproduces curvature_1.
        fam = random_family(np.random.default_rng(seed))
        dt = 0.01
        kappa, omega, vel, ds = sample_rectangle(
            fam, 41, 41, dt, float(fam.time_map(0.5))
        )
        p1, _, f, _ = reconstruct_potentials(kappa, omega, vel, ds, dt)
        from rodsim.grid_fields import central_diff

        dp1_ds = central_diff(p1, ds)
        np.testing.assert_allclose(dp1_ds, kappa[..., 0], atol=5e-4)
        df_dt = central_diff(f.T, dt).T
        np.testing.assert_allclose(df_dt, vel[..., 0], atol=5e-4)


class TestPotentialSystemResiduals:
    def test_linear_fields_are_exact(self):
        s, t, ds, dt = st_grid()
        res = potential_system_residuals(0.0 * s + t, s + 0.0 * t, ds, dt)
        assert res["R9"] <= 1e-12
        assert res["R10"] <= 1e-12
        assert res["R12"] <= 1e-12

    def test_known_violation_value(self):
        # f = s^2 + t, g = s gives g_ss g_t + f_ss f_t = 0 + 2 * 1 = 2.
        s, t, ds, dt = st_grid()
        res = potential_system_residuals(s**2 + t, s + 0.0 * t, ds, dt)
        assert res["R9"] == pytest.approx(0.0, abs=1e-11)
        assert res["R10"] == pytest.approx(2.0, abs=1e-10)
        assert res["R12"] == pytest.approx(0.0, abs=1e-11)

    @pytest.mark.parametrize("seed", range(3))
    def test_family_chain_below_threshold(self, seed):
        fam = random_family(np.random.default_rng(seed))
        dt = 0.01
        kappa, omega, vel, ds = sample_rectangle(
            fam, 101, 101, dt, float(fam.time_map(0.5))
        )
        _, _, f, g = reconstruct_potentials(kappa, omega, vel, ds, dt)
        res = potential_system_residuals(f, g, ds, dt)
        thr = chain_threshold(max(ds, dt))
        for key, val in res.items():
            assert val <= thr, (key, val, thr)


class TestSpeedProfile:
    def test_unit_speed(self):
        s, t, ds, dt = st_grid()
        shape = np.broadcast_shapes(s.shape, t.shape)
        profile, uniformity = extract_speed_profile(
            np.broadcast_to(t, shape).copy(), np.broadcast_to(s, shape).copy(), dt
        )
        np.testing.assert_allclose(profile, 1.0, atol=1e-12)
        assert uniformity <= 1e-12

    def test_space_dependent_speed_flagged(self):
        s, t, ds, dt = st_grid()
        shape = np.broadcast_shapes(s.shape, t.shape)
        profile, uniformity = extract_speed_profile(
            (1.0 + s) * t, np.broadcast_to(s, shape).copy(), dt
        )
        assert uniformity > 0.1

    def test_zero_speed_rejected(self):
        s, t, ds, dt = st_grid()
        shape = np.broadcast_shapes(s.shape, t.shape)
        flat = np.broadcast_to(s, shape).copy()
        with pytest.raises(NumericalError):
            extract_speed_profile(flat, flat, dt)

    def test_family_profile_matches_time_map_slope(self):
        # For a family the squared speed equals 1 / F'(w)^2 at the node-shared
        # time-map argument. A doubled identity time map gives exactly 1/4.
        span = 3.0
        fam = SolutionFamily(
            amp=sampled_fn(lambda u: 1.0, -span, span, 65),
            angle=sampled_fn(lambda u: u, -span, span, 65),
            time_map=sampled_fn(lambda w: 2.0 * w, -2 * span, 2 * span, 65),
            u_range=(-span, span),
        )
        dt = 0.01
        kappa, omega, vel, ds = sample_rectangle(fam, 31, 31, dt, 1.0)
        _, _, f, g = reconstruct_potentials(kappa, omega, vel, ds, dt)
        profile, uniformity = extract_speed_profile(f, g, dt)
        np.testing.assert_allclose(profile[2:-2], 0.25, atol=1e-4)
        assert uniformity <= 1e-3


class TestDevelopableResiduals:
    def test_planes_are_exact(self):
        s, t, ds, dt = st_grid()
        shape = np.broadcast_shapes(s.shape, t.shape)
        f = 0.3 * s + 0.6 * t + 0.1
        g = -0.2 * s + 0.8 * t
        profile = np.ones(shape[1])
        res = developable_residuals(
            np.broadcast_to(f, shape).copy(), np.broadcast_to(g, shape).copy(), profile, ds, dt
        )
        assert res["R22"] <= 1e-10
        assert res["R23"] <= 1e-10
        # slopes (0.6, 0.8) are a unit vector
        assert res["R24"] <= 1e-10

    def test_saddle_violates_flatness(self):
        # f = s * t has Gaussian-curvature numerator 0*0 - 1^2 = -1.
        s, t, ds, dt = st_grid()
        shape = np.broadcast_shapes(s.shape, t.shape)
        res = developable_residuals(
            s * t, np.broadcast_to(s, shape).copy(), np.ones(shape[1]), ds, dt
        )
        assert res["R22"] == pytest.approx(1.0, abs=1e-8)
        assert res["R23"] <= 1e-10

    def test_nonpositive_profile_rejected(self):
        s, t, ds, dt = st_grid()
        shape = np.broadcast_shapes(s.shape, t.shape)
        flat = np.broadcast_to(s, shape).copy()
        profile = np.ones(shape[1])
        profile[3] = 0.0
        with pytest.raises(NumericalError):
            developable_residuals(flat, flat, profile, ds, dt)


class TestFullChain:
    @pytest.mark.parametrize("seed", range(2))
    def test_residuals_below_threshold(self, seed):
        fam = random_family(np.random.default_rng(seed))
        res = reduction_chain_residuals(fam, 101, 0.01)
        thr = chain_threshold(0.01)
        for key, val in res.items():
            assert val <= thr, (key, val, thr)

    def test_second_order_convergence(self):
        fam = random_family(np.random.default_rng(5))
        coarse = reduction_chain_residuals(fam, 51, 0.02)
        fine = reduction_chain_residuals(fam, 101, 0.01)
        # The dominant residuals shrink at second order under one refinement;
        # allow a generous window since several stencils compose.
        for key in ("R10", "R12", "R24"):
            ratio = coarse[key] / fine[key]
            assert 2.5 <= ratio <= 6.5, (key, ratio)
