"""Tests for the closed-form solution family and the boundary-trace matcher."""

import numpy as np
import pytest
from scipy.optimize import brentq

from rodsim import solution_family
from rodsim.errors import DegeneracyError, InputError, OutOfRangeError
from rodsim.grid_fields import Grid1D, SampledFn
from rodsim.solution_family import (
    CauchyTrace,
    SolutionFamily,
    evaluate_family,
    match_boundary_trace,
    parameter_free_residuals,
    random_family,
    sample_state,
    verify_trace_match,
)

from helpers import random_trace, sampled_fn


def identity_family(span=3.0, time_sign=1.0):
    """Unit amplitude, linear angle, identity time map (all splines exact);
    ``time_sign=-1`` makes the time map F(w) = -w, decreasing."""
    return SolutionFamily(
        amp=sampled_fn(lambda u: 1.0, -span, span, 65),
        angle=sampled_fn(lambda u: u, -span, span, 65),
        time_map=sampled_fn(lambda w: time_sign * w, -2 * span, 2 * span, 65),
        u_range=(-span, span),
    )


def family_case(case):
    """``random_family`` of an int seed, or a closed-form family by name."""
    if case == "identity":
        return identity_family()
    if case == "decreasing":
        return identity_family(time_sign=-1.0)
    return random_family(np.random.default_rng(case))


def stop_tol(u):
    """Brent's tolerance of the root solves: 1e-14 + 4 eps |u|."""
    return 1e-14 + 4.0 * np.finfo(float).eps * np.abs(u)


class TestEvaluateFamily:
    def test_identity_family_closed_form(self):
        fam = identity_family()
        for s, u in [(0.0, 0.0), (0.3, 0.7), (0.9, -1.2)]:
            kappa, omega, vel, t = evaluate_family(fam, s, u)
            direction = np.array([np.cos(u), np.sin(u)])
            np.testing.assert_allclose(kappa, -direction, atol=1e-12)
            np.testing.assert_allclose(omega, direction, atol=1e-12)
            np.testing.assert_allclose(vel, direction, atol=1e-12)
            assert t == pytest.approx(s + u, abs=1e-12)

    def test_origin_values(self):
        kappa, omega, vel, t = evaluate_family(identity_family(), 0.0, 0.0)
        np.testing.assert_allclose(kappa, [-1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(omega, [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(vel, [1.0, 0.0], atol=1e-14)
        assert t == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_vectors_pairwise_parallel(self, seed):
        fam = random_family(np.random.default_rng(seed))
        rng = np.random.default_rng(100 + seed)
        s = rng.uniform(0.0, 1.0, 20)
        u = rng.uniform(-1.0, 1.0, 20)
        kappa, omega, vel, _ = evaluate_family(fam, s, u)
        for a, b in ((kappa, omega), (kappa, vel), (omega, vel)):
            cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
            assert np.abs(cross).max() < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_algebraic_identities(self, seed):
        # omega = -kappa / (A * F') and |vel| = 1 / F' follow from the family.
        fam = random_family(np.random.default_rng(seed))
        rng = np.random.default_rng(200 + seed)
        s = rng.uniform(0.0, 1.0, 20)
        u = rng.uniform(-1.0, 1.0, 20)
        kappa, omega, vel, _ = evaluate_family(fam, s, u)
        a = fam.amp(u)
        fp = fam.time_map.derivative(fam.amp(u) * s + u)
        np.testing.assert_allclose(omega, -kappa / (a * fp)[:, None], atol=1e-12)
        np.testing.assert_allclose(
            np.hypot(vel[:, 0], vel[:, 1]), 1.0 / np.abs(fp), atol=1e-12
        )

    def test_degenerate_denominator(self):
        fam = SolutionFamily(
            amp=sampled_fn(lambda u: 1.0 - u, -2, 2, 65),
            angle=sampled_fn(lambda u: u, -2, 2, 65),
            time_map=sampled_fn(lambda w: w, -4, 4, 65),
            u_range=(-2.0, 2.0),
        )
        # A'(u) = -1, so at s = 1 the denominator A'(u)s + 1 vanishes.
        with pytest.raises(DegeneracyError):
            evaluate_family(fam, 1.0, 0.5)


class TestInvertMonotone:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_increasing_and_decreasing(self, sign):
        def fn(u):
            return sign * (2.0 * u + 1.0)

        roots = np.linspace(-1.9, 0.9, 29)
        u = solution_family._invert_monotone(fn, -2.0, 1.0, fn(roots))
        assert np.all(np.abs(u - roots) <= stop_tol(u))

    def test_broadcasting_fn(self):
        # fn(lo) already has the (5, 1) node shape; targets add a (1, 4) axis.
        s = np.linspace(0.0, 1.0, 5)[:, None]

        def fn(u):
            return 2.0 * u + s

        targets = np.array([[-0.5, 0.0, 0.25, 1.5]])
        u = solution_family._invert_monotone(fn, -1.0, 1.0, targets)
        assert u.shape == (5, 4)
        assert np.all(np.abs(u - (targets - s) / 2.0) <= stop_tol(u))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_target_at_bracket_end(self, sign):
        def fn(u):
            return sign * u**3

        u = solution_family._invert_monotone(fn, -1.0, 2.0,
                                             np.array([fn(-1.0), fn(2.0)]))
        np.testing.assert_array_equal(u, [-1.0, 2.0])

    def test_steep_function_closed_form(self):
        def fn(u):
            return np.exp(40.0 * u)

        targets = np.geomspace(fn(-1.0), fn(1.0), 41)[1:-1]
        u = solution_family._invert_monotone(fn, -1.0, 1.0, targets)
        assert np.all(np.abs(u - np.log(targets) / 40.0) <= stop_tol(u))

    def test_flat_slope_brentq_oracle(self):
        # Slope between 5e-9 and 1.5e-8: residuals are tiny, roots are not.
        def fn(u):
            return 1e-8 * (u + 0.5 * np.sin(u))

        targets = fn(np.linspace(-2.9, 2.9, 23))
        u = solution_family._invert_monotone(fn, -3.0, 3.0, targets)
        oracle = [brentq(lambda x: fn(x) - t, -3.0, 3.0, xtol=1e-15,
                         rtol=4.0 * np.finfo(float).eps) for t in targets]
        assert np.all(np.abs(u - oracle) <= stop_tol(u))

    @pytest.mark.parametrize("name", ["exp", "arctan", "time_map"])
    def test_block_matches_one_at_a_time(self, name):
        # Elements converge after different numbers of steps; each stops
        # updating when it converges, so the block gives every element the
        # bits of its own solve.
        fn = {"exp": lambda u: np.exp(40.0 * u),
              "arctan": lambda u: np.arctan(100.0 * u),
              "time_map": random_family(np.random.default_rng(0)).time_map}[name]
        targets = fn(np.linspace(-0.99, 0.99, 57))
        block = solution_family._invert_monotone(fn, -1.0, 1.0, targets)
        alone = [solution_family._invert_monotone(fn, -1.0, 1.0, targets[j:j + 1])
                 for j in range(targets.size)]
        np.testing.assert_array_equal(block, np.concatenate(alone))

    @pytest.mark.parametrize("seed", range(3))
    def test_superlinear_evaluation_count(self, seed, monkeypatch):
        # Bisection to the stop rule takes about 50 evaluations per solve;
        # the interpolation steps take about 6, plus the two end values.
        counts = []
        invert = solution_family._invert_monotone

        def counted(fn, lo, hi, target):
            calls = []

            def counting(x):
                calls.append(1)
                return fn(x)

            out = invert(counting, lo, hi, target)
            counts.append(len(calls))
            return out

        monkeypatch.setattr(solution_family, "_invert_monotone", counted)
        fam = random_family(np.random.default_rng(seed))
        times = float(fam.time_map(0.0)) + np.linspace(-1.0, 1.0, 31)
        sample_state(fam, Grid1D(1.0, 31), times)
        assert len(counts) == 2
        assert max(counts) <= 12


class TestSampleState:
    def test_identity_family_at_t0(self):
        fam = identity_family()
        grid = Grid1D(1.0, 21)
        state = sample_state(fam, grid, 0.0)
        expected = np.stack([np.cos(-grid.nodes), np.sin(-grid.nodes)], axis=1)
        np.testing.assert_allclose(state.lin_vel, expected, atol=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_speed_nodewise_constant(self, seed):
        fam = random_family(np.random.default_rng(seed))
        grid = Grid1D(1.0, 31)
        t = float(fam.time_map(0.5))
        state = sample_state(fam, grid, t)
        speed = np.hypot(state.lin_vel[:, 0], state.lin_vel[:, 1])
        assert np.ptp(speed) < 1e-10 * speed.max()

    @pytest.mark.parametrize("seed", range(3))
    def test_collinearity_residuals(self, seed):
        fam = random_family(np.random.default_rng(seed))
        grid = Grid1D(1.0, 31)
        state = sample_state(fam, grid, float(fam.time_map(0.5)))
        r5 = state.ang_vel[:, 0] * state.curvature[:, 1] - state.ang_vel[:, 1] * state.curvature[:, 0]
        r6 = state.lin_vel[:, 0] * state.curvature[:, 1] - state.lin_vel[:, 1] * state.curvature[:, 0]
        assert np.abs(r5).max() < 1e-12
        assert np.abs(r6).max() < 1e-12


    # Every node is checked against the oracle, s = 0 (where u inverts the
    # time map alone) included, for a decreasing time map too.
    @pytest.mark.parametrize("case", [0, 1, 2, 3, 4, "identity", "decreasing"])
    def test_times_array_matches_single_times(self, case):
        fam = family_case(case)
        grid = Grid1D(1.0, 21)
        times = float(fam.time_map(0.5)) + np.linspace(-0.3, 0.3, 7)
        block = sample_state(fam, grid, times)
        assert block.curvature.shape == (21, 7, 2)
        for j, t in enumerate(times):
            single = sample_state(fam, grid, t)
            # Reference: Brent's method on each node's scalar equation.
            us = [brentq(lambda u: fam.time_map(fam.amp(u) * s + u) - t, *fam.u_range,
                         xtol=1e-14, rtol=4.0 * np.finfo(float).eps) for s in grid.nodes]
            oracle = evaluate_family(fam, grid.nodes, np.array(us))
            for k, name in enumerate(("curvature", "ang_vel", "lin_vel")):
                column = getattr(block, name)[:, j]
                # A converged element is not updated again, so solving it in a
                # block gives the bits of solving it alone.
                np.testing.assert_array_equal(column, getattr(single, name))
                np.testing.assert_allclose(column, oracle[k], rtol=0, atol=1e-12)

    def test_scalar_unreachable_time_raises(self):
        with pytest.raises(OutOfRangeError, match="target 1000000.0 not reachable"):
            sample_state(identity_family(), Grid1D(1.0, 11), 1e6)

    @pytest.mark.parametrize("case, bad", [
        pytest.param("identity", 1e6, id="1000000.0"),
        pytest.param("identity", np.nan, id="nan"),
        pytest.param("decreasing", 5.0, id="decreasing-5.0"),
    ])
    def test_one_unreachable_time_raises(self, case, bad):
        times = np.array([0.0, 0.5, bad, 1.0])
        with pytest.raises(OutOfRangeError, match=f"target {bad} not reachable"):
            sample_state(family_case(case), Grid1D(1.0, 11), times)


class TestParameterFreeResiduals:
    def test_identity_family_small_residuals(self):
        fam = identity_family()
        h = 1e-3
        grid = Grid1D(1.0, int(round(1.0 / h)) + 1)
        states = [sample_state(fam, grid, t) for t in (-h, 0.0, h)]
        res = parameter_free_residuals(states[0], states[1], states[2], h)
        for key in ("R3", "R4", "R5", "R6"):
            assert res[key] <= 1e-5, (key, res[key])

    def test_constant_state_violates_compatibility(self):
        grid = Grid1D(1.0, 11)
        from rodsim.rod_model import RodState

        def constant():
            st = RodState.zero(grid)
            st.curvature[:, 0] = 1.0
            st.ang_vel[:, 0] = 1.0
            st.lin_vel[:, 0] = 1.0
            return st

        res = parameter_free_residuals(constant(), constant(), constant(), 0.1)
        assert res["R3"] == 0.0
        assert res["R5"] == 0.0
        assert res["R6"] == 0.0
        assert res["R4"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_order_two_convergence(self, seed):
        fam = random_family(np.random.default_rng(seed))
        t0 = float(fam.time_map(0.5))

        def residuals(h):
            grid = Grid1D(1.0, int(round(1.0 / h)) + 1)
            states = [sample_state(fam, grid, t0 + k * h) for k in (-1, 0, 1)]
            return parameter_free_residuals(states[0], states[1], states[2], h)

        coarse = residuals(1e-2)
        fine = residuals(5e-3)
        for key in ("R3", "R4"):
            ratio = coarse[key] / fine[key]
            assert 3.5 <= ratio <= 4.5, (key, ratio)


WORKED_PHASE = np.pi / 4


def worked_trace():
    return CauchyTrace(
        v1_trace=lambda t: np.cos(t + WORKED_PHASE),
        w1_trace=lambda t: np.cos(t + WORKED_PHASE),
        k1_trace=lambda t: -np.cos(t + WORKED_PHASE),
        v2_origin=np.sin(WORKED_PHASE),
    )


class TestMatchBoundaryTrace:
    def test_worked_example(self):
        # These traces are reproduced by unit amplitude, angle u + pi/4 and
        # identity time map (direct substitution in the matching relations).
        fam = match_boundary_trace(worked_trace(), 0.5, steps=1000)
        u = np.linspace(0.0, 0.5, 101)
        np.testing.assert_allclose(fam.amp(u), 1.0, atol=1e-8)
        np.testing.assert_allclose(fam.angle(u), u + WORKED_PHASE, atol=1e-8)
        np.testing.assert_allclose(fam.time_map(u), u, atol=1e-8)

    def test_initial_angle(self):
        fam = match_boundary_trace(worked_trace(), 0.5, steps=200)
        assert fam.angle(0.0) == pytest.approx(WORKED_PHASE, abs=1e-12)

    def test_round_trip_residual(self):
        fam = match_boundary_trace(worked_trace(), 0.5, steps=1000)
        residual = verify_trace_match(fam, worked_trace(), np.linspace(0.0, 0.5, 33))
        assert residual <= 1e-6

    def test_perturbed_amplitude_detected(self):
        fam = match_boundary_trace(worked_trace(), 0.5, steps=1000)
        bumped = SolutionFamily(
            amp=SampledFn(fam.amp.knots, fam.amp.values + 1e-3),
            angle=fam.angle,
            time_map=fam.time_map,
            u_range=fam.u_range,
        )
        residual = verify_trace_match(bumped, worked_trace(), np.linspace(0.0, 0.5, 33))
        assert 2e-4 <= residual <= 5e-3

    def test_vanishing_trace_rejected(self):
        with pytest.raises(InputError):
            CauchyTrace(
                v1_trace=np.sin,  # sin(0) = 0
                w1_trace=np.cos,
                k1_trace=np.cos,
                v2_origin=1.0,
            )

    def test_zero_corner_value_rejected(self):
        with pytest.raises(InputError):
            CauchyTrace(
                v1_trace=np.cos,
                w1_trace=np.cos,
                k1_trace=lambda t: -np.cos(t),
                v2_origin=0.0,
            )

    @pytest.mark.parametrize("seed", range(10))
    def test_randomized_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        trace = random_trace(rng)
        fam = match_boundary_trace(trace, 0.3, steps=1000)
        u = np.linspace(0.01, 0.29, 41)
        assert verify_trace_match(fam, trace, u) <= 1e-5

    @pytest.mark.parametrize("seed", range(4))
    def test_boundary_trace_reproduced_through_state(self, seed):
        # Sampling the matched family along s = 0 reproduces the trace data.
        rng = np.random.default_rng(40 + seed)
        trace = random_trace(rng)
        fam = match_boundary_trace(trace, 0.3, steps=1000)
        times = np.linspace(float(fam.time_map(0.05)), float(fam.time_map(0.25)), 7)
        # A short grid keeps every node's time-map argument inside the fit.
        base = sample_state(fam, Grid1D(1e-3, 3), times)
        np.testing.assert_allclose(base.lin_vel[0, :, 0], trace.v1_trace(times),
                                   rtol=0, atol=1e-5)
        np.testing.assert_allclose(base.ang_vel[0, :, 0], trace.w1_trace(times),
                                   rtol=0, atol=1e-5)

