"""Tests for the uniform-grid numeric substrate."""

import warnings

import numpy as np
import pytest
from scipy.interpolate import CubicSpline  # test oracle only

from rodsim.errors import (
    DivergenceError,
    DomainError,
    InputError,
    NumericalError,
    SingularSystemError,
    SizeError,
)
from rodsim.grid_fields import (
    Grid1D,
    SampledFn,
    central_diff,
    check_tridiag,
    cubic_spline,
    cumtrapz,
    eval_spline,
    factor_tridiag,
    integrate_ode_rk4,
    solve_tridiag,
)

from helpers import sampled_fn


class TestGrid1D:
    def test_nodes_and_spacing(self):
        g = Grid1D(2.0, 5)
        assert g.spacing == 0.5
        np.testing.assert_array_equal(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_too_few_nodes(self, n):
        with pytest.raises(SizeError):
            Grid1D(1.0, n)

    def test_nodes_are_built_once_and_read_only(self):
        g = Grid1D(2.0, 5)
        assert g.nodes is g.nodes
        with pytest.raises(ValueError):
            g.nodes[0] = 1.0


def plain_central_diff(f, h, order):
    """central_diff's stencils written out plainly: the reference for its bits."""
    out = np.empty_like(f)
    if order == 1:
        out[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
        out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
        out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
        return out
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / h**2
    if f.shape[0] >= 4:
        out[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / h**2
        out[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / h**2
    else:
        out[0] = out[-1] = out[1]
    return out


class TestCentralDiff:
    def test_constant_field(self):
        out = central_diff(np.full(7, 5.0), 0.1)
        np.testing.assert_array_equal(out, np.zeros(7))

    def test_linear_exact_including_boundaries(self):
        g = Grid1D(1.0, 13)
        out = central_diff(g.nodes, g.spacing)
        np.testing.assert_allclose(out, np.ones(13), rtol=0, atol=1e-13)

    def test_sine_error_bound(self):
        ds = 0.01
        s = np.arange(0.0, 1.0 + ds / 2, ds)
        err = np.abs(central_diff(np.sin(s), ds) - np.cos(s))
        # Interior central stencil: (ds^2 / 6) * max|f'''| with margin.
        assert err[1:-1].max() <= 2e-5
        # One-sided boundary stencil carries twice that constant.
        assert err[[0, -1]].max() <= 4e-5

    def test_second_order_convergence_on_sine(self):
        errors = []
        for n in (101, 201):
            g = Grid1D(1.0, n)
            d = central_diff(np.sin(g.nodes), g.spacing)
            errors.append(np.abs(d - np.cos(g.nodes)).max())
        ratio = errors[0] / errors[1]
        assert 3.5 <= ratio <= 4.5

    def test_second_derivative(self):
        g = Grid1D(1.0, 201)
        d2 = central_diff(np.sin(g.nodes), g.spacing, order=2)
        assert np.abs(d2 + np.sin(g.nodes)).max() < 5e-4

    def test_size_error(self):
        with pytest.raises(SizeError):
            central_diff(np.array([1.0, 2.0]), 0.1)

    @staticmethod
    def signed_zeros(shape, seed):
        """Random values with a fifth each of +0.0 and -0.0."""
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(shape)
        f[rng.random(shape) < 0.2] = 0.0
        f[rng.random(shape) < 0.2] = -0.0
        return f

    # N = 5, 6 and 7 are where the end-node pairs (1, N-2) and (2, N-3)
    # meet, cross or touch the interior.
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("shape", [(3,), (4,), (3, 2), (4, 2), (3, 5, 2), (4, 5, 2),
                                       (5,), (6,), (7,), (5, 2), (6, 2), (7, 2),
                                       (5, 5, 2), (6, 5, 2), (7, 5, 2)])
    def test_bits_match_plain_stencils(self, order, shape):
        # Signed zeros included: the bytes, not only the values, must agree.
        f = self.signed_zeros(shape, len(shape) + 10 * shape[0])
        got = central_diff(f, 0.1, order)
        want = plain_central_diff(f, 0.1, order)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("nodes", [3, 4, 5, 6, 7, 101])
    def test_node_last_bits_match_plain_stencils(self, order, nodes):
        # A packed (2, K, N) field passed as its transpose, nodes contiguous.
        f = self.signed_zeros((2, 3, nodes), nodes).T
        got = central_diff(f, 0.1, order)
        want = plain_central_diff(f, 0.1, order)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestCumtrapz:
    def test_constant_one(self):
        g = Grid1D(1.0, 11)
        out = cumtrapz(np.ones(11), g.spacing)
        assert out[0] == 0.0
        assert out[-1] == pytest.approx(1.0, abs=1e-15)

    def test_linear_exact(self):
        g = Grid1D(1.0, 11)
        out = cumtrapz(g.nodes, g.spacing)
        assert out[-1] == pytest.approx(0.5, abs=1e-15)

    def test_quadratic_error(self):
        g = Grid1D(1.0, 101)
        out = cumtrapz(g.nodes**2, g.spacing)
        assert out[-1] == pytest.approx(1.0 / 3.0, abs=1e-4)


class TestRK4:
    def test_zero_rhs(self):
        _, ys = integrate_ode_rk4(lambda u, y: 0.0 * y, [3.0], (0.0, 1.0), 10)
        np.testing.assert_array_equal(ys[:, 0], np.full(11, 3.0))

    def test_exponential(self):
        _, ys = integrate_ode_rk4(lambda u, y: y, [1.0], (0.0, 1.0), 100)
        assert ys[-1, 0] == pytest.approx(np.e, abs=1e-8)

    def test_cosine_antiderivative(self):
        _, ys = integrate_ode_rk4(
            lambda u, y: np.array([np.cos(u)]), [0.0], (0.0, np.pi / 2), 50
        )
        assert ys[-1, 0] == pytest.approx(1.0, abs=1e-7)

    def test_divergence_error_names_u(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="u ="):
                integrate_ode_rk4(lambda u, y: y**3, [1.0], (0.0, 10.0), 200)


def _dense_from_bands(lower, diag, upper):
    return np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)


def _random_dominant_system(rng, n):
    lower = rng.standard_normal(n - 1)
    upper = rng.standard_normal(n - 1)
    diag = rng.standard_normal(n) + 8.0
    rhs = rng.standard_normal((n, 2))
    return lower, diag, upper, rhs


class TestBlockTridiag:
    """The scalar tridiagonal factor/solve pair that replaced the 2x2-block
    solver: the contact-force blocks were scalar multiples of the identity,
    so one scalar matrix with two right-hand-side columns does the same job.
    """

    def test_identity_blocks(self):
        n = 6
        rhs = np.arange(2.0 * n).reshape(n, 2)
        factors = factor_tridiag(np.zeros(n - 1), np.ones(n), np.zeros(n - 1))
        np.testing.assert_array_equal(solve_tridiag(factors, rhs), rhs)

    @pytest.mark.parametrize("n", [5, 20, 200])
    def test_matches_dense_oracle(self, n):
        rng = np.random.default_rng(42 + n)
        lower, diag, upper, rhs = _random_dominant_system(rng, n)
        x = solve_tridiag(factor_tridiag(lower, diag, upper), rhs)
        x_dense = np.linalg.solve(_dense_from_bands(lower, diag, upper), rhs)
        np.testing.assert_allclose(x, x_dense, rtol=1e-10, atol=1e-12)

    def test_zero_diagonal_block_row(self):
        n = 5
        rng = np.random.default_rng(3)
        lower, diag, upper, _ = _random_dominant_system(rng, n)
        lower[1] = 0.0
        diag[2] = 0.0
        upper[2] = 0.0
        with pytest.raises(SingularSystemError) as err:
            factor_tridiag(lower, diag, upper)
        assert err.value.row == 2

    def test_factors_are_read_only(self):
        factors = factor_tridiag(np.ones(3), np.full(4, 4.0), np.ones(3))
        for array in (factors.lower, factors.diag, factors.upper, *factors.lu):
            assert not array.flags.writeable

    @pytest.mark.parametrize("blown_up", [np.nan, np.inf], ids=["nan", "inf"])
    def test_residual_check_skips_only_blown_up_columns(self, blown_up):
        # Factors whose bands do not match their LU fail the residual check;
        # a non-finite right-hand-side column must not switch the check off
        # for the others.
        rng = np.random.default_rng(11)
        lower, diag, upper, rhs = _random_dominant_system(rng, 20)
        factors = factor_tridiag(lower, diag, upper)
        rhs[7, 1] = blown_up
        with np.errstate(invalid="ignore"):
            x = solve_tridiag(factors, rhs)  # the healthy column passes
        assert np.isfinite(x[:, 0]).all() and not np.isfinite(x[:, 1]).all()
        wrong = factors._replace(diag=1.5 * factors.diag)
        with np.errstate(invalid="ignore"), pytest.raises(SingularSystemError):
            solve_tridiag(wrong, rhs)
        with np.errstate(invalid="ignore"):
            assert np.isnan(solve_tridiag(wrong, np.full((20, 2), np.nan))).all()

    def test_stacked_check_raises_for_its_first_failing_solve(self):
        # A stack of solves (B, k, N) has one bound per solve. Past a solve
        # with a NaN column and one that passes, the check raises as
        # solve_tridiag does on the first failing solve alone.
        rng = np.random.default_rng(12)
        lower, diag, upper, _ = _random_dominant_system(rng, 20)
        factors = factor_tridiag(lower, diag, upper)
        wrong = factors._replace(diag=1.5 * factors.diag)
        b = rng.standard_normal((4, 2, 20))
        b[0, 0] = b[1] = 0.0  # zero residual under any matrix
        b[0, 1, 7] = np.nan
        with np.errstate(invalid="ignore"):
            x = np.stack([solve_tridiag(factors, solve.T).T for solve in b])
            check_tridiag(wrong, x[:2], b[:2])
            stacked = []
            for first in (0, 1):  # with and without the NaN column
                with pytest.raises(SingularSystemError) as err:
                    check_tridiag(wrong, x[first:], b[first:])
                stacked.append((str(err.value), err.value.row))
        alone = []
        for solve in (2, 3):
            with pytest.raises(SingularSystemError) as err:
                solve_tridiag(wrong, b[solve].T)
            alone.append((str(err.value), err.value.row))
        assert stacked == [alone[0]] * 2 and alone[0] != alone[1]

    def test_band_shape_mismatch(self):
        with pytest.raises(SizeError):
            factor_tridiag(np.ones(4), np.ones(4), np.ones(3))
        factors = factor_tridiag(np.ones(3), np.full(4, 4.0), np.ones(3))
        with pytest.raises(SizeError):
            solve_tridiag(factors, np.ones((5, 2)))


SPLINE_ENDS = ["natural", "not-a-knot", (0.4, -1.3)]
SPLINE_ENDS_IDS = ["natural", "not-a-knot", "clamped"]


def spline_knots(n, uniform):
    if uniform:
        return np.linspace(-1.0, 2.0, n)
    steps = np.random.default_rng(n).uniform(0.2, 1.8, n - 1)
    return np.concatenate([[-1.0], -1.0 + 3.0 * np.cumsum(steps) / steps.sum()])


def spline_values(knots):
    return 3.0 * np.sin(2.0 * knots) + knots**2


def oracle(knots, values, ends):
    """SciPy's cubic spline with the same end conditions."""
    bc = ends if isinstance(ends, str) else ((1, ends[0]), (1, ends[1]))
    return CubicSpline(knots, values, bc_type=bc)


def slope_table(table):
    """The derivative's table: coefficients (0, 3a, 2b, c) of each row."""
    slope = np.zeros_like(table)
    slope[:, 1], slope[:, 2], slope[:, 3] = 3.0 * table[:, 0], 2.0 * table[:, 1], table[:, 2]
    return slope


def probe_points(knots):
    """Every knot (the last included), interval midpoints and random points."""
    inner = np.random.default_rng(knots.size).uniform(knots[0], knots[-1], 50)
    return np.concatenate([knots, 0.5 * (knots[1:] + knots[:-1]), inner])


class TestCubicSpline:
    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "nonuniform"])
    @pytest.mark.parametrize("ends", SPLINE_ENDS, ids=SPLINE_ENDS_IDS)
    @pytest.mark.parametrize("n", [3, 4, 5, 65, 257])
    def test_matches_scipy(self, n, ends, uniform):
        knots = spline_knots(n, uniform)
        values = spline_values(knots)
        table = cubic_spline(knots, values, ends)
        assert table.shape == (n, 4)
        spline = oracle(knots, values, ends)
        u = probe_points(knots)
        scale = np.abs(values).max()
        np.testing.assert_allclose(eval_spline(knots, table, u), spline(u),
                                   rtol=0.0, atol=1e-13 * scale)
        slopes = spline(u, 1)
        np.testing.assert_allclose(eval_spline(knots, slope_table(table), u), slopes,
                                   rtol=0.0, atol=1e-13 * np.abs(slopes).max())
        np.testing.assert_array_equal(eval_spline(knots, table, knots), values)

    def test_trailing_axes_match_scipy(self):
        # The reduction's layout: knots along axis 0, the space nodes and the
        # two fields after it, each column a spline of its own.
        knots = spline_knots(31, uniform=False)
        values = spline_values(knots)[:, None, None] * np.arange(1.0, 15.0).reshape(1, 7, 2)
        table = cubic_spline(knots, values, "not-a-knot")
        assert table.shape == (31, 4, 7, 2)
        u = np.linspace(knots[2], knots[-3], 27)
        out = eval_spline(knots, table, u)
        assert out.shape == (27, 7, 2)
        np.testing.assert_allclose(out, oracle(knots, values, "not-a-knot")(u),
                                   rtol=0.0, atol=1e-13 * np.abs(values).max())

    def test_three_knot_not_a_knot_is_the_parabola(self):
        knots = np.array([0.0, 0.3, 1.0])
        table = cubic_spline(knots, 2.0 * knots**2 - knots + 0.5, "not-a-knot")
        u = np.linspace(0.0, 1.0, 11)
        np.testing.assert_allclose(eval_spline(knots, table, u), 2.0 * u**2 - u + 0.5,
                                   rtol=0.0, atol=1e-15)

    def test_nan_passes_through(self):
        knots = spline_knots(9, uniform=True)
        table = cubic_spline(knots, spline_values(knots))
        out = eval_spline(knots, table, np.array([np.nan, knots[3]]))
        assert np.isnan(out[0]) and np.isfinite(out[1])

    @pytest.mark.parametrize(
        "knots, values",
        [([0.0, 1.0], [0.0, 1.0]),
         ([0.0, 1.0, 2.0], [0.0, 1.0]),
         ([0.0, 2.0, 1.0, 3.0], [0.0, 1.0, 2.0, 3.0]),
         ([[0.0, 1.0, 2.0]], [[0.0, 1.0, 2.0]])],
        ids=["two-knots", "count-mismatch", "not-increasing", "2-D-knots"],
    )
    def test_size_errors(self, knots, values):
        with pytest.raises(SizeError):
            cubic_spline(knots, values)

    def test_non_finite_samples(self):
        with pytest.raises(InputError, match="finite"):
            cubic_spline([0.0, 1.0, 2.0, 3.0], [0.0, np.nan, 1.0, 2.0])
        with pytest.raises(InputError, match="finite"):
            cubic_spline([0.0, 1.0, np.inf], [0.0, 1.0, 2.0])
        with pytest.raises(InputError, match="finite"):
            cubic_spline([-np.inf, 1.0, 2.0], [0.0, 1.0, 2.0])

    def test_overflowing_table_is_a_numerical_error(self):
        # Finite knots spread over the whole float range with a clamped end
        # slope: eliminating the first row overflows. The error names the
        # overflow, and no RuntimeWarning escapes on the way.
        knots = np.linspace(0.0, 1e308, 1001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="cubic spline table overflows"):
                cubic_spline(knots, np.sin(np.arange(1001.0)), ends=(1e5, 1e5))

    def test_unknown_ends(self):
        with pytest.raises(ValueError, match="ends"):
            cubic_spline([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 0.0, 1.0], "periodic")


class TestSampledFn:
    def test_reproduces_knots_exactly(self):
        knots = np.linspace(0.0, 1.0, 9)
        vals = np.sin(3.0 * knots)
        fn = SampledFn(knots, vals)
        np.testing.assert_array_equal(fn(knots), vals)

    def test_derivative_matches_central_difference(self):
        fn = sampled_fn(np.sin, 0.0, 2.0, 201)
        xs = np.linspace(0.15, 1.85, 57)
        h = 1e-5
        fd = (fn(xs + h) - fn(xs - h)) / (2.0 * h)
        np.testing.assert_allclose(fn.derivative(xs), fd, atol=1e-8)

    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "nonuniform"])
    @pytest.mark.parametrize("end_slopes", [None, (0.4, -1.3)], ids=["natural", "clamped"])
    @pytest.mark.parametrize("n", [4, 5, 65, 257])
    def test_matches_scipy(self, n, end_slopes, uniform):
        knots = spline_knots(n, uniform)
        values = spline_values(knots)
        fn = SampledFn(knots, values, end_slopes=end_slopes)
        spline = oracle(knots, values, "natural" if end_slopes is None else end_slopes)
        slack = 1e-12 * max(knots[-1] - knots[0], 1.0)
        inside = np.array([knots[0] - 0.5 * slack, knots[-1] + 0.5 * slack])
        u = np.concatenate([probe_points(knots), inside])
        clipped = np.clip(u, knots[0], knots[-1])
        np.testing.assert_allclose(fn(u), spline(clipped), rtol=0.0,
                                   atol=1e-13 * np.abs(values).max())
        slopes = spline(clipped, 1)
        np.testing.assert_allclose(fn.derivative(u), slopes, rtol=0.0,
                                   atol=1e-13 * np.abs(slopes).max())
        value, slope = fn.value_and_slope(u)
        np.testing.assert_array_equal(value, fn(u))
        np.testing.assert_array_equal(slope, fn.derivative(u))
        np.testing.assert_array_equal(fn(knots), values)

    def test_argument_shapes(self):
        fn = sampled_fn(np.sin, 0.0, 1.0, 17)
        for out in (fn(0.3), fn.derivative(0.3), *fn.value_and_slope(0.3)):
            assert type(out) is float
        for out in (fn(np.array(0.3)), fn.derivative(np.array(0.3)),
                    *fn.value_and_slope(np.array(0.3))):
            assert isinstance(out, np.ndarray) and out.shape == ()
        grid = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        value, slope = fn.value_and_slope(grid)
        assert value.shape == slope.shape == fn(grid).shape == (3, 4)
        np.testing.assert_array_equal(value, fn(grid))
        np.testing.assert_array_equal(slope, fn.derivative(grid))
        assert fn(np.array([], dtype=float)).shape == (0,)

    def test_nan_passes_through(self):
        fn = sampled_fn(np.sin, 0.0, 1.0, 17)
        u = np.array([0.25, np.nan])
        for out in (fn(u), fn.derivative(u), *fn.value_and_slope(u)):
            assert np.isfinite(out[0]) and np.isnan(out[1])
        assert np.isnan(fn(float("nan")))

    def test_needs_four_knots(self):
        with pytest.raises(SizeError):
            SampledFn([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])

    def test_size_errors(self):
        with pytest.raises(SizeError, match="counts differ"):
            SampledFn([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0])
        with pytest.raises(SizeError, match="strictly increasing"):
            SampledFn([0.0, 1.0, 1.0, 3.0], [0.0, 1.0, 2.0, 3.0])

    def test_domain_enforced(self):
        fn = sampled_fn(np.sin, 0.0, 1.0, 8)
        with pytest.raises(DomainError):
            fn(1.5)
        for u in (-1e-9, 1.0 + 1e-9, np.array([0.5, 1.0 + 1e-9])):
            for method in (fn, fn.derivative, fn.value_and_slope):
                with pytest.raises(DomainError, match="outside knot range"):
                    method(u)
