import math

import numpy as np
import pytest

from steinlab import DecayError, DomainError, EvaluationError
from steinlab.levy import _log_quad_complex
from steinlab.numerics import (
    RadialGrid,
    _refine,
    _simpson_rule,
    fourier_round_trip_error,
    gamma_fn,
    gauss_jacobi_unit,
    gaussian_bump,
    gaussian_bump_library,
    grad_fd,
    log_radial_grid,
    normalized_bumps,
    radial_integral,
    spherical_integral,
    sphere_from_atoms,
    surface_area,
    time_integral,
    uniform_sphere,
)

# int_0^inf (cos r - 1) r^{-1-alpha} dr at alpha = 1.5, written as
# -2 sin^2(r/2) r^{-1-alpha} so small radii do not cancel to zero.
# Closed form gamma(-alpha) cos(alpha pi / 2); the 10^6-node log-grid
# brute-force rule on (1e-12, 1e7) lands within 6e-7 of it (frozen below).
COS_INTEGRAL_15 = -1.6710855164206666
BRUTE_RULE_15 = -1.671084516552245


def brute_force_log_rule(g, r_min, r_max, n=1_000_000):
    u = np.linspace(math.log(r_min), math.log(r_max), n)
    r = np.exp(u)
    return np.trapezoid(g(r) * r, u)


class TestGamma:
    def test_integers(self):
        assert gamma_fn(1.0) == 1.0
        assert gamma_fn(4.0) == 6.0

    def test_half(self):
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_fn(0.0)
        with pytest.raises(DomainError):
            gamma_fn(-2.5)


class TestRadialIntegral:
    def test_zero(self):
        grid = log_radial_grid(1e-6, 1e3)
        assert radial_integral(lambda r: 0.0 * r, grid) == 0.0

    def test_exponential(self):
        grid = log_radial_grid(1e-9, 60.0)
        val = radial_integral(lambda r: np.exp(-r), grid)
        assert val == pytest.approx(1.0, rel=1e-8)

    def test_stable_cosine_kernel(self):
        alpha = 1.5
        g = lambda r: -2.0 * np.sin(r / 2.0) ** 2 * r ** (-1.0 - alpha)
        grid = log_radial_grid(1e-14, 2e4, points_per_decade=96)
        val = radial_integral(g, grid, rel_tol=1e-9)
        assert val == pytest.approx(COS_INTEGRAL_15, rel=1e-6)
        oracle = brute_force_log_rule(g, 1e-12, 1e7)
        assert oracle == pytest.approx(BRUTE_RULE_15, rel=1e-9)
        assert oracle == pytest.approx(COS_INTEGRAL_15, rel=1e-5)

    def test_error_estimate_bounds_refinement(self):
        grid = log_radial_grid(1e-8, 50.0, points_per_decade=16)
        g = lambda r: np.exp(-r) * np.sin(3.0 * r) ** 2
        v1, e1 = radial_integral(g, grid, full_output=True, max_doublings=3)
        v2 = radial_integral(g, grid, max_doublings=4)
        assert abs(v2 - v1) <= max(e1, 1e-12)

    def test_nonfinite_integrand_reports_node(self):
        grid = log_radial_grid(0.5, 2.0)
        with np.errstate(divide="ignore"):
            with pytest.raises(EvaluationError) as exc:
                radial_integral(lambda r: 1.0 / (r - 1.0), grid)
        assert exc.value.node is not None

    def test_integration_by_parts_against_analytic_dk(self):
        # int_a^b k f' dr = -int_a^b f dk for k decreasing and smooth
        a, b = 0.05, 40.0
        lam = 0.7
        k = lambda r: np.exp(-lam * r)
        dk = lambda r: -lam * np.exp(-lam * r)
        f = lambda r: np.sin(r) * np.exp(-0.1 * r)
        fp = lambda r: (np.cos(r) - 0.1 * np.sin(r)) * np.exp(-0.1 * r)
        grid = RadialGrid(*_grid_pair(a, b), r_min=a, r_max=b)
        lhs = radial_integral(lambda r: k(r) * fp(r), grid)
        rhs = -radial_integral(lambda r: f(r) * dk(r), grid)
        boundary = k(b) * f(b) - k(a) * f(a)
        assert lhs == pytest.approx(rhs + boundary, rel=1e-6, abs=1e-9)


def _grid_pair(a, b):
    g = log_radial_grid(a, b)
    return g.nodes, g.weights


class TestSimpsonRule:
    def test_cubic_exact_on_linear_grid(self):
        x, w = _simpson_rule(-1.0, 2.0, 9)
        val = np.dot(w, x**3 - 2.0 * x**2 + x - 5.0)
        assert abs(val - (-15.75)) <= 1e-14 * 15.75

    def test_log_grid_exact_for_cubic_in_log(self):
        # int (log r)^3 / r dr = (log r)^4 / 4, a cubic in u = log r
        r, w = _simpson_rule(math.exp(-2.0), math.exp(3.0), 11, log=True)
        val = np.dot(w, np.log(r) ** 3 / r)
        assert val == pytest.approx((81.0 - 16.0) / 4.0, rel=1e-13)

    def test_even_n_rounds_up_and_keeps_endpoints(self):
        x, w = _simpson_rule(0.5, 3.0, 10)
        assert x.shape == w.shape == (11,)
        assert x[0] == 0.5 and x[-1] == 3.0
        r, w = _simpson_rule(0.5, 3.0, 10, log=True)
        assert r.shape == w.shape == (11,)
        assert r[0] == pytest.approx(0.5, rel=1e-15)
        assert r[-1] == pytest.approx(3.0, rel=1e-15)


class TestRefine:
    def test_log_quad_complex_matches_closed_form(self):
        lo, hi = 0.5, 8.0
        val = _log_quad_complex(lo, hi, 1.0 / 48.0, lambda r: np.exp(1j * r))
        exact = (np.exp(1j * hi) - np.exp(1j * lo)) / 1j
        assert abs(val - exact) <= 1e-9 * abs(exact)

    def test_radial_integral_returns_last_level_when_unconverged(self):
        # 33 grid nodes give a base of 16 intervals: levels of 17, 33, 65 nodes
        grid = RadialGrid(np.geomspace(2.0, 50.0, 33), np.ones(33), r_min=2.0, r_max=50.0)
        g = lambda r: np.sin(r) * np.exp(-0.1 * r)
        levels = []
        for n in (17, 33, 65):
            r, w = _simpson_rule(2.0, 50.0, n, log=True)
            levels.append(float(np.dot(w, g(r))))
        val, err = radial_integral(g, grid, rel_tol=0.0, max_doublings=2, full_output=True)
        assert val == levels[2]
        assert err == abs(levels[2] - levels[1])

    def test_stops_at_first_agreeing_level(self):
        seen = []

        def estimate(level):
            seen.append(level)
            return np.array([1.0, 2.0]) + 10.0 ** -(3 * level)

        # levels 2 and 3 differ by about 1e-6 <= 1e-5 * max|value|
        val, err = _refine(estimate, 8, 1e-5)
        assert seen == [0, 1, 2, 3]
        assert err == pytest.approx(1e-6 - 1e-9, rel=1e-6)
        np.testing.assert_array_equal(val, np.array([1.0, 2.0]) + 1e-9)


class TestSphericalGrids:
    def test_atoms_are_unit(self):
        for d in (1, 2, 3, 4):
            g = uniform_sphere(d)
            assert np.allclose(np.linalg.norm(g.atoms, axis=1), 1.0, atol=1e-12)
            assert g.total_mass == pytest.approx(surface_area(d), rel=1e-12)

    def test_constant_integrand_gives_total_mass(self):
        g = uniform_sphere(2, 64)
        val = spherical_integral(lambda x: np.ones(x.shape[0]), g)
        assert val == pytest.approx(g.total_mass, rel=1e-14)

    def test_odd_function_cancels_exactly(self):
        for d in (1, 2, 3):
            g = uniform_sphere(d, 128 if d > 1 else None)
            val = spherical_integral(lambda x: x[:, 0] ** 3 + 0.5 * x[:, -1], g)
            assert abs(val) < 1e-12 * g.total_mass

    def test_second_moment_on_circle(self):
        # average of cos^2 over the circle is 1/2 (unit-mass normalization)
        g = uniform_sphere(2, 360)
        val = spherical_integral(lambda x: x[:, 0] ** 2, g) / g.total_mass
        assert val == pytest.approx(0.5, rel=1e-12)

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            sphere_from_atoms(np.zeros((0, 2)), np.zeros(0))

    def test_symmetry_flag(self):
        assert uniform_sphere(3, 512).is_symmetric()

    def test_uniform_flag_truth_table(self):
        fine = uniform_sphere(2, 256)
        theta = 2.0 * math.pi * np.arange(256) / 256
        uneven = 1.0 + 0.9 * np.cos(2.0 * theta)
        cross = sphere_from_atoms([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], np.full(4, math.pi / 2.0))
        for grid in (uniform_sphere(1), uniform_sphere(2, 64), fine, uniform_sphere(3, 1024)):
            assert grid.is_uniform()
        for grid in (
            uniform_sphere(2, 32),  # too coarse
            cross,  # too coarse, with the right mass
            sphere_from_atoms(fine.atoms, uneven * 2.0 * math.pi / uneven.sum()),  # symmetric, uneven
            sphere_from_atoms(fine.atoms, 2.0 * fine.weights),  # wrong mass
        ):
            assert grid.is_symmetric() and not grid.is_uniform()


class TestTimeIntegral:
    def test_exponential(self):
        assert time_integral(lambda t: math.exp(-t), 1.0) == pytest.approx(1.0, rel=1e-6)

    def test_difference_of_exponentials(self):
        val = time_integral(lambda t: math.exp(-2 * t) - math.exp(-3 * t), 2.0)
        assert val == pytest.approx(1.0 / 6.0, rel=1e-6)

    def test_t_exp(self):
        assert time_integral(lambda t: t * math.exp(-t), 1.0) == pytest.approx(1.0, rel=1e-6)

    def test_refuses_nondecaying(self):
        with pytest.raises(DecayError):
            time_integral(lambda t: 1.0 / (1.0 + 0.01 * t), 1.0)

    def test_vectorized_matches_scalar(self):
        fn = lambda t: np.stack(
            [np.exp(-2.0 * np.asarray(t)), np.asarray(t) * np.exp(-np.asarray(t))], axis=-1
        )
        out = time_integral(fn, 1.0, vectorized=True)
        assert out[0] == pytest.approx(0.5, rel=1e-6)
        assert out[1] == pytest.approx(1.0, rel=1e-6)


class TestGradFD:
    def test_linear(self):
        a = np.array([1.0, -2.0, 0.5])
        g = grad_fd(lambda x: float(a @ x), np.array([0.3, 0.7, -1.1]))
        assert np.allclose(g, a, rtol=1e-9, atol=1e-9)

    def test_quadratic(self):
        x = np.array([0.4, -1.2])
        g = grad_fd(lambda y: 0.5 * float(y @ y), x)
        assert np.allclose(g, x, rtol=1e-7, atol=1e-9)

    def test_gaussian_bump_matches_analytic(self):
        rng = np.random.default_rng(7)
        tf = gaussian_bump(3, a=1.3, center=[0.2, -0.4, 0.1])
        for _ in range(4):
            x = rng.normal(size=3)
            fd = grad_fd(lambda y: float(tf.evaluate(y)), x)
            assert np.allclose(fd, tf.gradient(x), rtol=1e-5, atol=1e-8)


class TestBumpLibrary:
    def test_library_size_and_metadata(self):
        for d in (1, 2, 3):
            lib = gaussian_bump_library(d)
            assert len(lib) >= 10
            for tf in lib:
                assert tf.gradient is not None and tf.fourier is not None

    def test_fourier_at_zero_is_total_integral(self):
        for d in (1, 2):
            tf = gaussian_bump(d, a=1.0)
            assert complex(tf.fourier(np.zeros(d))) == pytest.approx(
                math.pi ** (d / 2.0), rel=1e-12
            )

    def test_coordinate_member_vanishes_at_center(self):
        tf = gaussian_bump(2, a=1.0, coord=0)
        assert float(tf.evaluate(np.zeros(2))) == 0.0

    def test_shifted_fourier_phase_against_dft(self):
        # numeric transform on a 64-point grid reproduces the phase factor
        tf = gaussian_bump(1, a=1.0, center=[0.6])
        xs = np.linspace(-12.0, 12.0, 64 * 16)
        dx = xs[1] - xs[0]
        fx = tf.evaluate(xs[:, None])
        for xi in (0.0, 0.8, -1.7):
            dft = np.sum(fx * np.exp(-1j * xi * xs)) * dx
            assert complex(tf.fourier(np.array([xi]))) == pytest.approx(dft, rel=1e-6)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for d in (1, 2):
            for tf in gaussian_bump_library(d)[:4]:
                pts = rng.normal(0.0, 1.0, size=(5, d))
                assert fourier_round_trip_error(tf, d, pts) < 1e-6

    def test_gradients_match_fd_on_probes(self):
        rng = np.random.default_rng(11)
        for tf in gaussian_bump_library(2):
            x = rng.normal(size=2)
            fd = grad_fd(lambda y: float(tf.evaluate(y)), x)
            an = tf.gradient(x)
            assert np.allclose(fd, an, rtol=1e-5, atol=1e-7)

    def test_normalized_bumps_respect_bounds(self):
        rng = np.random.default_rng(5)
        for order in (1, 2):
            fam = normalized_bumps(2, order, 8, rng)
            xs = rng.normal(0.0, 2.0, size=(400, 2))
            for tf in fam:
                vals = tf.evaluate(xs)
                assert np.max(np.abs(vals)) <= 1.0 + 1e-9
                grads = np.linalg.norm(tf.gradient(xs), axis=1)
                assert np.max(grads) <= 1.0 + 1e-9


class TestGaussJacobi:
    def test_matches_monomial(self):
        # int_0^1 r^2 * r^beta dr = 1/(3+beta)
        for beta in (-0.5, -0.25, 0.3):
            r, w = gauss_jacobi_unit(12, beta)
            val = float(np.sum(w * r**2))
            assert val == pytest.approx(1.0 / (3.0 + beta), rel=1e-12)

    def test_smooth_weighted_integral(self):
        # int_0^1 exp(-r) r^{-1/2} dr; frozen value from adaptive quad
        r, w = gauss_jacobi_unit(24, -0.5)
        val = float(np.sum(w * np.exp(-r)))
        assert val == pytest.approx(1.4936482656248504, rel=1e-12)
