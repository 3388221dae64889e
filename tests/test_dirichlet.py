import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import hankel1, hyp1f1, j0

from steinlab import DomainError, EvaluationError, RegimeError, dirichlet
from steinlab.dirichlet import (
    RatioReport,
    bakry_emery_check,
    export_ratio_csv,
    gamma1,
    gamma2,
    gamma2_symbol_value,
    poincare_residual,
    _sphere_averages,
    rate_denominator,
    rate_denominator_limit,
    rate_numerator,
    rate_numerator_limit,
    truncated_coordinate,
    u_ratio_curve,
)
from steinlab.levy import isotropic_stable_law
from steinlab.numerics import _simpson_rule, constant_fn, gaussian_bump, surface_area


def closed_rate_limit(alpha, d):
    # Gamma-function form of the limit radial integral (oracle)
    s = alpha + d - 2.0
    return (
        surface_area(d)
        / (2 * math.pi) ** d
        * (math.pi / 2) ** (d / 2)
        * (alpha / 2)
        * (1 + (alpha - 2) / d)
        * 0.5
        * 8 ** (s / 2)
        * math.gamma(s / 2)
    )


def energy_kernel(xi, zeta, j, alpha):
    """d_{xi_j} d_{zeta_j}[phi(w) S] / phi(w), pointwise, all five terms."""
    nx = np.linalg.norm(xi, axis=-1)
    nz = np.linalg.norm(zeta, axis=-1)
    w = xi + zeta
    nw = np.linalg.norm(w, axis=-1)
    S = nx**alpha + nz**alpha - nw**alpha
    P = -(alpha / 2) * nw ** (alpha - 2) * w[..., j]
    dP = -(alpha / 2) * nw ** (alpha - 2) - (alpha / 2) * (alpha - 2) * w[..., j] ** 2 * nw ** (alpha - 4)
    # xi_j |xi|^(a-2) -> 0 at xi = 0, which a grid corner can hit exactly
    dS_xi = alpha * (xi[..., j] * np.where(nx > 0, nx, 1.0) ** (alpha - 2) - w[..., j] * nw ** (alpha - 2))
    dS_zeta = alpha * (zeta[..., j] * np.where(nz > 0, nz, 1.0) ** (alpha - 2) - w[..., j] * nw ** (alpha - 2))
    dS_xi_zeta = -alpha * nw ** (alpha - 2) - alpha * (alpha - 2) * w[..., j] ** 2 * nw ** (alpha - 4)
    return P**2 * S + P * (dS_xi + dS_zeta) + dP * S + dS_xi_zeta


def split_kernel(alpha, d, nw, nx, cos):
    """The j-averaged kernel's part in w alone and its part in xi, at
    |w| = nw, |xi| = nx and cos = the cosine of the angle between them."""
    b = 1.0 + (alpha - 2.0) / d
    A = alpha**2 / (4 * d) * nw ** (2 * alpha - 2) - (alpha / 2) * b * nw ** (alpha - 2)
    K_w = -A * nw**alpha + alpha**2 / d * nw ** (2 * alpha - 2) - alpha * b * nw ** (alpha - 2)
    K_xi = A * nx**alpha - alpha**2 / (2 * d) * nw ** (alpha - 1) * nx ** (alpha - 1) * cos
    return K_w, K_xi


def denominator_by_angles(alpha, d, R, n=201, n_theta=1025):
    """rate_denominator on its |w| and |xi| nodes, with the angle theta
    between xi and w summed by a Simpson rule weighted by
    |S^{d-2}| sin^{d-2} theta in place of the closed sphere averages, and
    the v-Gaussian written out: |v|^2 = |xi|^2 + |w|^2/4 - |xi||w| cos theta."""
    th, w_th = _simpson_rule(0.0, math.pi, n_theta)
    w_th = w_th * surface_area(d - 1) * np.sin(th) ** (d - 2)
    xi, w_xi = _simpson_rule(1e-7, 40.0, n, log=True)
    rho, w_rho = _simpson_rule(1e-7, 14.0, n, log=True)

    def bracket(w):
        K_w, K_xi = split_kernel(alpha, d, w / R, xi[:, None] / R, np.cos(th))
        v_sq = xi[:, None] ** 2 + w**2 / 4 - xi[:, None] * w * np.cos(th)
        I_xi = (w_xi * xi ** (d - 1)) @ (K_xi * np.exp(-v_sq / 2)) @ w_th
        return math.exp(-(w**alpha) / (2 * R**alpha) - w**2 / 8) * ((2 * math.pi) ** (d / 2) * K_w + 2 * I_xi)

    total = sum(wr * r ** (d - 1) * bracket(r) for r, wr in zip(rho, w_rho))
    # the cell below 1e-7, where the bracket goes like w^(alpha-2)
    total += bracket(1e-7) * 1e-7**d / (alpha + d - 2)
    return -(alpha / 4) * math.pi**d * surface_area(d) / (2 * math.pi) ** (2 * d) * total


def fourier_energy_d1(alpha, R, n=2001):
    """E int (g(X+u) - g(X))^2 nu(du) for g = x exp(-x^2/R^2) in d = 1:
    (2 pi)^-2 iint F(xi) conj F(zeta) phi(xi - zeta) [psi(xi - zeta) - psi(xi) - psi(zeta)]
    on a uniform grid over +-12/R, with F(xi) = -i (sqrt(pi) R^3 xi / 2) exp(-R^2 xi^2 / 4)
    and psi = -|xi|^alpha / 2."""
    x = np.linspace(-12.0 / R, 12.0 / R, n)
    h = x[1] - x[0]
    f = (math.sqrt(math.pi) * R**3 / 2.0) * x * np.exp(-((R * x) ** 2) / 4.0)
    p = np.abs(x) ** alpha
    total = 0.0
    for rows in np.array_split(np.arange(n), 8):
        diff = np.abs(x[rows, None] - x) ** alpha
        total += f[rows] @ (np.exp(-0.5 * diff) * 0.5 * (p[rows, None] + p - diff)) @ f
    return total * h * h / (2.0 * math.pi) ** 2


def gaussian_gradient_energy(d, R, n=40):
    """E |grad g|^2 for g = x_0 exp(-|x|^2/R^2) and X ~ N(0, I), the alpha = 2
    energy, by tensor Gauss-Hermite quadrature."""
    t, wt = np.polynomial.hermite_e.hermegauss(n)
    X = np.stack(np.meshgrid(*[t] * d, indexing="ij"), axis=-1).reshape(-1, d)
    weight = np.prod(np.stack(np.meshgrid(*[wt / math.sqrt(2 * math.pi)] * d, indexing="ij"), axis=-1), axis=-1)
    damp = np.exp(-np.sum(X**2, axis=1) / R**2)
    grad = -2.0 * X[:, :1] * X / R**2 * damp[:, None]
    grad[:, 0] += damp
    return float(weight.reshape(-1) @ np.sum(grad**2, axis=1))


def gamma2_symbol_full_grid(f, alpha, x, refine=1.0):
    """The symbol route on full grids, an independent second route.  d = 1:
    every (xi, zeta) pair of the (768 refine + 1)-node Simpson rule on
    [-14, 14], with the transform read directly.  d = 2: all radius pairs of
    the (384 refine + 1)-node rule on [0, 14] and the (256 refine + 1)-node
    rule in the angle over [0, 2 pi]."""
    x = np.asarray(x, dtype=float)
    if f.dim == 1:
        xi, w = _simpson_rule(-14.0, 14.0, int(768 * refine) + 1)
        Fw = np.asarray(f.fourier(xi[:, None])) * np.exp(1j * xi * x[0]) * w
        p = np.abs(xi) ** alpha
        S = p[:, None] + p[None, :] - np.abs(np.add.outer(xi, xi)) ** alpha
        g2 = (alpha**2 / 16.0) * S**2 + (alpha**2 / 8.0) * S
        return float(np.real(Fw @ g2 @ Fw)) / (2.0 * math.pi) ** 2
    s = float(np.linalg.norm(x - f.fourier_center))
    rho, w_rho = _simpson_rule(0.0, 14.0, int(384 * refine) + 1)
    delta, w_delta = _simpson_rule(0.0, 2.0 * math.pi, int(256 * refine) + 1)
    G = np.real(np.asarray(f.radial_fourier(rho), dtype=complex))
    P, T = np.meshgrid(rho, rho, indexing="ij")
    Gw = G * rho * w_rho
    out = 0.0
    for dl, wl in zip(delta, w_delta):
        kappa = np.sqrt(np.maximum(P**2 + T**2 + 2.0 * P * T * math.cos(dl), 0.0))
        S = P**alpha + T**alpha - kappa**alpha
        g2 = (alpha**2 / 16.0) * S**2 + (alpha**2 / 8.0) * S
        out += wl * np.einsum("i,j,ij->", Gw, Gw, g2 * j0(kappa * s))
    return float(out * 2.0 * math.pi / (2.0 * math.pi) ** 4)


def cross_integral_by_quad(a, alpha, d, s):
    """int_0^inf k^{alpha+d-1} A_d(k s) e^{-z} 1F1(-alpha/2; d/2; -z) dk,
    z = k^2/(8a), by adaptive quadrature.  For s > 0 the path turns to the
    ray k = t e^{i pi/8}: with A_d(k s) = Re of (2 pi)^{d/2} H1_nu(k s) /
    (k s)^nu (nu = d/2 - 1, H1 the Hankel function) and the weight written
    e^{-2z} 1F1((alpha + d)/2; d/2; z), the integrand decays like
    e^{-t s sin(pi/8)} and e^{-t^2 cos(pi/4)/(8a)} there instead of
    oscillating, so the sum keeps its relative accuracy at large s."""
    c, nu = d / 2.0, d / 2.0 - 1.0
    if s == 0.0:

        def on_axis(k):
            z = k * k / (8.0 * a)
            return k ** (alpha + d - 1.0) * math.exp(-z) * hyp1f1(-alpha / 2.0, c, -z)

        return surface_area(d) * quad(on_axis, 0.0, np.inf, epsabs=0.0, epsrel=1e-12)[0]
    turn = np.exp(1j * math.pi / 8.0)

    def on_ray(t):
        k = t * turn
        z = k * k / (8.0 * a)
        kernel = (2.0 * math.pi) ** c * hankel1(nu, k * s) / (k * s) ** nu
        return (turn * k ** (alpha + d - 1.0) * kernel * np.exp(-2.0 * z) * hyp1f1(alpha / 2.0 + c, c, z)).real

    # both decays are below e^{-45} past the end of the ray
    return quad(on_ray, 0.0, min(23.0 * math.sqrt(a), 120.0 / s), epsabs=0.0, epsrel=1e-12, limit=200)[0]


def gaussian_hessian_energy(d, y, a=1.0):
    """||Hess f||_HS^2 + |grad f|^2 for f = exp(-a |x|^2) at x = y.

    With grad f = -2a x f and d_jk f = (4a^2 x_j x_k - 2a delta_jk) f:
    sum_jk (4a^2 x_j x_k - 2a delta_jk)^2 = 16 a^4 |x|^4 - 16 a^3 |x|^2 + 4 a^2 d,
    and |grad f|^2 = 4 a^2 |x|^2 f^2."""
    r2 = float(np.dot(y, y))
    return math.exp(-2.0 * a * r2) * (16.0 * a**4 * r2**2 - (16.0 * a - 4.0) * a**2 * r2 + 4.0 * a**2 * d)


class TestGamma1:
    def test_constant_both_routes(self):
        law = isotropic_stable_law(1.5, 1)
        c = constant_fn(2.0, 1)
        f = gaussian_bump(1, a=1.0)
        assert gamma1(law, c, f, np.array([0.2]), "integral") == pytest.approx(0.0, abs=1e-12)
        assert gamma1(law, c, f, np.array([0.2]), "generator") == pytest.approx(0.0, abs=1e-9)

    def test_nonnegative_on_diagonal(self):
        law = isotropic_stable_law(1.5, 2)
        rng = np.random.default_rng(0)
        f = gaussian_bump(2, a=1.0, center=[0.2, -0.1])
        for _ in range(20):
            x = rng.normal(0, 1.5, size=2)
            assert gamma1(law, f, f, x, "integral") >= 0.0

    def test_routes_agree(self):
        law = isotropic_stable_law(1.5, 1)
        f = gaussian_bump(1, a=1.0, center=[0.3])
        g = gaussian_bump(1, a=0.7, center=[-0.2])
        rng = np.random.default_rng(1)
        for _ in range(3):
            x = rng.normal(size=1)
            vi = gamma1(law, f, g, x, "integral")
            vg = gamma1(law, f, g, x, "generator")
            assert vg == pytest.approx(vi, rel=1e-3, abs=1e-10)


class TestGamma2:
    def test_constant(self):
        law = isotropic_stable_law(1.5, 1)
        assert gamma2(law, constant_fn(1.0, 1), np.array([0.1]), "integral") == pytest.approx(
            0.0, abs=1e-12
        )

    def test_symbol_formula_antipodal_reduction(self):
        # gamma2 symbol at zeta = -xi collapses to (a^2/4)(|xi|^2a + |xi|^a)
        alpha = 1.5
        for nrm in (1.0, 0.7):
            S = 2.0 * nrm**alpha
            g2 = (alpha**2 / 16.0) * S**2 + (alpha**2 / 8.0) * S
            assert g2 == pytest.approx((alpha**2 / 4.0) * (nrm ** (2 * alpha) + nrm**alpha))
        # and at |xi| = 1 equals a^2/4 + a^2/4
        S = 2.0
        g2 = (alpha**2 / 16.0) * S**2 + (alpha**2 / 8.0) * S
        assert g2 == pytest.approx(alpha**2 / 4.0 + alpha**2 / 4.0)

    def test_routes_agree_d1(self):
        law = isotropic_stable_law(1.5, 1)
        f = gaussian_bump(1, a=1.0, center=[0.3])
        x = np.array([0.4])
        vi = gamma2(law, f, x, "integral")
        vs = gamma2(law, f, x, "symbol")
        vr = gamma2(law, f, x, "recursion")
        assert vs == pytest.approx(vi, rel=2e-3)
        assert vr == pytest.approx(vi, rel=2e-3)

    def test_routes_agree_d2(self):
        law = isotropic_stable_law(1.5, 2)
        f = gaussian_bump(2, a=1.0, center=[0.3, 0.0])
        x = np.array([0.5, -0.2])
        vi = gamma2(law, f, x, "integral")
        vs = gamma2(law, f, x, "symbol")
        assert vs == pytest.approx(vi, rel=2e-3)

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.9])
    @pytest.mark.parametrize("dist", [0.0, 0.5, 3.0])
    def test_symbol_d2_matches_full_grid(self, alpha, dist):
        # in d = 1 and 2 the closed form sits closer to the full grid than
        # the grid's own error, measured as its move from half the nodes;
        # dist = 0 puts x on the bump's center
        for d, c, u in ((1, [0.3], [1.0]), (2, [0.3, -0.2], [0.6, 0.8])):
            f = gaussian_bump(d, a=1.0, center=c)
            x = np.array(c) + dist * np.array(u)
            grid = gamma2_symbol_full_grid(f, alpha, x)
            grid_error = abs(grid - gamma2_symbol_full_grid(f, alpha, x, refine=0.5))
            assert abs(gamma2_symbol_value(f, alpha, d, x) - grid) < grid_error

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.9])
    @pytest.mark.parametrize("dist", [0.0, 0.5, 3.0])
    def test_full_grid_refined_closes_on_symbol(self, alpha, dist):
        # in d = 1, twice the grid's nodes bring it at least 4x closer to
        # the closed form (4.6x to 7.5x here: |xi + zeta|^alpha has a kink
        # on the antidiagonal, so Simpson's rule is below its fourth order)
        f = gaussian_bump(1, a=1.0, center=[0.3])
        x = np.array([0.3 + dist])
        value = gamma2_symbol_value(f, alpha, 1, x)
        gap = abs(value - gamma2_symbol_full_grid(f, alpha, x))
        assert abs(value - gamma2_symbol_full_grid(f, alpha, x, refine=2.0)) <= gap / 4.0

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("a", [0.05, 1.0, 10.0])
    @pytest.mark.parametrize("s", [0.0, 0.5, 3.0, 10.0, 20.0, 50.0])
    def test_cross_integral_matches_quad(self, d, a, s):
        for alpha in (0.7, 1.5):
            ref = cross_integral_by_quad(a, alpha, d, s)
            assert dirichlet._cross_integral(a, alpha, d, s * s) == pytest.approx(ref, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("k", [0.5, 3.0, -2.0])
    def test_symbol_scales_as_amplitude_squared(self, d, k):
        law = isotropic_stable_law(1.5, d)
        f = gaussian_bump(d, a=1.0, center=[0.3, 0.1][:d])
        x = np.array([0.4, -0.2][:d])
        base = gamma2(law, f, x, "symbol")
        assert gamma2(law, f.scaled(k), x, "symbol") == pytest.approx(k**2 * base, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 2.5, math.nan])
    def test_symbol_rejects_alpha_outside_domain(self, d, alpha):
        f = gaussian_bump(d, a=1.0)
        with pytest.raises(DomainError):
            gamma2_symbol_value(f, alpha, d, np.zeros(d))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_symbol_accepts_alpha_two(self, d):
        """At alpha = 2, S = |xi|^2 + |zeta|^2 - |xi + zeta|^2 = -2 <xi, zeta>,
        so g2 = (1/4) S^2 + (1/2) S = <xi, zeta>^2 - <xi, zeta>.  Each factor
        i xi_j of a transform is d_j of its inverse, so <xi, zeta>^2 =
        sum_jk (i xi_j i xi_k)(i zeta_j i zeta_k) inverts to
        sum_jk (d_jk f)^2 and -<xi, zeta> = sum_j (i xi_j)(i zeta_j) to
        sum_j (d_j f)^2: the route returns ||Hess f||_HS^2 + |grad f|^2.
        Far out (a = 10 at |x - c| = 3 gives 8.6e-72) terms of size
        e^{-a |x - c|^2} cancel to that value, so the bound there is 1e-16
        of the value at the center.  The widths 1e-6 to 1e6 are read from
        the bump, not from its transform; the relative bounds are about 10x
        the errors measured there (1.05e-9 at a = 1e-6, 1.5e-11 at 1e-4)."""
        c = np.full(d, 0.3)
        cases = [(a, 1e-12, (0.3, 3.0)) for a in (0.05, 1.0, 10.0)]
        for a, rel in ((1e-6, 1e-8), (1e-4, 1e-10), (1e5, 1e-12), (1e6, 1e-12)):
            cases.append((a, rel, (0.3, 3.0, 0.5 / math.sqrt(a), 3.0 / math.sqrt(a))))
        for a, rel, dists in cases:
            peak = gaussian_hessian_energy(d, np.zeros(d), a)
            for dist in dists:
                x = c + dist * np.ones(d) / math.sqrt(d)
                value = gamma2_symbol_value(gaussian_bump(d, a=a, center=c), 2.0, d, x)
                ref = gaussian_hessian_energy(d, x - c, a)
                assert value == pytest.approx(ref, rel=rel, abs=1e-16 * peak), (a, dist)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_symbol_rejects_a_profile_that_is_not_gaussian(self, d):
        """A coordinate bump, a product and a bump stripped of ``gauss`` are
        not plain Gaussian bumps."""
        f = gaussian_bump(d, a=1.0)
        for g in (gaussian_bump(d, a=1.0, coord=0), f.product(f), replace(f, gauss=None)):
            with pytest.raises(DomainError):
                gamma2_symbol_value(g, 1.5, d, np.zeros(d))


class TestBakryEmery:
    def test_constant_gap_zero(self):
        law = isotropic_stable_law(1.5, 2)
        assert bakry_emery_check(law, [constant_fn(1.0, 2)], np.zeros((1, 2))) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_min_gap_nonnegative(self):
        law = isotropic_stable_law(1.5, 2)
        rng = np.random.default_rng(2)
        fs = [
            gaussian_bump(2, a=float(np.exp(rng.uniform(-1, 0.7))), center=rng.normal(0, 1, 2))
            for _ in range(6)
        ]
        g = np.linspace(-2, 2, 3)
        grid = np.stack(np.meshgrid(g, g), -1).reshape(-1, 2)
        scale = 1.0
        assert bakry_emery_check(law, fs, grid) >= -1e-8 * scale

    @pytest.mark.parametrize("d", [2, 3])
    def test_gap_equals_double_integral(self, d):
        # independent check: symbol-route Gamma_2 minus (alpha/2) Gamma
        # equals the squared-second-difference double integral
        from steinlab.dirichlet import _second_difference_double
        from steinlab.jumps import density_tilde, quad_sphere_for
        from steinlab.dirichlet import _gamma1_integral_at

        alpha = 1.5
        law = isotropic_stable_law(alpha, d)
        f = gaussian_bump(d, a=1.0, center=[0.2, 0.1, -0.1][:d])
        pts = np.array([[0.0, 0.0, 0.0], [0.5, -0.4, 0.2], [-1.0, 0.3, 0.1]])[:, :d]
        g2_symbol = np.array([gamma2(law, f, x, "symbol") for x in pts])
        g1 = _gamma1_integral_at(f, f, pts, quad_sphere_for(law, 48), density_tilde(law.levy.kf))
        gap = g2_symbol - 0.5 * alpha * g1
        double = _second_difference_double(law, f, pts)
        scale = float(np.max(np.abs(g2_symbol)))
        assert np.allclose(gap, double, atol=2e-3 * scale)


class TestPoincare:
    def test_zero_function(self):
        law = isotropic_stable_law(1.5, 2)
        est = poincare_residual(law, constant_fn(0.0, 2), 10_000, seed=3)
        assert float(est.value) == 0.0

    def test_bump_residual_nonnegative(self):
        law = isotropic_stable_law(1.5, 2)
        f = gaussian_bump(2, a=1.0, center=[0.3, -0.2])
        est = poincare_residual(law, f, 200_000, seed=4)
        assert float(est.value) >= -3.0 * float(est.std_error)

    def test_denser_sphere_specialization(self):
        # the same check with a denser discretization of the isotropic
        # density (the continuous-measure form of the energy integral)
        law = isotropic_stable_law(1.5, 2, n_atoms=512)
        f = gaussian_bump(2, a=0.8)
        est = poincare_residual(law, f, 100_000, seed=5, n_dirs=48)
        assert float(est.value) >= -3.0 * float(est.std_error)

    def test_regime_gate(self):
        law = isotropic_stable_law(0.7, 1)
        with pytest.raises(RegimeError):
            poincare_residual(law, gaussian_bump(1), 1000, seed=0)


class TestRateIntegrals:
    def test_limit_closed_form(self):
        for alpha, d in ((1.5, 2), (1.25, 2), (1.75, 2), (1.5, 1), (1.5, 4), (1.5, 8), (1.5, 16), (1.5, 32)):
            assert rate_numerator_limit(alpha, d) == pytest.approx(
                closed_rate_limit(alpha, d), rel=1e-9
            )

    def test_limits_cross_identity(self):
        # Var / (2/alpha energy) tends to one: the two limit integrals
        # differ by exactly alpha/2 * (2/alpha)^-1
        for alpha, d in ((1.5, 2), (1.25, 2), (1.5, 1)):
            nl = rate_numerator_limit(alpha, d)
            dl = rate_denominator_limit(alpha, d)
            assert nl / ((2.0 / alpha) * dl) == pytest.approx(1.0, rel=1e-9)

    def test_r64_within_two_percent_of_limit(self):
        alpha = 1.5
        for d in (1, 2, 3):
            num = rate_numerator(alpha, d, 64.0) / 64.0 ** (2 - alpha)
            assert abs(num - rate_numerator_limit(alpha, d)) <= 0.02 * rate_numerator_limit(alpha, d)
            den = rate_denominator(alpha, d, 64.0) / 64.0 ** (2 - alpha)
            assert abs(den - rate_denominator_limit(alpha, d)) <= 0.02 * rate_denominator_limit(alpha, d)

    def test_loglog_slope(self):
        # the divergence exponent is read off at the asymptotic end of the
        # window; the early-R local slopes still carry the truncation
        # transient (0.63-ish at R=4..8) even though the curve values
        # themselves are exact
        alpha = 1.5
        Rs = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
        for d in (1, 2, 3):
            for rate in (rate_numerator, rate_denominator):
                vals = np.array([rate(alpha, d, R) for R in Rs])
                end_slope = (np.log(vals[-1]) - np.log(vals[-2])) / (np.log(Rs[-1]) - np.log(Rs[-2]))
                assert abs(end_slope - (2 - alpha)) <= 0.05 * (2 - alpha)

    def test_numerator_mc_oracle(self):
        from steinlab.sampling import sample_isotropic_stable

        g = truncated_coordinate(2, 4.0, 0)
        batch = sample_isotropic_stable(1.5, 2, 500_000, seed=6)
        vals = g.evaluate(batch.points)
        mc = float(vals.var())
        se = mc * math.sqrt(2.0 / batch.n)
        assert abs(mc - rate_numerator(1.5, 2, 4.0, 0)) <= 4.0 * se

    def test_limit_coordinate_independent(self):
        assert rate_numerator_limit(1.5, 2, 0) == rate_numerator_limit(1.5, 2, 1)

    def test_d1_positive(self):
        val = rate_denominator(1.5, 1, 8.0)
        assert np.isfinite(val) and val > 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            rate_numerator(0.7, 2, 8.0)

    @pytest.mark.parametrize("R", [0.0, -3.0, math.inf, math.nan])
    def test_radius_must_be_positive_and_finite(self, R):
        for call in (
            lambda: rate_numerator(1.5, 1, R),
            lambda: rate_denominator(1.5, 1, R),
            lambda: u_ratio_curve(1.5, 1, 0, [R]),
        ):
            with pytest.raises(DomainError, match="radius"):
                call()

    def test_coordinate_index_domain(self):
        for rate in (rate_numerator, rate_denominator):
            for j in (-1, 1):
                with pytest.raises(DomainError):
                    rate(1.5, 1, 8.0, j)
        for limit in (rate_numerator_limit, rate_denominator_limit):
            with pytest.raises(DomainError):
                limit(1.5, 2, 2)


class TestRateDenominator:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_sphere_averages_match_angle_quadrature(self, d):
        kappa = np.array([0.0, 1e-8, 0.5, 5.0, 50.0])
        E0, E1 = _sphere_averages(d, kappa)
        if d == 1:
            # S^0 is the two points theta = 0 and pi
            th, w_th = np.array([0.0, math.pi]), np.ones(2)
        else:
            th, w_th = _simpson_rule(0.0, math.pi, 16001)
            w_th *= surface_area(d - 1) * np.sin(th) ** (d - 2)
        phase = np.exp(kappa[:, None] * (np.cos(th) - 1.0))
        assert E0 == pytest.approx(phase @ w_th, rel=1e-12)
        # E_1 vanishes at kappa = 0, so it is compared on E_0's scale
        assert np.all(np.abs(E1 - (phase * np.cos(th)) @ w_th) <= 1e-12 * E0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_kernel_split(self, d):
        # the j-average of the five-term kernel is K_w plus K_xi plus its
        # zeta mirror, pointwise
        rng = np.random.default_rng(0)
        xi, zeta = rng.normal(size=(2, 64, d))
        w = xi + zeta
        nw, nx, nz = (np.linalg.norm(u, axis=-1) for u in (w, xi, zeta))
        K_w, K_xi = split_kernel(1.5, d, nw, nx, np.sum(xi * w, axis=-1) / (nx * nw))
        _, K_zeta = split_kernel(1.5, d, nw, nz, np.sum(zeta * w, axis=-1) / (nz * nw))
        average = np.mean([energy_kernel(xi, zeta, j, 1.5) for j in range(d)], axis=0)
        assert average == pytest.approx(K_w + K_xi + K_zeta, rel=1e-10)

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_angle_quadrature(self, d):
        assert rate_denominator(1.5, d, 16.0, d - 1) == pytest.approx(denominator_by_angles(1.5, d, 16.0), rel=1e-10)

    def test_d2_coordinate_independent(self):
        # rotation invariance: j is only validated
        assert rate_denominator(1.5, 2, 16.0, 0) == pytest.approx(rate_denominator(1.5, 2, 16.0, 1), rel=1e-12)

    @pytest.mark.parametrize("alpha", [1.5, 1.9])
    @pytest.mark.parametrize("R", [4.0, 16.0])
    def test_d1_fourier_oracle(self, alpha, R):
        # the oracle's grid gives 0.748486, 1.773102 (alpha 1.5) and
        # 0.745214, 1.101942 (alpha 1.9), which the pair-coordinate form
        # meets within 7e-8; a kernel without P d_zeta S reads +0.85% to +11.5%
        oracle = fourier_energy_d1(alpha, R)
        assert (2.0 / alpha) * rate_denominator(alpha, 1, R) == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("d, grad_energy", [(1, 0.742375), (2, 0.672), (3, 0.608210)])
    def test_gaussian_endpoint(self, d, grad_energy):
        # at alpha = 2 the law is N(0, I): E g^2 = (1 + 4/R^2)^(-d/2-1) and
        # the energy is E |grad g|^2
        alpha, R = 1.999, 4.0
        assert gaussian_gradient_energy(d, R) == pytest.approx(grad_energy, rel=1e-6)
        assert rate_numerator(alpha, d, R) == pytest.approx((1.0 + 4.0 / R**2) ** (-d / 2 - 1), rel=1e-3)
        assert (2.0 / alpha) * rate_denominator(alpha, d, R) == pytest.approx(grad_energy, rel=1e-3)


class TestRatioCurve:
    def test_ratio_near_one_at_r64(self):
        reports = u_ratio_curve(1.5, 2, 0, [64.0])
        assert 0.95 <= reports[0].ratio <= 1.05

    def test_ratio_increases_with_r(self):
        reports = u_ratio_curve(1.5, 2, 0, [4.0, 8.0, 16.0, 32.0, 64.0])
        ratios = [r.ratio for r in reports]
        errs = [r.err for r in reports]
        for a, b, e in zip(ratios, ratios[1:], errs):
            assert b >= a - e

    def test_ratio_at_most_one(self):
        # the supremum of the variance/energy ratio is one
        for d in (1, 2, 3):
            for r in u_ratio_curve(1.5, d, 0, [4.0, 8.0, 16.0, 32.0, 64.0]):
                assert r.ratio <= 1.0 + r.err

    def test_weyl_gap_shrinks(self):
        reports = u_ratio_curve(1.5, 2, 0, [8.0, 16.0, 32.0, 64.0])
        gaps = [r.denominator - r.numerator for r in reports]
        for a, b in zip(gaps, gaps[1:]):
            assert b <= a + reports[0].err
        assert gaps[-1] < gaps[0]

    def test_curve_refuses_a_bad_radius_before_any_integral(self, monkeypatch):
        calls, numerator = [], dirichlet._numerator

        def counted(*args, **kwargs):
            calls.append(args)
            return numerator(*args, **kwargs)

        monkeypatch.setattr(dirichlet, "_numerator", counted)
        with pytest.raises(DomainError, match="radius"):
            u_ratio_curve(1.5, 1, 0, [4.0, 0.0])
        assert calls == []

    def test_truncated_coordinate_structure(self):
        g = truncated_coordinate(2, 4.0, 1)
        assert float(g.evaluate(np.zeros(2))) == 0.0
        # odd symmetry: centered under any symmetric law
        x = np.array([0.3, 0.7])
        assert float(g.evaluate(x)) == pytest.approx(-float(g.evaluate(-x)))
        with pytest.raises(DomainError):
            truncated_coordinate(2, 0.5, 0)

    def test_report_refuses_non_finite_sides(self):
        with pytest.raises(EvaluationError):
            RatioReport(R=64.0, numerator=0.9, denominator=math.nan, ratio=math.nan, err=0.0)
        with pytest.raises(EvaluationError):
            RatioReport(R=64.0, numerator=math.inf, denominator=1.0, ratio=math.inf, err=0.0)
        with pytest.raises(DomainError):
            RatioReport(R=64.0, numerator=0.9, denominator=-1.0, ratio=-0.9, err=0.0)

    def test_curve_raises_where_the_denominator_overflows(self):
        # d = 48 overflows the denominator's sphere averages to nan
        with np.errstate(all="ignore"), pytest.raises(EvaluationError):
            u_ratio_curve(1.5, 48, 0, [64.0])

    def test_csv_export(self, tmp_path):
        reports = u_ratio_curve(1.5, 2, 0, [8.0])
        path = tmp_path / "ratio.csv"
        export_ratio_csv(reports, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "R,numerator,denominator,ratio,err"
        assert len(lines) == 2
