import dataclasses
import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.special import j0, jv

from steinlab import DomainError, RegimeError, UnsupportedFamilyError, stein
from steinlab.dirichlet import bakry_emery_check, gamma1, gamma2, gamma2_symbol_value
from steinlab.levy import (
    IDLaw,
    LevyPolar,
    isotropic_stable_law,
    stable_k,
    tempered_k,
)
from steinlab.numerics import TestFunction, _simpson_rule, constant_fn, gaussian_bump, sphere_from_atoms
from steinlab.sampling import mc_expectation, sample_isotropic_stable
from steinlab.stein import (
    SteinSolution,
    _mean_h,
    _pt_profile,
    generator_apply,
    residual_cauchy,
    residual_id,
    residual_regime,
    residual_sd,
    residual_sd_finite_mean_form,
    residual_stable_sub1,
    semigroup_apply,
    stein_solve,
    verify_stein_solution,
)

N_MC = 150_000


def truncated_linear(a_vec, R=25.0):
    """<a, x> exp(-(|x|/R)^2): bounded Lipschitz, near-linear on the bulk."""
    a_vec = np.asarray(a_vec, dtype=float)
    d = a_vec.size

    def ev(p):
        p2 = np.atleast_2d(np.asarray(p, dtype=float))
        out = (p2 @ a_vec) * np.exp(-np.einsum("nd,nd->n", p2, p2) / R**2)
        return out[0] if np.asarray(p).ndim == 1 else out

    def gr(p):
        p2 = np.atleast_2d(np.asarray(p, dtype=float))
        e = np.exp(-np.einsum("nd,nd->n", p2, p2) / R**2)
        g = a_vec[None, :] * e[:, None] - (2.0 / R**2) * p2 * ((p2 @ a_vec) * e)[:, None]
        return g[0] if np.asarray(p).ndim == 1 else g

    return TestFunction(name="trunc-linear", evaluate=ev, gradient=gr, support_radius=9 * R, dim=d)


class TestResidualID:
    def test_gaussian_bump_within_3se(self):
        law = isotropic_stable_law(1.5, 2)
        f = gaussian_bump(2, a=1.0, center=[0.3, -0.2])
        res = residual_id(law, f, N_MC, seed=1)
        assert res.regime == "id_first_moment"
        assert res.passes(3.0), (res.estimate.value, res.estimate.std_error)

    def test_constant_is_exact_zero_with_sample_means(self):
        law = isotropic_stable_law(1.5, 2)
        res = residual_id(law, constant_fn(2.0, 2), 20_000, seed=2, use_known_mean=False)
        assert np.all(res.estimate.value == 0.0)

    def test_truncated_linear_within_3se(self):
        law = isotropic_stable_law(1.5, 2)
        res = residual_id(law, truncated_linear([0.8, -0.5]), N_MC, seed=3)
        assert res.passes(3.5)

    def test_regime_gate(self):
        law = isotropic_stable_law(0.7, 1)
        with pytest.raises(UnsupportedFamilyError):
            residual_id(law, gaussian_bump(1), 1000, seed=0)


class TestResidualSub1:
    def make_law(self):
        sphere = sphere_from_atoms([[1.0]], [1.0])
        return IDLaw(np.zeros(1), LevyPolar(sphere, stable_k(0.5, 1.0)), "drift_b0")

    def test_one_sided_bump_within_3se(self):
        res = residual_stable_sub1(self.make_law(), gaussian_bump(1, a=1.0, center=[1.0]), N_MC, seed=4)
        assert res.regime == "stable_sub1"
        assert res.passes(3.0), (res.estimate.value, res.estimate.std_error)

    def test_constant_exact_zero(self):
        res = residual_stable_sub1(self.make_law(), constant_fn(3.0, 1), 10_000, seed=5)
        assert float(res.estimate.value) == 0.0
        assert float(res.estimate.std_error) == 0.0

    def test_symmetric_odd_terms_vanish(self):
        # symmetric sphere, odd f: each identity term is 0 within noise
        law = isotropic_stable_law(0.5, 1)
        f = gaussian_bump(1, a=1.0, coord=0)  # odd
        res = residual_stable_sub1(law, f, N_MC, seed=6)
        assert res.passes(3.0)

    def test_alpha_gate(self):
        law = isotropic_stable_law(1.5, 1)
        with pytest.raises(RegimeError):
            residual_stable_sub1(law, gaussian_bump(1), 1000, seed=0)


class TestResidualCauchy:
    def test_symmetric_within_3se(self):
        law = isotropic_stable_law(1.0, 1)
        res = residual_cauchy(law, gaussian_bump(1, a=1.0, center=[0.4]), N_MC, seed=7)
        assert res.regime == "cauchy"
        assert res.passes(3.0), (res.estimate.value, res.estimate.std_error)

    def test_constant_exact_zero(self):
        law = isotropic_stable_law(1.0, 1)
        res = residual_cauchy(law, constant_fn(1.0, 1), 10_000, seed=8)
        assert float(res.estimate.value) == 0.0

    def test_asymmetric_needs_correction(self):
        sphere = sphere_from_atoms([[1.0]], [1.0])
        law = IDLaw(np.zeros(1), LevyPolar(sphere, stable_k(1.0, 1.0 / (2 * math.pi))), "triplet_b")
        f = gaussian_bump(1, a=1.0, center=[0.3])
        with_corr = residual_cauchy(law, f, N_MC, seed=9)
        without = residual_cauchy(law, f, N_MC, seed=9, include_correction=False)
        assert with_corr.passes(3.0), (with_corr.estimate.value, with_corr.estimate.std_error)
        assert not without.passes(3.0)
        # the two runs share the batch, so their gap is exactly the
        # spherical-mean correction term E k(1) <grad f(X), x_atom>
        gap = float(without.estimate.value - with_corr.estimate.value)
        from steinlab.sampling import mc_expectation, sample_stable_law

        batch = sample_stable_law(law, N_MC, seed=9)
        corr_vec = with_corr.diagnostics["k1_correction"]
        corr = mc_expectation(lambda p: f.gradient(p) @ corr_vec, batch)
        assert gap == pytest.approx(-float(corr.value), abs=1e-12)


class TestResidualSD:
    def test_stable_as_sd_general_within_3se(self):
        law = isotropic_stable_law(1.5, 1)
        res = residual_sd(law, "general", gaussian_bump(1, a=1.0, center=[0.5]), N_MC, seed=10)
        assert res.regime == "sd_general"
        assert res.passes(3.0), (res.estimate.value, res.estimate.std_error)

    def test_small_jump_variant_matches_sub1(self):
        law = isotropic_stable_law(0.5, 1)
        f = gaussian_bump(1, a=1.0, center=[0.4])
        r1 = residual_sd(law, "small_jump", f, 50_000, seed=11)
        r2 = residual_stable_sub1(law, f, 50_000, seed=11)
        assert float(r1.estimate.value) == pytest.approx(float(r2.estimate.value), rel=1e-10)

    def test_variant_mismatch_is_regime_error(self):
        # profile whose small-r limit is k(1)-like cannot run as small_jump
        law = isotropic_stable_law(1.0, 1)
        with pytest.raises(RegimeError):
            residual_sd(law, "small_jump", gaussian_bump(1), 1000, seed=0)

    def test_nonsampleable_family_raises(self):
        sphere = sphere_from_atoms([[1.0], [-1.0]], [1.0, 1.0])
        law = IDLaw(np.zeros(1), LevyPolar(sphere, tempered_k(0.5, 1.0, 1.0)), "triplet_b")
        with pytest.raises(UnsupportedFamilyError):
            residual_sd(law, "small_jump", gaussian_bump(1), 1000, seed=0)

    def test_finite_mean_rewriting_within_3se(self):
        law = isotropic_stable_law(1.5, 1)
        res = residual_sd_finite_mean_form(law, gaussian_bump(1, a=1.0, center=[0.5]), N_MC, seed=12)
        assert res.passes(3.0), (res.estimate.value, res.estimate.std_error)

    def test_regime_dispatch_total(self):
        assert residual_regime(isotropic_stable_law(0.5, 1)) == "sd_small_jump"
        assert residual_regime(isotropic_stable_law(1.0, 1)) == "cauchy"
        assert residual_regime(isotropic_stable_law(1.5, 1)) == "sd_general"
        sphere = sphere_from_atoms([[1.0]], [1.0])
        gamma_law = IDLaw(
            np.zeros(1),
            LevyPolar(sphere, __import__("steinlab.levy", fromlist=["gamma_k"]).gamma_k(1.0, 2.0)),
            "triplet_b",
        )
        assert residual_regime(gamma_law) == "sd_small_jump"

    def test_report_json_schema(self):
        import json

        law = isotropic_stable_law(1.5, 1)
        res = residual_sd(law, "general", gaussian_bump(1, a=1.0), 20_000, seed=13)
        doc = json.loads(res.to_json())
        assert set(doc) == {"regime", "estimate", "std_error", "n", "per_term"}


class TestGradientRequired:
    """Every gradient residual refuses a test function without a gradient."""

    f = dataclasses.replace(gaussian_bump(1), gradient=None)

    @pytest.mark.parametrize(
        "call",
        [
            lambda f: residual_stable_sub1(isotropic_stable_law(0.5, 1), f, 1000, seed=0),
            lambda f: residual_cauchy(isotropic_stable_law(1.0, 1), f, 1000, seed=0),
            lambda f: residual_sd(isotropic_stable_law(0.5, 1), "small_jump", f, 1000, seed=0),
            lambda f: residual_sd(isotropic_stable_law(1.5, 1), "general", f, 1000, seed=0),
            lambda f: residual_sd_finite_mean_form(isotropic_stable_law(1.5, 1), f, 1000, seed=0),
        ],
        ids=["stable_sub1", "cauchy", "sd_small_jump", "sd_general", "sd_finite_mean_form"],
    )
    def test_missing_gradient_is_a_domain_error(self, call):
        with pytest.raises(DomainError, match="gradient"):
            call(self.f)


class TestGenerator:
    def test_constant_vanishes(self):
        law = isotropic_stable_law(1.5, 1)
        assert generator_apply(law, constant_fn(4.0, 1), np.array([0.3])) == pytest.approx(0.0, abs=1e-12)

    def test_coordinate_eigenfunction(self):
        # truncated coordinate: A f(x) ~ -x near the origin
        law = isotropic_stable_law(1.5, 1)
        f = truncated_linear([1.0], R=40.0)
        for xv in (0.05, -0.1):
            val = generator_apply(law, f, np.array([xv]))
            assert val == pytest.approx(-xv, rel=3e-2)

    def test_frequency_domain_oracle(self):
        # nonlocal part of A f against the symbol acting on the transform
        from steinlab.levy import _profile, tilde_nu

        law = isotropic_stable_law(1.5, 1)
        f = gaussian_bump(1, a=1.0, center=[0.2])
        x = np.array([0.6])
        val = generator_apply(law, f, x)
        drift = float((-x) @ f.gradient(x))
        nonlocal_part = val - drift
        # inverse transform of eta_ball(xi) F(f)(xi)
        xi = np.linspace(-14, 14, 4001)
        Ff = f.fourier(xi[:, None])
        tn = tilde_nu(law.levy.kf, law.levy.sphere)
        s_pos = _profile(xi, tn.kf, "tilde", "ball")
        s_neg = _profile(-xi, tn.kf, "tilde", "ball")
        eta = s_pos + s_neg  # two atoms, unit weights
        oracle = float(np.real(np.trapezoid(Ff * eta * np.exp(1j * xi * x[0]), xi)) / (2 * math.pi))
        assert nonlocal_part == pytest.approx(oracle, rel=1e-3)


class TestSemigroup:
    def test_identity_at_zero(self):
        law = isotropic_stable_law(1.5, 2)
        h = gaussian_bump(2, a=1.0)
        x = np.array([0.3, -0.7])
        assert semigroup_apply(law, h, 0.0, x) == pytest.approx(float(h.evaluate(x)))

    def test_ergodic_limit(self):
        law = isotropic_stable_law(1.5, 1)
        h = gaussian_bump(1, a=1.0, center=[0.5])
        eh = _mean_h(h, 1.5, 1)
        for x in (np.array([0.0]), np.array([2.0])):
            assert semigroup_apply(law, h, 10.0, x) == pytest.approx(eh, abs=1e-3)

    def test_modes_agree(self):
        law = isotropic_stable_law(1.5, 2)
        h = gaussian_bump(2, a=1.0, center=[0.4, 0.0])
        x = np.array([0.5, -0.3])
        vf = semigroup_apply(law, h, 0.7, x, mode="fourier")
        vm, se = semigroup_apply(law, h, 0.7, x, mode="mc", n=300_000, seed=14)
        assert abs(vf - vm) <= max(3.0 * se, 1e-3)

    def test_invariance(self):
        # E_X P_t h(X) = E_X h(X) within MC noise
        law = isotropic_stable_law(1.5, 1)
        h = gaussian_bump(1, a=1.0)
        t = 0.9
        batch = sample_isotropic_stable(1.5, 1, 300_000, seed=15)
        s = np.abs(math.exp(-t) * batch.points[:, 0])
        grid = np.linspace(0.0, float(s.max()) + 1.0, 4000)
        phi = _pt_profile(h, 1.5, 1, t, grid)
        lhs = np.interp(s, grid, phi).mean()
        est = mc_expectation(lambda p: h.evaluate(p), batch)
        assert abs(lhs - float(est.value)) <= 4.0 * float(est.std_error)

    def test_coordinate_eigen_scaling(self):
        # centered finite-mean law: coordinate-like h evolves as e^-t x
        law = isotropic_stable_law(1.5, 1)
        h = truncated_linear([1.0], R=30.0)
        t = 0.8
        for xv in (0.05, -0.08):
            val, se = semigroup_apply(law, h, t, np.array([xv]), mode="mc", n=400_000, seed=21)
            assert val == pytest.approx(math.exp(-t) * xv, abs=max(4.0 * se, 3e-3))

    def test_semigroup_property(self):
        # P_s(P_t h)(x) = P_{s+t} h(x): evaluate the outer expectation by MC
        law = isotropic_stable_law(1.5, 1)
        h = gaussian_bump(1, a=1.0)
        s, t = 0.4, 0.8
        x = np.array([0.7])
        from steinlab.sampling import sample_residual_law

        inner = sample_residual_law(1.5, 1, s, None, 200_000, seed=16)
        pts = math.exp(-s) * x[0] + inner.points[:, 0]
        sg = np.abs(math.exp(-t) * pts)  # P_t h(y) = Phi_t(|e^-t y - c|)
        grid = np.linspace(0.0, float(sg.max()) + 1.0, 4000)
        phi = _pt_profile(h, 1.5, 1, t, grid)
        outer = np.interp(sg, grid, phi).mean()
        direct = semigroup_apply(law, h, s + t, x)
        assert outer == pytest.approx(direct, abs=2.5e-3)

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    @pytest.mark.parametrize("d", [1, 2])
    def test_mean_against_exact_draws(self, alpha, d):
        """E h, read as the t = inf profile, against the Monte Carlo mean of
        h over exact draws; P_inf h is E h bit for bit at any x."""
        law = isotropic_stable_law(alpha, d)
        h = gaussian_bump(d, a=0.8, center=np.linspace(0.6, -0.4, d))
        eh = _mean_h(h, alpha, d)
        est = mc_expectation(lambda p: h.evaluate(p), sample_isotropic_stable(alpha, d, 2**18, seed=17))
        assert abs(eh - float(est.value)) <= 4.0 * float(est.std_error)
        for x in (np.zeros(d), np.linspace(-1.3, 2.1, d)):
            assert semigroup_apply(law, h, math.inf, x) == eh

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_profile_at_time_zero_is_h(self, d):
        # P_0 h = h: covers every branch of the spherical kernel A_d
        h = gaussian_bump(d, a=1.0)
        grid = np.linspace(0.0, 6.0, 25)
        ray = grid[:, None] * np.eye(d)[0]
        assert np.max(np.abs(_pt_profile(h, 1.5, d, 0.0, grid) - h.evaluate(ray))) <= 1e-7


class TestSteinSolver:
    def normalized_bump(self, d, a=1.0, center=None):
        tf = gaussian_bump(d, a=a, center=center)
        return tf.scaled(1.0 / max(tf.m_bounds))

    def test_constant_h_gives_zero_solution(self):
        law = isotropic_stable_law(1.5, 1)
        sol = stein_solve(law, constant_fn(0.7, 1))
        assert sol.evaluate(np.array([0.3])) == 0.0
        assert np.all(sol.gradient(np.array([[0.3], [1.0]])) == 0.0)

    def test_verify_constant_h_is_exact(self):
        law = isotropic_stable_law(1.5, 1)
        sol = stein_solve(law, constant_fn(0.7, 1))
        assert verify_stein_solution(law, sol, np.linspace(-2.0, 2.0, 5)[:, None]) <= 1e-12

    def test_unnormalized_h_rejected(self):
        law = isotropic_stable_law(1.5, 1)
        with pytest.raises(DomainError):
            stein_solve(law, gaussian_bump(1, a=4.0))

    def test_negatively_scaled_h_rejected(self):
        """sup|h| = 100 for the bump scaled by -100: its bounds scale by |k|."""
        with pytest.raises(DomainError):
            stein_solve(isotropic_stable_law(1.5, 1), gaussian_bump(1).scaled(-100.0))

    @pytest.mark.parametrize("alpha,d", [(1.5, 1), (0.5, 1), (1.5, 2), (0.5, 2)])
    def test_solution_solves_equation(self, alpha, d):
        law = isotropic_stable_law(alpha, d)
        h = self.normalized_bump(d)
        sol = stein_solve(law, h, budget=1)
        grid = np.linspace(-2.0, 2.0, 11)
        pts = np.stack([grid] + [np.zeros(11)] * (d - 1), axis=1)
        osc = float(np.max(h.evaluate(pts))) - 0.0
        res = verify_stein_solution(law, sol, pts)
        assert res <= 5e-2 * max(osc, 1e-9), res

    def test_gradient_bound(self):
        law = isotropic_stable_law(1.5, 1)
        h = self.normalized_bump(1)
        sol = stein_solve(law, h)
        grid = np.linspace(-4.0, 4.0, 20)[:, None]
        assert sol.sup_gradient_norm(grid) <= 1.0 + 1e-3

    def test_second_difference_bound(self):
        law = isotropic_stable_law(1.5, 1)
        h = self.normalized_bump(1)
        sol = stein_solve(law, h)
        grid = np.linspace(-2.0, 2.0, 11)[:, None]
        assert sol.second_difference_bound(grid) <= 0.5 + 1e-3

    def test_residual_shrinks_with_budget(self):
        law = isotropic_stable_law(1.5, 1)
        h = self.normalized_bump(1, a=1.0)
        pts = np.linspace(-2.0, 2.0, 11)[:, None]
        sol1 = stein_solve(law, h, budget=1)
        r1 = verify_stein_solution(law, sol1, pts, budget=1)
        sol2 = stein_solve(law, h, budget=2)
        r2 = verify_stein_solution(law, sol2, pts, budget=2)
        assert r2 <= 0.5 * r1, (r1, r2)

    def test_gradient_matches_fd(self):
        law = isotropic_stable_law(1.5, 2)
        h = self.normalized_bump(2, center=[0.3, 0.1])
        sol = stein_solve(law, h)
        x = np.array([0.4, -0.6])
        step = 1e-4
        fd = np.array(
            [
                (sol.evaluate(x + step * e) - sol.evaluate(x - step * e)) / (2 * step)
                for e in np.eye(2)
            ]
        )
        assert np.allclose(sol.gradient(x), fd, rtol=5e-4, atol=5e-6)


def displacement_radii(sol, pts):
    """The (n_t, m, d) displacement array and its norm, as SteinSolution
    built them before it went one coordinate at a time: the reference for
    the bits of ``evaluate`` and ``gradient_consistent``."""
    c = sol.h.fourier_center if sol.h.fourier_center is not None else np.zeros(sol.law.dim)
    y = np.exp(-sol.t_nodes)[:, None, None] * pts[None, :, :] - c[None, None, :]
    s = np.linalg.norm(y, axis=2)
    sol._ensure_tables(float(np.max(s)))
    return y, s


def evaluate_displacement(sol, x):
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    integrand = sol._table(displacement_radii(sol, pts)[1]) - sol.mean_h
    body = sol.t_weights @ integrand
    h0 = np.asarray(sol.h.evaluate(pts), dtype=float) - sol.mean_h
    head = 0.5 * sol.t_head * (h0 + integrand[0])
    out = -(body + head)
    return float(out[0]) if np.ndim(x) == 1 else out


def gradient_displacement(sol, x):
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    y, s = displacement_radii(sol, pts)
    lam = sol._table(s, derivative=True) / np.where(s > 1e-12, s, 1.0)
    damp = np.exp(-sol.t_nodes)
    body = np.zeros(pts.shape)
    for i in range(sol.t_nodes.size):
        body += sol.t_weights[i] * damp[i] * lam[i][:, None] * y[i]
    g0 = np.asarray(sol.h.gradient(pts), dtype=float)
    head = 0.5 * sol.t_head * (g0 + damp[0] * lam[0][:, None] * y[0])
    out = -(body + head)
    return out[0] if np.ndim(x) == 1 else out


def off_centre_solution(d):
    tf = gaussian_bump(d, a=0.8, center=np.linspace(0.4, -0.3, d))
    return stein_solve(isotropic_stable_law(1.5, d), tf.scaled(1.0 / max(tf.m_bounds)))


def spread_points(d, m, seed):
    """Points near the bump and far out: radii from 1e-3 to about 300."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(m, d)) * np.exp(rng.uniform(math.log(1e-3), math.log(150.0), size=(m, 1)))


class TestDistanceRows:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_distances_equal_the_norm_of_the_displacement_array(self, d):
        sol = off_centre_solution(d)
        x = spread_points(d, 300, seed=20 + d)
        s = sol._radii(np.square(yk, out=yk) for yk in sol._rows(x))
        c = sol.h.fourier_center
        assert np.array_equal(s, np.linalg.norm(np.exp(-sol.t_nodes)[:, None, None] * x[None] - c, axis=2))

    @pytest.mark.parametrize("d", [2, 3])
    def test_evaluate_and_gradient_keep_the_bits_of_the_displacement_path(self, d):
        sol = off_centre_solution(d)
        x = spread_points(d, 60, seed=30 + d)
        # one table for both paths: growing it refits every spline's last digits
        sol._ensure_tables(1.25 * float(np.max(np.linalg.norm(x, axis=1))) + 1.0)
        assert np.array_equal(sol.evaluate(x), evaluate_displacement(sol, x))
        assert np.array_equal(sol.gradient_consistent(x), gradient_displacement(sol, x))
        assert sol.evaluate(x[0]) == evaluate_displacement(sol, x[0])
        assert np.array_equal(sol.gradient_consistent(x[0]), gradient_displacement(sol, x[0]))


@pytest.mark.xfail(
    strict=True,
    reason="the rho rule's alternating Simpson weights put an image of the profile near s = pi / step "
    "~ 124 budget; a finer rho step for far reads would mend it and move every profile's bits",
)
def test_semigroup_far_from_the_bump_reads_the_profile_not_its_image():
    # budget 1 reads -0.158 here; budget 2, whose image sits near s = 247, reads 8.6e-10
    tf = gaussian_bump(1, a=1.0)
    h = tf.scaled(1.0 / max(tf.m_bounds))
    value = semigroup_apply(isotropic_stable_law(1.5, 1), h, 1e-3, [124.0])
    assert abs(value) <= 1e-6, value


class TestSteinTable:
    def test_lookup_matches_per_row_splines(self, monkeypatch):
        # random profiles, through the solution's own table build and lookup
        rng = np.random.default_rng(5)
        made = {}

        def random_rows(h, alpha, d, t_nodes, s_grid, budget):
            made["phi"] = rng.normal(size=(t_nodes.size, s_grid.size))
            return made["phi"]

        monkeypatch.setattr("steinlab.stein._pt_tables", random_rows)
        tf = gaussian_bump(1, a=1.0)
        sol = stein_solve(isotropic_stable_law(1.5, 1), tf.scaled(1.0 / max(tf.m_bounds)))
        sol._ensure_tables(10.0)
        grid, n_t = sol._s_grid, sol.t_nodes.size
        ds, n0 = sol._zones()
        s0 = grid[n0]
        # both zones are present: j ds up to S0, then a log step of 0.01
        assert np.array_equal(grid[: n0 + 1], ds * np.arange(n0 + 1)) and grid.size > n0 + 100
        assert np.allclose(np.diff(np.log(grid[n0:])), 0.01, rtol=1e-9, atol=0.0)
        # floor(s / ds) lands one interval off at some knots (3 ds) and just
        # below others (65 ds); the first 400 knots hold both kinds.  Past S0
        # the interval is guessed from log(s / S0): every tail knot is read
        knots = np.concatenate([grid[1:400], grid[n0 - 2 :]])
        fixed = np.concatenate([[0.0, s0], knots, np.nextafter(knots, 0.0), np.nextafter(knots, np.inf)])
        between = rng.uniform(0.0, grid[-1], size=(n_t, 40))
        past = rng.uniform(s0, grid[-1], size=(n_t, 40))
        s = np.concatenate([np.broadcast_to(fixed, (n_t, fixed.size)), between, past], axis=1)
        value, slope = sol._table(s), sol._table(s, derivative=True)
        for i, row in enumerate(made["phi"]):
            spline = CubicSpline(grid, row, bc_type=((1, 0.0), "not-a-knot"))
            assert np.array_equal(sol._coef[:, :, i], spline.c)
            assert np.array_equal(value[i], spline(s[i]))
            assert np.array_equal(slope[i], spline.derivative()(s[i]))

    @pytest.mark.parametrize("alpha,d", [(0.5, 1), (1.5, 2)])
    def test_tail_zone_matches_direct_profiles(self, alpha, d):
        """Off-knot reads past S0, at midpoints between tail knots and at
        random points, against the profiles computed there directly.
        Budget 2 keeps the whole table (s <= 187.5) clear of the rho rule's
        aliases, which sit near s = 124 budget."""
        tf = gaussian_bump(d, a=1.0)
        h = tf.scaled(1.0 / max(tf.m_bounds))
        sol = stein_solve(isotropic_stable_law(alpha, d), h, budget=2)
        sol._ensure_tables(150.0)
        grid, n0 = sol._s_grid, sol._zones()[1]
        tail = grid[n0:]
        mids = np.sqrt(tail[:-1] * tail[1:])[::8]
        rng = np.random.default_rng(11)
        s = np.concatenate([mids, rng.uniform(grid[n0], grid[-1], size=24)])
        direct = stein._pt_tables(h, alpha, d, sol.t_nodes, s, 2)
        read = sol._table(np.broadcast_to(s, (sol.t_nodes.size, s.size)))
        # the profiles' maxima, at s = 0 for a centred bump
        scale = np.max(np.abs(sol._coef[3]), axis=0)
        assert np.all(np.abs(read - direct) <= 1e-9 * scale[:, None])

    def test_table_memory_stays_small(self):
        """The c5 case with the farthest reach (alpha 0.5, budget 2) keeps
        its coefficients within 40 MB; on uniform knots it took 267 MB."""
        law = isotropic_stable_law(0.5, 1)
        tf = gaussian_bump(1, a=1.0)
        sol = stein_solve(law, tf.scaled(1.0 / max(tf.m_bounds)), budget=2)
        pts = np.linspace(-2.0, 2.0, 11)[:, None]
        verify_stein_solution(law, sol, pts, budget=2)
        assert sol._coef.nbytes <= 40e6, sol._coef.nbytes

    def test_gradient_is_gradient_consistent(self):
        assert SteinSolution.gradient is SteinSolution.gradient_consistent

    def test_values_do_not_depend_on_earlier_evaluations(self):
        """A far point extends the table; the knots are j ds near the bump
        and S0 e^{k du} past S0, each fixed by its index, so the extension
        only appends tail knots and nearer values keep their digits."""
        tf = gaussian_bump(1, a=1.0)
        sol = stein_solve(isotropic_stable_law(1.5, 1), tf.scaled(1.0 / max(tf.m_bounds)), budget=1)
        pts = np.array([[0.3], [1.7]])
        before = sol.evaluate(pts)
        knots = sol._s_grid.size
        sol.evaluate(np.array([[100.0]]))
        assert sol._s_grid.size > knots
        after = sol.evaluate(pts)
        assert np.all(np.abs(after - before) <= 1e-15 * np.abs(before)), (before, after)


class TestTimeRule:
    @pytest.mark.parametrize("hint", [1.0, 0.375, 0.225])
    def test_rule_integrates_exponentials(self, hint):
        """Node 0 is the head node with weight 0; the rest integrate e^{-lam t}
        over [t0, t_max] to 1e-10 relative with at most 90 nodes."""
        t, w, t0 = stein._time_rule(hint, 1)
        assert t.size <= 90
        assert np.all(np.diff(t) > 0.0)
        assert t[0] == t0 and w[0] == 0.0
        assert np.all(w[1:] > 0.0)
        t_max = math.log(1e10) / hint
        for lam in (0.1, 1.0, 10.0):
            exact = (math.exp(-lam * t0) - math.exp(-lam * t_max)) / lam
            assert abs(w @ np.exp(-lam * t) - exact) <= 1e-10 * exact, lam

    def test_budget_multiplies_every_panel(self):
        for hint in (1.0, 0.225):
            assert stein._time_rule(hint, 2)[0].size - 1 == 2 * (stein._time_rule(hint, 1)[0].size - 1)

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.9])
    @pytest.mark.parametrize("d", [1, 2])
    def test_far_points_converge_in_time(self, alpha, d):
        """f_h and its gradient out to |x| = 70, against a log-Simpson rule
        with 8x the old rule's nodes on the same interval and the same s
        knots: the error left is the time quadrature's.  The 193-node
        log-Simpson rule this one replaced was up to 9e-6 off here."""
        tf = gaussian_bump(d, a=0.8, center=np.linspace(0.4, -0.3, d))
        sol = stein_solve(isotropic_stable_law(alpha, d), tf.scaled(1.0 / max(tf.m_bounds)))
        t_max = math.log(1e10) / min(1.0, 0.75 * alpha)
        t_ref, w_ref = _simpson_rule(sol.t_head, t_max, 8 * 192 + 1, log=True)
        ref = dataclasses.replace(sol, t_nodes=t_ref, t_weights=w_ref, _coef=None, _s_grid=None, _s_max=0.0)
        rng = np.random.default_rng(40 + d)
        dirs = rng.normal(size=(60, d))
        x = dirs / np.linalg.norm(dirs, axis=1, keepdims=True) * np.linspace(0.0, 70.0, 60)[:, None]
        assert np.max(np.abs(sol.evaluate(x) - ref.evaluate(x))) <= 1e-7
        assert np.max(np.abs(sol.gradient(x) - ref.gradient(x))) <= 1e-7


# a d = 2 law with a d = 2 bump F2 and a d = 1 bump F1
_L2 = isotropic_stable_law(1.5, 2)
_F2 = gaussian_bump(2, a=1.0, center=[0.3, -0.2])
_F1 = gaussian_bump(1, a=1.0, center=[0.3]).scaled(0.5)
_X1, _X22 = np.array([0.3]), np.zeros((2, 2))
_WRONG_DIMENSION = {
    "generator_point": lambda: generator_apply(_L2, _F2, _X1),
    "generator_two_points": lambda: generator_apply(_L2, _F2, _X22),
    "generator_function": lambda: generator_apply(_L2, _F1, _X22[0]),
    "gamma1_integral_point": lambda: gamma1(_L2, _F2, _F2, _X1, "integral"),
    "gamma1_generator_point": lambda: gamma1(_L2, _F2, _F2, _X1, "generator"),
    "gamma1_two_points": lambda: gamma1(_L2, _F2, _F2, _X22, "integral"),
    "gamma1_function": lambda: gamma1(_L2, _F2, _F1, _X22[0], "integral"),
    "gamma2_integral_point": lambda: gamma2(_L2, _F2, _X1, "integral"),
    "gamma2_symbol_point": lambda: gamma2(_L2, _F2, _X1, "symbol"),
    "gamma2_recursion_point": lambda: gamma2(_L2, _F2, _X1, "recursion"),
    "gamma2_two_points": lambda: gamma2(_L2, _F2, _X22, "symbol"),
    "gamma2_function": lambda: gamma2(_L2, _F1, _X22[0], "integral"),
    "symbol_value_point": lambda: gamma2_symbol_value(_F2, 1.5, 2, _X1),
    "symbol_value_two_points": lambda: gamma2_symbol_value(_F2, 1.5, 2, _X22),
    "symbol_value_function": lambda: gamma2_symbol_value(_F1, 1.5, 2, _X22[0]),
    "bakry_emery_points": lambda: bakry_emery_check(_L2, [_F2], [_X1]),
    "bakry_emery_function": lambda: bakry_emery_check(_L2, [_F1], _X22),
    "semigroup_point": lambda: semigroup_apply(_L2, _F2, 0.5, _X1),
    "semigroup_function": lambda: semigroup_apply(_L2, _F1, 0.5, _X22[0]),
    "solver_function": lambda: stein_solve(_L2, _F1),
}


class TestPointDimension:
    """Points whose last axis is not the law's dimension raise."""

    @staticmethod
    def case(d):
        law = isotropic_stable_law(1.5, d)
        tf = gaussian_bump(d, a=1.0)
        h = tf.scaled(1.0 / max(tf.m_bounds))
        return law, h, stein_solve(law, h)

    @pytest.mark.parametrize("x", [np.array([0.1]), np.zeros(3), np.zeros((4, 3)), np.zeros((4, 1))])
    def test_d2_solution_refuses(self, x):
        law, h, sol = self.case(2)
        for call in (sol.evaluate, sol.gradient, sol.gradient_consistent):
            with pytest.raises(DomainError):
                call(x)
        with pytest.raises(DomainError):
            verify_stein_solution(law, sol, x)
        with pytest.raises(DomainError):
            semigroup_apply(law, h, 0.5, x)

    def test_mismatched_law_refuses(self):
        law1, _, sol1 = self.case(1)
        law2, _, sol2 = self.case(2)
        with pytest.raises(DomainError):
            verify_stein_solution(law2, sol1, np.zeros((3, 2)))
        with pytest.raises(DomainError):
            verify_stein_solution(law1, sol2, np.zeros((3, 1)))

    def test_semigroup_takes_one_point(self):
        law, h, _ = self.case(2)
        with pytest.raises(DomainError):
            semigroup_apply(law, h, 0.5, np.zeros((2, 2)))

    @pytest.mark.parametrize("call", _WRONG_DIMENSION.values(), ids=_WRONG_DIMENSION.keys())
    def test_wrong_dimension_is_a_domain_error(self, call):
        """Points of the wrong dimension, more than one point where one is
        read, and test functions of the wrong dimension all raise."""
        with pytest.raises(DomainError):
            call()

    def test_d1_point_as_a_length_one_vector(self):
        law, h, sol = self.case(1)
        x = np.array([0.3])
        assert sol.evaluate(x) == sol.evaluate(x[None, :])[0]
        assert np.array_equal(sol.gradient(x), sol.gradient(x[None, :])[0])
        assert semigroup_apply(law, h, 0.5, x) == semigroup_apply(law, h, 0.5, 0.3)
        assert np.isfinite(verify_stein_solution(law, sol, x))


class TestScalarPoint:
    """In d = 1 a scalar is one point, as np.array([x]) is."""

    def test_scalar_gives_what_a_length_one_vector_gives(self):
        tf = gaussian_bump(1, a=1.0, center=[0.2])
        sol = stein_solve(isotropic_stable_law(1.5, 1), tf.scaled(1.0 / max(tf.m_bounds)))
        for x in (0.3, np.float64(-1.1), np.array(0.7)):
            value, slope = sol.evaluate(x), sol.gradient(x)
            assert isinstance(value, float)
            assert value == sol.evaluate(np.array([float(x)]))
            assert slope.shape == (1,)
            assert np.array_equal(slope, sol.gradient(np.array([float(x)])))


def _bump_rhs(d, a, center=None):
    tf = gaussian_bump(d, a=a, center=center)
    return tf.scaled(1.0 / max(tf.m_bounds))


class TestBudget:
    @pytest.mark.parametrize("budget", [0, -1, 1.5])
    def test_stein_entry_points_refuse_a_budget_below_one_or_fractional(self, budget):
        law = isotropic_stable_law(1.5, 1)
        h = _bump_rhs(1, 1.0)
        with pytest.raises(DomainError, match="budget"):
            stein_solve(law, h, budget=budget)
        with pytest.raises(DomainError, match="budget"):
            semigroup_apply(law, h, 0.5, [0.3], budget=budget)
        with pytest.raises(DomainError, match="budget"):
            verify_stein_solution(law, stein_solve(law, h), [[0.3]], budget=budget)


class TestKernels:
    """A_d(z), the spherical phase average, taken in place over a fresh z."""

    Z = np.array([0.0, 3e-9, -7e-7, 2e-6, 0.3, -1.7, 4.2, 9.5, 33.0])

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_closed_forms(self, d):
        z = self.Z.copy()
        sphere = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)  # |S^{d-1}| = A_d(0)
        if d == 1:
            ref = 2.0 * np.cos(self.Z)
        elif d == 2:
            ref = 2.0 * math.pi * j0(self.Z)
        elif d == 3:
            ref = 4.0 * math.pi * np.sinc(self.Z / math.pi)
        else:
            nu = d / 2.0 - 1.0
            zz = np.abs(self.Z)
            with np.errstate(invalid="ignore", divide="ignore"):
                ref = (2.0 * math.pi) ** (d / 2.0) * jv(nu, zz) / zz**nu
            ref[zz < 1e-6] = sphere  # the series branch
        out = stein._kernels(d, z)
        assert np.max(np.abs(out - ref)) <= 1e-15 * sphere
        if d <= 2:
            assert out is z
        else:
            assert np.array_equal(z, self.Z)


class TestRhoRule:
    @pytest.mark.parametrize("budget", [1, 2])
    @pytest.mark.parametrize("a", [0.25, 1.0, 4.0])
    def test_nodes_are_multiples_of_one_step(self, a, budget):
        """rho_j = j delta bit for bit, delta = 0.025 / budget, on the
        smallest even n with n delta >= rho_max = sqrt(168 a); Simpson
        weights."""
        rho, w = stein._rho_rule(gaussian_bump(1, a=a), budget)
        step = 0.025 / budget
        n = rho.size - 1
        assert n % 2 == 0
        assert np.array_equal(rho, step * np.arange(n + 1))
        rho_max = math.sqrt(168.0 * a)
        assert rho[-1] >= rho_max * (1.0 - 1e-12) and rho[-3] < rho_max
        simpson = np.where(np.arange(n + 1) % 2 == 1, 4.0, 2.0)
        simpson[0] = simpson[-1] = 1.0
        assert np.array_equal(w, simpson * (step / 3.0))

    @pytest.mark.parametrize("budget", [1, 2])
    def test_width_is_capped_at_a_quarter_million(self, budget):
        """An a = 1e7 bump gets the nodes of an a = 0.25e6 bump: the grid
        (259 231 nodes at budget 1) stops growing there."""
        wide, cap = (stein._rho_rule(gaussian_bump(1, a=a), budget) for a in (1e7, 0.25e6))
        assert np.array_equal(wide[0], cap[0]) and np.array_equal(wide[1], cap[1])

    @pytest.mark.parametrize("budget", [1, 2])
    @pytest.mark.parametrize("a", [0.25, 1.0, 4.0])
    def test_image_sits_at_pi_over_the_step_for_every_width(self, a, budget):
        """The alternating part of the Simpson weights reads -Phi_t(0) / 3 at
        s = pi / delta ~ 125.7 budget, whatever the bump.  At s = 62, where
        the image of an a = 4 bump sat when the step scaled with the bump,
        the profile is the bump's tail."""
        h = gaussian_bump(1, a=a)
        image = math.pi * budget / 0.025
        phi = _pt_profile(h, 1.5, 1, 1e-3, np.array([0.0, 62.0, image]), budget)
        assert phi[2] == pytest.approx(-phi[0] / 3.0, rel=1e-6)
        assert abs(phi[1]) <= 1e-6


class TestKnotKernelCache:
    """The budget-1 kernel matrix A_d(s rho) on the tables' knots is kept
    per d and only grows; values do not depend on what grew it."""

    @staticmethod
    def values(law, h, x):
        sol = stein_solve(law, h)
        return sol.evaluate(x), sol.gradient(x)

    @pytest.mark.parametrize("d", [1, 2])
    def test_values_do_not_depend_on_the_cache_history(self, monkeypatch, d):
        law = isotropic_stable_law(1.5, d)
        h = _bump_rhs(d, 1.0, np.linspace(0.3, -0.2, d))
        x = spread_points(d, 40, seed=50 + d) / 3.0
        monkeypatch.setattr(stein, "_KNOT_KERNELS", {})
        cold_value, cold_slope = self.values(law, h, x)
        cold_shape = stein._KNOT_KERNELS[d].shape

        monkeypatch.setattr(stein, "_KNOT_KERNELS", {})
        wide = stein_solve(law, _bump_rhs(d, 3.0))
        wide._ensure_tables(300.0)
        grown = stein._KNOT_KERNELS[d].shape
        assert grown[0] > cold_shape[0] and grown[1] > cold_shape[1]
        value, slope = self.values(law, h, x)
        assert stein._KNOT_KERNELS[d].shape == grown
        assert np.array_equal(value, cold_value)
        assert np.array_equal(slope, cold_slope)

    @pytest.mark.parametrize("d", [1, 2])
    def test_grown_matrix_is_the_kernel_on_the_knots(self, monkeypatch, d):
        monkeypatch.setattr(stein, "_KNOT_KERNELS", {})
        stein_solve(isotropic_stable_law(1.5, d), _bump_rhs(d, 1.0))._ensure_tables(30.0)
        stein_solve(isotropic_stable_law(0.5, d), _bump_rhs(d, 2.0))._ensure_tables(20.0)
        stein_solve(isotropic_stable_law(1.5, d), _bump_rhs(d, 0.5))._ensure_tables(200.0)
        cached = stein._KNOT_KERNELS[d]
        knots = stein._knot_grid(1, cached.shape[0])
        rho = 0.025 * np.arange(cached.shape[1])
        assert np.array_equal(cached, stein._kernels(d, np.outer(knots, rho)))

    @pytest.mark.parametrize("d", [1, 2])
    def test_other_grids_leave_the_cache_alone(self, monkeypatch, d):
        law = isotropic_stable_law(1.5, d)
        h = _bump_rhs(d, 1.0)
        monkeypatch.setattr(stein, "_KNOT_KERNELS", {})
        stein_solve(law, h)._ensure_tables(10.0)
        before = stein._KNOT_KERNELS[d]
        snapshot = before.copy()
        for x in (np.zeros(d), np.full(d, 0.4)):
            semigroup_apply(law, h, 0.5, x)
        t = np.array([1e-3, 0.5])
        stein._pt_tables(h, 1.5, d, t, np.linspace(0.0, 20.0, 101), 1)
        knots = stein._knot_grid(1, before.shape[0] + 5)
        stein._pt_tables(h, 1.5, d, t, knots[1:], 1)
        stein._pt_tables(h, 1.5, d, t, knots[: stein._zones(1)[1] + 1], 1)
        assert list(stein._KNOT_KERNELS) == [d]
        assert stein._KNOT_KERNELS[d] is before
        assert np.array_equal(before, snapshot)

    @pytest.mark.parametrize("d", [1, 2])
    def test_budget_two_keeps_nothing(self, monkeypatch, d):
        monkeypatch.setattr(stein, "_KNOT_KERNELS", {})
        sol = stein_solve(isotropic_stable_law(1.5, d), _bump_rhs(d, 1.0), budget=2)
        sol.evaluate(np.full((3, d), 0.5))
        assert sol._coef is not None
        assert stein._KNOT_KERNELS == {}

    def test_a_narrow_bump_leaves_the_cache_within_its_cap(self, monkeypatch):
        """A bump of width a = 100 needs a (1229, 5187) matrix at budget 1,
        past the cap, and one read at x = 1e4 a (1735, 5187) one: both builds
        compute their kernel in place and leave the cache as it is, and the
        values do not depend on what the cache held."""
        law = isotropic_stable_law(1.5, 1)
        h = _bump_rhs(1, 100.0)
        x = np.array([[0.0], [0.05], [0.3], [1e4]])
        monkeypatch.setattr(stein, "_KNOT_KERNELS", {})
        cold_value, cold_slope = self.values(law, h, x)
        assert stein._KNOT_KERNELS == {}
        stein_solve(law, _bump_rhs(1, 1.0))._ensure_tables(80.0)
        held = stein._KNOT_KERNELS[1]
        value, slope = self.values(law, h, x)
        assert stein._KNOT_KERNELS[1] is held
        assert held.size <= stein._KNOT_KERNEL_CAP
        assert np.array_equal(value, cold_value)
        assert np.array_equal(slope, cold_slope)

    @pytest.mark.parametrize("d", [1, 2])
    def test_builds_past_the_cap_keep_the_bits_of_the_cache(self, monkeypatch, d):
        law = isotropic_stable_law(1.5, d)
        h = _bump_rhs(d, 1.0, np.linspace(0.3, -0.2, d))
        x = spread_points(d, 40, seed=60 + d) / 3.0
        monkeypatch.setattr(stein, "_KNOT_KERNELS", {})
        cached_value, cached_slope = self.values(law, h, x)
        assert d in stein._KNOT_KERNELS
        monkeypatch.setattr(stein, "_KNOT_KERNELS", {})
        monkeypatch.setattr(stein, "_KNOT_KERNEL_CAP", 0)
        value, slope = self.values(law, h, x)
        assert stein._KNOT_KERNELS == {}
        assert np.array_equal(value, cached_value)
        assert np.array_equal(slope, cached_slope)
