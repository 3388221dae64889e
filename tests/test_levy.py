import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from steinlab import DomainError, EvaluationError, RegimeError, levy
from steinlab.levy import (
    IDLaw,
    KFunction,
    LevyPolar,
    c_alpha_d,
    cauchy_c,
    char_fn,
    convert_representation,
    gamma_k,
    isotropic_stable_law,
    lk_exponent,
    normalization_check,
    stable_k,
    symbol_rho_tilde,
    symbol_sigma_nu,
    symbol_sigma_tilde,
    tempered_k,
    tilde_nu,
)
from steinlab.numerics import _refine, _simpson_rule, log_radial_grid, radial_integral, sphere_from_atoms, uniform_sphere


def one_atom_law(alpha, c=1.0, rep="triplet_b", shift=(0.0,)):
    sphere = sphere_from_atoms([[1.0]], [1.0])
    return IDLaw(shift=np.array(shift), levy=LevyPolar(sphere=sphere, kf=stable_k(alpha, c)), rep=rep)


class TestNormalizingConstant:
    def test_positive_across_range(self):
        for alpha in np.arange(1.1, 1.95, 0.1):
            assert c_alpha_d(float(alpha), 1) > 0.0
            assert c_alpha_d(float(alpha), 3) > 0.0

    def test_domain_errors(self):
        for bad in (1.0, 2.0, 0.0, 2.3):
            with pytest.raises(DomainError):
                c_alpha_d(bad, 2)

    def test_d1_closed_form(self):
        # c_{alpha,1} collapses to -1 / (4 gamma(-alpha) cos(alpha pi / 2))
        for alpha in (0.5, 1.25, 1.75):
            g_neg = math.gamma(2.0 - alpha) / (alpha * (alpha - 1.0))
            assert c_alpha_d(alpha, 1) == pytest.approx(
                -1.0 / (4.0 * g_neg * math.cos(alpha * math.pi / 2.0)), rel=1e-12
            )

    def test_normalization_via_lk_quadrature(self):
        assert normalization_check(1.5, 1) < 1e-6
        assert normalization_check(1.5, 2) < 1e-4
        # the angular cusp |cos t|^alpha sharpens as alpha drops; resolve it
        assert normalization_check(0.5, 2, n_atoms=1024) < 1e-4

    def test_cauchy_constant_d1(self):
        assert cauchy_c(1) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)


class TestLKExponent:
    def test_zero_frequency(self):
        law = isotropic_stable_law(1.5, 2)
        assert lk_exponent(law, np.zeros(2)) == 0.0
        assert char_fn(law, np.zeros(2)) == pytest.approx(1.0)

    def test_isotropic_value(self):
        law = isotropic_stable_law(1.5, 2)
        xi = np.array([1.0, 0.0])
        assert lk_exponent(law, xi) == pytest.approx(-0.5, rel=1e-4)

    def test_conjugate_symmetry(self):
        law = isotropic_stable_law(1.25, 2)
        rng = np.random.default_rng(0)
        for _ in range(5):
            xi = rng.normal(size=2)
            assert lk_exponent(law, -xi) == pytest.approx(
                np.conj(lk_exponent(law, xi)), rel=1e-10
            )

    def test_modulus_bounded(self):
        law = isotropic_stable_law(1.5, 2)
        rng = np.random.default_rng(1)
        for _ in range(8):
            xi = rng.normal(0, 2, size=2)
            assert abs(char_fn(law, xi)) <= 1.0 + 1e-10

    def test_stable_scaling(self):
        # drift-form exponent of an alpha-stable law is alpha-homogeneous
        alpha = 0.6
        law = one_atom_law(alpha, rep="drift_b0")
        xi = np.array([0.8])
        base = lk_exponent(law, xi)
        for cscale in (0.5, 2.0):
            val = lk_exponent(law, cscale * xi)
            assert val == pytest.approx(cscale**alpha * base, rel=1e-5)

    def test_rep_gating(self):
        with pytest.raises(RegimeError):
            one_atom_law(1.5, rep="drift_b0")  # small jumps not integrable
        with pytest.raises(RegimeError):
            one_atom_law(0.5, rep="center_b1")  # big jumps not integrable

    def test_scaling_fast_path_matches_generic_quadrature(self):
        from steinlab.levy import _profile_generic, density_nu

        kf = stable_k(1.5, 0.3)
        dens = density_nu(kf)
        from steinlab.levy import _profile

        for s in (0.7, -1.3, 2.1):
            fast = complex(_profile(np.array([s]), kf, "nu", "ball")[0])
            generic = _profile_generic(s, dens, "ball")
            assert fast == pytest.approx(generic, rel=1e-7)

    @pytest.mark.parametrize("kf", [tempered_k(0.8, 0.5, 1.0), gamma_k(0.7, 1.3)], ids=["tempered", "gamma"])
    def test_profile_matches_generic_loop_bit_for_bit(self, kf):
        # an asymmetric atom set: two antipodal pairs, unpaired atoms, one
        # atom orthogonal to the frequency and one projection repeated
        sphere = sphere_from_atoms(
            [[1.0, 0.0], [-1.0, 0.0], [0.3, 1.0], [-0.3, -1.0], [1.0, -0.2], [0.0, 1.0], [0.3, 1.0], [-2.0, 0.7]],
            np.ones(8),
        )
        s = sphere.atoms @ np.array([0.0, 1.7])
        for kind, dens in (("nu", levy.density_nu(kf)), ("tilde", levy.density_tilde(kf))):
            for mode in ("ball", "raw", "sigma"):
                loop = [levy._profile_generic(float(x), dens, mode) if x != 0.0 else 0j for x in s]
                np.testing.assert_array_equal(levy._profile(s, kf, kind, mode), np.array(loop))

    def test_tempered_symbol_integrates_each_antipodal_pair_once(self, monkeypatch):
        calls, generic = [], levy._profile_generic

        def counted(*args, **kwargs):
            calls.append(args[0])
            return generic(*args, **kwargs)

        monkeypatch.setattr(levy, "_profile_generic", counted)
        tn = tilde_nu(tempered_k(0.8, 0.5, 1.0), uniform_sphere(2, 32))
        theta = 3.0 * math.pi / 32.0
        xi = np.array([math.cos(theta), math.sin(theta)])
        zeta = 0.8 * np.array([math.cos(theta + 2.0), math.sin(theta + 2.0)])
        symbol_sigma_tilde(tn, xi, zeta)
        # three profile sums over 32 atoms, 16 antipodal pairs each
        assert len(calls) <= 48

    def test_tempered_exponent_against_brute_force(self):
        sphere = sphere_from_atoms([[1.0], [-1.0]], [1.0, 1.0])
        law = IDLaw(np.zeros(1), LevyPolar(sphere, tempered_k(1.5, 0.3, 0.5)), "triplet_b")
        xi = np.array([1.3])
        val = lk_exponent(law, xi)

        def integrand(r, s):
            th = r * s
            full = -2.0 * np.sin(th / 2) ** 2 + 1j * (np.sin(th) - th)
            raw = -2.0 * np.sin(th / 2) ** 2 + 1j * np.sin(th)
            phase = np.where(r <= 1.0, full, raw)
            return phase * 0.3 * r**-2.5 * np.exp(-0.5 * r)

        u = np.linspace(math.log(1e-12), math.log(120.0), 400_001)
        r = np.exp(u)
        brute = sum(np.trapezoid(integrand(r, s) * r, u) for s in (1.3, -1.3))
        assert val == pytest.approx(complex(brute), rel=1e-6, abs=1e-9)


_DECAYING = [tempered_k(0.8, 0.5, 1.0), gamma_k(0.7, 1.3)]


def _counted(monkeypatch, name):
    """Replace levy.<name> by a wrapper that records its first argument."""
    calls, inner = [], getattr(levy, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return inner(*args, **kwargs)

    monkeypatch.setattr(levy, name, counted)
    return calls


class TestProfileIntegrator:
    def test_panel_bits_do_not_depend_on_the_batch(self, monkeypatch):
        # small blocks, so that the long third panel is summed in pieces
        monkeypatch.setattr(levy, "_NODE_BLOCK", 512)
        lo, hi, du = np.array([0.5, 1e-6, 2.0, 3.0]), np.array([8.0, 1.0, 2000.0, 5.0]), np.array([1.0, 1.0, 1e-3, 1.0])
        w = np.array([1.0, 0.3, 7.0, 2.0])
        f = lambda r, i: np.exp(1j * r * w[i]) / (1.0 + r)
        batch = levy._log_quad_panels(lo, hi, du, f)
        for j in range(4):
            alone = levy._log_quad_panels(lo[j], hi[j], du[j], lambda r, i: f(r, np.full(r.shape, j)))
            assert alone[0] == batch[j]
        np.testing.assert_array_equal(levy._log_quad_panels(lo[::-1], hi[::-1], du[::-1], lambda r, i: f(r, 3 - i)), batch[::-1])

    @pytest.mark.parametrize("f", [lambda r: np.exp(1j * r), lambda r: np.exp(40j * r) * r**-0.5], ids=["smooth", "oscillating"])
    def test_same_stopping_rule_and_no_node_twice(self, f):
        # the reference: every level rebuilt from numerics._simpson_rule and
        # stopped by numerics._refine
        lo, hi, du = 0.5, 8.0, 1.0 / 48.0
        base = max(16, math.ceil(math.log(hi / lo) / du) + 1)
        base += base % 2
        levels = []

        def estimate(level):
            levels.append(level)
            r, w = _simpson_rule(lo, hi, base * 2**level + 1, log=True)
            return np.dot(w, f(r))

        ref = _refine(estimate, 5, 1e-9)[0]
        seen = []
        val = levy._log_quad_complex(lo, hi, du, lambda r: seen.append(r.size) or f(r))
        assert sum(seen) == base * 2 ** levels[-1] + 1
        assert abs(val - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("kf", _DECAYING, ids=["tempered", "gamma"])
    @pytest.mark.parametrize("mode", ["ball", "raw", "sigma"])
    def test_a_frequency_keeps_its_bits_in_any_batch(self, kf, mode):
        dens = levy.density_tilde(kf)
        s = np.array([0.37, 1e-4, 2.9, 13.0, 0.05, 40.0])
        batch = levy._profile_generic(s, dens, mode)
        for x, v in zip(s, batch):
            assert levy._profile_generic(float(x), dens, mode) == v
        np.testing.assert_array_equal(levy._profile_generic(s[::-1], dens, mode), batch[::-1])
        mixed = levy._profile_generic(np.array([7.0, 0.37, 1e-4, 2.9, 0.2]), dens, mode)
        np.testing.assert_array_equal(mixed[1:4], batch[:3])

    @pytest.mark.parametrize("kf", _DECAYING, ids=["tempered", "gamma"])
    @pytest.mark.parametrize("kind", ["nu", "tilde"])
    @pytest.mark.parametrize("mode", ["ball", "raw", "sigma", "full"])
    def test_profile_is_the_one_frequency_loop(self, kf, kind, mode):
        dens = levy._density(kf, kind)
        s = np.array([0.0, 1.3, -1.3, 0.02, -7.5, 1.3, 45.0, -0.4])

        def one(x):
            if mode == "full":
                return levy._profile_generic(x, dens, "ball") - 1j * x * levy._tail_moment(dens, 1.0, 1)
            return levy._profile_generic(x, dens, mode)

        loop = np.array([one(float(x)) if x != 0.0 else 0j for x in s])
        np.testing.assert_array_equal(levy._profile(s, kf, kind, mode), loop)

    @pytest.mark.parametrize("kf", _DECAYING, ids=["tempered", "gamma"])
    @pytest.mark.parametrize("kind", ["nu", "tilde"])
    @pytest.mark.parametrize("mode", ["ball", "raw", "sigma", "full"])
    def test_tiny_frequencies_are_finite_without_warning(self, kf, kind, mode):
        # 12 / s overflows at 5e-324; under filterwarnings = error an
        # overflow warning would fail the test
        vals = levy._profile(np.array([5e-324, -1e-300, 1e-300]), kf, kind, mode)
        assert np.all(np.isfinite(vals))
        assert vals[1] == np.conj(vals[2])

    def test_a_large_frequency_is_finite_without_warning(self):
        # a decay horizon of 2.9 keeps the octave panels of |s| = 1e6, at ten
        # nodes a period, to 5e6 nodes a level
        vals = levy._profile(np.array([1e6, -1e6]), tempered_k(0.8, 0.5, 50.0), "nu", "ball")
        assert np.all(np.isfinite(vals)) and vals[1] == np.conj(vals[0])

    def test_tempered_exponent_memory_does_not_grow_with_the_atoms(self):
        import tracemalloc

        sphere = uniform_sphere(3, 1024)
        law = IDLaw(np.zeros(3), LevyPolar(sphere, tempered_k(0.8, 0.5, 1.0)), "triplet_b")
        # a first call, so that one-time set-up does not count
        lk_exponent(law, np.array([0.1, 0.2, 0.3]))
        tracemalloc.start()
        try:
            val = lk_exponent(law, np.array([0.3, -1.1, 0.7]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 512 distinct |s|: an unblocked level would hold 512 x 3500 nodes
        # in each of several complex arrays
        assert np.isfinite(val) and peak < 32 * 2**20

    def test_tempered_cocycle_sends_one_frequency_per_antipodal_pair(self, monkeypatch):
        calls = _counted(monkeypatch, "_profile_generic")
        tn = tilde_nu(tempered_k(0.8, 0.5, 1.0), uniform_sphere(2, 32))
        theta = 3.0 * math.pi / 32.0
        xi = np.array([math.cos(theta), math.sin(theta)])
        zeta = 0.8 * np.array([math.cos(theta + 2.0), math.sin(theta + 2.0)])
        symbol_sigma_tilde(tn, xi, zeta)
        # three profile sums over 32 atoms, one call each with the distinct
        # |s| of its sum: at most one per antipodal pair, 48 in all
        assert len(calls) == 3
        for got, v in zip(calls, (xi + zeta, xi, zeta)):
            s = levy._projections(tn.sphere, v)
            np.testing.assert_array_equal(got, np.unique(np.abs(s[s != 0.0])))
        assert sum(np.size(s) for s in calls) <= 48


class TestTildeNu:
    def test_stable_density(self):
        kf = stable_k(1.5, 0.4)
        tn = tilde_nu(kf, uniform_sphere(1))
        assert tn.radial_density(1.0) == pytest.approx(1.5 * 0.4, rel=1e-12)

    def test_tempered_density_formula(self):
        # symbolic-differentiation oracle: q = c r^{-a-1} e^{-lam r} (a + lam r)
        kf = tempered_k(0.7, 0.9, 1.3)
        r = np.logspace(-3, 1, 40)
        expected = 0.9 * r ** (-1.7) * np.exp(-1.3 * r) * (0.7 + 1.3 * r)
        assert np.allclose(kf.q(r), expected, rtol=1e-12)
        # and against finite differences of k
        h = 1e-6
        fd = -(kf.k(r + h) - kf.k(r - h)) / (2 * h)
        assert np.allclose(kf.q(r), fd, rtol=1e-5)

    def test_constant_profile_has_zero_density(self):
        kf = KFunction(family="custom", eval_fn=lambda r: np.ones_like(np.asarray(r, dtype=float)))
        tn = tilde_nu(kf, uniform_sphere(1))
        assert abs(tn.radial_density(0.5)) < 1e-9

    def test_increasing_profile_rejected(self):
        kf = KFunction(family="custom", eval_fn=lambda r: np.log1p(np.asarray(r)))
        with pytest.raises(DomainError):
            tilde_nu(kf, uniform_sphere(1))

    def test_gamma_family_constant_small_r(self):
        kf = gamma_k(2.0, 1.0)
        assert kf.q(0.01) == pytest.approx(2.0 * np.exp(-0.01), rel=1e-12)

    def test_stable_tilde_tail_mass(self):
        # total mass of the derived measure on r >= 1 equals c * sigma mass
        kf = stable_k(1.3, 0.7)
        sphere = uniform_sphere(2, 64)
        tn = tilde_nu(kf, sphere)
        grid = log_radial_grid(1.0, 1e9, points_per_decade=32)
        radial = radial_integral(lambda r: tn.radial_density(r), grid, rel_tol=1e-10)
        assert radial * sphere.total_mass == pytest.approx(
            0.7 * sphere.total_mass, rel=1e-8
        )


def _hand_derivatives(kf, kind):
    """w, w' and w'' of k(r)/r (kind 'nu') and -k'(r) (kind 'tilde'),
    differentiated by hand for each family."""
    if kf.family == "stable":
        a = kf.alpha
        c0 = kf.c if kind == "nu" else a * kf.c
        p = a + 1.0
        return (
            lambda r: c0 * r**-p,
            lambda r: -p * c0 * r ** (-p - 1.0),
            lambda r: p * (p + 1.0) * c0 * r ** (-p - 2.0),
        )
    if kf.family == "tempered":
        a, c, lam = kf.alpha, kf.c, kf.lam
        if kind == "nu":
            return (
                lambda r: c * r ** (-a - 1.0) * np.exp(-lam * r),
                lambda r: -c * r ** (-a - 2.0) * np.exp(-lam * r) * (a + 1.0 + lam * r),
                lambda r: c * r ** (-a - 3.0) * np.exp(-lam * r) * (
                    (a + 1.0) * (a + 2.0) + 2.0 * (a + 1.0) * lam * r + (lam * r) ** 2
                ),
            )
        return (
            lambda r: c * r ** (-a - 1.0) * np.exp(-lam * r) * (a + lam * r),
            lambda r: -c * r ** (-a - 2.0) * np.exp(-lam * r) * (
                a * (a + 1.0) + 2.0 * a * lam * r + (lam * r) ** 2
            ),
            lambda r: c * r ** (-a - 3.0) * np.exp(-lam * r) * (
                a * (a + 1.0) * (a + 2.0)
                + 3.0 * a * (a + 1.0) * lam * r
                + 3.0 * a * (lam * r) ** 2
                + (lam * r) ** 3
            ),
        )
    c, lam = kf.c, kf.lam
    if kind == "nu":
        return (
            lambda r: c * np.exp(-lam * r) / r,
            lambda r: -c * np.exp(-lam * r) * (1.0 + lam * r) / r**2,
            lambda r: c * np.exp(-lam * r) * (2.0 + 2.0 * lam * r + (lam * r) ** 2) / r**3,
        )
    return (
        lambda r: c * lam * np.exp(-lam * r),
        lambda r: -c * lam**2 * np.exp(-lam * r),
        lambda r: c * lam**3 * np.exp(-lam * r),
    )


DENSITY_PROFILES = {
    "stable": stable_k(1.5, 0.4),
    "tempered": tempered_k(0.8, 0.5, 1.0),
    "gamma": gamma_k(2.0, 1.5),
}


class TestRadialDensity:
    @pytest.mark.parametrize("kind", ["nu", "tilde"])
    @pytest.mark.parametrize("family", list(DENSITY_PROFILES))
    def test_derivatives_match_hand_formulas(self, family, kind):
        from steinlab.levy import density_nu, density_tilde

        kf = DENSITY_PROFILES[family]
        dens = (density_nu if kind == "nu" else density_tilde)(kf)
        r = np.logspace(-3, 2, 60)
        for got, want in zip((dens.rho, dens.drho, dens.d2rho), _hand_derivatives(kf, kind)):
            assert np.allclose(got(r), want(r), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("power", [0, 1])
    @pytest.mark.parametrize("kind", ["nu", "tilde"])
    @pytest.mark.parametrize("family", ["tempered", "gamma"])
    def test_decaying_tail_moment_matches_quad(self, family, kind, power):
        from scipy import integrate

        from steinlab.levy import _tail_moment, density_nu, density_tilde

        dens = (density_nu if kind == "nu" else density_tilde)(DENSITY_PROFILES[family])
        f = lambda r: r**power * float(dens.rho(r))
        quad = lambda lo, hi: integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=500)[0]
        # the rule stops at the horizon: what lies beyond it is negligible
        # against the whole tail, not against a tail that starts near it
        assert quad(dens.horizon, np.inf) <= 1e-18 * quad(1.0, np.inf)
        for A in (1.0, 8.0, 30.0):
            assert _tail_moment(dens, A, power) == pytest.approx(quad(A, dens.horizon), rel=1e-9, abs=0.0)

    def test_power_tail_moment_closed_form(self):
        from scipy import integrate

        from steinlab.levy import _tail_moment, density_nu, density_tilde

        for dens in (density_nu(stable_k(1.5, 0.4)), density_tilde(stable_k(1.5, 0.4))):
            for power, A in ((0, 1.0), (0, 8.0), (1, 1.0), (1, 30.0)):
                ref = integrate.quad(lambda r: r**power * float(dens.rho(r)), A, np.inf, epsabs=0.0, epsrel=1e-12)[0]
                assert _tail_moment(dens, A, power) == pytest.approx(ref, rel=1e-9)
        for alpha in (0.5, 1.0):
            with pytest.raises(RegimeError):
                _tail_moment(density_nu(stable_k(alpha, 1.0)), 1.0, 1)


class TestConvertRepresentation:
    def test_symmetric_sphere_all_reps_agree(self):
        law = isotropic_stable_law(1.5, 2)
        ctr = convert_representation(law, "center_b1")
        assert np.allclose(ctr.shift, law.shift, atol=1e-12)

    def test_round_trip(self):
        sphere = sphere_from_atoms([[1.0]], [1.0])
        law = IDLaw(np.array([0.3]), LevyPolar(sphere, stable_k(0.5, 1.0)), "triplet_b")
        back = convert_representation(convert_representation(law, "drift_b0"), "triplet_b")
        assert np.allclose(back.shift, law.shift, atol=1e-8)

    def test_one_atom_closed_form(self):
        # b0 = b - e1 * int_0^1 r^{-1/2} dr = b - 2 e1
        sphere = sphere_from_atoms([[1.0]], [1.0])
        law = IDLaw(np.array([0.25]), LevyPolar(sphere, stable_k(0.5, 1.0)), "triplet_b")
        drift = convert_representation(law, "drift_b0")
        assert drift.shift[0] == pytest.approx(0.25 - 2.0, rel=1e-10)

    def test_missing_integrability(self):
        law = isotropic_stable_law(1.5, 1)
        with pytest.raises(RegimeError):
            convert_representation(law, "drift_b0")


class TestSymbols:
    def test_sigma_nu_zero(self):
        law = isotropic_stable_law(1.5, 2)
        assert symbol_sigma_nu(law, np.zeros(2)) == 0.0

    def test_sigma_nu_isotropic_value(self):
        law = isotropic_stable_law(1.5, 2)
        val = symbol_sigma_nu(law, np.array([1.0, 0.0]))
        assert val.real == pytest.approx(-0.75, rel=1e-4)
        assert abs(val.imag) < 1e-10

    def test_sigma_nu_equals_compensated_tilde_integral(self):
        # radial integration by parts: sigma_nu(xi) = int (e-1-i<u,xi>) dnu~
        from steinlab.levy import _profile

        law = isotropic_stable_law(1.4, 2, n_atoms=64)
        tn = tilde_nu(law.levy.kf, law.levy.sphere)
        rng = np.random.default_rng(2)
        for _ in range(3):
            xi = rng.normal(size=2)
            lhs = symbol_sigma_nu(law, xi)
            s = tn.sphere.atoms @ xi
            rhs = complex(np.dot(tn.sphere.weights, _profile(s, tn.kf, "tilde", "full")))
            assert lhs == pytest.approx(rhs, rel=1e-7)

    def test_cocycle_identity_stable_and_tempered(self):
        rng = np.random.default_rng(3)
        sphere = uniform_sphere(2, 32)
        for kf in (stable_k(1.5, 0.2), tempered_k(0.8, 0.5, 1.0), gamma_k(1.0, 2.0)):
            law = IDLaw(np.zeros(2), LevyPolar(sphere, kf), "triplet_b")
            tn = tilde_nu(kf, sphere)
            for _ in range(4):
                xi, zeta = rng.normal(size=2), rng.normal(size=2)
                lhs = symbol_sigma_tilde(tn, xi, zeta)
                rhs = (
                    symbol_sigma_nu(law, xi + zeta)
                    - symbol_sigma_nu(law, xi)
                    - symbol_sigma_nu(law, zeta)
                )
                assert lhs == pytest.approx(rhs, rel=1e-5)

    def test_sigma_tilde_isotropic_closed_form(self):
        alpha = 1.5
        law = isotropic_stable_law(alpha, 2)
        tn = tilde_nu(law.levy.kf, law.levy.sphere)
        rng = np.random.default_rng(4)
        for _ in range(3):
            xi, zeta = rng.normal(size=2), rng.normal(size=2)
            closed = (alpha / 2.0) * (
                np.linalg.norm(xi) ** alpha
                + np.linalg.norm(zeta) ** alpha
                - np.linalg.norm(xi + zeta) ** alpha
            )
            val = symbol_sigma_tilde(tn, xi, zeta)
            assert val.real == pytest.approx(closed, rel=2e-4)
            assert abs(val.imag) < 1e-8

    def test_sigma_tilde_zero_argument(self):
        law = isotropic_stable_law(1.5, 1)
        tn = tilde_nu(law.levy.kf, law.levy.sphere)
        assert symbol_sigma_tilde(tn, np.array([0.7]), np.array([0.0])) == pytest.approx(0.0, abs=1e-12)
        assert symbol_rho_tilde(tn, np.array([0.7]), np.array([0.0])) == pytest.approx(0.0, abs=1e-12)

    def test_sigma_tilde_antipodal(self):
        # zeta = -xi at |xi| = 1 gives alpha * |xi|^alpha exactly
        alpha = 1.5
        law = isotropic_stable_law(alpha, 2)
        tn = tilde_nu(law.levy.kf, law.levy.sphere)
        xi = np.array([1.0, 0.0])
        val = symbol_sigma_tilde(tn, xi, -xi)
        assert val.real == pytest.approx(alpha, rel=2e-4)

    def test_rho_is_alpha_sigma_for_stable(self):
        rng = np.random.default_rng(5)
        for alpha, d, n in ((1.5, 1, None), (1.3, 2, 16)):
            law = isotropic_stable_law(alpha, d, n_atoms=n)
            tn = tilde_nu(law.levy.kf, law.levy.sphere)
            for _ in range(5 if d == 1 else 2):
                xi, zeta = rng.normal(size=d), rng.normal(size=d)
                rho = symbol_rho_tilde(tn, xi, zeta)
                sig = symbol_sigma_tilde(tn, xi, zeta)
                assert rho == pytest.approx(alpha * sig, rel=1e-6, abs=1e-9)


class TestAtomsOrthogonalToTheFrequency:
    """uniform_sphere(2) holds the atom (6.1e-17, 1), orthogonal to
    xi = (1, 0) up to rounding: its projection must act as a zero
    frequency, and the oscillatory tails must stay bounded for small ones."""

    def _near(self, fn):
        at, off = fn(np.array([1.0, 0.0])), fn(np.array([1.0, 1e-7]))
        assert np.isfinite(at.real) and np.isfinite(at.imag)
        assert abs(at - off) <= 1e-6, (at, off)

    def test_rho_tilde_of_the_isotropic_law(self):
        law = isotropic_stable_law(1.5, 2)
        tn = tilde_nu(law.levy.kf, law.levy.sphere)
        self._near(lambda xi: symbol_rho_tilde(tn, xi, np.array([0.3, -1.2])))

    def test_center_form_gamma_exponent(self):
        law = IDLaw(np.zeros(2), LevyPolar(uniform_sphere(2, 8), gamma_k(2.0, 1.5)), "center_b1")
        self._near(lambda xi: lk_exponent(law, xi))


def _ray_rho_tilde(s, t, dens):
    """Per-ray rho~ integrand, i t r e^{itr} (e^{isr} - 1) + (s <-> t),
    integrated by scipy.integrate.quad over (0, horizon) in unit pieces,
    real and imaginary parts taken separately."""
    from scipy import integrate

    em1 = lambda th: -2.0 * np.sin(th / 2.0) ** 2 + 1j * np.sin(th)
    f = lambda r: (
        1j * t * r * np.exp(1j * t * r) * em1(s * r) + 1j * s * r * np.exp(1j * s * r) * em1(t * r)
    ) * float(dens.rho(r))
    edges = np.concatenate([[0.0], np.arange(1.0, dens.horizon), [dens.horizon]])
    parts = []
    for part in (np.real, np.imag):
        parts.append(
            sum(
                integrate.quad(lambda r: float(part(f(r))), lo, hi, epsabs=1e-15, epsrel=1e-12, limit=200)[0]
                for lo, hi in zip(edges[:-1], edges[1:])
            )
        )
    return complex(parts[0], parts[1])


class TestRhoTilde:
    """rho~ is the sigma-profile cocycle of nu~; checked against a quad
    oracle of its defining integrand and against the stable identity."""

    @pytest.mark.parametrize("xi, zeta", [(0.7, -1.3), (2.1, 0.4)])
    @pytest.mark.parametrize(
        "kf", [tempered_k(0.8, 0.5, 1.0), tempered_k(1.5, 0.3, 0.5), gamma_k(1.0, 2.0)], ids=["t0.8", "t1.5", "gamma"]
    )
    def test_matches_quad_oracle(self, kf, xi, zeta):
        from steinlab.levy import density_tilde

        sphere = uniform_sphere(1)
        dens = density_tilde(kf)
        ref = sum(w * _ray_rho_tilde(a[0] * xi, a[0] * zeta, dens) for a, w in zip(sphere.atoms, sphere.weights))
        val = symbol_rho_tilde(tilde_nu(kf, sphere), np.array([xi]), np.array([zeta]))
        assert val == pytest.approx(ref, rel=1e-8)

    def test_stable_alpha_at_most_one_is_rejected(self):
        tn = tilde_nu(stable_k(0.9, 1.0), uniform_sphere(1))
        with pytest.raises(RegimeError):
            symbol_rho_tilde(tn, np.array([0.7]), np.array([0.3]))


class TestProfileEdges:
    """Inputs at which the small panel's start radius underflowed."""

    @pytest.mark.parametrize("alpha", [1.95, 1.99])
    def test_stable_symbols_near_alpha_two(self, alpha):
        # r_lo = (2 tol (3 - p) / (c s^2))^(1 / (2 - alpha)) fell below 1e-105
        law = isotropic_stable_law(alpha, 1)
        tn = tilde_nu(law.levy.kf, law.levy.sphere)
        xi, zeta = np.array([1.0]), np.array([0.4])
        assert normalization_check(alpha, 1) < 1e-9
        assert symbol_sigma_nu(law, xi) == pytest.approx(-alpha / 2.0, rel=1e-9)
        closed = (alpha / 2.0) * (1.0 + 0.4**alpha - 1.4**alpha)
        assert symbol_sigma_tilde(tn, xi, zeta) == pytest.approx(closed, rel=1e-9)
        assert symbol_rho_tilde(tn, xi, zeta) == pytest.approx(alpha * closed, rel=1e-9)

    def test_tempered_exponent_at_frequencies_whose_cube_underflows(self):
        # below |s| ~ 1e-105, tol s^3 is 0; the exponent is linear in xi there
        sphere = sphere_from_atoms([[0.3, 1.0], [1.0, -0.2]], [1.0, 1.0])
        law = IDLaw(np.zeros(2), LevyPolar(sphere, tempered_k(0.8, 0.5, 1.0)), "triplet_b")
        ref = lk_exponent(law, np.array([0.0, 1e-90])) / 1e-90
        for t in (1e-110, 3e-162):
            assert lk_exponent(law, np.array([0.0, t])) / t == pytest.approx(ref, rel=1e-12)


_FREQ = st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3)


def _stable_tilde(alpha, d):
    law = isotropic_stable_law(alpha, d, n_atoms=64 if d == 3 else None)
    return tilde_nu(law.levy.kf, law.levy.sphere)


class TestSymbolProperties:
    @given(alpha=st.floats(1.05, 1.95), d=st.sampled_from([1, 2, 3]), xs=_FREQ, zs=_FREQ)
    def test_rho_is_alpha_sigma_and_symmetric_for_stable(self, alpha, d, xs, zs):
        tn = _stable_tilde(alpha, d)
        xi, zeta = np.array(xs[:d]), np.array(zs[:d])
        rho = symbol_rho_tilde(tn, xi, zeta)
        # |xi|^alpha + |zeta|^alpha + |xi + zeta|^alpha, the scale of the
        # cocycle's three terms, which cancel in rho~
        norms = [math.hypot(*v) for v in (xi, zeta, xi + zeta)]
        scale = sum(n**alpha for n in norms)
        # sigma~ sums ball profiles, whose compensator i s amp / (alpha - 1)
        # cancels in the cocycle only to rounding: at tiny frequencies that
        # rounding, not the 1e-9, bounds the agreement
        amp, mass = tn.kf.alpha * tn.kf.c, float(tn.sphere.weights.sum())
        ball_rounding = np.finfo(float).eps * amp * mass * sum(norms) / (alpha - 1.0)
        assert abs(rho - alpha * symbol_sigma_tilde(tn, xi, zeta)) <= 1e-9 * scale + ball_rounding + 1e-300
        assert abs(rho - symbol_rho_tilde(tn, zeta, xi)) <= 1e-14 * scale + 1e-300

    @given(
        family=st.sampled_from(["tempered", "gamma", "stable"]),
        seed=st.integers(0, 2**32 - 1),
        xs=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
    )
    def test_center_triplet_round_trip(self, family, seed, xs):
        rng = np.random.default_rng(seed)
        kf = {"tempered": tempered_k(0.8, 0.5, 1.0), "gamma": gamma_k(1.0, 2.0), "stable": stable_k(1.5, 0.3)}[family]
        sphere = sphere_from_atoms(rng.normal(size=(4, 2)), rng.uniform(0.2, 1.0, 4))
        law = IDLaw(rng.normal(size=2), LevyPolar(sphere, kf), "triplet_b")
        xi = np.array(xs)
        ref = lk_exponent(law, xi)
        val = lk_exponent(convert_representation(law, "center_b1"), xi)
        assert abs(val - ref) <= 1e-13 * max(1.0, abs(ref))


def _one_atom_tilde():
    return tilde_nu(stable_k(1.5, 0.3), uniform_sphere(1))


@pytest.mark.parametrize(
    "symbol",
    [
        lambda: lk_exponent(one_atom_law(1.5), np.array([0.7])),
        lambda: symbol_sigma_nu(one_atom_law(1.5), np.array([0.7])),
        lambda: symbol_sigma_tilde(_one_atom_tilde(), np.array([0.7]), np.array([0.3])),
        lambda: symbol_rho_tilde(_one_atom_tilde(), np.array([0.7]), np.array([0.3])),
    ],
    ids=["lk_exponent", "sigma_nu", "sigma_tilde", "rho_tilde"],
)
def test_every_symbol_rejects_non_finite_profiles(monkeypatch, symbol):
    monkeypatch.setattr(levy, "_profile", lambda s, *args, **kw: np.full(np.shape(s), complex(np.nan)))
    with pytest.raises(EvaluationError):
        symbol()
