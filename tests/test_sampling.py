import math

import numpy as np
import pytest

from steinlab import DomainError, EvaluationError, RegimeError, UnsupportedFamilyError
from steinlab.jumps import CHUNK
from steinlab.levy import IDLaw, LevyPolar, char_fn, isotropic_stable_law, stable_k
from steinlab.numerics import sphere_from_atoms
from steinlab.sampling import (
    SampleBatch,
    empirical_char_fn,
    export_csv,
    make_rng,
    mc_expectation,
    sample_isotropic_stable,
    sample_positive_stable,
    sample_residual_law,
    sample_stable_law,
)


class TestPositiveStable:
    def test_positivity(self):
        x = sample_positive_stable(0.5, 1.0, 10_000, seed=1)
        assert np.all(x > 0.0)

    def test_laplace_transform(self):
        n = 1_000_000
        for scale in (0.5, 1.0):
            x = sample_positive_stable(0.7, scale, n, seed=2)
            probe = np.exp(-x)
            emp, se = probe.mean(), probe.std() / math.sqrt(n)
            assert abs(emp - math.exp(-scale)) <= 3.0 * se

    def test_levy_half_quantiles(self):
        # alpha' = 1/2 with scale 1 is the hitting-time law 1/(2 Z^2);
        # closed-form quantiles via the Gaussian tail
        from scipy.special import ndtri

        n = 400_000
        x = sample_positive_stable(0.5, 1.0, n, seed=3)
        for p in (0.25, 0.5, 0.75):
            # P(X <= q) = 2 Phibar(1 / sqrt(2 q)) = p
            z = ndtri(1.0 - p / 2.0)
            q = 1.0 / (2.0 * z * z)
            emp = float(np.mean(x <= q))
            assert abs(emp - p) < 1e-2

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_positive_stable(1.2, 1.0, 10, seed=0)

    def test_draw_beyond_float_range_names_its_index(self):
        # at alpha' = 0.01 about 1 draw in 1200 exceeds the float range
        with pytest.raises(EvaluationError, match=r"non-finite draw at index \d+"):
            sample_positive_stable(0.01, 1.0, 400_000, seed=5)


class TestIsotropicStable:
    def test_char_fn_target(self):
        n = 1_000_000
        batch = sample_isotropic_stable(1.5, 2, n, seed=4)
        emp, se = empirical_char_fn(batch, np.array([1.0, 0.0]))
        assert abs(emp - math.exp(-0.5)) <= 3.0 * se

    def test_rotational_invariance(self):
        n = 400_000
        batch = sample_isotropic_stable(1.2, 2, n, seed=5)
        theta = 0.83
        q = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        xi = np.array([0.9, -0.4])
        v1, s1 = empirical_char_fn(batch, xi)
        v2, s2 = empirical_char_fn(batch, q @ xi)
        assert abs(v1 - v2) <= 3.0 * (s1 + s2)

    def test_cauchy_median(self):
        n = 400_000
        batch = sample_isotropic_stable(1.0, 1, n, seed=6)
        below = float(np.mean(batch.points[:, 0] <= 0.0))
        assert abs(below - 0.5) <= 3.0 * math.sqrt(0.25 / n)

    def test_reproducible(self):
        a = sample_isotropic_stable(1.5, 3, 1000, seed=7)
        b = sample_isotropic_stable(1.5, 3, 1000, seed=7)
        assert np.array_equal(a.points, b.points)
        c = sample_isotropic_stable(1.5, 3, 1000, seed=8)
        assert not np.array_equal(a.points, c.points)

    def test_finite_mean_regime(self):
        n = 1_000_000
        batch = sample_isotropic_stable(1.5, 2, n, seed=9)
        mean = batch.points.mean(axis=0)
        # crude dispersion proxy for a heavy-tailed mean: use the
        # truncated second moment's se as a scale reference
        clipped = np.clip(batch.points, -50, 50)
        se = clipped.std(axis=0) / math.sqrt(n)
        assert np.all(np.abs(mean) <= 12.0 * se)  # generous: tails inflate the raw mean

    def test_fractional_moment_stable_under_doubling(self):
        alpha, eps = 0.5, 0.25
        m = []
        for n in (200_000, 400_000):
            batch = sample_isotropic_stable(alpha, 1, n, seed=10)
            m.append(np.mean(np.abs(batch.points[:, 0]) ** eps))
        assert abs(m[0] - m[1]) / m[1] < 0.02

    def test_draws_stay_finite_near_alpha_two(self):
        # alpha / 2 = 0.9995: the one-sided factors raised to 1/(1 - 0.9995)
        # must not underflow
        batch = sample_isotropic_stable(1.999, 2, 200_000, seed=11)
        assert np.isfinite(batch.points).all()

    def test_batch_names_its_non_finite_row(self):
        pts = np.zeros((4, 2))
        pts[2, 1] = np.nan
        with pytest.raises(EvaluationError, match="row 2"):
            SampleBatch(points=pts, seed=0, law={})


class TestResidualLaw:
    def test_t_zero_is_point_mass(self):
        batch = sample_residual_law(1.5, 2, 0.0, None, 100, seed=11)
        assert np.all(batch.points == 0.0)

    def test_large_t_recovers_target(self):
        n = 400_000
        xi = np.array([0.7, -0.2])
        bt = sample_residual_law(1.5, 2, 12.0, None, n, seed=12)
        bx = sample_isotropic_stable(1.5, 2, n, seed=13)
        vt, st = empirical_char_fn(bt, xi)
        vx, sx = empirical_char_fn(bx, xi)
        assert abs(vt - vx) <= 3.0 * (st + sx)

    def test_char_fn_ratio_identity(self):
        # empirical cf of the t-member equals phi(xi) / phi(e^-t xi)
        n = 1_000_000
        alpha, t = 1.5, 0.7
        law = isotropic_stable_law(alpha, 2)
        rng = np.random.default_rng(21)
        batch = sample_residual_law(alpha, 2, t, None, n, seed=14)
        for _ in range(5):
            xi = rng.normal(0.0, 1.0, size=2)
            target = char_fn(law, xi) / char_fn(law, math.exp(-t) * xi)
            emp, se = empirical_char_fn(batch, xi)
            assert abs(emp - target) <= 3.0 * se

    def test_uniform_fractional_moment_bound(self):
        alpha, eps = 0.5, 0.25
        vals = []
        for t in (0.1, 0.5, 1.0, 2.0, 5.0):
            batch = sample_residual_law(alpha, 1, t, None, 200_000, seed=15)
            vals.append(np.mean(np.abs(batch.points[:, 0]) ** eps))
        limit = np.mean(np.abs(sample_isotropic_stable(alpha, 1, 200_000, 15).points) ** eps)
        assert max(vals) <= 1.05 * limit


class TestAtomicSamplers:
    def test_one_sided_half_stable_matches_quadrature_cf(self):
        sphere = sphere_from_atoms([[1.0]], [1.0])
        law = IDLaw(np.zeros(1), LevyPolar(sphere, stable_k(0.5, 1.0)), "drift_b0")
        n = 1_000_000
        batch = sample_stable_law(law, n, seed=16)
        assert np.all(batch.points >= 0.0)
        for t in (0.6, 1.1, -0.8):
            xi = np.array([t])
            emp, se = empirical_char_fn(batch, xi)
            assert abs(emp - char_fn(law, xi)) <= 3.5 * se

    def test_skewed_cauchy_ray_matches_quadrature_cf(self):
        sphere = sphere_from_atoms([[1.0]], [1.0])
        law = IDLaw(np.zeros(1), LevyPolar(sphere, stable_k(1.0, 1.0 / (2 * math.pi))), "triplet_b")
        n = 1_000_000
        batch = sample_stable_law(law, n, seed=17)
        for t in (0.7, 1.3, -0.9):
            xi = np.array([t])
            emp, se = empirical_char_fn(batch, xi)
            assert abs(emp - char_fn(law, xi)) <= 3.5 * se

    def test_unsupported_families_raise(self):
        sphere = sphere_from_atoms([[1.0]], [1.0])
        law = IDLaw(np.zeros(1), LevyPolar(sphere, stable_k(1.5, 1.0)), "triplet_b")
        with pytest.raises(UnsupportedFamilyError):
            sample_stable_law(law, 100, seed=0)


class TestMCExpectation:
    def test_constant(self):
        batch = sample_isotropic_stable(1.5, 2, 1000, seed=18)
        est = mc_expectation(lambda x: np.full(x.shape[0], 2.5), batch)
        assert est.value == pytest.approx(2.5)
        assert float(np.max(est.std_error)) == 0.0

    def test_identity_function_centered(self):
        n = 1_000_000
        batch = sample_isotropic_stable(1.5, 2, n, seed=19)
        est = mc_expectation(lambda x: x, batch, growth_order=1.0)
        assert est.within(0.0, n_se=3.5)

    def test_cauchy_ball_probability(self):
        n = 1_000_000
        batch = sample_isotropic_stable(1.0, 1, n, seed=20)
        est = mc_expectation(lambda x: (np.abs(x[:, 0]) <= 1.0).astype(float), batch)
        target = 2.0 * math.atan(2.0) / math.pi
        assert abs(float(est.value) - target) <= 3.0 * float(est.std_error)

    def test_growth_gate(self):
        batch = sample_isotropic_stable(0.8, 1, 100, seed=21)
        with pytest.raises(RegimeError):
            mc_expectation(lambda x: x, batch, growth_order=1.0)

    def test_se_scales_with_n(self):
        ses = []
        for n in (50_000, 200_000):
            batch = sample_isotropic_stable(1.5, 1, n, seed=22)
            est = mc_expectation(lambda x: np.exp(-(x[:, 0] ** 2)), batch)
            ses.append(float(est.std_error))
        assert ses[1] == pytest.approx(ses[0] / 2.0, rel=0.15)

    def test_nonfinite_reports_index(self):
        batch = SampleBatchStub()
        with pytest.raises(Exception) as exc:
            mc_expectation(lambda x: np.where(x[:, 0] > 0.5, np.inf, 1.0), batch)
        assert "index" in str(exc.value)

    def test_csv_export(self, tmp_path):
        batch = sample_isotropic_stable(1.5, 2, 10, seed=23)
        path = tmp_path / "batch.csv"
        export_csv(batch, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x1,x2"
        assert len(lines) == 11


class TestChunkedReducer:
    """The reducer behind mc_expectation and the per-sample residual estimators."""

    def test_nonfinite_statistic_reports_sample_index(self):
        from steinlab.stein import _chunked_mean

        batch = sample_isotropic_stable(1.5, 1, 3 * CHUNK, seed=24)
        bad = CHUNK + 17
        marked = batch.points[bad, 0]
        with pytest.raises(EvaluationError) as exc:
            _chunked_mean(batch, lambda Z: np.where(Z[:, 0] == marked, np.nan, 1.0))
        assert exc.value.node == bad

    @pytest.mark.parametrize("route", ["chunked_mean", "mc_expectation"])
    def test_large_mean_keeps_its_standard_error(self, route):
        from steinlab.stein import _chunked_mean

        n = 4 * CHUNK
        batch = SampleBatch(points=make_rng(25).standard_normal((n, 1)), seed=25, law={})
        stat = lambda Z: 1e8 + Z[:, 0]
        est = _chunked_mean(batch, stat) if route == "chunked_mean" else mc_expectation(stat, batch)
        exact = np.std(stat(batch.points), ddof=1) / math.sqrt(n)
        assert float(est.std_error) == pytest.approx(exact, rel=1e-6)
        assert float(est.value) == pytest.approx(float(np.mean(stat(batch.points))), rel=1e-15)


class SampleBatchStub:
    def __init__(self):
        rng = make_rng(99)
        self.points = rng.uniform(size=(100, 1))
        self.seed = 99
        self.law = {"alpha": None}
        self.n = 100
        self.dim = 1
