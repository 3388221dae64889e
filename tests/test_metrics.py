import numpy as np
import pytest

from steinlab import DomainError
from steinlab.metrics import _bump_means, dwr_lower_bound, ergodicity_probe, export_probe_csv
from steinlab.numerics import _normalized_bump_params, normalized_bumps
from steinlab.sampling import CHUNK, make_rng, sample_isotropic_stable, sample_residual_law


class TestDistanceLowerBound:
    def test_identical_batches(self):
        b = sample_isotropic_stable(1.5, 2, 50_000, seed=1)
        est = dwr_lower_bound(b, b, 1)
        assert est.value == 0.0

    def test_order_nesting(self):
        # the order-2 family is the order-1 family shrunk by the extra
        # bound, so the estimate cannot grow with the order
        a = sample_isotropic_stable(1.5, 2, 100_000, seed=2)
        b = sample_isotropic_stable(1.5, 2, 100_000, seed=3)
        e1 = dwr_lower_bound(a, b, 1, seed=99)
        e2 = dwr_lower_bound(a, b, 2, seed=99)
        assert e2.value <= e1.value + 1e-15

    def test_shift_separation_regression(self):
        # two stable laws alpha=1.5 shifted by half a unit: frozen baseline
        a = sample_isotropic_stable(1.5, 2, 100_000, seed=4)
        shifted = sample_isotropic_stable(1.5, 2, 100_000, seed=5)
        shifted = type(shifted)(
            points=shifted.points + np.array([0.5, 0.0]), seed=5, law=shifted.law
        )
        est = dwr_lower_bound(a, shifted, 1)
        assert est.value >= 0.1
        assert est.family_size == 50

    def test_symmetry_and_triangle(self):
        a = sample_isotropic_stable(1.5, 1, 60_000, seed=6)
        b = sample_isotropic_stable(1.5, 1, 60_000, seed=7)
        c = sample_isotropic_stable(1.2, 1, 60_000, seed=8)
        dab = dwr_lower_bound(a, b, 1, seed=42).value
        dba = dwr_lower_bound(b, a, 1, seed=42).value
        assert dab == pytest.approx(dba, abs=1e-15)
        dac = dwr_lower_bound(a, c, 1, seed=42).value
        dcb = dwr_lower_bound(c, b, 1, seed=42).value
        noise = 3.0 * (3.0 / np.sqrt(60_000))
        assert dab <= dac + dcb + noise

    def test_empty_family(self):
        a = sample_isotropic_stable(1.5, 1, 100, seed=9)
        with pytest.raises(DomainError):
            dwr_lower_bound(a, a, 1, family=[])


class TestBumpMeans:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [17, CHUNK, CHUNK + 1, 20_000])
    @pytest.mark.parametrize("scale", [1.0, (1.0 - np.exp(-1.5)) ** (1.0 / 1.5)])
    def test_kernel_keeps_the_bits_of_evaluate(self, d, n, scale):
        # the in-place kernel gives the whole-batch means of the family
        # normalized_bumps builds from the same draws, bit for bit
        x = sample_isotropic_stable(1.5, d, n, seed=20 + d).points
        params = _normalized_bump_params(d, 1, 24, make_rng(31, stream=11))
        family = normalized_bumps(d, 1, 24, make_rng(31, stream=11))
        ref = [float(np.mean(h.evaluate(scale * x))) for h in family]
        assert _bump_means(x, params, scale) == ref

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("r", [1, 2])
    def test_default_family_matches_the_explicit_family(self, d, r):
        a = sample_isotropic_stable(1.5, d, 9_000, seed=40 + d)
        b = sample_isotropic_stable(1.2, d, 9_000, seed=50 + d)
        family = normalized_bumps(d, r, 50, make_rng(1234, stream=7))
        default = dwr_lower_bound(a, b, r)
        explicit = dwr_lower_bound(a, b, r, family=family)
        assert default == explicit


class TestErgodicityProbe:
    def test_decay_fit(self):
        fit = ergodicity_probe(1.5, 1, [0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0], 100_000, seed=10)
        assert fit.status == "ok"
        assert fit.slope < 0.0
        assert fit.r_squared >= 0.9

    def test_distances_monotone(self):
        fit = ergodicity_probe(1.5, 1, [0.25, 0.75, 1.5, 3.0], 100_000, seed=11)
        assert np.all(np.diff(fit.distances) <= 1e-12)

    def test_large_t_noise_floor(self):
        fit = ergodicity_probe(1.5, 1, [0.5, 12.0], 50_000, seed=12)
        # at t = 12 the member is within float noise of the target
        assert fit.distances[-1] <= 1e-4

    def test_slope_stable_under_n_doubling(self):
        f1 = ergodicity_probe(1.5, 1, [0.25, 0.5, 1.0, 2.0, 3.0], 50_000, seed=13)
        f2 = ergodicity_probe(1.5, 1, [0.25, 0.5, 1.0, 2.0, 3.0], 100_000, seed=13)
        assert abs(f1.slope - f2.slope) <= 0.2 * abs(f2.slope)

    def test_distances_are_dwr_lower_bounds(self):
        # the probe takes the target means once; each distance stays the
        # order-1 lower bound between the target and the time-t member
        alpha, d, n, seed, t_grid = 1.5, 1, 20_000, 15, [0.5, 1.0, 2.0]
        fit = ergodicity_probe(alpha, d, t_grid, n, seed)
        target = sample_isotropic_stable(alpha, d, n, seed)
        family = normalized_bumps(d, 1, 24, make_rng(seed, stream=11))
        for t, dist in zip(t_grid, fit.distances):
            member = sample_residual_law(alpha, d, t, None, n, seed)
            assert dist == dwr_lower_bound(target, member, 1, family=family).value

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("seed", [16, 17])
    def test_scaled_target_keeps_the_bits_of_a_draw_per_time(self, d, seed):
        # the probe scales one target draw and averages in row blocks; a
        # fresh draw per time, averaged whole, gives the same bits
        alpha, n, t_grid = 1.5, 20_000, [0.25, 0.5, 1.0, 2.0, 3.0]
        fit = ergodicity_probe(alpha, d, t_grid, n, seed)
        target = sample_isotropic_stable(alpha, d, n, seed)
        family = normalized_bumps(d, 1, 24, make_rng(seed, stream=11))
        target_means = [np.mean(h.evaluate(target.points)) for h in family]
        ref = []
        for t in t_grid:
            member = sample_residual_law(alpha, d, t, None, n, seed)
            ref.append(max(abs(va - np.mean(h.evaluate(member.points))) for va, h in zip(target_means, family)))
        assert np.array_equal(fit.distances, ref)

    def test_csv_export(self, tmp_path):
        fit = ergodicity_probe(1.5, 1, [0.5, 1.0], 20_000, seed=14)
        path = tmp_path / "probe.csv"
        export_probe_csv(fit, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,distance,std_error"
        assert len(lines) == 3
