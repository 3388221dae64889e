"""Per-sample jump integrals against an independent adaptive quadrature.

In d = 1 every jump integral is a sum over the two directions x = +-1 of a
radial integral int_0^inf inc(z, x, r) r^power rho(r) dr.  The oracle
evaluates the increments of the Gaussian bumps in a form free of
cancellation near r = 0 (expm1 of the exponent's change), integrates the
small jumps with QUADPACK's algebraic endpoint weight and the big jumps
adaptively with a break point at the bump, and closes the tail beyond a
far cutoff, where every increment has reached its limiting value.
"""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from steinlab.dirichlet import _gamma1_integral_at, _quadrature_backed, _second_difference_double
from steinlab.jumps import (
    density_nu,
    density_tilde,
    jump_ball_chunk,
    jump_grad_diff_chunk,
    jump_raw_chunk,
    jump_square_chunk,
    jump_vector_chunk,
    quad_sphere_for,
)
from steinlab.levy import c_alpha_d, cauchy_c, isotropic_stable_law, stable_k, tempered_k
from steinlab.numerics import _ray_points, gaussian_bump, sphere_from_atoms, uniform_sphere
from steinlab.sampling import sample_stable_law

F_A, F_C = 1.0, 0.3     # f = gaussian_bump(1, a=1, center=[0.3])
G_A, G_C = 0.5, -0.4    # g, the second factor of the carre du champs
SAMPLES = (-2.0, 0.1, 0.7, 3.5)
FAR_SAMPLE = 40.0
R_FAR = 200.0           # beyond it every bump increment has its limit value
TOL = 1e-5              # worst engine error here: 2.4e-6, gradient difference at z = 3.5

SPHERE = sphere_from_atoms([[1.0], [-1.0]], [1.0, 1.0])
F = gaussian_bump(1, a=F_A, center=[F_C])
G = gaussian_bump(1, a=G_A, center=[G_C])

PROFILES = {
    "stable-0.5": stable_k(0.5, c_alpha_d(0.5, 1)),
    "stable-1": stable_k(1.0, cauchy_c(1)),
    "stable-1.5": stable_k(1.5, c_alpha_d(1.5, 1)),
    "tempered": tempered_k(0.8, 0.5, 1.0),
}
MEASURES = {"nu": density_nu, "tilde": density_tilde}


def _expm1_minus_id(t):
    if abs(t) < 1e-3:
        return t * t * (1.0 / 2 + t * (1.0 / 6 + t * (1.0 / 24 + t / 120)))
    return math.expm1(t) - t


def _bump(a, c, y):
    return math.exp(-a * (y - c) ** 2)


def _exponent_change(a, c, z, x, r):
    """-a (|z + r x - c|^2 - |z - c|^2)."""
    return -a * r * (2.0 * x * (z - c) + r)


def _diff(a, c, z, x, r):
    """f(z + r x) - f(z) for the bump exp(-a (y - c)^2)."""
    t = _exponent_change(a, c, z, x, r)
    if abs(t) < 1.0:
        return _bump(a, c, z) * math.expm1(t)
    return _bump(a, c, z + r * x) - _bump(a, c, z)


def _inc_raw(z, x, r):
    return _diff(F_A, F_C, z, x, r)


def _inc_ball(z, x, r):
    if r > 1.0:
        return _diff(F_A, F_C, z, x, r)
    t = _exponent_change(F_A, F_C, z, x, r)
    if abs(t) < 1.0:
        # f(z) (e^t - 1 - t - a r^2), since t + 2 a x (z - c) r = -a r^2
        return _bump(F_A, F_C, z) * (_expm1_minus_id(t) - F_A * r * r)
    grad_dot = -2.0 * F_A * (z - F_C) * _bump(F_A, F_C, z) * x
    return _bump(F_A, F_C, z + r * x) - _bump(F_A, F_C, z) - r * grad_dot


def _inc_vector(z, x, r):
    return x * _diff(F_A, F_C, z, x, r)


def _inc_grad_diff(z, x, r):
    # <f'(z + r x) - f'(z), x> = -2a (x (z - c) (f(z + r x) - f(z)) + r f(z + r x))
    return -2.0 * F_A * (x * (z - F_C) * _diff(F_A, F_C, z, x, r) + r * _bump(F_A, F_C, z + r * x))


def _inc_square(z, x, r):
    return _diff(F_A, F_C, z, x, r) ** 2


def _inc_gamma(z, x, r):
    return 0.5 * _diff(F_A, F_C, z, x, r) * _diff(G_A, G_C, z, x, r)


def _run_gamma(Z, sphere, dens):
    return _gamma1_integral_at(F, G, Z, sphere, dens)


# name -> (engine, increment, order of vanishing at r = 0, radial power,
#          profiles whose integral converges at both ends)
INCREMENTS = {
    "raw": (lambda Z, s, d: jump_raw_chunk(F, Z, s, d), _inc_raw, 1, 0, ("stable-0.5", "tempered")),
    "ball": (lambda Z, s, d: jump_ball_chunk(F, Z, s, d), _inc_ball, 2, 0, tuple(PROFILES)),
    "vector": (lambda Z, s, d: jump_vector_chunk(F, Z, s, d)[:, 0], _inc_vector, 1, 1, ("stable-1.5", "tempered")),
    "grad_diff": (lambda Z, s, d: jump_grad_diff_chunk(F, Z, s, d), _inc_grad_diff, 1, 1, ("stable-1.5", "tempered")),
    "square": (lambda Z, s, d: jump_square_chunk(F, Z, s, d), _inc_square, 2, 0, tuple(PROFILES)),
    "gamma": (_run_gamma, _inc_gamma, 2, 0, tuple(PROFILES)),
}

CASES = [
    (inc, prof, meas)
    for inc, spec in INCREMENTS.items()
    for prof in spec[4]
    for meas in MEASURES
]


def _tail_moment(dens, R, power):
    """int_R^inf r^power rho(r) dr (negligible past R_FAR for tempered profiles)."""
    if dens.extra is not None:
        return 0.0
    return dens.amp * R ** (1.0 + power - dens.p) / (dens.p - 1.0 - power)


def _reference(inc, vanish, power, dens, z):
    total = 0.0
    for x, w in zip(SPHERE.atoms[:, 0], SPHERE.weights):
        extra = dens.extra if dens.extra is not None else (lambda r: 1.0)
        # QUADPACK also samples r = 0, where the quotient takes its limit
        small, _ = integrate.quad(
            lambda r: inc(z, x, max(r, 1e-9)) / max(r, 1e-9) ** vanish * dens.amp * float(extra(r)),
            0.0, 1.0, weight="alg", wvar=(vanish + power - dens.p, 0.0),
            epsabs=1e-13, epsrel=1e-11, limit=200,
        )
        # break points at the bump centres along this direction
        points = [p for p in ((F_C - z) * x, (G_C - z) * x) if 1.0 < p < R_FAR]
        big, _ = integrate.quad(
            lambda r: inc(z, x, r) * r**power * float(dens.rho(r)),
            1.0, R_FAR, points=points or None, epsabs=1e-13, epsrel=1e-11, limit=500,
        )
        far = inc(z, x, 1e6) * _tail_moment(dens, R_FAR, power)
        total += w * (small + big + far)
    return total


@pytest.mark.parametrize("inc,profile,measure", CASES)
def test_engine_matches_adaptive_quadrature(inc, profile, measure):
    engine, increment, vanish, power, _ = INCREMENTS[inc]
    dens = MEASURES[measure](PROFILES[profile])
    Z = np.array(SAMPLES)[:, None]
    got = engine(Z, SPHERE, dens)
    ref = np.array([_reference(increment, vanish, power, dens, z) for z in SAMPLES])
    assert np.max(np.abs(got - ref)) <= TOL, (got, ref)


@pytest.mark.xfail(
    strict=True,
    reason="big-jump panels at 8 nodes per octave do not resolve a bump 40 away from the sample",
)
def test_far_sample_square_matches_adaptive_quadrature():
    dens = density_nu(PROFILES["stable-1.5"])
    got = float(jump_square_chunk(F, np.array([[FAR_SAMPLE]]), SPHERE, dens)[0])
    ref = _reference(_inc_square, 2, 0, dens, FAR_SAMPLE)
    assert abs(got - ref) <= 0.05 * abs(ref), (got, ref)


# ---------------------------------------------------------------------------
# ray evaluation: closed forms against materialised points
# ---------------------------------------------------------------------------

FAR_NORMS = (1e2, 1e3, 1e4, 1e5)
RAY_TOL = 1e-10         # the points z + r x themselves carry |z| eps ~ 2e-11 at |z| = 1e5
ENGINE_TOL = 1e-11      # engines: closed forms against the same f without them


def _bumps(d):
    c = np.linspace(0.3, -0.2, d)
    return {
        "plain": gaussian_bump(d, a=1.0, center=c),
        "coord": gaussian_bump(d, a=0.5, center=c, coord=d - 1),
        "scaled": gaussian_bump(d, a=1.5, center=-c, coord=0).scaled(0.37),
    }


def _without_closed_forms(f):
    return replace(f, ray=None, ray_slope=None)


def _far_samples(d, m, seed):
    """Cauchy-tailed samples whose first rows sit at norms 1e2 .. 1e5."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_cauchy((m, d))
    for i, R in enumerate(FAR_NORMS):
        v = rng.normal(size=d)
        Z[i] = R * v / np.linalg.norm(v)
    return Z


def _rel_err(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["plain", "coord", "scaled"])
def test_along_matches_materialised_points(d, kind):
    f = _bumps(d)[kind]
    Z = _far_samples(d, 40, d)
    far = Z[len(FAR_NORMS) - 1]
    # the uniform directions, and the ray from the farthest sample through the bump
    to_bump = (f.fourier_center - far) / np.linalg.norm(f.fourier_center - far)
    r = np.concatenate([np.geomspace(1e-3, 2e5, 60), np.linalg.norm(f.fourier_center - far) + np.linspace(-3, 3, 13)])
    for x in list(uniform_sphere(d, 8).atoms) + [to_bump]:
        pts = _ray_points(Z, x, r)
        ref = np.asarray(f.evaluate(pts)).reshape(Z.shape[0], -1)
        ref_slope = (np.asarray(f.gradient(pts)) @ x).reshape(Z.shape[0], -1)
        assert _rel_err(f.along(Z, x, r), ref) <= RAY_TOL
        assert _rel_err(f.along_slope(Z, x, r), ref_slope) <= RAY_TOL
        # the fallback is the materialised evaluation itself
        g = _without_closed_forms(f)
        assert np.array_equal(g.along(Z, x, r), ref)
        assert np.array_equal(g.along_slope(Z, x, r), ref_slope)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_along_is_accurate_on_a_far_ray_through_the_bump(d):
    """A sample at |z| ~ 1e5 whose ray x = -e_1 passes the bump: against
    exact rational arithmetic on the same doubles.  z - c carries |z| eps
    ~ 1.5e-11 of rounding; the expanded form |y|^2 + 2r<y,x> + r^2 would
    cancel 1e10-sized terms and lose 1e-6."""
    a = 0.75
    c = np.linspace(0.3, -0.7, d)
    f = gaussian_bump(d, a=a, center=c)
    x = np.zeros(d)
    x[0] = -1.0
    z = c + 0.45
    z[0] = 1e5 + 0.1234567
    r = (z[0] - c[0]) + np.array([-1.5, -0.3, 0.0, 0.6, 2.1])
    got = f.along(z[None, :], x, r)[0]
    slope = f.along_slope(z[None, :], x, r)[0]
    for k, rk in enumerate(r):
        u = [Fraction(zj) - Fraction(cj) + Fraction(rk) * Fraction(xj) for zj, cj, xj in zip(z, c, x)]
        want = math.exp(-a * float(sum(v * v for v in u)))
        want_slope = -2.0 * a * float(sum(v * Fraction(xj) for v, xj in zip(u, x))) * want
        assert abs(got[k] - want) <= 1e-9 * want
        assert abs(slope[k] - want_slope) <= 1e-9 * max(abs(want_slope), want)


def test_derived_test_functions_keep_closed_forms_correct():
    f = gaussian_bump(2, a=1.0, center=[0.3, -0.1])
    Z = _far_samples(2, 20, 5)
    x = np.array([0.6, 0.8])
    r = np.geomspace(1e-3, 1e2, 30)
    s = f.scaled(-2.5)
    assert np.allclose(s.along(Z, x, r), -2.5 * f.along(Z, x, r), rtol=1e-14, atol=0.0)
    assert np.allclose(s.along_slope(Z, x, r), -2.5 * f.along_slope(Z, x, r), rtol=1e-14, atol=0.0)
    g = gaussian_bump(2, a=0.5, coord=1)
    fg = f.product(g)
    assert fg.ray is None and fg.ray_slope is None
    assert _rel_err(fg.along(Z, x, r), f.along(Z, x, r) * g.along(Z, x, r)) <= RAY_TOL
    backed = _quadrature_backed("f", f.evaluate, f.reach, 2)
    assert backed.ray is None and backed.ray_slope is None
    assert np.array_equal(backed.along(Z, x, r), f.evaluate(_ray_points(Z, x, r)).reshape(Z.shape[0], -1))


ENGINES = {
    "raw": (jump_raw_chunk, 0.5),
    "ball": (jump_ball_chunk, 1.5),
    "vector": (jump_vector_chunk, 1.5),
    "grad_diff": (jump_grad_diff_chunk, 1.5),
    "square": (jump_square_chunk, 1.5),
}


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("engine", list(ENGINES))
def test_engines_match_the_materialised_fallback(d, engine):
    run, alpha = ENGINES[engine]
    law = isotropic_stable_law(alpha, d)
    Z = sample_stable_law(law, 400, 11 + d).points
    Z[: len(FAR_NORMS)] = _far_samples(d, len(FAR_NORMS), d)
    sphere = quad_sphere_for(law, 12)
    for measure in (density_nu, density_tilde):
        dens = measure(law.levy.kf)
        for f in _bumps(d).values():
            got = run(f, Z, sphere, dens)
            ref = run(_without_closed_forms(f), Z, sphere, dens)
            assert _rel_err(got, ref) <= ENGINE_TOL, (engine, f.name)


@pytest.mark.parametrize("d", [1, 2])
def test_second_difference_and_gamma_match_the_materialised_fallback(d):
    law = isotropic_stable_law(1.5, d)
    dens = density_tilde(law.levy.kf)
    g = np.linspace(-2.0, 2.0, 3)
    X = np.stack(np.meshgrid(*([g] * d)), -1).reshape(-1, d)
    bumps = _bumps(d)
    for f in bumps.values():
        plain = _without_closed_forms(f)
        assert _rel_err(_second_difference_double(law, f, X), _second_difference_double(law, plain, X)) <= ENGINE_TOL
        other = bumps["plain"]
        got = _gamma1_integral_at(f, other, X, quad_sphere_for(law, 12), dens)
        ref = _gamma1_integral_at(plain, _without_closed_forms(other), X, quad_sphere_for(law, 12), dens)
        assert _rel_err(got, ref) <= ENGINE_TOL


@pytest.mark.parametrize("run", [jump_square_chunk, jump_ball_chunk])
def test_engines_evaluate_only_the_sample_rows(run):
    """The ray closed forms replace f.evaluate on the (m*K, d) jump points:
    a bump is evaluated on its m samples alone (once per norm bucket)."""
    law = isotropic_stable_law(1.5, 2)
    Z = sample_stable_law(law, 3000, 4).points
    sphere = quad_sphere_for(law, 12)
    dens = density_nu(law.levy.kf)
    f = gaussian_bump(2, a=1.0, center=[0.3, 0.1])
    for tf, fast in ((f, True), (_without_closed_forms(f), False)):
        rows = []

        def counting(x, _ev=tf.evaluate):
            rows.append(np.atleast_2d(x).shape[0])
            return _ev(x)

        run(replace(tf, evaluate=counting), Z, sphere, dens)
        assert (sum(rows) == Z.shape[0]) == fast, rows
