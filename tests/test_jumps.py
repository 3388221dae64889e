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

import numpy as np
import pytest
from scipy import integrate

from steinlab.dirichlet import _gamma1_integral_at
from steinlab.jumps import (
    density_nu,
    density_tilde,
    jump_ball_chunk,
    jump_grad_diff_chunk,
    jump_raw_chunk,
    jump_square_chunk,
    jump_vector_chunk,
)
from steinlab.levy import c_alpha_d, cauchy_c, stable_k, tempered_k
from steinlab.numerics import gaussian_bump, sphere_from_atoms

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
