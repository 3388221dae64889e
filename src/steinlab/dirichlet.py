"""Non-local Dirichlet-form machinery for the rotationally invariant
stable laws: the carré-du-champs operator and its second iterate by
three independent routes, the curvature lower bound, the Poincaré-type
inequality, and the variance-ratio functional probed along smoothly
truncated coordinates.  The symbol route of the second iterate is in
closed form for Gaussian bumps in every d: confluent hypergeometric
transforms and one series of them.

The rate integrals live in the frequency domain, where the truncation
family has closed transforms.  They run in every d and do not depend on
the coordinate j: rotation invariance averages their kernels over j,
and the angles integrate in closed form, leaving radial integrals whose
weakly singular factors sit at the origins of log grids.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.special import gammainccinv, gammaln, hyp1f1, ive

from ._errors import DomainError, EvaluationError, RegimeError, UnsupportedFamilyError
from .jumps import (
    _cutoff,
    _is_constant,
    _jump_product,
    _radial_rule,
    _ray_tables,
    _reach,
    _shifted_eval,
    density_nu,
    density_tilde,
    jump_ball_chunk,
    jump_square_chunk,
    quad_sphere_for,
)
from .levy import IDLaw
from .numerics import TestFunction, _ray_points, _simpson_rule, gaussian_bump, grad_fd, surface_area
from .sampling import MCEstimate, mc_expectation, sample_stable_law
from .stein import _check_dim, _chunked_mean, _isotropic_alpha, _point, _points, generator_apply, generator_tilt

__all__ = [
    "RatioReport",
    "truncated_coordinate",
    "gamma1",
    "gamma2",
    "gamma2_symbol_value",
    "bakry_emery_check",
    "poincare_residual",
    "rate_numerator",
    "rate_numerator_limit",
    "rate_denominator",
    "rate_denominator_limit",
    "u_ratio_curve",
    "export_ratio_csv",
]


def truncated_coordinate(d: int, R: float, j: int) -> TestFunction:
    """g(x) = x_j exp(-|x/R|^2), the optimizing family for the ratio
    functional."""
    if R < 1.0:
        raise DomainError("truncation radius must be >= 1")
    if not (0 <= j < d):
        raise DomainError("coordinate index out of range")
    return gaussian_bump(d, a=1.0 / R**2, coord=j, name=f"trunc-coord(R={R:g}, j={j})")


@dataclass(frozen=True)
class RatioReport:
    """One point of the variance/energy ratio curve."""

    R: float
    numerator: float
    denominator: float
    ratio: float
    err: float

    def __post_init__(self):
        if not (math.isfinite(self.numerator) and math.isfinite(self.denominator)):
            raise EvaluationError(f"non-finite ratio sides at R = {self.R}: {self.numerator} / {self.denominator}")
        if self.numerator <= 0.0 or self.denominator <= 0.0:
            raise DomainError("ratio numerator and denominator must be positive")


# ---------------------------------------------------------------------------
# carré du champs
# ---------------------------------------------------------------------------


def _gamma1_integral_at(f, g, X, sphere, dens, n_small=24, per_octave=12):
    """(1/2) int (f(x+u)-f(x))(g(x+u)-g(x)) dnu~ at each row of X."""
    if _is_constant(f) or _is_constant(g):
        return np.zeros(X.shape[0])
    return 0.5 * _jump_product(f, g, X, sphere, dens, n_small, per_octave)


def gamma1(law: IDLaw, f: TestFunction, g: TestFunction, x, route: str = "integral") -> float:
    """Carré du champs Gamma(f, g)(x), either as the squared-increment
    integral against the derived measure or through the generator algebra
    (1/2)(A(fg) - f A g - g A f)."""
    x = _point(x, law.dim)
    _check_dim(f, law.dim)
    _check_dim(g, law.dim)
    if _is_constant(f) or _is_constant(g):
        return 0.0  # increments of a constant vanish identically
    dens = density_tilde(law.levy.kf)
    if route == "integral":
        sphere = quad_sphere_for(law, 48)
        return float(_gamma1_integral_at(f, g, x[None, :], sphere, dens)[0])
    if route == "generator":
        fg = replace(f.product(g), reach=min(_reach(f), _reach(g)))
        afg = generator_apply(law, fg, x)
        af = generator_apply(law, f, x)
        ag = generator_apply(law, g, x)
        return 0.5 * (afg - float(f.evaluate(x)) * ag - float(g.evaluate(x)) * af)
    raise DomainError("route must be 'integral' or 'generator'")


def _quadrature_backed(name, ev_vec, reach, d, fd_scale=1.0):
    """Wrap a vectorized pointwise evaluator as a test function with a
    finite-difference gradient."""

    def ev(p):
        pts = np.atleast_2d(np.asarray(p, dtype=float))
        out = ev_vec(pts)
        return out[0] if np.asarray(p).ndim == 1 else out

    def gr(p):
        pts = np.atleast_2d(np.asarray(p, dtype=float))
        out = np.stack([grad_fd(lambda y: float(ev_vec(y[None, :])[0]), row, scale=fd_scale) for row in pts])
        return out[0] if np.asarray(p).ndim == 1 else out

    return TestFunction(name=name, evaluate=ev, gradient=gr, dim=d, reach=reach)


def gamma2(law: IDLaw, f: TestFunction, x, route: str = "integral") -> float:
    """Second iterated carré du champs Gamma_2(f, f)(x).

    'integral': quarter of the squared-second-difference double integral
    plus (alpha/4) of the squared increment.  'symbol': inverse transform
    of the closed two-frequency symbol.  Both hold for the law of the
    isotropy rule ``levy._is_isotropic`` (any shift) and raise
    ``UnsupportedFamilyError`` for any other.  'recursion':
    (1/2)(A Gamma(f,f) - 2 Gamma(A f, f)) with the inner objects evaluated
    by quadrature, for any law."""
    x = _point(x, law.dim)
    _check_dim(f, law.dim)
    if _is_constant(f):
        return 0.0
    kf = law.levy.kf
    if route == "integral":
        alpha = _isotropic_alpha(law, centred=False)
        gap = _second_difference_double(law, f, x[None, :])[0]
        g1 = _gamma1_integral_at(
            f, f, x[None, :], quad_sphere_for(law, 48), density_tilde(kf)
        )[0]
        return float(gap + 0.5 * alpha * g1)
    if route == "symbol":
        alpha = _isotropic_alpha(law, centred=False)
        return gamma2_symbol_value(f, alpha, law.dim, x)
    if route == "recursion":
        d = law.dim
        dens = density_tilde(kf)
        sphere = quad_sphere_for(law, 32)
        g1ff = _quadrature_backed(
            "Gamma(f,f)",
            lambda pts: _gamma1_integral_at(f, f, pts, sphere, dens, n_small=16, per_octave=8),
            _reach(f) + 1.0,
            d,
        )
        af = _quadrature_backed(
            "A f",
            lambda pts: _generator_apply_vec(law, f, pts, sphere, dens),
            _reach(f) + 1.0,
            d,
        )
        a_g1 = generator_apply(law, g1ff, x, n_dirs=32)
        g1_af_f = gamma1(law, af, f, x, route="integral")
        return 0.5 * a_g1 - g1_af_f
    raise DomainError("route must be 'integral', 'symbol', or 'recursion'")


def _generator_apply_vec(law, f, pts, sphere, dens):
    bt = generator_tilt(law)
    g = np.asarray(f.gradient(pts), dtype=float)
    drift = ((bt[None, :] - pts) * g).sum(axis=1)
    return drift + jump_ball_chunk(f, pts, sphere, dens, n_small=24, per_octave=10)


def _second_difference_double(law, f, X, n_small=12, per_octave=8):
    """(1/4) iint (f(x+u+v) - f(x+u) - f(x+v) + f(x))^2 dnu~ dnu~ per row."""
    if _is_constant(f):
        return np.zeros(X.shape[0])
    dens = density_tilde(law.levy.kf)
    sphere = quad_sphere_for(law, 96 if law.dim > 2 else 24)
    # sum_i c_all[i] phi(r_all[i]) ~ int phi(r) rho(r) dr for phi vanishing like r^2
    r_all, c_all, _, tail = _radial_rule(dens, _cutoff(X, _reach(f), dens), 2, 0, n_small, per_octave)
    tail *= sphere.total_mass

    m = X.shape[0]
    fz = np.asarray(f.evaluate(X), dtype=float)
    K = r_all.size
    # f(x + r w) for every (direction, radius)
    shifted = np.stack([_shifted_eval(f, X, x_dir, r_all) for x_dir in sphere.atoms])
    # int (f(x+u) - f(x))^2 dnu~, reused for the tail
    gamma_like = sphere.weights @ (((shifted - fz[None, :, None]) ** 2) @ c_all)
    out = np.zeros(m)
    atoms, weights = sphere.atoms, sphere.weights
    for a in range(atoms.shape[0]):
        # f(x + r_k x_a + r_l x_b) = f.along(U, x_b) at U = x + r_k x_a: the
        # double shift never forms the 2 r_k r_l <x_a, x_b> term on its own
        U = _ray_points(X, atoms[a], r_all)
        # the pair (b, a) is the pair (a, b) with k and l swapped
        for b in range(a, atoms.shape[0]):
            second = _shifted_eval(f, U, atoms[b], r_all).reshape(m, K, K)
            second -= shifted[a][:, :, None]
            second -= (shifted[b] - fz[:, None])[:, None, :]
            np.square(second, out=second)
            out += (1.0 if a == b else 2.0) * weights[a] * weights[b] * ((second @ c_all) @ c_all)
    # big jumps beyond R on either side reduce the second difference to a
    # plain increment of the other variable
    out += 2.0 * tail * gamma_like + (fz**2) * tail**2
    return 0.25 * out


def _gaussian_transforms(g0, a, d, beta, s_sq):
    """int g0 e^{-|xi|^2/(4a)} |xi|^beta e^{i<xi, y>} dxi at |y|^2 = s_sq, per
    beta: g0 |S^{d-1}|/2 (4a)^b Gamma(b) 1F1(b; d/2; -a s_sq), b = (beta + d)/2."""
    b = 0.5 * (np.asarray(beta, dtype=float) + d)
    return g0 * 0.5 * surface_area(d) * np.exp(gammaln(b) + b * math.log(4.0 * a)) * hyp1f1(b, 0.5 * d, -a * s_sq)


def _cross_integral(a, alpha, d, s_sq):
    """int_0^inf k^{alpha+d-1} A_d(k s) e^{-z} 1F1(-alpha/2; c; -z) dk, c = d/2,
    z = k^2/(8a).  Kummer's transformation writes the weight e^{-2z} 1F1(b; c; z),
    b = (alpha + d)/2, whose series integrates termwise to H_alpha(0)/g0 times
    sum_k e_k 1F1(b + k; c; -a s^2), e_k = (b)_k^2 / ((c)_k k! 2^k).  Each 1F1
    is a normalized transform of a nonnegative profile, so |1F1| <= 1; e_k
    falls like 2^{-k}, and the sum stops past its peak (ratio < 3/4) at a term
    below 1e-17 of it."""
    b, c = 0.5 * (alpha + d), 0.5 * d
    e, ratio = [1.0], math.inf
    while ratio >= 0.75 or e[-1] >= 1e-17 * sum(e):
        ratio = (b + len(e) - 1) ** 2 / (2.0 * (c + len(e) - 1) * len(e))
        e.append(e[-1] * ratio)
    series = math.fsum(np.array(e) * hyp1f1(b + np.arange(len(e)), c, -a * s_sq))
    return float(_gaussian_transforms(1.0, a, d, alpha, 0.0)) * series


def gamma2_symbol_value(f: TestFunction, alpha: float, d: int, x) -> float:
    """Inverse transform of the closed two-frequency symbol of the second
    iterate, for the rotationally invariant stable law, in any d, in closed
    form for F(f)(xi) = G(|xi|) e^{-i<xi, c>}, G(rho) = g0 e^{-rho^2/(4a)}.
    With g2 = (alpha^2/16) S^2 + (alpha^2/8) S, S = |xi|^alpha + |zeta|^alpha
    - |xi + zeta|^alpha, and s = |x - c|,

        (2 pi)^{2d} Gamma_2 = (alpha^2/16)(2 H_{2 alpha} H_0 + 2 H_alpha^2 + K_{2 alpha} - 4 M)
                              + (alpha^2/8)(2 H_alpha H_0 - K_alpha):

    H_beta transforms |xi|^beta G (``_gaussian_transforms``), K_beta does so
    for G * G = g0^2 (2 pi a)^{d/2} e^{-|w|^2/(8a)}, and in M, which pairs
    |xi|^alpha with |xi + zeta|^alpha, the xi integral at fixed xi + zeta is
    a noncentral Gaussian moment (``_cross_integral`` is what is left).
    a is the width in the bump's ``gauss`` = (amp, a) and g0 = G(0); a
    function that is not a plain Gaussian bump raises ``DomainError``."""
    if not 0.0 < alpha <= 2.0:
        raise DomainError(f"alpha must lie in (0, 2], got {alpha}")
    if f.gauss is None:
        raise DomainError("the symbol route needs a plain Gaussian bump")
    _check_dim(f, d)
    s_sq = float(np.sum((_point(x, d) - f.fourier_center) ** 2))
    a, g0 = f.gauss[1], float(f.radial_fourier(0.0))
    H0, Ha, H2a = _gaussian_transforms(g0, a, d, [0.0, alpha, 2.0 * alpha], s_sq)
    gg = g0 * g0 * (2.0 * math.pi * a) ** (0.5 * d)
    Ka, K2a = _gaussian_transforms(gg, 2.0 * a, d, [alpha, 2.0 * alpha], s_sq)
    M = gg * (2.0 * a) ** (0.5 * alpha) * math.exp(math.lgamma(0.5 * (alpha + d)) - math.lgamma(0.5 * d))
    M *= _cross_integral(a, alpha, d, s_sq)
    out = (alpha**2 / 16.0) * (2.0 * H2a * H0 + 2.0 * Ha**2 + K2a - 4.0 * M) + (alpha**2 / 8.0) * (2.0 * Ha * H0 - Ka)
    val = float(out / (2.0 * math.pi) ** (2 * d))
    if not math.isfinite(val):
        raise EvaluationError("the symbol route returned a non-finite value")
    return val


def bakry_emery_check(law: IDLaw, f_list: Sequence[TestFunction], grid) -> float:
    """Min over functions and grid points of Gamma_2 - (alpha/2) Gamma,
    evaluated through the structurally nonnegative decomposition, for the
    law of the isotropy rule ``levy._is_isotropic``; any other law raises
    ``UnsupportedFamilyError``."""
    alpha = _isotropic_alpha(law, centred=False)
    pts = _points(grid, law.dim)
    worst = math.inf
    for f in f_list:
        _check_dim(f, law.dim)
        gap = _second_difference_double(law, f, pts)
        worst = min(worst, float(np.min(gap)))
    return worst


# ---------------------------------------------------------------------------
# Poincaré-type inequality
# ---------------------------------------------------------------------------


def poincare_residual(law: IDLaw, f: TestFunction, n: int, seed: int, n_dirs: int = 16) -> MCEstimate:
    """E int (f(X+u) - f(X))^2 nu(du) - Var f(X); nonnegative (within
    noise) when the law satisfies the Poincaré-type inequality."""
    if not law.levy.tail_first_moment:
        raise RegimeError("the Poincaré-type inequality needs an integrable big-jump tail")
    kf = law.levy.kf
    if kf.family != "stable":
        raise UnsupportedFamilyError("only stable members are sampleable")
    batch = sample_stable_law(law, n, seed)
    f_mean = float(mc_expectation(lambda p: f.evaluate(p), batch).value)
    dens = density_nu(kf)
    sphere = quad_sphere_for(law, n_dirs)
    tables = _ray_tables("square", f, dens)

    def per_chunk(Z):
        energy = jump_square_chunk(f, Z, sphere, dens, tables=tables)
        fz = np.asarray(f.evaluate(Z), dtype=float)
        return energy - (fz - f_mean) ** 2

    return _chunked_mean(batch, per_chunk)


# ---------------------------------------------------------------------------
# rate integrals for the truncated-coordinate family
# ---------------------------------------------------------------------------


_RATE_LO = 1e-7


def _check_rate_args(alpha, d, j):
    if not (1.0 < alpha < 2.0):
        raise DomainError("the rate integrals need alpha in (1, 2)")
    if not (0 <= j < d):
        raise DomainError("coordinate index out of range")


def _check_radius(R):
    if not 0.0 < R < math.inf:
        raise DomainError(f"the truncation radius R must be positive and finite, got {R}")


def _radial_rate_quad(alpha, d, fn, n=4001):
    """int_0^H fn(rho) rho^{d-1} drho: Simpson on n nodes in u = log rho
    above _RATE_LO plus the analytic power-law cell below it (fn ~
    rho^{alpha-2} near 0).  The rate integrands carry e^{-rho^2/8}; H is
    taken from alpha and d so that the Gamma tail of e^{-rho^2/8}
    rho^{alpha+d-3} beyond it is 1e-12 of its whole mass (H = 14.6 at
    alpha = 1.5 in d = 2, 22.2 in d = 32)."""
    hi = math.sqrt(8.0 * gammainccinv((alpha + d - 2.0) / 2.0, 1e-12))
    u, w = _simpson_rule(math.log(_RATE_LO), math.log(hi), n)
    r = np.exp(u)
    val = float(np.dot(w, fn(r) * r**d))
    # small cell: fn rho^{d-1} ~ C rho^{alpha+d-3}
    c_small = fn(np.array([_RATE_LO]))[0] * _RATE_LO ** (2.0 - alpha)
    val += c_small * _RATE_LO ** (alpha + d - 2.0) / (alpha + d - 2.0)
    return val


def _numerator(alpha, d, R, n=4001):
    """E g_{R,j}^2 with the radial integral on n nodes."""
    F2 = gaussian_bump(d, a=2.0).radial_fourier  # transform of exp(-2|x|^2)

    def fn(rho):
        damp = np.exp(-(rho**alpha) / (2.0 * R**alpha))
        base = (alpha / 2.0) * rho ** (alpha - 2.0) * (1.0 + (alpha - 2.0) / d)
        corr = -(alpha**2 / 4.0) * R**-alpha * rho ** (2.0 * alpha - 2.0) / d
        return F2(rho) * (base + corr) * damp

    val = surface_area(d) * _radial_rate_quad(alpha, d, fn, n)
    return R ** (2.0 - alpha) * val / (2.0 * math.pi) ** d


def rate_numerator(alpha: float, d: int, R: float, j: int = 0) -> float:
    """E g_{R,j}^2 under the normalized stable law, by the exact
    frequency-domain formula (the variance, since E g = 0).  Rotation
    invariance makes it the same for every j."""
    _check_rate_args(alpha, d, j)
    _check_radius(R)
    return _numerator(alpha, d, R)


def rate_numerator_limit(alpha: float, d: int, j: int = 0) -> float:
    """Limit of E g^2 / R^(2-alpha): the damped terms dropped."""
    _check_rate_args(alpha, d, j)
    F2 = gaussian_bump(d, a=2.0).radial_fourier
    fn = lambda rho: F2(rho) * (alpha / 2.0) * rho ** (alpha - 2.0) * (1.0 + (alpha - 2.0) / d)
    return surface_area(d) * _radial_rate_quad(alpha, d, fn) / (2.0 * math.pi) ** d


def _sphere_averages(d: int, kappa):
    """E_0 = e^{-kappa} int_{S^{d-1}} e^{kappa cos theta} dsigma and
    E_1 = e^{-kappa} int_{S^{d-1}} cos theta e^{kappa cos theta} dsigma,
    theta the angle to a fixed axis:

        E_0 = (2 pi)^{d/2} ive(nu, kappa) / kappa^nu,
        E_1 = (2 pi)^{d/2} ive(nu + 1, kappa) / kappa^nu,   nu = d/2 - 1

    (1 + e^{-2 kappa} and 1 - e^{-2 kappa} in d = 1).  E_0 is read from
    I_nu = I_{nu+2} + (d/kappa) I_{nu+1}, whose orders are positive in every
    d (ive is twice as slow at nu = -1/2).  Below kappa = 1e-20 both are
    their kappa = 0 values to rounding."""
    nu = d / 2.0 - 1.0
    k = np.maximum(kappa, 1e-20)
    pref = (2.0 * math.pi) ** (d / 2.0) * k**-nu
    E1 = pref * ive(nu + 1.0, k)
    return (d / k) * E1 + pref * ive(nu + 2.0, k), E1


def _denominator(alpha, d, R, n=201):
    """E Gamma(g_{R,j}, g_{R,j}) on n |w| nodes and n |xi| nodes."""
    b = 1.0 + (alpha - 2.0) / d
    c = alpha**2 / (2.0 * d)
    xi, w_xi = _simpson_rule(_RATE_LO, 40.0, n, log=True)
    xi_s = xi / R
    jac_xi = w_xi * xi ** (d - 1)

    def fn(w):
        w_s = w / R
        A = (c / 2.0) * w_s ** (2.0 * alpha - 2.0) - (alpha / 2.0) * b * w_s ** (alpha - 2.0)
        K_w = -A * w_s**alpha + 2.0 * c * w_s ** (2.0 * alpha - 2.0) - alpha * b * w_s ** (alpha - 2.0)
        E0, E1 = _sphere_averages(d, np.outer(w, xi) / 2.0)
        gauss = np.exp(-((xi - w[:, None] / 2.0) ** 2) / 2.0)
        I_xi = A * ((gauss * E0) @ (jac_xi * xi_s**alpha))
        I_xi -= c * w_s ** (alpha - 1.0) * ((gauss * E1) @ (jac_xi * xi_s ** (alpha - 1.0)))
        damp = np.exp(-(w**2) / 8.0 - w**alpha / (2.0 * R**alpha))
        return damp * ((2.0 * math.pi) ** (d / 2.0) * K_w + 2.0 * I_xi)

    pref = math.pi**d * surface_area(d) / (2.0 * math.pi) ** (2 * d)
    return float(-(alpha / 4.0) * pref * _radial_rate_quad(alpha, d, fn, n))


def rate_denominator(alpha: float, d: int, R: float, j: int = 0) -> float:
    """E Gamma(g_{R,j}, g_{R,j}) by the exact double frequency integral, in
    every d and the same for every j (the law is rotation invariant).

    The kernel d_{xi_j} d_{zeta_j}[phi(w) S] / phi(w), w = xi + zeta,
    S = |xi|^alpha + |zeta|^alpha - |w|^alpha, is integrated against
    exp(-|v|^2/2 - |w|^2/8 - |w|^alpha/(2 R^alpha)), v = xi - w/2, with xi,
    zeta and w scaled by 1/R inside it.  Averaged over j, with
    b = 1 + (alpha-2)/d and A = (alpha^2/4d)|w|^(2 alpha-2) - (alpha/2) b |w|^(alpha-2),
    it is K_w + K_xi + K_zeta, where (theta the angle between xi and w)

        K_w = -A |w|^alpha + (alpha^2/d)|w|^(2 alpha-2) - alpha b |w|^(alpha-2),
        K_xi = A |xi|^alpha - (alpha^2/2d)|w|^(alpha-1)|xi|^(alpha-1) cos theta,

    and K_zeta integrates to the same value as K_xi.  In polar coordinates
    about xi = 0 the angle enters only through the sphere averages E_0, E_1
    of `_sphere_averages` at kappa = |xi||w|/2, so

        den = -(alpha/4) pi^d (2 pi)^{-2d} |S^{d-1}| int w^{d-1} e^{-w^alpha/(2 R^alpha) - w^2/8}
              [ (2 pi)^{d/2} K_w + 2 int xi^{d-1} e^{-(xi - w/2)^2/2}
                (A |xi|^alpha E_0 - (alpha^2/2d) |w|^(alpha-1) |xi|^(alpha-1) E_1) dxi ] dw.

    The singular sets xi = 0 and w = 0 sit at the origins of log grids:
    201 Simpson nodes in log |xi| on [1e-7, 40], and 201 in log |w| with
    the analytic w^(alpha-2) cell below 1e-7 (`_radial_rate_quad`)."""
    _check_rate_args(alpha, d, j)
    _check_radius(R)
    return _denominator(alpha, d, R)


def rate_denominator_limit(alpha: float, d: int, j: int = 0) -> float:
    """Limit of E Gamma(g,g) / R^(2-alpha): a single radial integral after
    the Gaussian in the difference variable integrates out."""
    _check_rate_args(alpha, d, j)
    omega = surface_area(d)
    gauss_v = (2.0 * math.pi) ** (d / 2.0)  # int exp(-|v|^2/2) dv
    fn = lambda w: np.exp(-(w**2) / 8.0) * w ** (alpha - 2.0) * (1.0 + (alpha - 2.0) / d)
    radial = omega * _radial_rate_quad(alpha, d, fn)
    return (alpha**2 / 4.0) * math.pi**d * gauss_v * radial / (2.0 * math.pi) ** (2 * d)


def u_ratio_curve(alpha: float, d: int, j: int, R_list: Sequence[float]) -> list:
    """Variance / energy ratio along the truncated coordinates, with the
    energy taken against the stable Lévy measure itself (so the ratio
    approaches one).  Each report's err is the change in the ratio when
    both sides are recomputed at half resolution: the numerator on 2001
    of its 4001 nodes, the denominator on 101 x 101 of its 201 x 201.
    Every R must be positive and finite, as for the two rate integrals."""
    radii = [float(R) for R in R_list]
    for R in radii:
        _check_radius(R)
    out = []
    for R in radii:
        num, den = rate_numerator(alpha, d, R, j), (2.0 / alpha) * rate_denominator(alpha, d, R, j)
        num_lo, den_lo = _numerator(alpha, d, R, 2001), (2.0 / alpha) * _denominator(alpha, d, R, 101)
        ratio = num / den
        err = abs(num - num_lo) / den + ratio * abs(den - den_lo) / den
        out.append(RatioReport(R=R, numerator=num, denominator=den, ratio=ratio, err=err))
    return out


def export_ratio_csv(reports: Sequence[RatioReport], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["R", "numerator", "denominator", "ratio", "err"])
        for r in reports:
            writer.writerow([r.R, r.numerator, r.denominator, r.ratio, r.err])
