"""Non-local Dirichlet-form machinery for the rotationally invariant
stable laws: the carré-du-champs operator and its second iterate by
three independent routes, the curvature lower bound, the Poincaré-type
inequality, and the variance-ratio functional probed along smoothly
truncated coordinates.

The rate integrals live in the frequency domain, where the truncation
family has closed transforms; the weakly singular radial factors
|xi|^(alpha-2) and |xi|^(alpha-4) xi_j^2 are integrated in polar
coordinates, whose volume element restores integrability.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ._errors import DomainError, RegimeError, UnsupportedFamilyError
from .jumps import (
    _along_directions,
    _cutoff,
    _increment,
    _is_constant,
    _radial_rule,
    _reach,
    _shifted_eval,
    density_nu,
    density_tilde,
    jump_ball_chunk,
    jump_square_chunk,
    quad_sphere_for,
)
from .levy import IDLaw
from .numerics import TestFunction, _ray_points, gaussian_bump, grad_fd, surface_area
from .sampling import MCEstimate, mc_expectation, sample_stable_law
from .stein import _chunked_mean, generator_apply, generator_tilt

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
        if self.numerator <= 0.0 or self.denominator <= 0.0:
            raise DomainError("ratio numerator and denominator must be positive")


# ---------------------------------------------------------------------------
# carré du champs
# ---------------------------------------------------------------------------


def _gamma1_integral_at(f, g, X, sphere, dens, n_small=24, per_octave=12):
    """(1/2) int (f(x+u)-f(x))(g(x+u)-g(x)) dnu~ at each row of X."""
    if _is_constant(f) or _is_constant(g):
        return np.zeros(X.shape[0])
    fz = np.asarray(f.evaluate(X), dtype=float)
    gz = np.asarray(g.evaluate(X), dtype=float)
    R_want = _cutoff(X, max(_reach(f), _reach(g)), dens)
    r, c, _, tail = _radial_rule(dens, R_want, 2, 0, n_small, per_octave)

    def increment(x, rows):
        inc = _increment(f, X[rows], x, r, fz[rows])
        inc *= _increment(g, X[rows], x, r, gz[rows])
        return inc

    radial = _along_directions(sphere, c, X.shape[0], increment)
    return 0.5 * (sphere.weights @ radial + fz * gz * tail * sphere.total_mass)


def gamma1(law: IDLaw, f: TestFunction, g: TestFunction, x, route: str = "integral") -> float:
    """Carré du champs Gamma(f, g)(x), either as the squared-increment
    integral against the derived measure or through the generator algebra
    (1/2)(A(fg) - f A g - g A f)."""
    x = np.asarray(x, dtype=float)
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
    plus (alpha/4) of the squared increment (rotationally invariant
    stable only).  'symbol': inverse transform of the closed two-frequency
    symbol.  'recursion': (1/2)(A Gamma(f,f) - 2 Gamma(A f, f)) with the
    inner objects evaluated by quadrature."""
    x = np.asarray(x, dtype=float)
    if _is_constant(f):
        return 0.0
    kf = law.levy.kf
    if route == "integral":
        alpha = _require_isotropic_stable(law)
        gap = _second_difference_double(law, f, x[None, :])[0]
        g1 = _gamma1_integral_at(
            f, f, x[None, :], quad_sphere_for(law, 48), density_tilde(kf)
        )[0]
        return float(gap + 0.5 * alpha * g1)
    if route == "symbol":
        alpha = _require_isotropic_stable(law)
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


def _require_isotropic_stable(law: IDLaw) -> float:
    kf = law.levy.kf
    if kf.family != "stable":
        raise UnsupportedFamilyError("this route needs the rotationally invariant stable law")
    return kf.alpha


def _second_difference_double(law, f, X, n_small=12, per_octave=8):
    """(1/4) iint (f(x+u+v) - f(x+u) - f(x+v) + f(x))^2 dnu~ dnu~ per row."""
    if _is_constant(f):
        return np.zeros(X.shape[0])
    dens = density_tilde(law.levy.kf)
    sphere = quad_sphere_for(law, 24 if law.dim > 1 else 32)
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


def gamma2_symbol_value(f: TestFunction, alpha: float, d: int, x) -> float:
    """Inverse transform of the closed two-frequency symbol of the second
    iterate, for the rotationally invariant stable law."""
    x = np.asarray(x, dtype=float)
    if d == 1:
        if f.fourier is None:
            raise DomainError("symbol route needs a test function with a transform")
        xi = _simpson_grid(-14.0, 14.0, 769)
        Fxi = np.asarray(f.fourier(xi.nodes[:, None]))
        phase = np.exp(1j * np.outer(xi.nodes, np.array([x[0]])))[:, 0]
        A = np.abs(xi.nodes)[:, None] ** alpha + np.abs(xi.nodes)[None, :] ** alpha
        K = np.abs(xi.nodes[:, None] + xi.nodes[None, :]) ** alpha
        S = A - K
        g2 = (alpha**2 / 16.0) * S**2 + (alpha**2 / 8.0) * S
        w = xi.weights
        val = np.einsum(
            "i,j,i,j,ij->", Fxi * phase, Fxi * phase, w, w, g2
        ) / (2.0 * math.pi) ** 2
        return float(np.real(val))
    if d == 2:
        if f.radial_fourier is None or f.fourier_center is None:
            raise DomainError("the planar symbol route needs a radially shifted bump")
        s = float(np.linalg.norm(x - f.fourier_center))
        rho = _simpson_grid(0.0, 14.0, 385)
        delta = _simpson_grid(0.0, 2.0 * math.pi, 257)
        G = np.real(np.asarray(f.radial_fourier(rho.nodes), dtype=complex))
        P, T = np.meshgrid(rho.nodes, rho.nodes, indexing="ij")
        out = 0.0
        from scipy.special import j0

        for dl, wl in zip(delta.nodes, delta.weights):
            kappa = np.sqrt(np.maximum(P**2 + T**2 + 2.0 * P * T * math.cos(dl), 0.0))
            S = P**alpha + T**alpha - kappa**alpha
            g2 = (alpha**2 / 16.0) * S**2 + (alpha**2 / 8.0) * S
            bess = j0(kappa * s)
            out += wl * np.einsum(
                "i,j,ij->", G * rho.nodes * rho.weights, G * rho.nodes * rho.weights, g2 * bess
            )
        return float(out * 2.0 * math.pi / (2.0 * math.pi) ** 4)
    raise UnsupportedFamilyError("symbol route implemented for d in {1, 2}")


@dataclass(frozen=True)
class _Rule:
    nodes: np.ndarray
    weights: np.ndarray


def _simpson_grid(lo, hi, n) -> _Rule:
    if n % 2 == 0:
        n += 1
    x = np.linspace(lo, hi, n)
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return _Rule(x, w * (x[1] - x[0]) / 3.0)


def bakry_emery_check(law: IDLaw, f_list: Sequence[TestFunction], grid) -> float:
    """Min over functions and grid points of Gamma_2 - (alpha/2) Gamma,
    evaluated through the structurally nonnegative decomposition."""
    alpha = _require_isotropic_stable(law)
    pts = np.atleast_2d(np.asarray(grid, dtype=float))
    worst = math.inf
    for f in f_list:
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

    def per_chunk(Z):
        energy = jump_square_chunk(f, Z, sphere, dens)
        fz = np.asarray(f.evaluate(Z), dtype=float)
        return energy - (fz - f_mean) ** 2

    return _chunked_mean(batch, per_chunk)


# ---------------------------------------------------------------------------
# rate integrals for the truncated-coordinate family
# ---------------------------------------------------------------------------


def _radial_rate_quad(alpha, d, fn, lo=1e-7, hi=14.0):
    """int_0^hi fn(rho) rho^{d-1} drho on a log grid plus the analytic
    power-law cell below lo (fn ~ rho^{alpha-2} near 0)."""
    u = np.linspace(math.log(lo), math.log(hi), 4001)
    r = np.exp(u)
    w = np.full(r.size, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    w *= (u[1] - u[0]) / 3.0
    val = float(np.dot(w, fn(r) * r**d))
    # small cell: fn rho^{d-1} ~ C rho^{alpha+d-3}
    c_small = fn(np.array([lo]))[0] * lo ** (2.0 - alpha)
    val += c_small * lo ** (alpha + d - 2.0) / (alpha + d - 2.0)
    return val


def _psi2_transform(d):
    # transform of exp(-2|x|^2)
    return lambda rho: (math.pi / 2.0) ** (d / 2.0) * np.exp(-np.asarray(rho) ** 2 / 8.0)


def rate_numerator(alpha: float, d: int, R: float, j: int = 0) -> float:
    """E g_{R,j}^2 under the normalized stable law, by the exact
    frequency-domain formula (the variance, since E g = 0)."""
    if not (1.0 < alpha < 2.0):
        raise DomainError("the rate integrals need alpha in (1, 2)")
    F2 = _psi2_transform(d)
    omega = surface_area(d)

    def fn(rho):
        damp = np.exp(-(rho**alpha) / (2.0 * R**alpha))
        base = (alpha / 2.0) * rho ** (alpha - 2.0) * (1.0 + (alpha - 2.0) / d)
        corr = -(alpha**2 / 4.0) * R**-alpha * rho ** (2.0 * alpha - 2.0) / d
        return F2(rho) * (base + corr) * damp

    val = omega * _radial_rate_quad(alpha, d, fn)
    return R ** (2.0 - alpha) * val / (2.0 * math.pi) ** d


def rate_numerator_limit(alpha: float, d: int, j: int = 0) -> float:
    """Limit of E g^2 / R^(2-alpha): the damped terms dropped."""
    if not (1.0 < alpha < 2.0):
        raise DomainError("the rate integrals need alpha in (1, 2)")
    F2 = _psi2_transform(d)
    omega = surface_area(d)
    fn = lambda rho: F2(rho) * (alpha / 2.0) * rho ** (alpha - 2.0) * (1.0 + (alpha - 2.0) / d)
    return omega * _radial_rate_quad(alpha, d, fn) / (2.0 * math.pi) ** d


def _m_alpha(xi, zeta, j, alpha):
    """Second mixed derivative kernel of the energy's frequency form."""
    nx = np.linalg.norm(xi, axis=-1)
    nz = np.linalg.norm(zeta, axis=-1)
    w = xi + zeta
    nw = np.linalg.norm(w, axis=-1)
    nw_safe = np.where(nw > 0, nw, 1.0)
    nx_safe = np.where(nx > 0, nx, 1.0)
    S = nx**alpha + nz**alpha - nw**alpha
    wj = w[..., j]
    xj = xi[..., j]
    first = (
        -(alpha / 2.0) * wj * nw_safe ** (alpha - 2.0) * S
        + alpha * (xj * nx_safe ** (alpha - 2.0) - wj * nw_safe ** (alpha - 2.0))
    )
    second = (
        -(alpha / 2.0) * nw_safe ** (alpha - 2.0) * S
        - (alpha / 2.0) * (alpha - 2.0) * wj**2 * nw_safe ** (alpha - 4.0) * S
        - alpha * nw_safe ** (alpha - 2.0)
        - alpha * (alpha - 2.0) * wj**2 * nw_safe ** (alpha - 4.0)
    )
    return first * (-(alpha / 2.0) * wj * nw_safe ** (alpha - 2.0)) + second


def _psi_transform(d):
    # transform of exp(-|x|^2)
    return lambda rho: math.pi ** (d / 2.0) * np.exp(-np.asarray(rho) ** 2 / 4.0)


def _log_simpson_nodes(lo, hi, n) -> _Rule:
    if n % 2 == 0:
        n += 1
    u = np.linspace(math.log(lo), math.log(hi), n)
    r = np.exp(u)
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return _Rule(r, w * (u[1] - u[0]) / 3.0 * r)


def _sphere_rule(d: int, n: int):
    """Directions/weights integrating over the unit sphere (exact mass)."""
    if d == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    grid = _simpson_grid(0.0, 2.0 * math.pi, n)
    # drop the duplicated endpoint by folding its weight onto the start
    th = grid.nodes[:-1]
    w = grid.weights[:-1].copy()
    w[0] += grid.weights[-1]
    return np.stack([np.cos(th), np.sin(th)], axis=1), w


def rate_denominator(alpha: float, d: int, R: float, j: int = 0) -> float:
    """E Gamma(g_{R,j}, g_{R,j}) by the exact double frequency integral.

    In the sum/difference coordinates w = xi + zeta, v = (xi - zeta)/2 the
    Gaussian transforms separate and the kernel's singular set becomes the
    origin of the w polar grid."""
    if not (1.0 < alpha < 2.0):
        raise DomainError("the rate integrals need alpha in (1, 2)")
    if d > 2:
        raise UnsupportedFamilyError("rate_denominator implemented for d in {1, 2}")
    rho_w = _log_simpson_nodes(1e-5, 28.0, 401)
    rho_v_half = _simpson_grid(0.0, 14.0, 65 if d == 2 else 385)
    dirs_w, wdirs_w = _sphere_rule(d, 33)
    dirs_v, wdirs_v = _sphere_rule(d, 33)
    pref = math.pi**d / (2.0 * math.pi) ** (2 * d)
    wv, ww = np.meshgrid(rho_v_half.nodes, rho_w.nodes, indexing="ij")
    gauss = np.exp(-(wv**2) / 2.0 - (ww**2) / 8.0 - (ww**alpha) / (2.0 * R**alpha))
    weight = np.outer(
        rho_v_half.weights * rho_v_half.nodes ** (d - 1),
        rho_w.weights * rho_w.nodes ** (d - 1),
    )
    total = 0.0
    for w_dir, wtw in zip(dirs_w, wdirs_w):
        for v_dir, wtv in zip(dirs_v, wdirs_v):
            v_vec = wv[..., None] * v_dir
            w_vec = ww[..., None] * w_dir
            xi = (v_vec + 0.5 * w_vec) / R
            zeta = (-v_vec + 0.5 * w_vec) / R
            m = _m_alpha(xi, zeta, j, alpha)
            total += wtw * wtv * float(np.sum(gauss * weight * m))
    return float(-(alpha / 4.0) * pref * total)


def rate_denominator_limit(alpha: float, d: int, j: int = 0) -> float:
    """Limit of E Gamma(g,g) / R^(2-alpha): a single radial integral after
    the Gaussian in the difference variable integrates out."""
    if not (1.0 < alpha < 2.0):
        raise DomainError("the rate integrals need alpha in (1, 2)")
    omega = surface_area(d)
    gauss_v = (2.0 * math.pi) ** (d / 2.0)  # int exp(-|v|^2/2) dv
    fn = lambda w: np.exp(-(w**2) / 8.0) * w ** (alpha - 2.0) * (1.0 + (alpha - 2.0) / d)
    radial = omega * _radial_rate_quad(alpha, d, fn)
    return (
        (alpha**2 / 4.0)
        * math.pi**d
        * gauss_v
        * radial
        / (2.0 * math.pi) ** (2 * d)
    )


def u_ratio_curve(alpha: float, d: int, j: int, R_list: Sequence[float]) -> list:
    """Variance / energy ratio along the truncated coordinates, with the
    energy taken against the stable Lévy measure itself (so the ratio
    approaches one)."""
    out = []
    for R in R_list:
        num = rate_numerator(alpha, d, float(R), j)
        den = (2.0 / alpha) * rate_denominator(alpha, d, float(R), j)
        # error bars from halved-resolution reruns of the numerator side
        num_lo = _rate_numerator_coarse(alpha, d, float(R), j)
        err = abs(num - num_lo) / max(den, 1e-300) + 1e-4
        out.append(RatioReport(R=float(R), numerator=num, denominator=den, ratio=num / den, err=err))
    return out


def _rate_numerator_coarse(alpha, d, R, j):
    F2 = _psi2_transform(d)
    omega = surface_area(d)

    def fn(rho):
        damp = np.exp(-(rho**alpha) / (2.0 * R**alpha))
        base = (alpha / 2.0) * rho ** (alpha - 2.0) * (1.0 + (alpha - 2.0) / d)
        corr = -(alpha**2 / 4.0) * R**-alpha * rho ** (2.0 * alpha - 2.0) / d
        return F2(rho) * (base + corr) * damp

    u = np.linspace(math.log(1e-6), math.log(14.0), 801)
    r = np.exp(u)
    val = omega * float(np.trapezoid(fn(r) * r**d, u))
    return R ** (2.0 - alpha) * val / (2.0 * math.pi) ** d


def export_ratio_csv(reports: Sequence[RatioReport], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["R", "numerator", "denominator", "ratio", "err"])
        for r in reports:
            writer.writerow([r.R, r.numerator, r.denominator, r.ratio, r.err])
