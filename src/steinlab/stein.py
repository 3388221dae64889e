"""Stein operators for self-decomposable targets: covariance-identity
residuals in every integrability regime, the non-local generator, the
interpolating semigroup, and the equation solver with its verification.

Residual estimators draw exact stable samples and evaluate the inner
jump integral by quadrature per sample point; each estimator returns the
per-regime identity's left-minus-right side as a Monte Carlo estimate
whose distance from zero (in standard errors) is the test statistic.

The semigroup path uses the radial frequency representation: for h with
a radial transform profile G(rho) centered at c,

    P_t h(x) = (2pi)^-d int_0^inf G(rho) A_d(rho |y|) Phi_t(rho) rho^{d-1} drho,

with y = e^{-t} x - c, A_d the spherical phase average, and Phi_t the
characteristic-function ratio of the interpolating family.  Solutions of
the Stein equation are time integrals of this kernel, tabulated on a
(t, |y|) grid with cubic splines so that downstream quadratures can
evaluate them densely at negligible cost.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import jv

from ._errors import DomainError, RegimeError, UnsupportedFamilyError
from .jumps import (
    _along_directions,
    _is_constant,
    _radial_rule,
    density_nu,
    density_tilde,
    jump_ball_chunk,
    jump_grad_diff_chunk,
    jump_raw_chunk,
    jump_vector_chunk,
    quad_sphere_for,
)
from .levy import IDLaw, c_alpha_d, cauchy_c, convert_representation
from .numerics import TestFunction, _ray_points
from .sampling import MCEstimate, _chunked_mean, mc_expectation, sample_residual_law, sample_stable_law

__all__ = [
    "SteinResidual",
    "SteinSolution",
    "residual_regime",
    "residual_id",
    "residual_stable_sub1",
    "residual_cauchy",
    "residual_sd",
    "generator_apply",
    "semigroup_apply",
    "stein_solve",
    "verify_stein_solution",
]

REGIMES = ("id_first_moment", "stable_sub1", "cauchy", "sd_small_jump", "sd_general")


@dataclass(frozen=True)
class SteinResidual:
    """Left-minus-right of a characterization identity, as an MC estimate
    with a per-term breakdown."""

    estimate: MCEstimate
    regime: str
    diagnostics: dict

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise DomainError(f"unknown regime {self.regime!r}")

    def passes(self, n_se: float = 3.0) -> bool:
        return self.estimate.within(0.0, n_se)

    def to_json(self) -> str:
        est = self.estimate
        return json.dumps(
            {
                "regime": self.regime,
                "estimate": np.atleast_1d(est.value).tolist(),
                "std_error": np.atleast_1d(est.std_error).tolist(),
                "n": est.n,
                "per_term": {k: np.atleast_1d(v).tolist() for k, v in self.diagnostics.items()},
            },
            sort_keys=True,
        )


def residual_regime(law: IDLaw) -> str:
    """Canonical residual variant for a law's integrability structure."""
    kf = law.levy.kf
    if kf.family == "custom":
        raise UnsupportedFamilyError("custom profiles carry no declared limit behavior")
    if kf.r_k_limit_matches_k1:
        return "cauchy"
    if kf.r_k_limit_zero and law.levy.small_jump_first_moment:
        return "sd_small_jump"
    if law.levy.tail_first_moment:
        return "sd_general"
    raise RegimeError(
        "no residual variant matches: small jumps lack a first moment and so does the tail"
    )


def _require_gradient(f: TestFunction):
    if f.gradient is None:
        raise DomainError("this residual needs a test function with a gradient")


# ---------------------------------------------------------------------------
# covariance-identity residuals
# ---------------------------------------------------------------------------


def residual_id(
    law: IDLaw,
    f: TestFunction,
    n: int,
    seed: int,
    n_dirs: int = 32,
    use_known_mean: bool = True,
) -> SteinResidual:
    """E X f(X) - E X E f(X) - E int (f(X+u) - f(X)) u nu(du).

    With ``use_known_mean`` the product term uses the law's exact mean,
    which keeps every per-sample statistic bounded (sharp standard
    errors).  Without it both factors are sample means, so a constant f
    gives exactly zero but the error bars inherit the heavy tail of the
    sample mean.  Finite-mean regime only."""
    kf = law.levy.kf
    if kf.family != "stable" or not (1.0 < kf.alpha < 2.0):
        raise UnsupportedFamilyError("the finite-mean residual samples stable laws with alpha in (1,2)")
    batch = sample_stable_law(law, n, seed)
    mean_vec = convert_representation(law, "center_b1").shift
    dens = density_nu(kf)
    sphere = quad_sphere_for(law, n_dirs)

    if use_known_mean:

        def per_chunk(Z):
            fz = np.asarray(f.evaluate(Z), dtype=float)
            jump = jump_vector_chunk(f, Z, sphere, dens)
            return Z * fz[:, None] - mean_vec[None, :] * fz[:, None] - jump

        est = _chunked_mean(batch, per_chunk)
        diag = {"mean_vector": mean_vec}
        return SteinResidual(estimate=est, regime="id_first_moment", diagnostics=diag)

    def per_chunk_terms(Z):
        fz = np.asarray(f.evaluate(Z), dtype=float)
        jump = jump_vector_chunk(f, Z, sphere, dens)
        return np.concatenate([Z * fz[:, None], jump, Z, fz[:, None]], axis=1)

    raw = _chunked_mean(batch, per_chunk_terms)
    d = law.dim
    xf, jump, xbar, fbar = (
        raw.value[:d],
        raw.value[d : 2 * d],
        raw.value[2 * d : 3 * d],
        raw.value[3 * d],
    )
    value = xf - xbar * fbar - jump
    se = (
        raw.std_error[:d]
        + raw.std_error[d : 2 * d]
        + abs(fbar) * raw.std_error[2 * d : 3 * d]
        + np.abs(xbar) * raw.std_error[3 * d]
    )
    est = MCEstimate(value=value, std_error=se, n=n)
    return SteinResidual(
        estimate=est, regime="id_first_moment", diagnostics={"sample_mean": xbar, "f_mean": fbar}
    )


def residual_stable_sub1(
    law: IDLaw, f: TestFunction, n: int, seed: int, n_dirs: int = 32
) -> SteinResidual:
    """E <X, grad f(X)> - E <b0, grad f(X)> - alpha E int (f(X+u) - f(X)) nu(du)
    for stable laws with index below one (drift representation)."""
    kf = law.levy.kf
    if kf.family != "stable" or not (0.0 < kf.alpha < 1.0):
        raise RegimeError("this identity is specific to stable laws with alpha in (0, 1)")
    _require_gradient(f)
    alpha = kf.alpha
    b0 = convert_representation(law, "drift_b0").shift
    batch = sample_stable_law(law, n, seed)
    dens = density_nu(kf)
    sphere = quad_sphere_for(law, n_dirs)

    def per_chunk(Z):
        g = np.asarray(f.gradient(Z), dtype=float)
        drift_term = ((Z - b0[None, :]) * g).sum(axis=1)
        return drift_term - alpha * jump_raw_chunk(f, Z, sphere, dens)

    est = _chunked_mean(batch, per_chunk)
    return SteinResidual(estimate=est, regime="stable_sub1", diagnostics={"b0": b0})


def _ball_residual(law, f, n, seed, n_dirs, regime, include_correction=True):
    kf = law.levy.kf
    _require_gradient(f)
    trip = convert_representation(law, "triplet_b")
    b = trip.shift
    k1 = float(kf.k(1.0))
    mean_dir = law.levy.sphere.weights @ law.levy.sphere.atoms
    batch = sample_stable_law(law, n, seed)
    dens = density_tilde(kf)  # coincides with k/r when alpha = 1
    sphere = quad_sphere_for(law, n_dirs)
    corr_vec = k1 * mean_dir if include_correction else np.zeros_like(mean_dir)

    def per_chunk(Z):
        g = np.asarray(f.gradient(Z), dtype=float)
        drift_term = ((Z - b[None, :]) * g).sum(axis=1)
        asym = g @ corr_vec
        return drift_term + asym - jump_ball_chunk(f, Z, sphere, dens)

    est = _chunked_mean(batch, per_chunk)
    diag = {"b": b, "k1_correction": corr_vec}
    return SteinResidual(estimate=est, regime=regime, diagnostics=diag)


def residual_cauchy(
    law: IDLaw, f: TestFunction, n: int, seed: int, n_dirs: int = 32, include_correction: bool = True
) -> SteinResidual:
    """Five-term identity for index-one stable laws; the spherical-mean
    correction term is present whenever the sphere is asymmetric (it
    vanishes identically on symmetric grids)."""
    kf = law.levy.kf
    if kf.family != "stable" or kf.alpha != 1.0:
        raise RegimeError("the index-one identity needs a stable law with alpha = 1")
    return _ball_residual(law, f, n, seed, n_dirs, "cauchy", include_correction)


def residual_sd(
    law: IDLaw, variant: str, f: TestFunction, n: int, seed: int, n_dirs: int = 32
) -> SteinResidual:
    """Self-decomposable residuals against the derived measure.

    'small_jump': E <X - b0, grad f> = E int (f(X+u) - f(X)) dnu~, valid
    when r k(r) -> 0 and small jumps are integrable.  'general': the
    compensated form with the k(1) spherical correction.  Only stable
    members are sampleable; other families raise."""
    kf = law.levy.kf
    if variant == "small_jump":
        if not kf.r_k_limit_zero:
            raise RegimeError(
                "small-jump variant needs r k(r) -> 0 at the origin; this profile's "
                "limit is k(1)-like or divergent"
            )
        if not law.levy.small_jump_first_moment:
            raise RegimeError("small-jump variant needs an integrable small-jump part")
        if kf.family != "stable":
            raise UnsupportedFamilyError("only stable members are sampleable")
        _require_gradient(f)
        b0 = convert_representation(law, "drift_b0").shift
        batch = sample_stable_law(law, n, seed)
        dens = density_tilde(kf)
        sphere = quad_sphere_for(law, n_dirs)

        def per_chunk(Z):
            g = np.asarray(f.gradient(Z), dtype=float)
            drift_term = ((Z - b0[None, :]) * g).sum(axis=1)
            return drift_term - jump_raw_chunk(f, Z, sphere, dens)

        est = _chunked_mean(batch, per_chunk)
        return SteinResidual(estimate=est, regime="sd_small_jump", diagnostics={"b0": b0})
    if variant == "general":
        if kf.family != "stable":
            raise UnsupportedFamilyError("only stable members are sampleable")
        return _ball_residual(law, f, n, seed, n_dirs, "sd_general")
    raise DomainError("variant must be 'small_jump' or 'general'")


def residual_sd_finite_mean_form(
    law: IDLaw, f: TestFunction, n: int, seed: int, n_dirs: int = 32
) -> SteinResidual:
    """Finite-mean rewriting of the general identity:
    E <EX - X, grad f(X)> + E int <grad f(X+u) - grad f(X), u> nu(du) = 0."""
    kf = law.levy.kf
    if kf.family != "stable" or not (1.0 < kf.alpha < 2.0):
        raise RegimeError("the finite-mean rewriting needs a stable law with alpha in (1, 2)")
    _require_gradient(f)
    mean_vec = convert_representation(law, "center_b1").shift
    batch = sample_stable_law(law, n, seed)
    dens = density_nu(kf)
    sphere = quad_sphere_for(law, n_dirs)

    def per_chunk(Z):
        g = np.asarray(f.gradient(Z), dtype=float)
        mean_term = ((mean_vec[None, :] - Z) * g).sum(axis=1)
        return mean_term + jump_grad_diff_chunk(f, Z, sphere, dens)

    est = _chunked_mean(batch, per_chunk)
    return SteinResidual(estimate=est, regime="sd_general", diagnostics={"mean": mean_vec})


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


def generator_tilt(law: IDLaw) -> np.ndarray:
    """b~ = b - int k_y(1) y sigma(dy), the linear coefficient of the
    generator's drift part."""
    trip = convert_representation(law, "triplet_b")
    mean_dir = law.levy.sphere.weights @ law.levy.sphere.atoms
    return trip.shift - float(law.levy.kf.k(1.0)) * mean_dir


def generator_apply(law: IDLaw, f: TestFunction, x, n_dirs: int = 64) -> float:
    """A f(x) = <b~ - x, grad f(x)> + int (f(x+u) - f(x) - <grad f(x), u>
    1_{|u|<=1}) dnu~(u), by quadrature."""
    _require_gradient(f)
    x = np.asarray(x, dtype=float)
    dens = density_tilde(law.levy.kf)
    sphere = quad_sphere_for(law, n_dirs)
    bt = generator_tilt(law)
    drift = float((bt - x) @ np.asarray(f.gradient(x), dtype=float))
    nonlocal_part = float(jump_ball_chunk(f, x[None, :], sphere, dens, n_small=32, per_octave=16)[0])
    return drift + nonlocal_part


# ---------------------------------------------------------------------------
# semigroup in the radial frequency representation
# ---------------------------------------------------------------------------


def _isotropic_alpha(law: IDLaw) -> float:
    kf = law.levy.kf
    if kf.family != "stable":
        raise UnsupportedFamilyError("semigroup evaluation is provided for stable laws")
    d = law.dim
    iso_amp = cauchy_c(d) if kf.alpha == 1.0 else c_alpha_d(kf.alpha, d)
    if not law.levy.sphere.is_symmetric() or abs(kf.c - iso_amp) > 1e-10 * iso_amp:
        raise UnsupportedFamilyError(
            "semigroup evaluation needs the normalized rotationally invariant law"
        )
    if np.any(law.shift != 0.0):
        raise UnsupportedFamilyError("semigroup evaluation needs the centered law")
    return kf.alpha


def _kernels(d: int, z):
    """A_d(z) = int_{S^{d-1}} e^{i z <e, w>} dw  and  B_d(z) = A_d'(z) / z.

    Exact closed forms for d <= 3 (cosine, Bessel J0/J1, sinc); the
    general Bessel-quotient form with series guards otherwise."""
    z = np.asarray(z, dtype=float)
    if d == 1:
        return 2.0 * np.cos(z), -2.0 * np.sinc(z / math.pi)
    if d == 2:
        from scipy.special import j0, j1

        a = 2.0 * math.pi * j0(z)
        zz = z * z
        small = np.abs(z) < 1e-4
        with np.errstate(invalid="ignore", divide="ignore"):
            b = np.where(small, 0.5 * (1.0 - zz / 8.0), j1(np.where(small, 1.0, z)) / np.where(small, 1.0, z))
        return a, -2.0 * math.pi * b
    if d == 3:
        a = 4.0 * math.pi * np.sinc(z / math.pi)
        zz = z * z
        small = np.abs(z) < 1e-3
        zs = np.where(small, 1.0, z)
        with np.errstate(invalid="ignore", divide="ignore"):
            b = np.where(
                small,
                (1.0 - zz / 10.0) / 3.0,
                (np.sin(zs) - zs * np.cos(zs)) / zs**3,
            )
        return a, -4.0 * math.pi * b
    nu = d / 2.0 - 1.0
    pref = (2.0 * math.pi) ** (d / 2.0)
    zz = np.maximum(np.abs(z), 1e-12)
    with np.errstate(invalid="ignore", divide="ignore"):
        a = pref * jv(nu, zz) / zz**nu
        b = -pref * jv(nu + 1.0, zz) / zz ** (nu + 1.0)
    small = np.abs(z) < 1e-6
    a = np.where(small, pref / (2.0**nu * math.gamma(nu + 1.0)), a)
    b = np.where(small, -pref / (2.0 ** (nu + 1.0) * math.gamma(nu + 2.0)), b)
    return a, b


def _rho_rule(h: TestFunction, budget: int):
    """Simpson rho-grid covering the transform profile's support."""
    # infer the Gaussian width from the profile: G(rho) = G(0) e^{-rho^2/(4a)}
    g0 = float(np.real(h.radial_fourier(np.array([0.0]))[0]))
    g1 = float(np.real(h.radial_fourier(np.array([1.0]))[0]))
    a = 0.25 / max(math.log(max(g0, 1e-300) / max(g1, 1e-300)), 1e-6)
    rho_max = math.sqrt(max(4.0 * a * 42.0, 1.0))
    n = 512 * budget + 1
    rho = np.linspace(0.0, rho_max, n)
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    w *= (rho[1] - rho[0]) / 3.0
    return rho, w


def _phi_ratio(alpha: float, rho, t):
    return np.exp(-np.asarray(rho) ** alpha * (1.0 - math.exp(-alpha * t)) / 2.0)


def _pt_tables(h: TestFunction, alpha: float, d: int, t_nodes, s_grid, budget: int = 1):
    """Phi and Lambda on the (t, s) grid in one pass.

    Phi[i, j] = P_{t_i} h at any x with |e^{-t_i} x - c| = s_j, and the
    gradient's radial factor Lambda with P_t(grad h)(x) = y Lambda_t(|y|).
    The spherical phase kernel depends only on rho * s, so a single
    kernel matrix serves every time node."""
    rho, w = _rho_rule(h, budget)
    gh = np.real(np.asarray(h.radial_fourier(rho), dtype=complex))
    z = np.outer(np.asarray(s_grid, dtype=float), rho)
    a_k, b_k = _kernels(d, z)
    pref = (2.0 * math.pi) ** (-d)
    damp = np.exp(-0.5 * np.outer(1.0 - np.exp(-alpha * np.asarray(t_nodes)), rho**alpha))
    base = (gh * rho ** (d - 1) * w)[None, :] * damp  # (n_t, n_rho)
    phi = pref * (base @ a_k.T)
    lam = pref * ((base * rho[None, :] ** 2) @ b_k.T)
    return phi, lam


def _pt_profile(h: TestFunction, alpha: float, d: int, t: float, s_grid, budget: int = 1):
    phi, lam = _pt_tables(h, alpha, d, np.array([t]), s_grid, budget)
    return phi[0], lam[0]


def _mean_h(h: TestFunction, alpha: float, d: int, budget: int = 1) -> float:
    rho, w = _rho_rule(h, budget)
    gh = np.real(np.asarray(h.radial_fourier(rho), dtype=complex))
    c = h.fourier_center if h.fourier_center is not None else np.zeros(d)
    a_k, _ = _kernels(d, np.linalg.norm(c) * rho)
    pref = (2.0 * math.pi) ** (-d)
    return float(pref * np.sum(gh * np.exp(-(rho**alpha) / 2.0) * rho ** (d - 1) * w * a_k))


def semigroup_apply(
    law: IDLaw,
    h: TestFunction,
    t: float,
    x,
    mode: str = "fourier",
    n: int = 200_000,
    seed: int = 0,
    budget: int = 1,
):
    """P_t h(x), by the radial frequency representation ('fourier') or by
    Monte Carlo over the interpolating family ('mc', returns (value, se))."""
    if t < 0.0:
        raise DomainError("t must be nonnegative")
    x = np.asarray(x, dtype=float)
    alpha = _isotropic_alpha(law)
    d = law.dim
    if mode == "fourier":
        if h.radial_fourier is None:
            raise UnsupportedFamilyError("fourier mode needs a radial transform profile")
        if t == 0.0:
            return float(h.evaluate(x))
        c = h.fourier_center if h.fourier_center is not None else np.zeros(d)
        s = np.linalg.norm(math.exp(-t) * x - c)
        phi, _ = _pt_profile(h, alpha, d, t, np.array([s]), budget)
        return float(phi[0])
    if mode == "mc":
        if t == 0.0:
            return float(h.evaluate(x)), 0.0
        batch = sample_residual_law(alpha, d, t, None, n, seed)
        est = mc_expectation(lambda pts: h.evaluate(math.exp(-t) * x[None, :] + pts), batch)
        return float(est.value), float(est.std_error)
    raise DomainError("mode must be 'fourier' or 'mc'")


# ---------------------------------------------------------------------------
# Stein equation solver
# ---------------------------------------------------------------------------


def _time_rule(hint: float, budget: int):
    t0 = 1e-4
    horizon = math.log(1e10) / hint
    n = 192 * budget + 1
    u = np.linspace(math.log(t0), math.log(horizon), n)
    t = np.exp(u)
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    w *= (u[1] - u[0]) / 3.0
    return t, w * t, t0


@dataclass
class SteinSolution:
    """Candidate solution f_h of the Stein equation, tabulated on a
    (t, radial-distance) grid with cubic splines in the radial variable."""

    h: TestFunction
    law: IDLaw
    alpha: float
    mean_h: float
    budget: int
    t_nodes: np.ndarray
    t_weights: np.ndarray
    t_head: float
    _s_max: float = 0.0
    _phi_spline: object = None
    _lam_spline: object = None

    def _ensure_tables(self, s_needed: float):
        if self._phi_spline is not None and s_needed <= self._s_max:
            return
        s_max = max(80.0, 1.25 * s_needed)
        ds = 0.015 / self.budget
        s_grid = np.linspace(0.0, s_max, int(s_max / ds) + 2)
        if _is_constant(self.h):
            # P_t h = h = E h for every t: flat profiles, zero gradient factor
            phi_rows = np.full((self.t_nodes.size, s_grid.size), self.mean_h)
            lam_rows = np.zeros_like(phi_rows)
        else:
            phi_rows, lam_rows = _pt_tables(
                self.h, self.alpha, self.law.dim, self.t_nodes, s_grid, self.budget
            )
        # both profiles are even in s, so clamp the slope at the origin
        bc = ((1, 0.0), "not-a-knot")
        self._phi_spline = [CubicSpline(s_grid, row, bc_type=bc) for row in phi_rows]
        self._lam_spline = [CubicSpline(s_grid, row, bc_type=bc) for row in lam_rows]
        self._s_max = s_max

    def _y_norms(self, pts):
        c = self.h.fourier_center if self.h.fourier_center is not None else np.zeros(self.law.dim)
        damp = np.exp(-self.t_nodes)
        y = damp[:, None, None] * pts[None, :, :] - c[None, None, :]
        return y, np.linalg.norm(y, axis=2)

    def evaluate(self, x):
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        single = np.asarray(x).ndim == 1
        y, s = self._y_norms(pts)
        self._ensure_tables(float(np.max(s)))
        vals = np.empty_like(s)
        for i in range(self.t_nodes.size):
            vals[i] = self._phi_spline[i](s[i])
        integrand = vals - self.mean_h
        body = self.t_weights @ integrand
        h0 = np.asarray(self.h.evaluate(pts), dtype=float) - self.mean_h
        head = 0.5 * self.t_head * (h0 + integrand[0])
        out = -(body + head)
        return float(out[0]) if single else out

    def gradient(self, x):
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        single = np.asarray(x).ndim == 1
        y, s = self._y_norms(pts)
        self._ensure_tables(float(np.max(s)))
        damp = np.exp(-self.t_nodes)
        body = np.zeros(pts.shape)
        for i in range(self.t_nodes.size):
            lam = self._lam_spline[i](s[i])
            body += self.t_weights[i] * damp[i] * y[i] * lam[:, None]
        g0 = np.asarray(self.h.gradient(pts), dtype=float)
        lam0 = self._lam_spline[0](s[0])
        grad0 = damp[0] * y[0] * lam0[:, None]
        head = 0.5 * self.t_head * (g0 + grad0)
        out = -(body + head)
        return out[0] if single else out

    def gradient_consistent(self, x):
        """Gradient of the tabulated surface itself (exact derivative of
        ``evaluate``).  The compensated jump quadrature must use this one:
        it cancels the interpolation error of ``evaluate`` at small radii,
        which the commutation-formula gradient cannot."""
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        single = np.asarray(x).ndim == 1
        y, s = self._y_norms(pts)
        self._ensure_tables(float(np.max(s)))
        damp = np.exp(-self.t_nodes)
        body = np.zeros(pts.shape)
        safe = lambda sv: np.where(sv > 1e-12, sv, 1.0)
        for i in range(self.t_nodes.size):
            dphi = self._phi_spline[i].derivative()(s[i])
            body += self.t_weights[i] * damp[i] * (dphi / safe(s[i]))[:, None] * y[i]
        g0 = np.asarray(self.h.gradient(pts), dtype=float)
        dphi0 = self._phi_spline[0].derivative()(s[0])
        grad0 = damp[0] * (dphi0 / safe(s[0]))[:, None] * y[0]
        head = 0.5 * self.t_head * (g0 + grad0)
        out = -(body + head)
        return out[0] if single else out

    def sup_gradient_norm(self, points) -> float:
        g = self.gradient(points)
        return float(np.max(np.linalg.norm(np.atleast_2d(g), axis=1)))

    def second_difference_bound(self, points, step: float = 0.05) -> float:
        """Max directional second difference |f(x+he) - 2f(x) + f(x-he)| / h^2
        over the grid and coordinate directions, a proxy for the operator
        norm bound on the Hessian."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        worst = 0.0
        for j in range(pts.shape[1]):
            e = np.zeros(pts.shape[1])
            e[j] = step
            sec = (self.evaluate(pts + e) - 2.0 * self.evaluate(pts) + self.evaluate(pts - e)) / step**2
            worst = max(worst, float(np.max(np.abs(sec))))
        # diagonal direction catches off-diagonal curvature
        if pts.shape[1] > 1:
            e = np.full(pts.shape[1], step / math.sqrt(pts.shape[1]))
            sec = (self.evaluate(pts + e) - 2.0 * self.evaluate(pts) + self.evaluate(pts - e)) / step**2
            worst = max(worst, float(np.max(np.abs(sec))))
        return worst


def stein_solve(law: IDLaw, h: TestFunction, budget: int = 1) -> SteinSolution:
    """Solve A f = h - E h(X) for the centered rotationally invariant
    stable target by integrating the semigroup in time.

    Requires h with a radial transform profile, normalized so that its
    value, gradient, and Hessian bounds are all at most one.  A constant
    h gives the zero solution, since P_t h - E h vanishes identically."""
    alpha = _isotropic_alpha(law)
    if _is_constant(h):
        mean_h = float(h.evaluate(np.zeros(law.dim)))
    else:
        if h.radial_fourier is None:
            raise UnsupportedFamilyError("the solver needs h with a radial transform profile")
        if h.m_bounds is None or max(h.m_bounds) > 1.0 + 1e-9:
            raise DomainError("h must be normalized: sup|h|, sup|grad h|, sup|Hess h| <= 1")
        mean_h = _mean_h(h, alpha, law.dim, budget)
    hint = min(1.0, 0.75 * alpha)
    t_nodes, t_weights, t0 = _time_rule(hint, budget)
    return SteinSolution(
        h=h,
        law=law,
        alpha=alpha,
        mean_h=mean_h,
        budget=budget,
        t_nodes=t_nodes,
        t_weights=t_weights,
        t_head=t0,
    )


def verify_stein_solution(
    law: IDLaw,
    sol: SteinSolution,
    points,
    budget: Optional[int] = None,
    n_dirs: int = 32,
) -> float:
    """Max over the grid of |A f_h(x) - h(x) + E h(X)|.

    The generator's jump integral runs against the derived measure in the
    regime the law's profile selects: the raw form when small jumps are
    integrable and r k(r) -> 0, else the unit-ball-compensated form.  Big
    jumps beyond the explicit cutoff use the logarithmic far-field model
    of f_h, whose error vanishes with the cutoff.

    The cutoff is 32 budget^max(1, 1/alpha), rounded up to a half octave
    (exact for alpha in {0.5, 1, 1.5} at budgets 1 and 2; alpha = 0.75 at
    budget 2 goes from 80.6 to 90.5), with 6 budget Gauss-Legendre nodes
    per half-octave panel."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    budget = budget if budget is not None else sol.budget
    kf = law.levy.kf
    dens = density_tilde(kf)
    d = law.dim
    m = pts.shape[0]
    sphere = quad_sphere_for(law, n_dirs)
    small_jump_form = kf.r_k_limit_zero and law.levy.small_jump_first_moment

    R_exp = 32.0 * budget ** max(1.0, 1.0 / sol.alpha)
    vanish = 1 if small_jump_form else 2
    r, c, R, tail_mass = _radial_rule(dens, R_exp, vanish, 0, 16 * budget, 12 * budget)

    # every evaluation below lies within R of the grid: tabulate that far once
    c_norm = 0.0 if sol.h.fourier_center is None else float(np.linalg.norm(sol.h.fourier_center))
    sol._ensure_tables(float(np.max(np.linalg.norm(pts, axis=1))) + R + c_norm)
    fz = sol.evaluate(pts)
    gz = sol.gradient_consistent(pts)
    hz = np.asarray(sol.h.evaluate(pts), dtype=float)

    if small_jump_form:
        drift_shift = convert_representation(law, "drift_b0").shift
        n_ball = 0
    else:
        drift_shift = generator_tilt(law)
        n_ball = np.count_nonzero(r <= 1.0)  # the compensator acts on jumps in the unit ball
    drift = ((drift_shift[None, :] - pts) * gz).sum(axis=1)

    def increment(x_dir, rows):
        inc = sol.evaluate(_ray_points(pts[rows], x_dir, r)).reshape(-1, r.size)
        inc -= fz[rows, None]
        inc[:, :n_ball] -= np.outer(gz[rows] @ x_dir, r[:n_ball])
        return inc

    nonlocal_part = sphere.weights @ _along_directions(sphere, c, m, increment)
    # far field: f_h(x + r w) ~ f_h(x + R w) + (E h - h(inf)) log(r / R), with
    # h(inf) read off at the cutoff (0 for a decaying h, h itself for a constant)
    boundary = (pts[None, :, :] + R * sphere.atoms[:, None, :]).reshape(-1, d)
    f_boundary = sol.evaluate(boundary).reshape(-1, m)
    slope = sol.mean_h - np.asarray(sol.h.evaluate(boundary), dtype=float).reshape(-1, m)
    log_tail = dens.amp * R ** -(dens.p - 1.0) / (dens.p - 1.0) ** 2 if dens.extra is None else 0.0
    nonlocal_part += sphere.weights @ ((f_boundary - fz[None, :]) * tail_mass + slope * log_tail)

    residual = drift + nonlocal_part - (hz - sol.mean_h)
    return float(np.max(np.abs(residual)))
