"""Stein operators for self-decomposable targets: covariance-identity
residuals in every integrability regime, the non-local generator, the
interpolating semigroup, and the equation solver with its verification.

Residual estimators draw exact stable samples and evaluate the inner
jump integral by quadrature per sample point; each estimator returns the
per-regime identity's left-minus-right side as a Monte Carlo estimate
whose distance from zero (in standard errors) is the test statistic.

The semigroup path uses the radial frequency representation: for h with
a radial transform profile G(rho) centered at c,

    P_t h(x) = Phi_t(|y|)
             = (2pi)^-d int_0^inf G(rho) A_d(rho |y|) chi_t(rho) rho^{d-1} drho,

with y = e^{-t} x - c, A_d the spherical phase average, and chi_t the
characteristic-function ratio of the interpolating family.  Solutions of
the Stein equation are time integrals of this kernel.  Each solution keeps
one table of the profiles Phi_t, as the coefficients of a cubic spline in
|y| per time node, and reads values and gradients off it in one gathered
lookup: P_t(grad h)(x) = y Lambda_t(|y|) with Lambda_t(s) = Phi_t'(s) / s.
The spline knots come in two zones: uniform near the bump, where Phi_t
varies on the bump's own scale, and log-uniform beyond s = 16, where it
varies on the scale of s.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import j0, jv

from ._errors import DomainError, RegimeError, UnsupportedFamilyError
from .jumps import (
    _along_directions,
    _is_constant,
    _radial_rule,
    _ray_tables,
    density_nu,
    density_tilde,
    jump_ball_chunk,
    jump_grad_diff_chunk,
    jump_raw_chunk,
    jump_vector_chunk,
    quad_sphere_for,
)
from .levy import IDLaw, _is_isotropic, convert_representation
from .numerics import TestFunction, _knot_interval, _ray_points, _simpson_rule
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
    tables = _ray_tables("vector", f, dens)

    if use_known_mean:

        def per_chunk(Z):
            fz = np.asarray(f.evaluate(Z), dtype=float)
            jump = jump_vector_chunk(f, Z, sphere, dens, tables=tables)
            return Z * fz[:, None] - mean_vec[None, :] * fz[:, None] - jump

        est = _chunked_mean(batch, per_chunk)
        diag = {"mean_vector": mean_vec}
        return SteinResidual(estimate=est, regime="id_first_moment", diagnostics=diag)

    def per_chunk_terms(Z):
        fz = np.asarray(f.evaluate(Z), dtype=float)
        jump = jump_vector_chunk(f, Z, sphere, dens, tables=tables)
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
    tables = _ray_tables("raw", f, dens)

    def per_chunk(Z):
        g = np.asarray(f.gradient(Z), dtype=float)
        drift_term = ((Z - b0[None, :]) * g).sum(axis=1)
        return drift_term - alpha * jump_raw_chunk(f, Z, sphere, dens, tables=tables)

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
    tables = _ray_tables("ball", f, dens)
    corr_vec = k1 * mean_dir if include_correction else np.zeros_like(mean_dir)

    def per_chunk(Z):
        g = np.asarray(f.gradient(Z), dtype=float)
        drift_term = ((Z - b[None, :]) * g).sum(axis=1)
        asym = g @ corr_vec
        return drift_term + asym - jump_ball_chunk(f, Z, sphere, dens, tables=tables)

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
        tables = _ray_tables("raw", f, dens)

        def per_chunk(Z):
            g = np.asarray(f.gradient(Z), dtype=float)
            drift_term = ((Z - b0[None, :]) * g).sum(axis=1)
            return drift_term - jump_raw_chunk(f, Z, sphere, dens, tables=tables)

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
    tables = _ray_tables("grad_diff", f, dens)

    def per_chunk(Z):
        g = np.asarray(f.gradient(Z), dtype=float)
        mean_term = ((mean_vec[None, :] - Z) * g).sum(axis=1)
        return mean_term + jump_grad_diff_chunk(f, Z, sphere, dens, tables=tables)

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


def _isotropic_alpha(law: IDLaw, centred: bool = True) -> float:
    """alpha of the normalized rotationally invariant law (``levy._is_isotropic``),
    centred unless ``centred`` is False; any other law raises."""
    if not _is_isotropic(law):
        raise UnsupportedFamilyError("this route needs the normalized rotationally invariant stable law")
    if centred and np.any(law.shift != 0.0):
        raise UnsupportedFamilyError("semigroup evaluation needs the centered law")
    return law.levy.kf.alpha


def _kernels(d: int, z):
    """A_d(z) = int_{S^{d-1}} e^{i z <e, w>} dw, the spherical phase average.

    Exact closed forms for d <= 3 (cosine, Bessel J0, sinc); the general
    Bessel-quotient form with a series guard otherwise."""
    z = np.asarray(z, dtype=float)
    if d == 1:
        return 2.0 * np.cos(z)
    if d == 2:
        return 2.0 * math.pi * j0(z)
    if d == 3:
        return 4.0 * math.pi * np.sinc(z / math.pi)
    nu = d / 2.0 - 1.0
    pref = (2.0 * math.pi) ** (d / 2.0)
    zz = np.maximum(np.abs(z), 1e-12)
    with np.errstate(invalid="ignore", divide="ignore"):
        a = pref * jv(nu, zz) / zz**nu
    return np.where(np.abs(z) < 1e-6, pref / (2.0**nu * math.gamma(nu + 1.0)), a)


def _rho_rule(h: TestFunction, budget: int):
    """Simpson rho-grid covering the transform profile's support.

    The step is rho_max / (512 budget) ~ 0.025 / budget, and the rule's
    alternating 4, 2 weights put an image of Phi_t near s ~ pi / step
    ~ 124 budget: a profile read that far out is the image, not Phi_t."""
    # infer the Gaussian width from the profile: G(rho) = G(0) e^{-rho^2/(4a)}
    g0 = float(np.real(h.radial_fourier(np.array([0.0]))[0]))
    g1 = float(np.real(h.radial_fourier(np.array([1.0]))[0]))
    a = 0.25 / max(math.log(max(g0, 1e-300) / max(g1, 1e-300)), 1e-6)
    rho_max = math.sqrt(max(4.0 * a * 42.0, 1.0))
    return _simpson_rule(0.0, rho_max, 512 * budget + 1)


def _pt_tables(h: TestFunction, alpha: float, d: int, t_nodes, s_grid, budget: int = 1):
    """Phi on the (t, s) grid: Phi[i, j] = P_{t_i} h at any x with
    |e^{-t_i} x - c| = s_j.

    The spherical phase kernel depends only on rho * s, so a single
    kernel matrix serves every time node."""
    rho, w = _rho_rule(h, budget)
    gh = np.real(np.asarray(h.radial_fourier(rho), dtype=complex))
    a_k = _kernels(d, np.outer(np.asarray(s_grid, dtype=float), rho))
    pref = (2.0 * math.pi) ** (-d)
    damp = np.exp(-0.5 * np.outer(1.0 - np.exp(-alpha * np.asarray(t_nodes)), rho**alpha))
    base = (gh * rho ** (d - 1) * w)[None, :] * damp  # (n_t, n_rho)
    return pref * (base @ a_k.T)


def _pt_profile(h: TestFunction, alpha: float, d: int, t: float, s_grid, budget: int = 1):
    return _pt_tables(h, alpha, d, np.array([t]), s_grid, budget)[0]


def _mean_h(h: TestFunction, alpha: float, d: int, budget: int = 1) -> float:
    rho, w = _rho_rule(h, budget)
    gh = np.real(np.asarray(h.radial_fourier(rho), dtype=complex))
    c = h.fourier_center if h.fourier_center is not None else np.zeros(d)
    a_k = _kernels(d, np.linalg.norm(c) * rho)
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
    Monte Carlo over the interpolating family ('mc', returns (value, se)),
    for the centred law of the isotropy rule ``levy._is_isotropic``; any
    other law raises ``UnsupportedFamilyError``."""
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
        return float(_pt_profile(h, alpha, d, t, np.array([s]), budget)[0])
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


# The Stein tables' knots: j ds (ds = 0.015 / budget) up to the first
# knot S0 = n0 ds at or past _NEAR_S, then S0 e^{k _TAIL_DU}.
_NEAR_S = 16.0
_TAIL_DU = 0.01


def _time_rule(hint: float, budget: int):
    t0 = 1e-4
    t, w = _simpson_rule(t0, math.log(1e10) / hint, 192 * budget + 1, log=True)
    return t, w, t0


@dataclass
class SteinSolution:
    """Candidate solution f_h of the Stein equation, tabulated on a
    (t, radial-distance) grid.

    One table holds the profile Phi_t(s) = P_t h(x) at s = |e^{-t} x - c|
    for every time node: the coefficients of a cubic spline in s per node,
    in one (4, n_s - 1, n_t) array.  The knots are uniform, j ds, out to
    S0 = n0 ds, the first of them at or past 16, and log-uniform,
    S0 e^{k du}, beyond it (see ``_ensure_tables``).  The gradient reads
    the same table, as P_t(grad h)(x) = y Lambda_t(|y|) with
    Lambda_t(s) = Phi_t'(s) / s.

    The distances s_i = |e^{-t_i} x - c| are built in d passes over
    (n_t, m) arrays, one coordinate at a time (``_rows``, ``_radii``):
    each pass forms y_k = e^{-t} x_k - c_k, squares it in place and adds
    it to the running sum, and one in-place root follows.  Coordinate
    order is the order in which ``np.add.reduce`` sums a short last
    axis, so s keeps the bits of the norm of the (n_t, m, d) array,
    which is never built."""

    h: TestFunction
    law: IDLaw
    alpha: float
    mean_h: float
    budget: int
    t_nodes: np.ndarray
    t_weights: np.ndarray
    t_head: float
    _s_max: float = 0.0
    _s_grid: Optional[np.ndarray] = None
    _coef: Optional[np.ndarray] = None

    def _zones(self):
        """(ds, n0): the uniform zone's step and the index of its last knot."""
        ds = 0.015 / self.budget
        return ds, math.ceil(_NEAR_S / ds)

    def _ensure_tables(self, s_needed: float):
        """Tabulate to at least max(80, 1.25 s_needed), on knots in two
        zones: j ds for j <= n0, with ds = 0.015 / budget, and
        S0 e^{k du} for k >= 1, with S0 = n0 ds and du = 0.01.  Near the
        bump Phi_t varies on the bump's scale; past S0 it varies on the
        scale of s, so the log step holds the same accuracy with a tenth
        of the knots.  Every knot is fixed by its index, so a larger table
        appends tail knots without moving one, and values do not depend on
        which points were evaluated before."""
        if self._coef is not None and s_needed <= self._s_max:
            return
        ds, n0 = self._zones()
        s0 = n0 * ds
        n_tail = math.ceil(math.log(max(80.0, 1.25 * s_needed) / s0) / _TAIL_DU)
        tail = [s0 * math.exp(_TAIL_DU * k) for k in range(1, n_tail + 1)]
        s_grid = np.concatenate([ds * np.arange(n0 + 1), tail])
        n_t = self.t_nodes.size
        if _is_constant(self.h):
            # P_t h = h = E h for every t: flat profiles
            phi_rows = np.full((n_t, s_grid.size), self.mean_h)
        else:
            phi_rows = _pt_tables(self.h, self.alpha, self.law.dim, self.t_nodes, s_grid, self.budget)
        # every profile is even in s, so clamp the slope at the origin
        bc = ((1, np.zeros(n_t)), "not-a-knot")
        self._coef = CubicSpline(s_grid, phi_rows, axis=1, bc_type=bc).c
        self._s_grid = s_grid
        self._s_max = s_grid[-1]

    def _table(self, s, derivative: bool = False):
        """Phi_t(s), or Phi_t'(s), with row i of s looked up in row i of the
        table.  The interval is guessed per zone, as floor(s / ds) below S0
        and n0 + floor(log(s / S0) / du) past it, and settled on the knots;
        it and the sum c3 + c2 dx + c1 dx^2 + c0 dx^3 (for the derivative
        c2 + 2 c1 dx + 3 c0 dx^2) are those of scipy's PPoly, so the values
        equal the per-node splines' bit for bit."""
        coef = self._coef
        n_t = coef.shape[2]
        ds, n0 = self._zones()
        s0 = n0 * ds
        guess = s / ds
        far = s > s0
        if far.any():
            guess[far] = n0 + np.log(s[far] / s0) / _TAIL_DU
        j, dx = _knot_interval(self._s_grid, s, guess)
        j *= n_t
        j += np.arange(n_t)[:, None]
        top = 2 if derivative else 3
        out = np.take(coef[top], j)
        power = np.ones_like(dx)
        for k in range(top - 1, -1, -1):
            power *= dx
            term = np.take(coef[k], j)
            if derivative:
                term *= 3 - k
            term *= power
            out += term
        return out

    def _rows(self, pts):
        """y_k = e^{-t} x_k - c_k for each coordinate k in turn: an (n_t, m)
        array per coordinate, never the (n_t, m, d) displacement array."""
        c = self.h.fourier_center if self.h.fourier_center is not None else np.zeros(self.law.dim)
        damp = np.exp(-self.t_nodes)[:, None]
        for k in range(pts.shape[1]):
            yk = damp * pts[:, k]
            yk -= c[k]
            yield yk

    def _radii(self, squares):
        """s = |y| from the rows y_k^2, summed in coordinate order into the
        first row and rooted in place, with the table grown to cover s.

        ``np.add.reduce`` sums fewer than eight terms in this order, so for
        d < 8 s equals ``np.linalg.norm(y, axis=-1)`` bit for bit."""
        squares = iter(squares)
        s = next(squares)
        for sq in squares:
            s += sq
        np.sqrt(s, out=s)
        self._ensure_tables(float(np.max(s)))
        return s

    def evaluate(self, x):
        """f_h(x) = -int_0^inf (P_t h(x) - E h) dt on the time rule.

        Past s ~ pi / step ~ 124 budget the profiles read the image that
        ``_rho_rule``'s alternating weights put there, not Phi_t."""
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        s = self._radii(np.square(yk, out=yk) for yk in self._rows(pts))
        integrand = self._table(s)
        integrand -= self.mean_h
        body = self.t_weights @ integrand
        h0 = np.asarray(self.h.evaluate(pts), dtype=float) - self.mean_h
        head = 0.5 * self.t_head * (h0 + integrand[0])
        out = -(body + head)
        return float(out[0]) if np.ndim(x) == 1 else out

    def gradient_consistent(self, x):
        """Gradient of the tabulated surface itself (exact derivative of
        ``evaluate``), read off the one table as y Lambda_t(|y|) with
        Lambda_t = Phi_t' / s.  The compensated jump quadrature needs this
        exactness: it cancels the interpolation error of ``evaluate`` at
        small radii.  ``gradient`` is the same function."""
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        rows = list(self._rows(pts))
        s = self._radii([yk * yk for yk in rows])
        lam = self._table(s, derivative=True) / np.where(s > 1e-12, s, 1.0)
        damp = np.exp(-self.t_nodes)
        weighted = (self.t_weights * damp)[:, None] * lam
        g0 = np.asarray(self.h.gradient(pts), dtype=float)
        out = np.empty(pts.shape)
        for k, yk in enumerate(rows):
            # the terms of each coordinate are summed in time order, from zero
            body = np.zeros(pts.shape[0])
            for term in weighted * yk:
                body += term
            head = 0.5 * self.t_head * (g0[:, k] + damp[0] * lam[0] * yk[0])
            out[:, k] = -(body + head)
        return out[0] if np.ndim(x) == 1 else out

    gradient = gradient_consistent

    def sup_gradient_norm(self, points) -> float:
        g = self.gradient(points)
        return float(np.max(np.linalg.norm(np.atleast_2d(g), axis=1)))

    def second_difference_bound(self, points, step: float = 0.05) -> float:
        """Max directional second difference |f(x+he) - 2f(x) + f(x-he)| / h^2
        over the grid and coordinate directions, a proxy for the operator
        norm bound on the Hessian."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d = pts.shape[1]
        # the diagonal direction catches off-diagonal curvature
        directions = list(step * np.eye(d)) + ([np.full(d, step / math.sqrt(d))] if d > 1 else [])
        centre = 2.0 * self.evaluate(pts)
        sec = [(self.evaluate(pts + e) - centre + self.evaluate(pts - e)) / step**2 for e in directions]
        return max([0.0] + [float(np.max(np.abs(v))) for v in sec])


def stein_solve(law: IDLaw, h: TestFunction, budget: int = 1) -> SteinSolution:
    """Solve A f = h - E h(X) for the centered rotationally invariant
    stable target by integrating the semigroup in time.  The target must
    pass the isotropy rule ``levy._is_isotropic``; any other law raises
    ``UnsupportedFamilyError``.

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
