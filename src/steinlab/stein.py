"""Stein operators for self-decomposable targets: covariance-identity
residuals in every integrability regime, the non-local generator, the
interpolating semigroup, and the equation solver with its verification.

Each residual estimator is its identity's per-sample statistic of the
sample point and its jump integral, run by one driver, ``_jump_mean``, that
draws exact stable samples, builds the direction rule and the ray tables
once per call, and reduces the statistic chunk by chunk into the identity's
left-minus-right side as a Monte Carlo estimate whose distance from zero
(in standard errors) is the test statistic.

The semigroup path uses the radial frequency representation: for a plain
Gaussian bump h, ``gauss`` = (amp, a) and centre c, whose transform is
G(|xi|) e^{-i<xi, c>} with G(rho) = amp (pi/a)^{d/2} e^{-rho^2/(4a)},

    P_t h(x) = Phi_t(|y|)
             = (2pi)^-d int_0^inf G(rho) A_d(rho |y|) chi_t(rho) rho^{d-1} drho,

with y = e^{-t} x - c, A_d the spherical phase average, and chi_t the
characteristic-function ratio of the interpolating family.  This one
Simpson sum in rho (``_pt_tables``) gives every profile: E h = P_inf h is
its t = inf row, chi_inf = e^{-rho^alpha/2}, read at |y| = |c|, and A_d is
taken in place over the fresh product of s and rho.  Solutions of
the Stein equation are time integrals of this kernel, on a composite
Gauss-Legendre rule in log t (``_time_rule``): panels of a decade below
t = 1 and of an octave from 1 to 32, with 79 nodes at budget 1 for
alpha > 0.96 and 87 below.  Each solution keeps one table of the profiles
Phi_t, as the coefficients of a cubic spline in |y| per time node, and
reads values and gradients off it in one gathered lookup:
P_t(grad h)(x) = y Lambda_t(|y|) with Lambda_t(s) = Phi_t'(s) / s.
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
from .numerics import TestFunction, _knot_interval, _ray_points, _simpson_weights, gauss_legendre_panel
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


def _points(x, d: int) -> np.ndarray:
    """x as an (m, d) array of points; any other shape raises."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != d:
        raise DomainError(f"points of shape {np.shape(x)} do not lie in dimension {d}")
    return pts


def _point(x, d: int) -> np.ndarray:
    """x as one point of dimension d (in d = 1 also a scalar); any other
    shape, or more than one point, raises."""
    pts = _points(x, d)
    if pts.shape[0] != 1:
        raise DomainError(f"this operation takes one point, got {pts.shape[0]}")
    return pts[0]


def _check_dim(f: TestFunction, d: int) -> None:
    """Refuse a test function whose declared dimension is not d."""
    if f.dim is not None and f.dim != d:
        raise DomainError(f"a test function of dimension {f.dim} cannot act in dimension {d}")


# ---------------------------------------------------------------------------
# covariance-identity residuals
# ---------------------------------------------------------------------------


def _jump_mean(law, f, n, seed, n_dirs, kind, dens, statistic) -> MCEstimate:
    """E statistic(X, J(X)) over n exact draws of law, with J(X) the jump
    integral of the ``kind`` engine against dens, on ``quad_sphere_for``'s
    directions and read off ray tables built once for the call."""
    batch = sample_stable_law(law, n, seed)
    sphere = quad_sphere_for(law, n_dirs)
    tables = _ray_tables(kind, f, dens)
    # the jump_*_chunk engine imported above, looked up by name when called:
    # perfbench/spans.py rebinds it
    engine = globals()[f"jump_{kind}_chunk"]
    return _chunked_mean(batch, lambda Z: statistic(Z, engine(f, Z, sphere, dens, tables=tables)))


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
    mean_vec = convert_representation(law, "center_b1").shift
    dens = density_nu(kf)

    if use_known_mean:

        def statistic(Z, jump):
            fz = np.asarray(f.evaluate(Z), dtype=float)
            return Z * fz[:, None] - mean_vec[None, :] * fz[:, None] - jump

        est = _jump_mean(law, f, n, seed, n_dirs, "vector", dens, statistic)
        return SteinResidual(estimate=est, regime="id_first_moment", diagnostics={"mean_vector": mean_vec})

    def terms(Z, jump):
        fz = np.asarray(f.evaluate(Z), dtype=float)
        return np.concatenate([Z * fz[:, None], jump, Z, fz[:, None]], axis=1)

    raw = _jump_mean(law, f, n, seed, n_dirs, "vector", dens, terms)
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


def _drift_residual(law, f, n, seed, n_dirs, density, scale, regime):
    """E <X - b0, grad f(X)> - scale E int (f(X+u) - f(X)) mu(du), with mu
    the measure of ``density``: the drift-form identity of
    ``residual_stable_sub1`` (nu, scale alpha) and of ``residual_sd``'s
    small-jump variant (nu~, scale 1), which agree since nu~ = alpha nu
    for stable laws."""
    _require_gradient(f)
    b0 = convert_representation(law, "drift_b0").shift

    def statistic(Z, jump):
        g = np.asarray(f.gradient(Z), dtype=float)
        return ((Z - b0[None, :]) * g).sum(axis=1) - scale * jump

    est = _jump_mean(law, f, n, seed, n_dirs, "raw", density(law.levy.kf), statistic)
    return SteinResidual(estimate=est, regime=regime, diagnostics={"b0": b0})


def residual_stable_sub1(
    law: IDLaw, f: TestFunction, n: int, seed: int, n_dirs: int = 32
) -> SteinResidual:
    """E <X, grad f(X)> - E <b0, grad f(X)> - alpha E int (f(X+u) - f(X)) nu(du)
    for stable laws with index below one (drift representation)."""
    kf = law.levy.kf
    if kf.family != "stable" or not (0.0 < kf.alpha < 1.0):
        raise RegimeError("this identity is specific to stable laws with alpha in (0, 1)")
    return _drift_residual(law, f, n, seed, n_dirs, density_nu, kf.alpha, "stable_sub1")


def _ball_residual(law, f, n, seed, n_dirs, regime, include_correction=True):
    kf = law.levy.kf
    _require_gradient(f)
    b = convert_representation(law, "triplet_b").shift
    mean_dir = law.levy.sphere.weights @ law.levy.sphere.atoms
    corr_vec = float(kf.k(1.0)) * mean_dir if include_correction else np.zeros_like(mean_dir)

    def statistic(Z, jump):
        g = np.asarray(f.gradient(Z), dtype=float)
        return ((Z - b[None, :]) * g).sum(axis=1) + g @ corr_vec - jump

    # density_tilde coincides with k/r when alpha = 1
    est = _jump_mean(law, f, n, seed, n_dirs, "ball", density_tilde(kf), statistic)
    return SteinResidual(estimate=est, regime=regime, diagnostics={"b": b, "k1_correction": corr_vec})


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
        return _drift_residual(law, f, n, seed, n_dirs, density_tilde, 1.0, "sd_small_jump")
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

    def statistic(Z, jump):
        g = np.asarray(f.gradient(Z), dtype=float)
        return ((mean_vec[None, :] - Z) * g).sum(axis=1) + jump

    est = _jump_mean(law, f, n, seed, n_dirs, "grad_diff", density_nu(kf), statistic)
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
    _check_dim(f, law.dim)
    x = _point(x, law.dim)
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


def _kernels(d: int, z: np.ndarray) -> np.ndarray:
    """A_d(z) = int_{S^{d-1}} e^{i z <e, w>} dw, the spherical phase average.

    Exact closed forms for d <= 3 (cosine, Bessel J0, sinc); the general
    Bessel-quotient form with a series guard otherwise.  z must be a fresh
    float array: in d <= 2 the kernel is taken in place over it and z
    itself is returned."""
    if d == 1:
        np.cos(z, out=z)
        z *= 2.0
        return z
    if d == 2:
        j0(z, out=z)
        z *= 2.0 * math.pi
        return z
    if d == 3:
        return 4.0 * math.pi * np.sinc(z / math.pi)
    nu = d / 2.0 - 1.0
    pref = (2.0 * math.pi) ** (d / 2.0)
    zz = np.maximum(np.abs(z), 1e-12)
    with np.errstate(invalid="ignore", divide="ignore"):
        a = pref * jv(nu, zz) / zz**nu
    return np.where(np.abs(z) < 1e-6, pref / (2.0**nu * math.gamma(nu + 1.0)), a)


# The rho rule's step at budget 1; at budget b it is _RHO_STEP / b
_RHO_STEP = 0.025


def _rho_rule(h: TestFunction, budget: int):
    """Simpson rho-grid covering the transform profile's support.

    The nodes are rho_j = j delta, with delta = 0.025 / budget, for
    j = 0 .. n: n is the smallest even count with n delta >= rho_max =
    sqrt(168 a), a the bump's width.  So node j has the same bits for
    every h, and on the Stein tables' knots one kernel matrix serves every
    bump (``_knot_kernels``).  The rule's alternating 4, 2 weights put an
    image of Phi_t at s = pi / delta ~ 125.7 budget for every h: a profile
    read that far out is the image, not Phi_t."""
    # past a = 0.25e6 the 259 231-node grid still meets E h within 5.3e-7 (a = 1e7, d = 1)
    a = min(h.gauss[1], 0.25e6)
    rho_max = math.sqrt(max(4.0 * a * 42.0, 1.0))
    step = _RHO_STEP / budget
    n = 2 * math.ceil(rho_max / (2.0 * step))
    if n * step < rho_max:
        n += 2
    return step * np.arange(n + 1), _simpson_weights(n + 1, step)


# A_d(s_i rho_j) on the budget-1 knots s_i of the Stein tables and the
# budget-1 rho nodes rho_j = j _RHO_STEP, one matrix per d.  Both are fixed
# by their index, so the matrix only grows: a farther table appends rows, a
# wider profile appends columns.  It holds the most rows and the most
# columns any budget-1 build has needed, 5.7 MB per d for bumps of width
# a <= 1.25 read out to s = 80, and never more than _KNOT_KERNEL_CAP
# entries (16 MiB) per d.
_KNOT_KERNELS: dict = {}
_KNOT_KERNEL_CAP = 2**21


def _knot_kernels(d: int, s: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """The (s.size, rho.size) corner of the cached budget-1 kernel matrix,
    grown first if it is smaller; only the new blocks are computed.  A
    matrix that would grow past _KNOT_KERNEL_CAP entries is computed for
    this call instead, with the same bits, and the cache is left as it is.
    s must be the first s.size budget-1 knots and rho the first rho.size
    budget-1 nodes."""
    cached = _KNOT_KERNELS.get(d, np.empty((0, 0)))
    rows, cols = cached.shape
    if s.size > rows or rho.size > cols:
        n_s, n_rho = max(rows, s.size), max(cols, rho.size)
        if n_s * n_rho > _KNOT_KERNEL_CAP:
            return _kernels(d, np.outer(s, rho))
        knots, nodes = _knot_grid(1, n_s), _RHO_STEP * np.arange(n_rho)
        grown = np.empty((n_s, n_rho))
        grown[:rows, :cols] = cached
        grown[:rows, cols:] = _kernels(d, np.outer(knots[:rows], nodes[cols:]))
        grown[rows:] = _kernels(d, np.outer(knots[rows:], nodes))
        _KNOT_KERNELS[d] = cached = grown
    return cached[: s.size, : rho.size]


def _pt_tables(h: TestFunction, alpha: float, d: int, t_nodes, s_grid, budget: int = 1):
    """Phi on the (t, s) grid: Phi[i, j] = P_{t_i} h at any x with
    |e^{-t_i} x - c| = s_j, as the transposed view of an (n_s, n_t) array,
    so that a spline along s copies nothing.

    The spherical phase kernel depends only on rho * s, so a single
    kernel matrix serves every time node.  On a budget-1 table's knots it
    is a view of the per-d cache ``_knot_kernels``; on any other grid it is
    taken in place over np.outer(s, rho) for this call and dropped.  A time
    node may be inf: its damping is e^{-rho^alpha/2} and its row is E h
    (``_mean_h``)."""
    rho, w = _rho_rule(h, budget)
    s = np.asarray(s_grid, dtype=float)
    gh = np.real(np.asarray(h.radial_fourier(rho), dtype=complex))
    # a table's knots span the whole uniform zone and at least one tail knot
    if budget == 1 and s.size > _zones(1)[1] + 1 and np.array_equal(s, _knot_grid(1, s.size)):
        a_k = _knot_kernels(d, s, rho)
    else:
        a_k = _kernels(d, np.outer(s, rho))
    damp = np.exp(-0.5 * np.outer(1.0 - np.exp(-alpha * np.asarray(t_nodes)), rho**alpha))
    base = (gh * rho ** (d - 1) * w)[None, :] * damp  # (n_t, n_rho)
    phi = a_k @ base.T
    phi *= (2.0 * math.pi) ** (-d)
    return phi.T


def _pt_profile(h: TestFunction, alpha: float, d: int, t: float, s_grid, budget: int = 1):
    return _pt_tables(h, alpha, d, np.array([t]), s_grid, budget)[0]


def _mean_h(h: TestFunction, alpha: float, d: int, budget: int = 1) -> float:
    """E h = P_inf h: the t = inf profile, whose damping is e^{-rho^alpha/2},
    read at s = |c|."""
    c = h.fourier_center if h.fourier_center is not None else np.zeros(d)
    return float(_pt_profile(h, alpha, d, math.inf, np.array([np.linalg.norm(c)]), budget)[0])


def _check_budget(budget) -> None:
    """Refuse a budget that is not a positive integer."""
    if not isinstance(budget, (int, np.integer)) or budget < 1:
        raise DomainError(f"budget must be a positive integer, got {budget!r}")


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
    _check_budget(budget)
    alpha = _isotropic_alpha(law)
    d = law.dim
    _check_dim(h, d)
    x = _point(x, d)
    if mode == "fourier":
        if h.gauss is None:
            raise UnsupportedFamilyError("fourier mode needs a plain Gaussian bump")
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


def _zones(budget: int):
    """(ds, n0): the uniform zone's step and the index of its last knot."""
    ds = 0.015 / budget
    return ds, math.ceil(_NEAR_S / ds)


def _knot_grid(budget: int, n: int) -> np.ndarray:
    """The first n knots of the Stein tables: j ds for j <= n0, then
    S0 e^{k du} for k >= 1, with S0 = n0 ds.  Knot i has the same bits for
    every n."""
    ds, n0 = _zones(budget)
    s0 = n0 * ds
    tail = [s0 * math.exp(_TAIL_DU * k) for k in range(1, n - n0)]
    return np.concatenate([ds * np.arange(min(n, n0 + 1)), tail])


# The time rule's panels in t: [_T_HEAD, 0.01], decades up to 1, octaves
# up to 32, then one panel up to t_max; _T_NODES[i] Gauss-Legendre nodes
# (times the budget) in log t on panel i.
_T_HEAD = 1e-4
_T_EDGES = (0.01, 0.1, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
_T_NODES = (8, 8, 10, 10, 12, 12, 10, 8, 8)


def _time_rule(hint: float, budget: int):
    """(t, w, t0): nodes and weights for int_{t0}^{t_max} g(t) dt, with
    t_max = log(1e10) / hint, so that the slowest decay e^{-hint t} has
    fallen to 1e-10.

    A composite Gauss-Legendre rule in u = log t on the panels of
    ``_T_EDGES``: edges at or past t_max are dropped and the last panel
    left ends at t_max.  In log t the integrand is smooth on the decades
    below t = 1; the octaves from 1 to 32 resolve a far point's turn near
    t = log|x|, where e^{-t} x reaches the bump.  Node 0 is t0 with weight
    0: the solution's head term reads the integrand there."""
    t_max = math.log(1e10) / hint
    u = np.log([_T_HEAD] + [e for e in _T_EDGES if e < t_max] + [t_max])
    t, w = [np.array([_T_HEAD])], [np.zeros(1)]
    for lo, hi, n in zip(u[:-1], u[1:], _T_NODES):
        x, wx = gauss_legendre_panel(n * budget)
        tp = np.exp(lo + (hi - lo) * x)
        t.append(tp)
        w.append((hi - lo) * wx * tp)
    return np.concatenate(t), np.concatenate(w), _T_HEAD


@dataclass
class SteinSolution:
    """Candidate solution f_h of the Stein equation, tabulated on a
    (t, radial-distance) grid.

    The time nodes and weights are ``_time_rule``'s: node 0 is t_head with
    weight 0, and the rest are Gauss-Legendre nodes in log t on fixed
    panels, from t_head to t_max = log(1e10) / min(1, 0.75 alpha).

    One table holds the profile Phi_t(s) = P_t h(x) at s = |e^{-t} x - c|
    for every time node: the coefficients of a cubic spline in s per node,
    in one (4, n_s - 1, n_t) array.  The knots are uniform, j ds, out to
    S0 = n0 ds, the first of them at or past 16, and log-uniform,
    S0 e^{k du}, beyond it (see ``_ensure_tables``).  The gradient reads
    the same table, as P_t(grad h)(x) = y Lambda_t(|y|) with
    Lambda_t(s) = Phi_t'(s) / s.

    The profiles come from ``_pt_tables`` on ``_rho_rule``'s nodes
    j delta, delta = 0.025 / budget, whose image sits at s = pi / delta for
    every h.  At budget 1 the kernel matrix A_d(s rho) on these knots is
    kept per d across solutions (``_KNOT_KERNELS``, 5.7 MB per d at the
    widths a <= 1.25, at most 16 MiB per d); a budget-2 build, or one that
    would grow the cache past that, computes its own and keeps nothing.

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
        return _zones(self.budget)

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
        n_tail = math.ceil(math.log(max(80.0, 1.25 * s_needed) / (n0 * ds)) / _TAIL_DU)
        s_grid = _knot_grid(self.budget, n0 + 1 + n_tail)
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
        """f_h(x) = -int_0^inf (P_t h(x) - E h) dt: the trapezoid rule on
        [0, t_head] plus the Gauss-Legendre panels of ``_time_rule`` up to
        t_max.  x is one point of dimension law.dim (in d = 1 also a
        scalar), which gives a float, or an (m, law.dim) array, which gives
        m values; any other shape raises ``DomainError``.

        Near s = pi / delta ~ 125.7 budget, whatever the bump, the profiles
        read the image that ``_rho_rule``'s alternating weights put there,
        not Phi_t."""
        pts = _points(x, self.law.dim)
        s = self._radii(np.square(yk, out=yk) for yk in self._rows(pts))
        integrand = self._table(s)
        integrand -= self.mean_h
        body = self.t_weights @ integrand
        h0 = np.asarray(self.h.evaluate(pts), dtype=float) - self.mean_h
        head = 0.5 * self.t_head * (h0 + integrand[0])
        out = -(body + head)
        return float(out[0]) if np.ndim(x) <= 1 else out

    def gradient_consistent(self, x):
        """Gradient of the tabulated surface itself (exact derivative of
        ``evaluate``), read off the one table as y Lambda_t(|y|) with
        Lambda_t = Phi_t' / s.  The compensated jump quadrature needs this
        exactness: it cancels the interpolation error of ``evaluate`` at
        small radii.  ``gradient`` is the same function."""
        pts = _points(x, self.law.dim)
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
        return out[0] if np.ndim(x) <= 1 else out

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

    Requires h to be a plain Gaussian bump (``gauss`` set), normalized so
    that its value, gradient, and Hessian bounds are all at most one.  A constant
    h gives the zero solution, since P_t h - E h vanishes identically.
    The budget must be a positive integer."""
    _check_budget(budget)
    alpha = _isotropic_alpha(law)
    _check_dim(h, law.dim)
    if _is_constant(h):
        mean_h = float(h.evaluate(np.zeros(law.dim)))
    else:
        if h.gauss is None:
            raise UnsupportedFamilyError("the solver needs h to be a plain Gaussian bump")
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
    d = law.dim
    if sol.law.dim != d:
        raise DomainError(f"a solution in dimension {sol.law.dim} cannot be verified against a law in dimension {d}")
    pts = _points(points, d)
    budget = budget if budget is not None else sol.budget
    _check_budget(budget)
    kf = law.levy.kf
    dens = density_tilde(kf)
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
