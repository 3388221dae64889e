"""Numerical substrate: special functions, radial / spherical / time
quadrature, finite differences, and a library of Gaussian bump test
functions with closed-form gradients and Fourier transforms.

Radial grids are log-spaced with an explicit split at r = 1 because the
integrands coming from Lévy measures change regime there (small jumps vs
big jumps).  Spherical measures are always finite atom lists so that
every integral in the package is a finite sum with controllable error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
from scipy.special import roots_jacobi

from ._errors import DecayError, DomainError, EvaluationError

__all__ = [
    "RadialGrid",
    "SphericalGrid",
    "TestFunction",
    "gamma_fn",
    "log_radial_grid",
    "radial_integral",
    "uniform_sphere",
    "sphere_from_atoms",
    "surface_area",
    "spherical_integral",
    "time_integral",
    "grad_fd",
    "gaussian_bump",
    "gaussian_bump_library",
    "gauss_legendre_panel",
    "gauss_jacobi_unit",
]

_GOLDEN_FRACTION = 1.0 - 1.0 / math.sqrt(5.0)


def gamma_fn(x: float) -> float:
    """Gamma function for positive real arguments.

    Relative error is at the double-precision level (well below 1e-12).
    """
    if not np.isfinite(x) or x <= 0.0:
        raise DomainError(f"gamma_fn requires x > 0, got {x!r}")
    return math.gamma(x)


def surface_area(d: int) -> float:
    """Total mass of the uniform (surface) measure on the unit sphere in R^d."""
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


# ---------------------------------------------------------------------------
# radial quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialGrid:
    """Log-spaced radial nodes with composite Simpson weights (in
    u = log r) and the cutoffs they were built from.  ``nodes`` are
    strictly increasing and split at r = 1 when the cutoffs straddle it."""

    nodes: np.ndarray
    weights: np.ndarray
    r_min: float
    r_max: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if not (self.r_min > 0.0 and self.r_max > self.r_min):
            raise DomainError("need 0 < r_min < r_max")
        if nodes.ndim != 1 or np.any(np.diff(nodes) <= 0.0) or np.any(nodes <= 0.0):
            raise DomainError("nodes must be strictly increasing and positive")
        if not np.all(np.isfinite(weights)):
            raise DomainError("weights must be finite")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


def _simpson_weights(n: int, step: float) -> np.ndarray:
    """Composite Simpson weights 1, 4, 2, ..., 2, 4, 1 times step / 3 on n
    (odd) equally spaced nodes."""
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    w *= step / 3.0
    return w


def _simpson_rule(lo: float, hi: float, n: int, log: bool = False):
    """Composite Simpson nodes and weights on [lo, hi]; an even ``n`` is
    rounded up to odd.  With ``log=True`` the nodes are evenly spaced in
    u = log r and the weights carry the Jacobian r, so that
    sum(weights * g(nodes)) approximates the integral of g(r) dr."""
    if n % 2 == 0:
        n += 1
    u = np.linspace(math.log(lo), math.log(hi), n) if log else np.linspace(lo, hi, n)
    w = _simpson_weights(n, u[1] - u[0])
    if not log:
        return u, w
    r = np.exp(u)
    w *= r
    return r, w


def _refine(estimate, levels: int, rel_tol: float):
    """Evaluate ``estimate(level)`` for level = 0, 1, ... until two
    successive levels agree to ``rel_tol`` relative, at most ``levels``
    times.  Returns (value, err): the last level's value and its distance
    to the previous one (inf after one level), whether or not the
    tolerance was met.  Array values compare by their largest entry."""
    value = prev = None
    err = math.inf
    for level in range(levels):
        value = estimate(level)
        if prev is not None:
            if isinstance(value, np.ndarray):
                err, size = np.max(np.abs(value - prev)), np.max(np.abs(value))
            else:
                # abs(), not a numpy reduction: levy's many short profile
                # integrals would pay for one at every level
                err, size = abs(value - prev), abs(value)
            if err <= rel_tol * max(size, 1e-300):
                break
        prev = value
    return value, err


def log_radial_grid(r_min: float, r_max: float, points_per_decade: int = 64) -> RadialGrid:
    """Log-spaced grid on (r_min, r_max), split at r = 1 when applicable."""
    if not (r_min > 0.0 and r_max > r_min):
        raise DomainError("need 0 < r_min < r_max")
    panels = []
    if r_min < 1.0 < r_max:
        panels = [(r_min, 1.0), (1.0, r_max)]
    else:
        panels = [(r_min, r_max)]
    nodes, weights = [], []
    for lo, hi in panels:
        n = max(8, int(math.ceil(math.log10(hi / lo) * points_per_decade)) + 1)
        r, w = _simpson_rule(lo, hi, n, log=True)
        nodes.append(r)
        weights.append(w)
    r = np.concatenate(nodes)
    w = np.concatenate(weights)
    # deduplicate the shared node at the r = 1 split
    keep = np.concatenate([[True], np.diff(r) > 0.0])
    merged_w = np.zeros(keep.sum())
    np.add.at(merged_w, np.cumsum(keep) - 1, w)
    return RadialGrid(nodes=r[keep], weights=merged_w, r_min=r_min, r_max=r_max)


def _eval_integrand(g, r):
    vals = np.asarray(g(r), dtype=float)
    if vals.shape != r.shape:
        vals = np.array([g(float(ri)) for ri in r], dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = r[~np.isfinite(vals)][0]
        raise EvaluationError(f"integrand not finite at r = {bad!r}", node=float(bad))
    return vals


def radial_integral(
    g: Callable[[np.ndarray], np.ndarray],
    grid: RadialGrid,
    rel_tol: float = 1e-8,
    max_doublings: int = 8,
    full_output: bool = False,
):
    """Adaptive quadrature of ``g`` over (grid.r_min, grid.r_max).

    Refines composite Simpson in u = log r (split at r = 1) by node
    doubling until the successive-refinement delta drops below ``rel_tol``
    relative or the doubling budget is exhausted.  Returns the value, or
    ``(value, error_estimate)`` with ``full_output=True``.
    """
    base = max(8, (len(grid.nodes) - 1) // 2)
    base += base % 2
    panels = (
        [(grid.r_min, 1.0), (1.0, grid.r_max)]
        if grid.r_min < 1.0 < grid.r_max
        else [(grid.r_min, grid.r_max)]
    )

    def estimate(level):
        total = 0.0
        for lo, hi in panels:
            r, w = _simpson_rule(lo, hi, base * 2**level + 1, log=True)
            total += float(np.dot(w, _eval_integrand(g, r)))
        return total

    value, err = _refine(estimate, max_doublings + 1, rel_tol)
    if full_output:
        return value, err
    return value


# ---------------------------------------------------------------------------
# spherical grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SphericalGrid:
    """Finite positive measure on the unit sphere as a list of atoms."""

    atoms: np.ndarray          # (n, d) unit vectors
    weights: np.ndarray        # (n,) nonnegative

    def __post_init__(self):
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        weights = np.asarray(self.weights, dtype=float)
        norms = np.linalg.norm(atoms, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise DomainError("spherical atoms must be unit vectors (tol 1e-12)")
        if np.any(weights < 0.0) or weights.sum() <= 0.0:
            raise DomainError("weights must be nonnegative with positive total")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def is_symmetric(self, tol: float = 1e-9) -> bool:
        """True when the atom set is invariant under x -> -x with equal weights."""
        keys = np.round(self.atoms / tol) * tol
        order = np.lexsort(keys.T)
        order_neg = np.lexsort(np.round(-self.atoms / tol).T * tol)
        a, w = self.atoms[order], self.weights[order]
        b, wb = -self.atoms[order_neg], self.weights[order_neg]
        return bool(np.allclose(a, b, atol=10 * tol) and np.allclose(w, wb, rtol=1e-12))

    def is_uniform(self) -> bool:
        """True when the grid stands for the uniform surface measure: equal
        weights totalling |S^{d-1}| (rel 1e-12) on a symmetric atom set of
        at least 64 atoms (the two points in d = 1)."""
        w, area = self.weights, surface_area(self.dim)
        return bool(
            w.size >= (2 if self.dim == 1 else 64)
            and np.ptp(w) <= 1e-12 * w[0]
            and abs(self.total_mass - area) <= 1e-12 * area
            and self.is_symmetric()
        )


def sphere_from_atoms(directions, weights) -> SphericalGrid:
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    norms = np.linalg.norm(directions, axis=1)
    return SphericalGrid(atoms=directions / norms[:, None], weights=np.asarray(weights, float))


def _fibonacci_hemisphere(m: int) -> np.ndarray:
    i = np.arange(m)
    z = (2.0 * i + 1.0) / m - 1.0
    phi = 2.0 * math.pi * i * _GOLDEN_FRACTION
    rho = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)


# one Halton base per coordinate of the d >= 4 point sets
_HALTON_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _halton(n: int, base: int) -> np.ndarray:
    out = np.zeros(n)
    for i in range(n):
        f, x, k = 1.0, 0.0, i + 1
        while k > 0:
            f /= base
            x += f * (k % base)
            k //= base
        out[i] = x
    return out


def uniform_sphere(d: int, n_atoms: Optional[int] = None) -> SphericalGrid:
    """Deterministic discretization of the uniform surface measure.

    d = 1: the two points {+1, -1} with unit weights.  d >= 2: a half set
    and its exact negation, so atom j + n/2 is -atom j bit for bit, with
    equal weights; the half set is the equally spaced angles in [0, pi)
    for d = 2 (default n = 256) and a low-discrepancy point set for
    d >= 3 (default n = 1024), one Halton base per coordinate for d >= 4,
    so d <= 12.  An odd n is rounded up; n < 1 raises.  Total weight
    always equals the sphere's surface area, so integrals against the
    grid approximate integrals against the unnormalized uniform measure.
    """
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    if d > len(_HALTON_PRIMES):
        raise DomainError(f"uniform_sphere has Halton bases for d <= {len(_HALTON_PRIMES)}, got d = {d}")
    if d == 1:
        return SphericalGrid(atoms=np.array([[1.0], [-1.0]]), weights=np.array([1.0, 1.0]))
    n = (256 if d == 2 else 1024) if n_atoms is None else int(n_atoms)
    if n < 1:
        raise DomainError(f"a sphere rule needs at least one atom, got {n_atoms}")
    n += n % 2
    m = n // 2
    if d == 2:
        theta = 2.0 * math.pi * np.arange(m) / n
        half = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    elif d == 3:
        half = _fibonacci_hemisphere(m)
    else:
        from scipy.special import ndtri

        u = np.stack([_halton(m, _HALTON_PRIMES[j]) for j in range(d)], axis=1)
        g = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
        half = g / np.linalg.norm(g, axis=1)[:, None]
    atoms = np.vstack([half, -half])
    return SphericalGrid(atoms=atoms, weights=np.full(n, surface_area(d) / n))


def spherical_integral(fn, grid: SphericalGrid):
    """Sum of weight * fn(direction) over the grid's atoms.

    ``fn`` may be vectorized over an (n, d) array of directions or accept
    one direction at a time; real or complex values are both fine.
    """
    if grid.atoms.shape[0] == 0:
        raise DomainError("empty spherical grid")
    try:
        vals = np.asarray(fn(grid.atoms))
        if vals.shape[:1] != (grid.atoms.shape[0],):
            raise TypeError
    except (TypeError, ValueError, IndexError):
        vals = np.asarray([fn(x) for x in grid.atoms])
    if not np.all(np.isfinite(vals)):
        raise EvaluationError("spherical integrand not finite on some atom")
    return np.tensordot(grid.weights, vals, axes=(0, 0))


# ---------------------------------------------------------------------------
# time quadrature for exponentially decaying integrands
# ---------------------------------------------------------------------------


def _time_nodes(t0: float, horizon: float, n: int):
    u = np.linspace(math.log(t0), math.log(horizon), n)
    t = np.exp(u)
    h = u[1] - u[0]
    w = np.full(n, h) * t
    w[0] *= 0.5
    w[-1] *= 0.5
    return t, w


def time_integral(
    fn,
    decay_rate_hint: float,
    rel_tol: float = 1e-6,
    max_doublings: int = 8,
    vectorized: bool = False,
):
    """Integral of ``fn`` over (0, infinity) for exponentially decaying ``fn``.

    Uses a geometric grid truncated at the horizon T with
    exp(-hint * T) < 1e-10, after an empirical decay probe; refuses with a
    diagnostic when the probe sees no decay.  With ``vectorized=True``
    ``fn`` may return arrays (one quadrature grid shared by all entries).
    """
    if decay_rate_hint <= 0.0:
        raise DomainError("decay_rate_hint must be positive")
    horizon = math.log(1e10) / decay_rate_hint
    probes = horizon * np.array([0.2, 0.4, 0.6, 0.8, 1.0])
    pv = [np.asarray(fn(float(t)), dtype=float) for t in probes]
    mags = np.array([np.max(np.abs(v)) for v in pv])
    scale = max(np.max(np.abs(np.asarray(fn(1e-3), dtype=float))), mags.max(), 1e-300)
    live = mags > 1e-12 * scale
    if live.sum() >= 2:
        lm = np.log(mags[live])
        slope = np.polyfit(probes[live], lm, 1)[0]
        if slope > -0.1 * decay_rate_hint:
            raise DecayError(
                f"no empirical decay detected: envelope slope {slope:.3g} over "
                f"probes up to t = {horizon:.3g} (hint was {decay_rate_hint:.3g})"
            )
    t0 = 1e-4
    head = 0.5 * t0 * (np.asarray(fn(0.0), dtype=float) + np.asarray(fn(t0), dtype=float))

    def estimate(level):
        t, w = _time_nodes(t0, horizon, 48 * 2**level + 1)
        if vectorized:
            total = np.tensordot(w, np.asarray(fn(t), dtype=float), axes=(0, 0))
        else:
            total = float(np.dot(w, np.array([fn(float(ti)) for ti in t], dtype=float)))
        return total + head

    return _refine(estimate, max_doublings + 1, rel_tol)[0]


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

_FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)


def grad_fd(f, x, scale: float = 1.0) -> np.ndarray:
    """Central-difference gradient with step = scale * eps^(1/3)."""
    x = np.asarray(x, dtype=float)
    h = scale * _FD_STEP
    out = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        out[j] = (float(f(x + e)) - float(f(x - e))) / (2.0 * h)
    return out


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    """Scalar field with gradient access and an optional closed-form
    Fourier transform (convention F(f)(xi) = int f(x) e^{-i<xi,x>} dx).

    ``gauss`` = (amp, a) marks a plain bump amp e^{-a |x - c|^2}, c the
    ``fourier_center``; its transform is G(|xi|) e^{-i<xi, c>} with the
    radial profile G = ``radial_fourier``, which powers the semigroup and
    the symbol route.  ``scaled(k)`` carries it as (k amp, a); ``product``
    and coordinate bumps leave it None.  ``m_bounds`` holds (sup|f|,
    sup|grad f|, sup|Hess f|_op) when known in closed form.

    ``ray`` and ``ray_slope`` are optional closed forms of ``along`` and
    ``along_slope``: the values and directional slopes on the rays
    z + r x, computed without building the (m*K, d) points.  ``ray_split``
    (a ``RaySplit``) writes f on those rays as fixed 1-D profiles of
    p = <z - c, x> + r with per-sample coefficients; the Monte Carlo
    estimators read their jump integrals off 1-D tables through it.  A
    constructor that changes f must set all three (``scaled`` scales them)
    or leave them out (``product``, ``replace(f, ray_split=None)``).
    """

    __test__ = False  # not a pytest test class, despite its name

    name: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    fourier: Optional[Callable[[np.ndarray], np.ndarray]] = None
    support_radius: float = math.inf
    dim: Optional[int] = None
    gauss: Optional[tuple] = None
    fourier_center: Optional[np.ndarray] = None
    m_bounds: Optional[tuple] = None
    reach: Optional[float] = None  # radius beyond which |f| is negligible
    ray: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = None
    ray_slope: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = None
    ray_split: Optional["RaySplit"] = None

    def __call__(self, x):
        return self.evaluate(x)

    def radial_fourier(self, rho) -> np.ndarray:
        """G(rho) = amp (pi/a)^{d/2} e^{-rho^2/(4a)} of a plain bump."""
        amp, a = self.gauss
        return amp * ((math.pi / a) ** (self.dim / 2.0) * np.exp(-np.asarray(rho) ** 2 / (4.0 * a)))

    def along(self, Z, x, r) -> np.ndarray:
        """f(Z[i] + r[k] x) as an (m, K) array, for a unit direction x."""
        if self.ray is not None:
            return self.ray(Z, x, r)
        return np.asarray(self.evaluate(_ray_points(Z, x, r)), dtype=float).reshape(Z.shape[0], -1)

    def along_slope(self, Z, x, r) -> np.ndarray:
        """<grad f(Z[i] + r[k] x), x> as an (m, K) array, for a unit direction x."""
        if self.ray_slope is not None:
            return self.ray_slope(Z, x, r)
        g = np.asarray(self.gradient(_ray_points(Z, x, r)), dtype=float)
        return (g @ x).reshape(Z.shape[0], -1)

    def grad(self, x, scale: float = 1.0):
        if self.gradient is not None:
            return self.gradient(x)
        return grad_fd(self.evaluate, x, scale=scale)

    def scaled(self, amplitude: float) -> "TestFunction":
        """Same shape rescaled by a constant amplitude; the bounds scale by
        its absolute value."""
        ev, gr, fo, gs = self.evaluate, self.gradient, self.fourier, self.gauss
        ry, rs, sp = self.ray, self.ray_slope, self.ray_split

        def split(Z, x, _s=None if sp is None else sp.split):
            C, p = _s(Z, x)
            return amplitude * C, p

        return replace(
            self,
            name=f"{amplitude:g}*{self.name}",
            evaluate=lambda x, _e=ev: amplitude * _e(x),
            gradient=None if gr is None else (lambda x, _g=gr: amplitude * _g(x)),
            fourier=None if fo is None else (lambda xi, _f=fo: amplitude * _f(xi)),
            gauss=None if gs is None else (amplitude * gs[0], gs[1]),
            m_bounds=None if self.m_bounds is None else tuple(abs(amplitude) * b for b in self.m_bounds),
            ray=None if ry is None else (lambda Z, x, r, _y=ry: amplitude * _y(Z, x, r)),
            ray_slope=None if rs is None else (lambda Z, x, r, _s=rs: amplitude * _s(Z, x, r)),
            ray_split=None if sp is None else sp._replace(split=split),
        )

    def product(self, other: "TestFunction") -> "TestFunction":
        """Pointwise product; gradient by the product rule (no transform)."""
        f, g = self, other

        def ev(x):
            return f.evaluate(x) * g.evaluate(x)

        def gr(x):
            return f.evaluate(x) * g.grad(x) + g.evaluate(x) * f.grad(x)

        return TestFunction(
            name=f"({f.name})*({g.name})",
            evaluate=ev,
            gradient=gr,
            support_radius=min(f.support_radius, g.support_radius),
            dim=f.dim if f.dim is not None else g.dim,
        )


class RaySplit(NamedTuple):
    """f on the rays z + r x as sum_k C[i, j, k] g_k(p[i, j] + r), with
    p = <z - c, x_j> and the 1-D profiles g_k(t) = t^k exp(-a t^2), k < n.

    ``split(Z, X)`` returns C, an (m, J, n) array, and p, an (m, J) array,
    for the rows of Z and the unit directions in the rows of X.  The
    profiles do not depend on the sample, the centre or the direction, so
    a jump integral of f along x_j is a sum of C-weighted 1-D integrals of
    the profiles at p."""

    a: float
    n: int
    split: Callable[[np.ndarray, np.ndarray], tuple]

    def profiles(self) -> list:
        """g_0, ..., g_{n-1} as 1-D test functions."""
        return [gaussian_bump(1, self.a, coord=None if k == 0 else 0) for k in range(self.n)]


def _knot_interval(knots, s, guess):
    """Interval j of s on increasing knots, clamped to the first and last
    interval, and the offset s - knots[j].  floor(guess) may miss j by one
    interval either way; the knots themselves settle it, so j is the
    interval scipy's PPoly picks."""
    last = knots.size - 2
    j = np.clip(np.floor(guess), 0, last).astype(np.intp)
    j -= (j > 0) & (s < knots[j])
    j += (j < last) & (s >= knots[j + 1])
    return j, s - knots[j]


def _uniform_interval(knots, s):
    """``_knot_interval`` on uniform knots, guessed as (s - knots[0]) / step."""
    return _knot_interval(knots, s, (s - knots[0]) / (knots[1] - knots[0]))


def _ray_points(Z, x, r) -> np.ndarray:
    """The points Z[i] + r[k] x as an (m*K, d) array, row i*K + k."""
    return (Z[:, None, :] + r[None, :, None] * x[None, None, :]).reshape(-1, Z.shape[1])


def _as_points(x, d):
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        return pts[None, :], True
    return pts, False


def _plain_bump_bounds(a: float, amp: float = 1.0) -> tuple:
    """(sup|f|, sup|grad f|, sup|Hess f|_op) of f = amp exp(-a |x - c|^2)."""
    return (abs(amp), abs(amp) * math.sqrt(2.0 * a) * math.exp(-0.5), abs(amp) * 2.0 * a)


def gaussian_bump(
    d: int,
    a: float = 1.0,
    center: Optional[Sequence[float]] = None,
    coord: Optional[int] = None,
    amplitude: float = 1.0,
    name: Optional[str] = None,
) -> TestFunction:
    """amplitude * p(x) * exp(-a |x - c|^2) with p = 1 or (x_j - c_j).

    Carries the analytic gradient and the closed Fourier transform
    F(exp(-a|x|^2))(xi) = (pi/a)^{d/2} exp(-|xi|^2 / 4a), shifted and
    differentiated as needed.  A width that is not positive and finite, or
    a non-finite amplitude or centre, raises ``DomainError``.
    """
    if not 0.0 < a < math.inf:
        raise DomainError(f"Gaussian width parameter must be positive and finite, got {a}")
    c = np.zeros(d) if center is None else np.asarray(center, dtype=float)
    if c.shape != (d,) or not np.all(np.isfinite(c)):
        raise DomainError(f"center must be a finite point of shape ({d},)")
    amp = float(amplitude)
    if not math.isfinite(amp):
        raise DomainError(f"amplitude must be finite, got {amp}")
    pref = (math.pi / a) ** (d / 2.0)

    def evaluate(x):
        pts, single = _as_points(x, d)
        y = pts - c
        g = amp * np.exp(-a * np.einsum("nd,nd->n", y, y))
        if coord is not None:
            g = g * y[:, coord]
        return g[0] if single else g

    def gradient(x):
        pts, single = _as_points(x, d)
        y = pts - c
        e = amp * np.exp(-a * np.einsum("nd,nd->n", y, y))
        if coord is None:
            g = -2.0 * a * y * e[:, None]
        else:
            g = -2.0 * a * y * (y[:, coord] * e)[:, None]
            g[:, coord] += e
        return g[0] if single else g

    def fourier(xi):
        pts, single = _as_points(xi, d)
        base = amp * pref * np.exp(-np.einsum("nd,nd->n", pts, pts) / (4.0 * a))
        phase = np.exp(-1j * pts @ c)
        out = base * phase
        if coord is not None:
            out = out * (-1j * pts[:, coord] / (2.0 * a))
        return out[0] if single else out

    def _ray_exp(Z, x, r):
        """y = Z - c, s = <y, x> + r and amp exp(-a |y + r x|^2) on the rays,
        by the split |y + r x|^2 = |y - <y,x> x|^2 + (<y,x> + r)^2: the
        expansion |y|^2 + 2r<y,x> + r^2 cancels for samples far from c.

        The exponent is floored at -700, so the factor never drops below
        1e-304 (against 0 or a subnormal): numpy's exp, and arithmetic on
        subnormals, run up to 100x slower, and far samples put most of
        the nodes there."""
        y = Z - c
        p = y @ x
        perp = y - p[:, None] * x
        s = np.add.outer(p, r)
        e = np.square(s)
        e += np.einsum("nd,nd->n", perp, perp)[:, None]
        e *= -a
        np.maximum(e, -700.0, out=e)
        np.exp(e, out=e)
        e *= amp
        return y, s, e

    def split(Z, X):
        # f(z + r x) = amp e^(-a q) g_0(p + r) for the plain bump, and
        # amp e^(-a q) [(y_j - p x_j) g_0(p + r) + x_j g_1(p + r)] for the
        # coordinate bump, with q from the perpendicular part as in _ray_exp
        y = Z - c
        p = y @ X.T
        e = np.zeros(p.shape)
        for i in range(d):
            u = np.multiply(p, -X[:, i])
            u += y[:, i, None]
            if i == coord:
                perp_j = u.copy()
            e += np.square(u, out=u)
        e *= -a
        np.maximum(e, -700.0, out=e)
        np.exp(e, out=e)
        e *= amp
        if coord is None:
            return e[:, :, None], p
        perp_j *= e
        return np.stack([perp_j, e * X[:, coord]], axis=2), p

    def ray(Z, x, r):
        y, _, e = _ray_exp(Z, x, r)
        if coord is not None:
            e *= np.add.outer(y[:, coord], r * x[coord])
        return e

    def ray_slope(Z, x, r):
        # <grad f, x> = -2a (<y,x> + r) f for the plain bump, and
        # e (x_j - 2a (<y,x> + r)(y_j + r x_j)) for the coordinate bump
        y, s, e = _ray_exp(Z, x, r)
        s *= -2.0 * a
        if coord is not None:
            s *= np.add.outer(y[:, coord], r * x[coord])
            s += x[coord]
        e *= s
        return e

    label = name or (
        f"bump(a={a:g}, c={np.array2string(c, precision=2)})"
        if coord is None
        else f"x{coord + 1}-bump(a={a:g}, c={np.array2string(c, precision=2)})"
    )
    return TestFunction(
        name=label,
        evaluate=evaluate,
        gradient=gradient,
        fourier=fourier,
        support_radius=math.inf,
        dim=d,
        gauss=(amp, a) if coord is None else None,
        fourier_center=c,
        m_bounds=_plain_bump_bounds(a, amp) if coord is None else None,
        reach=float(np.linalg.norm(c)) + 7.0 / math.sqrt(a),
        ray=ray,
        ray_slope=ray_slope,
        ray_split=RaySplit(a, 1 if coord is None else 2, split),
    )


def constant_fn(value: float, d: int) -> TestFunction:
    """Constant test function (zero gradient, no transform)."""
    return TestFunction(
        name=f"const({value:g})",
        evaluate=lambda x: (
            float(value) if np.asarray(x).ndim == 1 else np.full(np.atleast_2d(x).shape[0], float(value))
        ),
        gradient=lambda x: np.zeros(np.shape(x)),
        support_radius=math.inf,
        dim=d,
        m_bounds=(abs(value), 0.0, 0.0),
    )


def gaussian_bump_library(d: int) -> list[TestFunction]:
    """At least ten bump test functions: shifted/scaled Gaussians and their
    products with coordinates, all with analytic gradients and transforms."""
    if d < 1:
        raise DomainError("dimension must be >= 1")
    e1 = np.zeros(d)
    e1[0] = 1.0
    e2 = np.zeros(d)
    e2[min(1, d - 1)] = 1.0
    lib = [
        gaussian_bump(d, a=1.0),
        gaussian_bump(d, a=0.5),
        gaussian_bump(d, a=2.0),
        gaussian_bump(d, a=1.0, center=0.7 * e1),
        gaussian_bump(d, a=1.0, center=-0.5 * e1 + 0.3 * e2),
        gaussian_bump(d, a=0.75, center=1.1 * e2),
        gaussian_bump(d, a=1.5, center=-0.9 * e1, amplitude=0.8),
        gaussian_bump(d, a=1.0, coord=0),
        gaussian_bump(d, a=0.5, coord=0, center=0.4 * e1),
        gaussian_bump(d, a=1.0, coord=min(1, d - 1), amplitude=0.6),
        gaussian_bump(d, a=2.5, center=0.2 * e1 + 0.2 * e2, amplitude=1.2),
    ]
    return lib


def _normalized_bump_params(d: int, order: int, count: int, rng: np.random.Generator) -> list:
    """(a, c, amplitude) of each ``normalized_bumps`` member: a random width
    and center, and the amplitude 1 / max(1, m_0, ..., m_order) from the
    plain bump's closed-form derivative bounds."""
    out = []
    for _ in range(count):
        a = float(np.exp(rng.uniform(math.log(0.15), math.log(2.0))))
        c = rng.normal(0.0, 1.5, size=d)
        out.append((a, c, 1.0 / max(1.0, *_plain_bump_bounds(a)[: order + 1])))
    return out


def normalized_bumps(d: int, order: int, count: int, rng: np.random.Generator) -> list[TestFunction]:
    """Random-center/scale plain bumps rescaled so every derivative bound up
    to ``order`` is <= 1 (closed-form bounds, so membership is certifiable)."""
    params = _normalized_bump_params(d, order, count, rng)
    return [gaussian_bump(d, a=a, center=c).scaled(amp) for a, c, amp in params]


# ---------------------------------------------------------------------------
# fixed quadrature rules (cached)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def gauss_legendre_panel(n: int):
    """Nodes/weights on (0, 1)."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


@lru_cache(maxsize=None)
def gauss_jacobi_unit(n: int, beta: float):
    """Nodes r_i and weights W_i with sum W_i g(r_i) = int_0^1 g(r) r^beta dr."""
    if beta <= -1.0:
        raise DomainError("Jacobi exponent must exceed -1")
    x, w = roots_jacobi(n, 0.0, beta)
    r = (x + 1.0) / 2.0
    return r, w * 2.0 ** (-beta - 1.0)


def fourier_round_trip_error(tf: TestFunction, d: int, points: np.ndarray, half_width: Optional[float] = None, n_grid: int = 96) -> float:
    """Max relative error of the numerical inverse transform at probe points."""
    if tf.fourier is None:
        raise DomainError("test function has no closed-form transform")
    L = half_width if half_width is not None else 14.0
    axes = [np.linspace(-L, L, n_grid)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    xi = np.stack([m.ravel() for m in mesh], axis=1)
    dx = (axes[0][1] - axes[0][0]) ** d
    F = np.asarray(tf.fourier(xi))
    worst = 0.0
    scale = max(float(np.max(np.abs(tf.evaluate(points)))), 1e-12)
    for x in np.atleast_2d(points):
        val = float(np.real(np.sum(F * np.exp(1j * xi @ x))) * dx / (2.0 * math.pi) ** d)
        worst = max(worst, abs(val - float(tf.evaluate(x))) / scale)
    return worst
