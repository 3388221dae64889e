"""Sample-wise quadrature of jump integrals against polar Lévy measures.

Every covariance-identity residual needs, for each Monte Carlo sample z,
an integral of the form

    sum_j w_j int_0^inf  g(z, r, x_j)  rho(r) dr,

where rho is the radial density of the Lévy measure (k(r)/r) or of its
derived measure (-k'(r)).  The integrands vanish fast enough at the
origin that a Gauss-Jacobi rule with the singular weight folded in is
spectrally accurate on (0, 1]; the big-jump side uses log-spaced
Gauss-Legendre panels up to a cutoff past the test function's reach,
plus the closed-form tail that remains when the shifted term is gone.

One rule, ``_radial_rule``, builds those nodes, coefficients and tail for
every jump integral in the package: the engines here, the carré du
champs and its iterate, and the Stein solver's verification.  A caller
supplies only its increment along one direction, evaluated once on the
concatenated small- and big-jump nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._errors import DomainError, UnsupportedFamilyError
from .numerics import SphericalGrid, TestFunction, gauss_jacobi_unit, uniform_sphere
from .sampling import CHUNK  # noqa: F401  (the chunk size the engines are sized for)

__all__ = ["RadialDensity", "density_nu", "density_tilde", "quad_sphere_for"]


@dataclass(frozen=True)
class RadialDensity:
    """Radial density rho(r) = amp * r^-p * extra(r), with extra smooth,
    positive, extra(0) = 1, and either identically 1 (pure power) or
    exponentially decaying."""

    amp: float
    p: float
    extra: object          # None for a pure power law, else callable
    horizon: float         # radius beyond which extra is negligible (inf for power)

    def rho(self, r):
        base = self.amp * np.asarray(r, dtype=float) ** -self.p
        if self.extra is not None:
            base = base * self.extra(r)
        return base

    def tail_mass(self, R: float) -> float:
        """int_R^inf rho dr (0 beyond the decay horizon)."""
        return _tail_moment(self, R, 0)


def density_nu(kf) -> RadialDensity:
    """k(r)/r as a RadialDensity."""
    if kf.family == "stable":
        return RadialDensity(kf.c, kf.alpha + 1.0, None, math.inf)
    if kf.family == "tempered":
        lam = kf.lam
        return RadialDensity(
            kf.c, kf.alpha + 1.0, lambda r: np.exp(-lam * np.asarray(r)), 50.0 / lam
        )
    if kf.family == "gamma":
        lam = kf.lam
        return RadialDensity(kf.c, 1.0, lambda r: np.exp(-lam * np.asarray(r)), 50.0 / lam)
    raise UnsupportedFamilyError("jump quadrature requires a built-in radial family")


def density_tilde(kf) -> RadialDensity:
    """-k'(r) as a RadialDensity."""
    if kf.family == "stable":
        return RadialDensity(kf.alpha * kf.c, kf.alpha + 1.0, None, math.inf)
    if kf.family == "tempered":
        a, lam = kf.alpha, kf.lam
        return RadialDensity(
            a * kf.c,
            a + 1.0,
            lambda r: np.exp(-lam * np.asarray(r)) * (a + lam * np.asarray(r)) / a,
            50.0 / lam,
        )
    if kf.family == "gamma":
        lam = kf.lam
        return RadialDensity(kf.c * lam, 0.0, lambda r: np.exp(-lam * np.asarray(r)), 50.0 / lam)
    raise UnsupportedFamilyError("jump quadrature requires a built-in radial family")


def quad_sphere_for(law, n_dirs: int = 32) -> SphericalGrid:
    """Direction rule for the inner spherical integral: the law's own
    atoms when they are few, otherwise a reduced uniform grid."""
    sphere = law.levy.sphere
    if sphere.atoms.shape[0] <= max(8, n_dirs // 4):
        return sphere
    return uniform_sphere(law.dim, n_dirs)


def _norm_buckets(Z, fractions=(0.6, 0.85, 0.97, 1.0)):
    """Split a chunk into norm-sorted buckets so the big-jump cutoff (and
    with it the panel count) tracks each bucket's largest sample instead
    of the chunk's heavy-tail maximum."""
    norms = np.linalg.norm(Z, axis=1)
    order = np.argsort(norms)
    m = Z.shape[0]
    out = []
    lo = 0
    for frac in fractions:
        hi = max(lo + 1, int(math.ceil(frac * m)))
        hi = min(hi, m)
        if hi > lo:
            idx = order[lo:hi]
            out.append(idx)
            lo = hi
        if lo >= m:
            break
    return out


# ---------------------------------------------------------------------------
# radial rules
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _big_panels(R_key: int, per_octave: int):
    """Gauss-Legendre nodes/weights on (1, sqrt(2)^R_key], half-octave panels."""
    x, w = np.polynomial.legendre.leggauss(max(4, per_octave // 2))
    nodes, weights = [], []
    lo = 1.0
    hi_total = 2.0 ** (R_key / 2.0)
    while lo < hi_total * 0.999:
        hi = min(lo * math.sqrt(2.0), hi_total)
        mid, half = (hi + lo) / 2.0, (hi - lo) / 2.0
        nodes.append(mid + half * x)
        weights.append(half * w)
        lo = hi
    return np.concatenate(nodes), np.concatenate(weights)


def big_rule(R: float, per_octave: int = 12):
    """Panel rule on (1, R'] with R' = next half-octave above R."""
    R_key = max(2, int(math.ceil(2.0 * math.log2(max(R, 2.0)))))
    r, w = _big_panels(R_key, per_octave)
    return r, w, 2.0 ** (R_key / 2.0)


def small_rule(beta: float, n: int = 16):
    """Nodes/weights with sum W g(r) = int_0^1 g(r) r^beta dr."""
    return gauss_jacobi_unit(n, beta)


def _tail_moment(dens: RadialDensity, R: float, power: int) -> float:
    """int_R^inf r^power rho(r) dr (0 beyond the decay horizon)."""
    if dens.extra is None:
        if dens.p <= power + 1.0:
            raise DomainError("the big-jump tail has no moment of this order")
        return dens.amp * R ** (power + 1.0 - dens.p) / (dens.p - power - 1.0)
    if R >= dens.horizon:
        return 0.0
    u = np.linspace(math.log(R), math.log(dens.horizon), 801)
    r = np.exp(u)
    return float(np.trapezoid(r**power * dens.rho(r) * r, u))


def _radial_rule(dens: RadialDensity, R_want: float, vanish: int, power: int, n_small: int, per_octave: int):
    """Nodes r, coefficients c, cutoff R and tail T of one jump integral.

    sum_i c_i phi(r_i) approximates int_0^R phi(r) r^power rho(r) dr for
    every phi = O(r^vanish) at the origin, and T = int_R^inf r^power rho dr.
    The nodes on (0, 1] come first: a Gauss-Jacobi rule carrying the
    singular weight r^(vanish + power - p), with amp * extra(r) / r^vanish
    folded into c.  Beyond 1 half-octave Gauss-Legendre panels run to R,
    the half-octave at or above R_want, with r^power rho(r) folded into c."""
    beta = vanish + power - dens.p
    if beta <= -1.0:
        raise DomainError("jump integral diverges at the origin for this density")
    rs, ws = small_rule(beta, n_small)
    rb, wb, R = big_rule(R_want, per_octave)
    extra_s = dens.extra(rs) if dens.extra is not None else 1.0
    c_small = dens.amp * ws * extra_s / rs**vanish
    c_big = rb**power * dens.rho(rb) * wb
    return np.concatenate([rs, rb]), np.concatenate([c_small, c_big]), R, _tail_moment(dens, R, power)


def _cutoff(Z, reach: float, dens: RadialDensity) -> float:
    """Big-jump cutoff for a set of samples: past the farthest sample plus
    the test function's reach, at least 64, at most the decay horizon."""
    return min(max(float(np.max(np.linalg.norm(Z, axis=1))) + reach + 1.0, 64.0), dens.horizon)


def _along_directions(sphere: SphericalGrid, c, increment):
    """(directions, samples) array whose row j is increment(x_j) @ c: the
    radial integral of the (samples, nodes) increment along atom x_j."""
    return np.stack([increment(x) @ c for x in sphere.atoms])


# ---------------------------------------------------------------------------
# chunked per-sample engines
# ---------------------------------------------------------------------------


def _is_constant(f: TestFunction) -> bool:
    return f.m_bounds is not None and f.m_bounds[1] == 0.0 and f.m_bounds[2] == 0.0


def _reach(f: TestFunction) -> float:
    if _is_constant(f):
        return 1.0  # every increment vanishes
    if f.reach is not None:
        return f.reach
    if f.support_radius != math.inf:
        return f.support_radius
    raise DomainError(
        "jump quadrature needs a test function with a declared reach or support radius"
    )


def _shifted_eval(f, Z, x_dir, r):
    """f(Z[i] + r[k] * x_dir) as an (m, K) array."""
    m, K = Z.shape[0], r.shape[0]
    pts = Z[:, None, :] + r[None, :, None] * x_dir[None, None, :]
    return np.asarray(f.evaluate(pts.reshape(m * K, -1)), dtype=float).reshape(m, K)


def _shifted_grad_dot(f, Z, x_dir, r):
    """<grad f(Z[i] + r[k] x), x> as an (m, K) array."""
    m, K = Z.shape[0], r.shape[0]
    pts = Z[:, None, :] + r[None, :, None] * x_dir[None, None, :]
    g = np.asarray(f.gradient(pts.reshape(m * K, -1)), dtype=float)
    return (g @ x_dir).reshape(m, K)


def _increment(f, Z, x_dir, r, fz):
    """f(Z[i] + r[k] x_dir) - f(Z[i]) as an (m, K) array (built in place:
    arrays this size cost a fresh allocation per temporary)."""
    inc = _shifted_eval(f, Z, x_dir, r)
    inc -= fz[:, None]
    return inc


def _jump_raw(f, Z, sphere, dens, n_small, per_octave):
    fz = np.asarray(f.evaluate(Z), dtype=float)
    r, c, _, tail = _radial_rule(dens, _cutoff(Z, _reach(f), dens), 1, 0, n_small, per_octave)
    radial = _along_directions(sphere, c, lambda x: _increment(f, Z, x, r, fz))
    return sphere.weights @ radial - fz * tail * sphere.total_mass


def _jump_ball(f, Z, sphere, dens, n_small, per_octave):
    fz = np.asarray(f.evaluate(Z), dtype=float)
    gz = np.asarray(f.gradient(Z), dtype=float)
    r, c, _, tail = _radial_rule(dens, _cutoff(Z, _reach(f), dens), 2, 0, n_small, per_octave)
    n_ball = np.count_nonzero(r <= 1.0)

    def increment(x):
        inc = _increment(f, Z, x, r, fz)
        inc[:, :n_ball] -= np.outer(gz @ x, r[:n_ball])  # compensator on jumps in the unit ball
        return inc

    radial = _along_directions(sphere, c, increment)
    return sphere.weights @ radial - fz * tail * sphere.total_mass


def _jump_vector(f, Z, sphere, dens, n_small, per_octave):
    fz = np.asarray(f.evaluate(Z), dtype=float)
    r, c, _, tail = _radial_rule(dens, _cutoff(Z, _reach(f), dens), 1, 1, n_small, per_octave)
    radial = _along_directions(sphere, c, lambda x: _increment(f, Z, x, r, fz))
    weighted = sphere.weights[:, None] * sphere.atoms
    return radial.T @ weighted - np.outer(fz * tail, weighted.sum(axis=0))


def _jump_grad_diff(f, Z, sphere, dens, n_small, per_octave):
    gz = np.asarray(f.gradient(Z), dtype=float)
    r, c, _, tail = _radial_rule(dens, _cutoff(Z, _reach(f), dens), 1, 1, n_small, per_octave)

    def increment(x):
        inc = _shifted_grad_dot(f, Z, x, r)
        inc -= (gz @ x)[:, None]
        return inc

    radial = _along_directions(sphere, c, increment)
    return sphere.weights @ radial - tail * (gz @ (sphere.weights @ sphere.atoms))


def _jump_square(f, Z, sphere, dens, n_small, per_octave):
    fz = np.asarray(f.evaluate(Z), dtype=float)
    r, c, _, tail = _radial_rule(dens, _cutoff(Z, _reach(f), dens), 2, 0, n_small, per_octave)
    radial = _along_directions(sphere, c, lambda x: np.square(_increment(f, Z, x, r, fz)))
    return sphere.weights @ radial + fz**2 * tail * sphere.total_mass


def _bucketed(engine, f, Z, sphere, dens, n_small, per_octave, shape):
    """Run a per-sample engine on norm buckets of the chunk; zero for a
    constant f, whose increments all vanish."""
    out = np.zeros(shape)
    if _is_constant(f):
        return out
    for idx in _norm_buckets(Z):
        out[idx] = engine(f, Z[idx], sphere, dens, n_small, per_octave)
    return out


def jump_raw_chunk(f, Z, sphere, dens: RadialDensity, n_small=12, per_octave=8):
    """int (f(z+u) - f(z)) nu(du) per sample (raw increment; needs the
    density integrable at 0 against r, i.e. p < 2)."""
    return _bucketed(_jump_raw, f, Z, sphere, dens, n_small, per_octave, Z.shape[0])


def jump_ball_chunk(f, Z, sphere, dens: RadialDensity, n_small=16, per_octave=8):
    """int (f(z+u) - f(z) - <grad f(z), u> 1_{|u|<=1}) nu(du) per sample."""
    return _bucketed(_jump_ball, f, Z, sphere, dens, n_small, per_octave, Z.shape[0])


def jump_vector_chunk(f, Z, sphere, dens: RadialDensity, n_small=12, per_octave=8):
    """int (f(z+u) - f(z)) u nu(du) per sample, as an (m, d) array.

    The radial factor of u cancels one power of the density, so this
    needs p < 3 near the origin and, for a pure power, p > 2 in the tail
    (finite first moment), i.e. the stable range alpha in (1, 2)."""
    return _bucketed(_jump_vector, f, Z, sphere, dens, n_small, per_octave, Z.shape)


def jump_grad_diff_chunk(f, Z, sphere, dens: RadialDensity, n_small=12, per_octave=8):
    """int <grad f(z+u) - grad f(z), u> nu(du) per sample (scalar)."""
    return _bucketed(_jump_grad_diff, f, Z, sphere, dens, n_small, per_octave, Z.shape[0])


def jump_square_chunk(f, Z, sphere, dens: RadialDensity, n_small=12, per_octave=8):
    """int (f(z+u) - f(z))^2 nu(du) per sample."""
    return _bucketed(_jump_square, f, Z, sphere, dens, n_small, per_octave, Z.shape[0])
