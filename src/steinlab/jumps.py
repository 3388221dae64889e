"""Sample-wise quadrature of jump integrals against polar Lévy measures.

Every covariance-identity residual needs, for each Monte Carlo sample z,
an integral of the form

    sum_j w_j int_0^inf  g(z, r, x_j)  rho(r) dr,

where rho is the radial density of the Lévy measure (k(r)/r) or of its
derived measure (-k'(r)), taken from ``levy`` together with its decay
horizon and tail moments, so the jump rules and the Fourier profiles
read the same formulas.  The integrands vanish fast enough at the
origin that a Gauss-Jacobi rule with the singular weight folded in is
spectrally accurate on (0, 1]; the big-jump side uses log-spaced
Gauss-Legendre panels up to a cutoff past the test function's reach,
plus the closed-form tail that remains when the shifted term is gone.

One rule, ``_radial_rule``, builds those nodes, coefficients and tail for
every jump integral in the package: the engines here, the carré du
champs and its iterate, and the Stein solver's verification.  A caller
supplies only its increment along one direction, evaluated once on the
concatenated small- and big-jump nodes.

Increments are evaluated along rays: ``TestFunction.along(Z, x, r)``
returns f(Z[i] + r[k] x) as an (m, K) array, in closed form for the
Gaussian bumps, so no (m*K, d) point array is built; test functions
without a closed form fall back to evaluating those points.
``_along_directions``, the loop over directions, is the one place that
blocks rows: it hands each increment the samples in row blocks of at most
``BLOCK`` values (rows times radial nodes, 128 KiB of doubles).
Temporaries of that size stay in cache and are reused by the allocator,
where larger ones are returned to the system and faulted in again on
every call.

Ray tables.  A Gaussian bump on the ray z + r x is sum_k C_k g_k(p + r)
with p = <z - c, x> and fixed 1-D profiles g_k (``numerics.RaySplit``),
so each engine's integral along x is sum_k C_k T_k(p), and the square's
is sum_kl C_k C_l T_kl(p), with tables T that depend on the density and
the bump's width alone.  ``_ray_tables`` builds them by running the
engine itself on the profiles, at ``RAY_PER_OCTAVE`` nodes per octave,
with the knots as samples; the engines read them when passed
``tables=``.  The Monte Carlo estimators build them: the five
``stein.residual_*`` build their tables once per call, through their one
driver ``stein._jump_mean``, and so does ``dirichlet.poincare_residual``;
every chunk reads them.  A sample with the bump more than the tables'
reach ahead along some direction runs the engine at ``RAY_PER_OCTAVE``.
Test functions without a ray split and every point evaluation (the
generator, the carré du champs and Gamma_2 routes, the curvature check)
run the engine as it is.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ._errors import DomainError
from .levy import RadialDensity, _tail_moment, density_nu, density_tilde
from .numerics import RaySplit, SphericalGrid, TestFunction, _uniform_interval, gauss_jacobi_unit, uniform_sphere
from .sampling import CHUNK  # noqa: F401  (the chunk size the engines are sized for)

__all__ = ["RadialDensity", "density_nu", "density_tilde", "quad_sphere_for"]

BLOCK = 16384  # values (rows x radial nodes) an increment covers at a time


def quad_sphere_for(law, n_dirs: int = 32) -> SphericalGrid:
    """Direction rule for the inner spherical integral: ``n_dirs`` uniform
    directions when the law's sphere is uniform (``SphericalGrid.is_uniform``),
    otherwise the law's own atoms, so an anisotropic sphere keeps its shape."""
    sphere = law.levy.sphere
    return uniform_sphere(law.dim, n_dirs) if sphere.is_uniform() else sphere


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


def _along_directions(sphere: SphericalGrid, c, m: int, increment):
    """(directions, m) array of radial integrals: entry [j, rows] is
    increment(x_j, rows) @ c, where increment(x, rows) is the
    (samples, nodes) increment along atom x for the samples in the slice
    rows.  The slices are row blocks of at most BLOCK // nodes samples,
    so each increment's temporaries stay below BLOCK values; a caller
    indexes its per-sample arrays by the slice."""
    out = np.empty((sphere.atoms.shape[0], m))
    step = max(1, BLOCK // c.size)
    for lo in range(0, m, step):
        rows = slice(lo, lo + step)
        for j, x in enumerate(sphere.atoms):
            out[j, rows] = increment(x, rows) @ c
    return out


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


# _shifted_eval and _shifted_grad_dot stay as named steps: perfbench/spans.py
# times them under these names, here and as imported into dirichlet.
def _shifted_eval(f, Z, x_dir, r):
    """f(Z[i] + r[k] * x_dir) as an (m, K) array."""
    return f.along(Z, x_dir, r)


def _shifted_grad_dot(f, Z, x_dir, r):
    """<grad f(Z[i] + r[k] x), x> as an (m, K) array."""
    return f.along_slope(Z, x_dir, r)


def _increment(f, Z, x_dir, r, fz):
    """f(Z[i] + r[k] x_dir) - f(Z[i]) as an (m, K) array (built in place:
    arrays this size cost a fresh allocation per temporary)."""
    inc = _shifted_eval(f, Z, x_dir, r)
    inc -= fz[:, None]
    return inc


def _jump_raw(f, Z, sphere, dens, n_small, per_octave):
    fz = np.asarray(f.evaluate(Z), dtype=float)
    r, c, _, tail = _radial_rule(dens, _cutoff(Z, _reach(f), dens), 1, 0, n_small, per_octave)
    radial = _along_directions(
        sphere, c, Z.shape[0], lambda x, rows: _increment(f, Z[rows], x, r, fz[rows])
    )
    return sphere.weights @ radial - fz * tail * sphere.total_mass


def _jump_ball(f, Z, sphere, dens, n_small, per_octave):
    fz = np.asarray(f.evaluate(Z), dtype=float)
    gz = np.asarray(f.gradient(Z), dtype=float)
    r, c, _, tail = _radial_rule(dens, _cutoff(Z, _reach(f), dens), 2, 0, n_small, per_octave)
    n_ball = np.count_nonzero(r <= 1.0)

    def increment(x, rows):
        inc = _increment(f, Z[rows], x, r, fz[rows])
        inc[:, :n_ball] -= np.outer(gz[rows] @ x, r[:n_ball])  # compensator on jumps in the unit ball
        return inc

    radial = _along_directions(sphere, c, Z.shape[0], increment)
    return sphere.weights @ radial - fz * tail * sphere.total_mass


def _jump_vector(f, Z, sphere, dens, n_small, per_octave):
    fz = np.asarray(f.evaluate(Z), dtype=float)
    r, c, _, tail = _radial_rule(dens, _cutoff(Z, _reach(f), dens), 1, 1, n_small, per_octave)
    radial = _along_directions(
        sphere, c, Z.shape[0], lambda x, rows: _increment(f, Z[rows], x, r, fz[rows])
    )
    weighted = sphere.weights[:, None] * sphere.atoms
    return radial.T @ weighted - np.outer(fz * tail, weighted.sum(axis=0))


def _jump_grad_diff(f, Z, sphere, dens, n_small, per_octave):
    gz = np.asarray(f.gradient(Z), dtype=float)
    r, c, _, tail = _radial_rule(dens, _cutoff(Z, _reach(f), dens), 1, 1, n_small, per_octave)

    def increment(x, rows):
        inc = _shifted_grad_dot(f, Z[rows], x, r)
        inc -= (gz[rows] @ x)[:, None]
        return inc

    radial = _along_directions(sphere, c, Z.shape[0], increment)
    return sphere.weights @ radial - tail * (gz @ (sphere.weights @ sphere.atoms))


def _jump_product(f, g, Z, sphere, dens, n_small, per_octave):
    """int (f(z+u) - f(z)) (g(z+u) - g(z)) nu(du) per sample; the square
    of one increment when g is f."""
    fz = np.asarray(f.evaluate(Z), dtype=float)
    gz = fz if g is f else np.asarray(g.evaluate(Z), dtype=float)
    r, c, _, tail = _radial_rule(dens, _cutoff(Z, max(_reach(f), _reach(g)), dens), 2, 0, n_small, per_octave)

    def increment(x, rows):
        inc = _increment(f, Z[rows], x, r, fz[rows])
        if g is f:
            return np.square(inc, out=inc)
        inc *= _increment(g, Z[rows], x, r, gz[rows])
        return inc

    radial = _along_directions(sphere, c, Z.shape[0], increment)
    return sphere.weights @ radial + fz * gz * tail * sphere.total_mass


def _jump_square(f, Z, sphere, dens, n_small, per_octave):
    return _jump_product(f, f, Z, sphere, dens, n_small, per_octave)


_ENGINES = {
    "raw": _jump_raw,
    "ball": _jump_ball,
    "vector": _jump_vector,
    "grad_diff": _jump_grad_diff,
    "square": _jump_square,
}


def _bucketed(kind, f, Z, sphere, dens, n_small, per_octave, tables=None):
    """Run one kind of per-sample engine on norm buckets of the chunk, or
    read it off ray tables built for it; zero for a constant f, whose
    increments all vanish."""
    out = np.zeros(Z.shape if kind == "vector" else Z.shape[0])
    if _is_constant(f):
        return out
    if tables is not None:
        if tables.kind != kind:
            raise DomainError(f"ray tables built for the {tables.kind} engine, not the {kind} engine")
        return _read_ray_tables(tables, f, Z, sphere, dens, n_small)
    for idx in _norm_buckets(Z):
        out[idx] = _ENGINES[kind](f, Z[idx], sphere, dens, n_small, per_octave)
    return out


def jump_raw_chunk(f, Z, sphere, dens: RadialDensity, n_small=12, per_octave=8, tables=None):
    """int (f(z+u) - f(z)) nu(du) per sample (raw increment; needs the
    density integrable at 0 against r, i.e. p < 2)."""
    return _bucketed("raw", f, Z, sphere, dens, n_small, per_octave, tables)


def jump_ball_chunk(f, Z, sphere, dens: RadialDensity, n_small=16, per_octave=8, tables=None):
    """int (f(z+u) - f(z) - <grad f(z), u> 1_{|u|<=1}) nu(du) per sample."""
    return _bucketed("ball", f, Z, sphere, dens, n_small, per_octave, tables)


def jump_vector_chunk(f, Z, sphere, dens: RadialDensity, n_small=12, per_octave=8, tables=None):
    """int (f(z+u) - f(z)) u nu(du) per sample, as an (m, d) array.

    The radial factor of u cancels one power of the density, so this
    needs p < 3 near the origin and, for a pure power, p > 2 in the tail
    (finite first moment), i.e. the stable range alpha in (1, 2)."""
    return _bucketed("vector", f, Z, sphere, dens, n_small, per_octave, tables)


def jump_grad_diff_chunk(f, Z, sphere, dens: RadialDensity, n_small=12, per_octave=8, tables=None):
    """int <grad f(z+u) - grad f(z), u> nu(du) per sample (scalar)."""
    return _bucketed("grad_diff", f, Z, sphere, dens, n_small, per_octave, tables)


def jump_square_chunk(f, Z, sphere, dens: RadialDensity, n_small=12, per_octave=8, tables=None):
    """int (f(z+u) - f(z))^2 nu(du) per sample."""
    return _bucketed("square", f, Z, sphere, dens, n_small, per_octave, tables)


# ---------------------------------------------------------------------------
# ray tables
# ---------------------------------------------------------------------------

# The tables cover t = sqrt(a) p in [-RAY_T_MAX, RAY_T_MAX] on knots
# RAY_T_STEP apart, for the profiles' width a.  Past +RAY_T_MAX the bump
# is behind the sample and every table is e^-1024 of its size; past
# -RAY_T_MAX the bump is too far ahead, and the engine takes the sample.
RAY_T_MAX = 32.0
RAY_T_STEP = 1.0 / 32.0
RAY_PER_OCTAVE = 64  # resolves a bump RAY_T_MAX / sqrt(a) ahead of the sample

_PLUS = SphericalGrid(atoms=np.array([[1.0]]), weights=np.array([1.0]))


class _RayTables(NamedTuple):
    kind: str
    split: RaySplit
    knots: np.ndarray
    coef: np.ndarray  # (4, tables, knots - 1) cubic coefficients, highest power first


def _ray_tables(kind, f, dens):
    """The 1-D tables of one engine for f's ray split (None when f has
    none, or is constant).

    Each table is the engine itself, run at RAY_PER_OCTAVE on a profile g_k
    with the knots as samples along the one direction +1.  The square adds
    the cross tables of the product increment, ordered (0, 0), (0, 1), ...,
    (n-1, n-1).  The knots depend on the profiles' width alone, so the
    tables do not depend on the samples."""
    split = f.ray_split
    if split is None or _is_constant(f):
        return None
    h = RAY_T_STEP / math.sqrt(split.a)
    half = int(round(RAY_T_MAX / RAY_T_STEP))
    knots = h * np.arange(-half, half + 1)
    P = knots[:, None]
    g = split.profiles()
    # the public engine, looked up by name when called: perfbench/spans.py rebinds it
    chunk = globals()[f"jump_{kind}_chunk"]
    if kind == "square":
        cols = [
            chunk(g[k], P, _PLUS, dens, per_octave=RAY_PER_OCTAVE)
            if k == l
            else _jump_product(g[k], g[l], P, _PLUS, dens, 12, RAY_PER_OCTAVE)
            for k in range(split.n)
            for l in range(k, split.n)
        ]
    else:
        cols = [chunk(gk, P, _PLUS, dens, per_octave=RAY_PER_OCTAVE).reshape(-1) for gk in g]
    # imported here, after the package: loading scipy.interpolate ahead of
    # it raised a process's resident memory by 2 MB (stein loads it anyway)
    from scipy.interpolate import CubicSpline

    coef = CubicSpline(knots, np.stack(cols, axis=1), axis=0).c
    return _RayTables(kind, split, knots, np.ascontiguousarray(coef.transpose(0, 2, 1)))


def _table_values(tables, p):
    """(tables, p.size) values of every table at the points p."""
    j, dx = _uniform_interval(tables.knots, p)
    out = np.empty((tables.coef.shape[1], p.size))
    for c, v in zip(tables.coef.transpose(1, 0, 2), out):
        np.take(c[0], j, out=v)
        for k in (1, 2, 3):
            v *= dx
            v += np.take(c[k], j)
    return out


def _read_ray_tables(tables, f, Z, sphere, dens, n_small):
    """The jump integral of tables.kind per sample, read off the tables:
    per direction sum_k C_k T_k(p), or sum_kl C_k C_l T_kl(p) for the
    square, in row blocks of at most BLOCK (sample, direction) pairs.
    Samples with the bump beyond the tables ahead along some direction
    run the engine at RAY_PER_OCTAVE."""
    split, P = tables.split, tables.knots[-1]
    vector = tables.kind == "vector"
    weights = sphere.weights[:, None] * sphere.atoms if vector else sphere.weights
    pairs = [(k, l) for k in range(split.n) for l in range(k, split.n)]
    out = np.empty(Z.shape if vector else Z.shape[0])
    far = np.empty(Z.shape[0], dtype=bool)
    step = max(1, BLOCK // sphere.atoms.shape[0])
    for lo in range(0, Z.shape[0], step):
        rows = slice(lo, lo + step)
        C, p = split.split(Z[rows], sphere.atoms)
        T = _table_values(tables, np.minimum(p, P).reshape(-1)).reshape((-1,) + p.shape)
        if tables.kind == "square":
            val = sum((1.0 if k == l else 2.0) * C[:, :, k] * C[:, :, l] * T[i] for i, (k, l) in enumerate(pairs))
        else:
            val = sum(C[:, :, k] * T[k] for k in range(split.n))
        out[rows] = val @ weights
        far[rows] = np.any(p < -P, axis=1)
    if far.any():
        out[far] = _bucketed(tables.kind, f, Z[far], sphere, dens, n_small, RAY_PER_OCTAVE)
    return out
