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

from steinlab import DomainError
from steinlab.dirichlet import _gamma1_integral_at, _quadrature_backed, _second_difference_double, poincare_residual
from steinlab.jumps import (
    RAY_PER_OCTAVE,
    RAY_T_MAX,
    _jump_product,
    _ray_tables,
    _table_values,
    density_nu,
    density_tilde,
    jump_ball_chunk,
    jump_grad_diff_chunk,
    jump_raw_chunk,
    jump_square_chunk,
    jump_vector_chunk,
    quad_sphere_for,
)
from steinlab.levy import IDLaw, LevyPolar, c_alpha_d, cauchy_c, isotropic_stable_law, stable_k, tempered_k
from steinlab.numerics import _ray_points, constant_fn, gaussian_bump, sphere_from_atoms, uniform_sphere
from steinlab.sampling import sample_stable_law
from steinlab.stein import (
    residual_cauchy,
    residual_id,
    residual_sd,
    residual_sd_finite_mean_form,
    residual_stable_sub1,
)

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


def _reference(inc, vanish, power, dens, z, r_far=R_FAR, epsabs=1e-13, sphere=SPHERE):
    total = 0.0
    for x, w in zip(sphere.atoms[:, 0], sphere.weights):
        extra = dens.extra if dens.extra is not None else (lambda r: 1.0)
        # QUADPACK also samples r = 0, where the quotient takes its limit
        small, _ = integrate.quad(
            lambda r: inc(z, x, max(r, 1e-9)) / max(r, 1e-9) ** vanish * dens.amp * float(extra(r)),
            0.0, 1.0, weight="alg", wvar=(vanish + power - dens.p, 0.0),
            epsabs=epsabs, epsrel=1e-11, limit=200,
        )
        # break points at the bump centres along this direction
        points = [p for p in ((F_C - z) * x, (G_C - z) * x) if 1.0 < p < r_far]
        big, _ = integrate.quad(
            lambda r: inc(z, x, r) * r**power * float(dens.rho(r)),
            1.0, r_far, points=points or None, epsabs=epsabs, epsrel=1e-11, limit=500,
        )
        far = inc(z, x, 1e6) * _tail_moment(dens, r_far, power)
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


# ---------------------------------------------------------------------------
# ray tables: each engine's integral as 1-D tables in p = <z - c, x>
# ---------------------------------------------------------------------------

TABLE_TOL = 1e-6        # of the largest value; cubic reads on knots 1/(48 sqrt(a)) apart reach 2.5e-7
RESOLVED_T = 20.0       # widths: a bump at most this far ahead is resolved by the engine at
                        # RAY_PER_OCTAVE, which meets the far field there to 1e-12


def _ahead(f, sphere, widths, rng):
    """One sample per entry of widths, that many widths of f ahead of it
    along a random atom of the sphere, off that ray by a q = 3 (none in
    d = 1)."""
    a, c, d = f.ray_split.a, f.fourier_center, sphere.atoms.shape[1]
    Z = []
    for T in widths:
        x = sphere.atoms[rng.integers(sphere.atoms.shape[0])]
        w = rng.normal(size=d)
        w -= (w @ x) * x
        off = math.sqrt(3.0 / a) * w / np.linalg.norm(w) if d > 1 else 0.0
        Z.append(c - T / math.sqrt(a) * x + off)
    return np.array(Z)


def _ray_oracle(kind, f, z, x, dens):
    """(value, mass): int h(r) rho(r) dr along the ray z + r x, by adaptive
    quadrature of f itself, and the same integral of |h|, both over 7.5
    widths either side of the ray's point nearest the bump's centre (the
    Gaussian tails beyond are e^-56 of the peak).  h is f for raw and
    ball, r f for vector (the value times x), r <grad f, x> for grad_diff
    and f^2 for the square.  It is the pair's jump integral when f and
    grad f vanish at z, so that every term carrying them drops out, and
    the bump lies more than 7.5 widths ahead.  The value is asked for to
    1e-11 relative or 1e-13 of the mass, whichever is larger: a value
    that cancels (grad_diff; a coordinate bump met along its axis) may
    be far below its mass."""
    a = f.ray_split.a
    mid = float(x @ (f.fourier_center - z))
    # in s = r - mid, from the ray's point nearest the centre: a point z + r x
    # itself would carry |z| eps of rounding noise into every node
    near = z + mid * x
    half = 7.5 / math.sqrt(a)

    def h(s):
        y, r = near + np.multiply.outer(s, x), mid + s
        if kind == "grad_diff":
            v = r * (np.asarray(f.gradient(y)) @ x)
        else:
            v = np.asarray(f.evaluate(y)).reshape(-1)
            v = v * v if kind == "square" else r * v if kind == "vector" else v
        return v * dens.rho(r)

    # the mass sets a scale only: the trapezoid rule on 2001 nodes
    mass = integrate.trapezoid(np.abs(h(np.linspace(-half, half, 2001))), dx=half / 1000)
    # folded onto s >= 0, where a part of h odd in s leaves a difference of rho
    val, _ = integrate.quad(
        lambda s: float(h(np.array([s, -s])).sum()),
        0.0, half, epsabs=max(1e-13 * mass, 1e-300), epsrel=1e-11, limit=200,
    )
    return (val * x if kind == "vector" else val), mass


FAR_ROW_T = (30.0, 100.0, 1e3, 1e4)  # widths ahead of the bump along an atom


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("engine", list(ENGINES))
def test_ray_tables_match_the_resolved_engine(d, engine):
    """Table reads against the engine at RAY_PER_OCTAVE, on the samples
    within RESOLVED_T widths of the bump, far pairs among them; the
    coordinate bumps use the square's cross table.

    The farther rows, the four at norms 1e2 .. 1e5 and four placed
    FAR_ROW_T widths ahead of each bump along an atom, are read in the
    same row-blocked call over every direction, and checked against the
    ray oracle summed over each row's live far pairs (a q < 700, the bump
    more than RAY_T_MAX widths ahead): 1e-9 relative, plus two floors.
    (1) A row's value that cancels (grad_diff; a coordinate bump met along
    its axis) is held to 1e-13 of its mass, the oracle's |h| integral,
    plus eps sqrt(a) |z - c| of it: p itself carries |z - c| eps of
    rounding, which shifts the bump along the ray by that much.  (2) f and
    grad f are below e^-400 at these rows, so the oracle leaves out every
    other pair: one with the bump behind reads the table's end, e^-64 of
    its size, and one with the bump beside the sample, or a dead one,
    carries e^-(a q) <= e^-336; e^-60 of the near rows' largest value
    bounds them."""
    run, alpha = ENGINES[engine]
    law = isotropic_stable_law(alpha, d)
    sample = sample_stable_law(law, 400, 21 + d).points
    sample[: len(FAR_NORMS)] = _far_samples(d, len(FAR_NORMS), d)
    sphere = quad_sphere_for(law, 12)
    rng = np.random.default_rng(60 + d)
    for f in _bumps(d).values():
        a, c = f.ray_split.a, f.fourier_center
        Z = np.concatenate([sample, _ahead(f, sphere, FAR_ROW_T, rng)])
        y = Z - c
        near = math.sqrt(a) * np.linalg.norm(y, axis=1) <= RESOLVED_T
        t = -math.sqrt(a) * (y @ sphere.atoms.T)
        aq = a * np.einsum("nd,nd->n", y, y)[:, None] - t**2
        live = (t > RAY_T_MAX) & (aq < 700.0) & ~near[:, None]
        assert live.any(axis=1).sum() >= len(FAR_ROW_T)
        assert np.all(np.abs(f.evaluate(Z[~near])) < 1e-170) and np.all(np.abs(f.gradient(Z[~near])) < 1e-170)
        far_rows = np.flatnonzero(~near)
        for measure in (density_nu, density_tilde):
            dens = measure(law.levy.kf)
            got = run(f, Z, sphere, dens, tables=_ray_tables(engine, f, dens))
            ref = run(f, Z[near], sphere, dens, per_octave=RAY_PER_OCTAVE)
            assert _rel_err(got[near], ref) <= TABLE_TOL, (engine, f.name)
            oracle, mass = np.zeros_like(got[far_rows]), np.zeros(far_rows.size)
            for i, row in enumerate(far_rows):
                for j in np.flatnonzero(live[row]):
                    val, m = _ray_oracle(engine, f, Z[row], sphere.atoms[j], dens)
                    oracle[i] += sphere.weights[j] * val
                    mass[i] += sphere.weights[j] * m
            err = np.abs(got[far_rows] - oracle).reshape(far_rows.size, -1).max(axis=1)
            size = np.abs(oracle).reshape(far_rows.size, -1).max(axis=1)
            rounding = 1e-13 + np.finfo(float).eps * math.sqrt(a) * np.linalg.norm(y[far_rows], axis=1)
            floor = rounding * mass + math.exp(-60.0) * np.abs(ref).max()
            assert np.all(err <= 1e-9 * size + floor), (engine, f.name)


@pytest.mark.parametrize("a", [0.5, 2.5])
def test_each_one_dimensional_table_matches_its_engine(a):
    """Every table of a coordinate bump's profiles g_0, g_1, read between
    the knots, which span |t| <= RAY_T_MAX: the linear engines' two
    tables, and the square's (0, 0), (0, 1) and (1, 1) tables, the middle
    one the product increment."""
    f = gaussian_bump(1, a=a, coord=0)
    g = f.ray_split.profiles()
    P = np.random.default_rng(3).uniform(-RAY_T_MAX, RAY_T_MAX, 300) / math.sqrt(a)
    Z = P[:, None]
    plus = sphere_from_atoms([[1.0]], [1.0])
    for engine, (run, alpha) in ENGINES.items():
        dens = density_nu(stable_k(alpha, c_alpha_d(alpha, 1)))
        if engine == "square":
            refs = [
                run(g[0], Z, plus, dens, per_octave=RAY_PER_OCTAVE),
                _jump_product(g[0], g[1], Z, plus, dens, 12, RAY_PER_OCTAVE),
                run(g[1], Z, plus, dens, per_octave=RAY_PER_OCTAVE),
            ]
        else:
            refs = [run(gk, Z, plus, dens, per_octave=RAY_PER_OCTAVE).reshape(-1) for gk in g]
        got = _table_values(_ray_tables(engine, f, dens), P)
        assert got.shape[0] == len(refs)
        for col, ref in zip(got, refs):
            assert _rel_err(col, ref) <= TABLE_TOL, engine


def test_tables_refuse_reads_outside_their_knots():
    """The end cubics are not extrapolated: a read past either end of the
    knots, or a NaN, raises instead."""
    f = gaussian_bump(1, a=2.0, coord=0)
    tables = _ray_tables("raw", f, density_nu(stable_k(0.5, c_alpha_d(0.5, 1))))
    lo, hi = tables.knots[0], tables.knots[-1]
    assert np.all(np.isfinite(_table_values(tables, np.array([lo, 0.0, hi]))))
    for p in (np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf), -1e3, np.nan):
        with pytest.raises(DomainError):
            _table_values(tables, np.array([0.0, p]))


FAR_POINTS = (-13.8, -15.4, 40.0, 44.4)   # ROADMAP item 2: the engine at 8 nodes per octave is 14-84% off here


@pytest.mark.parametrize("inc", [k for k in INCREMENTS if k != "gamma"])
def test_ray_tables_match_adaptive_quadrature_at_far_samples(inc):
    """The table route, which gives the direction with the bump ahead the
    far-field rule and the other the table's end, against the quadrature
    oracle, 1e-9 relative."""
    _, increment, vanish, power, profiles = INCREMENTS[inc]
    run = ENGINES[inc][0]
    Z = np.array(FAR_POINTS)[:, None]
    for prof in profiles:
        if PROFILES[prof].family != "stable":
            continue  # a tempered density is e^-40 of its size this far out
        for measure in MEASURES.values():
            dens = measure(PROFILES[prof])
            got = np.reshape(run(F, Z, SPHERE, dens, tables=_ray_tables(inc, F, dens)), -1)
            ref = np.array([_reference(increment, vanish, power, dens, z) for z in FAR_POINTS])
            assert np.all(np.abs(got - ref) <= 1e-9 * np.abs(ref)), (prof, got, ref)


def _oracle_increments(a, c, coord):
    """(increment, vanish, power) per engine for the 1-D bump
    (y - c)^coord e^(-a (y - c)^2), coord 0 or 1, in the plain form: the
    far samples below keep f(z) and f'(z) at e^-64 of the values."""

    def val(y):
        return (y - c) ** coord * math.exp(-a * (y - c) ** 2)

    def der(y):
        return (coord * (y - c) ** (coord - 1) - 2.0 * a * (y - c) ** (coord + 1)) * math.exp(-a * (y - c) ** 2)

    def diff(z, x, r):
        return val(z + r * x) - val(z)

    return {
        "raw": (diff, 1, 0),
        "ball": (lambda z, x, r: diff(z, x, r) - (r * x * der(z) if r <= 1.0 else 0.0), 2, 0),
        "vector": (lambda z, x, r: x * diff(z, x, r), 1, 1),
        "grad_diff": (lambda z, x, r: x * (der(z + r * x) - der(z)), 1, 1),
        "square": (lambda z, x, r: diff(z, x, r) ** 2, 2, 0),
    }


def _grad_diff_by_parts(a, dens, x, dist):
    """int x g'(z + r x) r rho(r) dr for the coordinate profile
    g(u) = u e^(-a u^2) centred dist ahead of z along x = +-1, under a pure
    power rho = amp r^-p, integrated by parts twice:
    -(x / 2a) int e^(-a (r - dist)^2) (r rho)''(r) dr with
    (r rho)'' = amp p (p - 1) r^(-p-1).  Unlike the gradient difference
    itself, the integrand keeps one sign, so quadrature holds it to
    rounding however far the bump is; the boundary terms, and the
    integrand more than 10 widths from the bump, carry e^-100."""
    w = 10.0 / math.sqrt(a)
    val, _ = integrate.quad(
        lambda r: math.exp(-a * (r - dist) ** 2) * r ** (-dens.p - 1.0),
        dist - w, dist + w, points=[dist], epsabs=0.0, epsrel=1e-13, limit=200,
    )
    return -x / (2.0 * a) * dens.amp * dens.p * (dens.p - 1.0) * val


FAR_TOL = 1e-10
FAR_T = np.array([8.0, 12.0, 40.0, 1e3])  # widths ahead: the knots' end, and well past it


@pytest.mark.parametrize("inc", [k for k in INCREMENTS if k != "gamma"])
@pytest.mark.parametrize("coord", [None, 0])
def test_far_field_matches_adaptive_quadrature(inc, coord):
    """The far-field rule on samples with the bump t = 8, 12, 40 and 1e3
    widths ahead along the one direction +1 or -1, for every density the
    engine converges on, against the quadrature oracle run past the bump,
    to 1e-10 relative.  The oracle is asked for an absolute 1e-13 of the
    integrand's size rho(|p|) |p|^power sqrt(pi / a).  In one case the
    value cancels below that: the coordinate bump's gradient difference
    at t = 1e3 is 1e-6 of its integrand, where the oracle holds it to
    5e-8 only; under a pure power the reference there is
    ``_grad_diff_by_parts``, which does not cancel.  (Along the other
    direction the bump is behind, and the table's end reads e^-64 of the
    table's size.)"""
    a = F_A if coord is None else 0.5
    f = gaussian_bump(1, a=a, center=[F_C], coord=coord)
    increment, vanish, power = _oracle_increments(a, F_C, 0 if coord is None else 1)[inc]
    run = ENGINES[inc][0]
    dist = FAR_T / math.sqrt(a)
    for x in (1.0, -1.0):
        ray = sphere_from_atoms([[x]], [1.0])
        z = F_C - x * dist
        for prof in INCREMENTS[inc][4]:
            for measure in MEASURES.values():
                dens = measure(PROFILES[prof])
                # a tempered density underflows to 0 at t = 1e3, and the oracle needs a positive target
                epsabs = np.maximum(1e-13 * math.sqrt(math.pi / a) * dist**power * dens.rho(dist), 1e-300)
                got = np.reshape(run(f, z[:, None], ray, dens, tables=_ray_tables(inc, f, dens)), -1)
                ref = np.array([
                    _reference(increment, vanish, power, dens, zi, abs(zi) + R_FAR, e, ray) for zi, e in zip(z, epsabs)
                ])
                if inc == "grad_diff" and coord == 0 and dens.extra is None:
                    ref[-1] = _grad_diff_by_parts(a, dens, x, dist[-1])
                assert np.all(np.abs(got - ref) <= FAR_TOL * np.abs(ref)), (prof, x, got, ref)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("engine", list(ENGINES))
def test_far_pairs_match_the_resolved_engine(d, engine):
    """Each (sample, direction) pair with the bump 8 to RESOLVED_T widths
    ahead, read through the tables on that one direction, against the
    engine at RAY_PER_OCTAVE: 1e-9 relative, above the engine's floor
    e^-700 of the bump's amplitude.  The samples sit off the ray through
    the centre; a pair whose a q reaches 700 (q the squared distance of
    the centre from the ray) has its factor C at that floor, counts as
    dead and must contribute nothing."""
    run, alpha = ENGINES[engine]
    law = isotropic_stable_law(alpha, d)
    sphere = quad_sphere_for(law, 12)
    rng = np.random.default_rng(40 + d)
    for f in _bumps(d).values():
        a, c = f.ray_split.a, f.fourier_center
        Z = []
        # (widths ahead along one atom, a q from it)
        for ahead, off in ((8.5, 0.0), (12.0, 3.0), (20.0, 40.0), (15.0, 800.0)):
            x = sphere.atoms[rng.integers(sphere.atoms.shape[0])]
            w = rng.normal(size=d)
            w -= (w @ x) * x
            Z.append(c - ahead / math.sqrt(a) * x + math.sqrt(off / a) * w / np.linalg.norm(w))
        Z = np.array(Z)
        y = Z - c
        t = -math.sqrt(a) * (y @ sphere.atoms.T)
        aq = a * np.einsum("nd,nd->n", y, y)[:, None] - t**2
        far = t > RAY_T_MAX
        live, dead = far & (aq < 700.0) & (t <= RESOLVED_T), far & (aq >= 700.0)
        assert live.sum() >= 3 and dead.any()
        for measure in (density_nu, density_tilde):
            dens = measure(law.levy.kf)
            tables = _ray_tables(engine, f, dens)
            for j, x in enumerate(sphere.atoms):
                one = sphere_from_atoms([x], [1.0])
                got = np.reshape(run(f, Z, one, dens, tables=tables), (Z.shape[0], -1))
                ref = np.reshape(run(f, Z, one, dens, per_octave=RAY_PER_OCTAVE), (Z.shape[0], -1))
                assert np.all(np.abs(got[dead[:, j]]) <= 1e-290), (engine, f.name)
                g, r = got[live[:, j]], ref[live[:, j]]
                assert np.all(np.abs(g - r) <= 1e-9 * np.abs(r) + 1e-300), (engine, f.name, j)


def _estimators(d):
    law = isotropic_stable_law(1.5, d)
    sub1 = IDLaw(np.zeros(1), LevyPolar(sphere_from_atoms([[1.0]], [1.0]), stable_k(0.5, 1.0)), "drift_b0")
    n = 8192
    return {
        "residual_id": lambda f: residual_id(law, f, n, 5).estimate,
        "residual_stable_sub1": lambda f: residual_stable_sub1(sub1, f, n, 5).estimate,
        "residual_cauchy": lambda f: residual_cauchy(isotropic_stable_law(1.0, d), f, n, 5).estimate,
        "residual_sd_small_jump": lambda f: residual_sd(isotropic_stable_law(0.7, d), "small_jump", f, n, 5).estimate,
        "residual_sd_general": lambda f: residual_sd(law, "general", f, n, 5).estimate,
        "residual_sd_finite_mean_form": lambda f: residual_sd_finite_mean_form(law, f, n, 5).estimate,
        "poincare_residual": lambda f: poincare_residual(isotropic_stable_law(1.5, 2), f, n, 5, n_dirs=12),
    }


@pytest.mark.parametrize("estimator", list(_estimators(1)))
def test_estimators_agree_with_and_without_the_tables(estimator):
    """Same seed, the tables against replace(f, ray_split=None), which runs
    the engine on every chunk: within 0.05 SE."""
    d = 2 if estimator == "poincare_residual" else 1
    run = _estimators(1)[estimator]
    for f in (gaussian_bump(d, a=1.0, center=np.full(d, 0.3)), gaussian_bump(d, a=0.7, coord=0).scaled(1.4)):
        assert f.ray_split is not None
        fast, slow = run(f), run(replace(f, ray_split=None))
        assert np.all(np.abs(np.asarray(fast.value) - slow.value) <= 0.05 * np.asarray(slow.std_error)), (fast, slow)


def test_tables_are_built_only_for_a_ray_split_and_their_own_engine():
    dens = density_nu(stable_k(1.5, c_alpha_d(1.5, 1)))
    f = gaussian_bump(1, a=1.0)
    assert _ray_tables("square", replace(f, ray_split=None), dens) is None
    assert _ray_tables("square", constant_fn(0.5, 1), dens) is None
    assert _ray_tables("square", f.product(f), dens) is None
    with pytest.raises(DomainError):
        jump_ball_chunk(f, np.zeros((3, 1)), SPHERE, dens, tables=_ray_tables("square", f, dens))
