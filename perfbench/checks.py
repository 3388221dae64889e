"""The benchmark's workloads: verification checks built from a seed.

A workload is a list of passes; a pass is a fixed list of checks.  Every
check calls steinlab's public functions and returns a verdict: its
statistic, the tolerance it is held to, the share of that tolerance used
(``frac``; above 1 fails), and every number it computed (``values``, used
to show that traced and untraced runs compute the same bits).

Tolerances are the acceptance suite's, except for the Monte Carlo ones:
a residual with true value 0 is held to |value / SE| <= Z_TOL.  At the
suite's 3 SE a correct library fails 0.27% of checks, and a benchmark
comparison runs thousands of them; Z_TOL is the Bonferroni bound for
10^6 checks (two-sided false-alarm rate 1e-6 per check), so a comparison
flags a correct library about once in a hundred.  ``check.worst_z``
reports the largest |value / SE| seen, to read against 3.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics

import numpy as np

from steinlab import cli, dirichlet, jumps, levy, metrics, numerics, stein

Z_TOL = statistics.NormalDist().inv_cdf(1.0 - 0.5e-6)

N_RESIDUAL = 8 * jumps.CHUNK      # d = 1 residual sample size
N_POINCARE = 4 * jumps.CHUNK      # d = 2 Poincare sample size (12 directions)
N_PROBE = 16 * jumps.CHUNK        # ergodicity probe sample size
PROBE_TIMES = (0.25, 0.6, 1.0, 1.5, 2.0, 2.5, 3.0)
RATE_ALPHA = 1.5

WORKLOADS = ("mc_residuals", "solver_rates", "curvature_symbols")


def _verdict(stat, tol, frac, values, z=None, ok=True):
    frac = float(frac)
    values = np.ravel(np.asarray(values))
    if np.iscomplexobj(values):
        values = np.concatenate([values.real, values.imag])
    return {
        "stat": float(stat),
        "tol": float(tol),
        "frac": frac,
        "ok": bool(ok and frac <= 1.0),
        "z": None if z is None else float(z),
        "values": [float(v) for v in values],
    }


def _two_sided(value, se):
    """MC residual with true value 0: worst |value / SE| against Z_TOL."""
    value = np.atleast_1d(np.asarray(value, dtype=float))
    se = np.atleast_1d(np.asarray(se, dtype=float))
    z = float(np.max(np.abs(value) / np.maximum(se, 1e-300)))
    return _verdict(z, Z_TOL, z / Z_TOL, np.concatenate([value, se]), z=z)


def _agreement(pairs):
    """Deterministic agreement of (value, target, rtol, atol) tuples: the
    worst relative error, its tolerance, and the largest share of a
    tolerance used."""
    fracs = [abs(v - t) / (rtol * abs(t) + atol) for v, t, rtol, atol in pairs]
    i = int(np.argmax(fracs))
    v, t, rtol, _ = pairs[i]
    return _verdict(abs(v - t) / max(abs(t), 1e-300), rtol, fracs[i], [x for p in pairs for x in p[:2]])


def _run_cli(argv):
    """cli.run in process, its report captured; returns (payload, exit code)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    if code == cli.EXIT_USAGE:
        raise RuntimeError(f"cli.run {argv} exited with a usage error")
    return json.loads(buf.getvalue())["payload"], code


def _bump(rng, d, coord_share=0.25):
    """Gaussian bump (a fourth of them times a coordinate) with random width and center."""
    a = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
    center = rng.normal(0.0, 0.5, size=d)
    coord = 0 if rng.uniform() < coord_share else None
    return numerics.gaussian_bump(d, a=a, center=center, coord=coord)


def _mc_seed(rng):
    return int(rng.integers(0, 2**31))


# ---------------------------------------------------------------------------
# mc_residuals
# ---------------------------------------------------------------------------


def _residual_check(fn, *args):
    def check():
        est = fn(*args).estimate
        return _two_sided(est.value, est.std_error)

    return check


def _cli_residual_check(alpha, seed):
    argv = ["residual", "--regime", "sd_general", "--alpha", repr(alpha), "--d", "1",
            "--n", str(N_RESIDUAL), "--seed", str(seed)]

    def check():
        payload, _ = _run_cli(argv)
        return _two_sided(payload["results"]["estimate"], payload["results"]["std_error"])

    return check


def _poincare_check(law, f, seed):
    def check():
        est = dirichlet.poincare_residual(law, f, N_POINCARE, seed, n_dirs=12)
        z = float(est.value) / max(float(est.std_error), 1e-300)
        # one-sided: energy minus variance is nonnegative
        return _verdict(z, -Z_TOL, max(0.0, -z) / Z_TOL, [est.value, est.std_error])

    return check


def _probe_check(alpha, seed):
    def check():
        fit = metrics.ergodicity_probe(alpha, 1, PROBE_TIMES, N_PROBE, seed)
        decays = fit.status == "ok" and fit.slope < 0.0
        frac = (1.0 - fit.r_squared) / (1.0 - 0.9)
        return _verdict(fit.r_squared, 0.9, frac, [fit.slope, fit.r_squared, *fit.distances], ok=decays)

    return check


def _mc_pass(rng, _pass):
    law_id = levy.isotropic_stable_law(rng.uniform(1.4, 1.6), 1)
    sub1_kf = levy.stable_k(rng.uniform(0.45, 0.6), 1.0)
    law_sub1 = levy.IDLaw(
        np.zeros(1), levy.LevyPolar(numerics.sphere_from_atoms([[1.0]], [1.0]), sub1_kf), "drift_b0"
    )
    law_cauchy = levy.isotropic_stable_law(1.0, 1)
    law_sd = levy.isotropic_stable_law(rng.uniform(1.4, 1.6), 1)
    law_fm = levy.isotropic_stable_law(rng.uniform(1.4, 1.6), 1)
    law_p = levy.isotropic_stable_law(1.5, 2)  # c6's law; its samples' tails set the panel count
    return [
        ("residual_id", _residual_check(stein.residual_id, law_id, _bump(rng, 1), N_RESIDUAL, _mc_seed(rng))),
        ("residual_stable_sub1", _residual_check(stein.residual_stable_sub1, law_sub1, _bump(rng, 1), N_RESIDUAL, _mc_seed(rng))),
        ("residual_cauchy", _residual_check(stein.residual_cauchy, law_cauchy, _bump(rng, 1), N_RESIDUAL, _mc_seed(rng))),
        ("residual_sd", _residual_check(stein.residual_sd, law_sd, "general", _bump(rng, 1), N_RESIDUAL, _mc_seed(rng))),
        ("cli_residual_sd", _cli_residual_check(float(rng.uniform(1.4, 1.6)), _mc_seed(rng))),
        ("residual_sd_finite_mean_form", _residual_check(stein.residual_sd_finite_mean_form, law_fm, _bump(rng, 1), N_RESIDUAL, _mc_seed(rng))),
        ("poincare_residual", _poincare_check(law_p, _bump(rng, 2), _mc_seed(rng))),
        ("ergodicity_probe", _probe_check(float(rng.uniform(1.4, 1.6)), _mc_seed(rng))),
    ]


def _mc_warm_up():
    law15 = levy.isotropic_stable_law(1.5, 1)
    law_sub1 = levy.IDLaw(
        np.zeros(1), levy.LevyPolar(numerics.sphere_from_atoms([[1.0]], [1.0]), levy.stable_k(0.5, 1.0)), "drift_b0"
    )
    f = numerics.gaussian_bump(1, a=1.0)
    n = jumps.CHUNK
    stein.residual_id(law15, f, n, 0)
    stein.residual_stable_sub1(law_sub1, f, n, 0)
    stein.residual_cauchy(levy.isotropic_stable_law(1.0, 1), f, n, 0)
    stein.residual_sd(law15, "general", f, n, 0)
    stein.residual_sd_finite_mean_form(law15, f, n, 0)
    dirichlet.poincare_residual(levy.isotropic_stable_law(1.5, 2), numerics.gaussian_bump(2, a=1.0), n, 0, n_dirs=12)
    metrics.ergodicity_probe(1.5, 1, PROBE_TIMES, n, 0)
    _run_cli(["residual", "--regime", "sd_general", "--alpha", "1.5", "--d", "1", "--n", str(n), "--seed", "0"])


# ---------------------------------------------------------------------------
# solver_rates
# ---------------------------------------------------------------------------


def _grid_points(xs, d):
    return np.stack([xs] + [np.zeros(xs.size)] * (d - 1), axis=1)


class _SolverCase:
    """One Stein-equation case: law, right-hand side h and verification grid.

    The budget-1 check stores its residual so the halving check of the
    same pass can compare against it."""

    def __init__(self, alpha, d, h, xs, via_cli=False):
        self.alpha, self.d, self.h, self.via_cli = alpha, d, h, via_cli
        self.law = levy.isotropic_stable_law(alpha, d)
        self.pts = _grid_points(xs, d)
        self.r1 = None

    def budget1(self):
        if self.via_cli:
            payload, _ = _run_cli(["solve-stein", "--alpha", repr(self.alpha), "--d", str(self.d), "--budget", "1"])
            res = payload["results"]
            r1, osc, m1, m2 = (res[k] for k in ("max_equation_residual", "oscillation", "sup_gradient", "second_difference_bound"))
        else:
            hv = np.asarray(self.h.evaluate(self.pts), dtype=float)
            osc = float(np.max(hv) - min(0.0, float(np.min(hv))))
            sol = stein.stein_solve(self.law, self.h, budget=1)
            r1 = stein.verify_stein_solution(self.law, sol, self.pts, budget=1)
            m1 = sol.sup_gradient_norm(np.linspace(-4, 4, 20)[:, None] * np.ones((1, self.d)))
            m2 = sol.second_difference_bound(self.pts)
        self.r1 = r1
        frac = max(r1 / (5e-2 * osc), m1 / (1.0 + 1e-3), m2 / (0.5 + 1e-3))
        return _verdict(r1 / osc, 5e-2, frac, [r1, osc, m1, m2])

    def halving(self):
        if self.r1 is None:
            raise RuntimeError("the budget-1 check of this case did not finish")
        sol = stein.stein_solve(self.law, self.h, budget=2)
        r2 = stein.verify_stein_solution(self.law, sol, self.pts, budget=2)
        return _verdict(r2 / self.r1, 0.5, r2 / (0.5 * self.r1), [self.r1, r2])


def _normalized(tf):
    return tf.scaled(1.0 / max(tf.m_bounds))


def _random_case(rng, alpha, d):
    a = math.exp(rng.uniform(math.log(0.8), math.log(1.25)))
    h = _normalized(numerics.gaussian_bump(d, a=a, center=rng.normal(0.0, 0.2, size=d)))
    return _SolverCase(alpha, d, h, np.sort(rng.uniform(-2.0, 2.0, 11)))


def _rate_check(kind, d, R):
    value_fn, limit_fn = {
        "numerator": (dirichlet.rate_numerator, dirichlet.rate_numerator_limit),
        "denominator": (dirichlet.rate_denominator, dirichlet.rate_denominator_limit),
    }[kind]

    def check():
        value = value_fn(RATE_ALPHA, d, R) / R ** (2.0 - RATE_ALPHA)
        return _agreement([(value, limit_fn(RATE_ALPHA, d), 0.02, 0.0)])

    return check


def _solver_pass(rng, p):
    # case A goes through the CLI, whose right-hand side and grid are fixed
    case_a = _SolverCase(1.5, 1, _normalized(numerics.gaussian_bump(1, a=1.0)), np.linspace(-2.0, 2.0, 11), via_cli=True)
    case_a_direct = _random_case(rng, 1.5, 1)
    case_b = _random_case(rng, 0.5, 1)
    case_c = _random_case(rng, 1.5, 2)
    extra_a, extra_b = _random_case(rng, 1.5, 1), _random_case(rng, 0.5, 1)
    cases = (case_a, case_b, case_c)
    halved = cases[p % 3]  # every case gets its budget-2 check once in three passes
    R = math.exp(rng.uniform(math.log(48.0), math.log(160.0)))
    # check_s_p50 and check_s_tail fall among the five d = 1 budget-1
    # solves of a pass; spread between the slow checks, they sample the
    # host's speed across the whole pass.  Each halving check follows the
    # budget-1 check of its case.
    return [
        ("solve_cli_a1.5_d1", case_a.budget1),
        ("rate_denominator_d2", _rate_check("denominator", 2, R)),
        ("solve_a1.5_d1", case_a_direct.budget1),
        ("solve_a1.5_d2", case_c.budget1),
        ("solve_a0.5_d1", case_b.budget1),
        ("rate_numerator_d2", _rate_check("numerator", 2, R)),
        ("rate_numerator_d1", _rate_check("numerator", 1, R)),
        ("rate_denominator_d1", _rate_check("denominator", 1, R)),
        ("solve_a1.5_d1", extra_a.budget1),
        (f"halving_a{halved.alpha:g}_d{halved.d}", halved.halving),
        ("solve_a0.5_d1", extra_b.budget1),
    ]


def _solver_warm_up():
    law = levy.isotropic_stable_law(1.5, 1)
    sol = stein.stein_solve(law, _normalized(numerics.gaussian_bump(1, a=1.0)), budget=1)
    stein.verify_stein_solution(law, sol, np.zeros((1, 1)), budget=1)
    dirichlet.rate_numerator(RATE_ALPHA, 1, 8.0)
    dirichlet.rate_numerator_limit(RATE_ALPHA, 1)
    dirichlet.rate_denominator(RATE_ALPHA, 1, 8.0)
    dirichlet.rate_denominator_limit(RATE_ALPHA, 1)
    _run_cli(["normalize", "--alpha", "1.5", "--d", "1"])


# ---------------------------------------------------------------------------
# curvature_symbols
# ---------------------------------------------------------------------------


def _bakry_check(law, f, grid):
    def check():
        gap = dirichlet.bakry_emery_check(law, [f], grid)
        return _verdict(gap, -1e-8, max(0.0, -gap) / 1e-8, [gap])

    return check


def _gamma2_check(law, f, x):
    def check():
        vi = dirichlet.gamma2(law, f, x, "integral")
        return _agreement([(dirichlet.gamma2(law, f, x, "symbol"), vi, 2e-3, 0.0)])

    return check


def _small_routes_check(law1, law2, f1, g1, f2, g2, x1, x2):
    """gamma2 integral vs symbol at d = 1, gamma1 integral vs generator at d = 1 and 2."""

    def check():
        pairs = [(dirichlet.gamma2(law1, f1, x1, "symbol"), dirichlet.gamma2(law1, f1, x1, "integral"), 2e-3, 0.0)]
        for law, f, g, x in ((law1, f1, g1, x1), (law2, f2, g2, x2)):
            vi = dirichlet.gamma1(law, f, g, x, "integral")
            pairs.append((dirichlet.gamma1(law, f, g, x, "generator"), vi, 1e-3, 1e-10))
        return _agreement(pairs)

    return check


def _levy_identities_check(norm_laws, sym_law, alpha, xis):
    """c1: exponent -1/2 at |xi| = 1; c2: sigma_nu = -(alpha/2)|xi|^alpha."""

    def check():
        pairs = [(levy.lk_exponent(law, np.eye(law.dim)[0]), -0.5, 1e-4, 0.0) for law in norm_laws]
        for xi in xis:
            target = -(alpha / 2.0) * float(np.linalg.norm(xi)) ** alpha
            pairs.append((levy.symbol_sigma_nu(sym_law, xi), target, 1e-4, 0.0))
        return _agreement(pairs)

    return check


def _cocycle_check(law, tnu, xi, zeta):
    """c3: symbol_sigma_tilde against the sigma_nu cocycle at one frequency pair."""

    def check():
        rhs = levy.symbol_sigma_nu(law, xi + zeta) - levy.symbol_sigma_nu(law, xi) - levy.symbol_sigma_nu(law, zeta)
        return _agreement([(levy.symbol_sigma_tilde(tnu, xi, zeta), rhs, 1e-5, 1e-17)])

    return check


def _symbol_bump(rng, d):
    a = math.exp(rng.uniform(math.log(0.7), math.log(1.4)))
    return numerics.gaussian_bump(d, a=a, center=rng.normal(0.0, 0.3, size=d))


def _unit(theta):
    return np.array([math.cos(theta), math.sin(theta)])


def _curvature_pass(rng, _pass):
    # Inputs vary by seed in ways that leave each check's cost unchanged:
    # grid radii stay below the fixed 64 cutoff, the gamma2 point sits at a
    # fixed distance from the bump center, and frequency pairs keep their norms.
    g = np.linspace(-2.0, 2.0, 5)
    grid = np.stack(np.meshgrid(g, g), -1).reshape(-1, 2)
    bakry_law = levy.isotropic_stable_law(rng.uniform(1.3, 1.7), 2)
    bakry_f = numerics.gaussian_bump(2, a=math.exp(rng.uniform(-1.2, 0.7)), center=rng.normal(0.0, 1.0, 2))

    law2 = levy.isotropic_stable_law(rng.uniform(1.3, 1.7), 2)
    f2 = _symbol_bump(rng, 2)
    x2 = f2.fourier_center + 0.5 * _unit(rng.uniform(0.0, 2.0 * math.pi))

    law1 = levy.isotropic_stable_law(rng.uniform(1.3, 1.7), 1)
    law1b = levy.isotropic_stable_law(rng.uniform(1.3, 1.7), 2)
    small = _small_routes_check(
        law1, law1b, _symbol_bump(rng, 1), _symbol_bump(rng, 1), _symbol_bump(rng, 2), _symbol_bump(rng, 2),
        rng.normal(0.0, 0.6, 1), rng.normal(0.0, 1.0, 2),
    )

    norm_laws = [
        levy.isotropic_stable_law(alpha, d, n_atoms=4096 if d == 3 else None)
        for alpha in rng.uniform(1.25, 1.75, 3)
        for d in (1, 2, 3)
    ]
    alpha = float(rng.uniform(1.25, 1.75))
    levy_ids = _levy_identities_check(norm_laws, levy.isotropic_stable_law(alpha, 2), alpha, rng.normal(size=(10, 2)))

    # the cocycle for a stable profile (cheap, cached base integrals) and,
    # in four checks of one frequency pair each, for a tempered profile.
    # A tempered profile is integrated atom by atom at a cost that depends
    # on the projections of the pair onto the atoms, so the pair turns by
    # whole steps of the sphere's atom spacing: the seed permutes the
    # projections without changing them.
    n_atoms = 32
    sphere = numerics.uniform_sphere(2, n_atoms)
    cocycles = []
    for kf, n_checks in ((levy.stable_k(rng.uniform(1.2, 1.8), rng.uniform(0.1, 0.5)), 1), (levy.tempered_k(0.8, 0.5, 1.0), 4)):
        law = levy.IDLaw(np.zeros(2), levy.LevyPolar(sphere, kf), "triplet_b")
        tnu = levy.tilde_nu(kf, sphere)
        for _ in range(n_checks):
            theta = math.pi * (2 * int(rng.integers(n_atoms)) + 1) / n_atoms
            cocycles.append((f"cocycle_{kf.family}", _cocycle_check(law, tnu, _unit(theta), 0.8 * _unit(theta + 2.0))))
    stable, t1, t2, t3, t4 = cocycles
    # the tempered checks set check_s_p50; spread between the slow checks,
    # they sample the host's speed across the whole pass, not one second of it
    return [
        t1,
        ("bakry_emery_5x5", _bakry_check(bakry_law, bakry_f, grid)),
        t2,
        ("gamma2_routes_d2", _gamma2_check(law2, f2, x2)),
        t3,
        ("gamma_routes_small", small),
        ("levy_identities", levy_ids),
        t4,
        stable,
    ]


def _curvature_warm_up():
    # alpha = 1.5 exactly: the checks draw alpha from intervals, so the
    # profile cache entries they need are not filled here
    law2 = levy.isotropic_stable_law(1.5, 2)
    law1 = levy.isotropic_stable_law(1.5, 1)
    f2 = numerics.gaussian_bump(2, a=1.0)
    f1 = numerics.gaussian_bump(1, a=1.0)
    dirichlet.bakry_emery_check(law2, [f2], np.zeros((1, 2)))
    dirichlet.gamma2(law1, f1, np.zeros(1), "integral")
    dirichlet.gamma2(law1, f1, np.zeros(1), "symbol")
    dirichlet.gamma1(law1, f1, f1, np.zeros(1), "integral")
    dirichlet.gamma1(law1, f1, f1, np.zeros(1), "generator")
    levy.lk_exponent(law1, np.ones(1))
    levy.symbol_sigma_nu(law2, np.ones(2))
    sphere = numerics.uniform_sphere(2, 32)
    kf = levy.tempered_k(0.8, 0.5, 1.0)
    levy.symbol_sigma_tilde(levy.tilde_nu(kf, sphere), np.ones(2), np.ones(2))


# ---------------------------------------------------------------------------

_PASS_MAKERS = {"mc_residuals": _mc_pass, "solver_rates": _solver_pass, "curvature_symbols": _curvature_pass}
WARM_UPS = {"mc_residuals": _mc_warm_up, "solver_rates": _solver_warm_up, "curvature_symbols": _curvature_warm_up}


def build(workload, seed, passes):
    """The workload's passes, each a list of (kind, check) pairs; the same
    seed gives the same laws, test functions, points and MC seeds."""
    index = WORKLOADS.index(workload)
    return [_PASS_MAKERS[workload](np.random.default_rng([seed, index, p]), p) for p in range(passes)]
