"""Acceptance suite: every exit criterion at its stated tolerance, one
pass/fail line per criterion (run with -s to see them inline)."""

import json
import math
import time

import numpy as np

from steinlab.dirichlet import (
    bakry_emery_check,
    poincare_residual,
    rate_denominator,
    rate_denominator_limit,
    rate_numerator,
    rate_numerator_limit,
    u_ratio_curve,
)
from steinlab.levy import (
    IDLaw,
    LevyPolar,
    isotropic_stable_law,
    lk_exponent,
    stable_k,
    symbol_sigma_nu,
    symbol_sigma_tilde,
    tempered_k,
    tilde_nu,
)
from steinlab.metrics import dwr_lower_bound, ergodicity_probe
from steinlab.numerics import (
    gaussian_bump,
    gaussian_bump_library,
    sphere_from_atoms,
    uniform_sphere,
)
from steinlab.sampling import make_rng, sample_isotropic_stable, sample_residual_law
from steinlab.stein import (
    residual_cauchy,
    residual_id,
    residual_sd,
    residual_stable_sub1,
    stein_solve,
    verify_stein_solution,
)


def _report(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {desc} {detail}")
    assert ok, f"criterion {num} failed: {desc} {detail}"


SEEDS = (101, 202, 303)


def test_criterion_01_normalization():
    t0 = time.monotonic()
    worst = 0.0
    for alpha in (1.25, 1.5, 1.75):
        for d in (1, 2, 3):
            atoms = 4096 if d == 3 else None  # budget: the d=3 cusp needs more atoms
            law = isotropic_stable_law(alpha, d, n_atoms=atoms)
            xi = np.zeros(d)
            xi[0] = 1.0
            val = lk_exponent(law, xi)
            worst = max(worst, abs(val - (-0.5)) / 0.5)
    elapsed = time.monotonic() - t0
    _report(
        1,
        "exponent of the normalized law equals -1/2 at |xi|=1 (rel 1e-4, <= 10 s)",
        worst < 1e-4 and elapsed <= 10.0,
        f"(worst rel {worst:.2e}, {elapsed:.1f} s)",
    )


def test_criterion_02_symbol_identity():
    alpha, d = 1.5, 2
    law = isotropic_stable_law(alpha, d)
    rng = make_rng(17)
    worst = 0.0
    for _ in range(10):
        xi = rng.normal(0.0, 1.0, size=d)
        target = -(alpha / 2.0) * np.linalg.norm(xi) ** alpha
        val = symbol_sigma_nu(law, xi)
        worst = max(worst, abs(val - target) / abs(target))
    _report(2, "one-frequency symbol matches -(alpha/2)|xi|^alpha (rel 1e-4)", worst < 1e-4, f"(worst rel {worst:.2e})")


def test_criterion_03_cocycle():
    rng = make_rng(23)
    worst = 0.0
    sphere = uniform_sphere(2, 32)
    for kf in (stable_k(1.5, 0.2), tempered_k(0.8, 0.5, 1.0)):
        law = IDLaw(np.zeros(2), LevyPolar(sphere, kf), "triplet_b")
        tn = tilde_nu(kf, sphere)
        for _ in range(10):
            xi, zeta = rng.normal(size=2), rng.normal(size=2)
            lhs = symbol_sigma_tilde(tn, xi, zeta)
            rhs = (
                symbol_sigma_nu(law, xi + zeta)
                - symbol_sigma_nu(law, xi)
                - symbol_sigma_nu(law, zeta)
            )
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-12))
    _report(3, "two-frequency symbol satisfies the cocycle identity (rel 1e-5, 20 pairs)", worst < 1e-5, f"(worst rel {worst:.2e})")


def _five_test_functions(d):
    lib = [
        gaussian_bump(d, a=1.0),
        gaussian_bump(d, a=1.0, center=[0.4] + [0.0] * (d - 1)),
        gaussian_bump(d, a=0.5, center=[-0.7] + [0.0] * (d - 1)),
        gaussian_bump(d, a=2.0, amplitude=0.8),
        gaussian_bump(d, a=1.0, coord=0),
    ]
    return lib


def _run_regime(num, name, runner, n=1_000_000):
    t0 = time.monotonic()
    fails = []
    for f in _five_test_functions(1):
        for seed in SEEDS:
            res = runner(f, n, seed)
            if not res.passes(3.0):
                dev = np.max(np.abs(res.estimate.value) / np.maximum(res.estimate.std_error, 1e-300))
                fails.append((f.name, seed, float(dev)))
    elapsed = time.monotonic() - t0
    _report(
        num,
        f"{name} residual within 3 SE at n=1e6 (5 functions x 3 seeds, <= 120 s)",
        not fails and elapsed <= 120.0,
        f"({elapsed:.0f} s{', fails: ' + repr(fails) if fails else ''})",
    )


def test_criterion_04a_residual_finite_mean():
    law = isotropic_stable_law(1.5, 1)
    _run_regime("4a", "finite-mean covariance", lambda f, n, s: residual_id(law, f, n, s))


def test_criterion_04b_residual_sub1():
    sphere = sphere_from_atoms([[1.0]], [1.0])
    law = IDLaw(np.zeros(1), LevyPolar(sphere, stable_k(0.5, 1.0)), "drift_b0")
    _run_regime("4b", "index-below-one", lambda f, n, s: residual_stable_sub1(law, f, n, s))


def test_criterion_04c_residual_cauchy():
    law = isotropic_stable_law(1.0, 1)
    _run_regime("4c", "index-one", lambda f, n, s: residual_cauchy(law, f, n, s))


def test_criterion_04d_residual_sd():
    law = isotropic_stable_law(1.5, 1)
    _run_regime("4d", "self-decomposable general", lambda f, n, s: residual_sd(law, "general", f, n, s))


def test_criterion_05_stein_solver():
    ok = True
    details = []
    for alpha in (0.5, 1.5):
        for d in (1, 2):
            law = isotropic_stable_law(alpha, d)
            tf = gaussian_bump(d, a=1.0)
            h = tf.scaled(1.0 / max(tf.m_bounds))
            grid = np.linspace(-2.0, 2.0, 11)
            pts = np.stack([grid] + [np.zeros(11)] * (d - 1), axis=1)
            osc = float(np.max(h.evaluate(pts)) - min(0.0, float(np.min(h.evaluate(pts)))))
            sol1 = stein_solve(law, h, budget=1)
            r1 = verify_stein_solution(law, sol1, pts, budget=1)
            sol2 = stein_solve(law, h, budget=2)
            r2 = verify_stein_solution(law, sol2, pts, budget=2)
            m1 = sol1.sup_gradient_norm(np.linspace(-4, 4, 20)[:, None] * np.ones((1, d)))
            m2 = sol1.second_difference_bound(pts)
            case_ok = (
                r1 <= 5e-2 * osc and r2 <= 0.5 * r1 and m1 <= 1.0 + 1e-3 and m2 <= 0.5 + 1e-3
            )
            ok = ok and case_ok
            details.append(f"a={alpha},d={d}: res {r1:.1e}->{r2:.1e}, M1 {m1:.2f}, M2 {m2:.2f}")
    _report(5, "equation residual <= 5e-2 osc(h), halves with budget, M1/M2 bounds", ok, "; ".join(details))


def test_criterion_06_poincare():
    law = isotropic_stable_law(1.5, 2)
    worst = math.inf
    for tf in gaussian_bump_library(2)[:10]:
        est = poincare_residual(law, tf, 1_000_000, seed=404, n_dirs=12)
        worst = min(worst, float(est.value) / max(float(est.std_error), 1e-300))
    _report(6, "energy minus variance >= -3 SE for 10 library functions (n=1e6)", worst >= -3.0, f"(worst value/SE {worst:.2f})")


def test_criterion_07_curvature():
    alpha = 1.5
    law = isotropic_stable_law(alpha, 2)
    rng = make_rng(31)
    bumps = [
        gaussian_bump(2, a=float(np.exp(rng.uniform(-1.2, 0.7))), center=rng.normal(0, 1, 2))
        for _ in range(20)
    ]
    g = np.linspace(-2.0, 2.0, 5)
    grid = np.stack(np.meshgrid(g, g), -1).reshape(-1, 2)
    min_gap = bakry_emery_check(law, bumps, grid)
    scale = 1.0
    # independent decomposition check at probe points
    from steinlab.dirichlet import _gamma1_integral_at, _second_difference_double, gamma2
    from steinlab.jumps import density_tilde, quad_sphere_for

    f = gaussian_bump(2, a=1.0, center=[0.2, 0.1])
    pts = np.array([[0.0, 0.0], [0.5, -0.4], [-1.0, 0.3]])
    g2_symbol = np.array([gamma2(law, f, x, "symbol") for x in pts])
    g1 = _gamma1_integral_at(f, f, pts, quad_sphere_for(law, 48), density_tilde(law.levy.kf))
    gap = g2_symbol - 0.5 * alpha * g1
    double = _second_difference_double(law, f, pts)
    gap_dev = float(np.max(np.abs(gap - double))) / float(np.max(np.abs(g2_symbol)))
    _report(
        7,
        "curvature gap nonnegative over 20 bumps x 25 points and equals the double integral (2e-3)",
        min_gap >= -1e-8 * scale and gap_dev <= 2e-3,
        f"(min gap {min_gap:.2e}, decomposition dev {gap_dev:.2e})",
    )


def test_criterion_08_rate_lemmas():
    alpha, d = 1.5, 2
    nl = rate_numerator_limit(alpha, d)
    dl = rate_denominator_limit(alpha, d)
    num64 = rate_numerator(alpha, d, 64.0) / 64.0 ** (2.0 - alpha)
    den64 = rate_denominator(alpha, d, 64.0) / 64.0 ** (2.0 - alpha)
    within = abs(num64 - nl) <= 0.02 * nl and abs(den64 - dl) <= 0.02 * dl
    Rs = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
    nums = np.array([rate_numerator(alpha, d, R) for R in Rs])
    dens = np.array([rate_denominator(alpha, d, R) for R in Rs])
    # divergence exponent read at the asymptotic end of the window; the
    # equal-weight regression over the full window still carries the
    # truncation transient and is reported alongside
    slope_num = (np.log(nums[-1]) - np.log(nums[-2])) / math.log(2.0)
    slope_den = (np.log(dens[-1]) - np.log(dens[-2])) / math.log(2.0)
    ls_num = float(np.polyfit(np.log(Rs), np.log(nums), 1)[0])
    ls_den = float(np.polyfit(np.log(Rs), np.log(dens), 1)[0])
    slopes_ok = abs(slope_num - 0.5) <= 0.025 and abs(slope_den - 0.5) <= 0.025
    _report(
        8,
        "rate integrals within 2% of limits at R=64; divergence exponent 2-alpha within 5%",
        within and slopes_ok,
        f"(num {num64:.4f}/{nl:.4f}, den {den64:.4f}/{dl:.4f}; end slopes {slope_num:.3f}/{slope_den:.3f}, "
        f"full-window LS {ls_num:.3f}/{ls_den:.3f})",
    )


def test_criterion_09_rigidity():
    reports = u_ratio_curve(1.5, 2, 0, [8.0, 16.0, 32.0, 64.0])
    ratio64 = reports[-1].ratio
    gaps = [r.denominator - r.numerator for r in reports]
    monotone = all(b <= a + r.err for a, b, r in zip(gaps, gaps[1:], reports[1:]))
    _report(
        9,
        "variance/energy ratio in [0.95, 1.05] at R=64 and the gap shrinks monotonically",
        0.95 <= ratio64 <= 1.05 and monotone and gaps[-1] < gaps[0],
        f"(ratio {ratio64:.4f}, gaps {['%.4f' % g for g in gaps]})",
    )


def test_criterion_10_ergodicity():
    t_grid = [0.25, 0.6, 1.0, 1.5, 2.0, 2.5, 3.0]
    fit = ergodicity_probe(1.5, 1, t_grid, 200_000, seed=808)
    # order nesting on every grid point
    target = sample_isotropic_stable(1.5, 1, 100_000, seed=809)
    nesting = True
    for t in t_grid:
        member = sample_residual_law(1.5, 1, t, None, 100_000, seed=809)
        d1 = dwr_lower_bound(target, member, 1, seed=5151).value
        d2 = dwr_lower_bound(target, member, 2, seed=5151).value
        nesting = nesting and d2 <= d1 + 1e-15
    _report(
        10,
        "ergodic decay: slope < 0 with R^2 >= 0.9; order-2 estimate <= order-1 on every point",
        fit.status == "ok" and fit.slope < 0.0 and fit.r_squared >= 0.9 and nesting,
        f"(slope {fit.slope:.3f}, R^2 {fit.r_squared:.3f})",
    )


def test_criterion_11_reproducibility(tmp_path, capsys):
    from steinlab.cli import run

    payloads = []
    for rerun in (1, 2):
        out = tmp_path / f"rep{rerun}.json"
        code = run(
            [
                "residual",
                "--regime",
                "sd_general",
                "--alpha",
                "1.5",
                "--d",
                "1",
                "--n",
                "50000",
                "--seed",
                "77",
                "--out",
                str(out),
            ]
        )
        capsys.readouterr()
        payloads.append(json.dumps(json.loads(out.read_text())["payload"], sort_keys=True))
    with capsys.disabled():
        _report(11, "rerunning an identical config+seed gives a byte-identical payload", payloads[0] == payloads[1])
