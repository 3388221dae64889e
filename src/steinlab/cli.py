"""Batch command-line front end.

One experiment per process: parse a law/experiment config, run the
requested check suite, and emit a machine-readable JSON report carrying
the config echo, seed, budgets, library versions, and wall time.  Exit
codes: 0 on pass, 2 on a mathematical check failure, 1 on usage or
config errors.  Every computation runs on the calling thread.

The config document is a flat key=value table with one nested table per
law, INI-style::

    [run]
    command = normalize
    seed = 1
    n = 200000

    [law]
    family = stable
    alpha = 1.5
    c = auto
    d = 2
    sphere_kind = uniform
    sphere_atoms = 256
    shift = 0.0, 0.0
    rep = triplet_b

    [quadrature]
    n_dirs = 32
    budget = 1
"""

from __future__ import annotations

import argparse
import configparser
import io
import json
import platform
import sys
import time
from dataclasses import asdict, dataclass, replace
import numpy as np

from . import __version__
from ._errors import SteinlabError

SCHEMA_VERSION = "1.0.0"

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2

COMMANDS = (
    "residual",
    "solve-stein",
    "poincare",
    "gamma2",
    "rigidity",
    "ergodicity",
    "sample",
    "normalize",
)


def report_schema_version() -> str:
    """Semantic version of the report payload schema."""
    return SCHEMA_VERSION


class ConfigError(SteinlabError, ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    command: str = "normalize"
    seed: int = 1
    n: int = 200_000
    out: str = ""
    family: str = "stable"
    alpha: float = 1.5
    c: str = "auto"
    lam: float = 0.0
    d: int = 2
    sphere_kind: str = "uniform"
    sphere_atoms: int = 0  # 0 -> dimension default
    shift: tuple = ()
    rep: str = "triplet_b"
    n_dirs: int = 32
    budget: int = 1
    regime: str = "sd_general"
    R: int = 64
    t_max: float = 3.0


_RUN_FIELDS = {"command": str, "seed": int, "n": int, "out": str}
_LAW_FIELDS = {
    "family": str,
    "alpha": float,
    "c": str,
    "lambda": float,
    "d": int,
    "sphere_kind": str,
    "sphere_atoms": int,
    "shift": "floats",
    "rep": str,
}
_QUAD_FIELDS = {
    "n_dirs": int,
    "budget": int,
    "regime": str,
    "R": int,
    "t_max": float,
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the key=value document; unknown sections or keys are errors."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive (R vs r)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    values: dict = {}
    for section, schema in (("run", _RUN_FIELDS), ("law", _LAW_FIELDS), ("quadrature", _QUAD_FIELDS)):
        if not parser.has_section(section):
            continue
        for key, raw in parser.items(section):
            if key not in schema:
                raise ConfigError(f"unknown field [{section}] {key}")
            kind = schema[key]
            name = "lam" if key == "lambda" else key
            try:
                if kind == "floats":
                    values[name] = tuple(float(v) for v in raw.split(",") if v.strip() != "")
                elif kind is str:
                    values[name] = raw.strip()
                else:
                    values[name] = kind(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc
    extra = set(parser.sections()) - {"run", "law", "quadrature"}
    if extra:
        raise ConfigError(f"unknown sections: {sorted(extra)}")
    cfg = ExperimentConfig(**values)
    if cfg.command not in COMMANDS:
        raise ConfigError(f"unknown command {cfg.command!r}")
    return cfg


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse(serialize(c)) == c."""
    out = io.StringIO()
    out.write("[run]\n")
    out.write(f"command = {cfg.command}\n")
    out.write(f"seed = {cfg.seed}\n")
    out.write(f"n = {cfg.n}\n")
    out.write(f"out = {cfg.out}\n")
    out.write("\n[law]\n")
    out.write(f"family = {cfg.family}\n")
    out.write(f"alpha = {cfg.alpha!r}\n")
    out.write(f"c = {cfg.c}\n")
    out.write(f"lambda = {cfg.lam!r}\n")
    out.write(f"d = {cfg.d}\n")
    out.write(f"sphere_kind = {cfg.sphere_kind}\n")
    out.write(f"sphere_atoms = {cfg.sphere_atoms}\n")
    out.write(f"shift = {', '.join(repr(s) for s in cfg.shift)}\n")
    out.write(f"rep = {cfg.rep}\n")
    out.write("\n[quadrature]\n")
    out.write(f"n_dirs = {cfg.n_dirs}\n")
    out.write(f"budget = {cfg.budget}\n")
    out.write(f"regime = {cfg.regime}\n")
    out.write(f"R = {cfg.R}\n")
    out.write(f"t_max = {cfg.t_max!r}\n")
    return out.getvalue()


def _build_law(cfg: ExperimentConfig):
    from .levy import IDLaw, KFunction, LevyPolar, _isotropic_amplitude
    from .numerics import sphere_from_atoms, uniform_sphere

    kf = KFunction(
        family=cfg.family,
        alpha=cfg.alpha if cfg.family != "gamma" else float("nan"),
        c=_isotropic_amplitude(cfg.alpha, cfg.d) if cfg.c == "auto" else float(cfg.c),
        lam=cfg.lam,
    )
    if cfg.sphere_kind == "uniform":
        sphere = uniform_sphere(cfg.d, cfg.sphere_atoms or None)
    elif cfg.sphere_kind == "one_atom":
        e1 = np.zeros(cfg.d)
        e1[0] = 1.0
        sphere = sphere_from_atoms([e1], [1.0])
    else:
        raise ConfigError(f"unknown sphere kind {cfg.sphere_kind!r}")
    shift = np.array(cfg.shift if cfg.shift else np.zeros(cfg.d), dtype=float)
    return IDLaw(shift=shift, levy=LevyPolar(sphere=sphere, kf=kf), rep=cfg.rep)


# ---------------------------------------------------------------------------
# command implementations (each returns (results_dict, passed))
# ---------------------------------------------------------------------------


def _cmd_normalize(cfg):
    from .levy import _isotropic_amplitude, normalization_check

    resid = normalization_check(cfg.alpha, cfg.d, cfg.sphere_atoms or None)
    return {"c_alpha_d": _isotropic_amplitude(cfg.alpha, cfg.d), "normalization_residual": resid}, resid < 1e-4


def _cmd_residual(cfg):
    from .numerics import gaussian_bump
    from .stein import (
        residual_cauchy,
        residual_id,
        residual_sd,
        residual_stable_sub1,
    )

    e1_shift = 0.4
    f = gaussian_bump(cfg.d, a=1.0, center=[e1_shift] + [0.0] * (cfg.d - 1))
    law = _build_law(cfg)
    if cfg.regime == "id":
        res = residual_id(law, f, cfg.n, cfg.seed, cfg.n_dirs)
    elif cfg.regime == "stable_sub1":
        res = residual_stable_sub1(law, f, cfg.n, cfg.seed, cfg.n_dirs)
    elif cfg.regime == "cauchy":
        res = residual_cauchy(law, f, cfg.n, cfg.seed, cfg.n_dirs)
    elif cfg.regime in ("sd_small_jump", "sd_general"):
        variant = "small_jump" if cfg.regime == "sd_small_jump" else "general"
        res = residual_sd(law, variant, f, cfg.n, cfg.seed, cfg.n_dirs)
    else:
        raise ConfigError(f"unknown residual regime {cfg.regime!r}")
    passed = res.passes(3.0)
    return json.loads(res.to_json()), passed


def _cmd_solve_stein(cfg):
    from .numerics import gaussian_bump
    from .stein import stein_solve, verify_stein_solution

    law = _build_law(cfg)
    tf = gaussian_bump(cfg.d, a=1.0)
    h = tf.scaled(1.0 / max(tf.m_bounds))
    sol = stein_solve(law, h, budget=cfg.budget)
    grid = np.linspace(-2.0, 2.0, 11)
    pts = np.stack([grid] + [np.zeros(11)] * (cfg.d - 1), axis=1)
    resid = verify_stein_solution(law, sol, pts, budget=cfg.budget)
    osc = float(np.max(h.evaluate(pts)))
    m1 = sol.sup_gradient_norm(np.linspace(-4, 4, 20)[:, None] * np.ones((1, cfg.d)))
    m2 = sol.second_difference_bound(pts)
    results = {
        "max_equation_residual": resid,
        "oscillation": osc,
        "sup_gradient": m1,
        "second_difference_bound": m2,
        "mean_h": sol.mean_h,
    }
    passed = resid <= 5e-2 * osc and m1 <= 1.0 + 1e-3 and m2 <= 0.5 + 1e-3
    return results, passed


def _cmd_poincare(cfg):
    from .dirichlet import poincare_residual
    from .numerics import gaussian_bump_library

    law = _build_law(cfg)
    rows = []
    passed = True
    for tf in gaussian_bump_library(cfg.d)[:10]:
        est = poincare_residual(law, tf, cfg.n, cfg.seed, cfg.n_dirs)
        ok = float(est.value) >= -3.0 * float(est.std_error)
        passed = passed and ok
        rows.append(
            {"function": tf.name, "residual": float(est.value), "std_error": float(est.std_error), "pass": ok}
        )
    return {"functions": rows}, passed


def _cmd_gamma2(cfg):
    from .dirichlet import bakry_emery_check, gamma2
    from .numerics import gaussian_bump
    from .sampling import make_rng

    law = _build_law(cfg)
    rng = make_rng(cfg.seed, stream=3)
    f = gaussian_bump(cfg.d, a=1.0, center=0.3 * np.ones(cfg.d))
    x = rng.normal(0.0, 1.0, size=cfg.d)
    vi = gamma2(law, f, x, "integral")
    vs = gamma2(law, f, x, "symbol")
    agree = abs(vi - vs) <= 2e-3 * max(abs(vi), 1e-12)
    fs = [
        gaussian_bump(cfg.d, a=float(np.exp(rng.uniform(-1, 0.7))), center=rng.normal(0, 1, cfg.d))
        for _ in range(5)
    ]
    g = np.linspace(-2, 2, 3)
    grid = np.stack(np.meshgrid(*([g] * cfg.d)), -1).reshape(-1, cfg.d)
    min_gap = bakry_emery_check(law, fs, grid)
    results = {
        "gamma2_integral": vi,
        "gamma2_symbol": vs,
        "routes_agree": agree,
        "min_curvature_gap": min_gap,
    }
    return results, agree and min_gap >= -1e-8


def _cmd_rigidity(cfg):
    from .dirichlet import export_ratio_csv, u_ratio_curve

    r_list = [r for r in (4, 8, 16, 32, 64) if r <= cfg.R] or [cfg.R]
    reports = u_ratio_curve(cfg.alpha, cfg.d, 0, [float(r) for r in r_list])
    rows = [
        {"R": r.R, "numerator": r.numerator, "denominator": r.denominator, "ratio": r.ratio, "err": r.err}
        for r in reports
    ]
    passed = 0.95 <= reports[-1].ratio <= 1.05
    if cfg.out:
        export_ratio_csv(reports, cfg.out + ".csv")
    return {"curve": rows}, passed


def _cmd_ergodicity(cfg):
    from .metrics import ergodicity_probe

    t_grid = list(np.linspace(0.25, cfg.t_max, 8))
    fit = ergodicity_probe(cfg.alpha, cfg.d, t_grid, cfg.n, cfg.seed)
    results = {
        "slope": fit.slope,
        "r_squared": fit.r_squared,
        "t_grid": list(fit.t_grid),
        "distances": list(fit.distances),
        "status": fit.status,
    }
    return results, fit.status == "ok" and fit.slope < 0.0 and fit.r_squared >= 0.9


def _cmd_sample(cfg):
    from .sampling import export_csv, sample_stable_law

    law = _build_law(cfg)
    batch = sample_stable_law(law, cfg.n, cfg.seed)
    path = cfg.out or "samples.csv"
    export_csv(batch, path)
    return {"written": path, "n": batch.n, "d": batch.dim}, True


_DISPATCH = {
    "normalize": _cmd_normalize,
    "residual": _cmd_residual,
    "solve-stein": _cmd_solve_stein,
    "poincare": _cmd_poincare,
    "gamma2": _cmd_gamma2,
    "rigidity": _cmd_rigidity,
    "ergodicity": _cmd_ergodicity,
    "sample": _cmd_sample,
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="steinlab", description=__doc__.splitlines()[0])
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--config", default=None, help="path to a key=value config document")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--out", default=None, help="report path (JSON)")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--R", type=int, default=None)
    p.add_argument("--t-max", dest="t_max", type=float, default=None)
    p.add_argument("--regime", default=None)
    p.add_argument("--atoms", dest="sphere_atoms", type=int, default=None)
    p.add_argument("--rep", default=None)
    p.add_argument("--sphere", dest="sphere_kind", default=None)
    p.add_argument("--budget", type=int, default=None)
    return p


def run(argv) -> int:
    """Parse argv, run the experiment, write/print the report."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    try:
        if args.config:
            with open(args.config) as fh:
                cfg = parse_config(fh.read())
        else:
            if args.command in ("normalize", "solve-stein", "gamma2") and args.alpha is None:
                print("usage: --alpha is required (or provide --config)", file=sys.stderr)
                return EXIT_USAGE
            cfg = ExperimentConfig()
        cfg = replace(cfg, command=args.command)
        overrides = {
            k: v
            for k, v in vars(args).items()
            if k in ExperimentConfig.__dataclass_fields__ and v is not None and k != "command"
        }
        if overrides:
            cfg = replace(cfg, **overrides)
        if cfg.command == "residual" and cfg.regime in ("stable_sub1",) and args.config is None:
            # the sub-one designated setup is one-sided in d = 1
            if args.alpha is None:
                cfg = replace(cfg, alpha=0.5)
            cfg = replace(cfg, d=1, sphere_kind="one_atom", rep="drift_b0", c="1.0")
        if cfg.command == "residual" and cfg.regime == "cauchy" and args.alpha is None:
            cfg = replace(cfg, alpha=1.0)
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    start = time.monotonic()
    try:
        results, passed = _DISPATCH[cfg.command](cfg)
    except SteinlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    wall = time.monotonic() - start

    config_echo = asdict(cfg)
    config_echo.pop("out")  # output path is I/O plumbing, not experiment identity
    payload = {
        "schema_version": report_schema_version(),
        "command": cfg.command,
        "config": json.loads(json.dumps(config_echo)),
        "seed": cfg.seed,
        "results": results,
        "pass": bool(passed),
        "versions": {
            "steinlab": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    report = {"payload": payload, "timing": {"wall_time_s": wall}}
    text = json.dumps(report, sort_keys=True, indent=2, default=float)
    if cfg.out and cfg.command != "sample":
        with open(cfg.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_PASS if passed else EXIT_CHECK_FAILED


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
