"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public functions of every steinlab layer under every
name they are looked up by (``stein`` and ``dirichlet`` import
``jump_*_chunk`` and ``_chunked_mean`` by name, so patching the defining
module alone would miss those calls), records one span per call -- name,
layer, parent, start, end and the rows it handled -- and turns the spans
into the per-layer metrics.  Nothing inside the library changes: a span
starts when a wrapped function is entered and ends when it returns.

Test functions get counting wrappers on ``evaluate`` and ``gradient``
(through ``dataclasses.replace``); ``numerics.gaussian_bump`` is wrapped so
that every bump it builds -- the benchmark's own, and those built inside
``cli`` and ``metrics`` -- is counted.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time

import numpy as np

# layer -> (module, public function names).  ``test_perfbench`` checks
# that this covers every function in each module's ``__all__``.
FUNCTIONS = {
    "numerics": (
        "steinlab.numerics",
        (
            "gamma_fn", "log_radial_grid", "radial_integral", "uniform_sphere",
            "sphere_from_atoms", "surface_area", "spherical_integral", "time_integral",
            "grad_fd", "gaussian_bump", "gaussian_bump_library", "normalized_bumps",
            "gauss_legendre_panel", "gauss_jacobi_unit",
        ),
    ),
    "levy": (
        "steinlab.levy",
        (
            "stable_k", "tempered_k", "gamma_k", "c_alpha_d", "cauchy_c",
            "isotropic_stable_law", "lk_exponent", "char_fn", "tilde_nu",
            "convert_representation", "symbol_sigma_nu", "symbol_sigma_tilde",
            "symbol_rho_tilde", "normalization_check",
        ),
    ),
    "sampling": (
        "steinlab.sampling",
        (
            "make_rng", "sample_positive_stable", "sample_isotropic_stable",
            "sample_residual_law", "sample_stable_law", "mc_expectation",
            "empirical_char_fn", "export_csv",
        ),
    ),
    "jumps": (
        "steinlab.jumps",
        (
            "density_nu", "density_tilde", "quad_sphere_for", "big_rule", "small_rule",
            "jump_raw_chunk", "jump_ball_chunk", "jump_vector_chunk",
            "jump_grad_diff_chunk", "jump_square_chunk", "_shifted_eval", "_shifted_grad_dot",
        ),
    ),
    "stein": (
        "steinlab.stein",
        (
            "residual_regime", "residual_id", "residual_stable_sub1", "residual_cauchy",
            "residual_sd", "residual_sd_finite_mean_form", "generator_tilt",
            "generator_apply", "semigroup_apply", "stein_solve", "verify_stein_solution",
            "_chunked_mean",
        ),
    ),
    "dirichlet": (
        "steinlab.dirichlet",
        (
            "truncated_coordinate", "gamma1", "gamma2", "gamma2_symbol_value",
            "bakry_emery_check", "poincare_residual", "rate_numerator",
            "rate_numerator_limit", "rate_denominator", "rate_denominator_limit",
            "u_ratio_curve", "export_ratio_csv",
        ),
    ),
    "metrics": ("steinlab.metrics", ("dwr_lower_bound", "ergodicity_probe", "export_probe_csv")),
    "cli": ("steinlab.cli", ("run", "parse_config", "serialize_config")),
}

# methods of the Stein solution object, which evaluates the solver's tables
SOLUTION_METHODS = (
    "evaluate", "gradient", "gradient_consistent", "_ensure_tables",
    "sup_gradient_norm", "second_difference_bound",
)

JUMP_ENGINES = frozenset(
    f"jumps.{n}"
    for n in ("jump_raw_chunk", "jump_ball_chunk", "jump_vector_chunk", "jump_grad_diff_chunk", "jump_square_chunk")
)
SAMPLERS = frozenset(
    f"sampling.{n}"
    for n in ("sample_positive_stable", "sample_isotropic_stable", "sample_residual_law", "sample_stable_law")
)
REDUCERS = frozenset(("sampling.mc_expectation", "stein._chunked_mean"))
RESIDUALS = frozenset(
    f"stein.{n}"
    for n in ("residual_id", "residual_stable_sub1", "residual_cauchy", "residual_sd", "residual_sd_finite_mean_form")
)
RATES = frozenset(
    f"dirichlet.{n}"
    for n in ("rate_numerator", "rate_numerator_limit", "rate_denominator", "rate_denominator_limit", "u_ratio_curve")
)
SOLUTION_POINTS = frozenset(
    f"stein.SteinSolution.{n}" for n in ("evaluate", "gradient", "gradient_consistent")
)
TF_EVAL = frozenset(("numerics.TestFunction.evaluate", "numerics.TestFunction.gradient"))

LAYERS = tuple(FUNCTIONS)

# span record fields
NAME, LAYER, PARENT, T0, T1, ROWS, COLS = range(7)


def _rows_cols(x):
    """Points and coordinates of an evaluation argument (one point or a batch)."""
    return np.atleast_2d(x).shape[:2]


def _steinlab_modules():
    return [m for k, m in sorted(sys.modules.items()) if k == "steinlab" or k.startswith("steinlab.")]


class Tracer:
    """Spans of one traced run, kept in memory until ``write``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []  # (owner, attribute, original)
        self.originals = {}  # span name -> original callable

    # -- recording ------------------------------------------------------

    def _call(self, name, layer, fn, args, kwargs, count):
        idx = len(self.spans)
        rec = [name, layer, self._stack[-1] if self._stack else -1, 0.0, 0.0, 0, 0]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[T0] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[T1] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            rec[ROWS], rec[COLS] = count(args, out)
        return out

    def wrap(self, name, layer, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, layer, fn, args, kwargs, count)

        traced.traced_original = fn
        return traced

    def wrap_test_function(self, tf):
        """Counting wrappers on a test function's evaluate and gradient."""
        arg_rows = lambda args, out: _rows_cols(args[0])
        return dataclasses.replace(
            tf,
            evaluate=self.wrap("numerics.TestFunction.evaluate", "numerics", tf.evaluate, arg_rows),
            gradient=None
            if tf.gradient is None
            else self.wrap("numerics.TestFunction.gradient", "numerics", tf.gradient, arg_rows),
        )

    # -- installing -----------------------------------------------------

    def install(self):
        """Wrap every listed function under every steinlab name bound to it."""
        import steinlab.cli  # noqa: F401  (loads every layer module)
        import steinlab.dirichlet  # noqa: F401
        import steinlab.metrics  # noqa: F401

        from steinlab.stein import SteinSolution

        modules = _steinlab_modules()
        for layer, (modname, names) in FUNCTIONS.items():
            mod = sys.modules[modname]
            for fname in names:
                orig = getattr(mod, fname)
                name = f"{layer}.{fname}"
                fn = orig
                if name == "numerics.gaussian_bump":
                    fn = functools.wraps(orig)(lambda *a, _f=orig, **k: self.wrap_test_function(_f(*a, **k)))
                wrapper = self.wrap(name, layer, fn, _count_draws if name in SAMPLERS else None)
                self.originals[name] = orig
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._patches.append((m, attr, orig))
                            setattr(m, attr, wrapper)
        row_arg = lambda args, out: _rows_cols(args[1]) if len(args) > 1 else (0, 0)
        for meth in SOLUTION_METHODS:
            orig = SteinSolution.__dict__[meth]
            name = f"stein.SteinSolution.{meth}"
            self.originals[name] = orig
            self._patches.append((SteinSolution, meth, orig))
            setattr(SteinSolution, meth, self.wrap(name, "stein", orig, row_arg))
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def unwrapped(self):
        """Listed originals still bound somewhere in steinlab: (module, name)."""
        missed = []
        for m in _steinlab_modules():
            for attr, value in vars(m).items():
                for name, orig in self.originals.items():
                    if value is orig:
                        missed.append((m.__name__, attr))
        return missed

    def reset(self):
        self.spans.clear()

    # -- aggregation ----------------------------------------------------

    def per_layer(self, wall_s):
        """Per-layer metrics of the recorded spans over a traced wall time."""
        spans = self.spans
        n = len(spans)
        dur = [s[T1] - s[T0] for s in spans]
        child = [0.0] * n
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                child[s[PARENT]] += dur[i]
        own = [dur[i] - child[i] for i in range(n)]

        def has_ancestor(i, pred):
            p = spans[i][PARENT]
            while p >= 0:
                if pred(spans[p]):
                    return True
                p = spans[p][PARENT]
            return False

        def busy(pred):
            """Union time of matching spans (nested matches counted once)."""
            return sum(dur[i] for i in range(n) if pred(spans[i]) and not has_ancestor(i, pred))

        def self_time(pred):
            return sum(own[i] for i in range(n) if pred(spans[i]))

        def count(pred):
            return sum(1 for s in spans if pred(s))

        named = lambda names: (lambda s: s[NAME] in names)
        in_layer = lambda layer: (lambda s: s[LAYER] == layer)
        is_eval = named(TF_EVAL)
        jump_layer = in_layer("jumps")

        eval_rows = [i for i in range(n) if is_eval(spans[i])]
        jump_points = sum(spans[i][ROWS] for i in eval_rows if has_ancestor(i, jump_layer))
        jumps_busy = busy(jump_layer)
        draws = sum(
            spans[i][ROWS] for i in range(n) if spans[i][NAME] in SAMPLERS and not has_ancestor(i, named(SAMPLERS))
        )
        samplers_busy = busy(named(SAMPLERS))
        layer_self = {layer: self_time(in_layer(layer)) for layer in LAYERS}
        attributed = sum(layer_self.values())
        rate_or_stein = lambda s: s[NAME] in RATES or s[LAYER] == "stein"
        curvature_or_levy = lambda s: s[NAME] == "dirichlet.bakry_emery_check" or s[LAYER] == "levy"
        gammas = named({"dirichlet.gamma1", "dirichlet.gamma2"})
        wall = max(wall_s, 1e-12)

        metrics = {
            "jumps.calls": (count(named(JUMP_ENGINES)), "count"),
            "jumps.busy_s": (jumps_busy, "s"),
            "jumps.self_s": (layer_self["jumps"], "s"),
            "jumps.points": (jump_points, "count"),
            "jumps.ns_per_point": (1e9 * jumps_busy / jump_points if jump_points else 0.0, "ns"),
            "numerics.points": (sum(spans[i][ROWS] for i in eval_rows), "count"),
            "numerics.eval_s": (sum(dur[i] for i in eval_rows), "s"),
            "numerics.bytes_computed": (sum(8 * spans[i][ROWS] * spans[i][COLS] for i in eval_rows), "B"),
            "sampling.draws": (draws, "count"),
            "sampling.busy_s": (samplers_busy, "s"),
            "sampling.draws_per_s": (draws / samplers_busy if samplers_busy > 0 else 0.0, "1/s"),
            "sampling.reduce_s": (self_time(named(REDUCERS)), "s"),
            "stein.residual_self_s": (self_time(named(RESIDUALS)), "s"),
            "stein.solve_s": (busy(named({"stein.stein_solve"})), "s"),
            "stein.table_build_s": (busy(named({"stein.SteinSolution._ensure_tables"})), "s"),
            "stein.solution_points": (
                sum(s[ROWS] for i, s in enumerate(spans) if s[NAME] in SOLUTION_POINTS and not has_ancestor(i, named(SOLUTION_POINTS))),
                "count",
            ),
            "stein.verify_self_s": (self_time(named({"stein.verify_stein_solution"})), "s"),
            "dirichlet.rate_s": (busy(named(RATES)), "s"),
            "dirichlet.curvature_s": (busy(named({"dirichlet.bakry_emery_check"})), "s"),
            "dirichlet.gamma_s": (busy(gammas), "s"),
            "dirichlet.poincare_self_s": (self_time(named({"dirichlet.poincare_residual"})), "s"),
            "levy.calls": (count(in_layer("levy")), "count"),
            "levy.busy_s": (busy(in_layer("levy")), "s"),
            "metrics.probe_s": (busy(named({"metrics.ergodicity_probe"})), "s"),
            "cli.self_s": (self_time(named({"cli.run"})), "s"),
            "trace.spans": (n, "count"),
            "trace.unattributed_frac": ((wall_s - attributed) / wall, "frac"),
            "share.jumps_numerics": ((layer_self["jumps"] + layer_self["numerics"]) / wall, "frac"),
            "share.rate_stein": (busy(rate_or_stein) / wall, "frac"),
            "share.curvature_levy": (busy(curvature_or_levy) / wall, "frac"),
        }
        breakdown = {f"{layer}.layer_self_s": layer_self[layer] for layer in LAYERS}
        breakdown["unattributed_s"] = wall_s - attributed
        return metrics, breakdown

    def write(self, path):
        """Write the spans as JSON lines: name, layer, parent, start, end, rows, cols."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _count_draws(args, out):
    """Rows and columns of a sampler's output (a batch or a plain array)."""
    if hasattr(out, "points"):
        return out.points.shape
    return np.asarray(out).shape[0], 1
