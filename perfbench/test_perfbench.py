"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_perfbench.py

Run from the root of a checkout.  The traced-run tests start worker
processes, so every run begins with cold caches.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from run import tail  # noqa: E402
from spans import FUNCTIONS, SOLUTION_METHODS, Tracer  # noqa: E402

WORKLOADS = ("mc_residuals", "curvature_symbols")
EXACT_COUNTS = (
    "numerics.points", "numerics.bytes_computed", "jumps.points", "jumps.calls",
    "sampling.draws", "levy.calls", "stein.solution_points", "trace.spans",
)


def _worker(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@functools.lru_cache(maxsize=None)
def _runs(workload):
    """One untraced and two traced single-pass runs of one seed."""
    args = ("--workload", workload, "--seed", "3", "--passes", "1")
    return _worker(*args), _worker(*args, "--trace"), _worker(*args, "--trace")


def _public_functions(mod):
    return {
        name for name in getattr(mod, "__all__", ())
        if callable(getattr(mod, name)) and not isinstance(getattr(mod, name), type)
    }


def test_every_public_function_is_wrapped_under_every_alias():
    for modname, names in FUNCTIONS.values():
        mod = importlib.import_module(modname)
        listed = {id(getattr(mod, name)) for name in names}  # an alias shares its function
        missing = {name for name in _public_functions(mod) if id(getattr(mod, name)) not in listed}
        assert not missing, f"{modname} public functions the tracer does not wrap: {sorted(missing)}"

    tracer = Tracer().install()
    try:
        assert tracer.unwrapped() == []
        stein = importlib.import_module("steinlab.stein")
        dirichlet = importlib.import_module("steinlab.dirichlet")
        # names imported into other modules are wrapped there too
        for alias in (stein.jump_ball_chunk, stein.jump_vector_chunk, dirichlet.jump_square_chunk,
                      dirichlet._chunked_mean, dirichlet._shifted_eval, dirichlet.gaussian_bump):
            assert hasattr(alias, "traced_original")
        for meth in SOLUTION_METHODS:
            assert hasattr(getattr(stein.SteinSolution, meth), "traced_original")
    finally:
        tracer.uninstall()
    for name, orig in tracer.originals.items():
        layer, attr = name.split(".", 1)
        if not attr.startswith("SteinSolution."):
            assert getattr(importlib.import_module(FUNCTIONS[layer][0]), attr) is orig


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_runs_compute_the_same_bits(workload):
    plain, traced, _ = _runs(workload)
    assert [(r["kind"], r["values"]) for r in plain["records"]] == [
        (r["kind"], r["values"]) for r in traced["records"]
    ]
    assert all(r["ok"] for r in plain["records"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_and_cache_deltas_repeat_across_runs(workload):
    _, first, second = _runs(workload)
    for name in EXACT_COUNTS:
        assert first["per_layer"][name] == second["per_layer"][name], name
    assert first["caches"] == second["caches"]
    assert first["per_layer"]["numerics.points"][0] > 0


def test_layer_self_times_account_for_the_traced_wall_time():
    _, traced, _ = _runs("mc_residuals")
    assert 0.0 <= traced["per_layer"]["trace.unattributed_frac"][0] < 0.05
    assert traced["per_layer"]["share.jumps_numerics"][0] > 0.5


def test_tail_leaves_ten_checks_above():
    value, percentile, count = tail(list(range(1, 21)))
    assert (value, percentile, count) == (10, 45.0, 20)
    assert sum(1 for t in range(1, 21) if t > value) == 10


def test_run_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "mc_residuals",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
