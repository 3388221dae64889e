"""One measured process of the benchmark.

Sets up a workload (imports, laws, test functions, one warm-up call per
routine), then runs its passes of checks one after another and prints one
JSON line: set-up time, wall time, every check's time and verdict, peak
resident memory and, when traced, the per-layer metrics.

    python3 perfbench/worker.py --workload mc_residuals --seed 1 --passes 2 [--trace] [--setup-only]

Run it from the root of a checkout; ``perfbench/run.py`` is the entry point.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))

# one process, one thread: STEINLAB_THREADS at its default, single-threaded BLAS
PINNED_ENV = {
    "STEINLAB_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def run_checks(plan):
    """Run every check in order; a check that raises is a failed verdict."""
    records = []
    start = time.perf_counter()
    for p, checks in enumerate(plan):
        for kind, check in checks:
            t0 = time.perf_counter()
            try:
                verdict = check()
            except Exception:  # a raising check is a failure to report, not a crash
                verdict = {"ok": False, "frac": None, "z": None, "values": [], "error": traceback.format_exc()}
            verdict.update(kind=kind, pass_index=p, seconds=time.perf_counter() - t0)
            records.append(verdict)
    return records, time.perf_counter() - start


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="write the traced spans here (JSON lines)")
    args = ap.parse_args(argv)
    os.environ.update(PINNED_ENV)

    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, HERE)
    import checks
    from steinlab import jumps, levy

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer().install()
    plan = checks.build(args.workload, args.seed, args.passes)
    checks.WARM_UPS[args.workload]()
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if tracer is not None:
        tracer.reset()
    panels0 = jumps._big_panels.cache_info()
    base0 = len(levy._BASE_CACHE)
    records, wall_s = run_checks(plan)
    panels1 = jumps._big_panels.cache_info()

    import numpy
    import scipy

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "records": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__},
        "caches": {
            "jumps.panel_cache_hits": panels1.hits - panels0.hits,
            "jumps.panel_cache_misses": panels1.misses - panels0.misses,
            "levy.base_cache_misses": len(levy._BASE_CACHE) - base0,
        },
    }
    if tracer is not None:
        tracer.uninstall()
        out["per_layer"], out["layer_self_s"] = tracer.per_layer(wall_s)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
