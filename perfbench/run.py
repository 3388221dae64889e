"""steinlab benchmark: time to a verified verdict, end to end and per layer.

    python3 perfbench/run.py --workload mc_residuals --seed 1 --seconds 25 --trace 0

Run from the root of a checkout (the directory holding ``src/steinlab``).
Each run starts fresh worker processes (``perfbench/worker.py``) that
import the library from ``src``, set up the workload and run its checks
one after another in a closed loop: one process, one check at a time,
``STEINLAB_THREADS=1`` and single-threaded BLAS.  The workload's checks and
their inputs come from ``--seed``; ``--seconds`` sets how many passes of
checks a run makes, from each workload's pass time at the commit that
defined the benchmark, so that both sides of a comparison do the same work.

``--trace 0`` prints the end-to-end metrics of an untraced run; set-up is
repeated in separate processes and its median reported.  ``--trace 1``
runs the same checks untraced and traced (spans around every public
function of every layer, see ``spans.py``) and prints the per-layer
metrics; it also fails the run unless both computed the same bits.

Stdout ends with a detail line (environment, per-check summary, layer
self times) and then the result line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from worker import PINNED_ENV  # noqa: E402  (standard library only)

# seconds per pass at the commit that defined the benchmark (2-core Xeon,
# Python 3.11, numpy 2.4), and the fewest passes a run makes: three
# solver passes give each of its three cases one budget-halving check
PASS_SECONDS = {"mc_residuals": 1.4, "solver_rates": 14.0, "curvature_symbols": 5.9}
MIN_PASSES = {"mc_residuals": 1, "solver_rates": 3, "curvature_symbols": 1}
SETUPS = 4  # set-up is timed in this many processes; the median is reported
WORKER_TIMEOUT_S = 170
OUT_DIR = ".perfbench"


class BenchError(RuntimeError):
    pass


def passes_for(workload, seconds):
    return max(MIN_PASSES[workload], round(seconds / PASS_SECONDS[workload]))


def _worker(root, *args):
    env = dict(os.environ, **PINNED_ENV)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {exc.timeout} s: {' '.join(args)}") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker failed ({proc.returncode}): {' '.join(args)}\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(times):
    """Highest percentile of ``times`` leaving at least ten values above it
    (the smallest value when there are fewer than eleven):
    (value, percentile, count)."""
    s = sorted(times)
    n = len(s)
    k = max(n - 11, 0)
    return s[k], 100.0 * k / n, n


def _failed(records):
    return sum(1 for r in records if not r["ok"])


def _check_summary(records):
    kinds = {}
    for r in records:
        kinds.setdefault(r["kind"], []).append(r)
    return {
        kind: {
            "n": len(rs),
            "median_s": statistics.median(r["seconds"] for r in rs),
            "worst_frac": max((r["frac"] for r in rs if r["frac"] is not None), default=None),
            "failed": _failed(rs),
            "errors": [r["error"].splitlines()[-1] for r in rs if "error" in r],
        }
        for kind, rs in kinds.items()
    }


def _worst(records):
    zs = [abs(r["z"]) for r in records if r.get("z") is not None]
    fracs = [r["frac"] for r in records if r["frac"] is not None]
    return (max(zs) if zs else 0.0), (max(fracs) if fracs else 0.0)


def _read_file(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def environment(root, seed, versions):
    cpuinfo = _read_file("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if line.startswith("model name")), None)
    cache = lambda index: (_read_file(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size") or "").strip() or None
    head = (_read_file(os.path.join(root, ".git", "HEAD")) or "").strip()
    commit = head or None
    if head.startswith("ref: "):
        commit = (_read_file(os.path.join(root, ".git", head[5:])) or "").strip() or None
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "steinlab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l2_per_core": cache(2),
        "l3": cache(3),
        **versions,
        "blas_threads": PINNED_ENV["OPENBLAS_NUM_THREADS"],
        "STEINLAB_THREADS": PINNED_ENV["STEINLAB_THREADS"],
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(root, workload, seed, passes):
    args = ("--workload", workload, "--seed", str(seed), "--passes", str(passes))
    main = _worker(root, *args)
    setups = [main["setup_s"]] + [_worker(root, *args, "--setup-only")["setup_s"] for _ in range(SETUPS - 1)]
    records = main["records"]
    times = [r["seconds"] for r in records]
    tail_s, pct, n = tail(times)
    failed = _failed(records)
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(main["wall_s"], "s"),
        "check_s_p50": _metric(statistics.median(times), "s"),
        "check_s_tail": _metric(tail_s, "s"),
        "pass_frac": _metric(1.0 - failed / len(records), "frac"),
        "peak_rss_mb": _metric(main["peak_rss_mb"], "MB"),
    }
    detail = {
        "check_s_tail_percentile": pct,
        "checks": n,
        "fail_frac": failed / len(records),
        "setup_s_samples": setups,
    }
    return main, records, failed == 0, metrics, detail


def run_traced(root, workload, seed, passes, spans_path):
    args = ("--workload", workload, "--seed", str(seed), "--passes", str(passes))
    plain = _worker(root, *args)
    traced = _worker(root, *args, "--trace", "--spans", spans_path)
    records = traced["records"]
    same_bits = [(r["kind"], r["values"]) for r in records] == [(r["kind"], r["values"]) for r in plain["records"]]
    worst_z, worst_frac = _worst(records)
    metrics = {name: _metric(v, u) for name, (v, u) in traced["per_layer"].items()}
    metrics.update({name: _metric(v, "count") for name, v in traced["caches"].items()})
    metrics["check.worst_z"] = _metric(worst_z, "SE")
    metrics["check.worst_tol_frac"] = _metric(worst_frac, "frac")
    metrics["trace.overhead_frac"] = _metric(traced["wall_s"] / plain["wall_s"] - 1.0, "frac")
    detail = {
        "traced_wall_s": traced["wall_s"],
        "untraced_wall_s": plain["wall_s"],
        "traced_matches_untraced": same_bits,
        "layer_self_s": traced["layer_self_s"],
        "spans_file": spans_path,
    }
    return traced, records, same_bits and _failed(records) == 0, metrics, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(PASS_SECONDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "steinlab", "__init__.py")):
        print(f"no steinlab sources under {root}/src: run from the root of a checkout", file=sys.stderr)
        return 2

    passes = passes_for(args.workload, args.seconds)
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    stem = os.path.join(root, OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        if args.trace:
            out, records, correct, metrics, detail = run_traced(root, args.workload, args.seed, passes, stem + ".spans.jsonl")
        else:
            out, records, correct, metrics, detail = run_untraced(root, args.workload, args.seed, passes)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    with open(stem + ".checks.json", "w") as fh:
        json.dump(records, fh)
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "passes": passes,
        "environment": environment(root, args.seed, out["versions"]),
        **detail,
        "checks_by_kind": _check_summary(records),
    }
    print(json.dumps(report))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(records),
        "failed": _failed(records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
