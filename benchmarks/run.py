"""stefanlab benchmark: time to a verified frontier on three fixed workloads.

Run from the repository root:

    python3 benchmarks/run.py --workload particle_band --seed 2026 --seconds 30 --trace 0

One process runs one workload in a closed loop: runs start one at a time, each
as soon as the last has finished, until ``--seconds`` have passed (at least
one run). A run goes from the density spec to a checked result; it fails when
it raises or when a correctness check fails. Timings are medians over the
runs of the process.

``--trace 0`` prints the end-to-end metrics (total_s, setup_s, solve_s,
verify_s, peak_rss_mb). ``--trace 1`` alternates untraced and traced runs and
prints the per-layer metrics of the traced ones, the tracing overhead, and
writes every span to ``benchmarks/out/`` as JSONL. The last line of standard
output is always one JSON object: correct, attempted, failed, metrics.
Run metadata (machine, versions, commit, seed, src line count, result
fingerprints) is printed on the line before it and written to
``benchmarks/out/``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOAD_NAMES = ("particle_band", "picard_bounds", "sine_bridge")
END_TO_END_UNITS = {"total_s": "s", "setup_s": "s", "solve_s": "s", "verify_s": "s",
                    "peak_rss_mb": "MB"}
#: no run starts once this much wall time has gone, so a process ends well within 180 s
WALL_CAP_S = 120.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny problem sizes, for the benchmark's own tests")
    return ap.parse_args(argv)


def git_commit(root):
    """HEAD's commit id read from .git without running git; 'unknown' outside a checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def src_line_count():
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "stefanlab").glob("*.py")))


def _times(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def run_once(wl, seed, scale):
    """One run of a workload; returns its stage timings, checks and fingerprint."""
    from workloads import fingerprint

    t0 = time.perf_counter()
    d = wl.setup()
    t1 = time.perf_counter()
    result = wl.solve(d, seed, scale)
    t2 = time.perf_counter()
    checks = {k: bool(v) for k, v in wl.verify(d, result, seed, scale).items()}
    t3 = time.perf_counter()
    # the band density builds in under a millisecond: extra samples of the cheap
    # stages, outside total_s, make their medians steady
    setup = [t1 - t0] + _times(wl.setup, wl.setup_repeats - 1)
    verify = [t3 - t2] + _times(lambda: wl.verify(d, result, seed, scale),
                                wl.verify_repeats - 1)
    frontier = wl.frontier(result)
    return {
        "total_s": t3 - t0,
        "setup_s": setup,
        "solve_s": t2 - t1,
        "verify_s": verify,
        "checks": checks,
        "ok": all(checks.values()),
        "fingerprint": fingerprint(frontier),
        "picard_iterations": getattr(result, "iterations", None),
        "lambda_T": float(frontier.lam[-1]),
    }


def measure(wl, seed, seconds, scale, tracer=None):
    """Closed loop of runs for ``seconds``. With a tracer, runs alternate
    untraced / traced (starting untraced) and at least one of each is made."""
    from tracing import instrument, layer_metrics

    runs = []
    attempted = failed = 0
    start = time.perf_counter()
    longest = 0.0
    min_runs = 2 if tracer is not None else 1
    while attempted < min_runs or time.perf_counter() - start < seconds:
        if time.perf_counter() - start + longest > WALL_CAP_S and attempted >= min_runs:
            break
        traced = tracer is not None and attempted % 2 == 1
        attempted += 1
        gc.collect()  # every run starts from the same heap state
        t0 = time.perf_counter()
        try:
            if traced:
                with instrument(tracer), tracer.run(attempted):
                    rec = run_once(wl, seed, scale)
                rec["layers"] = layer_metrics([s for s in tracer.spans if s["run"] == attempted])
            else:
                rec = run_once(wl, seed, scale)
        except Exception:
            failed += 1
            traceback.print_exc(file=sys.stderr)
            continue
        finally:
            longest = max(longest, time.perf_counter() - t0)
        rec["traced"] = traced
        # the peak so far; on the first run, that of a fresh process making one run
        rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not rec["ok"]:
            failed += 1
            bad = [k for k, v in rec["checks"].items() if not v]
            print(f"run {attempted}: failed checks {bad}", file=sys.stderr)
        runs.append(rec)
    return runs, attempted, failed


def _median(values):
    return statistics.median(values)


def end_to_end_metrics(runs):
    """Medians over the untraced runs; set-up and verification samples of all
    runs are pooled. Peak RSS is the one read after the first run."""
    plain = [r for r in runs if not r["traced"]]
    return {
        "total_s": _median([r["total_s"] for r in plain]),
        "setup_s": _median([t for r in plain for t in r["setup_s"]]),
        "solve_s": _median([r["solve_s"] for r in plain]),
        "verify_s": _median([t for r in plain for t in r["verify_s"]]),
        "peak_rss_mb": runs[0]["peak_rss_mb"],
    }


def per_layer_metrics(runs):
    """Medians over the traced runs, and the traced over the untraced total_s, minus 1."""
    traced = [r for r in runs if r["traced"]]
    plain = [r for r in runs if not r["traced"]]
    out = {name: _median([r["layers"][name] for r in traced]) for name in traced[0]["layers"]}
    out["trace.overhead_ratio"] = (_median([r["total_s"] for r in traced])
                                   / _median([r["total_s"] for r in plain]) - 1.0)
    return out


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "stefanlab" / "__init__.py").is_file():
        print(f"error: no stefanlab package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")

    import numpy
    import scipy

    from tracing import LAYER_UNITS, Tracer
    from workloads import FULL, SMOKE, THREADS, WORKLOADS, load_reference

    wl = WORKLOADS[args.workload]
    scale = SMOKE if args.smoke else FULL
    load_reference()  # read once, before any timing
    tracer = Tracer() if args.trace else None
    runs, attempted, failed = measure(wl, args.seed, args.seconds, scale, tracer)
    n_plain = sum(not r["traced"] for r in runs)
    if n_plain == 0 or (args.trace and n_plain == len(runs)):
        print("error: no run completed; nothing to report", file=sys.stderr)
        return 1

    if args.trace:
        metrics = per_layer_metrics(runs)
        units = LAYER_UNITS
    else:
        metrics = end_to_end_metrics(runs)
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value!r} {units[name]}")
    print(f"{args.workload} error_rate = {failed / attempted!r} "
          f"({failed} failed of {attempted} attempted; {n_plain} untraced runs)")

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": "smoke" if args.smoke else "full",
        "nproc": os.cpu_count(),
        "threads": THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(ROOT),
        "src_lines": src_line_count(),
        "loop": "closed, one run at a time",
        "error_rate": failed / attempted,
        "fingerprints": sorted({r["fingerprint"] for r in runs}),
        "picard_iterations": sorted({r["picard_iterations"] for r in runs
                                     if r["picard_iterations"] is not None}),
        "lambda_T": sorted({r["lambda_T"] for r in runs}),
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    stem = (f"{args.workload}-seed{args.seed}" + ("-smoke" if args.smoke else "")
            + ("-trace" if args.trace else ""))
    record = dict(meta, runs=runs)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if tracer is not None:
        tracer.write_jsonl(OUT_DIR / f"{stem}-spans.jsonl")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
