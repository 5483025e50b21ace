"""Span tracing of the library from outside it, for the benchmark's traced run.

``instrument(tracer)`` replaces the package's public functions, at every module
attribute they are called through, by wrappers that record one span per call
(name, start, end, parent span, run id, plus a work count) and restores the
originals on exit. Nothing under ``src/`` changes; the untraced runs call the
library untouched.

Spans are kept in memory and written out as JSONL when the benchmark ends.
Worker threads started inside a span (``threads=2`` in Picard and in the
averaging check) attach their spans to the span the main thread has open.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time

import numpy as np

from stefanlab import bounds, conditions, densities, numerics, rng, solver

# (layer, module, function names): every public function the workloads reach
_FUNCTIONS = [
    ("rng", rng, ["normal_block", "uniform_block"]),
    ("numerics", numerics, ["adaptive_simpson", "bisect_nondecreasing"]),
    ("solver", solver, ["simulate_particles", "picard_minimal", "iter_y_chunks"]),
    ("conditions", conditions, ["psi", "psi_grid", "sup_psi", "check_pointwise_condition",
                                "check_moment_condition", "check_averaging_condition",
                                "g_tilde_inverse", "chi_bar"]),
    ("bounds", bounds, ["compute_L", "compute_sqrt_constants", "estimate_beta_slope",
                        "verify_frontier_envelopes", "simulate_drifted_sup",
                        "prob_drifted_sup_below", "estimate_prob_in_G", "estimate_delta0",
                        "early_increment_check", "assemble_bounds_report"]),
]
_DENSITY_METHODS = ["cdf", "cdf_fast", "sample"]
_MODULES = [rng, numerics, densities, solver, conditions, bounds]

# span names that differ from the function name
_SHORT_NAMES = {"bisect_nondecreasing": "bisect"}


class Tracer:
    """In-memory span store; one instance per traced benchmark process."""

    def __init__(self):
        self.spans = []
        self.run_id = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def top_name(self):
        stack = self._stack()
        return stack[-1]["name"] if stack else None

    def open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]["id"]
        else:
            # a worker thread: attach to whatever the main thread has open
            main = self._main_stack
            parent = main[-1]["id"] if main else None
        rec = {"id": next(self._ids), "parent": parent, "name": name, "run": self.run_id,
               "start": time.perf_counter(), "end": None, "n": 0}
        stack.append(rec)
        return rec

    def close(self, rec, keep=True):
        rec["end"] = time.perf_counter()
        self._stack().pop()
        if keep:
            self.spans.append(rec)

    @contextlib.contextmanager
    def run(self, run_id):
        """Root span of one benchmark run; library spans nest under it."""
        self.run_id = run_id
        rec = self.open("run")
        try:
            yield rec
        finally:
            self.close(rec)
            self.run_id = None

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def _plain(tracer, name, fn, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
            if count is not None:
                rec["n"] = count(args, kwargs, out)
            return out
        finally:
            tracer.close(rec)
    return wrapper


def _uniform_block(tracer, name, fn):
    # normal_block draws through uniform_block; those draws are normals, not uniforms
    @functools.wraps(fn)
    def wrapper(seed, kind, block, n):
        if tracer.top_name() == "rng.normal_block":
            return fn(seed, kind, block, n)
        rec = tracer.open(name)
        rec["n"] = int(n)
        try:
            return fn(seed, kind, block, n)
        finally:
            tracer.close(rec)
    return wrapper


def _adaptive_simpson(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(f, *args, **kwargs):
        rec = tracer.open(name)

        def counted(x):
            rec["n"] += 1
            return f(x)
        try:
            return fn(counted, *args, **kwargs)
        finally:
            tracer.close(rec)
    return wrapper


def _iter_y_chunks(tracer, name, fn):
    # a generator: each next() is one span, one chunk of running-max paths
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            rec = tracer.open(name)
            try:
                item = next(it)
            except StopIteration:
                tracer.close(rec, keep=False)
                return
            except BaseException:
                tracer.close(rec)
                raise
            rec["n"] = 1
            tracer.close(rec)
            yield item
    return wrapper


def _alive_draws(args, kwargs, out):
    """Normals that went to alive particles: sum over steps of the alive count
    at the start of the step, read from the returned frontier."""
    frontier = out[0]
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    n = cfg.n_particles
    dead = np.rint(frontier.lam[:-1] * n)
    return int(np.sum(n - dead))


def _wrapper_for(tracer, layer, fname, fn):
    name = f"{layer}.{_SHORT_NAMES.get(fname, fname)}"
    if fname == "uniform_block":
        return _uniform_block(tracer, name, fn)
    if fname == "adaptive_simpson":
        return _adaptive_simpson(tracer, name, fn)
    if fname == "iter_y_chunks":
        return _iter_y_chunks(tracer, name, fn)
    count = {
        "normal_block": lambda a, k, out: int(np.size(out)),
        "simulate_particles": _alive_draws,
        "picard_minimal": lambda a, k, out: int(out.iterations),
        "psi_grid": lambda a, k, out: int(np.size(out)),
    }.get(fname)
    return _plain(tracer, name, fn, count)


def _density_method(tracer, name, fn):
    # called as density.cdf(x) / density.sample(u): the work is the point count
    return _plain(tracer, name, fn, lambda args, kwargs, out: int(np.size(args[1])))


@contextlib.contextmanager
def instrument(tracer):
    """Wrap every traced function at each module attribute bound to it, and
    the density classes' cdf/cdf_fast/sample; restore everything on exit."""
    saved = []
    try:
        for layer, module, names in _FUNCTIONS:
            for fname in names:
                fn = getattr(module, fname)
                wrapper = _wrapper_for(tracer, layer, fname, fn)
                for mod in _MODULES:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            saved.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
        for cls in vars(densities).values():
            if isinstance(cls, type) and issubclass(cls, densities.Density):
                for meth in _DENSITY_METHODS:
                    if meth in vars(cls):
                        fn = vars(cls)[meth]
                        saved.append((cls, meth, fn))
                        setattr(cls, meth, _density_method(tracer, f"densities.{meth}", fn))
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def run_summary(spans):
    """Per-name busy time, self time, call count and work count for the spans
    of one run, and the normals drawn inside simulate_particles."""
    children = {}
    by_id = {}
    for rec in spans:
        by_id[rec["id"]] = rec
        children.setdefault(rec["parent"], []).append(rec)
    stats = {}
    for rec in spans:
        dur = rec["end"] - rec["start"]
        kids = children.get(rec["id"], [])
        covered = _covered([(max(c["start"], rec["start"]), min(c["end"], rec["end"]))
                            for c in kids]) if kids else 0.0
        s = stats.setdefault(rec["name"], {"busy": 0.0, "self": 0.0, "calls": 0, "n": 0})
        s["busy"] += dur
        s["self"] += dur - covered
        s["calls"] += 1
        s["n"] += rec["n"]

    # normals drawn inside simulate_particles: only alive particles use theirs
    sim_draws = 0
    for rec in spans:
        if rec["name"] == "rng.normal_block":
            anc = by_id.get(rec["parent"])
            while anc is not None and anc["name"] != "solver.simulate_particles":
                anc = by_id.get(anc["parent"])
            if anc is not None:
                sim_draws += rec["n"]
    return stats, sim_draws


# (metric, span name, statistic, unit)
LAYER_METRICS = [
    ("rng.normal_block.busy_s", "rng.normal_block", "busy", "s"),
    ("rng.normal_block.draws", "rng.normal_block", "n", "count"),
    ("rng.uniform_block.busy_s", "rng.uniform_block", "busy", "s"),
    ("rng.uniform_block.draws", "rng.uniform_block", "n", "count"),
    ("solver.simulate_particles.self_s", "solver.simulate_particles", "self", "s"),
    ("solver.simulate_particles.busy_s", "solver.simulate_particles", "busy", "s"),
    ("solver.picard_minimal.self_s", "solver.picard_minimal", "self", "s"),
    ("solver.picard_iterations", "solver.picard_minimal", "n", "count"),
    ("solver.iter_y_chunks.busy_s", "solver.iter_y_chunks", "busy", "s"),
    ("solver.iter_y_chunks.chunks", "solver.iter_y_chunks", "n", "count"),
    ("densities.cdf_fast.busy_s", "densities.cdf_fast", "busy", "s"),
    ("densities.cdf_fast.points", "densities.cdf_fast", "n", "count"),
    ("densities.cdf.self_s", "densities.cdf", "self", "s"),
    ("densities.cdf.points", "densities.cdf", "n", "count"),
    ("densities.sample.busy_s", "densities.sample", "busy", "s"),
    ("numerics.adaptive_simpson.calls", "numerics.adaptive_simpson", "calls", "count"),
    ("numerics.adaptive_simpson.busy_s", "numerics.adaptive_simpson", "busy", "s"),
    ("numerics.integrand_evals", "numerics.adaptive_simpson", "n", "count"),
    ("numerics.bisect.calls", "numerics.bisect", "calls", "count"),
    ("conditions.psi_grid.self_s", "conditions.psi_grid", "self", "s"),
    ("conditions.psi_grid.windows", "conditions.psi_grid", "n", "count"),
    ("conditions.check_averaging_condition.self_s", "conditions.check_averaging_condition",
     "self", "s"),
    ("conditions.chi_bar.calls", "conditions.chi_bar", "calls", "count"),
    ("conditions.chi_bar.busy_s", "conditions.chi_bar", "busy", "s"),
    ("bounds.simulate_drifted_sup.busy_s", "bounds.simulate_drifted_sup", "busy", "s"),
    ("bounds.estimate_prob_in_G.self_s", "bounds.estimate_prob_in_G", "self", "s"),
    ("bounds.estimate_delta0.self_s", "bounds.estimate_delta0", "self", "s"),
    ("bounds.estimate_beta_slope.busy_s", "bounds.estimate_beta_slope", "busy", "s"),
    ("bounds.assemble_bounds_report.self_s", "bounds.assemble_bounds_report", "self", "s"),
]


LAYER_UNITS = {metric: unit for metric, _, _, unit in LAYER_METRICS}
LAYER_UNITS.update({"rng.useful_draw_ratio": "ratio", "trace.unspanned_s": "s",
                    "trace.overhead_ratio": "ratio"})


def layer_metrics(spans):
    """Per-layer metric values of one traced run (0 where a layer is not reached)."""
    stats, sim_draws = run_summary([r for r in spans if r["name"] != "run"])
    zero = {"busy": 0.0, "self": 0.0, "calls": 0, "n": 0}
    out = {metric: stats.get(name, zero)[stat] for metric, name, stat, _ in LAYER_METRICS}
    draws = stats.get("rng.normal_block", zero)["n"]
    useful = draws - sim_draws + stats.get("solver.simulate_particles", zero)["n"]
    out["rng.useful_draw_ratio"] = useful / draws if draws else 1.0
    root = next(r for r in spans if r["name"] == "run")
    top = [(r["start"], r["end"]) for r in spans if r["parent"] == root["id"]]
    out["trace.unspanned_s"] = root["end"] - root["start"] - _covered(top)
    return out
