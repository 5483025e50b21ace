"""Command-line interface: density construction, condition checks, simulation,
bounds verification, and report emission.

Exit codes: 0 success; 1 usage or configuration error (one-line diagnostic
naming the offending field or path) or a run too large to allocate; 2 on a
failed verification: check's margin_1_7 <= 0 or bounds' worst_margin < 0.
"""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import assemble_bounds_report, sqrt_envelopes
from .conditions import check_averaging_condition
from .densities import (DensityError, _check_int, make_density, read_numeric_rows,
                        write_numeric_rows)
from .solver import (SOLVER_FIELDS, FrontierPath, SolverConfig, SolverConfigError,
                     physical_jump_scan, picard_minimal, result_hash, simulate_particles)


class CliError(Exception):
    """Usage/config error carrying a one-line diagnostic."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _default_threads():
    env = os.environ.get("STEFAN_THREADS")
    if env is not None:
        try:
            threads = int(env)
        except ValueError:
            threads = env
        _check_int(CliError, "STEFAN_THREADS", threads, 1)
        return threads
    return os.cpu_count() or 1


def _load_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON in {path}: {exc.msg} (line {exc.lineno})")


def _read_inputs(args):
    """(config fields, density), each input file read once: the config's
    "density" field is popped from its fields, and --density overrides it."""
    raw = {}
    if getattr(args, "config", None):
        raw = _load_json(args.config)
        if not isinstance(raw, dict):
            raise CliError(f"config {args.config} must be a JSON object")
    spec = raw.pop("density", None)
    if args.density:
        spec = _load_json(args.density)
    if spec is None:
        raise CliError("no density given: pass --density FILE or a 'density' config field")
    try:
        return raw, make_density(spec)
    except DensityError as exc:
        raise CliError(f"bad density spec: {exc}")


def _build_config(args, raw, params=()):
    """SolverConfig from the config fields raw, then the (field name, value)
    params, then the command-line flags named after config fields."""
    raw = {**raw, **dict(params)}
    for f in dataclasses.fields(SolverConfig):
        if getattr(args, f.name, None) is not None:
            raw[f.name] = getattr(args, f.name)
    raw.setdefault("threads", _default_threads())
    try:
        return SolverConfig.from_dict(raw)
    except SolverConfigError as exc:
        raise CliError(f"bad config: {exc}")


def _check_outputs(args, *paths, made=None):
    """Exit 1 before any work when an output file could not be written at the
    end: its directory must exist or be ``made`` (the directory the command
    makes once its inputs are read), the path must not be a directory, no two
    outputs may name the same file, and no output may name an input file
    (--config, --density, --frontier)."""
    inputs = {Path(p).resolve(): p for p in (getattr(args, name, None)
                                             for name in ("config", "density", "frontier")) if p}
    made = Path(made).resolve() if made else None
    seen = {}
    for path in map(Path, filter(None, paths)):
        if path.is_dir():
            raise CliError(f"{path}: Is a directory")
        if not path.parent.is_dir() and path.parent.resolve() != made:
            raise CliError(f"{path}: No such directory: {path.parent}")
        resolved = path.resolve()
        if resolved in inputs:
            raise CliError(f"{path}: names the input file {inputs[resolved]}")
        first = seen.setdefault(resolved, path)
        if first is not path:
            raise CliError(f"{path}: names the same file as {first}")


def _emit(payload, out_path):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _solve(density, cfg, solver):
    """(frontier, run, extra) from the particle scheme or Picard: run holds the
    result's hash, the seed and the run's timings, extra the solver's own
    manifest fields. Warns on stderr when Picard did not converge, or when it
    stopped with its estimated distance to the limit above its tolerance."""
    t0 = time.perf_counter()
    if solver == "particle":
        frontier, _ = simulate_particles(density, cfg)
        timings = {"simulate_s": time.perf_counter() - t0}
        extra = {"jumps": [[t, dl] for t, dl in frontier.jumps(cfg.n_particles)]}
    else:
        res = picard_minimal(density, cfg)
        timings = {"picard_s": time.perf_counter() - t0}
        if not res.converged:
            sys.stderr.write(f"picard did not converge in {res.iterations} iterations "
                             f"(last sup-change {res.history[-1]:.3e})\n")
        elif res.tail_estimate is not None and res.tail_estimate > cfg.picard.tol:
            sys.stderr.write(f"picard stopped at sup-change {res.history[-1]:.3e}, but the "
                             f"estimated distance to the limit is {res.tail_estimate:.3e} "
                             f"(tol {cfg.picard.tol:g})\n")
        frontier, extra = res.frontier, {"iterations": res.iterations,
                                         "converged": res.converged, "sup_changes": res.history,
                                         "tail_estimate": res.tail_estimate}
    return frontier, {"config_hash": result_hash(density, cfg, solver), "seed": cfg.seed,
                      "timings": timings}, extra


def _cmd_solve(args):
    out = args.out or "frontier.csv"
    manifest = args.manifest or f"{out}.manifest.json"
    _check_outputs(args, out, manifest)
    raw, density = _read_inputs(args)
    cfg = _build_config(args, raw)
    frontier, run, extra = _solve(density, cfg, args.solver)
    frontier.write_csv(out)
    _emit({**extra, **run, "tool_version": __version__, "outputs": [str(out)],
           "config": cfg.to_dict(), "density": density.spec_dict(), "solver": args.solver},
          manifest)
    return 0


def _cmd_check(args):
    _check_outputs(args, args.out)
    _, density = _read_inputs(args)
    if not 0.0 < args.lambda_min < args.lambda0 < float("inf"):
        raise CliError(f"need 0 < --lambda-min < --lambda0 < inf, got --lambda-min "
                       f"{args.lambda_min} and --lambda0 {args.lambda0}")
    report = check_averaging_condition(
        density, lambda0_candidate=args.lambda0,
        lambda_grid=np.geomspace(args.lambda_min, args.lambda0, args.n_lambda),
        mu_grid=np.linspace(0.0, 1.0, args.n_mu),
        threads=_default_threads() if args.threads is None else args.threads,
    )
    _emit(report.to_json_dict(), args.out)
    return 0 if report.margin_1_7 > 0.0 else 2


def _cmd_bounds(args):
    margins = Path(args.emit_csv) / "bounds_margins.csv" if args.emit_csv else None
    _check_outputs(args, args.out, margins, made=args.emit_csv)
    raw, density = _read_inputs(args)
    cfg = _build_config(args, raw)
    if getattr(density, "family", "") != "piecewise":
        raise CliError("bounds requires a piecewise density (field 'family')")
    frontier = FrontierPath.read_csv(args.frontier) if args.frontier else None
    if args.emit_csv:  # made once every input is read, before anything is solved
        Path(args.emit_csv).mkdir(parents=True, exist_ok=True)
    if frontier is None:
        frontier = _solve(density, cfg, args.solver)[0]
    n_mc = cfg.n_particles if args.solver == "particle" else cfg.picard.n_paths

    g = None
    if args.fit_envelope:
        rep = check_averaging_condition(density, lambda0_candidate=args.envelope_lambda0,
                                        threads=cfg.threads)
        if rep.holds_1_7:
            g = rep.g_envelope
    report = assemble_bounds_report(density, frontier, n_mc=n_mc, g=g)
    _emit(report.to_json_dict(), args.out)
    if args.emit_csv:
        t, lam, lower, upper = sqrt_envelopes(frontier, report.c1, report.c2)
        write_numeric_rows(margins,
                           ("t", "lambda", "c1_sqrt_t", "c2_sqrt_t", "lower_margin",
                            "upper_margin"),
                           zip(t, lam, lower, upper, lam - lower, upper - lam))
    return 0 if report.worst_margin >= 0.0 else 2


def _cmd_jump(args):
    values = [v for _, nums in read_numeric_rows(args.positions, r"[,\s;]+") for v in nums]
    if not values:
        raise CliError(f"no numeric positions found in {args.positions}")
    n = args.n if args.n is not None else len(values)
    if n < len(values):
        raise CliError(f"--n={n} smaller than the {len(values)} positions given")
    sys.stdout.write(f"{physical_jump_scan(values, n)!r}\n")
    return 0


def _parse_sweep_value(tok):
    try:
        return json.loads(tok)
    except json.JSONDecodeError:
        return tok


def _cmd_sweep(args):
    if not args.param:
        raise CliError("sweep needs at least one --param name=v1,v2,...")
    raw, density = _read_inputs(args)
    names, value_lists = [], []
    for spec in args.param:
        if "=" not in spec:
            raise CliError(f"bad --param {spec!r}; expected name=v1,v2,...")
        name, _, vals = spec.partition("=")
        field = name.split(".")[0]
        if field in SolverConfig.__dataclass_fields__ and field not in SOLVER_FIELDS["particle"]:
            raise CliError(f"--param {name}: the particle solver does not read {field}, "
                           "so every cell would repeat one run")
        values = [_parse_sweep_value(v) for v in vals.split(",") if v]
        if not values:
            raise CliError(f"--param {name}: no values; expected name=v1,v2,...")
        if name in names:
            raise CliError(f"--param {name}: given twice; list all its values in one --param")
        names.append(name)
        value_lists.append(values)
    # every cell's config is checked before anything is simulated or written
    combos = list(itertools.product(*value_lists))
    cfgs = [_build_config(args, raw, zip(names, combo)) for combo in combos]
    outdir = Path(args.out_dir)
    cells = [outdir / f"cell_{i:03d}.csv" for i in range(len(combos))]
    _check_outputs(args, outdir / "index.json", *cells, made=outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    index = []
    for i, (combo, cfg, cell_csv) in enumerate(zip(combos, cfgs, cells)):
        frontier, run, _ = _solve(density, cfg, "particle")
        frontier.write_csv(cell_csv)
        index.append({"cell": i, "params": dict(zip(names, combo)), "csv": cell_csv.name,
                      **run, "lambda_T": float(frontier.lam[-1])})
    _emit({"tool_version": __version__, "density": density.spec_dict(), "cells": index},
          outdir / "index.json")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sub, config=True):
    if config:
        sub.add_argument("--config", help="solver config JSON")
        sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--density", help="density spec JSON (overrides the config's)")
    sub.add_argument("--threads", type=int, default=None,
                     help="worker threads (default: STEFAN_THREADS or hardware)")


def build_parser():
    parser = _Parser(prog="stefanlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"stefanlab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="cascade-resolving particle solver")
    _add_common(sim)
    sim.add_argument("--n-particles", type=int, dest="n_particles")
    sim.add_argument("--dt", type=float)
    sim.add_argument("--T", type=float)
    sim.add_argument("--bridge", action=argparse.BooleanOptionalAction, default=None,
                     dest="bridge_correction", help="within-step barrier-crossing correction")
    sim.add_argument("--out", help="frontier CSV path (default frontier.csv)")
    sim.add_argument("--manifest", help="run manifest path")
    sim.set_defaults(fn=_cmd_solve, solver="particle")

    pic = subs.add_parser("picard", help="minimal-solution fixed-point iteration")
    _add_common(pic)
    pic.add_argument("--out", help="frontier CSV path (default frontier.csv)")
    pic.add_argument("--manifest", help="run manifest path")
    pic.set_defaults(fn=_cmd_solve, solver="picard")

    chk = subs.add_parser("check", help="admission-condition report (exit 2 iff margin_1_7 <= 0)")
    _add_common(chk, config=False)
    chk.add_argument("--lambda0", type=float, default=0.01)
    chk.add_argument("--lambda-min", type=float, default=1e-6, dest="lambda_min")
    chk.add_argument("--n-lambda", type=int, default=200, dest="n_lambda")
    chk.add_argument("--n-mu", type=int, default=101, dest="n_mu")
    chk.add_argument("--out", help="report JSON path (default stdout)")
    chk.set_defaults(fn=_cmd_check)

    bnd = subs.add_parser("bounds", help="bounds report (exit 2 iff worst_margin < 0; "
                                         "threshold_margin and threshold_pass decide nothing)")
    _add_common(bnd)
    bnd.add_argument("--frontier", help="frontier CSV to verify (else one is simulated)")
    bnd.add_argument("--solver", choices=("particle", "picard"), default="particle")
    bnd.add_argument("--fit-envelope", action="store_true",
                     help="fit the averaging envelope and include its margin")
    bnd.add_argument("--envelope-lambda0", type=float, default=2.0)
    bnd.add_argument("--emit-csv", help="directory for per-t margin tables")
    bnd.add_argument("--out", help="report JSON path (default stdout)")
    bnd.set_defaults(fn=_cmd_bounds)

    jmp = subs.add_parser("jump", help="one-shot cascade on a CSV of positions")
    jmp.add_argument("--positions", required=True)
    jmp.add_argument("--n", type=int, default=None, help="ensemble size (default: count)")
    jmp.set_defaults(fn=_cmd_jump)

    swp = subs.add_parser("sweep", help="repeat simulate over a parameter grid")
    _add_common(swp)
    swp.add_argument("--param", action="append", default=[],
                     help="name=v1,v2,... over a particle-solver config field, "
                          "e.g. n_particles=1000,2000")
    swp.add_argument("--out-dir", required=True, dest="out_dir")
    swp.set_defaults(fn=_cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (CliError, DensityError, SolverConfigError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:  # a path that cannot be read or written
        sys.stderr.write(f"error: {exc.filename}: {exc.strerror}\n")
        return 1
    except MemoryError as exc:  # a grid or path store too large to allocate
        sys.stderr.write(f"error: out of memory: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
