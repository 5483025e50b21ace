"""The benchmark's three fixed workloads, driven through the public library API.

Every workload runs the same three stages on one density:

* ``setup``  builds the density from its spec (timed as ``setup_s``);
* ``solve``  computes the frontier (``simulate_particles`` or ``picard_minimal``);
* ``verify`` runs the library's verification for the workload and evaluates
  the acceptance tolerances on the result.

A run fails when a stage raises or when any named check in ``verify`` is
false. The workload seed reaches the library only as ``SolverConfig.seed``
(and the ``seed`` argument of the bounds estimators, which is the same value).
"""
from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

# library calls go through the module attributes, where the traced run wraps them
from stefanlab import bounds, conditions, solver
from stefanlab import PeriodicOscillatoryDensity, make_piecewise
from stefanlab.solver import FrontierPath, PicardConfig, SolverConfig

#: the acceptance grid: 500 steps on [0, 1/4]
DT = 5e-4
T_HORIZON = 0.25
#: at most this many worker threads in any library call (the benchmark machine's nproc)
THREADS = 2
#: acceptance seed, and the one the stored reference frontier was computed at
ACCEPTANCE_SEED = 2026

BAND_SPEC = ("1/2", "21/20", "1/2", "1/2")
REFERENCE_CSV = Path(__file__).resolve().parent / "reference" / "band_minimal_frontier.csv"


@dataclass(frozen=True)
class Scale:
    """Problem sizes; FULL is the acceptance configuration."""

    band_particles: int
    picard_paths: int
    bounds_paths: int
    sine_particles: int


FULL = Scale(band_particles=100_000, picard_paths=100_000, bounds_paths=20_000,
             sine_particles=20_000)
SMOKE = Scale(band_particles=20_000, picard_paths=10_000, bounds_paths=4_000,
              sine_particles=2_000)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[], object]
    solve: Callable[[object, int, Scale], object]
    verify: Callable[[object, object, int, Scale], dict]
    frontier: Callable[[object], FrontierPath]
    #: samples of the set-up (verification) stage per run; the metric is the median
    #: of all samples. The band density builds in under a millisecond, so a
    #: single sample per run would be mostly noise.
    setup_repeats: int = 1
    verify_repeats: int = 1


def band_density():
    return make_piecewise(*BAND_SPEC)


@functools.cache
def load_reference():
    """The minimal frontier stored with the benchmark (see make_reference.py)."""
    return FrontierPath.read_csv(REFERENCE_CSV)


def picard_config(seed, scale):
    """The acceptance Picard configuration (criterion 3), used by the
    picard_bounds workload and for the stored reference frontier."""
    return SolverConfig(n_particles=10, dt=DT, T=T_HORIZON, seed=seed, threads=THREADS,
                        picard=PicardConfig(n_paths=scale.picard_paths, max_iters=50, tol=1e-3))


def fingerprint(frontier: FrontierPath):
    """Hash of the frontier bytes; equal hashes mean bit-identical frontiers."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(frontier.t, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(frontier.lam, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def _se(lam, n):
    return np.sqrt(np.clip(lam * (1.0 - lam), 0.0, None) / n)


# ---------------------------------------------------------------------------
# particle_band: the acceptance particle run (criteria 4 and 7)
# ---------------------------------------------------------------------------


def _solve_particle_band(d, seed, scale):
    cfg = SolverConfig(n_particles=scale.band_particles, dt=DT, T=T_HORIZON, seed=seed,
                       threads=THREADS)
    frontier, _ = solver.simulate_particles(d, cfg)
    return frontier


def _verify_particle_band(d, frontier, seed, scale):
    reference = load_reference()
    consts = bounds.compute_sqrt_constants(d, beta_slope=0.5)  # c1, c2 need no slope
    t, lam = frontier.t, frontier.lam
    pos = t > 0.0
    se = _se(lam[pos], scale.band_particles)
    sq = np.sqrt(t[pos])
    lower = lam[pos] - (consts.c1 * sq - 3.0 * se)
    upper = (consts.c2 * sq + 3.0 * se) - lam[pos]
    same_grid = reference.t.shape == t.shape and np.allclose(reference.t, t, rtol=0, atol=1e-12)
    gap = float(np.max(np.abs(lam - reference.lam))) if same_grid else math.inf
    return {
        "sqrt_envelope_3se": bool(np.all(lower >= 0.0) and np.all(upper >= 0.0)),
        "reference_gap_lt_0.02": gap < 0.02,
    }


# ---------------------------------------------------------------------------
# picard_bounds: criteria 3, 9 and 10 chained on the minimal frontier
# ---------------------------------------------------------------------------


def _solve_picard_bounds(d, seed, scale):
    return solver.picard_minimal(d, picard_config(seed, scale))


def _verify_picard_bounds(d, res, seed, scale):
    rep = bounds.assemble_bounds_report(d, res.frontier, n_mc=scale.picard_paths, seed=seed,
                                        n_paths=scale.bounds_paths)
    pg = rep.prob_g
    occupation = all(lhs >= rhs - 3.0 * (sl + sr)
                     for lhs, rhs, sl, sr in zip(pg.lhs, pg.rhs, pg.lhs_se, pg.rhs_se))
    return {
        "picard_converged_le_50": bool(res.converged and res.iterations <= 50),
        "occupation_3se": bool(occupation),
        "delta0_3se_lt_1": rep.delta0_hat + 3.0 * rep.delta0_se < 1.0,
        "L_is_47_50": bounds.compute_L(d).L == Fraction(47, 50),
    }


# ---------------------------------------------------------------------------
# sine_bridge: periodic density, averaging check and criterion 8
# ---------------------------------------------------------------------------


def _solve_sine_bridge(d, seed, scale):
    cfg = SolverConfig(n_particles=scale.sine_particles, dt=DT, T=T_HORIZON, seed=seed,
                       bridge_correction=True, threads=THREADS)
    frontier, _ = solver.simulate_particles(d, cfg)
    return frontier


def _verify_sine_bridge(d, frontier, seed, scale):
    rep = conditions.check_averaging_condition(d, lambda0_candidate=2.0, threads=THREADS)
    margin = -math.inf
    if rep.g_envelope is not None:
        se = _se(frontier.lam[1:], scale.sine_particles)
        margin = min(conditions.chi_bar(rep.g_envelope, t) + s - lam
                     for t, lam, s in zip(frontier.t[1:], frontier.lam[1:], 3.0 * se))
    us = np.linspace(0.001, 0.999, 1000)
    xs = np.asarray(d.sample(us))
    roundtrip = float(np.max(np.abs(np.asarray(d.cdf(xs)) - us)))
    return {
        "holds_1_7": bool(rep.holds_1_7),
        "chi_bar_margin_ge_0": margin >= 0.0,
        "normalized_1e-8": abs(d.total_mass - 1.0) < 1e-8,
        "sample_roundtrip_5e-6": bool(np.all(np.diff(xs) >= -1e-12)) and roundtrip < 5e-6,
    }


WORKLOADS = {
    "particle_band": Workload(
        name="particle_band",
        setup=band_density,
        solve=_solve_particle_band,
        verify=_verify_particle_band,
        frontier=lambda fr: fr,
        setup_repeats=25,
        verify_repeats=25,
    ),
    "picard_bounds": Workload(
        name="picard_bounds",
        setup=band_density,
        solve=_solve_picard_bounds,
        verify=_verify_picard_bounds,
        frontier=lambda res: res.frontier,
        setup_repeats=25,
    ),
    "sine_bridge": Workload(
        name="sine_bridge",
        setup=lambda: PeriodicOscillatoryDensity(1.0, "sin"),
        solve=_solve_sine_bridge,
        verify=_verify_sine_bridge,
        frontier=lambda fr: fr,
    ),
}
