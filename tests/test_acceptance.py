"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The heavy runs are shared: the minimal-solution iteration (criterion 3) feeds
criteria 4, 9 and 10; the particle run (criterion 4) feeds criterion 7.
Stated runtime budgets are asserted alongside the numerical tolerances.
"""
import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

from _oracles import bruteforce_sup_ratio, physical_jump_bruteforce
from stefanlab import make_piecewise, uniform_density
from stefanlab.bounds import (
    compute_L,
    compute_sqrt_constants,
    estimate_delta0,
    estimate_prob_in_G,
    prob_drifted_sup_below,
    simulate_drifted_sup,
)
from stefanlab.conditions import (
    check_averaging_condition,
    chi_bar,
    psi,
    psi_grid,
    sup_psi,
)
from stefanlab.solver import (
    PicardConfig,
    SolverConfig,
    physical_jump_scan,
    picard_minimal,
    simulate_particles,
)

SEED = 2026
T_HORIZON = 0.25
N_STEPS = 500
DT = T_HORIZON / N_STEPS
N_PARTICLES = 100_000
M_PATHS = 100_000


def _line(num, name, ok, detail=""):
    print(f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def picard_run(pw_std):
    cfg = SolverConfig(n_particles=10, dt=DT, T=T_HORIZON, seed=SEED,
                       picard=PicardConfig(n_paths=M_PATHS, max_iters=50, tol=1e-3))
    t0 = time.perf_counter()
    res = picard_minimal(pw_std, cfg)
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def particle_run(pw_std):
    # plain scheme (no bridge correction): criterion 4 compares two
    # endpoint-monitored estimators, whose O(sqrt(dt)) monitoring bias cancels
    cfg = SolverConfig(n_particles=N_PARTICLES, dt=DT, T=T_HORIZON, seed=SEED)
    t0 = time.perf_counter()
    frontier, _ = simulate_particles(pw_std, cfg)
    return frontier, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sine_fit(sine_density):
    report = check_averaging_condition(sine_density, lambda0_candidate=2.0)
    return report


def test_criterion_01_cascade_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        m = int(rng.integers(2, 65))
        vals = rng.uniform(-0.2, 1.2, size=m)
        if physical_jump_scan(vals, m) != physical_jump_bruteforce(vals, m):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _line(1, "cascade oracle equivalence", mismatches == 0 and elapsed < 5.0,
          f"mismatches={mismatches}/1000, {elapsed:.2f}s of 5s")


def test_criterion_02_full_cascade_analytics():
    t0 = time.perf_counter()
    cfg = SolverConfig(n_particles=10_000, dt=0.001, T=0.002, seed=SEED)
    lam0_half = simulate_particles(uniform_density(0.0, 0.5), cfg)[0].lam[0]
    lam0_two = simulate_particles(uniform_density(0.0, 2.0), cfg)[0].lam[0]
    elapsed = time.perf_counter() - t0
    _line(2, "full-cascade analytics",
          lam0_half == 1.0 and lam0_two == 0.0 and elapsed < 1.0,
          f"uniform[0,1/2] -> {lam0_half}, uniform[0,2] -> {lam0_two}, {elapsed:.2f}s of 1s")


def test_criterion_03_picard_monotone_convergence(picard_run):
    res, elapsed = picard_run
    monotone = True
    prev = np.zeros_like(res.frontier.lam)
    for it in res.iterates:
        if not np.all(it >= prev):
            monotone = False
            break
        prev = it
    ok = monotone and res.converged and res.iterations <= 50 and elapsed < 120.0
    _line(3, "minimal-solution iteration",
          ok, f"monotone={monotone}, converged in {res.iterations} iters "
              f"(last sup-change {res.history[-1]:.2e}), {elapsed:.1f}s of 120s")


def test_criterion_04_cross_solver_agreement(picard_run, particle_run):
    res, t_pic = picard_run
    frontier, t_par = particle_run
    gap = float(np.max(np.abs(frontier.lam - res.frontier.lam)))
    ok = gap < 0.02 and t_par + t_pic < 300.0
    _line(4, "cross-solver agreement", ok,
          f"sup gap {gap:.4f} of 0.02, {t_par + t_pic:.1f}s of 300s")


def test_criterion_05_averaging_condition_examples(pw_std, sine_density):
    t0 = time.perf_counter()
    lams = np.geomspace(1e-6, 1e-2, 48)
    worst = max(sup_psi(sine_density, lam, xtol=1e-8)[0] for lam in lams)
    sine_ok = worst < 0.75 + 1e-6
    exact_ok = all(psi(pw_std, pw_std.odd_endpoint(n + 1), F(1)) == F(21, 20)
                   for n in range(1, 11))
    elapsed = time.perf_counter() - t0
    _line(5, "averaging condition on the examples",
          sine_ok and exact_ok and elapsed < 30.0,
          f"sine sup psi {worst:.5f} < 3/4+1e-6; band windows hit 21/20 exactly; "
          f"{elapsed:.1f}s of 30s")


def test_criterion_06_slope_bound(pw_std):
    t0 = time.perf_counter()
    sb = compute_L(pw_std)
    v = bruteforce_sup_ratio(pw_std, n_y=1000, n_h=1000)
    L = float(sb.L)
    grid_ok = (L - 0.01) <= v <= (L + 1e-9)
    seq_ok = True
    for n in range(1, 11):
        lo = pw_std.even_endpoint(n + 1)
        hi = sb.rho * pw_std.odd_endpoint(n + 1)
        for y in (lo, (lo + hi) / 2, hi):
            Fy = pw_std.cdf(y)
            quots = [(pw_std.cdf(pw_std.even_endpoint(k)) - Fy)
                     / (pw_std.even_endpoint(k) - y) for k in range(n, 0, -1)]
            if not all(b <= a for a, b in zip(quots, quots[1:])):
                seq_ok = False
    elapsed = time.perf_counter() - t0
    _line(6, "good-set slope bound", grid_ok and seq_ok and sb.L == F(47, 50)
          and elapsed < 30.0,
          f"brute force {v:.6f} in [L-0.01, L+1e-9] with L=47/50; "
          f"band quotients nondecreasing exactly; {elapsed:.1f}s of 30s")


def test_criterion_07_square_root_envelope(pw_std, particle_run):
    frontier, _ = particle_run
    consts = compute_sqrt_constants(pw_std, beta_slope=0.5)  # c1, c2 need no slope
    t = frontier.t
    lam = frontier.lam
    pos = t > 0.0
    se = np.sqrt(np.clip(lam[pos] * (1.0 - lam[pos]), 0.0, None) / N_PARTICLES)
    sq = np.sqrt(t[pos])
    lower = lam[pos] - (consts.c1 * sq - 3.0 * se)
    upper = (consts.c2 * sq + 3.0 * se) - lam[pos]
    ok = bool(np.all(lower >= 0.0) and np.all(upper >= 0.0))
    _line(7, "square-root envelope", ok,
          f"c1={consts.c1:.5f}, c2={consts.c2:.4f}; worst lower slack "
          f"{float(np.min(lower)):.5f}, worst upper slack {float(np.min(upper)):.4f}")


def test_criterion_08_early_time_envelope(sine_density, sine_fit):
    t0 = time.perf_counter()
    rep = sine_fit
    assert rep.holds_1_7
    cfg = SolverConfig(n_particles=20_000, dt=DT, T=T_HORIZON, seed=SEED)
    frontier, _ = simulate_particles(sine_density, cfg)
    g = rep.g_envelope
    ok = True
    worst = math.inf
    for t, lam in zip(frontier.t[1:], frontier.lam[1:]):
        se = math.sqrt(max(lam * (1.0 - lam), 0.0) / cfg.n_particles)
        margin = chi_bar(g, t) + 3.0 * se - lam
        worst = min(worst, margin)
        if margin < 0.0:
            ok = False
    elapsed = time.perf_counter() - t0
    _line(8, "early-time averaging envelope", ok and elapsed < 120.0,
          f"min (chi_bar + 3se - Lambda) = {worst:.4f} on (0, {T_HORIZON}], "
          f"{elapsed:.1f}s of 120s")


def test_criterion_09_good_set_occupation(pw_std, picard_run):
    res, _ = picard_run
    t0 = time.perf_counter()
    consts = compute_sqrt_constants(pw_std, beta_slope=0.8)
    rep = estimate_prob_in_G(res.frontier, pw_std, consts, n_paths=20_000, seed=SEED)
    ok = True
    for lhs, rhs, sl, sr in zip(rep.lhs, rep.rhs, rep.lhs_se, rep.rhs_se):
        if lhs < rhs - 3.0 * (sl + sr):
            ok = False
    u = simulate_drifted_sup(consts.c3, n_paths=4000, n_steps=500, seed=SEED)
    degenerate_ok = prob_drifted_sup_below(u, 0.0) == 0.0
    elapsed = time.perf_counter() - t0
    _line(9, "good-set occupation bound",
          ok and degenerate_ok and len(rep.t_values) == 10 and elapsed < 120.0,
          f"min(lhs - rhs) = {rep.probG_margin:.4f} over 10 t; degenerate rhs = 0; "
          f"threshold 5/11 pass={rep.threshold_pass}; {elapsed:.1f}s of 120s")


def test_criterion_10_contraction_diagnostic(pw_std, picard_run):
    res, _ = picard_run
    t0 = time.perf_counter()
    u2 = uniform_density(0.0, 2.0)
    cfg = SolverConfig(n_particles=10, dt=0.0005, T=0.1, seed=SEED,
                       picard=PicardConfig(n_paths=20_000, max_iters=30, tol=1e-4))
    fr_u = picard_minimal(u2, cfg).frontier
    rep_u = estimate_delta0(fr_u, u2, n_paths=20_000, seed=SEED)
    uniform_ok = rep_u.delta0_hat + 3.0 * rep_u.se_at_max <= 0.5 + 0.01

    rep_pw = estimate_delta0(res.frontier, pw_std, n_paths=20_000, seed=SEED)
    pw_ok = rep_pw.delta0_hat + 3.0 * rep_pw.se_at_max < 1.0
    elapsed = time.perf_counter() - t0
    _line(10, "contraction diagnostic", uniform_ok and pw_ok and elapsed < 180.0,
          f"uniform[0,2] delta0={rep_u.delta0_hat:.4f}+3se<=0.51; "
          f"band density delta0={rep_pw.delta0_hat:.4f}+3se<1; {elapsed:.1f}s of 180s")


def test_criterion_11_thread_determinism(pw_std, sine_density):
    # same operations as criteria 3-10 at reduced scale, threads 1 vs 8;
    # determinism is scale-free by construction (fixed chunks, ordered sums)
    t0 = time.perf_counter()
    checks = []

    def run_all(threads):
        cfg = SolverConfig(n_particles=2000, dt=0.001, T=0.05, seed=SEED,
                           threads=threads, bridge_correction=True,
                           picard=PicardConfig(n_paths=20_000, max_iters=8, tol=1e-9))
        pic = picard_minimal(pw_std, cfg).frontier.lam
        par = simulate_particles(pw_std, cfg)[0].lam
        grid = psi_grid(pw_std, np.geomspace(1e-5, 0.5, 50),
                        np.linspace(0.0, 1.0, 41), threads=threads)
        rep = check_averaging_condition(sine_density, 0.5, threads=threads)
        consts = compute_sqrt_constants(pw_std, 0.8)
        fr = picard_minimal(pw_std, cfg).frontier
        d0 = estimate_delta0(fr, pw_std, n_paths=8000, seed=SEED)
        pg = estimate_prob_in_G(fr, pw_std, consts, n_paths=8000, seed=SEED)
        return (pic, par, grid, rep.psi_values, rep.margin_1_7,
                d0.node_means, pg.lhs, pg.rhs)

    a = run_all(1)
    b = run_all(8)
    for xa, xb in zip(a, b):
        checks.append(np.array_equal(np.asarray(xa), np.asarray(xb)))
    elapsed = time.perf_counter() - t0
    _line(11, "thread-count determinism", all(checks),
          f"{sum(checks)}/{len(checks)} outputs bit-identical across threads 1 and 8, "
          f"{elapsed:.1f}s")
