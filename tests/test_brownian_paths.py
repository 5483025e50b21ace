"""The shared Brownian-path generator against the loops it replaced.

``brownian_chunks`` feeds the Picard path store, the running-max samples and
the drifted-sup samples; ``tests/_oracles`` keeps the three chunk loops that
built those paths before it. Each consumer must agree with its old loop bit
for bit, over more than one chunk and a partial last chunk.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

from _oracles import (compute_Y_samples, compute_Y_samples_negb, picard_minimal_negb,
                      simulate_drifted_sup_concat)
from stefanlab.bounds import simulate_drifted_sup
from stefanlab.densities import build_gaussian_path
from stefanlab.solver import FrontierPath, PicardConfig, SolverConfig, picard_minimal


@pytest.mark.parametrize("density, threads, n_paths, dt", [
    pytest.param("pw_std", 1, 20_000, 2.5e-3, id="1"),
    pytest.param("pw_std", 2, 20_000, 2.5e-3, id="2"),
    # five chunks in runs of one, two and two
    pytest.param("pw_std", 3, 40_000, 2.5e-3, id="3"),
    pytest.param("pw_std", 2, 5_000, 2.5e-3, id="below-one-chunk"),
    pytest.param("pw_std", 2, 2 * 8192 + 1, 2.5e-3, id="one-path-past-two-chunks"),
    # K = 16: a grid of a few coarse steps (the id is kept from an earlier
    # summation order, which folded F in 16-step blocks)
    pytest.param("pw_std", 2, 20_000, 0.25 / 16, id="one-step-last-block"),
    pytest.param("sine_density", 2, 20_000, 2.5e-3, id="sine"),
    # its cdf_fast is the exact piecewise-quadratic CDF, not an interpolation
    pytest.param("gaussian_path", 2, 20_000, 2.5e-3, id="gaussian_path"),
    # the quantum 2^-s of the integer F values: s = 47 at 2^14 paths, 48 at one fewer
    pytest.param("pw_std", 3, 16_384, 2.5e-3, id="power-of-two"),
    pytest.param("pw_std", 2, 16_383, 2.5e-3, id="below-power-of-two"),
])
def test_picard_iterates_bit_identical_to_negb_referee(request, density, threads, n_paths, dt):
    d = (build_gaussian_path(0.5, math.sqrt(2.0), grid_size=129, seed=1)
         if density == "gaussian_path" else request.getfixturevalue(density))
    cfg = SolverConfig(n_particles=10, dt=dt, T=0.25, seed=2026, threads=threads,
                       picard=PicardConfig(n_paths=n_paths, max_iters=50, tol=1e-3))
    res = picard_minimal(d, cfg)
    ref = picard_minimal_negb(d, cfg, keep_iterates=True)
    assert res.iterations == ref.iterations and res.iterations > 1
    assert res.history == ref.history
    for got, want in zip(res.iterates, ref.iterates):
        assert np.array_equal(got, want)
    assert np.array_equal(res.frontier.lam, ref.frontier.lam)


class _CountedCdf:
    """A density whose cdf_fast records how many points each call is given."""

    def __init__(self, density):
        self.density = density
        self.points = []

    def sample(self, u):
        return self.density.sample(u)

    def cdf_fast(self, x):
        self.points.append(np.size(x))  # list.append is atomic across the pool's threads
        return self.density.cdf_fast(x)


def test_picard_evaluates_F_only_where_the_running_max_moves(pw_std):
    # per iteration: every path at step 0, then one point per strict move of Y
    n_paths, iters = 3000, 3
    cfg = SolverConfig(n_particles=10, dt=2.5e-3, T=0.25, seed=314, threads=2,
                       picard=PicardConfig(n_paths=n_paths, max_iters=iters, tol=1e-12))
    moves = []
    picard_minimal_negb(pw_std, cfg, moves=moves)
    assert len(moves) == iters
    totals = []
    for k in range(1, iters + 1):
        counted = _CountedCdf(pw_std)
        picard_minimal(counted, replace(cfg, picard=replace(cfg.picard, max_iters=k)))
        totals.append(sum(counted.points))
    per_iteration = np.diff([0] + totals)
    assert list(per_iteration) == [n_paths + m for m in moves]
    assert max(per_iteration) < 0.3 * n_paths * (cfg.n_steps + 1)


@pytest.mark.parametrize("t", [
    np.linspace(0.0, 0.25, 101),
    np.concatenate([[0.0], np.geomspace(1e-5, 0.25, 80)]),
], ids=["uniform", "geometric"])
def test_y_samples_bit_identical_to_negb_referee(t):
    lam = 0.8 * np.sqrt(t / t[-1])
    frontier = FrontierPath(t=t, lam=lam)
    got = compute_Y_samples(frontier, 10_000, seed=314)
    want = compute_Y_samples_negb(frontier, 10_000, seed=314)
    assert np.array_equal(got, want)


def test_drifted_sup_bit_identical_to_concat_referee():
    got = simulate_drifted_sup(1.3, n_paths=10_000, n_steps=300, seed=5)
    want = simulate_drifted_sup_concat(1.3, n_paths=10_000, n_steps=300, seed=5)
    assert np.array_equal(got, want)
