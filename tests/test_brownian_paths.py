"""The shared Brownian-path generator against the loops it replaced.

``brownian_chunks`` feeds the Picard path store, the running-max samples and
the drifted-sup samples; ``tests/_oracles`` keeps the three chunk loops that
built those paths before it. Each consumer must agree with its old loop bit
for bit, over more than one chunk and a partial last chunk.
"""
import numpy as np
import pytest

from _oracles import (compute_Y_samples, compute_Y_samples_negb, picard_minimal_negb,
                      simulate_drifted_sup_concat)
from stefanlab.bounds import simulate_drifted_sup
from stefanlab.solver import FrontierPath, PicardConfig, SolverConfig, picard_minimal


@pytest.mark.parametrize("threads", [1, 2])
def test_picard_iterates_bit_identical_to_negb_referee(pw_std, threads):
    cfg = SolverConfig(n_particles=10, dt=2.5e-3, T=0.25, seed=2026, threads=threads,
                       picard=PicardConfig(n_paths=20_000, max_iters=50, tol=1e-3))
    res = picard_minimal(pw_std, cfg)
    ref = picard_minimal_negb(pw_std, cfg, keep_iterates=True)
    assert res.iterations == ref.iterations and res.iterations > 1
    assert res.history == ref.history
    for got, want in zip(res.iterates, ref.iterates):
        assert np.array_equal(got, want)
    assert np.array_equal(res.frontier.lam, ref.frontier.lam)


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
