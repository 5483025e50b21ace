"""Resolve cascades and compute the frontier two independent ways.

Run: python demos/03_cascade_and_frontier.py
"""
import numpy as np

from stefanlab import make_piecewise, uniform_density
from stefanlab.solver import (
    PicardConfig,
    SolverConfig,
    physical_jump_scan,
    picard_minimal,
    simulate_particles,
)

# --- the cascade rule on a toy ensemble --------------------------------------
# Sort the positions; the jump is k*/n where k* is the first index whose
# particle sits strictly above the line k/n. Deaths shift the survivors down,
# which the scan already accounts for: survivors always end strictly positive.
for values in ([0.3, 0.5, 0.7, 0.9], [-0.05, 0.3, 0.6, 0.9], [-0.05, 0.1, 0.4, 0.6]):
    print(f"cascade{values} -> jump {physical_jump_scan(values, 4)}")

# --- supercooled start: everything freezes at once ----------------------------
# Uniform mass on [0, 1/2] keeps the CDF above the diagonal all the way to 1,
# so the time-0 cascade removes the whole ensemble.
cfg_small = SolverConfig(n_particles=10_000, dt=0.001, T=0.01, seed=1)
fr, _ = simulate_particles(uniform_density(0.0, 0.5), cfg_small)
print(f"\nuniform[0, 1/2]: jumps (t, size) = {fr.jumps(cfg_small.n_particles)} (total freeze)")
fr, _ = simulate_particles(uniform_density(0.0, 2.0), cfg_small)
print(f"uniform[0, 2]:   jumps (t, size) = {fr.jumps(cfg_small.n_particles)} (no jump)")

# --- two routes to the frontier ----------------------------------------------
pw = make_piecewise("1/2", "21/20", "1/2", "1/2")
cfg = SolverConfig(n_particles=40_000, dt=0.0005, T=0.25, seed=11,
                   picard=PicardConfig(n_paths=40_000, max_iters=50, tol=1e-3))

frontier, ensemble = simulate_particles(pw, cfg)
print(f"\nparticle solver: Lambda(T) = {frontier.lam[-1]:.4f}, "
      f"{len(frontier.jumps(cfg.n_particles))} jumps")

res = picard_minimal(pw, cfg)
print(f"fixed-point iteration: converged={res.converged} in {res.iterations} "
      f"iterations, Lambda(T) = {res.frontier.lam[-1]:.4f}")
print("sup-change per iteration:",
      " ".join(f"{v:.1e}" for v in res.history[:8]), "...")

gap = float(np.max(np.abs(frontier.lam - res.frontier.lam)))
print(f"sup distance between the two frontiers: {gap:.4f}")
print("(both monitor at grid instants, so their discretization bias cancels)")
