"""Compute the closed-form constants of the band density and verify every
frontier inequality against simulation.

Run: python demos/04_bounds_verification.py
"""
from stefanlab import make_piecewise
from stefanlab.bounds import assemble_bounds_report, compute_L
from stefanlab.solver import PicardConfig, SolverConfig, picard_minimal

pw = make_piecewise("1/2", "21/20", "1/2", "1/2")

# --- the good-set slope bound and the pair that attains it --------------------
sb = compute_L(pw)
print(f"good-set slope bound: rho = {sb.rho}, L = {sb.L} "
      f"(= {float(sb.L)}), contraction: {sb.lt_one}")
witness_y = sb.rho * pw.odd_endpoint(2)
witness_h = pw.even_endpoint(1) - witness_y
q = (pw.cdf(witness_y + witness_h) - pw.cdf(witness_y)) / witness_h
print(f"the witness pair y = {witness_y}, h = {witness_h} attains it exactly: "
      f"quotient = {q} == L: {q == sb.L}")

# --- a minimal-solution frontier to verify against -----------------------------
cfg = SolverConfig(n_particles=10, dt=0.0005, T=0.25, seed=11,
                   picard=PicardConfig(n_paths=40_000, max_iters=50, tol=5e-4))
frontier = picard_minimal(pw, cfg).frontier

report = assemble_bounds_report(pw, frontier, n_mc=40_000, seed=11, n_paths=20_000)
print("\nbounds report:")
print(f"  c1 = {report.c1:.5f}, c2 = {report.c2:.4f}, "
      f"c3 = {report.c3:.4f} (slope surrogate beta = {report.beta_slope:.4f})")
print(f"  sqrt-envelope margins: lower {report.margins.sqrt_lower_margin:+.4f}, "
      f"upper {report.margins.sqrt_upper_margin:+.4f}")
print(f"  increment-envelope margin: {report.margins.holder_margin:+.4f}")
print(f"  early-increment margin:    {report.early_increment_margin:+.4f}")
print(f"  contraction diagnostic delta0 = {report.delta0_hat:.4f} "
      f"(+/- {report.delta0_se:.4f}), < 1: {report.delta0_hat < 1.0}")
pg = report.prob_g
print(f"  good-set occupation: min lhs - rhs = {pg.probG_margin:+.4f}; "
      f"occupation threshold {pg.threshold:.4f} "
      f"({'met' if pg.threshold_pass else 'not met - reported as a finding'})")
print(f"  worst margin overall: {report.worst_margin:+.4f} "
      f"({'all inequalities hold' if report.worst_margin >= 0 else 'finding!'})")
