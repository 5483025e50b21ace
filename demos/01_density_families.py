"""Walk through the four initial-density families.

Run: python demos/01_density_families.py
"""
import math
from fractions import Fraction as F

import numpy as np

from stefanlab import (
    build_gaussian_path,
    make_piecewise,
    uniform_density,
)
from stefanlab.densities import PeriodicOscillatoryDensity

# --- the two-level band density -------------------------------------------
# Levels alpha1 = 1/2 and alpha2 = 21/20 alternate on bands that shrink
# geometrically toward 0 (ratios p = q = 1/2). Rational parameters keep every
# derived quantity exact.
pw = make_piecewise("1/2", "21/20", "1/2", "1/2")
print("band density:")
print(f"  beta1 = {pw.beta1} (lower CDF line), beta2 = {pw.beta2} (upper line)")
print(f"  outer endpoint a1 = {pw.a1} = 1/beta1, admissible: {pw.admissible}")
print(f"  F(a2) = {pw.cdf(F(30, 41))} = beta2 * a2, exactly on the upper line")
print(f"  the high level {float(pw.alpha2)} > 1 appears inside (0, eps) for every eps:")
for eps in (1e-2, 1e-6):
    sup, arg = pw.sup_pdf(0.0, eps)
    print(f"    sup f on (0, {eps:g}) = {sup} at x = {arg:.3e}")

# --- the periodic oscillatory density ---------------------------------------
# f(x) = (1 + sin(1/x))/2 oscillates between 0 and 1 infinitely often near 0;
# the support endpoint a makes the total mass exactly 1.
sine = PeriodicOscillatoryDensity(1.0, "sin")
print("\nperiodic sine density:")
print(f"  support (0, {sine.a:.6f}], normalization residual "
      f"{abs(float(sine.cdf(sine.a)) - 1.0):.2e}")
print(f"  f(2/pi) = {float(sine.pdf(2.0 / math.pi)):.6f} (the profile peaks there)")
print(f"  trivial profiles: psi=1 -> a = {PeriodicOscillatoryDensity(1.0, 1.0).a:.6f}, "
      f"psi=0 -> a = {PeriodicOscillatoryDensity(1.0, 0.0).a:.6f}")

# --- the Gaussian-path density ----------------------------------------------
# A Brownian sample path minus the iterated-logarithm envelope, clipped to
# [0, 1], then a piecewise-linear tent past 1 carrying the leftover mass.
gp = build_gaussian_path(hurst=0.5, beta_lil=math.sqrt(2.0), grid_size=513, seed=7)
mass01 = float(gp.cdf(1.0))
print("\nGaussian-path density (H = 1/2, seed 7):")
print(f"  f(0) = {float(gp.pdf(0.0))}, mass on [0,1] = {mass01:.4f}, "
      f"tent mass = {1.0 - mass01:.4f} on (1, {gp.support_upper:.4f}]")
on_path = (gp.grid > 0.0) & (gp.grid <= 1.0)
touches = int(np.count_nonzero((gp.values >= 1.0) & on_path))
print(f"  grid points where the clipped path touches 1: {touches}")

# --- tabulated densities ------------------------------------------------------
u = uniform_density(0.0, 2.0)
print("\ntabulated uniform on [0, 2]:")
print(f"  median sample: F^-1(1/2) = {float(u.sample(0.5))}")
print(f"  first moment = {u.first_moment():.4f}")
