"""Small numerical building blocks: adaptive Simpson quadrature, bisection and
the first-passage quadrature of a Brownian motion across a moving boundary."""
from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import ndtr


class QuadratureError(RuntimeError):
    """Raised when the adaptive subdivision cap is exhausted before reaching tolerance."""


def adaptive_simpson(f, a, b, tol=1e-10, max_intervals=10**6):
    """Integrate f over [a, b] with adaptive Simpson to absolute tolerance tol.

    Non-recursive worklist implementation; raises QuadratureError when more than
    max_intervals subdivisions would be needed.
    """
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    stack = [(a, b, fa, fm, fb, whole, tol)]
    total = 0.0
    used = 0
    while stack:
        a0, b0, fa0, fm0, fb0, s0, t0 = stack.pop()
        used += 1
        if used > max_intervals:
            raise QuadratureError(
                f"adaptive Simpson exceeded {max_intervals} intervals on [{a}, {b}]"
            )
        m0 = 0.5 * (a0 + b0)
        lm = 0.5 * (a0 + m0)
        rm = 0.5 * (m0 + b0)
        flm, frm = f(lm), f(rm)
        left = (m0 - a0) / 6.0 * (fa0 + 4.0 * flm + fm0)
        right = (b0 - m0) / 6.0 * (fm0 + 4.0 * frm + fb0)
        err = left + right - s0
        if abs(err) <= 15.0 * t0 or (b0 - a0) < 1e-15 * (abs(a0) + abs(b0) + 1.0):
            total += left + right + err / 15.0
        else:
            half = 0.5 * t0
            stack.append((a0, m0, fa0, flm, fm0, left, half))
            stack.append((m0, b0, fm0, frm, fb0, right, half))
    return total


def bisect_nondecreasing(f, lo, hi, target, xtol=1e-12):
    """Smallest x in [lo, hi] with f(x) >= target, for nondecreasing f.

    Maintains f(lo) < target <= f(hi); the returned bracket midpoint is within
    xtol of inf{x : f(x) >= target}, i.e. of the smallest root when f is continuous.
    """
    if f(lo) >= target:
        return lo
    if f(hi) < target:
        raise ValueError(f"target {target} not reached on [{lo}, {hi}]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= xtol:
            return mid
        if f(mid) >= target:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


#: kernel rows solved at once; a longer system is solved in blocks of rows
_ROWS = 1024
#: kernel rows built at once, each only as far as its block's diagonal
_STRIP = 128


def first_passage_masses(t, g, s, g_s, x, w):
    """Masses of the first time a Brownian motion W meets x - g, that is the
    first u with W_u + g(u) >= x, in the cells (t[i - 1], t[i]], i = 1..n,
    times the weights w (len(x) by m): an (n, m) array, a column per x for w = I.

    t holds the cell ends from t[0] = 0 and g the boundary there; s holds the
    cells' midpoints and g_s the boundary there. The passage time tau solves
    (Durbin, J. Appl. Prob. 1971; Peskir, 2002) P(W_t + g(t) >= x) =
    int_0^t P(W_t - W_u >= g(u) - g(t)) dP(tau <= u) for t > 0. The law of tau
    is taken uniform within each cell, the kernel at the cell's midpoint, and
    the equation holds at the cells' right ends, which makes a lower-triangular
    system, linear in its right side: it is solved on the m right sides that w
    combines. Its rows are solved _ROWS at a time, each block after subtracting
    the masses found above it, so no more than _ROWS kernel rows are held. A
    level x <= g(0) is met at once: its masses are 1 in the first cell and 0
    after, so 1 minus their sum is exactly 0. A level x = inf is never met.
    """
    x = np.asarray(x, dtype=float)
    if np.any(np.isnan(x)):
        raise ValueError("first-passage quadrature: a level x is NaN")
    t, g, s, g_s = (np.asarray(v, dtype=float) for v in (t, g, s, g_s))
    t, g0, g = t[1:], g[0], g[1:]
    n = len(t)
    mass = np.zeros((n, w.shape[1]))
    mass[0] = w[x <= g0].sum(axis=0)
    solve = (x > g0) & (x < np.inf)
    if not solve.any():
        return mass
    found = np.subtract.outer(g, x[solve])
    found /= np.sqrt(t)[:, None]
    found = ndtr(found, out=found) @ w[solve]  # the right sides, replaced by the masses
    for lo in range(0, n, _ROWS):
        hi = min(lo + _ROWS, n)
        kernel = np.zeros((hi - lo, hi))  # its upper triangle is never read
        for r in range(lo, hi, _STRIP):
            e = min(r + _STRIP, hi)
            k = kernel[r - lo:e - lo, :e]
            np.subtract.outer(g[r:e], g_s[:e], out=k)
            # |t_i - s_j| keeps the strip's entries above the diagonal finite
            k /= np.sqrt(np.abs(np.subtract.outer(t[r:e], s[:e])))
            ndtr(k, out=k)
        if lo:
            found[lo:hi] -= kernel[:, :lo] @ found[:lo]
        found[lo:hi] = solve_triangular(kernel[:, lo:], found[lo:hi], lower=True)
    mass += found
    return mass
