"""Small numerical building blocks: adaptive Simpson quadrature and bisection."""
from __future__ import annotations


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
