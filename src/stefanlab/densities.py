"""Initial-condition density families.

Four families share one interface (pdf, cdf, sample, first moment, windowed sup):

* ``PiecewiseGeometricDensity`` -- two levels alternating on geometrically
  shrinking bands accumulating at 0; the CDF oscillates between two straight
  lines through the origin. Exact rational arithmetic when parameters are.
* ``PeriodicOscillatoryDensity`` -- (1 + profile(1/x^alpha)) / 2 on (0, a], with
  the support endpoint a fixed by normalization.
* ``TabulatedDensity`` -- grid + values with linear interpolation.
* ``GaussianPathDensity`` -- a clipped Gaussian sample path minus an
  iterated-logarithm envelope, tabulated on [0, 1], then a piecewise-linear
  tent past 1 carrying the mass the path leaves.

Densities are immutable after construction and safe to share across threads.
"""
from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.linalg import cholesky as _cholesky, LinAlgError as _LinAlgError
from scipy.special import roots_legendre

from . import rng
from .numerics import bisect_nondecreasing

__all__ = [
    "DensityError",
    "Density",
    "PiecewiseGeometricDensity",
    "PeriodicOscillatoryDensity",
    "GaussianPathDensity",
    "TabulatedDensity",
    "SinusoidProfile",
    "TabulatedProfile",
    "make_piecewise",
    "build_gaussian_path",
    "uniform_density",
    "make_density",
    "tabulated_from_csv",
    "read_numeric_rows",
    "write_numeric_rows",
]


class DensityError(ValueError):
    pass


#: 8-point Gauss-Legendre rule on [-1, 1], the periodic family's cell quadrature
_GL_NODES, _GL_WEIGHTS = roots_legendre(8)
#: most profile cell edges one periodic table may hold (about 16 per period below v0)
_MAX_CELL_EDGES = 1 << 20


def _as_fraction(name, v):
    """Exact value of the field name for int/Fraction/"num/den"-string inputs,
    v itself for other finite numbers; anything else raises DensityError."""
    if isinstance(v, str):
        try:
            exact = Fraction(v)
            float(exact)  # the float band tables need it in range
            return exact
        except (ValueError, ZeroDivisionError, OverflowError):
            raise DensityError(f"{name} must be a number or a 'num/den' string in "
                               f"float range, got {v!r}") from None
    _check_real(DensityError, name, v, positive=None)
    return Fraction(v) if isinstance(v, (Fraction, int)) else v


# ---------------------------------------------------------------------------
# periodic profiles
# ---------------------------------------------------------------------------


class SinusoidProfile:
    """a*sin(u) + b*cos(u) + c, period 2*pi.

    Closed under the antiderivative-of-the-zero-mean-part operation used by the
    oscillatory tail expansion, so the built-in sine family needs no tabulation.
    """

    def __init__(self, a=1.0, b=0.0, c=0.0):
        self.a = float(a)
        self.b = float(b)
        self.c = float(c)
        self.period = 2.0 * math.pi
        self.cell = self.period / 16.0
        self.mean = self.c
        self.sup_abs = math.hypot(self.a, self.b) + abs(self.c)
        self.zero_until = 0.0  # 0 on [0, zero_until); a nonzero one vanishes at points only

    def eval(self, u):
        # a zero coefficient's term is skipped: adding it would not change a bit
        u = np.asarray(u, dtype=float)
        if self.b == 0.0:
            return self.a * np.sin(u) + self.c
        if self.a == 0.0:
            return self.b * np.cos(u) + self.c
        return self.a * np.sin(u) + self.b * np.cos(u) + self.c

    def antiderivative_stage(self):
        # integral from 0 of (a sin + b cos): -a cos(u) + b sin(u) + a
        return SinusoidProfile(self.b, -self.a, self.a)

    def sup_on(self, ulo, uhi):
        """(sup, argmax) of the profile on [ulo, uhi] (uhi may be inf)."""
        amp = math.hypot(self.a, self.b)
        if amp == 0.0:
            return self.c, ulo
        # the first peak of a sin u + b cos u = amp sin(u + atan2(b, a)) at or after ulo
        u_star = math.pi / 2.0 - math.atan2(self.b, self.a)
        u_star += math.ceil((ulo - u_star) / self.period) * self.period
        if u_star <= uhi:
            return self.c + amp, u_star
        lo_v = float(self.eval(ulo))
        hi_v = float(self.eval(uhi))
        return (lo_v, ulo) if lo_v >= hi_v else (hi_v, uhi)


class TabulatedProfile:
    """Periodic profile given by uniform samples over one period, linear in between.

    Antiderivative stages are exact piecewise polynomials (degree grows by one
    per stage), whose sup norms are bounded by dense sampling with a small
    safety factor; ``sup_on`` of the piecewise-linear profile is exact.
    """

    def __init__(self, period, values, _pieces=None):
        _check_real(DensityError, "profile period", period)
        self.period = float(period)
        if _pieces is None:
            values = np.asarray(values, dtype=float)
            if len(values) < 2:
                raise DensityError("tabulated profile needs at least 2 samples")
            h = self.period / len(values)
            # per piece: v_j + (v_{j+1} - v_j) * xi / h, xi local
            _pieces = (np.arange(len(values) + 1) * h,
                       np.column_stack([values, (np.roll(values, -1) - values) / h]))
        self._breaks, self._coeffs = _pieces
        m, deg = self._coeffs.shape
        k = np.arange(1, deg + 1)
        #: integral of each piece over its own width
        self._integrals = np.sum(self._coeffs * np.diff(self._breaks)[:, None] ** k / k, axis=1)
        self.mean = float(np.sum(self._integrals)) / self.period
        # 0 on [0, zero_until), up to the first nonzero piece; an all-zero profile reads 0
        self.zero_until = float(self._breaks[np.argmax(np.any(self._coeffs != 0.0, axis=1))])
        # quadrature cells: about a sixteenth of the period, with every break on an edge
        self.cell = self.period / (m * math.ceil(16 / m))
        if deg == 2:  # piecewise-linear extremes sit at the nodes, so this sup is exact
            self.sup_abs = float(np.max(np.abs(self._coeffs[:, 0])))
        else:
            us = np.linspace(0.0, self.period, 64 * m + 1)
            self.sup_abs = float(np.max(np.abs(self.eval(us)))) * 1.02

    def eval(self, u):
        u = np.asarray(u, dtype=float)
        um = np.mod(u, self.period)
        idx = np.clip(np.searchsorted(self._breaks, um, side="right") - 1, 0, len(self._coeffs) - 1)
        xi = um - self._breaks[idx]
        out = np.zeros_like(um)
        deg = self._coeffs.shape[1]
        for k in range(deg - 1, -1, -1):
            out = out * xi + self._coeffs[idx, k]
        return out if out.shape else float(out)

    def antiderivative_stage(self):
        # antiderivative of each piece, its continuity constant (the integrals of
        # the pieces before it), minus mean * u = mean * (break_j + xi)
        deg = self._coeffs.shape[1]
        new = np.zeros((len(self._coeffs), deg + 1))
        new[:, 1:] = self._coeffs / np.arange(1, deg + 1)
        new[1:, 0] = np.cumsum(self._integrals[:-1])
        new[:, 0] -= self.mean * self._breaks[:-1]
        new[:, 1] -= self.mean
        return TabulatedProfile(self.period, None, _pieces=(self._breaks, new))

    def sup_on(self, ulo, uhi):
        """(sup, argmax) on [ulo, uhi] (uhi may be inf) of a piecewise-linear
        profile, exact: the max over the window's ends and the breaks inside it."""
        nodes = self._breaks[:-1]
        if not math.isfinite(uhi) or uhi - ulo >= self.period:
            i = int(np.argmax(self._coeffs[:, 0]))  # the node values
            k = math.ceil((ulo - nodes[i]) / self.period)
            return float(self._coeffs[i, 0]), float(nodes[i] + k * self.period)
        shift = math.floor(ulo / self.period) * self.period
        us = np.concatenate([[ulo, uhi], nodes + shift, nodes + shift + self.period])
        us = us[(us >= ulo) & (us <= uhi)]
        vals = self.eval(us)
        i = int(np.argmax(vals))
        return float(vals[i]), float(us[i])


def make_profile(spec):
    """(g, spec) for a JSON-style spec of psi: "sin", a number (constant), or
    {"period": P, "values": [...]} sampled uniformly over one period, mapping
    into [-1, 1]; g = (1 + psi)/2, and spec writes every number as a float."""
    if spec == "sin":
        return SinusoidProfile(0.5, 0.0, 0.5), spec
    if isinstance(spec, dict):
        extra = sorted(set(spec) - {"period", "values"})
        if extra:
            raise DensityError(f"psi has unknown key {extra[0]!r}")
    try:
        if isinstance(spec, dict):
            values = _real_array("psi values", spec["values"])
        else:
            _check_real(DensityError, "psi", spec, positive=None)
            values = np.asarray(spec, dtype=float)
    except DensityError as exc:
        raise DensityError(f"profile must map into [-1, 1]: {exc}") from None
    if not np.all(np.abs(values) <= 1.0 + 1e-9):
        raise DensityError("profile must map into [-1, 1]")
    if isinstance(spec, dict):
        g = TabulatedProfile(spec["period"], 0.5 * values + 0.5)
        return g, {"period": g.period, "values": values.tolist()}
    return SinusoidProfile(0.0, 0.0, 0.5 * float(spec) + 0.5), float(spec)


# ---------------------------------------------------------------------------
# base class
# ---------------------------------------------------------------------------


class Density:
    """Common interface of the families: pdf, cdf, sample, first_moment,
    sup_pdf, support_upper and spec_dict.

    ``sup_pdf(lo, hi)`` is (sup of the pdf on (lo, hi], argmax), exact where
    the family allows. ``cdf_fast`` is a vectorized, monotone CDF for Monte
    Carlo inner loops: cdf() here, a cached interpolation table in families
    whose exact CDF is expensive.
    """

    family = "abstract"

    def cdf_fast(self, x):
        return self.cdf(x)


# ---------------------------------------------------------------------------
# piecewise geometric family
# ---------------------------------------------------------------------------


class PiecewiseGeometricDensity(Density):
    """Two-level density on bands [a_{2n}, a_{2n-1}) (level alpha1) and
    [a_{2n+1}, a_{2n}) (level alpha2) with a_{2n-1} = r^{n-1} a1,
    a_{2n} = p r^{n-1} a1, r = p q, accumulating at 0.

    The outer endpoint is fixed to a1 = 1/beta1 so the total mass is exactly 1.
    With int/Fraction/"num/den"-string parameters all band arithmetic is exact.
    ``admissible`` (beta2 < 1) is set either way: the simulator accepts
    inadmissible parameters, the bound machinery does not. The float path uses
    a band table truncated where a_{2n+1} < 1e-14 * a1, with the residual mass
    carried by a uniform sliver at level beta1 (whose mass beta1 * a_{2N+1}
    equals the exact CDF there, so normalization is preserved).
    """

    family = "piecewise"

    def __init__(self, alpha1, alpha2, p, q):
        vs = [_as_fraction(name, v) for name, v in
              (("alpha1", alpha1), ("alpha2", alpha2), ("p", p), ("q", q))]
        self.exact = all(isinstance(v, Fraction) for v in vs)
        alpha1, alpha2, p, q = vs if self.exact else (float(v) for v in vs)
        if not (0 < alpha1 < 1):
            raise DensityError(f"alpha1 must lie in (0, 1), got {alpha1}")
        if not (alpha2 > 1):
            raise DensityError(f"alpha2 must exceed 1, got {alpha2}")
        if not (0 < p < 1 and 0 < q < 1):
            raise DensityError(f"p, q must lie in (0, 1), got p={p}, q={q}")
        self.alpha1, self.alpha2, self.p, self.q = alpha1, alpha2, p, q
        self.r = p * q
        self.beta1 = (alpha2 * p * (1 - q) + alpha1 * (1 - p)) / (1 - p * q)
        self.beta2 = (alpha2 * (1 - q) + alpha1 * q * (1 - p)) / (1 - p * q)
        self.a1 = 1 / self.beta1
        self.admissible = self.beta2 < 1
        # the exact band walk runs on these; the CDF maps the bands onto the
        # same geometry with a1 -> 1 and p -> beta2 p a1, as F(a_{2n-1}) = r^(n-1)
        # and F(a_{2n}) = beta2 a_{2n}
        self._band_params = (alpha1, alpha2, p, self.r, self.a1)
        self._cdf_band_params = (alpha1, alpha2, self.beta2 * p * self.a1, self.r, 1)
        self._build_float_tables()

    # -- band bookkeeping ---------------------------------------------------

    def odd_endpoint(self, n):
        """a_{2n-1} = r^(n-1) a1 for n >= 1."""
        return self.r ** (n - 1) * self.a1

    def even_endpoint(self, n):
        """a_{2n} = p r^(n-1) a1 for n >= 1."""
        return self.p * self.r ** (n - 1) * self.a1

    @staticmethod
    def _band_of(x, params):
        """(level, lower, upper, n) of the band containing x in (0, a1] in exact
        arithmetic, params (alpha1, alpha2, p, r, a1) being ``_band_params``, or
        ``_cdf_band_params`` for the CDF's image. Floats read the table (``_cell``)."""
        alpha1, alpha2, p, r, a1 = params
        n = 1
        t = r * a1  # a3
        while x < t:
            t = t * r
            n += 1
        a_odd_hi = r ** (n - 1) * a1      # a_{2n-1}
        a_even = p * r ** (n - 1) * a1    # a_{2n}
        if x >= a_even:
            return alpha1, a_even, a_odd_hi, n
        return alpha2, r ** n * a1, a_even, n  # a_{2n+1}

    def _edge_slope(self, level):
        """beta with F(lo) = beta lo at the lower edge lo of a band at this
        level: beta2 at the even edges, where alpha1 bands start, else beta1."""
        return self.beta2 if level == self.alpha1 else self.beta1

    def _build_float_tables(self):
        alpha1, alpha2, p, r, a1 = (float(v) for v in self._band_params)
        b1, b2 = float(self.beta1), float(self.beta2)
        if r == 0.0:
            raise DensityError("p q underflows; parameters too extreme for float64")
        n_bands = max(2, int(math.ceil(math.log(1e-14) / math.log(r))) + 1)
        # edges ascending: 0, a_{2N+1}, a_{2N}, ..., a_2, a_1, F beta1 a at odd edges and
        # beta2 a at even ones; levels from the top cell down, beta1 on the sliver
        edges, F = [0.0], [0.0]
        for n in range(n_bands, 0, -1):
            a_odd = r ** n * a1
            a_even = p * r ** (n - 1) * a1
            edges += [a_odd, a_even]
            F += [b1 * a_odd, b2 * a_even]
        self._edges = np.asarray(edges + [a1])
        self._levels = np.asarray([alpha1, alpha2] * n_bands + [b1])
        self._F_edges = np.asarray(F + [1.0])
        if not np.all(np.diff(self._edges) > 0) or not np.all(np.diff(self._F_edges) > 0):
            raise DensityError("degenerate band table; parameters too extreme for float64")

    def _cell(self, x):
        """Cell of the float band table holding each x, from the top: 2n - 2 is
        the alpha1 band [a_{2n}, a_{2n-1}), 2n - 1 the alpha2 band [a_{2n+1}, a_{2n}),
        2N the sliver [0, a_{2N+1}), -1 x >= a1. Every float band question reads it."""
        return len(self._edges) - 1 - np.searchsorted(self._edges, x, side="right")

    # -- interface ----------------------------------------------------------

    @property
    def support_upper(self):
        return float(self.a1)

    def pdf(self, x):
        if self.exact and isinstance(x, (Fraction, int)):
            x = Fraction(x)
            if x <= 0 or x >= self.a1:
                return Fraction(0)
            return self._band_of(x, self._band_params)[0]
        x = np.asarray(x, dtype=float)
        cell = self._cell(x)
        inside = (x > 0.0) & (cell >= 0)
        out = np.zeros_like(x)
        out[inside] = self._levels[cell[inside]]
        return out if out.shape else float(out)

    def cdf(self, x):
        if self.exact and isinstance(x, (Fraction, int)):
            x = Fraction(x)
            if x <= 0:
                return Fraction(0)
            if x >= self.a1:
                return Fraction(1)
            level, lo, _, _ = self._band_of(x, self._band_params)
            return self._edge_slope(level) * lo + level * (x - lo)
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self._edges, self._F_edges)
        return out if out.shape else float(out)

    def sample(self, u):
        if self.exact and isinstance(u, (Fraction, int)):
            u = Fraction(u)
            if not (0 <= u <= 1):
                raise DensityError(f"u must lie in [0, 1], got {u}")
            if u == 0:
                return Fraction(0)
            # u's band in the CDF's image; its lower edge lo is F(lo / beta)
            level, lo, _, _ = self._band_of(u, self._cdf_band_params)
            return lo / self._edge_slope(level) + (u - lo) / level
        u = np.asarray(u, dtype=float)
        out = np.interp(u, self._F_edges, self._edges)
        return out if out.shape else float(out)

    def first_moment(self):
        num = self.alpha2 * self.p ** 2 * (1 - self.q ** 2) + self.alpha1 * (1 - self.p ** 2)
        return self.a1 ** 2 * num / (2 * (1 - self.r ** 2))

    def sup_pdf(self, lo, hi):
        """(sup, argmax) on (lo, hi]: the highest table cell of the largest level
        that meets the window, and the midpoint of its part inside the window.
        The sliver below a_{2N+1} stands for both levels and reads alpha2."""
        lo = max(float(lo), 0.0)
        hi = min(float(hi), float(self.a1))
        if not hi > lo:  # an empty window, or a NaN end
            return 0.0, None
        top, bottom = self._cell([np.nextafter(hi, 0.0), lo])
        sliver = len(self._levels) - 1
        cell = top + int(np.argmax(self._levels[top:bottom + 1]))
        best = float(self.alpha2) if cell == sliver else float(self._levels[cell])
        k = sliver - cell  # the cell is [edges[k], edges[k + 1])
        return best, 0.5 * (max(float(self._edges[k]), lo) + min(float(self._edges[k + 1]), hi))

    def hard_window_probes(self):
        """(lambda, mu) pairs, one for each n = 1..12, whose window exactly
        covers an alpha2 band.

        With lambda = a_{2n+1} (1-q)/q and mu = q/(1-q) the window average of f
        equals alpha2 > 1, so these defeat any positive averaging envelope.
        Only valid while mu <= 1, i.e. q <= 1/2.
        """
        q = float(self.q)
        mu = q / (1.0 - q)
        if mu > 1.0:
            return []
        return [((1.0 - q) / q * float(self.odd_endpoint(n + 1)), mu) for n in range(1, 13)]

    def spec_dict(self):
        def enc(v):
            return str(v) if isinstance(v, Fraction) else float(v)
        return {"family": "piecewise", "alpha1": enc(self.alpha1), "alpha2": enc(self.alpha2),
                "p": enc(self.p), "q": enc(self.q)}


make_piecewise = PiecewiseGeometricDensity


# ---------------------------------------------------------------------------
# periodic oscillatory family
# ---------------------------------------------------------------------------


class _TailExpansion:
    """Evaluates I(x) = integral of y^m * g(y^-alpha-composed) near 0.

    Concretely, for G periodic and v = x^(-alpha),

        integral_0^x y^m G(y^(-alpha)) dy = (1/alpha) * W(v),
        W(v) = integral_v^inf G(u) u^(-1-beta0) du,   beta0 = (m+1)/alpha,

    computed by repeated integration by parts: each stage swaps G for the
    periodic antiderivative of its zero-mean part and gains a factor 1/v.
    At most 40 stages are taken, and the truncation bound is tracked explicitly.
    """

    def __init__(self, g_profile, alpha, m, v0, tol=1e-13):
        self.v0 = float(v0)
        stages = []
        coeff, E = 1.0, 1.0 + (m + 1.0) / float(alpha)  # E = 1 + beta0
        G = g_profile
        best_k, best_bound = 0, math.inf
        for k in range(40):
            A = G.antiderivative_stage()
            stages.append((G.mean, A, coeff, E))
            bound = coeff * A.sup_abs * self.v0 ** (-E)
            if bound < best_bound:
                best_k, best_bound = k + 1, bound
            if bound <= tol or bound > 4.0 * best_bound:
                break
            G = A
            coeff *= E
            E += 1.0
        self.stages = stages[:best_k]
        self.bound_at_v0 = best_bound

    def eval(self, v):
        """W(v) for v >= v0 (scalar or array)."""
        v = np.asarray(v, dtype=float)
        total = np.zeros_like(v)
        for mean, A, coeff, E in self.stages:
            total += coeff * mean * v ** (1.0 - E) / (E - 1.0)
            total -= coeff * A.eval(v) * v ** (-E)
        return total


class PeriodicOscillatoryDensity(Density):
    """f(x) = g(1/x^alpha), g = (1 + psi) / 2, on (0, a], zero elsewhere.

    Below x0 the CDF is the tail expansion (exact up to a tracked bound). Above
    it one cumulative table, an 8-point Gauss-Legendre rule on each interval
    between nodes that include every profile cell edge, serves normalisation,
    the CDF, sampling and the first moment. a solves integral_0^a f = 1.
    """

    family = "periodic"

    _V0_CANDIDATES = (60.0, 100.0, 160.0, 260.0, 420.0, 700.0)

    def __init__(self, alpha, psi="sin"):
        _check_real(DensityError, "alpha", alpha)
        self.alpha = float(alpha)
        self.g, self.psi_spec = make_profile(psi)  # g in [0, 1]
        if self.g.mean <= 1e-12:
            raise DensityError("profile mean is -1; the density has no mass")
        for v0 in self._V0_CANDIDATES:
            self._exp0 = _TailExpansion(self.g, self.alpha, 0, v0, tol=1e-13)
            if self._exp0.bound_at_v0 <= 1e-12:
                break  # else the last candidate is the best effort; bound recorded
        self.v0 = self._exp0.v0
        self.x0 = float(self._x(np.float64(self.v0)))
        if self.x0 == 0.0:
            raise DensityError(f"alpha = {alpha} is too small: x0 = v0^(-1/alpha) underflows")
        # the head divides by (1 + 1/alpha) - 1, which keeps 1/alpha only to a
        # relative error near 1e-16 alpha, and the head is off by that much
        if not abs((1.0 + 1.0 / self.alpha - 1.0) * self.alpha - 1.0) <= 1e-9:
            raise DensityError(f"alpha = {alpha} is too large: 1 + 1/alpha - 1 loses 1/alpha")
        self._F_x0 = self._exp0.eval(self.v0) / self.alpha  # F(x0), where the table starts
        self._build_table()
        if not abs(self.total_mass - 1.0) <= 1e-9:
            raise DensityError(f"alpha = {alpha} is out of reach: the table's mass is "
                               f"off by {self.total_mass - 1.0:.2g}")

    # -- the cumulative table -----------------------------------------------

    def _u(self, x):
        """u = x^(-alpha) for an array or numpy scalar x; +inf where that
        overflows, x = 0 included."""
        with np.errstate(divide="ignore", over="ignore"):
            return x ** (-self.alpha)

    def _x(self, u):
        """x = u^(-1/alpha), the inverse of _u, for an array or numpy scalar u;
        +inf where that overflows, 0 where it underflows."""
        with np.errstate(divide="ignore", over="ignore"):
            return u ** (-1.0 / self.alpha)

    def _head(self, x):
        """F(x) for 0 < x <= x0 (a 1-d array) from the tail expansion; where u
        overflows, its exact leading term g.mean x. The expansion's terms cancel
        only to rounding, which makes it dip by up to about 1e-15 where f
        vanishes or nearly so; a running max over the sorted points, capped at
        the value at x0 that starts the table, keeps it nondecreasing over the
        points of one call."""
        u = self._u(x)
        finite = np.isfinite(u)
        F = np.where(finite, self._exp0.eval(np.where(finite, u, self.v0)) / self.alpha,
                     self.g.mean * x)
        order = np.argsort(x, kind="stable")
        F[order] = np.minimum(np.maximum.accumulate(F[order]), self._F_x0)
        return F

    def _cell_integral(self, lo, hi, moment=0):
        """Elementwise integral_lo^hi y^moment f(y) dy; exact to rounding in one cell.
        Summed per point: a BLAS product's order depends on the call's other points."""
        half = 0.5 * (np.asarray(hi, dtype=float) - lo)
        y = (lo + half)[..., None] + half[..., None] * _GL_NODES
        f = self.g.eval(self._u(y))
        return half * np.einsum("...k,k->...", y ** moment * f if moment else f, _GL_WEIGHTS)

    def _nodes(self, hi):
        """Nodes on [x0, hi]: every cell edge (in u = x^(-alpha)), a uniform grid
        where f oscillates slowly, and past the last edge a geometric one, which
        keeps each interval short next to its distance from the singularity at 0."""
        step, u_hi = self.g.cell, self._u(np.float64(hi))
        first, stop = math.floor(u_hi / step), math.ceil(self.v0 / step) + 1
        if stop - first > _MAX_CELL_EDGES:
            raise DensityError(f"profile period {self.g.period:g} needs {stop - first} cell "
                               f"edges below v0 = {self.v0:g}, more than {_MAX_CELL_EDGES}")
        us = np.arange(first, stop) * step
        us = us[(us > u_hi) & (us < self.v0)]
        x_cell = float(self._x(np.float64(step)))
        n_geo = math.ceil(math.log(hi / x_cell, 1.25)) + 1 if hi > x_cell else 0
        xs = np.unique(np.concatenate([self._x(us), np.linspace(self.x0, hi, 2049),
                                       np.geomspace(x_cell, hi, n_geo)]))
        return xs[(xs >= self.x0) & (xs <= hi)]

    def _cumulative(self, xs):
        """F at the nodes xs, xs[0] = x0: the expansion head plus the cell rules."""
        return np.cumsum(np.concatenate([[self._F_x0], self._cell_integral(xs[:-1], xs[1:])]))

    def _build_table(self):
        # g = 0 on [0, u*) makes f = 0 above x* = u*^(-1/alpha): a table to x* holds all the mass
        x_star = float(self._x(np.float64(self.g.zero_until)))  # inf at u* = 0
        mass = self._cumulative(self._nodes(max(x_star, self.x0)))[-1] if x_star < math.inf else 1
        if mass < 1.0:
            raise DensityError(f"normalization impossible: g = 0 on [0, {self.g.zero_until:g}), so "
                               f"f = 0 above x = {x_star:g}, and the total mass is {mass:.6g} < 1")
        hi = max(2.0 * self.x0, 1.0)
        for _ in range(61):
            xs = self._nodes(hi)
            Fs = self._cumulative(xs)
            if Fs[-1] >= 1.0:
                break
            hi *= 2.0
        else:
            raise DensityError("normalization bracket search failed; profile mass too small")
        # a lies where the table crosses 1; its value at the right end holds the bracket
        j = int(np.searchsorted(Fs, 1.0))
        x_lo, F_lo = xs[j - 1], Fs[j - 1]
        self.a = float(bisect_nondecreasing(
            lambda x: Fs[j] if x >= xs[j] else F_lo + self._cell_integral(x_lo, x),
            x_lo, xs[j], 1.0, xtol=1e-13))
        # log grid below x0, where the expansion is cheap and precise: log spacing
        # delta keeps the interpolation error near delta^2/16 at alpha = 1
        # uniformly in depth, so 4096 nodes put it around 1e-6
        x_low = np.geomspace(max(self.a * 1e-9, 1e-300), self.x0, 4096)
        x_low = x_low[x_low < self.x0]
        x_osc = self._nodes(self.a)
        self._xs = np.concatenate([[0.0], x_low, x_osc])
        Fs = np.concatenate([[0.0], self._head(x_low), self._cumulative(x_osc)])
        self._Fs = np.maximum.accumulate(np.clip(Fs, 0.0, 1.0))
        self.total_mass = float(Fs[-1])

    # -- interface ----------------------------------------------------------

    @property
    def support_upper(self):
        return self.a

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        inside = (x > 0.0) & (x <= self.a)
        if np.any(inside):
            u = self._u(x[inside])
            finite = np.isfinite(u)
            # where 1/x^alpha overflows the density has no pointwise limit;
            # report the profile mean level there (any bounded choice works a.e.)
            out[inside] = np.where(finite, self.g.eval(np.where(finite, u, 0.0)), self.g.mean)
        return out if out.shape else float(out)

    def cdf(self, x):
        """Precise CDF: expansion below x0; above it the table value at the
        node below x plus the cell rule from that node to x."""
        x = np.asarray(x, dtype=float)
        shape = x.shape
        x = x.ravel()
        out = np.full_like(x, np.nan)
        out[x <= 0.0] = 0.0
        out[x >= self.a] = 1.0
        mid = (x > 0.0) & (x < self.a)
        lowm = mid & (x <= self.x0)
        if np.any(lowm):
            out[lowm] = self._head(x[lowm])
        # in blocks, which caps the rule's work arrays at 4096 x 8 points
        him = np.nonzero(mid & (x > self.x0))[0]
        for start in range(0, len(him), 4096):
            b = him[start:start + 4096]
            i = np.searchsorted(self._xs, x[b], side="right") - 1
            out[b] = self._Fs[i] + self._cell_integral(self._xs[i], x[b])
        out = np.clip(out, 0.0, 1.0).reshape(shape)
        return out if shape else float(out)

    def cdf_fast(self, x):
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self._xs, self._Fs)
        return out if out.shape else float(out)

    def sample(self, u):
        scalar = np.ndim(u) == 0
        u = np.atleast_1d(np.asarray(u, dtype=float))
        target = np.clip(u, 0.0, 1.0) * self.total_mass
        x = np.interp(target, self._Fs, self._xs)
        # Newton polish against the precise CDF where f is not tiny
        for _ in range(2):
            f = np.asarray(self.pdf(x))
            good = f > 0.05
            if not np.any(good):
                break
            resid = np.asarray(self.cdf(x[good])) - target[good]
            x[good] = np.clip(x[good] - resid / f[good], 0.0, self.a)
        # where that left a residual (f tiny, or a start too far off for two
        # steps), bisect on the precise CDF inside the table interval instead
        rest = np.abs(np.asarray(self.cdf(x)) - target) > 1e-10
        t = target[rest]
        i = np.clip(np.searchsorted(self._Fs, t, side="right") - 1, 0, len(self._xs) - 2)
        lo, hi = self._xs[i], self._xs[i + 1]
        mid = 0.5 * (lo + hi)
        while np.any((lo < mid) & (mid < hi)):
            below = np.asarray(self.cdf(mid)) < t
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
            mid = 0.5 * (lo + hi)
        x[rest] = hi
        return float(x[0]) if scalar else x

    def first_moment(self):
        exp1 = _TailExpansion(self.g, self.alpha, 1, self.v0, tol=1e-14)
        xs = self._xs[self._xs >= self.x0]
        body = np.sum(self._cell_integral(xs[:-1], xs[1:], moment=1))
        return exp1.eval(self.v0) / self.alpha + float(body)

    def sup_pdf(self, lo, hi):
        lo = max(float(lo), 0.0)
        hi = min(float(hi), self.a)
        if hi <= lo:
            return 0.0, None
        u_lo, u_hi = (float(self._u(np.float64(x))) for x in (hi, lo))
        if u_lo == math.inf:  # the window lies where u overflows: every level of g
            return self.g.sup_on(0.0, math.inf)[0], hi
        s, u_star = self.g.sup_on(u_lo, u_hi)
        x_star = float(self._x(np.float64(u_star))) if u_star > 0 else hi
        return s, x_star

    def spec_dict(self):
        return {"family": "periodic", "alpha": self.alpha, "psi": self.psi_spec}


# ---------------------------------------------------------------------------
# tabulated family
# ---------------------------------------------------------------------------


def _pwl_F(xg, fg):
    """Node values of the CDF of a piecewise-linear pdf (cumulative trapezoid)."""
    return np.concatenate([[0.0], np.cumsum(0.5 * (fg[1:] + fg[:-1]) * np.diff(xg))])


def _pwl_cdf(x, xg, fg, Fg):
    """CDF of a piecewise-linear pdf: exact piecewise-quadratic evaluation."""
    x = np.asarray(x, dtype=float)
    xc = np.clip(x, xg[0], xg[-1])
    idx = np.clip(np.searchsorted(xg, xc, side="right") - 1, 0, len(xg) - 2)
    h = xg[idx + 1] - xg[idx]
    s = xc - xg[idx]
    c = (fg[idx + 1] - fg[idx]) / h
    out = Fg[idx] + fg[idx] * s + 0.5 * c * s * s
    out = np.where(x <= xg[0], 0.0, out)
    out = np.where(x >= xg[-1], Fg[-1], out)
    return out


def _pwl_cdf_invert(u, xg, fg, Fg):
    """Inverse of _pwl_cdf via stable per-cell quadratic solve."""
    u = np.asarray(u, dtype=float)
    uc = np.clip(u, 0.0, Fg[-1])
    idx = np.clip(np.searchsorted(Fg, uc, side="right") - 1, 0, len(xg) - 2)
    # zero-density cells repeat F values; 'right' skips past them so the
    # returned quantile is the upper edge of any flat stretch
    h = xg[idx + 1] - xg[idx]
    c = (fg[idx + 1] - fg[idx]) / h
    d = uc - Fg[idx]
    disc = np.maximum(fg[idx] ** 2 + 2.0 * c * d, 0.0)
    denom = fg[idx] + np.sqrt(disc)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(denom > 0.0, 2.0 * d / denom, 0.0)
    return xg[idx] + np.minimum(s, h)


@dataclass(frozen=True, eq=False)
class TabulatedDensity(Density):
    """Grid + values, linear interpolation; zero outside the grid range."""

    grid: np.ndarray
    values: np.ndarray
    F_grid: np.ndarray = field(repr=False)
    normalized: bool

    family = "tabulated"

    @property
    def support_upper(self):
        return float(self.grid[-1])

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        inside = (x >= self.grid[0]) & (x <= self.grid[-1])
        out[inside] = np.interp(x[inside], self.grid, self.values)
        return out if out.shape else float(out)

    def cdf(self, x):
        out = _pwl_cdf(np.asarray(x, dtype=float), self.grid, self.values, self.F_grid)
        return out if out.shape else float(out)

    def sample(self, u):
        scalar = np.ndim(u) == 0
        u = np.atleast_1d(np.asarray(u, dtype=float))
        out = _pwl_cdf_invert(u, self.grid, self.values, self.F_grid)
        return float(out[0]) if scalar else out

    def first_moment(self):
        xg, fg = self.grid, self.values
        h = np.diff(xg)
        c = np.diff(fg) / h
        xi, fi = xg[:-1], fg[:-1]
        return float(np.sum(fi * (h * xi + h ** 2 / 2.0) + c * (h ** 2 * xi / 2.0 + h ** 3 / 3.0)))

    def sup_pdf(self, lo, hi):
        lo, hi = float(lo), float(hi)
        if hi <= lo:
            return 0.0, None
        cands = [self.grid[(self.grid > lo) & (self.grid <= hi)]]
        if self.grid[0] <= lo < self.grid[-1]:
            cands.append([lo])  # stands for the right limit at lo
        if self.grid[0] <= hi <= self.grid[-1]:
            cands.append([hi])
        cands = np.concatenate(cands)
        v = np.interp(cands, self.grid, self.values)
        if not np.any(v > 0.0):
            return 0.0, None
        k = int(np.argmax(v))  # the first maximum
        return float(v[k]), float(cands[k])

    def spec_dict(self):
        return {"family": "tabulated", "grid": [float(v) for v in self.grid],
                "values": [float(v) for v in self.values]}


def _make_tabulated(grid, values, cls=TabulatedDensity, **fields):
    """A cls (a TabulatedDensity) on the validated grid and values, rescaled
    to unit mass, with the extra dataclass fields given."""
    grid, values = _real_array("grid", grid), _real_array("values", values)
    if grid.shape != values.shape or len(grid) < 2:
        raise DensityError("tabulated density needs matching 1-d grid and values, length >= 2")
    if grid[0] < 0.0:  # first, so that np.diff cannot overflow
        raise DensityError("tabulated grid must be nonnegative")
    if np.any(np.diff(grid) <= 0.0):
        raise DensityError("tabulated grid must be strictly increasing")
    if np.any(values < 0.0):
        raise DensityError("tabulated values must be nonnegative")
    with np.errstate(over="ignore"):
        mass = float(np.trapezoid(values, grid))
    if not 0.0 < mass < math.inf:
        raise DensityError(f"tabulated density has mass {mass}")
    normalized = abs(mass - 1.0) > 1e-12
    if normalized:
        values = values / mass
    F = _pwl_F(grid, values)
    F[-1] = min(F[-1], 1.0)
    return cls(grid=grid, values=values, F_grid=F, normalized=normalized, **fields)


def uniform_density(lo, hi):
    """Uniform density on [lo, hi] as a two-node tabulated density."""
    if not (0.0 <= lo < hi):
        raise DensityError(f"need 0 <= lo < hi, got [{lo}, {hi}]")
    level = 1.0 / (hi - lo)
    return _make_tabulated([lo, hi], [level, level])


def _check_int(error, name, value, lo, hi=None):
    """value must be a non-bool integer in [lo, hi); raises error otherwise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < lo or (hi is not None and value >= hi):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi})"
        raise error(f"{name} must be {bound}, got {value}")


def _check_real(error, name, value, positive=True):
    """value must be a finite non-bool number: > 0 when positive, >= 0 when
    positive is False, of either sign when it is None; raises error otherwise."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise error(f"{name} must be a finite number, got {value!r}")
    if positive is not None and (value < 0.0 or (positive and value == 0.0)):
        raise error(f"{name} must be {'positive' if positive else '>= 0'}, got {value}")


def _real_array(name, values):
    """A list, tuple or 1-d array of finite numbers as a float array; the
    error names the first element that is not one. A 1-d float array is
    checked in one call, anything else element by element."""
    if not isinstance(values, (list, tuple, np.ndarray)):
        raise DensityError(f"{name} must be a list of numbers, got {values!r}")
    if isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind == "f":
        bad = np.flatnonzero(~np.isfinite(values))
        if len(bad):
            _check_real(DensityError, f"{name}[{bad[0]}]", values[bad[0]], positive=None)
    else:
        for i, v in enumerate(values):
            _check_real(DensityError, f"{name}[{i}]", v, positive=None)
    return np.asarray(values, dtype=float)


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def read_numeric_rows(path, sep):
    """(line number, floats) for each non-blank line of a text file, its
    fields split on the regex sep. The first non-blank line is skipped as a
    header when none of its fields is a number; any other field that is not a
    number raises DensityError naming path:line."""
    rows = []
    first = True
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = [f.strip() for f in re.split(sep, line) if f.strip()]
            if not fields:
                continue
            try:
                rows.append((lineno, [float(f) for f in fields]))
            except ValueError as exc:
                if not first or any(map(_is_number, fields)):
                    raise DensityError(f"{path}:{lineno}: {exc}") from None
            first = False
    return rows


def write_numeric_rows(path, header, rows):
    """A CSV that ``read_numeric_rows`` reads back: the header names, then one
    line per row with each field written as repr(float(v))."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def tabulated_from_csv(path):
    """Two-column CSV (x, f), fields separated by ',' or ';', read by
    ``read_numeric_rows`` (blank rows skipped, an optional header)."""
    rows = read_numeric_rows(path, r"[,;]")
    for lineno, nums in rows:
        if len(nums) < 2:
            raise DensityError(f"{path}:{lineno}: expected 2 fields, got {len(nums)}")
    if len(rows) < 2:
        raise DensityError(f"no tabulated data found in {path}")
    arr = np.asarray([nums[:2] for _, nums in rows])
    return _make_tabulated(arr[:, 0], arr[:, 1])


# ---------------------------------------------------------------------------
# Gaussian path family
# ---------------------------------------------------------------------------


def _lil_envelope(x, hurst, beta):
    """beta * sqrt(x^(2H) |log|log x||), with the 0 and 1 endpoints by limit."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inner = np.abs(np.log(np.abs(np.log(x))))
        kappa = beta * np.sqrt(x ** (2.0 * hurst) * inner)
    kappa = np.where(x == 0.0, 0.0, kappa)
    kappa = np.where(x == 1.0, np.inf, kappa)
    return kappa


@dataclass(frozen=True, eq=False)
class GaussianPathDensity(TabulatedDensity):
    """Clipped path density (1 + S_x - kappa_x)_+ ^ 1 tabulated on a grid of
    [0, 1] that ends at 1, where kappa makes it 0, followed, when the path
    carries less than unit mass, by a piecewise-linear tent carrying the rest.

    ``path`` holds S on the grid of [0, 1], the first ``len(path)`` nodes.
    """

    path: np.ndarray
    hurst: float
    beta_lil: float
    seed: int

    family = "gaussian_path"

    def spec_dict(self):
        core = self.grid[:len(self.path)]
        if not np.array_equal(core, np.linspace(0.0, 1.0, len(core))):
            raise DensityError("a Gaussian-path density on a custom grid has no spec")
        return {"family": "gaussian_path", "hurst": self.hurst, "beta_lil": self.beta_lil,
                "grid_size": len(self.path), "seed": self.seed}


def build_gaussian_path(hurst, beta_lil, grid_size=513, seed=0, grid=None):
    """Exact Gaussian sample of the path on the grid via covariance factorization.

    The covariance is Gamma(x, y) = (x^(2H) + y^(2H) - |x-y|^(2H)) / 2. For
    H = 1/2 the Cholesky factor is bidiagonal in increments and is applied in
    closed form; otherwise scipy's dense factorization is used and a failure is
    reported with the offending grid spacing.
    """
    _check_real(DensityError, "hurst", hurst, positive=None)
    if not 0.0 < hurst < 1.0:
        raise DensityError(f"hurst must lie in (0, 1), got {hurst}")
    _check_real(DensityError, "beta_lil", beta_lil, positive=None)
    _check_int(DensityError, "seed", seed, 0, 2**64)
    _check_int(DensityError, "grid_size", grid_size, 2)
    hurst, beta_lil = float(hurst), float(beta_lil)
    grid = np.linspace(0.0, 1.0, grid_size) if grid is None else _real_array("grid", grid)
    if not (grid.size and grid[0] == 0.0):
        grid = np.concatenate([[0.0], grid])
    if np.any(np.diff(grid) <= 0.0) or grid[-1] != 1.0:
        raise DensityError("grid must be strictly increasing within [0, 1] and end at 1")
    pos = grid[1:]
    z = rng.normal_block(seed, rng.GAUSS_PATH, 0, len(pos))
    if hurst == 0.5:
        path = np.cumsum(np.sqrt(np.diff(grid)) * z)
    else:
        xx, yy = np.meshgrid(pos, pos, indexing="ij")
        cov = 0.5 * (xx ** (2 * hurst) + yy ** (2 * hurst) - np.abs(xx - yy) ** (2 * hurst))
        try:
            L = _cholesky(cov, lower=True)
        except _LinAlgError as exc:
            raise DensityError(
                f"covariance factorization failed; minimal grid spacing {np.min(np.diff(grid)):.3e}"
            ) from exc
        path = L @ z
    S = np.concatenate([[0.0], path])
    kappa = _lil_envelope(grid, hurst, beta_lil)
    with np.errstate(invalid="ignore"):
        f_grid = np.clip(1.0 + S - kappa, 0.0, 1.0)
    f_grid = np.where(np.isnan(f_grid), 0.0, f_grid)
    tail = 1.0 - float(np.trapezoid(f_grid, grid))
    if tail > 0.0:
        # f(1) = 0, as kappa(1) = inf: a tent on (1, 1 + w] carries the missing
        # mass, its peak 2 tail / w <= 1/2 clear of the level 1 the path reaches
        w = max(1.0, 4.0 * tail)
        grid = np.append(grid, [1.0 + 0.5 * w, 1.0 + w])
        f_grid = np.append(f_grid, [2.0 * tail / w, 0.0])
    return _make_tabulated(grid, f_grid, GaussianPathDensity, path=S, hurst=hurst,
                           beta_lil=beta_lil, seed=int(seed))


# ---------------------------------------------------------------------------
# construction from JSON specs
# ---------------------------------------------------------------------------


def make_density(spec):
    """Density from a JSON-style dict with a "family" tag and only the fields
    that family reads:

    piecewise: alpha1, alpha2, p, q (numbers or "num/den" strings for exact mode)
    periodic: alpha, psi ("sin", a constant, or {"period":..., "values":[...]})
    gaussian_path: hurst, beta_lil, grid_size, seed
    tabulated: {"grid": [...], "values": [...]} or {"csv": "path"}
    """
    if not isinstance(spec, dict) or "family" not in spec:
        raise DensityError('density spec must be an object with a "family" field')
    fam = spec["family"]
    reads = {"piecewise": ("alpha1", "alpha2", "p", "q"), "periodic": ("alpha", "psi"),
             "gaussian_path": ("hurst", "beta_lil", "grid_size", "seed"),
             "tabulated": ("csv",) if "csv" in spec else ("grid", "values")}
    if not isinstance(fam, str) or fam not in reads:
        raise DensityError(f"unknown density family {fam!r}")
    extra = sorted(set(spec) - {"family", *reads[fam]})
    if extra:
        raise DensityError(f"density spec for family {fam!r} has unknown field {extra[0]!r}")
    try:
        if fam == "piecewise":
            return make_piecewise(spec["alpha1"], spec["alpha2"], spec["p"], spec["q"])
        if fam == "periodic":
            return PeriodicOscillatoryDensity(spec["alpha"], spec.get("psi", "sin"))
        if fam == "gaussian_path":
            return build_gaussian_path(spec["hurst"], spec["beta_lil"],
                                       grid_size=spec.get("grid_size", 513),
                                       seed=spec.get("seed", 0))
        if "csv" in spec:
            if not isinstance(spec["csv"], str):
                raise DensityError(f"csv must be a path string, got {spec['csv']!r}")
            return tabulated_from_csv(spec["csv"])
        return _make_tabulated(spec["grid"], spec["values"])
    except KeyError as exc:
        raise DensityError(f"density spec for family {fam!r} is missing field {exc.args[0]!r}")
