"""Admission-condition checks for initial densities.

Three numbered conditions are checked (the numbering is the report schema used
throughout this package):

* 1.5 (pointwise): the density stays below 1 - h(x) near the origin for some
  nondecreasing positive h, probed on dyadic windows.
* 1.6 (mass/moment): the density is bounded by 1 and has a finite first moment.
* 1.7 (window averaging): every unit-window average
  psi(lambda, mu) = integral_mu^{mu+1} f(lambda x) dx stays below
  1 - g(lambda (mu+1)) for a nondecreasing positive envelope g, for all
  lambda below some lambda0.

The fitted envelope g feeds the early-time frontier bound chi_bar through the
inverse of g_tilde(s) = s g(s).
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .densities import Density, _check_int, _check_real

__all__ = [
    "EnvelopeFunction",
    "PointwiseReport",
    "MomentReport",
    "ConditionReport",
    "psi",
    "psi_grid",
    "sup_psi",
    "check_pointwise_condition",
    "check_moment_condition",
    "check_averaging_condition",
    "g_tilde_inverse",
    "chi_bar",
]

ROOT_TWO_OVER_PI = math.sqrt(2.0 / math.pi)  # E|N| for a standard normal

# window averages this close to 1 leave no certifiable positive envelope
_VIOLATION_SLACK = 1e-9
_PSI_BLOCK = 8192  # windows per psi_grid block; independent of thread count by design


def psi(d: Density, lam, mu):
    """Window average psi(lambda, mu) = integral_mu^{mu+1} f(lambda x) dx, elementwise.

    Equal to (F(lambda (mu+1)) - F(lambda mu)) / lambda for lambda > 0; exact in rational
    arithmetic for the piecewise family when lambda and mu are Fractions. psi(0, mu)
    reads f(0), which is not the lambda -> 0 limit for the band or the periodic families.
    """
    if np.ndim(lam) == 0 and lam == 0:
        return d.pdf(lam) if np.ndim(mu) == 0 else np.full(np.shape(mu), d.pdf(0.0))
    diff = d.cdf(lam * (mu + 1)) - d.cdf(lam * mu)
    with np.errstate(invalid="ignore"):  # 0 / 0 at a zero lambda of an array, which reads f(0)
        return np.where(lam == 0.0, d.pdf(0.0), diff / lam) if np.ndim(lam) else diff / lam


def psi_grid(d: Density, lambdas, mus, threads=1):
    """Matrix psi(lambda_i, mu_j), one psi call per block of whole rows of about
    _PSI_BLOCK windows, fixed by the grid, so the result is the same at any thread count."""
    lambdas = np.asarray(lambdas, dtype=float)
    mus = np.asarray(mus, dtype=float)
    out = np.empty((len(lambdas), len(mus)))
    rows = max(1, _PSI_BLOCK // max(1, len(mus)))

    def run_block(lo):
        out[lo:lo + rows] = psi(d, lambdas[lo:lo + rows, None], mus)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(run_block, range(0, len(lambdas), rows)))
    return out


def sup_psi(d: Density, lam, xtol=1e-9):
    """(sup over mu in [0,1] of psi(lambda, .), argmax mu).

    psi(lambda, .) is evaluated on linspace(0, 1, 256), then, level by level,
    on 257 evenly spaced mus between the two neighbors of the last grid's best
    point, until that bracket is at most xtol wide or stops narrowing (its mus
    an ulp apart); the best (value, mu) evaluated at any level is returned.
    psi(lambda, .) is Lipschitz with constant 2 lambda max f, which bounds
    what a grid can miss between neighbors. lambda must be positive (see psi).
    """
    _check_real(ValueError, "lambda", lam)
    _check_real(ValueError, "xtol", xtol)
    lam = float(lam)
    mus = np.linspace(0.0, 1.0, 256)
    width, best = math.inf, (-math.inf, 0.0)
    while True:
        vals = psi(d, lam, mus)
        j = int(np.argmax(vals))
        if vals[j] > best[0]:
            best = (float(vals[j]), float(mus[j]))
        lo, hi = mus[max(j - 1, 0)], mus[min(j + 1, len(mus) - 1)]
        if hi - lo <= xtol or hi - lo >= width:
            return best
        mus, width = np.linspace(lo, hi, 257), hi - lo


# ---------------------------------------------------------------------------
# pointwise and moment conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointwiseReport:
    holds: bool
    witness: float | None
    windows: list  # (lo, hi, margin) per dyadic window, outermost first
    h_values: np.ndarray = field(repr=False)  # fitted nondecreasing margins


def check_pointwise_condition(d: Density):
    """Check the pointwise condition on the dyadic windows (2^-k-1, 2^-k],
    k = 1 .. 24.

    The condition is asymptotic at 0, so the windows run from (1/4, 1/2]
    inward. The margin of a window is 1 - sup f over it; the condition holds
    on the checked range when every margin is positive. The maximal valid
    nondecreasing h assigns each window the prefix minimum of the margins from
    the outermost window inward. Returns a witness point with f >= 1 when the
    check fails.
    """
    windows = []
    witness = None
    for k in range(1, 25):
        hi = 2.0 ** (-k)
        lo = 2.0 ** (-k - 1)
        sup, arg = d.sup_pdf(lo, hi)
        margin = 1.0 - float(sup)
        windows.append((lo, hi, margin))
        if margin <= 0.0 and witness is None:
            witness = arg
    margins = np.asarray([m for _, _, m in windows])
    h_values = np.minimum.accumulate(margins)
    holds = bool(np.all(margins > 0.0))
    return PointwiseReport(holds=holds, witness=witness, windows=windows, h_values=h_values)


@dataclass(frozen=True)
class MomentReport:
    f_le_1: bool
    max_pdf: float
    witness: float | None
    first_moment: float


def check_moment_condition(d: Density):
    """Max-pdf scan plus first-moment quadrature."""
    sup, arg = d.sup_pdf(0.0, float(d.support_upper))
    sup = float(sup)
    f_le_1 = sup <= 1.0 + 1e-12
    return MomentReport(f_le_1=f_le_1, max_pdf=sup,
                        witness=None if f_le_1 else arg,
                        first_moment=float(d.first_moment()))


# ---------------------------------------------------------------------------
# averaging condition and envelope
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvelopeFunction:
    """Nondecreasing envelope on an s-grid, evaluated left-constant.

    Below the first node the first value is used; above the last node the last
    value. g_tilde(s) = s * g(s) is strictly increasing wherever g > 0.
    """

    s_grid: np.ndarray
    g_values: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s_grid, dtype=float)
        g = np.asarray(self.g_values, dtype=float)
        if s.ndim != 1 or s.shape != g.shape or len(s) == 0:
            raise ValueError("envelope needs matching nonempty s_grid and g_values")
        if np.any(np.diff(s) <= 0.0):
            raise ValueError("envelope s_grid must be strictly increasing")
        if np.any(np.diff(g) < 0.0) or np.any(g < 0.0):
            raise ValueError("envelope values must be nonnegative and nondecreasing")
        object.__setattr__(self, "s_grid", s)
        object.__setattr__(self, "g_values", g)

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        idx = np.clip(np.searchsorted(self.s_grid, s, side="right") - 1, 0, len(self.s_grid) - 1)
        out = self.g_values[idx]
        return out if out.shape else float(out)

    @property
    def g_tilde_max(self):
        return float(self.s_grid[-1] * self.g_values[-1])


@dataclass(frozen=True)
class ConditionReport:
    lambda_grid: np.ndarray
    mu_grid: np.ndarray
    psi_values: np.ndarray
    g_envelope: EnvelopeFunction | None
    holds_1_5: bool
    holds_1_6: bool
    holds_1_7: bool
    margin_1_5: float
    margin_1_6: float
    margin_1_7: float
    lambda0: float
    worst_psi: list  # (lambda, mu, psi), worst first
    pointwise: PointwiseReport
    moment: MomentReport

    def to_json_dict(self):
        """JSON-ready summary: up to 64 envelope nodes and the 32 worst windows."""
        env = []
        if self.g_envelope is not None:
            take = np.linspace(0, len(self.g_envelope.s_grid) - 1,
                               min(64, len(self.g_envelope.s_grid))).astype(int)
            env = [[float(self.g_envelope.s_grid[i]), float(self.g_envelope.g_values[i])]
                   for i in np.unique(take)]
        return {
            "holds_1_5": self.holds_1_5,
            "holds_1_6": self.holds_1_6,
            "holds_1_7": self.holds_1_7,
            "lambda0": self.lambda0,
            "margins": {"1_5": self.margin_1_5, "1_6": self.margin_1_6, "1_7": self.margin_1_7},
            "g_envelope": env,
            "worst_psi": [[float(a), float(b), float(c)] for a, b, c in self.worst_psi[:32]],
            "first_moment": self.moment.first_moment,
            "max_pdf": self.moment.max_pdf,
        }


def _fit_envelope(s_nodes, psi_nodes):
    """Left-constant nondecreasing fit: bucket worst psi per log-spaced s-bin,
    d = 1 - worst, then run the minimum from the right so g is nondecreasing.
    Nodes with s <= 0 are dropped; None when no node is left."""
    n_bins = 256
    s_nodes = np.asarray(s_nodes, dtype=float)
    psi_nodes = np.asarray(psi_nodes, dtype=float)
    keep = s_nodes > 0.0
    s_nodes, psi_nodes = s_nodes[keep], psi_nodes[keep]
    if len(s_nodes) == 0:
        return None
    lo, hi = float(np.min(s_nodes)), float(np.max(s_nodes))
    if hi <= lo:
        hi = lo * (1.0 + 1e-9) + 1e-300
    edges = np.geomspace(lo, hi, n_bins + 1)
    edges[0] = lo
    edges[-1] = hi * (1.0 + 1e-12)
    idx = np.clip(np.searchsorted(edges, s_nodes, side="right") - 1, 0, n_bins - 1)
    worst = np.full(n_bins, -np.inf)
    np.maximum.at(worst, idx, psi_nodes)
    dvals = np.where(np.isfinite(worst), 1.0 - worst, np.inf)
    fitted = np.minimum.accumulate(dvals[::-1])[::-1]
    filled = np.isfinite(fitted)
    if not np.any(filled):
        return None
    return EnvelopeFunction(s_grid=edges[:-1][filled],
                            g_values=np.clip(fitted[filled], 0.0, None))


def check_averaging_condition(d: Density, lambda0_candidate=0.01, lambda_grid=None,
                              mu_grid=None, threads=1):
    """Grid verification of the averaging condition up to lambda0_candidate.

    Defaults: 200 log-spaced lambdas in [1e-6, lambda0_candidate], 101 mus.
    Densities exposing hard_window_probes() get those adversarial (lambda, mu)
    pairs appended, so families that defeat the condition at isolated lambdas
    are caught between grid points. The report's lambda0 is the largest grid
    lambda verified on every node below it (the largest grid lambda if all pass:
    a grid that stops below the candidate verifies nothing past its end), for a
    grid in any order.
    """
    _check_real(ValueError, "lambda0 candidate", lambda0_candidate)
    _check_int(ValueError, "threads", threads, 1)
    lam0 = float(lambda0_candidate)
    if lambda_grid is None:
        lambda_grid = np.geomspace(1e-6, lam0, 200)
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    if mu_grid is None:
        mu_grid = np.linspace(0.0, 1.0, 101)
    mu_grid = np.asarray(mu_grid, dtype=float)
    if not (lambda_grid.size and mu_grid.size):
        raise ValueError("the lambda and mu grids must not be empty")
    if not (np.all(lambda_grid > 0.0) and np.all(np.isfinite(lambda_grid))):
        raise ValueError("grid lambdas must be positive and finite")
    if not np.all(np.isfinite(mu_grid)):
        raise ValueError("grid mus must be finite")

    values = psi_grid(d, lambda_grid, mu_grid, threads=threads)
    probes = getattr(d, "hard_window_probes", list)()
    extra = np.asarray([p for p in probes if 0.0 < p[0] <= lam0], dtype=float).reshape(-1, 2)
    lam_nodes = np.concatenate([np.repeat(lambda_grid, len(mu_grid)), extra[:, 0]])
    mu_nodes = np.concatenate([np.tile(mu_grid, len(lambda_grid)), extra[:, 1]])
    psi_nodes = np.concatenate([values.ravel(), psi(d, extra[:, 0], extra[:, 1])])

    bad = psi_nodes > 1.0 - _VIOLATION_SLACK
    violated = bool(np.any(bad))
    if violated:
        below = lambda_grid[lambda_grid < np.min(lam_nodes[bad])]
        lambda0 = float(np.max(below)) if len(below) else 0.0
        fit = lam_nodes <= lambda0
    else:
        lambda0, fit = float(np.max(lambda_grid)), slice(None)
    env = _fit_envelope(lam_nodes[fit] * (mu_nodes[fit] + 1.0), psi_nodes[fit])
    # 1 - max psi over every node; -inf when no node has s = lambda (mu+1) > 0
    margin_1_7 = float(1.0 - np.max(psi_nodes)) if violated or env is not None else -math.inf

    order = np.argsort(psi_nodes)[::-1][:64]
    worst = [(float(lam_nodes[i]), float(mu_nodes[i]), float(psi_nodes[i])) for i in order]

    pw = check_pointwise_condition(d)
    mo = check_moment_condition(d)
    return ConditionReport(
        lambda_grid=lambda_grid,
        mu_grid=mu_grid,
        psi_values=values,
        g_envelope=env,
        holds_1_5=pw.holds,
        holds_1_6=mo.f_le_1 and math.isfinite(mo.first_moment),
        holds_1_7=not violated and env is not None,
        margin_1_5=float(min(m for _, _, m in pw.windows)),
        margin_1_6=float(1.0 - mo.max_pdf),
        margin_1_7=margin_1_7,
        lambda0=lambda0,
        worst_psi=worst,
        pointwise=pw,
        moment=mo,
    )


# ---------------------------------------------------------------------------
# g_tilde inverse and the early-time frontier bound
# ---------------------------------------------------------------------------


def g_tilde_inverse(g: EnvelopeFunction, y):
    """Smallest s with s * g(s) >= y; 0 maps to 0.

    g is constant on [s_i, s_{i+1}) (the first piece starts at 0), so the
    answer is max(s_i, y / g_i) on the first piece whose right limit
    s_{i+1} g_i exceeds y. Raises ValueError when y exceeds the grid range of
    g_tilde (the envelope certifies nothing beyond its last node).
    """
    y = float(y)
    if y < 0.0:
        raise ValueError("y must be nonnegative")
    if y == 0.0:
        return 0.0
    g_max = g.g_tilde_max
    if y > g_max:
        raise ValueError(f"y={y} beyond g_tilde range [0, {g_max}] on the grid")
    s, gv = g.s_grid, g.g_values
    right = np.append(s[1:] * gv[:-1], np.inf)
    i = int(np.argmax(right > y))
    return max(float(s[i]) if i else 0.0, y / float(gv[i]))


def chi_bar(g: EnvelopeFunction, t):
    """Early-time frontier bound g_tilde^{-1}(E|N| sqrt(t)); 0 at t = 0 and
    nondecreasing in t (constant over the values g_tilde jumps past)."""
    t = float(t)
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    return g_tilde_inverse(g, ROOT_TWO_OVER_PI * math.sqrt(t))
