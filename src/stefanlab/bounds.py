"""Closed-form constants of the band density and verification of the frontier
inequalities they imply.

Everything here is checked against one frontier: the slope bound L on the
good set, the square-root envelope constants c1/c2, the increment constant c3,
the early-time bound through the averaging envelope, the good-set occupation
probability with its reflection/drifted-sup lower bound, and the expected
increment-ratio contraction diagnostic delta0. Nothing is sampled. The slope
constant behind c3 is a Gaussian integral over X_t = Lambda_t - B_t. The
occupation probability and delta0 read the law of the continuous running max
Y_t = sup_{s<=t} X_s, and the drifted-sup factor of the occupation bound is a
law of the same kind: each is a first-passage law, computed by quadrature of
its Volterra equation (``numerics.first_passage_masses``). Each estimate's
error is its distance from the same quadrature at half the cells or nodes.
Margins are always reported in the direction that certifies the inequality;
nothing is averaged across checks.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np
from scipy.special import erfc

from . import rng
from .conditions import ROOT_TWO_OVER_PI, EnvelopeFunction, chi_bar
from .densities import Density, PiecewiseGeometricDensity, _check_int
from .numerics import first_passage_masses
from .solver import FrontierPath, brownian_chunks

__all__ = [
    "SlopeBound",
    "SqrtConstants",
    "EnvelopeMargins",
    "ProbGReport",
    "Delta0Report",
    "BoundsReport",
    "compute_L",
    "compute_sqrt_constants",
    "estimate_beta_slope",
    "sqrt_envelopes",
    "verify_frontier_envelopes",
    "simulate_drifted_sup",
    "prob_drifted_sup_below",
    "prob_drifted_sup_quad",
    "estimate_prob_in_G",
    "estimate_delta0",
    "early_increment_check",
]


# ---------------------------------------------------------------------------
# closed-form constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlopeBound:
    rho: object  # (1+p)/2, Fraction in exact mode
    L: object    # sup of (F(y+h)-F(y))/h over the good set
    lt_one: bool


def compute_L(d: PiecewiseGeometricDensity):
    """Good-set slope bound L = ((1-q) alpha2 + q (1-rho) alpha1) / (1 - q rho)
    with rho = (1+p)/2; exact in rational mode. Flags whether L < 1."""
    rho = (1 + d.p) / 2
    L = ((1 - d.q) * d.alpha2 + d.q * (1 - rho) * d.alpha1) / (1 - d.q * rho)
    return SlopeBound(rho=rho, L=L, lt_one=L < 1)


@dataclass(frozen=True)
class SqrtConstants:
    c1: float  # lower square-root envelope: beta1 sqrt(2/pi)
    c2: float  # upper square-root envelope: alpha2 sqrt(2/pi) / (1 - beta2)
    c3: float  # increment envelope: alpha2 sqrt(2/pi) / (1 - beta_slope)
    beta_slope: float


def compute_sqrt_constants(d: PiecewiseGeometricDensity, beta_slope):
    beta2 = float(d.beta2)
    beta_slope = float(beta_slope)
    if beta2 >= 1.0:
        raise ValueError(f"beta2 = {beta2} >= 1; the envelope constants are undefined")
    if not (0.0 <= beta_slope < 1.0):
        raise ValueError(f"beta_slope = {beta_slope} outside [0, 1); c3 undefined")
    c1 = float(d.beta1) * ROOT_TWO_OVER_PI
    c2 = float(d.alpha2) * ROOT_TWO_OVER_PI / (1.0 - beta2)
    c3 = float(d.alpha2) * ROOT_TWO_OVER_PI / (1.0 - beta_slope)
    return SqrtConstants(c1=c1, c2=c2, c3=c3, beta_slope=beta_slope)


#: nodes of the slope constant's Gaussian integral, over +-9 standard deviations
_BETA_NODES = 20001


def estimate_beta_slope(frontier: FrontierPath, d: Density, t_indices):
    """(beta_slope, table): the stand-in for the uniform slope constant behind
    c3, which has no closed form. The table holds E[(F(X_t + x) - F(X_t)) / x]
    for X_t = Lambda_t - B_t, which is N(Lambda_t, t), at the grid times
    t_indices and 24 log-spaced x: each a trapezoid sum on 20001 nodes over
    +-9 standard deviations. beta_slope is the table's max."""
    xs = np.geomspace(1e-3 * d.support_upper, 2.0 * d.support_upper, 24)
    shifts = np.concatenate([[0.0], xs])[:, None]
    u = np.linspace(-9.0, 9.0, _BETA_NODES)
    w = np.exp(-0.5 * u * u) * ((u[1] - u[0]) / math.sqrt(2.0 * math.pi))
    w[[0, -1]] *= 0.5
    table = np.empty((len(t_indices), len(xs)))
    for c, k in enumerate(t_indices):
        F = np.asarray(d.cdf_fast(frontier.lam[k] + math.sqrt(frontier.t[k]) * u + shifts))
        table[c] = ((F[1:] - F[0]) * w).sum(axis=1) / xs  # row j is F(X + x_j), x_0 = 0
    return float(np.max(table)), table


# ---------------------------------------------------------------------------
# frontier envelope margins
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvelopeMargins:
    sqrt_lower_margin: float   # min over t > 0 of Lambda_t - c1 sqrt(t)
    sqrt_upper_margin: float   # min over t > 0 of c2 sqrt(t) - Lambda_t
    holder_margin: float       # min over pairs of c3 sqrt(h) - (Lambda_{t+h} - Lambda_t)
    chi_bar_margin: float | None  # min over covered t of chi_bar_t - Lambda_t
    chi_bar_coverage: float    # fraction of positive-t grid the envelope covers
    max_se: float              # worst per-node MC standard error of Lambda

    @property
    def sqrt_margin(self):
        return min(self.sqrt_lower_margin, self.sqrt_upper_margin)

    def to_dict(self):
        return {**asdict(self), "sqrt_margin": self.sqrt_margin}


def sqrt_envelopes(frontier: FrontierPath, *consts):
    """(t, Lambda_t, c sqrt(t) for each c in consts) at the grid times t > 0:
    the per-t square-root envelopes behind the report's sqrt and early
    increment margins, and the rows of ``bounds --emit-csv``."""
    t, sq = frontier.t[1:], np.sqrt(frontier.t[1:])  # a frontier starts at t = 0
    return (t, frontier.lam[1:], *(c * sq for c in consts))


def verify_frontier_envelopes(frontier: FrontierPath, consts: SqrtConstants,
                              n_mc, g: EnvelopeFunction | None = None):
    """Margins of the square-root, increment, and (optionally) averaging-envelope
    bounds on a simulated frontier. n_mc, an integer >= 1, is the sample count
    behind the frontier (particles or paths), used only for the reported
    standard error. Negative margins are findings, not errors."""
    _check_int(ValueError, "n_mc", n_mc, 1)
    t_pos, lam_pos, lower, upper, mean_sup = sqrt_envelopes(frontier, consts.c1, consts.c2,
                                                            ROOT_TWO_OVER_PI)
    sqrt_lower = float(np.min(lam_pos - lower))
    sqrt_upper = float(np.min(upper - lam_pos))

    t = frontier.t
    lam = frontier.lam
    # every pair t_i < t_{i+k}, one lag k at a time
    holder = float(np.min([np.min(consts.c3 * np.sqrt(t[k:] - t[:-k]) - (lam[k:] - lam[:-k]))
                           for k in range(1, len(t))]))

    chi_margin = None
    coverage = 0.0
    if g is not None:
        covered = [chi_bar(g, ti) - li
                   for ti, li, y in zip(t_pos, lam_pos, mean_sup) if y <= g.g_tilde_max]
        coverage = len(covered) / len(t_pos)
        if covered:
            chi_margin = float(np.min(covered))

    se = float(np.max(np.sqrt(np.clip(lam * (1.0 - lam), 0.0, None) / n_mc)))
    return EnvelopeMargins(sqrt_lower_margin=sqrt_lower, sqrt_upper_margin=sqrt_upper,
                           holder_margin=holder, chi_bar_margin=chi_margin,
                           chi_bar_coverage=coverage, max_se=se)


# ---------------------------------------------------------------------------
# good-set occupation probability
# ---------------------------------------------------------------------------


def simulate_drifted_sup(c3, n_paths=20000, n_steps=2000, seed=0):
    """Sorted samples of sup over [0, 1] of (B_s + c3 sqrt(s)), discretized.
    The grid misses the sup between its times, so P(U <= x) read from these
    samples is biased up; the tests keep it as a referee, and the report takes
    ``prob_drifted_sup_quad`` instead. seed is an integer in [0, 2^64)."""
    _check_int(ValueError, "n_paths", n_paths, 1)
    _check_int(ValueError, "seed", seed, 0, 2**64)
    t = np.linspace(0.0, 1.0, n_steps + 1)
    drift = c3 * np.sqrt(t)
    out = np.empty(n_paths)
    for (lo, hi), B in brownian_chunks(seed, rng.U_SUP, n_paths, np.sqrt(np.diff(t))):
        out[lo:hi] = np.max(np.add(B, drift, out=B), axis=1)
    return np.sort(out)


def prob_drifted_sup_below(u_samples, x):
    """P(U <= x) from sorted samples; exactly 0 for x <= 0 (the continuous-time
    running sup is strictly positive almost surely) and 1 for x = inf."""
    if x <= 0.0:
        return 0.0
    return float(np.searchsorted(u_samples, x, side="right")) / len(u_samples)


# cells of the drifted-sup quadrature; its error estimate reruns it at half as many
_QUAD_NODES = 1000


def _sup_cdf_quad(c3, x, n):
    """P(sup over [0, 1] of (B_s + c3 sqrt(s)) <= x) per x: one minus the
    first-passage masses of n uniform cells, clipped to [0, 1]; exactly 0 for
    x <= 0 and 1 for x = inf."""
    x = np.asarray(x, dtype=float)
    t = np.arange(n + 1) / n
    s = t[1:] - 0.5 / n
    mass = np.asfortranarray(  # column-major: numpy sums each level's masses pairwise
        first_passage_masses(t, c3 * np.sqrt(t), s, c3 * np.sqrt(s), x, np.eye(len(x))))
    return np.clip(1.0 - mass.sum(axis=0), 0.0, 1.0)


def prob_drifted_sup_quad(c3, x):
    """(P(U <= x), its error estimate) per x, for U = sup over [0, 1] of
    (B_s + c3 sqrt(s)): the quadrature at 1000 cells, and its distance from
    the same quadrature at 500 cells. Exactly 0 for x <= 0 and 1 for x = inf."""
    p = _sup_cdf_quad(c3, x, _QUAD_NODES)
    return p, np.abs(p - _sup_cdf_quad(c3, x, _QUAD_NODES // 2))


@dataclass(frozen=True)
class ProbGReport:
    t_values: np.ndarray
    lhs: np.ndarray          # P(Y_t in G)
    lhs_se: np.ndarray
    rhs: np.ndarray          # P(|N| >= a) P(U <= b - a) per t
    rhs_se: np.ndarray       # P(|N| >= a) times the quadrature's error estimate
    a_values: np.ndarray
    b_values: np.ndarray
    threshold: float         # (alpha2 - 1)/(alpha2 - L)
    probG_margin: float      # min over t of lhs - rhs
    threshold_margin: float  # min over t of lhs - threshold
    threshold_pass: bool

    def to_dict(self):
        return {
            "t": [float(v) for v in self.t_values],
            "lhs": [float(v) for v in self.lhs],
            "lhs_se": [float(v) for v in self.lhs_se],
            "rhs": [float(v) for v in self.rhs],
            "rhs_se": [float(v) for v in self.rhs_se],
            "a": [float(v) for v in self.a_values],
            "b": [None if math.isinf(v) else float(v) for v in self.b_values],
            "threshold": self.threshold,
            "probG_margin": self.probG_margin,
            "threshold_margin": self.threshold_margin,
            "threshold_pass": self.threshold_pass,
        }


def _good_set_edges(d: PiecewiseGeometricDensity, rho):
    """Ascending edges of the good set G: the bands [a_{2n+2}, rho a_{2n+1}]
    for n = N, ..., 1, then [a_2, inf), down to the depth N of the density's
    float band table (its sliver is cell 2N), about 1e-14 a1."""
    edges = []
    for n in range(d._cell(0.0) // 2 + 1, 1, -1):
        edges += [float(d.even_endpoint(n)), rho * float(d.odd_endpoint(n))]
    return np.asarray(edges + [float(d.even_endpoint(1)), np.inf])


def _lemma_interval(d: PiecewiseGeometricDensity, edges, t):
    """(a, b) per t with [a sqrt(t), b sqrt(t)] the piece of G (ascending
    edges) in the band a_{2n+1} <= sqrt(t) < a_{2n-1}, read from the table."""
    sq = np.sqrt(t)
    pieces = edges.reshape(-1, 2)  # band n's piece is row N + 1 - n
    return pieces[len(pieces) - np.maximum(d._cell(sq), 0) // 2 - 1].T / sq


def _default_t_indices(frontier: FrontierPath, n_t, per=100):
    K = len(frontier.t) - 1
    return np.unique(np.clip(np.geomspace(max(1, K // per), K, n_t).astype(int), 1, K))


#: each grid cell of a frontier is cut into this many cells of the running
#: max's first-passage quadrature
_CUTS = 4


def _frontier_cells(frontier: FrontierPath, k, cuts):
    """(cell ends, Lambda there, midpoints, Lambda there) of the grid cells up
    to grid index k, each cut into `cuts` equal cells, Lambda linear between
    the grid times. The grid times are cell ends exactly."""
    u = np.arange(2 * cuts) / (2 * cuts)
    t, lam = frontier.t[:k + 1], frontier.lam[:k + 1]
    fine_t = np.append((t[:-1, None] + np.diff(t)[:, None] * u).ravel(), t[-1])
    fine_lam = np.append((lam[:-1, None] + np.diff(lam)[:, None] * u).ravel(), lam[-1])
    return fine_t[::2], fine_lam[::2], fine_t[1::2], fine_lam[1::2]


def _running_max_sums(frontier: FrontierPath, t_indices, x, w, cuts):
    """Sum over k of w[k] P(Y_t <= x[k]) per (t in t_indices, column of w),
    unclipped, for the continuous running max Y_t = sup_{s<=t} (Lambda_s - B_s):
    one first-passage solve on the combined right sides, with -B as the
    Brownian motion and Lambda as the boundary, on the grid cells up to the
    last t, each cut into `cuts`."""
    t_indices = np.asarray(t_indices)
    mass = first_passage_masses(*_frontier_cells(frontier, int(t_indices.max()), cuts), x, w)
    return w.sum(axis=0) - np.cumsum(mass, axis=0)[cuts * t_indices - 1]


def estimate_prob_in_G(frontier: FrontierPath, d: PiecewiseGeometricDensity,
                       consts: SqrtConstants, t_indices):
    """Per-t values of P(Y_t in G) for the continuous running max Y, with
    Lambda linear between the grid times, against the reflection/drifted-sup
    lower bound P(|N| >= a) P(U <= b - a), plus the occupation threshold
    (alpha2 - 1)/(alpha2 - L) that the contraction argument needs. G holds
    every band of the density's float table, down to about 1e-14 a1, and
    P(Y_t in G) sums P(Y_t <= hi) - P(Y_t <= lo) over its pieces [lo, hi]: one
    first-passage solve with a column per edge of G gives every t, each level
    clipped to [0, 1]. lhs_se is the unclipped sum's distance from the same at
    half the cells. rhs_se is P(|N| >= a) times the quadrature's own error
    estimate for P(U <= b - a)."""
    sb = compute_L(d)
    rho = float(sb.rho)
    edges = _good_set_edges(d, rho)
    cdf, half = (_running_max_sums(frontier, t_indices, edges, np.eye(len(edges)), cuts)
                 for cuts in (_CUTS, _CUTS // 2))

    def occupation(cdf):
        return (cdf[:, 1::2] - cdf[:, ::2]).sum(axis=1)

    lhs = occupation(np.clip(cdf, 0.0, 1.0))  # a clip moves a level only toward the truth
    lhs_se = np.abs(occupation(cdf) - occupation(half))

    tv = frontier.t[t_indices]
    a_vals, b_vals = _lemma_interval(d, edges, tv)
    pn = erfc(a_vals / math.sqrt(2.0))  # P(|N| >= a)
    pu, pu_err = prob_drifted_sup_quad(consts.c3, b_vals - a_vals)
    rhs = pn * pu
    rhs_se = pn * pu_err

    alpha2 = float(d.alpha2)
    L = float(sb.L)
    threshold = (alpha2 - 1.0) / (alpha2 - L)
    return ProbGReport(
        t_values=tv, lhs=lhs, lhs_se=lhs_se, rhs=rhs, rhs_se=rhs_se,
        a_values=a_vals, b_values=b_vals,
        threshold=threshold,
        probG_margin=float(np.min(lhs - rhs)),
        threshold_margin=float(np.min(lhs - threshold)),
        threshold_pass=bool(np.min(lhs) > threshold),
    )


# ---------------------------------------------------------------------------
# contraction diagnostic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Delta0Report:
    delta0_hat: float
    se_at_max: float
    t_values: np.ndarray
    h_values: np.ndarray
    node_means: np.ndarray  # E[(F(Y_t + h) - F(Y_t)) / h] per (t, h)
    node_ses: np.ndarray


def _y_edges(a):
    """Edges of delta0's y cells on [0, a]: 0, then 500 geometric nodes from
    1e-10 a to 0.02 a, then 1000 even steps to a."""
    return np.concatenate(([0.0], np.geomspace(1e-10 * a, 0.02 * a, 500),
                           np.linspace(0.02 * a, a, 1001)[1:]))


def estimate_delta0(frontier: FrontierPath, d: Density, t_indices):
    """The double sup of E[(F(Y_t + h) - F(Y_t)) / h] over the grid times
    t_indices and 16 log-spaced increments h; the per-node means double as the
    expected-increment-ratio probe (increment h playing the role of the window
    size). A mean sums, over the y cells of ``_y_edges``, P(Y_t in the cell)
    times the ratio r at the cell's midpoint, and the mass above the top edge
    times the top cell's r_top. By parts, that is r_top minus the sum over k of
    P(Y_t <= y_k) (r_k - r_{k-1}): one unclipped first-passage solve with r's
    steps along y as a column per h, on the grid cells each cut in two (1000
    cells on 500 steps); node_ses is the distance from the same sum on the
    uncut cells."""
    a = d.support_upper
    h_grid = np.geomspace(1e-4 * a, a, 16)
    y = _y_edges(a)
    mid = 0.5 * (y[:-1] + y[1:])
    F = np.asarray(d.cdf_fast(mid + np.concatenate([[0.0], h_grid])[:, None]))
    ratio = ((F[1:] - F[0]) / h_grid[:, None]).T  # (y cell, h)
    steps = np.diff(ratio, axis=0, prepend=0.0, append=ratio[-1:])  # per y edge; 0 at a
    sums = _running_max_sums(frontier, t_indices, y, steps, _CUTS // 2)
    means = ratio[-1] - sums
    ses = np.abs(sums - _running_max_sums(frontier, t_indices, y, steps, _CUTS // 4))
    flat = int(np.argmax(means))
    return Delta0Report(
        delta0_hat=float(means.ravel()[flat]),
        se_at_max=float(ses.ravel()[flat]),
        t_values=frontier.t[t_indices],
        h_values=h_grid,
        node_means=means,
        node_ses=ses,
    )


def early_increment_check(frontier: FrontierPath, d: Density):
    """Margin of Lambda_h - F(Lambda_h) <= alpha2 sqrt(2/pi) sqrt(h) over the
    grid (the t = 0 case of the increment inequality; alpha2 = 1 for a
    density without bands)."""
    alpha2 = float(getattr(d, "alpha2", 1.0))
    _, lam, rhs = sqrt_envelopes(frontier, alpha2 * ROOT_TWO_OVER_PI)
    return float(np.min(rhs - (lam - np.asarray(d.cdf_fast(lam)))))


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundsReport:
    beta1: float
    beta2: float
    admissible: bool
    rho: float
    L: float
    L_lt_one: bool
    c1: float
    c2: float
    c3: float
    beta_slope: float
    delta0_hat: float
    delta0_se: float
    margins: EnvelopeMargins
    prob_g: ProbGReport
    early_increment_margin: float
    n_mc: int

    def to_json_dict(self):
        """The scalar fields (admissible as admissible_4_4), the occupation
        report, and the envelope margins flattened in."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("admissible", "margins", "prob_g")}
        return {**out, "admissible_4_4": self.admissible,
                "probG_margin": self.prob_g.probG_margin,
                "prob_in_G": self.prob_g.to_dict(), **self.margins.to_dict()}

    @property
    def worst_margin(self):
        """The least of the margins that decide ``bounds``' exit 2: sqrt_lower, sqrt_upper,
        holder, probG, early_increment and, with a fitted envelope, chi_bar. The report's
        threshold_margin and threshold_pass decide nothing."""
        vals = [self.margins.sqrt_lower_margin, self.margins.sqrt_upper_margin,
                self.margins.holder_margin, self.prob_g.probG_margin,
                self.early_increment_margin]
        if self.margins.chi_bar_margin is not None:
            vals.append(self.margins.chi_bar_margin)
        return min(vals)


def assemble_bounds_report(d: PiecewiseGeometricDensity, frontier: FrontierPath,
                           n_mc, seed=0, n_paths=20000,
                           g: EnvelopeFunction | None = None):
    """Compute every constant and run every estimator against one frontier.
    No random number is drawn: seed and n_paths are accepted and ignored."""
    _check_int(ValueError, "n_mc", n_mc, 1)
    if not d.admissible:
        raise ValueError("band density is inadmissible (beta2 >= 1); "
                         "the envelope constants are undefined")
    sb = compute_L(d)
    beta_slope, _ = estimate_beta_slope(frontier, d, _default_t_indices(frontier, 12, per=200))
    consts = compute_sqrt_constants(d, beta_slope)
    margins = verify_frontier_envelopes(frontier, consts, n_mc=n_mc, g=g)
    prob_g = estimate_prob_in_G(frontier, d, consts, _default_t_indices(frontier, 10))
    d0 = estimate_delta0(frontier, d, _default_t_indices(frontier, 8))
    early = early_increment_check(frontier, d)
    return BoundsReport(
        beta1=float(d.beta1), beta2=float(d.beta2), admissible=bool(d.admissible),
        rho=float(sb.rho), L=float(sb.L), L_lt_one=bool(sb.lt_one),
        c1=consts.c1, c2=consts.c2, c3=consts.c3, beta_slope=beta_slope,
        delta0_hat=d0.delta0_hat, delta0_se=d0.se_at_max,
        margins=margins, prob_g=prob_g, early_increment_margin=early, n_mc=n_mc,
    )
