"""Closed-form constants of the band density and verification of the frontier
inequalities they imply.

Everything here is checked against simulation: the slope bound L on the good
set, the square-root envelope constants c1/c2, the increment constant c3, the
early-time bound through the averaging envelope, the good-set occupation
probability with its reflection/drifted-sup lower bound, and the expected
increment-ratio contraction diagnostic delta0. Margins are always reported in
the direction that certifies the inequality; nothing is averaged across checks.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np
from scipy.special import erfc

from . import rng
from .conditions import ROOT_TWO_OVER_PI, EnvelopeFunction, chi_bar
from .densities import Density, PiecewiseGeometricDensity, _check_int
from .solver import _CHUNK, FrontierPath, brownian_chunks, iter_y_chunks

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
    "verify_frontier_envelopes",
    "simulate_drifted_sup",
    "prob_drifted_sup_below",
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


def estimate_beta_slope(d: Density, frontier: FrontierPath, seed=0):
    """Monte Carlo surrogate for the uniform slope constant: the max over a
    12 x 24 (t, x) grid of E[F(Lambda_t - B_t + x) - F(Lambda_t - B_t)] / x,
    each node averaged over 20000 normals.

    No closed form exists; this is the numeric stand-in used to build c3.
    Returns (beta_slope, table of per-node ratios).
    """
    K = len(frontier.t) - 1
    t_idx = np.unique(np.clip(np.geomspace(max(1, K // 200), K, 12).astype(int), 1, K))
    upper = d.support_upper
    scale = float(upper) if math.isfinite(upper) else 2.0
    xs = np.geomspace(1e-3 * scale, 2.0 * scale, 24)
    table = np.zeros((len(t_idx), len(xs)))
    for bi, ti in enumerate(t_idx):
        t = float(frontier.t[ti])
        lamt = float(frontier.lam[ti])
        xi = rng.normal_block(seed, rng.SLOPE_PROBE, int(ti), 20000)
        w = lamt + math.sqrt(t) * xi  # -B_t has the same law as B_t
        Fw = np.asarray(d.cdf_fast(w))
        for xj, x in enumerate(xs):
            table[bi, xj] = float(np.mean(np.asarray(d.cdf_fast(w + x)) - Fw)) / x
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


def verify_frontier_envelopes(frontier: FrontierPath, consts: SqrtConstants,
                              n_mc, g: EnvelopeFunction | None = None):
    """Margins of the square-root, increment, and (optionally) averaging-envelope
    bounds on a simulated frontier. n_mc is the sample count behind the frontier
    (particles or paths), used only for the reported standard error. Negative
    margins are findings, not errors."""
    t = frontier.t
    lam = frontier.lam
    pos = t > 0.0
    sq = np.sqrt(t[pos])
    sqrt_lower = float(np.min(lam[pos] - consts.c1 * sq))
    sqrt_upper = float(np.min(consts.c2 * sq - lam[pos]))

    # every pair t_i < t_{i+k}, one lag k at a time
    holder = float(np.min([np.min(consts.c3 * np.sqrt(t[k:] - t[:-k]) - (lam[k:] - lam[:-k]))
                           for k in range(1, len(t))]))

    chi_margin = None
    coverage = 0.0
    if g is not None:
        covered = []
        for ti, li in zip(t[pos], lam[pos]):
            y = ROOT_TWO_OVER_PI * math.sqrt(ti)
            if y <= g.g_tilde_max:
                covered.append(chi_bar(g, ti) - li)
        coverage = len(covered) / int(np.count_nonzero(pos))
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
    """Sorted samples of sup over [0, 1] of (B_s + c3 sqrt(s)), discretized."""
    _check_int(ValueError, "n_paths", n_paths, 1)
    t = np.linspace(0.0, 1.0, n_steps + 1)
    drift = c3 * np.sqrt(t)
    out = np.empty(n_paths)
    for (lo, hi), B in brownian_chunks(seed, rng.U_SUP, n_paths, np.sqrt(np.diff(t))):
        out[lo:hi] = np.max(np.add(B, drift, out=B), axis=1)
    return np.sort(out)


def prob_drifted_sup_below(u_samples, x):
    """P(U <= x) from sorted samples; exactly 0 for x <= 0 (the continuous-time
    running sup is strictly positive almost surely)."""
    if x <= 0.0:
        return 0.0
    return float(np.searchsorted(u_samples, x, side="right")) / len(u_samples)


@dataclass(frozen=True)
class ProbGReport:
    t_values: np.ndarray
    lhs: np.ndarray          # P(Y_t in G)
    lhs_se: np.ndarray
    rhs: np.ndarray          # P(|N| >= a) P(U <= b - a) per t
    rhs_se: np.ndarray
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
            "a": [float(v) for v in self.a_values],
            "b": [None if math.isinf(v) else float(v) for v in self.b_values],
            "threshold": self.threshold,
            "probG_margin": self.probG_margin,
            "threshold_margin": self.threshold_margin,
            "threshold_pass": self.threshold_pass,
        }


def _good_set_edges(d: PiecewiseGeometricDensity, rho, n_bands=30):
    bands, (tail_lo, _) = d.good_set_bands(rho, n_max=n_bands)
    edges = []
    for lo, hi in sorted(bands):
        edges.extend([lo, hi])
    edges.append(tail_lo)
    edges.append(np.inf)
    return np.asarray(edges)


def _lemma_interval(d: PiecewiseGeometricDensity, rho, t):
    """(a, b) with [a sqrt(t), b sqrt(t)] inside the good set, per band scale."""
    sq = math.sqrt(t)
    n = d._band_of(sq, d._band_params_float)[3]  # a_{2n+1} <= sqrt(t) < a_{2n-1}
    if n == 1:
        return float(d.even_endpoint(1)) / sq, math.inf
    return float(d.even_endpoint(n)) / sq, rho * float(d.odd_endpoint(n)) / sq


def _default_t_indices(frontier: FrontierPath, n_t):
    K = len(frontier.t) - 1
    return np.unique(np.clip(np.geomspace(max(1, K // 100), K, n_t).astype(int), 1, K))


def _y_columns(frontier: FrontierPath, n_paths, seed, t_indices):
    """Running-max samples Y at the grid columns t_indices, one row per path
    (n_paths x len(t_indices) numbers; the full paths are never kept)."""
    _check_int(ValueError, "n_paths", n_paths, 1)
    out = np.empty((n_paths, len(t_indices)))
    for (lo, hi), y in iter_y_chunks(frontier, n_paths, seed):
        out[lo:hi] = y[:, t_indices]
    return out


def estimate_prob_in_G(frontier: FrontierPath, d: PiecewiseGeometricDensity,
                       consts: SqrtConstants, t_indices=None, n_paths=20000, seed=0,
                       n_bands=30):
    """Per-t MC estimates of P(Y_t in G) against the reflection/drifted-sup
    lower bound P(|N| >= a) P(U <= b - a), plus the occupation threshold
    (alpha2 - 1)/(alpha2 - L) that the contraction argument needs."""
    if t_indices is None:
        t_indices = _default_t_indices(frontier, 10)
    t_indices = np.asarray(t_indices, dtype=int)
    u_samples = simulate_drifted_sup(consts.c3, n_paths=n_paths, seed=seed)
    cols = _y_columns(frontier, n_paths, seed, t_indices)
    return _prob_in_G(frontier, d, t_indices, cols, u_samples, n_bands)


def _prob_in_G(frontier, d, t_indices, cols, u_samples, n_bands):
    """``estimate_prob_in_G`` on the samples cols = Y[:, t_indices]."""
    sb = compute_L(d)
    rho = float(sb.rho)
    edges = _good_set_edges(d, rho, n_bands=n_bands)
    total = len(cols)
    inside = np.searchsorted(edges, cols, side="right") % 2 == 1
    lhs = inside.sum(axis=0) / total
    lhs_se = np.sqrt(np.clip(lhs * (1.0 - lhs), 0.0, None) / total)

    tv = frontier.t[t_indices]
    a_vals, b_vals, rhs, rhs_se = [], [], [], []
    for t in tv:
        a, b = _lemma_interval(d, rho, float(t))
        pn = float(erfc(a / math.sqrt(2.0)))  # P(|N| >= a)
        pu = 1.0 if math.isinf(b) else prob_drifted_sup_below(u_samples, b - a)
        rhs.append(pn * pu)
        pu_se = 0.0 if math.isinf(b) else math.sqrt(max(pu * (1.0 - pu), 0.0) / len(u_samples))
        rhs_se.append(pn * pu_se)
        a_vals.append(a)
        b_vals.append(b)
    rhs = np.asarray(rhs)
    rhs_se = np.asarray(rhs_se)

    alpha2 = float(d.alpha2)
    L = float(sb.L)
    threshold = (alpha2 - 1.0) / (alpha2 - L)
    return ProbGReport(
        t_values=np.asarray(tv), lhs=lhs, lhs_se=lhs_se, rhs=rhs, rhs_se=rhs_se,
        a_values=np.asarray(a_vals), b_values=np.asarray(b_vals),
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


def estimate_delta0(frontier: FrontierPath, d: Density, n_paths=20000, seed=0):
    """MC estimate of the double sup of E[(F(Y_t + h) - F(Y_t)) / h] on a
    (t, h) grid of 8 times and 16 log-spaced increments; the per-node means
    double as the expected-increment-ratio probe (increment h playing the
    role of the window size)."""
    t_indices = _default_t_indices(frontier, 8)
    cols = _y_columns(frontier, n_paths, seed, t_indices)
    return _delta0(frontier, d, t_indices, cols)


def _delta0(frontier, d, t_indices, cols):
    """``estimate_delta0`` on the samples cols = Y[:, t_indices]. The sums are
    reduced per 8192-path chunk in row order, then across chunks."""
    upper = d.support_upper
    scale = float(upper) if math.isfinite(upper) else 2.0
    h_grid = np.geomspace(1e-4 * scale, scale, 16)

    sums = np.zeros((len(t_indices), len(h_grid)))
    sq_sums = np.zeros_like(sums)
    total = len(cols)
    for lo in range(0, total, _CHUNK):
        chunk = cols[lo:lo + _CHUNK]  # (m, n_t)
        Fy = np.asarray(d.cdf_fast(chunk))
        for hj, h in enumerate(h_grid):
            ratio = (np.asarray(d.cdf_fast(chunk + h)) - Fy) / h
            sums[:, hj] += ratio.sum(axis=0)
            sq_sums[:, hj] += (ratio * ratio).sum(axis=0)
    means = sums / total
    var = np.clip(sq_sums / total - means ** 2, 0.0, None)
    ses = np.sqrt(var / total)
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
    t = frontier.t
    lam = frontier.lam
    pos = t > 0.0
    lhs = lam[pos] - np.asarray(d.cdf_fast(lam[pos]))
    rhs = alpha2 * ROOT_TWO_OVER_PI * np.sqrt(t[pos])
    return float(np.min(rhs - lhs))


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
        vals = [self.margins.sqrt_lower_margin, self.margins.sqrt_upper_margin,
                self.margins.holder_margin, self.prob_g.probG_margin,
                self.early_increment_margin]
        if self.margins.chi_bar_margin is not None:
            vals.append(self.margins.chi_bar_margin)
        return min(vals)


def assemble_bounds_report(d: PiecewiseGeometricDensity, frontier: FrontierPath,
                           n_mc, seed=0, n_paths=20000,
                           g: EnvelopeFunction | None = None):
    """Compute every constant and run every estimator against one frontier."""
    if not d.admissible:
        raise ValueError("band density is inadmissible (beta2 >= 1); "
                         "the envelope constants are undefined")
    sb = compute_L(d)
    beta_slope, _ = estimate_beta_slope(d, frontier, seed=seed)
    consts = compute_sqrt_constants(d, beta_slope)
    margins = verify_frontier_envelopes(frontier, consts, n_mc=n_mc, g=g)
    # one pass of Y paths serves both estimators, on the union of their columns
    ti_g = _default_t_indices(frontier, 10)
    ti_d = _default_t_indices(frontier, 8)
    union = np.union1d(ti_g, ti_d)
    cols = _y_columns(frontier, n_paths, seed, union)
    u_samples = simulate_drifted_sup(consts.c3, n_paths=n_paths, seed=seed)
    prob_g = _prob_in_G(frontier, d, ti_g, cols[:, np.searchsorted(union, ti_g)],
                        u_samples, n_bands=30)
    d0 = _delta0(frontier, d, ti_d, cols[:, np.searchsorted(union, ti_d)])
    early = early_increment_check(frontier, d)
    return BoundsReport(
        beta1=float(d.beta1), beta2=float(d.beta2), admissible=bool(d.admissible),
        rho=float(sb.rho), L=float(sb.L), L_lt_one=bool(sb.lt_one),
        c1=consts.c1, c2=consts.c2, c3=consts.c3, beta_slope=beta_slope,
        delta0_hat=d0.delta0_hat, delta0_se=d0.se_at_max,
        margins=margins, prob_g=prob_g, early_increment_margin=early, n_mc=n_mc,
    )
