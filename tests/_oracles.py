"""Independent cross-check oracles for the tests.

These deliberately avoid the production code paths: the oscillatory window
averages are summed by plain composite Simpson in the substituted variable
(per-period panels plus an analytically bounded tail), and the band-density
averages by a midpoint Riemann sum of the closed-form pdf. Nothing here calls
the package's expansion or anchored-quadrature machinery.

``simulate_particles_argsort`` keeps the particle scheme's original step loop,
a full stable argsort of the survivors every step, as the bit-identity referee
for the production loop. ``picard_minimal_negb``, ``compute_Y_samples_negb``
and ``simulate_drifted_sup_concat`` keep the three Brownian-path loops that
drew -B (or B) chunk by chunk before the shared ``brownian_chunks`` generator,
as its bit-identity referees. ``physical_jump_bruteforce`` decides the cascade
size in exact rational arithmetic. ``bruteforce_sup_ratio`` grids the
difference quotients of the band density's CDF over its good set, which
approach the closed-form slope bound L from below. ``tabulated_profile_mass``
integrates the periodic density of a tabulated profile between the profile's
breaks.
``drifted_sup_bridge_mc`` samples the drifted running sup with the exact
Brownian-bridge maximum in each step, the unbiased referee of the drifted-sup
quadrature. ``g_tilde_inverse_bisect`` inverts s g(s) by bisection, as
``g_tilde_inverse`` did before its closed form. ``increment_ratios_loop``
evaluates the increment ratios behind the slope constant and delta0 one
``cdf_fast`` call per (column, 8192-row block, h), the bit-identity referee of
their shared block evaluation.

``sup_pdf_band_walk`` is the band density's windowed sup as a walk down the
ideal float bands, each band's edges recomputed from (p, r, a1), the referee
of the edge table's ``sup_pdf``.

``compute_Y_samples`` and ``pointwise_h_at`` are helpers only the tests use:
the materialized running-max samples and the fitted pointwise margin at a point.
"""
import bisect
import math
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np

from stefanlab import rng
from stefanlab.bounds import compute_L
from stefanlab.numerics import bisect_nondecreasing
from stefanlab.solver import (FrontierPath, ParticleEnsemble, PicardResult, _scan_sorted,
                              initial_jump_stratified, iter_y_chunks)


def sine_osc_integral(alpha, u_lo, u_hi, n_panels=10**6, pts_per_period=64):
    """integral of sin(u) * u^(-1-1/alpha) over [u_lo, u_hi] (u_hi may be inf).

    Composite Simpson with pts_per_period panels per 2*pi; when u_hi is beyond
    the panel budget the remainder is dropped and its proven bound returned.
    Returns (value, tail_bound).
    """
    if u_lo <= 0.0:
        raise ValueError("u_lo must be positive")
    expo = 1.0 + 1.0 / alpha
    period = 2.0 * math.pi
    budget_periods = max(1, n_panels // pts_per_period)
    u_cut = min(u_hi, u_lo + period * budget_periods)
    span = u_cut - u_lo
    if span <= 0.0:
        return 0.0, 0.0
    panels = int(math.ceil(span / period * pts_per_period))
    panels += panels % 2  # Simpson needs an even count
    panels = max(panels, 16)
    us = np.linspace(u_lo, u_cut, panels + 1)
    vals = np.sin(us) * us ** (-expo)
    h = span / panels
    simpson = h / 3.0 * (vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum() + 2.0 * vals[2:-2:2].sum())
    if u_cut < u_hi:
        # two integrations by parts: |remainder| <= u_cut^(-expo) (1 + 2 expo / u_cut)
        tail_bound = u_cut ** (-expo) * (1.0 + 2.0 * expo / u_cut)
    else:
        tail_bound = 0.0
    return float(simpson), float(tail_bound)


def _simpson_vec(f, a, b, panels):
    panels += panels % 2
    xs = np.linspace(a, b, panels + 1)
    vals = f(xs)
    h = (b - a) / panels
    return float(h / 3.0 * (vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum()
                            + 2.0 * vals[2:-2:2].sum()))


def sine_window_mass(alpha, y_lo, y_hi, n_panels=10**6):
    """integral of (1 + sin(y^-alpha))/2 over [y_lo, y_hi], y_lo >= 0.

    The constant half integrates exactly. The oscillating half is summed in
    x-space away from 0 (the integrand is tame there) and by the per-period
    u-space rule below a fixed cut, where the substitution weight is smooth.
    Returns (value, error_bound)."""
    if y_hi <= y_lo:
        return 0.0, 0.0
    x_cut = (20.0) ** (-1.0 / alpha)  # u >= 20 below the cut
    osc = 0.0
    tail = 0.0
    hi_leg_lo = max(y_lo, min(x_cut, y_hi))
    if y_hi > hi_leg_lo:
        osc += _simpson_vec(lambda x: np.sin(x ** (-alpha)), hi_leg_lo, y_hi,
                            max(1 << 15, n_panels // 4))
    if y_lo < hi_leg_lo:
        u_hi = math.inf if y_lo == 0.0 else y_lo ** (-alpha)
        u_lo = hi_leg_lo ** (-alpha)
        val, bound = sine_osc_integral(alpha, u_lo, u_hi, n_panels=n_panels)
        osc += val / alpha
        tail = bound / alpha
    return 0.5 * (y_hi - y_lo) + 0.5 * osc, 0.5 * tail


def riemann_psi_sine(alpha, a, lam, mu, n_panels=10**6):
    """Window average of the sine-profile density by the composite-rule oracle.

    Returns (psi, error_bound)."""
    y_lo = lam * mu
    y_hi = lam * (mu + 1.0)
    y_hi_eff = min(y_hi, a)
    if y_hi_eff <= y_lo:
        return 0.0, 0.0
    mass, err = sine_window_mass(alpha, y_lo, y_hi_eff, n_panels=n_panels)
    return mass / lam, err / lam


def riemann_psi_piecewise(density, lam, mu, n_panels=10**6):
    """Midpoint Riemann sum of the band density over [mu, mu+1].

    Error is bounded by (#band crossings) * (alpha2 - alpha1) / (2 n_panels)."""
    mids = mu + (np.arange(n_panels) + 0.5) / n_panels
    return float(np.mean(density.pdf(lam * mids)))


def tabulated_profile_mass(alpha, period, values, xs, n_periods=20000):
    """integral_0^x (1 + psi(y^-alpha))/2 dy at each x in xs (x of order 1 or
    less), for psi linear between the uniform samples ``values`` over one period.

    In u = y^-alpha this is mean * x + (1/alpha) * integral_{x^-alpha}^inf
    g0(u) u^(-1-1/alpha) du, where mean is the level of (1 + psi)/2 and g0 its
    zero-mean periodic rest. The integral runs piece by piece between the
    profile's breaks, where g0 is linear, by composite Simpson (512 panels per
    piece below u = 20, 2 above) up to u_c = n_periods * period. Past u_c the
    second mean value theorem bounds it by u_c^(-1-1/alpha) times the largest
    partial integral of g0, which is half its absolute integral over a period.
    Returns (masses, bound).
    """
    values = np.asarray(values, dtype=float)
    m = len(values)
    step = period / m
    knots = np.arange(m + 1) * step
    closed = np.append(values, values[0])
    mean_psi = float(np.mean(values))  # the mean of a periodic linear interpolant

    def g0(u):
        return 0.5 * (np.interp(np.mod(u, period), knots, closed) - mean_psi)

    expo = 1.0 + 1.0 / alpha
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    us = xs ** -alpha
    u_c = n_periods * period
    if not us.max() < u_c:
        raise ValueError("need x^-alpha < n_periods * period")
    first = math.ceil(us.min() / step)
    edges = np.union1d(np.arange(first, n_periods * m + 1) * step, us)
    pieces = np.empty(len(edges) - 1)
    for panels, sel in ((512, edges[1:] <= 20.0), (2, edges[1:] > 20.0)):
        t = np.linspace(0.0, 1.0, panels + 1)
        wts = np.ones(panels + 1)
        wts[1:-1:2], wts[2:-1:2] = 4.0, 2.0
        wts /= 3.0 * panels
        for idx in np.array_split(np.nonzero(sel)[0], max(1, int(sel.sum()) * panels // 10**6)):
            lo, width = edges[idx], edges[idx + 1] - edges[idx]
            pts = lo[:, None] + width[:, None] * t
            pieces[idx] = width * ((g0(pts) * pts ** -expo) @ wts)
    from_edge = np.cumsum(pieces[::-1])[::-1]  # integral from each edge to u_c
    osc = from_edge[np.searchsorted(edges, us)] / alpha
    fine = np.linspace(0.0, period, 1000 * m + 1)
    half_abs = 0.5 * np.trapezoid(np.abs(g0(fine)), fine) * 1.01
    bound = half_abs * u_c ** -expo / alpha
    return 0.5 * (1.0 + mean_psi) * xs + osc, bound


def simpson_scalar(f, a, b, n_panels=4096):
    """Plain non-adaptive composite Simpson, for low-drama integrands."""
    n_panels += n_panels % 2
    xs = np.linspace(a, b, n_panels + 1)
    vals = np.asarray([f(x) for x in xs], dtype=float)
    h = (b - a) / n_panels
    return float(h / 3.0 * (vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum()
                            + 2.0 * vals[2:-2:2].sum()))


def simulate_particles_argsort(density, cfg):
    """The particle scheme with a full stable argsort of the survivors every step.

    Referee for ``simulate_particles``: the step loop as it stood before the
    near-barrier cascade and the compact survivors, which must reproduce it
    bit for bit. Each step draws exactly as many Gaussian lanes as it has
    survivors, lane j for the j-th alive particle in id order, and, with the
    bridge, one bridge lane for each survivor whose kill exponent exceeds -40,
    in id order.

    Initialization is stratified (X_i = F^{-1}((i - 1/2)/n)), which makes the
    time-0 jump deterministic. Each step: Gaussian increments for the alive
    particles, one exact cascade resolution, survivors shift down by the jump.
    With cfg.bridge_correction, survivors are additionally killed with the
    within-step barrier-crossing probability exp(-2 z_old z_new / dt) and the
    cascade reruns once, removing the O(sqrt(dt)) endpoint-monitoring bias.
    """
    n = cfg.n_particles
    K = cfg.n_steps
    t = cfg.t_grid()
    sqdt = math.sqrt(cfg.dt)

    u = (np.arange(n) + 0.5) / n
    pos = np.asarray(density.sample(u), dtype=float)
    lam0 = initial_jump_stratified(pos, n)
    alive = np.ones(n, dtype=bool)
    death_time = np.full(n, np.inf)
    n_dead0 = round(lam0 * n)
    if n_dead0 > 0:
        alive[:n_dead0] = False
        death_time[:n_dead0] = 0.0
        pos[alive] -= lam0

    lam = np.empty(K + 1)
    lam[0] = lam0

    for k in range(1, K + 1):
        if np.any(alive):
            aidx = np.nonzero(alive)[0]
            xi = rng.ziggurat_block(cfg.seed, rng.GAUSS_STEP, k, len(aidx))
            z_old = pos[aidx].copy()
            pos[aidx] += sqdt * xi

            order = np.argsort(pos[aidx], kind="stable")
            kstar = _scan_sorted(pos[aidx][order], n)
            if kstar > 0:
                dead = aidx[order[:kstar]]
                alive[dead] = False
                death_time[dead] = t[k]
                pos[alive] -= kstar / n

            if cfg.bridge_correction and np.any(alive):
                aidx2 = np.nonzero(alive)[0]
                keep = np.isin(aidx, aidx2)
                zo = z_old[keep]
                zn = pos[aidx2]
                expo = -2.0 * zo * zn / cfg.dt
                at_risk = np.nonzero(expo > -40.0)[0]
                ub = rng.uniform_block(cfg.seed, rng.BRIDGE, k, len(at_risk))
                crossed = np.zeros(len(aidx2), dtype=bool)
                crossed[at_risk] = ub < np.exp(expo[at_risk])
                if np.any(crossed):
                    pos[aidx2[crossed]] = 0.0
                    order2 = np.argsort(pos[aidx2], kind="stable")
                    kstar2 = _scan_sorted(pos[aidx2][order2], n)
                    dead2 = aidx2[order2[:kstar2]]
                    alive[dead2] = False
                    death_time[dead2] = t[k]
                    pos[alive] -= kstar2 / n

        lam[k] = (n - int(np.count_nonzero(alive))) / n

    frontier = FrontierPath(t=t, lam=lam)
    ensemble = ParticleEnsemble(n=n, positions=pos, alive=alive,
                                death_time=death_time, seed=cfg.seed)
    return frontier, ensemble


def physical_jump_bruteforce(values, n):
    """Exact cascade size inf{x > 0 : F_n(x) < x}, F_n(x) = #{y_i <= x} / n.

    Every float is a rational, so the positions and the lines k/n are compared
    exactly. F_n is constant on each gap (a, b) between consecutive breakpoints
    {k/n} and {y_i > 0}, so the first gap with F_n < b gives the infimum,
    max(a, F_n).
    """
    ys = sorted(Fraction(float(v)) for v in np.ravel(values))
    points = sorted({Fraction(k, n) for k in range(n + 1)} | {y for y in ys if y > 0})
    for a, b in zip(points, points[1:] + [math.inf]):
        level = Fraction(bisect.bisect_right(ys, a), n)
        if level < b:
            return float(max(a, level))


_CHUNK = 8192


def bruteforce_sup_ratio(d, n_y=1000, n_h=1000):
    """Brute-force sup of (F(y+h) - F(y)) / h over y in the good set, h > 0,
    y + h <= a1. Grids cover the bands [a_{2n+2}, rho a_{2n+1}] (n <= 12)
    and [a_2, a1]; the value approaches L from below as the grids refine."""
    rho = float(compute_L(d).rho)
    a1 = float(d.a1)
    pieces = [(float(d.even_endpoint(n + 1)), rho * float(d.odd_endpoint(n + 1)))
              for n in range(1, 13)] + [(float(d.even_endpoint(1)), a1)]
    lengths = np.asarray([hi - lo for lo, hi in pieces])
    counts = np.maximum((n_y * lengths / lengths.sum()).astype(int), 8)
    ys = np.concatenate([np.linspace(lo, hi, c) for (lo, hi), c in zip(pieces, counts)])
    hs = np.geomspace(1e-4 * a1, a1, n_h)
    Fy = np.asarray(d.cdf(ys))
    best = 0.0
    for h in hs:
        ok = ys + h <= a1
        if np.any(ok):
            best = max(best, float(np.max((np.asarray(d.cdf(ys[ok] + h)) - Fy[ok]) / h)))
    return best


def sup_pdf_band_walk(d, lo, hi):
    """(sup, argmax) of the band density's pdf on (lo, hi], walking the ideal
    (untruncated) float bands down from hi: the first band of the largest
    level, and the midpoint of its part inside the window.

    Band n is [a_{2n+1}, a_{2n-1}) with a_{2n-1} = r^(n-1) a1 and a_{2n} =
    p r^(n-1) a1 in float powers; each step reads the band of the largest
    float below the current edge, so a window a few ulps wide reads only the
    band its inside lies in."""
    alpha1, alpha2, p, r, a1 = (float(v) for v in (d.alpha1, d.alpha2, d.p, d.r, d.a1))
    lo = max(float(lo), 0.0)
    hi = min(float(hi), a1)
    if not hi > lo:
        return 0.0, None
    best, arg = 0.0, None
    x = hi
    while x > lo:
        y = float(np.nextafter(x, 0.0))
        n = 1
        while y < r ** n * a1:
            n += 1
        a_even = p * r ** (n - 1) * a1
        if y >= a_even:
            level, blo, bhi = alpha1, a_even, r ** (n - 1) * a1
        else:
            level, blo, bhi = alpha2, r ** n * a1, a_even
        if level > best:
            best = level
            arg = 0.5 * (max(blo, lo) + min(bhi, hi))
        if best == alpha2 or blo <= 0.0:
            break
        x = blo
    return best, arg


def picard_minimal_negb(density, cfg, keep_iterates=False, moves=None):
    """``picard_minimal`` with its own store of -B paths, as it stood before the
    shared ``brownian_chunks`` generator; its iterates must match bit for bit.

    It evaluates F at every (path, step) of its dense running max Y, rounds
    each value to an integer q = rint(F 2^s), s = 62 - M.bit_length(), sums the
    q of each step and divides the sum by 2^s M. Given a
    list ``moves``, each iteration appends the number of strict increases of Y
    along the paths, summed over all paths.
    """
    K = cfg.n_steps
    t = cfg.t_grid()
    M = cfg.picard.n_paths
    sqdt = math.sqrt(cfg.dt)

    chunks = [(lo, min(lo + _CHUNK, M)) for lo in range(0, M, _CHUNK)]
    negb32 = np.empty((M, K + 1), dtype=np.float32)
    for chunk_id, (lo, hi) in enumerate(chunks):
        z = rng.normal_block(cfg.seed, rng.PICARD_PATHS, chunk_id, (hi - lo) * K).reshape(hi - lo, K)
        path = np.empty((hi - lo, K + 1))
        path[:, 0] = 0.0
        np.cumsum(z * -sqdt, axis=1, out=path[:, 1:])
        negb32[lo:hi] = path.astype(np.float32)

    lam = np.zeros(K + 1)
    history = []
    iterates = []
    converged = False
    iterations = 0
    scale = 2.0 ** (62 - M.bit_length())
    partial = np.empty((len(chunks), K + 1), dtype=np.int64)
    chunk_moves = np.zeros(len(chunks), dtype=np.int64)

    def run_chunk(ci):
        lo, hi = chunks[ci]
        z = negb32[lo:hi].astype(np.float64) + lam[None, :]
        y = np.maximum.accumulate(z, axis=1)
        q = np.rint(np.asarray(density.cdf_fast(y)) * scale).astype(np.int64)
        partial[ci] = q.sum(axis=0)
        chunk_moves[ci] = np.count_nonzero(y[:, 1:] > y[:, :-1])

    for it in range(cfg.picard.max_iters):
        if cfg.threads > 1:
            with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
                list(pool.map(run_chunk, range(len(chunks))))
        else:
            for ci in range(len(chunks)):
                run_chunk(ci)
        new_lam = partial.sum(axis=0) / (scale * M)
        sup_change = float(np.max(np.abs(new_lam - lam)))
        history.append(sup_change)
        lam = new_lam
        if keep_iterates:
            iterates.append(lam.copy())
        if moves is not None:
            moves.append(int(chunk_moves.sum()))
        iterations = it + 1
        if sup_change < cfg.picard.tol:
            converged = True
            break

    frontier = FrontierPath(t=t, lam=lam)
    return PicardResult(frontier=frontier, iterations=iterations,
                        history=history, converged=converged, iterates=iterates)


def _running_max_chunk(seed, stream, chunk_id, lo, hi, sq_steps, lam):
    """Y paths for chunk [lo, hi): running max of (-B + lam) on the grid."""
    m = hi - lo
    K = len(sq_steps)
    z = rng.normal_block(seed, stream, chunk_id, m * K).reshape(m, K)
    negb = np.empty((m, K + 1))
    negb[:, 0] = 0.0
    np.cumsum(z * -sq_steps, axis=1, out=negb[:, 1:])
    negb += lam[None, :]
    return np.maximum.accumulate(negb, axis=1)


def compute_Y_samples_negb(frontier, n_paths, seed, stream=rng.Y_SAMPLES):
    """``compute_Y_samples`` through its own -B chunk loop, as it stood before
    the shared ``brownian_chunks`` generator."""
    sq_steps = np.sqrt(np.diff(frontier.t))
    out = np.empty((n_paths, len(frontier.t)))
    for chunk_id, lo in enumerate(range(0, n_paths, _CHUNK)):
        hi = min(lo + _CHUNK, n_paths)
        out[lo:hi] = _running_max_chunk(seed, stream, chunk_id, lo, hi, sq_steps, frontier.lam)
    return out


def simulate_drifted_sup_concat(c3, n_paths=20000, n_steps=2000, seed=0):
    """``simulate_drifted_sup`` with its own 8192-path loop, as it stood before
    the shared ``brownian_chunks`` generator."""
    t = np.linspace(0.0, 1.0, n_steps + 1)
    drift = c3 * np.sqrt(t)
    sqd = np.sqrt(np.diff(t))
    out = np.empty(n_paths)
    lo = 0
    chunk_id = 0
    while lo < n_paths:
        hi = min(lo + 8192, n_paths)
        z = rng.normal_block(seed, rng.U_SUP, chunk_id, (hi - lo) * n_steps).reshape(hi - lo, n_steps)
        b = np.concatenate([np.zeros((hi - lo, 1)), np.cumsum(z * sqd, axis=1)], axis=1)
        out[lo:hi] = np.max(b + drift[None, :], axis=1)
        lo = hi
        chunk_id += 1
    return np.sort(out)


def drifted_sup_bridge_mc(c3, x, n_paths, n_steps, seed):
    """P(sup over [0, 1] of (B_s + c3 sqrt(s)) <= x) per x, from n_paths
    paths on the grid s_k = (k / n_steps)^2, which is fine where sqrt(s) bends
    most. In each step the path's maximum is drawn from its Brownian bridge,
    (a + b + sqrt((b - a)^2 - 2 ds log V)) / 2 with V uniform, which is exact
    when the drift is linear over the step; the chord of the concave drift lies
    below it by at most c3 / (4 n_steps) in the first step and far less after.
    Returns (probabilities, binomial standard errors)."""
    chunk = 10_000
    gen = np.random.default_rng(seed)
    s = (np.arange(n_steps + 1) / n_steps) ** 2
    ds = np.diff(s)
    drift = c3 * np.sqrt(s)
    x = np.asarray(x, dtype=float)
    below = np.zeros(len(x))
    for lo in range(0, n_paths, chunk):
        m = min(chunk, n_paths - lo)
        path = np.zeros((m, n_steps + 1))
        np.cumsum(gen.standard_normal((m, n_steps)) * np.sqrt(ds), axis=1, out=path[:, 1:])
        path += drift
        a, b = path[:, :-1], path[:, 1:]
        log_v = np.log1p(-gen.random((m, n_steps)))  # log V, V uniform on (0, 1]
        top = 0.5 * (a + b + np.sqrt((b - a) ** 2 - 2.0 * ds * log_v))
        below += (np.max(top, axis=1)[:, None] <= x).sum(axis=0)
    p = below / n_paths
    return p, np.sqrt(p * (1.0 - p) / n_paths)


def compute_Y_samples(frontier, n_paths, seed):
    """Materialized (n_paths, K+1) running-max samples from ``iter_y_chunks``."""
    out = np.empty((n_paths, len(frontier.t)))
    for (lo, hi), _, y in iter_y_chunks(frontier, n_paths, seed):
        out[lo:hi] = y
    return out


def pointwise_h_at(report, x):
    """Fitted nondecreasing pointwise margin of a ``PointwiseReport`` at x
    (0 outside the checked range)."""
    for (lo, hi, _), h in zip(report.windows, report.h_values):
        if lo < x <= hi:
            return float(h)
    return 0.0


def g_tilde_inverse_bisect(g, y):
    """s with s g(s) = y by bisection to 1e-12 on [0, last node]; 0 maps to 0."""
    if y == 0.0:
        return 0.0
    return bisect_nondecreasing(lambda s: s * g(s), 0.0, float(g.s_grid[-1]), y,
                                xtol=1e-12)


def increment_ratios_loop(d, cols, h_grid):
    """(means, standard errors) of (F(Z + h) - F(Z)) / h per (column, h) on the
    samples cols = Z[:, t_indices], one ``cdf_fast`` call per (column,
    8192-row block, h)."""
    sums = np.zeros((cols.shape[1], len(h_grid)))
    sq_sums = np.zeros_like(sums)
    total = len(cols)
    for c in range(cols.shape[1]):
        for lo in range(0, total, 8192):
            z = cols[lo:lo + 8192, c]
            Fz = np.asarray(d.cdf_fast(z))
            for hj, h in enumerate(h_grid):
                ratio = (np.asarray(d.cdf_fast(z + h)) - Fz) / h
                sums[c, hj] += ratio.sum()
                sq_sums[c, hj] += (ratio * ratio).sum()
    means = sums / total
    var = np.clip(sq_sums / total - means ** 2, 0.0, None)
    return means, np.sqrt(var / total)
