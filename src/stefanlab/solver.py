"""Frontier solvers for the absorbed interacting-particle system.

Two routes to the frontier Lambda_t = P(absorption by t):

* ``simulate_particles``: n particles advance by Gaussian increments; at every
  grid instant the physical cascade is resolved exactly on the empirical
  measure, deaths shift the survivors down, and the dead fraction is the
  frontier estimate. The survivors are kept as a compact (ids, positions)
  pair, and each cascade sorts only the particles near the barrier
  (``_near_barrier_cascade``, shared with ``physical_jump_scan``).
* ``picard_minimal``: fixed-point iteration Lambda <- mean F(running max of
  (-B + Lambda)) over a common set of Brownian paths, increasing pointwise to
  the minimal solution. Assumes no time-0 jump (its value at 0 is F(0) = 0)
  and rejects a density whose stratified time-0 jump is positive.

All randomness is drawn from counter-based streams (see rng), so results are
bit-identical across runs and thread counts.
"""
from __future__ import annotations

import hashlib
import json
import math
import numbers
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict
from fractions import Fraction

import numpy as np

from . import rng
from .densities import Density, read_numeric_rows

__all__ = [
    "PicardConfig",
    "SolverConfig",
    "FrontierPath",
    "ParticleEnsemble",
    "PicardResult",
    "physical_jump_scan",
    "initial_jump_stratified",
    "simulate_particles",
    "picard_minimal",
    "iter_y_chunks",
    "brownian_chunks",
]

_CHUNK = 8192  # fixed path-chunk size; independent of thread count by design
_TILE = 1 << 17  # numbers per row tile of paths: working arrays stay cache-sized


class SolverConfigError(ValueError):
    pass


def _check_int(name, value, lo, hi=None):
    """value must be a non-bool integer in [lo, hi)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise SolverConfigError(f"{name} must be an integer, got {value!r}")
    if value < lo or (hi is not None and value >= hi):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi})"
        raise SolverConfigError(f"{name} must be {bound}, got {value}")


def _check_real(name, value, positive=True):
    """value must be a finite non-bool number, > 0 (positive) or else >= 0."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise SolverConfigError(f"{name} must be a finite number, got {value!r}")
    if value < 0.0 or (positive and value == 0.0):
        raise SolverConfigError(f"{name} must be {'positive' if positive else '>= 0'}, "
                                f"got {value}")


@dataclass(frozen=True)
class PicardConfig:
    n_paths: int = 10_000
    max_iters: int = 50
    tol: float = 1e-3

    def __post_init__(self):
        _check_int("picard.n_paths", self.n_paths, 1)
        _check_int("picard.max_iters", self.max_iters, 1)
        _check_real("picard.tol", self.tol)


@dataclass(frozen=True)
class SolverConfig:
    n_particles: int = 10_000
    dt: float = 1e-3
    T: float = 0.25
    seed: int = 0
    bridge_correction: bool = False
    jump_threshold: float | None = None
    threads: int = 1
    picard: PicardConfig = field(default_factory=PicardConfig)

    def __post_init__(self):
        _check_int("n_particles", self.n_particles, 1)
        _check_real("dt", self.dt)
        _check_real("T", self.T)
        _check_int("seed", self.seed, 0, 2**64)
        _check_int("threads", self.threads, 1)
        if not isinstance(self.bridge_correction, bool):
            raise SolverConfigError(
                f"bridge_correction must be true or false, got {self.bridge_correction!r}")
        if self.jump_threshold is not None:
            _check_real("jump_threshold", self.jump_threshold, positive=False)
        k = round(self.T / self.dt)
        if k < 1 or abs(k * self.dt - self.T) > 1e-9 * max(self.T, 1.0):
            raise SolverConfigError(f"dt={self.dt} does not divide T={self.T} evenly")

    @property
    def n_steps(self):
        return round(self.T / self.dt)

    def t_grid(self):
        return np.linspace(0.0, self.T, self.n_steps + 1)

    def effective_jump_threshold(self):
        if self.jump_threshold is not None:
            return float(self.jump_threshold)
        return max(5.0 / self.n_particles, 10.0 * math.sqrt(self.dt))

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        pic = d.pop("picard", None)
        known = {f for f in cls.__dataclass_fields__ if f != "picard"}
        extra = set(d) - known
        if extra:
            raise SolverConfigError(f"unknown config field {sorted(extra)[0]!r}")
        try:
            picard = PicardConfig() if pic is None else PicardConfig(**pic)
        except TypeError as exc:
            raise SolverConfigError(f"bad picard config: {exc}")
        return cls(picard=picard, **d)

    def config_hash(self):
        """Identifies the result: fields that cannot change it (threads) stay out."""
        d = self.to_dict()
        del d["threads"]
        blob = json.dumps(d, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class FrontierPath:
    """Nondecreasing frontier on a uniform time grid, plus detected jumps."""

    t: np.ndarray
    lam: np.ndarray
    jumps: list = field(default_factory=list)  # (t, delta) with delta > threshold

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.lam = np.asarray(self.lam, dtype=float)
        if self.t.shape != self.lam.shape or self.t.ndim != 1 or not self.t.size:
            raise ValueError("frontier t and lam must be matching non-empty 1-d arrays")
        if not np.all(np.isfinite(self.t)) or np.any(np.diff(self.t) <= 0.0):
            raise ValueError("frontier t must be finite and strictly increasing")
        if not np.all(np.isfinite(self.lam)):
            raise ValueError("frontier lam must be finite")
        if np.any(np.diff(self.lam) < 0.0):
            raise ValueError("frontier must be nondecreasing")
        if self.lam[0] < 0.0 or self.lam[-1] > 1.0 + 1e-12:
            raise ValueError("frontier values must lie in [0, 1]")

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,lambda,alive_fraction\n")
            for t, lam in zip(self.t, self.lam):
                fh.write(f"{float(t)!r},{float(lam)!r},{1.0 - float(lam)!r}\n")

    @staticmethod
    def read_csv(path):
        """Frontier from a CSV with the header t,lambda,...; every field of
        every other non-blank row must be a number (``read_numeric_rows``)."""
        with open(path, "r", encoding="utf-8") as fh:
            if fh.readline().strip().split(",")[:2] != ["t", "lambda"]:
                raise ValueError(f"{path}: expected header t,lambda,alive_fraction")
        rows = read_numeric_rows(path, ",")
        for lineno, nums in rows:
            if len(nums) < 2:
                raise ValueError(f"{path}:{lineno}: expected at least 2 fields, "
                                 f"got {len(nums)}")
        try:
            return FrontierPath(t=[nums[0] for _, nums in rows],
                                lam=[nums[1] for _, nums in rows])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


@dataclass
class ParticleEnsemble:
    n: int
    positions: np.ndarray  # full-length; entries of dead particles are stale
    alive: np.ndarray
    death_time: np.ndarray  # +inf while alive
    seed: int


@dataclass
class PicardResult:
    frontier: FrontierPath
    iterations: int
    history: list  # sup-change per iteration
    converged: bool
    iterates: list = field(default_factory=list)  # per-iteration frontiers


# ---------------------------------------------------------------------------
# cascade resolution
# ---------------------------------------------------------------------------


def _scan_sorted(y_sorted, n):
    """k* = min{k >= 0 : y_(k+1) > k/n} with y_(m+1) = +inf, for sorted y.

    The float k/n is k/n rounded, so a y_(k+1) equal to it is compared with
    k/n exactly: it lies above k/n when the rounding went up.
    """
    lines = np.arange(len(y_sorted)) / n
    hits = np.nonzero(y_sorted > lines)[0]
    kstar = int(hits[0]) if len(hits) else len(y_sorted)
    for k in np.nonzero(y_sorted[:kstar] == lines[:kstar])[0]:
        if Fraction(float(y_sorted[k])) * n > k:
            return int(k)
    return kstar


def _near_barrier_cascade(y, n):
    """Indices into y of the k* lowest positions, the particles the cascade kills.

    Only particles at or below k*/n can die, so the scan runs on the
    candidates y <= b alone, with b doubling from 8/n (or jumping to #cand/n)
    until the candidates settle k*: a hit inside them, every particle a
    candidate, or b >= #cand/n (then the next particle, above b, is a hit).
    Candidates come in index order, so the stable sort breaks ties exactly as
    a stable argsort of the whole of y does.
    """
    m = len(y)
    b = 8.0 / n
    while True:
        cand = np.nonzero(y <= b)[0]
        yc = y[cand]
        order = np.argsort(yc, kind="stable")
        kstar = _scan_sorted(yc[order], n)
        if kstar < len(cand) or len(cand) == m or b >= len(cand) / n:
            return cand[order[:kstar]]
        b = max(2.0 * b, len(cand) / n)


def physical_jump_scan(values, n):
    """Jump size of the physical cascade on the empirical measure.

    Returns Delta = k*/n where k* is the smallest k with y_(k+1) > k/n over
    the sorted positions (so the k* lowest particles die, and after the
    survivors shift down by Delta they all sit strictly above 0).
    """
    y = np.asarray(values, dtype=float).ravel()
    if len(y) > n:
        raise ValueError(f"got {len(y)} positions for ensemble size {n}")
    if np.any(np.isnan(y)):
        raise ValueError("positions must not be NaN")
    return len(_near_barrier_cascade(y, n)) / n


def initial_jump_stratified(y0_sorted, n):
    """Discrete time-0 jump for a stratified ensemble y_(k) = F^{-1}((2k-1)/(2n)).

    Equals the infimum rule inf{x > 0 : F(x) < x} sampled at the stratified
    quantiles: the first index with y_(k) strictly above (2k-1)/(2n) caps the
    cascade at (k-1)/n; if every particle sits at or below its line the whole
    ensemble freezes (jump 1).
    """
    y0_sorted = np.asarray(y0_sorted, dtype=float)
    lines = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
    above = y0_sorted > lines
    hits = np.nonzero(above)[0]
    if len(hits) == 0:
        return 1.0
    return int(hits[0]) / n


# ---------------------------------------------------------------------------
# particle scheme
# ---------------------------------------------------------------------------


def simulate_particles(density: Density, cfg: SolverConfig):
    """Run the cascade-resolving Euler scheme; returns (FrontierPath, ParticleEnsemble).

    Initialization is stratified (X_i = F^{-1}((i - 1/2)/n)), which makes the
    time-0 jump deterministic. Each step: Gaussian increments for the alive
    particles, one exact cascade resolution, survivors shift down by the jump.
    With cfg.bridge_correction, survivors are additionally killed with the
    within-step barrier-crossing probability exp(-2 z_old z_new / dt) and the
    cascade reruns once, removing the O(sqrt(dt)) endpoint-monitoring bias.

    The survivors live in a compact pair: ascending particle ids and their
    positions. A cascade sorts only the particles near the barrier
    (``_near_barrier_cascade``); the dead are scattered into the full-length
    outputs and dropped from the pair. Gaussian and bridge lanes stay indexed
    by particle id, and only the alive lanes are inverted.
    """
    n = cfg.n_particles
    K = cfg.n_steps
    t = cfg.t_grid()
    sqdt = math.sqrt(cfg.dt)
    threshold = cfg.effective_jump_threshold()

    u = (np.arange(n) + 0.5) / n
    pos = np.asarray(density.sample(u), dtype=float)
    lam0 = initial_jump_stratified(pos, n)
    death_time = np.full(n, np.inf)
    n_dead0 = round(lam0 * n)
    death_time[:n_dead0] = 0.0
    ids = np.arange(n_dead0, n)
    p = pos[n_dead0:] - lam0

    lam = np.empty(K + 1)
    lam[0] = lam0
    jumps = []
    if lam0 > threshold:
        jumps.append((0.0, lam0))

    def cascade(tk):
        """Kill the cascade on p at time tk; returns the survivors' mask and the jump."""
        nonlocal ids, p
        dead = _near_barrier_cascade(p, n)
        if len(dead) == 0:
            return None, 0.0
        gone = ids[dead]
        pos[gone] = p[dead]
        death_time[gone] = tk
        keep = np.ones(len(ids), dtype=bool)
        keep[dead] = False
        delta = len(dead) / n
        ids = ids[keep]
        p = p[keep] - delta
        return keep, delta

    for k in range(1, K + 1):
        step_delta = 0.0
        if len(ids):
            xi = rng.normal_block(cfg.seed, rng.GAUSS_STEP, k, n, lanes=ids)
            z_old = p.copy() if cfg.bridge_correction else None
            p += sqdt * xi
            keep, delta = cascade(t[k])
            step_delta += delta

            if cfg.bridge_correction and len(ids):
                zo = z_old if keep is None else z_old[keep]
                ub = rng.uniform_block(cfg.seed, rng.BRIDGE, k, n)[ids]
                p_hit = np.exp(-2.0 * zo * p / cfg.dt)
                crossed = ub < p_hit
                if np.any(crossed):
                    p[crossed] = 0.0
                    step_delta += cascade(t[k])[1]

        lam[k] = (n - len(ids)) / n
        if step_delta > threshold:
            jumps.append((float(t[k]), step_delta))

    pos[ids] = p
    alive = np.zeros(n, dtype=bool)
    alive[ids] = True
    frontier = FrontierPath(t=t, lam=lam, jumps=jumps)
    ensemble = ParticleEnsemble(n=n, positions=pos, alive=alive,
                                death_time=death_time, seed=cfg.seed)
    return frontier, ensemble


# ---------------------------------------------------------------------------
# running-max sample paths
# ---------------------------------------------------------------------------


def _row_tiles(n_rows, width):
    """(lo, hi) row tiles of about _TILE elements of the given row width; a
    tile never crosses an 8192-row chunk."""
    step = max(1, _TILE // width)
    for c_lo in range(0, n_rows, _CHUNK):
        c_hi = min(c_lo + _CHUNK, n_rows)
        for lo in range(c_lo, c_hi, step):
            yield lo, min(lo + step, c_hi)


def _brownian_tile(seed, stream, lo, hi, sq_steps):
    """Paths lo .. hi - 1 (inside one chunk), drawn from their lane offset in
    the chunk's normal block."""
    K = len(sq_steps)
    chunk_id, row = divmod(lo, _CHUNK)
    z = rng.normal_block(seed, stream, chunk_id, (hi - lo) * K, start=row * K)
    z = z.reshape(hi - lo, K)
    B = np.empty((hi - lo, K + 1))
    B[:, 0] = 0.0
    np.cumsum(np.multiply(z, sq_steps, out=z), axis=1, out=B[:, 1:])
    return B


def brownian_chunks(seed, stream, n_paths, sq_steps):
    """Yield ((lo, hi), B) for n_paths Brownian paths in cache-sized row tiles.

    B has one row per path, B[:, 0] = 0 and B[:, 1:] = cumsum(z * sq_steps),
    with z the normal block of the path's 8192-path chunk on the stream. A
    tile holds about _TILE numbers, never crosses a chunk, and is drawn from
    its lane offset in the chunk's block, so path j is the same number for
    number for every tiling, thread count and consumer.
    """
    for lo, hi in _row_tiles(n_paths, len(sq_steps)):
        yield (lo, hi), _brownian_tile(seed, stream, lo, hi, sq_steps)


def iter_y_chunks(frontier: FrontierPath, n_paths, seed):
    """Yield ((lo, hi), Y_tile) running-max samples against the frontier.

    Tiles come from ``brownian_chunks`` and have a fixed layout, so any
    consumer that reduces in tile order is deterministic regardless of how
    the tiles are processed.
    """
    sq_steps = np.sqrt(np.diff(frontier.t))
    for span, B in brownian_chunks(seed, rng.Y_SAMPLES, n_paths, sq_steps):
        yield span, np.maximum.accumulate(np.subtract(frontier.lam, B, out=B), axis=1)


# ---------------------------------------------------------------------------
# minimal-solution iteration
# ---------------------------------------------------------------------------


def picard_minimal(density: Density, cfg: SolverConfig):
    """Iterate Lambda <- mean_j F(running max of (-B_j + Lambda)) from 0.

    The same Brownian paths (common random numbers) are reused every iteration,
    which makes the iterates pointwise nondecreasing exactly: the running max
    is monotone in Lambda, F is evaluated through a monotone interpolation, and
    the per-chunk summation trees are fixed. Targets densities with no time-0
    jump; the iteration pins Lambda_0 = F(0) = 0, so a density whose
    stratified time-0 jump is positive raises ValueError.

    One pool of cfg.threads workers fills the float32 path store tile by tile
    and then runs every iteration, one 8192-path chunk per task. A chunk is
    processed in row tiles in a per-thread buffer whose row 0 carries the
    chunk's running sum, so each chunk is still summed row by row in order.
    """
    K = cfg.n_steps
    t = cfg.t_grid()
    M = cfg.picard.n_paths

    jump0 = initial_jump_stratified(density.sample((np.arange(M) + 0.5) / M), M)
    if jump0 > 0.0:
        raise ValueError(f"picard needs a density with no time-0 jump; the stratified "
                         f"jump at {M} paths is {jump0:g} (use the particle solver)")

    sq_steps = np.full(K, math.sqrt(cfg.dt))
    chunks = [(lo, min(lo + _CHUNK, M)) for lo in range(0, M, _CHUNK)]
    rows = max(1, _TILE // (K + 1))
    b32 = np.empty((M, K + 1), dtype=np.float32)
    buffers = threading.local()

    def fill_tile(span):
        lo, hi = span
        b32[lo:hi] = _brownian_tile(cfg.seed, rng.PICARD_PATHS, lo, hi, sq_steps)

    def run_chunk(ci):
        buf = getattr(buffers, "buf", None)
        if buf is None:
            buf = buffers.buf = np.empty((rows + 1, K + 1))
        lo, hi = chunks[ci]
        acc = partial[ci]
        for r in range(lo, hi, rows):
            m = min(rows, hi - r)
            y = buf[1:m + 1]
            np.subtract(lam, b32[r:r + m], out=y)
            np.maximum.accumulate(y, axis=1, out=y)
            y[...] = density.cdf_fast(y)
            if r == lo:
                np.add.reduce(y, axis=0, out=acc)
            else:
                buf[0] = acc
                np.add.reduce(buf[:m + 1], axis=0, out=acc)

    lam = np.zeros(K + 1)
    history = []
    iterates = []
    converged = False
    iterations = 0
    partial = np.empty((len(chunks), K + 1))

    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        list(pool.map(fill_tile, _row_tiles(M, K)))
        for it in range(cfg.picard.max_iters):
            list(pool.map(run_chunk, range(len(chunks))))
            new_lam = partial.sum(axis=0) / M
            sup_change = float(np.max(np.abs(new_lam - lam)))
            history.append(sup_change)
            lam = new_lam
            iterates.append(lam.copy())
            iterations = it + 1
            if sup_change < cfg.picard.tol:
                converged = True
                break

    frontier = FrontierPath(t=t, lam=lam, jumps=[])
    return PicardResult(frontier=frontier, iterations=iterations,
                        history=history, converged=converged, iterates=iterates)
