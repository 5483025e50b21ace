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
  and rejects a density whose stratified time-0 jump is positive. The paths
  are stored time-major, one float32 row per grid step. Each iteration sweeps
  the steps in order, one task per contiguous run of paths, and evaluates F
  only where a path's running max moves, about one (path, step) in ten. F is
  summed exactly as integers of 2^-s, so each run's total is updated only
  where a path moved and does not depend on how the paths are split.

All randomness is drawn from counter-based streams (see rng), so results are
bit-identical across runs and thread counts.
"""
from __future__ import annotations

import hashlib
import json
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, asdict
from fractions import Fraction

import numpy as np

from . import rng
from .densities import Density, _check_int, _check_real, read_numeric_rows, write_numeric_rows

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
    "SOLVER_FIELDS",
    "result_hash",
]

_CHUNK = 8192  # fixed path-chunk size; independent of thread count by design
_TILE = 1 << 17  # numbers per row tile of paths: working arrays stay cache-sized
_AHEAD = 1 << 19  # random numbers per batch the particle scheme draws ahead (4 MB)


class SolverConfigError(ValueError):
    pass


@dataclass(frozen=True)
class PicardConfig:
    n_paths: int = 10_000
    max_iters: int = 50
    tol: float = 1e-3

    def __post_init__(self):
        _check_int(SolverConfigError, "picard.n_paths", self.n_paths, 1)
        _check_int(SolverConfigError, "picard.max_iters", self.max_iters, 1)
        _check_real(SolverConfigError, "picard.tol", self.tol)


@dataclass(frozen=True)
class SolverConfig:
    n_particles: int = 10_000
    dt: float = 1e-3
    T: float = 0.25
    seed: int = 0
    bridge_correction: bool = False
    threads: int = 1
    picard: PicardConfig = field(default_factory=PicardConfig)

    def __post_init__(self):
        _check_int(SolverConfigError, "n_particles", self.n_particles, 1)
        _check_real(SolverConfigError, "dt", self.dt)
        _check_real(SolverConfigError, "T", self.T)
        _check_int(SolverConfigError, "seed", self.seed, 0, 2**64)
        _check_int(SolverConfigError, "threads", self.threads, 1)
        if self.bridge_correction is not True and self.bridge_correction is not False:
            raise SolverConfigError(
                f"bridge_correction must be true or false, got {self.bridge_correction!r}")
        _check_real(SolverConfigError, "T/dt", self.T / self.dt)
        k = round(self.T / self.dt)
        if k < 1 or abs(k * self.dt - self.T) > 1e-9 * max(self.T, 1.0):
            raise SolverConfigError(f"dt={self.dt} does not divide T={self.T} evenly")

    @property
    def n_steps(self):
        return round(self.T / self.dt)

    def t_grid(self):
        return np.linspace(0.0, self.T, self.n_steps + 1)

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


@dataclass
class FrontierPath:
    """Nondecreasing frontier on a uniform time grid that starts at t = 0 and
    holds at least two times."""

    t: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.lam = np.asarray(self.lam, dtype=float)
        if self.t.shape != self.lam.shape or self.t.ndim != 1 or self.t.size < 2:
            raise ValueError("frontier t and lam must be matching 1-d arrays of at least two times")
        if not np.all(np.isfinite(self.t)) or np.any(np.diff(self.t) <= 0.0):
            raise ValueError("frontier t must be finite and strictly increasing")
        if self.t[0] != 0.0:
            raise ValueError(f"frontier must start at t = 0, got t = {self.t[0]:g}")
        if not np.all(np.isfinite(self.lam)):
            raise ValueError("frontier lam must be finite")
        if np.any(np.diff(self.lam) < 0.0):
            raise ValueError("frontier must be nondecreasing")
        if self.lam[0] < 0.0 or self.lam[-1] > 1.0 + 1e-12:
            raise ValueError("frontier values must lie in [0, 1]")

    def jumps(self, n):
        """[(t_k, delta_k)] of the jumps of a frontier of n samples (particles or paths):
        delta_0 = lam_0 and delta_k = lam_k - lam_{k-1}, kept when above max(5/n,
        10 sqrt(t_1 - t_0)), which sets a cascade apart from one step's attrition."""
        _check_int(ValueError, "n", n, 1)
        delta = np.diff(self.lam, prepend=0.0)
        threshold = max(5.0 / n, 10.0 * math.sqrt(self.t[1] - self.t[0]))
        return [(float(self.t[k]), float(delta[k])) for k in np.flatnonzero(delta > threshold)]

    def write_csv(self, path):
        write_numeric_rows(path, ("t", "lambda", "alive_fraction"),
                           zip(self.t, self.lam, 1.0 - self.lam))

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
    # full-length; a dead particle's entry is its position when it died: its
    # initial position after a time-0 death, 0 after a bridge kill
    positions: np.ndarray
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

    @property
    def tail_estimate(self):
        """Estimated sup distance from the last iterate to the limit: r/(1 - r)
        times the last sup-change, with r the ratio of the last two (the
        remainder of a geometric series). None with fewer than two changes or
        when they do not shrink."""
        if len(self.history) < 2 or self.history[-1] >= self.history[-2]:
            return None
        r = self.history[-1] / self.history[-2]
        return r / (1.0 - r) * self.history[-1]


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


def _bridge_kills(seed, k, z_old, z_new, dt):
    """Indices of step k's survivors that the bridge kills: those at risk, with
    exponent -2 z_old z_new / dt above -40, read the lanes of ``BRIDGE`` block k
    in order and die when their uniform is below exp(exponent). The rest draw
    nothing: exp(-40) < 2^-54, the least uniform, so no uniform could kill them."""
    expo = -2.0 * z_old * z_new / dt
    at_risk = np.flatnonzero(expo > -40.0)
    if len(at_risk) == 0:
        return at_risk
    return at_risk[rng.uniform_block(seed, rng.BRIDGE, k, len(at_risk)) < np.exp(expo[at_risk])]


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
    outputs and dropped from the pair. A survivor's Gaussian lane is its rank
    in the ascending ids: step k reads the first len(ids) lanes of its
    ``GAUSS_STEP`` block (``rng.ziggurat_block``). After the first cascade the
    main thread draws step k's ``BRIDGE`` lanes, one per survivor at risk of a
    kill and none for the rest, which no uniform could kill (``_bridge_kills``).

    The Gaussian blocks are drawn, as scaled normals, in batches of a fixed
    _AHEAD // n steps, each block with one lane per survivor of when its batch
    is requested (``request``), never fewer than the survivors who read it.
    With cfg.threads >= 2 one worker draws the next batch from the front while
    the current one is worked through, and the main thread then draws from the
    back what the worker has not started (``collect``). A block's first m lanes
    do not depend on how many are drawn, so the result is bit-identical at any
    thread count and any split of a batch. At most two batches (8 MB) exist at
    once, a step's block is freed once it is done, and no batch is requested
    once every particle is dead.
    """
    n = cfg.n_particles
    K = cfg.n_steps
    t = cfg.t_grid()
    sqdt = math.sqrt(cfg.dt)

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

    def cascade(tk):
        """Kill the cascade on p at time tk; returns the survivors' mask, None if none die."""
        nonlocal ids, p
        dead = _near_barrier_cascade(p, n)
        if len(dead) == 0:
            return None
        gone = ids[dead]
        pos[gone] = p[dead]
        death_time[gone] = tk
        keep = np.ones(len(ids), dtype=bool)
        keep[dead] = False
        ids = ids[keep]
        p = p[keep] - len(dead) / n
        return keep

    bridge = cfg.bridge_correction
    per_batch = max(1, _AHEAD // n)

    def take(pop, drawn, m):
        """Draw the steps pop() hands out until none is left: step k's
        increments, its normals times sqrt(dt), m lanes."""
        while True:
            try:
                k = pop()
            except IndexError:
                return drawn
            dz = rng.ziggurat_block(cfg.seed, rng.GAUSS_STEP, k, m)
            dz *= sqdt
            drawn[k] = dz

    def request(lo):
        """The batch of steps from lo, with one lane per survivor of now:
        (steps not yet drawn, drawn steps by step, m, the worker's future or
        None). The worker takes steps from the front."""
        todo = deque(range(lo, min(lo + per_batch, K + 1)))
        drawn = {}
        m = len(ids)
        return todo, drawn, m, pool.submit(take, todo.popleft, drawn, m) if pool else None

    def collect(todo, drawn, m, worker):
        """The batch's drawn steps. The main thread takes, from the back, the
        steps the worker has not started (every step without one); then it
        reads the worker's future, also when its own draw failed."""
        try:
            return take(todo.pop, drawn, m)
        except BaseException:
            todo.clear()  # the worker stops after the step it is drawing
            raise
        finally:
            if worker:
                worker.result()

    with ThreadPoolExecutor(max_workers=1) if cfg.threads > 1 else nullcontext() as pool:
        ahead = None
        for lo in range(1, K + 1, per_batch):
            # the batch drawn ahead is collected even when unused, so its error is raised
            batch = collect(*ahead) if ahead else collect(*request(lo)) if len(ids) else None
            ahead = request(lo + per_batch) if pool and len(ids) and lo + per_batch <= K else None
            for k in range(lo, min(lo + per_batch, K + 1)):
                if len(ids):  # popped, so a step's block is freed as soon as it is done
                    z_old = p.copy() if bridge else None
                    p += batch.pop(k)[:len(p)]
                    keep = cascade(t[k])
                    if bridge and len(ids):
                        zo = z_old if keep is None else z_old[keep]
                        crossed = _bridge_kills(cfg.seed, k, zo, p, cfg.dt)
                        if len(crossed):
                            p[crossed] = 0.0
                            cascade(t[k])
                lam[k] = (n - len(ids)) / n

    pos[ids] = p
    alive = np.zeros(n, dtype=bool)
    alive[ids] = True
    frontier = FrontierPath(t=t, lam=lam)
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
    """Yield ((lo, hi), X_tile, Y_tile): the paths X = Lambda - B and their
    running max Y, in the fixed tiles of ``brownian_chunks``, so a consumer
    that reduces in tile order is deterministic however the tiles are processed."""
    sq_steps = np.sqrt(np.diff(frontier.t))
    for span, B in brownian_chunks(seed, rng.Y_SAMPLES, n_paths, sq_steps):
        x = np.subtract(frontier.lam, B, out=B)
        yield span, x, np.maximum.accumulate(x, axis=1)


# ---------------------------------------------------------------------------
# minimal-solution iteration
# ---------------------------------------------------------------------------


def picard_minimal(density: Density, cfg: SolverConfig):
    """Iterate Lambda <- mean_j F(running max of (-B_j + Lambda)) from 0.

    The same Brownian paths (common random numbers) are reused every iteration,
    which makes the iterates pointwise nondecreasing exactly: the running max
    is monotone in Lambda, F is evaluated through a monotone interpolation, and
    the mean is taken from exact integer sums. Targets densities with no time-0
    jump; the iteration pins Lambda_0 = F(0) = 0, so a density whose
    stratified time-0 jump is positive raises ValueError.

    Each F value is held as the integer q = rint(F 2^s), s = 62 - M.bit_length(),
    so that the q of all M paths sum exactly in int64, in any order. Lambda_j is
    the sum of the q at step j over 2^s M: it lies within 2^-(63 - M.bit_length())
    of the mean of the F values. A non-finite F raises ValueError.

    The float32 path store is time-major, one row of M paths per grid step,
    filled by the pool from ``_brownian_tile``s transposed on write, so it holds
    the same numbers as a path-major store. The paths are split into
    cfg.threads contiguous runs, and each iteration runs one task per run. A
    task sweeps the steps j = 1..K carrying each path's running max Y and q, and
    the run's total of q: only the paths with Lambda_j - B_j > Y move, only they
    get a new ``cdf_fast`` value, and the total changes by their change in q.
    The totals are exact, so the iterates are the same at any thread count.
    """
    K = cfg.n_steps
    t = cfg.t_grid()
    M = cfg.picard.n_paths

    jump0 = initial_jump_stratified(density.sample((np.arange(M) + 0.5) / M), M)
    if jump0 > 0.0:
        raise ValueError(f"picard needs a density with no time-0 jump; the stratified "
                         f"jump at {M} paths is {jump0:g} (use the particle solver)")

    sq_steps = np.full(K, math.sqrt(cfg.dt))
    cuts = [M * i // cfg.threads for i in range(cfg.threads + 1)]
    runs = [(a, b) for a, b in zip(cuts, cuts[1:]) if a < b]
    scale = 2.0 ** (62 - int(M).bit_length())  # M values of at most 2^s stay below 2^62
    b32 = np.empty((K + 1, M), dtype=np.float32)

    def fill_tile(span):
        lo, hi = span
        b32[:, lo:hi] = _brownian_tile(cfg.seed, rng.PICARD_PATHS, lo, hi, sq_steps).T

    def quantised_cdf(y):
        """F(y) in integer units of 2^-s; a non-finite F raises, uncast."""
        f = density.cdf_fast(y)
        if not np.all(np.isfinite(f)):
            raise ValueError(f"the density's F is not finite at Y = "
                             f"{float(y[~np.isfinite(f)][0]):g}")
        return np.rint(f * scale).astype(np.int64)

    def sweep(run):
        """One iteration on a run of paths; returns the run's total of q per step."""
        lo, hi = run
        x = np.empty(hi - lo)
        y = lam[0] - b32[0, lo:hi]
        q = quantised_cdf(y)
        total = np.empty(K + 1, dtype=np.int64)
        total[0] = q.sum()
        for j in range(1, K + 1):
            np.subtract(lam[j], b32[j, lo:hi], out=x)  # -B_j + Lambda_j
            moved = np.flatnonzero(x > y)
            total[j] = total[j - 1]
            if len(moved):
                xm = x[moved]
                y[moved] = xm
                q_new = quantised_cdf(xm)
                total[j] += (q_new - q[moved]).sum()
                q[moved] = q_new
        return total

    lam = np.zeros(K + 1)
    history = []
    iterates = []
    converged = False
    iterations = 0

    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        list(pool.map(fill_tile, _row_tiles(M, K)))
        for it in range(cfg.picard.max_iters):
            new_lam = sum(pool.map(sweep, runs)) / (scale * M)
            sup_change = float(np.max(np.abs(new_lam - lam)))
            history.append(sup_change)
            lam = new_lam
            iterates.append(lam.copy())
            iterations = it + 1
            if sup_change < cfg.picard.tol:
                converged = True
                break

    return PicardResult(frontier=FrontierPath(t=t, lam=lam), iterations=iterations,
                        history=history, converged=converged, iterates=iterates)


# ---------------------------------------------------------------------------
# what names a result
# ---------------------------------------------------------------------------

#: the config fields each solver reads; threads changes no result, so neither lists it
SOLVER_FIELDS = {
    "particle": ("n_particles", "dt", "T", "seed", "bridge_correction"),
    "picard": ("dt", "T", "seed", "picard"),
}


def result_hash(density: Density, cfg: SolverConfig, solver):
    """Names the frontier a solver computes: a hash of the solver, the density's
    spec (the values a tabulated density read, not its path) and the config
    fields that solver reads."""
    d = cfg.to_dict()
    blob = json.dumps({"solver": solver, "density": density.spec_dict(),
                       "config": {f: d[f] for f in SOLVER_FIELDS[solver]}}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
