"""Counter-based random streams.

Every draw in the package is a pure function of (seed, stream kind, block, lane):
a Philox generator is keyed by the run seed and the 256-bit counter's two high
words select (block, kind), so per-particle / per-path logical streams are fixed
lanes of a vectorized block. Results are bit-identical for any thread count and
any chunking of the consumers, because any lane range of a block is
reproducible: a draw that starts at lane ``start`` sets the counter's low word
to the Philox output block holding that lane (four lanes per block).

Gaussians are produced by inverse-CDF of the uniform lane (one uniform per
normal), not by rejection, so the draw count per lane is deterministic.
"""
from __future__ import annotations

import numpy as np
from scipy.special import ndtri

# stream kinds (counter word 3)
GAUSS_STEP = 1      # particle-step increments, block = step index
BRIDGE = 2          # bridge-crossing uniforms, block = step index
PICARD_PATHS = 3    # Picard path increments, block = path-chunk index
Y_SAMPLES = 4       # running-max sample paths, block = path-chunk index
SLOPE_PROBE = 5     # slope-constant MC normals, block = grid index
U_SUP = 6           # drifted running-sup samples, block = path-chunk index
GAUSS_PATH = 7      # density path sampling, block = 0

_TWO53 = float(1 << 53)


def _uniforms(seed, kind, block, n, start=0):
    """Uniform lanes start .. start + n - 1 of stream (seed, kind, block).

    Philox emits four 64-bit words per counter value and each lane takes one
    word, so the counter starts at the block holding lane ``start`` and the
    ``start % 4`` lanes before it are drawn and dropped. ``uniform_block``
    keeps its four-argument form, which ``benchmarks/tracing.py`` wraps.
    """
    skip = start % 4
    counter = np.array([start // 4, 0, block, kind], dtype=np.uint64)
    g = np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=counter))
    bits = g.integers(0, 1 << 53, size=skip + n, dtype=np.uint64)[skip:]
    return (bits.astype(np.float64) + 0.5) / _TWO53


def uniform_block(seed, kind, block, n):
    """n uniforms in the open interval (0, 1) for stream (seed, kind, block)."""
    return _uniforms(seed, kind, block, n)


def normal_block(seed, kind, block, n, lanes=None, start=0):
    """n standard normals, inverse-CDF of the uniform stream.

    ``start`` is the first lane: the result equals
    ``normal_block(seed, kind, block, start + n)[start:]`` bit for bit. With
    ``lanes`` (an index array into the n drawn lanes) only those lanes are
    inverted: the result equals ``normal_block(seed, kind, block, n)[lanes]``
    bit for bit, because all n uniforms are still drawn.
    """
    u = _uniforms(seed, kind, block, n, start)
    return ndtri(u if lanes is None else u[lanes])
