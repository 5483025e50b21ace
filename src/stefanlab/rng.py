"""Counter-based random streams.

Every draw in the package is a pure function of (seed, stream kind, block, lane):
a Philox generator is keyed by the run seed and the 256-bit counter's two high
words select (block, kind), so per-particle / per-path logical streams are fixed
lanes of a vectorized block. Results are bit-identical for any thread count and
any chunking of the consumers, because consumers always request whole blocks.

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


def _generator(seed, kind, block):
    counter = np.array([0, 0, block, kind], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=counter))


def uniform_block(seed, kind, block, n):
    """n uniforms in the open interval (0, 1) for stream (seed, kind, block)."""
    g = _generator(seed, kind, block)
    bits = g.integers(0, 1 << 53, size=n, dtype=np.uint64)
    return (bits.astype(np.float64) + 0.5) / _TWO53


def normal_block(seed, kind, block, n, lanes=None):
    """n standard normals, inverse-CDF of the uniform stream.

    With ``lanes`` (an index array into the block) only those lanes are
    inverted: the result equals ``normal_block(seed, kind, block, n)[lanes]``
    bit for bit, because the whole uniform block is still drawn.
    """
    u = uniform_block(seed, kind, block, n)
    return ndtri(u if lanes is None else u[lanes])
