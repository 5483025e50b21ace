"""Counter-based random streams.

Every draw in the package is a pure function of (seed, stream kind, block, lane):
a Philox generator is keyed by the run seed and the 256-bit counter's two high
words select (block, kind), so per-particle / per-path logical streams are fixed
lanes of a vectorized block. Results are bit-identical for any thread count and
any chunking of the consumers. Each kind of stream is drawn by exactly one of
the functions below, in one of two ways:

* Inverse CDF (``uniform_block``, ``normal_block``): one 64-bit word per lane,
  so any lane range of a block is reproducible. A draw that starts at lane
  ``start`` sets the counter's low word to the Philox output block holding that
  lane (four lanes per block). The tiled path streams (``PICARD_PATHS``,
  ``Y_SAMPLES``, ``U_SUP``) and every other normal stream use this.
* Ziggurat (``ziggurat_block``, for ``GAUSS_STEP`` only): numpy's
  ``Generator.standard_normal`` (Marsaglia & Tsang, J. Stat. Softw. 2000), which
  rejects now and then, so a lane has no fixed counter position. A lane is a
  position in the block's sequence: the first m values of a draw of any length
  equal a draw of m, and no other lane range can be drawn on its own. numpy
  promises no stability of a ``Generator`` method's stream across its versions,
  so this stream's numbers hold for one numpy version; the tests pin the first
  lanes of every kind at the numpy and scipy versions they were recorded at.
"""
from __future__ import annotations

import numpy as np
from scipy.special import ndtri

# stream kinds (counter word 3); a retired kind's number is never reused
GAUSS_STEP = 1      # particle-step increments, block = step index, lane = survivor rank
BRIDGE = 2          # bridge-crossing uniforms, block = step index, lane = rank among the
                    # step's at-risk survivors (kill exponent > -40); no other draws
PICARD_PATHS = 3    # Picard path increments, block = path-chunk index
Y_SAMPLES = 4       # running-max sample paths, the bounds report's referee; block = chunk
U_SUP = 6           # drifted running-sup samples, the quadrature's referee; block = chunk
GAUSS_PATH = 7      # density path sampling, block = 0

_TWO53 = float(1 << 53)


def _philox(seed, kind, block, word0):
    """Generator for stream (seed, kind, block) from Philox output block word0."""
    counter = np.array([word0, 0, block, kind], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=counter))


def _uniforms(seed, kind, block, n, start=0):
    """Uniform lanes start .. start + n - 1 of stream (seed, kind, block).

    Philox emits four 64-bit words per counter value and each lane takes one
    word, so the counter starts at the block holding lane ``start`` and the
    ``start % 4`` lanes before it are drawn and dropped. ``uniform_block``
    keeps its four-argument form, which ``benchmarks/tracing.py`` wraps.
    """
    skip = start % 4
    g = _philox(seed, kind, block, start // 4)
    return _unit(g.integers(0, 1 << 53, size=skip + n, dtype=np.uint64)[skip:])


def _unit(bits):
    """The uniforms (bits + 1/2) / 2^53 of 53-bit integers, in the open interval
    (0, 1): bits = 2^53 - 1 rounds to 1.0, whose ``ndtri`` is +inf, and is
    moved to the largest double below 1."""
    u = (bits.astype(np.float64) + 0.5) / _TWO53
    return np.minimum(u, 1.0 - 2.0**-53, out=u)


def uniform_block(seed, kind, block, n):
    """n uniforms in the open interval (0, 1) for stream (seed, kind, block)."""
    return _uniforms(seed, kind, block, n)


def normal_block(seed, kind, block, n, start=0):
    """n standard normals, inverse-CDF of the uniform stream.

    ``start`` is the first lane: the result equals
    ``normal_block(seed, kind, block, start + n)[start:]`` bit for bit.
    """
    return ndtri(_uniforms(seed, kind, block, n, start))


def ziggurat_block(seed, kind, block, n):
    """The first n standard normals of stream (seed, kind, block), by ziggurat.

    The result equals ``ziggurat_block(seed, kind, block, m)[:n]`` for every
    m >= n, so a consumer may draw more lanes than it reads.
    """
    return _philox(seed, kind, block, 0).standard_normal(n)
