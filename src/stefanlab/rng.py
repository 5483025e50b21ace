"""Keyed random streams.

Every draw in the package is a pure function of (seed, stream kind, block, lane),
so per-particle / per-path logical streams are fixed lanes of a vectorized
block, and results are bit-identical for any thread count and any chunking of
the consumers. Each kind of stream is drawn one of two ways:

* Normals (``normal_block``, ``normal_stream``): numpy's ziggurat
  ``Generator.standard_normal`` (Marsaglia & Tsang, J. Stat. Softw. 2000) on an
  SFC64 generator seeded by ``SeedSequence(seed, spawn_key=(kind, block))``.
  The spawn key keeps distinct triples apart where a flat entropy list does not
  (``[2**32 + 5, 3, 0]`` and ``[5, 1, 3]`` seed the same state). The ziggurat
  rejects now and then, so a lane has no fixed position in the bit stream: a
  lane is a position in the block's sequence. The first m values of a draw of
  any length equal a draw of m, and successive draws from one
  ``normal_stream`` read the next lanes, so a chunk read tile by tile equals
  its whole block.
* Uniforms (``uniform_block``, ``BRIDGE`` only): a Philox generator keyed by
  the seed, its 256-bit counter's two high words set to (block, kind), one
  64-bit word per lane. It costs about half an SFC64 seeding to build, and the
  particle scheme builds one a step on its main thread.

numpy promises no stability of a ``Generator`` method's stream across its
versions, so the normals hold for one numpy version; the tests pin the first
lanes of every kind at the numpy version they were recorded at.
"""
from __future__ import annotations

import numpy as np

# stream kinds; a retired kind's number is never reused
GAUSS_STEP = 1      # particle-step increments, block = step index, lane = survivor rank
BRIDGE = 2          # bridge-crossing uniforms, block = step index, lane = rank among the
                    # step's at-risk survivors (kill exponent > -40); no other draws
PICARD_PATHS = 3    # Picard path increments, block = path-chunk index
Y_SAMPLES = 4       # running-max sample paths, the bounds report's referee; block = chunk
U_SUP = 6           # drifted running-sup samples, the quadrature's referee; block = chunk
GAUSS_PATH = 7      # density path sampling, block = 0

_TWO53 = float(1 << 53)


def _unit(bits):
    """The uniforms (bits + 1/2) / 2^53 of 53-bit integers, in the open interval
    (0, 1): bits = 2^53 - 1 rounds to 1.0 and is moved to the largest double
    below 1."""
    u = (bits.astype(np.float64) + 0.5) / _TWO53
    return np.minimum(u, 1.0 - 2.0**-53, out=u)


def uniform_block(seed, kind, block, n):
    """n uniforms in the open interval (0, 1) for stream (seed, kind, block)."""
    counter = np.array([0, 0, block, kind], dtype=np.uint64)
    g = np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=counter))
    return _unit(g.integers(0, 1 << 53, size=n, dtype=np.uint64))


def normal_stream(seed, kind, block):
    """The generator of normal stream (seed, kind, block): its
    ``standard_normal`` calls read the block's lanes in order, from lane 0."""
    key = np.random.SeedSequence(seed, spawn_key=(kind, block))
    return np.random.Generator(np.random.SFC64(key))


def normal_block(seed, kind, block, n):
    """The first n standard normals of stream (seed, kind, block).

    The result equals ``normal_block(seed, kind, block, m)[:n]`` for every
    m >= n, so a consumer may draw more lanes than it reads.
    """
    return normal_stream(seed, kind, block).standard_normal(n)
