"""Keyed random streams.

Every draw in the package is a pure function of (seed, stream kind, block, lane),
so per-particle / per-path logical streams are fixed lanes of a vectorized
block, and results are bit-identical for any thread count and any chunking of
the consumers. There is one engine: stream (seed, kind, block) is an SFC64
generator seeded by ``SeedSequence(seed, spawn_key=(kind, block))``. The spawn
key keeps distinct triples apart where a flat entropy list does not
(``[2**32 + 5, 3, 0]`` and ``[5, 1, 3]`` seed the same state).

A lane is a position in its block's sequence. The normals are numpy's ziggurat
``Generator.standard_normal`` (Marsaglia & Tsang, J. Stat. Softw. 2000), which
rejects now and then, so a lane has no fixed position in the bit stream. The
first m values of a draw of any length equal a draw of m, and successive draws
from one ``stream`` read the next lanes, so a chunk read tile by tile equals
its whole block. The uniforms (``uniform_block``, ``BRIDGE`` only) are
1 - ``Generator.random``: multiples of 2^-53 in (0, 1], whose least value,
2^-53, is above exp(-40), so a bridge lane whose kill probability is below
exp(-40) needs no uniform.

numpy promises no stability of a ``Generator`` method's stream across its
versions, so the draws hold for one numpy version; the tests pin the first
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


def stream(seed, kind, block):
    """The generator of stream (seed, kind, block): its draws read the block's
    lanes in order, from lane 0."""
    key = np.random.SeedSequence(seed, spawn_key=(kind, block))
    return np.random.Generator(np.random.SFC64(key))


def normal_block(seed, kind, block, n):
    """The first n standard normals of stream (seed, kind, block).

    The result equals ``normal_block(seed, kind, block, m)[:n]`` for every
    m >= n, so a consumer may draw more lanes than it reads.
    """
    return stream(seed, kind, block).standard_normal(n)


def uniform_block(seed, kind, block, n):
    """The first n uniforms in (0, 1] of stream (seed, kind, block); a prefix
    of every longer draw, as in ``normal_block``."""
    return 1.0 - stream(seed, kind, block).random(n)
