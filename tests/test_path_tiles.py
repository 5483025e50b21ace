"""Brownian paths drawn in row tiles: a chunk's normals read tile by tile,
the bridge's uniforms, the tile layout, the memory the tiles save, and the
Picard iteration built on them.

``tests/test_brownian_paths.py`` referees the tiled consumers against the
whole-chunk loops bit for bit; these tests cover the pieces underneath.
"""
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stefanlab import make_piecewise, rng
from stefanlab.bounds import simulate_drifted_sup
from stefanlab.solver import (_CHUNK, _TILE, PicardConfig, SolverConfig, brownian_chunks,
                              picard_minimal)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), block=st.integers(0, 50), width=st.integers(1, 300),
       rows=st.lists(st.integers(0, 40), max_size=8))
def test_chunk_drawn_tile_by_tile_equals_its_whole_block(seed, block, width, rows):
    # brownian_chunks reads a chunk's tiles in order from its one normal stream
    gen = rng.stream(seed, rng.Y_SAMPLES, block)
    tiles = [gen.standard_normal((r, width)) for r in rows]
    got = np.concatenate(tiles) if tiles else np.empty((0, width))
    want = rng.normal_block(seed, rng.Y_SAMPLES, block, sum(rows) * width)
    assert got.tobytes() == want.tobytes()


class _GridEnds:
    """A stand-in generator whose ``random`` returns the two least, a middle and
    the greatest value of its grid k 2^-53 on [0, 1)."""

    def random(self, n):
        return np.array([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53])[:n]


def test_uniform_map_stays_inside_the_unit_interval(monkeypatch):
    # random() lies in [0, 1); 1 - random() lies in (0, 1], least 2^-53, which
    # is above exp(-40), so the bridge may skip lanes that no uniform can kill
    monkeypatch.setattr(rng, "stream", lambda seed, kind, block: _GridEnds())
    u = rng.uniform_block(0, rng.BRIDGE, 0, 4)
    assert u.tolist() == [1.0, 1.0 - 2.0**-53, 0.5, 2.0**-53]
    assert np.all((0.0 < u) & (u <= 1.0)) and np.all(np.diff(u) < 0)
    assert u.min() == 2.0**-53 > np.exp(-40.0)


@settings(max_examples=200, deadline=None)
@given(n_paths=st.integers(1, 4 * _CHUNK + 5), width=st.integers(1, 40))
def test_row_tiles_cover_rows_in_order_inside_chunks(n_paths, width):
    # widths above _TILE / _CHUNK = 16 split a chunk into several tiles
    tiles = []
    for (lo, hi), B in brownian_chunks(5, rng.Y_SAMPLES, n_paths, np.ones(width)):
        assert B.shape == (hi - lo, width + 1)
        tiles.append((lo, hi))
    assert tiles[0][0] == 0 and tiles[-1][1] == n_paths
    for (lo, hi), (nxt, _) in zip(tiles, tiles[1:] + [(n_paths, None)]):
        assert lo < hi == nxt
        assert lo // _CHUNK == (hi - 1) // _CHUNK
        # a full tile holds _TILE numbers to within one row; only a chunk's last is short
        assert (hi - lo) * width <= max(_TILE, width)
        assert (hi - lo) * width > _TILE - width or hi % _CHUNK == 0 or hi == n_paths


def test_drifted_sup_memory_stays_at_tile_size():
    # one whole 8192 x 1000 chunk of float64 is 65.5 MB; the tiles need a few MB
    tracemalloc.start()
    try:
        simulate_drifted_sup(1.3, n_paths=8192, n_steps=1000, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def _admissible_band(alpha1, p, q, s):
    """Band density with beta2 < 1, which rules out a time-0 jump."""
    alpha2_max = (1.0 - p * q - alpha1 * q * (1.0 - p)) / (1.0 - q)
    return make_piecewise(alpha1, 1.0 + s * (alpha2_max - 1.0), p, q)


@settings(max_examples=15, deadline=None)
@given(alpha1=st.floats(0.05, 0.95), p=st.floats(0.1, 0.9), q=st.floats(0.1, 0.9),
       s=st.floats(0.05, 0.95), n_paths=st.integers(1, 2 * _CHUNK + 500),
       seed=st.integers(0, 2**32 - 1))
def test_picard_iterates_nondecreasing_and_thread_independent(alpha1, p, q, s, n_paths, seed):
    d = _admissible_band(alpha1, p, q, s)
    base = dict(n_particles=10, dt=0.005, T=0.1, seed=seed,
                picard=PicardConfig(n_paths=n_paths, max_iters=8, tol=1e-12))
    res1 = picard_minimal(d, SolverConfig(threads=1, **base))
    res2 = picard_minimal(d, SolverConfig(threads=2, **base))
    assert res1.history == res2.history
    prev = np.zeros(21)
    for got, other in zip(res1.iterates, res2.iterates):
        assert got.tobytes() == other.tobytes()
        assert np.all(got >= prev)
        prev = got
