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
from scipy.special import ndtri

from stefanlab import make_piecewise, rng
from stefanlab.bounds import simulate_drifted_sup
from stefanlab.solver import _CHUNK, PicardConfig, SolverConfig, _row_tiles, picard_minimal


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), block=st.integers(0, 50), width=st.integers(1, 300),
       rows=st.lists(st.integers(0, 40), max_size=8))
def test_chunk_drawn_tile_by_tile_equals_its_whole_block(seed, block, width, rows):
    # brownian_chunks reads a chunk's tiles in order from its one normal stream
    gen = rng.normal_stream(seed, rng.Y_SAMPLES, block)
    tiles = [gen.standard_normal((r, width)) for r in rows]
    got = np.concatenate(tiles) if tiles else np.empty((0, width))
    want = rng.normal_block(seed, rng.Y_SAMPLES, block, sum(rows) * width)
    assert got.tobytes() == want.tobytes()


def test_uniform_map_stays_inside_the_unit_interval():
    # (2^53 - 1/2) / 2^53 rounds to 1.0, whose ndtri would be a silent +inf increment
    bits = np.array([0, 1, 2**53 - 2, 2**53 - 1], dtype=np.uint64)
    u = rng._unit(bits)
    assert np.all((0.0 < u) & (u < 1.0)) and np.all(np.diff(u) > 0)
    assert np.all(np.isfinite(ndtri(u)))


@settings(max_examples=200, deadline=None)
@given(n_rows=st.integers(1, 4 * _CHUNK + 5), width=st.integers(1, 5000))
def test_row_tiles_cover_rows_in_order_inside_chunks(n_rows, width):
    tiles = list(_row_tiles(n_rows, width))
    assert tiles[0][0] == 0 and tiles[-1][1] == n_rows
    for (lo, hi), (nxt, _) in zip(tiles, tiles[1:] + [(n_rows, None)]):
        assert lo < hi == nxt
        assert lo // _CHUNK == (hi - 1) // _CHUNK


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
