"""Pinned numbers of every random stream and of two small runs.

The library's same-seed contract holds within one numpy: every stream is an
SFC64 generator, its normals numpy's ziggurat ``Generator.standard_normal`` and
the bridge's uniforms 1 - ``Generator.random``, methods whose streams numpy
does not promise to keep. A version that moves them moves every frontier while
the other tests still pass; these pins fail instead. The values were recorded
at numpy 2.4.6 and scipy 1.17.1.
"""
import hashlib

import numpy as np
import pytest

from stefanlab import rng
from stefanlab.solver import PicardConfig, SolverConfig, picard_minimal, simulate_particles

SEED = 2026
RECORDED_AT = "numpy 2.4.6 and scipy 1.17.1"

# the first four lanes of block 1 at seed 2026, as float.hex, drawn the way
# the library draws each kind
STREAM_PINS = {
    "GAUSS_STEP": (rng.normal_block, ["0x1.94adc41127c7bp-1", "0x1.b6f4437d9e60bp-1",
                                      "0x1.e5b3e84c40059p-2", "-0x1.3a44f966d0f5dp-1"]),
    "BRIDGE": (rng.uniform_block, ["0x1.b6a121901dbe4p-3", "0x1.f494bfcecaec8p-2",
                                   "0x1.ad0ab4d28abdep-1", "0x1.14526a2a0e8fep-1"]),
    "PICARD_PATHS": (rng.normal_block, ["-0x1.6bc2fe2767361p+0", "0x1.e62f28e9f7d13p-1",
                                        "0x1.f6b76e75ea7acp+0", "-0x1.89b679b8535b5p+0"]),
    "Y_SAMPLES": (rng.normal_block, ["0x1.5f4cb37e6cc9cp-1", "-0x1.5602abc568433p-2",
                                     "-0x1.51e5a676de515p-1", "0x1.cff3249083f1dp-2"]),
    "U_SUP": (rng.normal_block, ["0x1.08cb9738d2458p-1", "-0x1.14f0586f5c9aap-1",
                                 "-0x1.2e25f391bc5f6p-2", "0x1.7f29deb3a29d0p-1"]),
    "GAUSS_PATH": (rng.normal_block, ["0x1.afa8c81ea7537p-4", "-0x1.924ec3e0e1dcep-1",
                                      "-0x1.963d0274f9682p-1", "0x1.25f10df441ae7p-2"]),
}


def _moved(what):
    return (f"{what} moved from its value at {RECORDED_AT}; a deliberate change of "
            "the library's numbers must be declared in CHANGES.md")


def fingerprint(frontier):
    """sha256 of the frontier's t then lam bytes, as the benchmark's workloads hash it."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(frontier.t, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(frontier.lam, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def test_every_stream_kind_the_library_draws_is_pinned():
    kinds = {name for name in vars(rng) if name.isupper() and not name.startswith("_")}
    assert kinds == set(STREAM_PINS)


@pytest.mark.parametrize("kind", sorted(STREAM_PINS))
def test_stream_first_lanes_are_pinned(kind):
    draw, want = STREAM_PINS[kind]
    got = [float(v).hex() for v in draw(SEED, getattr(rng, kind), 1, 4)]
    assert got == want, _moved(f"stream {kind}")


def test_small_particle_run_is_pinned(pw_std):
    cfg = SolverConfig(n_particles=2000, dt=1e-3, T=0.05, seed=SEED, bridge_correction=True,
                       threads=2)
    frontier, _ = simulate_particles(pw_std, cfg)
    assert fingerprint(frontier) == "6e871955217f2aca", _moved("the particle frontier")


def test_small_picard_run_is_pinned(pw_std):
    cfg = SolverConfig(dt=1e-3, T=0.05, seed=SEED, threads=2,
                       picard=PicardConfig(n_paths=2000))
    res = picard_minimal(pw_std, cfg)
    assert fingerprint(res.frontier) == "480f981dead81758", _moved("the Picard frontier")
