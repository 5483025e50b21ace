"""Pinned numbers of every random stream and of two small runs.

The library's same-seed contract holds within one numpy and scipy: the
``GAUSS_STEP`` ziggurat is numpy's ``Generator.standard_normal``, whose stream
numpy does not promise to keep, and every other normal is scipy's ``ndtri`` of
a Philox word. A version that moves them moves every frontier while the other
tests still pass; these pins fail instead. The values were recorded at
numpy 2.4.6 and scipy 1.17.1.
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
    "GAUSS_STEP": (rng.ziggurat_block, ["-0x1.3875607f83454p-3", "-0x1.0ce9d9258ea03p-3",
                                        "0x1.af0af8b5bc0dbp-3", "0x1.f9b687fc888e7p-1"]),
    "BRIDGE": (rng.uniform_block, ["0x1.2be17f64f965ep-3", "0x1.6f975c113a634p-1",
                                   "0x1.f688ec38febfep-1", "0x1.9d8c1f6b7bfe8p-5"]),
    "PICARD_PATHS": (rng.normal_block, ["0x1.3af3219a90915p+0", "-0x1.69c782099ee7ep-1",
                                        "0x1.914a96fc9e240p-1", "0x1.ef337ac8f7ca8p-2"]),
    "Y_SAMPLES": (rng.normal_block, ["0x1.961b15fa8484fp-1", "-0x1.1334652793917p+0",
                                     "0x1.d4395a39ffa1cp-1", "0x1.c57d88553ad34p+0"]),
    "U_SUP": (rng.normal_block, ["-0x1.aba67e7432c73p-1", "0x1.940cd2139ede3p-1",
                                 "-0x1.98f28c190714fp+0", "0x1.72b7238c60a5ap-2"]),
    "GAUSS_PATH": (rng.normal_block, ["0x1.bfad1912cec88p-1", "0x1.9f93722c99cebp+0",
                                      "0x1.2fd9f23bafcc9p+1", "0x1.c849b3ca44165p-5"]),
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
    assert fingerprint(frontier) == "52c33da9d502ce3e", _moved("the particle frontier")


def test_small_picard_run_is_pinned(pw_std):
    cfg = SolverConfig(dt=1e-3, T=0.05, seed=SEED, threads=2,
                       picard=PicardConfig(n_paths=2000))
    res = picard_minimal(pw_std, cfg)
    assert fingerprint(res.frontier) == "14514485f2015465", _moved("the Picard frontier")
