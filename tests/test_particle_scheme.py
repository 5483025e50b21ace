"""The particle scheme's fast cascade against its referees.

``simulate_particles`` sorts only the particles near the barrier and keeps the
survivors compact; ``tests/_oracles.simulate_particles_argsort`` is the step
loop with a full stable argsort every step. They must agree bit for bit.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import physical_jump_bruteforce, simulate_particles_argsort
from stefanlab import rng, uniform_density
from stefanlab.solver import (SolverConfig, _near_barrier_cascade, _scan_sorted,
                              physical_jump_scan, simulate_particles)


@pytest.mark.parametrize("density_name, kw", [
    ("band", dict(n_particles=20_000, dt=5e-4, T=0.25, seed=2026)),
    ("band", dict(n_particles=20_000, dt=5e-4, T=0.25, seed=7, bridge_correction=True)),
    ("sine", dict(n_particles=5_000, dt=1e-3, T=0.25, seed=2026, bridge_correction=True)),
    ("uniform_half", dict(n_particles=2_000, dt=1e-3, T=0.05, seed=1)),
    ("uniform_two", dict(n_particles=5_000, dt=1e-3, T=0.25, seed=1)),
], ids=["band", "band_bridge", "sine_bridge", "uniform_half", "uniform_two"])
def test_simulate_bit_identical_to_argsort_referee(density_name, kw, request):
    density = {
        "band": lambda: request.getfixturevalue("pw_std"),
        "sine": lambda: request.getfixturevalue("sine_density"),
        "uniform_half": lambda: uniform_density(0, 0.5),
        "uniform_two": lambda: uniform_density(0, 2),
    }[density_name]()
    cfg = SolverConfig(**kw)
    fr, ens = simulate_particles(density, cfg)
    fr_ref, ens_ref = simulate_particles_argsort(density, cfg)
    assert np.array_equal(fr.lam, fr_ref.lam)
    assert fr.jumps == fr_ref.jumps
    assert np.array_equal(ens.positions, ens_ref.positions)
    assert np.array_equal(ens.alive, ens_ref.alive)
    assert np.array_equal(ens.death_time, ens_ref.death_time)


def test_normal_block_lanes_equal_indexed_block():
    lanes = np.array([0, 3, 4, 17, 99])
    full = rng.normal_block(11, rng.GAUSS_STEP, 5, 100)
    assert np.array_equal(rng.normal_block(11, rng.GAUSS_STEP, 5, 100, lanes=lanes), full[lanes])


# random floats, heavy ties (exact zeros and a few repeated levels), dead mass
_values = st.one_of(
    st.floats(-0.5, 1.5, allow_nan=False),
    st.sampled_from([0.0, -0.1, 0.05, 0.1, 0.125, 0.25, 0.5]),
)


@settings(max_examples=300, deadline=None)
@given(y=st.lists(_values, max_size=60), extra=st.integers(0, 40))
def test_near_barrier_cascade_equals_full_argsort(y, extra):
    y = np.asarray(y, dtype=float)
    n = len(y) + extra
    if n == 0:
        return
    order = np.argsort(y, kind="stable")
    kstar = _scan_sorted(y[order], n)
    assert np.array_equal(_near_barrier_cascade(y, n), order[:kstar])


@settings(max_examples=60, deadline=None)
@given(y=st.lists(_values, max_size=12), extra=st.integers(0, 6))
def test_scan_equals_bruteforce_property(y, extra):
    n = len(y) + extra
    if n == 0:
        return
    assert physical_jump_scan(y, n) == physical_jump_bruteforce(y, n)


def test_bruteforce_resolves_values_just_above_a_line():
    # 0.5 + 1e-7 sits above the line 1/2 by less than any fixed x-step
    assert physical_jump_bruteforce([0.0, 0.5 + 1e-7], 2) == 0.5
    assert physical_jump_scan([0.0, 0.5 + 1e-7], 2) == 0.5


def test_scan_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        physical_jump_scan([0.3, float("nan")], 4)
