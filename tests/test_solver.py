import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import compute_Y_samples, physical_jump_bruteforce
from stefanlab import make_piecewise, uniform_density
from stefanlab.solver import (
    FrontierPath,
    PicardConfig,
    SolverConfig,
    SolverConfigError,
    initial_jump_stratified,
    physical_jump_scan,
    picard_minimal,
    simulate_particles,
)

ROOT_2_PI = math.sqrt(2.0 / math.pi)
# expected shortfall of a discretely monitored running max of Brownian motion
DISCRETE_GAP = 0.5826


# ---------------------------------------------------------------------------
# cascade resolution
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("values,want", [
    ([0.3, 0.5, 0.7, 0.9], 0.0),
    ([-0.05, 0.3, 0.6, 0.9], 0.25),
    ([-0.05, 0.1, 0.4, 0.6], 1.0),   # full cascade
    ([-0.1, 0.2, 0.26, 0.9], 0.75),
])
def test_scan_examples(values, want):
    assert physical_jump_scan(values, 4) == want
    assert physical_jump_bruteforce(np.asarray(values, dtype=float), 4) == want


def test_scan_equals_bruteforce_random():
    rng = np.random.default_rng(42)
    for _ in range(200):
        m = int(rng.integers(2, 65))
        vals = rng.uniform(-0.2, 1.2, size=m)
        assert physical_jump_scan(vals, m) == physical_jump_bruteforce(vals, m)


def test_scan_with_total_larger_than_alive():
    # divisor is the ensemble size, not the alive count
    assert physical_jump_scan([-0.05, 0.3], 4) == 0.25
    assert physical_jump_scan([], 4) == 0.0


def test_scan_equals_bruteforce_with_dead_mass():
    # mid-run ensembles pass only the alive positions; the oracle agrees
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(4, 65))
        m = int(rng.integers(1, n + 1))
        vals = rng.uniform(-0.2, 1.2, size=m)
        assert physical_jump_scan(vals, n) == physical_jump_bruteforce(vals, n)


def test_post_cascade_positivity_property():
    rng = np.random.default_rng(3)
    for _ in range(200):
        m = int(rng.integers(2, 65))
        vals = rng.uniform(-0.2, 1.2, size=m)
        delta = physical_jump_scan(vals, m)
        survivors = np.sort(vals)[round(delta * m):] - delta
        if len(survivors):
            assert np.all(survivors > 0.0)


# ---------------------------------------------------------------------------
# time-0 jump
# ---------------------------------------------------------------------------


def test_initial_jump_uniform_half():
    # F(x) = 2x stays above the diagonal all the way to 1: total freeze
    n = 10_000
    y = uniform_density(0.0, 0.5).sample((np.arange(n) + 0.5) / n)
    assert initial_jump_stratified(y, n) == 1.0


def test_initial_jump_uniform_two():
    # F(x) = x/2 drops below the diagonal immediately: no jump
    n = 10_000
    y = uniform_density(0.0, 2.0).sample((np.arange(n) + 0.5) / n)
    assert initial_jump_stratified(y, n) == 0.0


def test_initial_jump_unit_uniform_boundary():
    # F(x) = x exactly on the diagonal: the infimum over F < x is 1
    n = 1000
    y = uniform_density(0.0, 1.0).sample((np.arange(n) + 0.5) / n)
    assert initial_jump_stratified(y, n) == 1.0


def test_initial_jump_piecewise_none(pw_std):
    n = 4096
    y = pw_std.sample((np.arange(n) + 0.5) / n)
    assert initial_jump_stratified(np.asarray(y, dtype=float), n) == 0.0


# ---------------------------------------------------------------------------
# particle scheme
# ---------------------------------------------------------------------------


def test_simulate_far_mass_never_reaches_barrier():
    cfg = SolverConfig(n_particles=10_000, dt=0.001, T=0.1, seed=5)
    frontier, ens = simulate_particles(uniform_density(10.0, 11.0), cfg)
    assert frontier.lam[-1] <= 1e-3
    assert np.all(frontier.lam >= 0.0)


def test_simulate_total_freeze_at_zero():
    cfg = SolverConfig(n_particles=5000, dt=0.001, T=0.05, seed=5)
    frontier, ens = simulate_particles(uniform_density(0.0, 0.5), cfg)
    assert frontier.lam[0] == 1.0
    assert np.all(frontier.lam == 1.0)
    assert frontier.jumps and frontier.jumps[0] == (0.0, 1.0)
    assert not np.any(ens.alive)
    assert np.all(ens.death_time == 0.0)


def test_simulate_early_slope_bracket():
    # the one-step closed form E F(sqrt(t)|N|) = sqrt(t) E|N| / 2 bounds the
    # frontier from below (running max >= endpoint sup); the increment bound
    # Lambda - F(Lambda) <= sqrt(2t/pi) gives Lambda <= 2 sqrt(2t/pi) above
    cfg = SolverConfig(n_particles=50_000, dt=1e-4, T=0.04, seed=3,
                       bridge_correction=True)
    frontier, _ = simulate_particles(uniform_density(0.0, 2.0), cfg)
    assert frontier.lam[0] == 0.0
    for idx in (len(frontier.t) // 4, len(frontier.t) - 1):
        t = frontier.t[idx]
        ratio = frontier.lam[idx] / math.sqrt(t)
        se = math.sqrt(frontier.lam[idx] * (1 - frontier.lam[idx]) / cfg.n_particles)
        assert ratio >= ROOT_2_PI / 2.0 - 3.0 * se / math.sqrt(t)
        assert ratio <= 2.0 * ROOT_2_PI + 3.0 * se / math.sqrt(t)


def test_simulate_conservation_and_positivity(pw_std):
    cfg = SolverConfig(n_particles=4000, dt=0.001, T=0.1, seed=9)
    frontier, ens = simulate_particles(pw_std, cfg)
    n_alive = int(np.count_nonzero(ens.alive))
    n_dead = int(np.count_nonzero(np.isfinite(ens.death_time)))
    assert n_alive + n_dead == cfg.n_particles
    assert frontier.lam[-1] == n_dead / cfg.n_particles
    assert np.all(ens.positions[ens.alive] > 0.0)
    assert np.all(np.diff(frontier.lam) >= 0.0)
    assert 0.0 <= frontier.lam[0] and frontier.lam[-1] <= 1.0


def test_simulate_bridge_only_adds_deaths(pw_std):
    base = SolverConfig(n_particles=4000, dt=0.001, T=0.1, seed=9)
    with_bridge = SolverConfig(n_particles=4000, dt=0.001, T=0.1, seed=9,
                               bridge_correction=True)
    lam_plain = simulate_particles(pw_std, base)[0].lam
    lam_bridge = simulate_particles(pw_std, with_bridge)[0].lam
    assert np.all(lam_bridge >= lam_plain)
    assert lam_bridge[-1] > lam_plain[-1]


def test_simulate_reproducible(pw_std):
    cfg = SolverConfig(n_particles=3000, dt=0.001, T=0.05, seed=21)
    a = simulate_particles(pw_std, cfg)[0]
    b = simulate_particles(pw_std, cfg)[0]
    assert np.array_equal(a.lam, b.lam)


def test_jump_threshold_records():
    cfg = SolverConfig(n_particles=100, dt=0.0004, T=0.02, seed=2, jump_threshold=0.5)
    frontier, _ = simulate_particles(uniform_density(0.0, 0.5), cfg)
    assert frontier.jumps == [(0.0, 1.0)]


# ---------------------------------------------------------------------------
# running-max samples
# ---------------------------------------------------------------------------


def test_y_samples_reflection_identity():
    t = np.linspace(0.0, 1.0, 2001)
    fr = FrontierPath(t=t, lam=np.zeros_like(t))
    y = compute_Y_samples(fr, 20_000, seed=5)
    mean = float(y[:, -1].mean())
    se = float(y[:, -1].std() / math.sqrt(len(y)))
    dt_gap = DISCRETE_GAP * math.sqrt(t[1])
    assert abs(mean - ROOT_2_PI) <= 3.0 * se + dt_gap


def test_y_samples_constant_frontier_floor():
    t = np.linspace(0.0, 0.1, 101)
    fr = FrontierPath(t=t, lam=np.full_like(t, 0.3))
    y = compute_Y_samples(fr, 2000, seed=6)
    assert float(y.min()) == 0.3  # the s = 0 term contributes exactly lam_0
    assert np.all(np.diff(y, axis=1) >= 0.0)


def test_y_samples_monotone_in_frontier():
    t = np.linspace(0.0, 0.2, 201)
    lo = FrontierPath(t=t, lam=0.2 * t)
    hi = FrontierPath(t=t, lam=0.2 * t + 0.05 * np.sqrt(t))
    ya = compute_Y_samples(lo, 1500, seed=8)
    yb = compute_Y_samples(hi, 1500, seed=8)
    assert np.all(ya <= yb)


# ---------------------------------------------------------------------------
# minimal-solution iteration
# ---------------------------------------------------------------------------


def test_picard_first_iterate_closed_form():
    # one iteration from 0 gives E F(max of -B) = sqrt(t) E|N| / 2 for the
    # uniform density on [0, 2]; allow the discrete-monitoring shortfall
    T, K = 0.01, 1000
    cfg = SolverConfig(n_particles=10, dt=T / K, T=T, seed=13,
                       picard=PicardConfig(n_paths=40_000, max_iters=1, tol=1e-12))
    res = picard_minimal(uniform_density(0.0, 2.0), cfg)
    lam_T = res.frontier.lam[-1]
    want = 0.1 * ROOT_2_PI / 2.0  # 0.03989
    se = 0.5 * math.sqrt(T) * 0.6 / math.sqrt(40_000)
    gap = 0.5 * DISCRETE_GAP * math.sqrt(T / K)
    assert abs(lam_T - want) <= 3.0 * se + gap


def test_picard_pins_zero_at_origin(pw_std):
    cfg = SolverConfig(n_particles=10, dt=0.001, T=0.05, seed=4,
                       picard=PicardConfig(n_paths=2000, max_iters=5, tol=1e-9))
    res = picard_minimal(pw_std, cfg)
    assert res.frontier.lam[0] == 0.0


def test_picard_monotone_iterates_exact(pw_std):
    cfg = SolverConfig(n_particles=10, dt=0.001, T=0.1, seed=4,
                       picard=PicardConfig(n_paths=4000, max_iters=12, tol=1e-9))
    res = picard_minimal(pw_std, cfg)
    prev = np.zeros_like(res.frontier.lam)
    for it in res.iterates:
        assert np.all(it >= prev)
        prev = it
    assert np.all(np.diff(res.frontier.lam) >= 0.0)


def test_picard_thread_count_bit_identical(pw_std):
    base = dict(n_particles=10, dt=0.001, T=0.05, seed=4,
                picard=PicardConfig(n_paths=20_000, max_iters=6, tol=1e-9))
    res1 = picard_minimal(pw_std, SolverConfig(threads=1, **base))
    res8 = picard_minimal(pw_std, SolverConfig(threads=8, **base))
    assert np.array_equal(res1.frontier.lam, res8.frontier.lam)


def test_picard_rejects_a_time_zero_jump():
    # F(x) = 2x on [0, 1/2] freezes the whole ensemble at t = 0 (the particle
    # scheme's stratified jump is 1); Picard would pin Lambda_0 = 0 instead
    d = uniform_density(0.0, 0.5)
    cfg = SolverConfig(n_particles=100, dt=0.01, T=0.1, seed=1,
                       picard=PicardConfig(n_paths=1000, max_iters=5))
    frontier, _ = simulate_particles(d, cfg)
    assert frontier.lam[0] == 1.0
    with pytest.raises(ValueError, match="time-0 jump"):
        picard_minimal(d, cfg)


def test_picard_nonconvergence_flagged(pw_std):
    cfg = SolverConfig(n_particles=10, dt=0.001, T=0.1, seed=4,
                       picard=PicardConfig(n_paths=1000, max_iters=2, tol=1e-12))
    res = picard_minimal(pw_std, cfg)
    assert not res.converged
    assert res.iterations == 2


# ---------------------------------------------------------------------------
# config and frontier plumbing
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(SolverConfigError):
        SolverConfig(n_particles=0)
    with pytest.raises(SolverConfigError):
        SolverConfig(dt=-1.0)
    with pytest.raises(SolverConfigError):
        SolverConfig(dt=0.0003, T=0.1)  # does not divide evenly
    with pytest.raises(SolverConfigError, match="unknown config field"):
        SolverConfig.from_dict({"n_particles": 10, "bogus": 1})
    cfg = SolverConfig.from_dict({"n_particles": 10, "dt": 0.001, "T": 0.1,
                                  "picard": {"n_paths": 5}})
    assert cfg.picard.n_paths == 5
    assert cfg.config_hash() == SolverConfig.from_dict(cfg.to_dict()).config_hash()


@pytest.mark.parametrize("fields, name", [
    ({"bridge_correction": "false"}, "bridge_correction"),
    ({"bridge_correction": 1}, "bridge_correction"),
    ({"picard": {"tol": math.inf}}, "picard.tol"),
    ({"picard": {"tol": math.nan}}, "picard.tol"),
    ({"picard": {"n_paths": 100.5}}, "picard.n_paths"),
    ({"picard": {"max_iters": True}}, "picard.max_iters"),
    ({"picard": []}, "picard"),
    ({"T": math.inf}, "T"),
    ({"dt": math.nan}, "dt"),
    ({"dt": "0.001"}, "dt"),
    ({"seed": 1.5}, "seed"),
    ({"seed": -1}, "seed"),
    ({"seed": 2**64}, "seed"),
    ({"n_particles": 1.5}, "n_particles"),
    ({"n_particles": True}, "n_particles"),
    ({"threads": 0}, "threads"),
    ({"jump_threshold": -1}, "jump_threshold"),
    ({"jump_threshold": math.inf}, "jump_threshold"),
])
def test_config_rejects_a_bad_field_type_or_value(fields, name):
    with pytest.raises(SolverConfigError, match=name):
        SolverConfig.from_dict({"n_particles": 10, "dt": 0.001, "T": 0.1, **fields})


def test_config_accepts_integral_numbers_for_real_fields():
    cfg = SolverConfig(n_particles=np.int64(10), dt=0.25, T=1, seed=2**64 - 1,
                       jump_threshold=0, picard=PicardConfig(tol=1))
    assert cfg.n_steps == 4 and cfg.effective_jump_threshold() == 0.0


def test_effective_jump_threshold():
    cfg = SolverConfig(n_particles=100, dt=0.0001, T=0.01)
    assert cfg.effective_jump_threshold() == pytest.approx(max(0.05, 10 * 0.01))
    cfg2 = SolverConfig(n_particles=100, dt=0.0001, T=0.01, jump_threshold=0.2)
    assert cfg2.effective_jump_threshold() == 0.2


def test_frontier_csv_roundtrip(tmp_path):
    t = np.linspace(0.0, 0.1, 11)
    lam = np.minimum(np.sqrt(t) * (1.0 / 3.0) + 1e-17, 1.0)
    fr = FrontierPath(t=t, lam=lam)
    path = tmp_path / "f.csv"
    fr.write_csv(path)
    back = FrontierPath.read_csv(path)
    assert np.array_equal(back.t, fr.t)
    assert np.array_equal(back.lam, fr.lam)


@settings(max_examples=100, deadline=None)
@given(t0=st.floats(-1.0, 1.0), steps=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=40),
       data=st.data())
def test_frontier_csv_roundtrip_property(t0, steps, data):
    t = t0 + np.concatenate([[0.0], np.cumsum(steps)])
    lam = np.sort(data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(t), max_size=len(t))))
    fr = FrontierPath(t=t, lam=lam)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.csv"
        fr.write_csv(path)
        back = FrontierPath.read_csv(path)
    assert back.t.tobytes() == fr.t.tobytes()
    assert back.lam.tobytes() == fr.lam.tobytes()


def test_frontier_validation():
    t = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        FrontierPath(t=t, lam=np.array([0.0, 0.2, 0.1, 0.3, 0.4]))
    with pytest.raises(ValueError):
        FrontierPath(t=t, lam=np.array([0.0, 0.2, 0.4, 0.9, 1.2]))


def test_config_hash_ignores_threads():
    # threads cannot change a result, so bit-identical runs share a hash
    one = SolverConfig(n_particles=100, dt=0.001, T=0.1, threads=1)
    eight = SolverConfig(n_particles=100, dt=0.001, T=0.1, threads=8)
    assert one.config_hash() == eight.config_hash()
    assert one.to_dict()["threads"] == 1
    assert one.config_hash() != SolverConfig(n_particles=100, dt=0.001, T=0.1,
                                             seed=1).config_hash()


@pytest.mark.parametrize("t", [
    [0.0, 0.2, 0.1, 0.3],           # not monotone
    [0.0, 0.1, 0.1, 0.3],           # repeated instant
    [0.0, 0.1, float("nan"), 0.3],
    [0.0, 0.1, 0.2, float("inf")],
])
def test_frontier_rejects_bad_time_grid(t):
    with pytest.raises(ValueError, match="strictly increasing"):
        FrontierPath(t=np.array(t), lam=np.zeros(4))


def test_frontier_rejects_nonfinite_lam():
    with pytest.raises(ValueError, match="finite"):
        FrontierPath(t=np.linspace(0.0, 0.3, 4), lam=np.array([0.0, 0.1, np.nan, 0.2]))


def test_read_csv_rejects_truncated_row(tmp_path):
    path = tmp_path / "f.csv"
    FrontierPath(t=np.linspace(0.0, 0.1, 5), lam=np.linspace(0.0, 0.2, 5)).write_csv(path)
    text = path.read_text().splitlines()
    text[-1] = text[-1].split(",")[0]  # last row cut after its time field
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(ValueError, match=f"{path.name}:6"):
        FrontierPath.read_csv(path)


def test_read_csv_rejects_a_header_only_file(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("t,lambda,alive_fraction\n")
    with pytest.raises(ValueError, match="non-empty"):
        FrontierPath.read_csv(path)


def test_read_csv_rejects_a_non_numeric_third_column(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("t,lambda,alive_fraction\n0.0,0.0,1.0\n0.1,0.2,zzz\n")
    with pytest.raises(ValueError, match=f"{path.name}:3: .*'zzz'"):
        FrontierPath.read_csv(path)


def test_scan_settles_a_position_on_a_rounded_line_exactly():
    # the float 0.1 lies above 1/10, so the particle there survives the
    # first death; in floats 1/10 rounds onto it
    assert physical_jump_scan([0.0, 0.1], 10) == 0.1
    assert physical_jump_bruteforce([0.0, 0.1], 10) == 0.1
    # the float 0.3 lies below 3/10: it dies with the three before it
    assert physical_jump_scan([0.0, 0.0, 0.0, 0.3], 10) == 0.4
    assert physical_jump_bruteforce([0.0, 0.0, 0.0, 0.3], 10) == 0.4
