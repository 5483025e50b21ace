"""The particle scheme's fast cascade against its referees.

``simulate_particles`` sorts only the particles near the barrier and keeps the
survivors compact; ``tests/_oracles.simulate_particles_argsort`` is the step
loop with a full stable argsort every step. They must agree bit for bit.
"""
import sys
import threading
import time
from collections import Counter, deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from _oracles import physical_jump_bruteforce, simulate_particles_argsort
from stefanlab import rng, solver, uniform_density
from stefanlab.solver import (SolverConfig, _near_barrier_cascade, _scan_sorted,
                              physical_jump_scan, simulate_particles)


_REFEREE_CASES = {
    "band": ("band", dict(n_particles=20_000, dt=5e-4, T=0.25, seed=2026)),
    "band_bridge": ("band", dict(n_particles=20_000, dt=5e-4, T=0.25, seed=7,
                                 bridge_correction=True)),
    "sine_bridge": ("sine", dict(n_particles=5_000, dt=1e-3, T=0.25, seed=2026,
                                 bridge_correction=True)),
    "uniform_half": ("uniform_half", dict(n_particles=2_000, dt=1e-3, T=0.05, seed=1)),
    "uniform_two": ("uniform_two", dict(n_particles=5_000, dt=1e-3, T=0.25, seed=1)),
}


# one thread keeps the bare case id; 2 and 3 threads run the draw-ahead worker; the
# sine_bridge benchmark workload's own config runs once, at its 2 threads
@pytest.mark.parametrize("density_name, kw", [
    pytest.param(name, dict(kw, threads=threads),
                 id=case if threads == 1 else f"{case}-threads{threads}")
    for case, (name, kw) in _REFEREE_CASES.items() for threads in (1, 2, 3)] + [
    pytest.param("sine", dict(n_particles=20_000, dt=5e-4, T=0.25, seed=2026,
                              bridge_correction=True, threads=2),
                 id="sine_bridge_benchmark-threads2")])
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
    assert np.array_equal(ens.positions, ens_ref.positions)
    assert np.array_equal(ens.alive, ens_ref.alive)
    assert np.array_equal(ens.death_time, ens_ref.death_time)


@settings(max_examples=300, deadline=None)
@given(zo=st.floats(0.0, 1e300, exclude_min=True), p=st.floats(0.0, 1e300, exclude_min=True),
       dt=st.floats(1e-8, 1.0), k=st.integers(1, 2**53))
def test_bridge_kill_clamp_changes_no_decision(zo, p, dt, k):
    # no uniform kills a lane whose exponent is clamped at -40, so the bridge
    # draws no uniform for such a lane; the uniforms are k 2^-53, k = 1 .. 2^53
    assert np.exp(-40.0) < 2.0**-53
    ub = k * 2.0**-53
    with np.errstate(over="ignore"):
        arg = -2.0 * np.float64(zo) * p / dt
    assert (ub < np.exp(max(arg, -40.0))) == (ub < np.exp(arg))


@settings(max_examples=200, deadline=None)
@given(zp=st.lists(st.tuples(st.floats(0.0, 0.5, exclude_min=True),
                             st.floats(0.0, 0.5, exclude_min=True)), max_size=60),
       dt=st.floats(1e-4, 1e-2), k=st.integers(1, 10**6), seed=st.integers(0, 2**64 - 1))
def test_bridge_kills_the_lanes_the_clamped_rule_kills(zp, dt, k, seed):
    # the clamped rule read one uniform per survivor; give it the new draws on
    # the at-risk lanes and the least uniform, 2^-53, on every other lane
    zo, p = np.array(zp, dtype=float).reshape(-1, 2).T
    expo = -2.0 * zo * p / dt
    at_risk = np.flatnonzero(expo > -40.0)
    u = np.full(len(zo), 2.0**-53)
    u[at_risk] = rng.uniform_block(seed, rng.BRIDGE, k, len(at_risk))
    clamped = np.flatnonzero(u < np.exp(np.maximum(expo, -40.0)))
    assert np.array_equal(solver._bridge_kills(seed, k, zo, p, dt), clamped)


def test_sine_bridge_draws_few_uniforms(monkeypatch, sine_density):
    # one bridge uniform per survivor and step would equal the Gaussian lanes
    calls = _count_draws(monkeypatch)
    cfg = SolverConfig(n_particles=2000, dt=5e-4, T=0.05, seed=2026, bridge_correction=True)
    simulate_particles(sine_density, cfg)
    lanes = Counter()
    for _, kind, _, n in calls:
        lanes[kind] += n
    assert set(lanes) == {rng.GAUSS_STEP, rng.BRIDGE}
    assert 0 < lanes[rng.BRIDGE] < 0.1 * lanes[rng.GAUSS_STEP]


_triples = st.tuples(st.integers(0, 2**64 - 1), st.integers(1, 7), st.integers(0, 2**64 - 1))


@settings(max_examples=60, deadline=None)
@given(triple=_triples, m=st.integers(0, 300), extra=st.integers(0, 300))
def test_ziggurat_block_lanes_are_prefix_positions(triple, m, extra):
    # simulate_particles draws more lanes than a step reads; the first m must not move
    assert np.array_equal(rng.normal_block(*triple, m + extra)[:m],
                          rng.normal_block(*triple, m))


@settings(max_examples=60, deadline=None)
@given(triple=_triples, m=st.integers(0, 300), extra=st.integers(0, 300))
def test_uniform_block_lanes_are_prefix_positions_in_the_half_open_interval(triple, m, extra):
    # lanes lie in (0, 1] on the grid k 2^-53, so the least, 2^-53, is above exp(-40)
    u = rng.uniform_block(*triple, m + extra)
    assert np.all((0.0 < u) & (u <= 1.0))
    assert np.array_equal(np.ldexp(np.ldexp(u, 53).round(), -53), u)
    assert u[:m].tobytes() == rng.uniform_block(*triple, m).tobytes()


@settings(max_examples=200, deadline=None)
@given(a=_triples, b=_triples)
# a flat entropy list [seed, kind, block] gives these two one state
@example(a=(2**32 + 5, 3, 0), b=(5, 1, 3))
@example(a=(2**64 - 1, 1, 2**32), b=(2**64 - 1, 1, 0))
def test_ziggurat_blocks_of_different_streams_differ(a, b):
    assume(a != b)
    assert rng.normal_block(*a, 1)[0] != rng.normal_block(*b, 1)[0]


def _count_draws(monkeypatch):
    calls = []
    for name in ("uniform_block", "normal_block"):
        fn = getattr(rng, name)

        def counted(*args, _fn=fn, **kwargs):
            calls.append(args)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(rng, name, counted)
    return calls


@pytest.mark.parametrize("threads", [1, 2])
def test_a_dead_ensemble_draws_nothing(monkeypatch, threads):
    # uniform[0, 1/2] freezes whole at t = 0
    calls = _count_draws(monkeypatch)
    cfg = SolverConfig(n_particles=2_000, dt=1e-3, T=0.05, seed=1, threads=threads)
    fr, _ = simulate_particles(uniform_density(0, 0.5), cfg)
    assert np.all(fr.lam == 1.0)
    assert calls == []


@pytest.mark.parametrize("threads, wasted", [(1, 3), (2, 7)])
def test_draws_stop_with_the_last_particle(monkeypatch, threads, wasted):
    # four steps per batch; after the step that kills the last particle only
    # the rest of its batch and, with a worker, the batch drawn ahead are drawn
    monkeypatch.setattr(solver, "_AHEAD", 4 * 500)
    calls = _count_draws(monkeypatch)
    cfg = SolverConfig(n_particles=500, dt=1e-3, T=0.25, seed=1, threads=threads)
    fr, _ = simulate_particles(uniform_density(0.1, 0.7), cfg)
    extinct = int(np.argmax(fr.lam == 1.0))
    assert 0 < extinct < cfg.n_steps - wasted
    drawn = [block for _, _, block, _ in calls]
    assert sorted(drawn) == list(range(1, len(drawn) + 1))
    assert extinct <= len(drawn) <= extinct + wasted


def _on_main():
    return threading.current_thread() is threading.main_thread()


def _referee_bridge_lanes(density, cfg):
    """{step k: lanes of BRIDGE block k} that the argsort referee draws, one
    per at-risk survivor, for the steps that have one."""
    lanes = {}
    draw = rng.uniform_block

    def recorded(seed, kind, block, n):
        assert kind == rng.BRIDGE
        if n:
            lanes[block] = n
        return draw(seed, kind, block, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng, "uniform_block", recorded)
        simulate_particles_argsort(density, cfg)
    return lanes


def _uniform_draws_on_main(monkeypatch):
    """Whether each rng.uniform_block call from now on runs on the main thread."""
    on_main = []
    draw = rng.uniform_block

    def recorded(*args):
        on_main.append(_on_main())
        return draw(*args)
    monkeypatch.setattr(rng, "uniform_block", recorded)
    return on_main


def _bridge_draws(calls):
    """(block, lanes) of the BRIDGE draws among the counted calls, sorted."""
    return sorted((block, lanes) for _, kind, block, lanes in calls if kind == rng.BRIDGE)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_step_blocks_have_a_lane_for_every_survivor_who_reads_them(monkeypatch, pw_std,
                                                                   threads):
    # four steps per batch; a batch gets one Gaussian lane per survivor when it
    # is requested: at its first step inline, at the previous batch's first
    # step on the worker. A step's bridge block is drawn on the main thread,
    # one lane per at-risk survivor, and not at all when none is at risk
    n = 1000
    monkeypatch.setattr(solver, "_AHEAD", 4 * n)
    cfg = SolverConfig(n_particles=n, dt=1e-3, T=0.05, seed=5, threads=threads,
                       bridge_correction=True)
    at_risk = _referee_bridge_lanes(pw_std, cfg)
    calls = _count_draws(monkeypatch)
    on_main = _uniform_draws_on_main(monkeypatch)
    fr, _ = simulate_particles(pw_std, cfg)
    survivors = np.rint(n * (1.0 - fr.lam)).astype(int)  # after each step
    steps = [call for call in calls if call[1] == rng.GAUSS_STEP]
    drawn = {block: lanes for _, _, block, lanes in steps}
    assert len(drawn) == len(steps) == cfg.n_steps
    for block, lanes in drawn.items():
        first = block - (block - 1) % 4
        requested = first if threads == 1 else max(1, first - 4)
        assert lanes == survivors[requested - 1] >= survivors[block - 1]
    assert survivors[-1] < survivors[0]
    assert len(calls) == len(steps) + len(on_main)
    assert _bridge_draws(calls) == sorted(at_risk.items()) and all(on_main) and at_risk


@pytest.mark.parametrize("bridge", [False, True])
@pytest.mark.parametrize("threads", [1, 2, 3])
def test_every_step_block_is_drawn_exactly_once(monkeypatch, threads, bridge):
    # four steps per batch; every step's Gaussian block up to extinction is
    # drawn once, and after it only those of the batches requested while
    # particles lived: the rest of the last one's batch and, with a worker, the
    # batch after it. A bridge block is drawn at most once, on the main thread,
    # with one lane per at-risk survivor of its step
    monkeypatch.setattr(solver, "_AHEAD", 4 * 500)
    cfg = SolverConfig(n_particles=500, dt=1e-3, T=0.25, seed=1, threads=threads,
                       bridge_correction=bridge)
    density = uniform_density(0.1, 0.7)
    at_risk = _referee_bridge_lanes(density, cfg)
    calls = _count_draws(monkeypatch)
    on_main = _uniform_draws_on_main(monkeypatch)
    fr, _ = simulate_particles(density, cfg)
    extinct = int(np.argmax(fr.lam == 1.0))
    assert 0 < extinct < cfg.n_steps - 8
    last = -(-extinct // 4) * 4 + (4 if threads > 1 else 0)
    assert Counter((kind, block) for _, kind, block, _ in calls if kind != rng.BRIDGE) == Counter(
        (rng.GAUSS_STEP, block) for block in range(1, last + 1))
    assert _bridge_draws(calls) == sorted(at_risk.items()) and all(on_main)
    assert bool(at_risk) == bridge


class _MainWaitsDeque(deque):
    """A batch's steps; the main thread takes from the back only once the
    worker has taken every step, so it draws none."""

    def pop(self):
        deadline = time.monotonic() + 10.0
        while _on_main() and self and time.monotonic() < deadline:
            time.sleep(1e-4)
        return super().pop()


@pytest.mark.parametrize("bridge", [False, True])
@pytest.mark.parametrize("split", ["main_takes_some", "worker_takes_all"])
def test_any_split_of_the_draws_gives_the_one_thread_run(monkeypatch, pw_std, split, bridge):
    # a slow worker leaves the main thread the back of every batch; a main
    # thread that waits leaves every step to the worker
    n = 1000
    monkeypatch.setattr(solver, "_AHEAD", 4 * n)
    cfg = SolverConfig(n_particles=n, dt=1e-3, T=0.05, seed=5, bridge_correction=bridge)
    fr_ref, ens_ref = simulate_particles(pw_std, cfg)
    draw = rng.normal_block
    by_main = {}

    def recorded(seed, kind, block, m):
        by_main[block] = by_main.get(block, ()) + (_on_main(),)
        if split == "main_takes_some" and not _on_main():
            time.sleep(2e-3)
        return draw(seed, kind, block, m)
    monkeypatch.setattr(rng, "normal_block", recorded)
    if split == "worker_takes_all":
        monkeypatch.setattr(solver, "deque", _MainWaitsDeque)
    fr, ens = simulate_particles(pw_std, replace(cfg, threads=2))
    assert sorted(by_main) == list(range(1, cfg.n_steps + 1))
    assert all(len(who) == 1 for who in by_main.values())
    took = sum(who[0] for who in by_main.values())
    assert took > 0 if split == "main_takes_some" else took == 0
    assert np.array_equal(fr.lam, fr_ref.lam)
    assert np.array_equal(ens.death_time, ens_ref.death_time)
    assert np.array_equal(ens.positions, ens_ref.positions)


def test_a_short_switch_interval_keeps_every_draw_once_and_the_result(monkeypatch, pw_std):
    # the main thread and the worker pop the same deque; switching threads as
    # often as the interpreter allows must still draw each block once
    n = 1000
    monkeypatch.setattr(solver, "_AHEAD", 2 * n)  # two steps per batch
    cfg = SolverConfig(n_particles=n, dt=1e-3, T=0.05, seed=5, bridge_correction=True)
    fr_ref, ens_ref = simulate_particles(pw_std, cfg)
    at_risk = _referee_bridge_lanes(pw_std, cfg)
    calls = _count_draws(monkeypatch)
    every_block_once = Counter([(rng.GAUSS_STEP, block) for block in range(1, cfg.n_steps + 1)]
                               + [(rng.BRIDGE, block) for block in at_risk])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            calls.clear()
            fr, ens = simulate_particles(pw_std, replace(cfg, threads=2))
            assert Counter((kind, block) for _, kind, block, _ in calls) == every_block_once
            assert np.array_equal(fr.lam, fr_ref.lam)
            assert np.array_equal(ens.positions, ens_ref.positions)
    finally:
        sys.setswitchinterval(interval)


class _Boom(RuntimeError):
    pass


def _threads_alive():
    return {t for t in threading.enumerate() if t.is_alive()}


@pytest.mark.parametrize("threads", [1, 2])
def test_a_failed_draw_ends_the_run_and_leaves_no_thread(monkeypatch, pw_std, threads):
    # four steps per batch: block 8 ends the second batch, which the worker
    # draws, all of it, while the main thread waits for it
    monkeypatch.setattr(solver, "_AHEAD", 4 * 1000)
    if threads > 1:
        monkeypatch.setattr(solver, "deque", _MainWaitsDeque)
    draw = rng.normal_block
    where = []

    def failing(seed, kind, block, n):
        if block == 8:
            where.append(threading.current_thread())
            raise _Boom("block 8")
        return draw(seed, kind, block, n)
    monkeypatch.setattr(rng, "normal_block", failing)
    before = _threads_alive()
    cfg = SolverConfig(n_particles=1000, dt=1e-3, T=0.02, seed=5, threads=threads)
    with pytest.raises(_Boom, match="block 8"):
        simulate_particles(pw_std, cfg)
    assert _threads_alive() == before
    assert (where[0] is threading.main_thread()) == (threads == 1)


def _second_batch_choreography(monkeypatch, worker_draw, main_draw):
    """Four steps per batch at 1000 particles and 2 threads: the worker takes
    block 5, the front of the second batch, and the main thread, at the end of
    the first batch, draws blocks from the back only once the worker has
    started block 5. worker_draw(block, inner) and main_draw(block, inner)
    draw the second batch's blocks, inner() being the real draw; returns the
    list the main thread's blocks are appended to."""
    monkeypatch.setattr(solver, "_AHEAD", 4 * 1000)
    draw = rng.normal_block
    started = threading.Event()
    main_blocks = []

    def patched(seed, kind, block, n):
        def inner():
            return draw(seed, kind, block, n)
        if block < 5 or block > 8:
            return inner()
        if not _on_main():
            started.set()
            return worker_draw(block, inner)
        assert started.wait(10)
        main_blocks.append(block)
        return main_draw(block, inner)
    monkeypatch.setattr(rng, "normal_block", patched)
    return main_blocks


@pytest.mark.parametrize("worker_fails", [False, True])
def test_a_failed_draw_of_the_main_thread_reads_the_worker_first(monkeypatch, pw_std,
                                                                 worker_fails):
    # the main thread fails on block 8 while the worker draws block 5; the
    # worker stops after it, and its own failure is raised over the main's
    main_failed = threading.Event()
    worker_done = []

    def worker_draw(block, inner):
        assert main_failed.wait(10)
        worker_done.append(block)
        if worker_fails:
            raise _Boom(f"block {block}")
        return inner()

    def main_draw(block, inner):
        main_failed.set()
        raise _Boom(f"block {block}")
    main_blocks = _second_batch_choreography(monkeypatch, worker_draw, main_draw)
    before = _threads_alive()
    cfg = SolverConfig(n_particles=1000, dt=1e-3, T=0.02, seed=5, threads=2)
    with pytest.raises(_Boom) as exc:
        simulate_particles(pw_std, cfg)
    assert _threads_alive() == before
    assert main_blocks == [8] and worker_done == [5]
    if worker_fails:
        assert str(exc.value) == "block 5" and str(exc.value.__context__) == "block 8"
    else:
        assert str(exc.value) == "block 8"


def test_a_failed_draw_of_the_worker_fails_the_run_when_the_main_thread_took_the_rest(
        monkeypatch, pw_std):
    # the worker fails on block 5 only after the main thread has drawn 8, 7 and 6
    main_done = threading.Event()

    def worker_draw(block, inner):
        assert main_done.wait(10)
        raise _Boom(f"block {block}")

    def main_draw(block, inner):
        out = inner()
        if block == 6:
            main_done.set()
        return out
    main_blocks = _second_batch_choreography(monkeypatch, worker_draw, main_draw)
    before = _threads_alive()
    cfg = SolverConfig(n_particles=1000, dt=1e-3, T=0.02, seed=5, threads=2)
    with pytest.raises(_Boom, match="block 5"):
        simulate_particles(pw_std, cfg)
    assert _threads_alive() == before
    assert main_blocks == [8, 7, 6]


def test_a_failed_draw_ahead_fails_the_run_also_after_extinction(monkeypatch):
    # uniform[0.1, 0.7] at 500 particles dies out at step 22 (see above): the
    # worker has drawn steps 25-28 ahead by then, which are never used
    monkeypatch.setattr(solver, "_AHEAD", 4 * 500)
    draw = rng.normal_block

    def failing(seed, kind, block, n):
        if block == 26:
            raise _Boom("block 26")
        return draw(seed, kind, block, n)
    monkeypatch.setattr(rng, "normal_block", failing)
    cfg = SolverConfig(n_particles=500, dt=1e-3, T=0.25, seed=1, threads=2)
    with pytest.raises(_Boom, match="block 26"):
        simulate_particles(uniform_density(0.1, 0.7), cfg)


@pytest.mark.parametrize("threads", [1, 2])
def test_a_failed_step_ends_the_run_and_leaves_no_thread(monkeypatch, pw_std, threads):
    monkeypatch.setattr(solver, "_AHEAD", 4 * 1000)
    cascade = solver._near_barrier_cascade
    calls = []

    def failing(y, n):
        calls.append(n)
        if len(calls) == 6:
            raise _Boom("step 6")
        return cascade(y, n)
    monkeypatch.setattr(solver, "_near_barrier_cascade", failing)
    before = _threads_alive()
    cfg = SolverConfig(n_particles=1000, dt=1e-3, T=0.02, seed=5, threads=threads)
    with pytest.raises(_Boom, match="step 6"):
        simulate_particles(pw_std, cfg)
    assert _threads_alive() == before


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
