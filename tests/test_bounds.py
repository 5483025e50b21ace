import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from _oracles import bruteforce_sup_ratio
from stefanlab import make_density, make_piecewise, uniform_density
from stefanlab.bounds import (
    assemble_bounds_report,
    compute_L,
    compute_sqrt_constants,
    early_increment_check,
    estimate_beta_slope,
    estimate_delta0,
    estimate_prob_in_G,
    prob_drifted_sup_below,
    simulate_drifted_sup,
    verify_frontier_envelopes,
)
from stefanlab.solver import FrontierPath, PicardConfig, SolverConfig, picard_minimal

ROOT_2_PI = math.sqrt(2.0 / math.pi)


@pytest.fixture(scope="module")
def pw_frontier(pw_std):
    cfg = SolverConfig(n_particles=10, dt=0.0005, T=0.25, seed=11,
                       picard=PicardConfig(n_paths=20_000, max_iters=40, tol=1e-4))
    return picard_minimal(pw_std, cfg).frontier


# ---------------------------------------------------------------------------
# slope bound L
# ---------------------------------------------------------------------------


def test_compute_L_exact(pw_std):
    sb = compute_L(pw_std)
    assert sb.rho == F(3, 4)
    assert sb.L == F(47, 50)
    assert sb.lt_one


def test_compute_L_boundary_case():
    sb = compute_L(make_piecewise("1/2", "9/8", "1/2", "1/2"))
    assert sb.L == F(1)
    assert not sb.lt_one


def test_compute_L_limit_as_alpha2_drops():
    # alpha2 -> 1 with alpha1 = p = q = 1/2 fixed: the limit slope is < 1
    limit = ((F(1, 2)) * 1 + F(1, 2) * F(1, 4) * F(1, 2)) / (1 - F(1, 2) * F(3, 4))
    assert limit < 1
    sb = compute_L(make_piecewise(F(1, 2), 1 + F(1, 10**9), F(1, 2), F(1, 2)))
    assert abs(sb.L - limit) < F(1, 10**8)


def test_bruteforce_sup_ratio_brackets_L(pw_std):
    L = float(compute_L(pw_std).L)
    v = bruteforce_sup_ratio(pw_std, n_y=400, n_h=400)
    assert L - 0.02 <= v <= L + 1e-9


def test_witness_quotient_attains_L_exactly(pw_std):
    sb = compute_L(pw_std)
    for n in (1, 2, 5):
        y = sb.rho * pw_std.odd_endpoint(n + 1)
        h = pw_std.even_endpoint(n) - y
        q = (pw_std.cdf(y + h) - pw_std.cdf(y)) / h
        assert q == sb.L


def test_outer_band_quotients_below_max_slope(pw_std):
    # y in [a2, a1]: every difference quotient is trivially at most alpha2
    rng = np.random.default_rng(0)
    a1, a2 = float(pw_std.a1), float(pw_std.even_endpoint(1))
    for _ in range(100):
        y = rng.uniform(a2, a1)
        h = rng.uniform(1e-6, a1 - y) if a1 > y + 1e-6 else 1e-7
        q = (float(pw_std.cdf(y + h)) - float(pw_std.cdf(y))) / h
        assert q <= 1.05 + 1e-12


def test_band_quotient_sequence_nondecreasing_exact(pw_std):
    # for y in [a_{2n+2}, rho a_{2n+1}], the candidate quotients toward the
    # outer bands only grow; exact rational arithmetic, n <= 10
    sb = compute_L(pw_std)
    for n in range(1, 11):
        lo = pw_std.even_endpoint(n + 1)
        hi = sb.rho * pw_std.odd_endpoint(n + 1)
        for y in (lo, (lo + hi) / 2, hi):
            Fy = pw_std.cdf(y)
            quots = []
            for k in range(n, 0, -1):
                ak = pw_std.even_endpoint(k)
                quots.append((pw_std.cdf(ak) - Fy) / (ak - y))
            assert all(b <= a for a, b in zip(quots, quots[1:]))
            # so the supremum is at the nearest even endpoint
            assert quots[0] == max(quots)


# ---------------------------------------------------------------------------
# square-root constants
# ---------------------------------------------------------------------------


def test_sqrt_constants_values(pw_std):
    c = compute_sqrt_constants(pw_std, beta_slope=0.5)
    assert c.c1 == pytest.approx(41.0 / 60.0 * ROOT_2_PI)
    assert c.c1 == pytest.approx(0.54522, abs=5e-6)
    assert c.c2 == pytest.approx(1.05 * ROOT_2_PI / (2.0 / 15.0))
    assert c.c2 == pytest.approx(6.2834, abs=5e-4)
    assert c.c3 == pytest.approx(1.05 * ROOT_2_PI * 2.0)


def test_sqrt_constants_beta_slope_zero(pw_std):
    c = compute_sqrt_constants(pw_std, beta_slope=0.0)
    assert c.c3 == pytest.approx(1.05 * ROOT_2_PI)


def test_sqrt_constants_c2_limit():
    # alpha2 down to 1 with beta2 pinned by the other parameters
    d = make_piecewise(F(1, 2), 1 + F(1, 10**6), F(1, 2), F(1, 2))
    c = compute_sqrt_constants(d, beta_slope=0.0)
    assert c.c2 == pytest.approx(ROOT_2_PI / (1.0 - float(d.beta2)), rel=1e-5)


def test_sqrt_constants_errors():
    bad = make_piecewise("1/2", "3/2", "1/2", "1/2")  # beta2 >= 1
    with pytest.raises(ValueError, match="beta2"):
        compute_sqrt_constants(bad, beta_slope=0.5)
    good = make_piecewise("1/2", "21/20", "1/2", "1/2")
    with pytest.raises(ValueError, match="beta_slope"):
        compute_sqrt_constants(good, beta_slope=1.0)


def test_beta_slope_estimate_in_contract_range(pw_std, pw_frontier):
    beta, table = estimate_beta_slope(pw_std, pw_frontier, seed=2)
    assert 0.0 < beta < 1.0
    assert table.shape[0] > 0 and np.all(table >= 0.0)


# ---------------------------------------------------------------------------
# envelope margins
# ---------------------------------------------------------------------------


def test_envelopes_on_minimal_frontier(pw_std, pw_frontier):
    beta, _ = estimate_beta_slope(pw_std, pw_frontier, seed=2)
    consts = compute_sqrt_constants(pw_std, beta)
    m = verify_frontier_envelopes(pw_frontier, consts, n_mc=20_000)
    assert m.sqrt_lower_margin >= -3.0 * m.max_se
    assert m.sqrt_upper_margin >= -3.0 * m.max_se
    assert m.holder_margin >= -3.0 * m.max_se
    assert m.chi_bar_margin is None


def test_holder_margin_is_the_min_over_all_pairs(pw_std, pw_frontier):
    consts = compute_sqrt_constants(pw_std, 0.5)
    t, lam = pw_frontier.t, pw_frontier.lam
    i, j = np.triu_indices(len(t), k=1)
    pairs = float(np.min(consts.c3 * np.sqrt(t[j] - t[i]) - (lam[j] - lam[i])))
    assert verify_frontier_envelopes(pw_frontier, consts, n_mc=20_000).holder_margin == pairs


def test_envelope_margins_run_in_linear_memory(pw_std):
    # all (K+1)^2 pairs held at once would peak near 512 MB at K = 4000
    t = np.linspace(0.0, 1.0, 4001)
    fr = FrontierPath(t=t, lam=0.5 * np.sqrt(t))
    consts = compute_sqrt_constants(pw_std, 0.5)
    tracemalloc.start()
    try:
        verify_frontier_envelopes(fr, consts, n_mc=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20


def test_envelopes_flag_flat_frontier(pw_std):
    # a zero frontier violates the lower square-root bound; reported, not raised
    t = np.linspace(0.0, 0.25, 101)
    flat = FrontierPath(t=t, lam=np.zeros_like(t))
    consts = compute_sqrt_constants(pw_std, 0.5)
    m = verify_frontier_envelopes(flat, consts, n_mc=1000)
    assert m.sqrt_lower_margin < 0.0
    assert m.sqrt_upper_margin >= 0.0


def test_envelopes_with_fitted_averaging_envelope(pw_std, sine_density):
    # a density passing the averaging check supplies g, and the early-time
    # bound then holds on the simulated frontier within MC noise
    from stefanlab.conditions import check_averaging_condition
    from stefanlab.solver import simulate_particles

    rep = check_averaging_condition(sine_density, lambda0_candidate=2.0)
    assert rep.holds_1_7
    cfg = SolverConfig(n_particles=8000, dt=0.001, T=0.2, seed=15)
    frontier, _ = simulate_particles(sine_density, cfg)
    consts = compute_sqrt_constants(pw_std, 0.5)  # c3 only gates the pair scan
    m = verify_frontier_envelopes(frontier, consts, n_mc=8000, g=rep.g_envelope)
    assert m.chi_bar_coverage == 1.0
    assert m.chi_bar_margin is not None
    assert m.chi_bar_margin >= -3.0 * m.max_se


# ---------------------------------------------------------------------------
# good-set occupation
# ---------------------------------------------------------------------------


def test_drifted_sup_degenerate_interval_rhs_zero():
    u = simulate_drifted_sup(3.0, n_paths=2000, n_steps=500, seed=9)
    assert prob_drifted_sup_below(u, 0.0) == 0.0     # b = a case
    assert prob_drifted_sup_below(u, -1.0) == 0.0
    assert 0.0 <= prob_drifted_sup_below(u, 1.0) <= 1.0
    assert np.all(np.diff(u) >= 0.0)


@pytest.mark.parametrize("n_paths", [0, 1.5, True])
def test_estimators_reject_a_bad_n_paths(pw_std, pw_frontier, n_paths):
    with pytest.raises(ValueError, match="n_paths"):
        simulate_drifted_sup(3.0, n_paths=n_paths, n_steps=10)
    with pytest.raises(ValueError, match="n_paths"):
        estimate_delta0(pw_frontier, pw_std, n_paths=n_paths)


def test_prob_in_G_reflection_identity(pw_std):
    # with a zero frontier, P(Y_t >= a2) = P(|N| >= a2 / sqrt(t)); pick t so the
    # ratio is 1 and compare to the two-sided normal tail 0.3173
    a2 = float(pw_std.even_endpoint(1))
    T = a2 ** 2
    K = 2000
    t = np.linspace(0.0, T, K + 1)
    fr = FrontierPath(t=t, lam=np.zeros_like(t))
    consts = compute_sqrt_constants(pw_std, 0.5)
    # restrict the good set to its tail piece [a2, inf), as in the identity
    rep = estimate_prob_in_G(fr, pw_std, consts, t_indices=[K], n_paths=40_000,
                             seed=3, n_bands=0)
    want = 0.3173
    # the discrete running max undershoots, biasing the estimate down a touch
    assert rep.lhs[0] == pytest.approx(want, abs=3.0 * rep.lhs_se[0] + 0.012)


def test_prob_in_G_dominates_lemma_bound(pw_std, pw_frontier):
    beta, _ = estimate_beta_slope(pw_std, pw_frontier, seed=2)
    consts = compute_sqrt_constants(pw_std, beta)
    rep = estimate_prob_in_G(pw_frontier, pw_std, consts, n_paths=20_000, seed=4)
    assert len(rep.t_values) == 10
    for lhs, rhs, se_l, se_r in zip(rep.lhs, rep.rhs, rep.lhs_se, rep.rhs_se):
        assert lhs >= rhs - 3.0 * (se_l + se_r)
    assert rep.threshold == pytest.approx(float((F(1, 20)) / (F(21, 20) - F(47, 50))))
    assert rep.threshold == pytest.approx(5.0 / 11.0)


# ---------------------------------------------------------------------------
# contraction diagnostic
# ---------------------------------------------------------------------------


def test_delta0_lipschitz_uniform():
    u2 = uniform_density(0.0, 2.0)
    cfg = SolverConfig(n_particles=10, dt=0.001, T=0.1, seed=7,
                       picard=PicardConfig(n_paths=10_000, max_iters=20, tol=1e-4))
    fr = picard_minimal(u2, cfg).frontier
    rep = estimate_delta0(fr, u2, n_paths=10_000, seed=5)
    # F is 1/2-Lipschitz, so every node mean is at most 1/2
    assert rep.delta0_hat <= 0.5 + 1e-12
    assert rep.delta0_hat + 3.0 * rep.se_at_max <= 0.51


def test_delta0_bounded_by_max_density():
    tri = make_density({"family": "tabulated", "grid": [0.0, 1.0, 2.5],
                        "values": [0.9, 0.9, 0.0]})
    t = np.linspace(0.0, 0.1, 101)
    fr = FrontierPath(t=t, lam=np.zeros_like(t))
    rep = estimate_delta0(fr, tri, n_paths=5000, seed=6)
    assert rep.delta0_hat <= 0.9 + 1e-12


def test_delta0_piecewise_below_one(pw_std, pw_frontier):
    rep = estimate_delta0(pw_frontier, pw_std, n_paths=20_000, seed=5)
    assert rep.delta0_hat + 3.0 * rep.se_at_max < 1.0
    assert rep.node_means.shape == (len(rep.t_values), len(rep.h_values))


# ---------------------------------------------------------------------------
# early-increment inequality
# ---------------------------------------------------------------------------


def test_early_increment_margin(pw_std, pw_frontier):
    margin = early_increment_check(pw_frontier, pw_std)
    se = math.sqrt(0.25 / 20_000)
    assert margin >= -3.0 * se


def test_bounds_report_one_y_pass_equals_the_standalone_estimators(pw_std, pw_frontier):
    # 10_000 paths span two 8192-path chunks, so the per-chunk sums of delta0 matter
    rep = assemble_bounds_report(pw_std, pw_frontier, n_mc=20_000, seed=5, n_paths=10_000)
    consts = compute_sqrt_constants(pw_std, rep.beta_slope)
    pg = estimate_prob_in_G(pw_frontier, pw_std, consts, n_paths=10_000, seed=5)
    d0 = estimate_delta0(pw_frontier, pw_std, n_paths=10_000, seed=5)
    assert rep.prob_g.to_dict() == pg.to_dict()
    assert np.array_equal(rep.prob_g.lhs_se, pg.lhs_se)
    assert (rep.delta0_hat, rep.delta0_se) == (d0.delta0_hat, d0.se_at_max)
