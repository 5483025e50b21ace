import json
import math
import tracemalloc
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.special import erfc, ndtr

from _oracles import (bridge_path_columns, bruteforce_sup_ratio, drifted_sup_bridge_mc,
                      increment_ratios, increment_ratios_loop, path_columns, prob_in_G_mc)
from stefanlab import bounds, make_density, make_piecewise, uniform_density
from stefanlab import rng as streams
from stefanlab.bounds import (
    _CUTS,
    _QUAD_NODES,
    _default_t_indices,
    _frontier_cells,
    _good_set_edges,
    _running_max_sums,
    _sup_cdf_quad,
    assemble_bounds_report,
    compute_L,
    compute_sqrt_constants,
    early_increment_check,
    estimate_beta_slope,
    estimate_delta0,
    estimate_prob_in_G,
    prob_drifted_sup_below,
    prob_drifted_sup_quad,
    simulate_drifted_sup,
    verify_frontier_envelopes,
)
from stefanlab.numerics import first_passage_masses
from stefanlab.solver import FrontierPath, PicardConfig, SolverConfig, picard_minimal

ROOT_2_PI = math.sqrt(2.0 / math.pi)


def _samples(frontier, n_t, n_paths, seed):
    """The report's default grid of n_t times and the grid running-max samples there."""
    t_indices = _default_t_indices(frontier, n_t)
    return t_indices, path_columns(frontier, n_paths, seed, t_indices)[1]


def _slope_times(frontier):
    """The slope constant's 12 report times."""
    return _default_t_indices(frontier, 12, per=200)


def _slope_samples(frontier, n_paths, seed):
    """The samples Lambda - B at the slope constant's 12 report times."""
    return path_columns(frontier, n_paths, seed, _slope_times(frontier))[0]


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
    beta, table = estimate_beta_slope(pw_frontier, pw_std, _slope_times(pw_frontier))
    assert 0.0 < beta < 1.0
    assert table.shape[0] > 0 and np.all(table >= 0.0)


# ---------------------------------------------------------------------------
# envelope margins
# ---------------------------------------------------------------------------


def test_envelopes_on_minimal_frontier(pw_std, pw_frontier):
    beta, _ = estimate_beta_slope(pw_frontier, pw_std, _slope_times(pw_frontier))
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


@pytest.mark.parametrize("mu", [1.0, 3.0])
def test_drifted_sup_quad_matches_bachelier_levy_on_a_linear_boundary(mu):
    # P(sup_{s <= 1} (B_s + mu s) <= x) = Phi(x - mu) - exp(2 mu x) Phi(-x - mu)
    x = np.linspace(0.02, 6.0, 300)
    want = ndtr(x - mu) - np.exp(2.0 * mu * x) * ndtr(-x - mu)
    # the drifted-sup quadrature's uniform cells, with g(s) = mu s for mu sqrt(s)
    t = np.arange(_QUAD_NODES + 1) / _QUAD_NODES
    s = t[1:] - 0.5 / _QUAD_NODES
    got = 1.0 - first_passage_masses(t, mu * t, s, mu * s, x, np.eye(len(x))).sum(axis=0)
    assert np.max(np.abs(got - want)) < 1e-5


def test_drifted_sup_quad_converges_in_its_node_count():
    # the error grows as x -> 0, where the first passage crowds into the first cells
    x = [0.5, 1.0, 2.0, 3.0]
    fine = _sup_cdf_quad(1.3, x, 2 * _QUAD_NODES)
    assert np.max(np.abs(prob_drifted_sup_quad(1.3, x)[0] - fine)) < 1e-6


def test_drifted_sup_quad_agrees_with_the_exact_bridge_sampler():
    # the grid sampler simulate_drifted_sup misses the sup between its times and
    # fails this comparison by 6-9 SE; the bridge maximum per step does not
    x = [0.5, 1.5, 3.0]
    p, se = drifted_sup_bridge_mc(1.3, x, n_paths=100_000, n_steps=200, seed=7)
    q, err = prob_drifted_sup_quad(1.3, x)
    assert np.all(np.abs(p - q) <= 3.0 * se + err)


@settings(max_examples=30, deadline=None)
@given(c3=st.lists(st.floats(0.0, 8.0), min_size=2, max_size=2).map(sorted),
       x=st.lists(st.one_of(st.floats(-1.0, 8.0), st.just(math.inf)),
                  min_size=1, max_size=6).map(sorted))
def test_drifted_sup_quad_is_a_cdf_monotone_in_the_drift(c3, x):
    # monotone up to the quadrature's own error estimate, which is largest
    # near x = 0 where the uniform cells resolve the first passage worst
    x = np.asarray(x)
    (p_lo, err_lo), (p_hi, err_hi) = (prob_drifted_sup_quad(c, x) for c in c3)
    for p, err in ((p_lo, err_lo), (p_hi, err_hi)):
        assert np.all((0.0 <= p) & (p <= 1.0))
        assert np.all(p[x <= 0.0] == 0.0) and np.all(p[x == math.inf] == 1.0)
        assert np.all(err[(x <= 0.0) | (x == math.inf)] == 0.0)
        assert np.all(np.diff(p) >= -(err[1:] + err[:-1]))
    assert np.all(p_hi <= p_lo + err_lo + err_hi)


def test_drifted_sup_quad_rejects_a_nan_x():
    with pytest.raises(ValueError, match="NaN"):
        prob_drifted_sup_quad(1.3, [1.0, math.nan])


@pytest.mark.parametrize("n_paths", [0, 1.5, True])
def test_estimators_reject_a_bad_n_paths(pw_frontier, n_paths):
    with pytest.raises(ValueError, match="n_paths"):
        simulate_drifted_sup(3.0, n_paths=n_paths, n_steps=10)
    with pytest.raises(ValueError, match="n_paths"):
        path_columns(pw_frontier, n_paths, 0, _default_t_indices(pw_frontier, 8))


@pytest.mark.parametrize("spec", [(0.3, 1.1, 0.6, 0.7), ("1/3", "3/2", "1/4", "2/3"),
                                  (0.3, 1.01, 0.95, 0.9)],
                         ids=["float", "exact_r_1_6", "float_r_0.855"])
def test_good_set_edges_span_the_band_table(spec):
    # G is [a_{2n+2}, rho a_{2n+1}], n = 1..N, and [a_2, inf), N the depth of the
    # density's band table; the exact spec has the non-dyadic ratio r = 1/6
    d = make_piecewise(*spec)
    n_table = (len(d._edges) - 2) // 2  # edges 0, a_{2N+1}, ..., a_2, a_1
    rho = float(compute_L(d).rho)
    bands = sorted((float(d.even_endpoint(n + 1)), rho * float(d.odd_endpoint(n + 1)))
                   for n in range(1, n_table + 1))
    want = [x for band in bands for x in band] + [float(d.even_endpoint(1)), math.inf]
    assert np.array_equal(_good_set_edges(d, rho), want)
    assert want[0] < 1e-13 * float(d.a1)


@pytest.mark.parametrize("n_bands", [0, 30])
def test_good_set_edges_are_the_sorted_bands_of_the_endpoints(n_bands):
    # a non-dyadic float density: the top 2 n_bands + 2 edges of G are the bands
    # [a_{2n+2}, rho a_{2n+1}], n = 1..n_bands, and [a_2, inf)
    d = make_piecewise(0.3, 1.1, 0.6, 0.7)
    rho = float(compute_L(d).rho)
    bands = sorted((float(d.even_endpoint(n + 1)), rho * float(d.odd_endpoint(n + 1)))
                   for n in range(1, n_bands + 1))
    want = [x for band in bands for x in band] + [float(d.even_endpoint(1)), math.inf]
    assert np.array_equal(_good_set_edges(d, rho)[-len(want):], want)


def _zero_frontier(T, K=2000):
    t = np.linspace(0.0, T, K + 1)
    return FrontierPath(t=t, lam=np.zeros_like(t))


def test_good_set_reaches_the_band_table_depth():
    # at r = 0.855 the table holds 207 bands; a running max in the good band
    # [a_{2n+2}, rho a_{2n+1}] of n = 40, near 2e-3, lies in G
    d = make_piecewise(0.3, 1.01, 0.95, 0.9)
    rho = float(compute_L(d).rho)
    y = 0.5 * (float(d.even_endpoint(41)) + rho * float(d.odd_endpoint(41)))
    lhs, _ = prob_in_G_mc(d, np.full((1, 1), y))
    assert lhs[0] == 1.0


def test_prob_in_G_reflection_identity(pw_std):
    # with a zero frontier Y_t has the law of |N| sqrt(t), so P(Y_t in G) sums
    # P(lo <= |N| sqrt(t) <= hi) over the pieces [lo, hi] of G; t puts a2 at sqrt(t)
    a2 = float(pw_std.even_endpoint(1))
    K = 2000
    fr = _zero_frontier(a2 ** 2, K)
    consts = compute_sqrt_constants(pw_std, 0.5)
    # 4 K = 8000 quadrature cells: the first-passage solve runs in blocks of rows
    rep = estimate_prob_in_G(fr, pw_std, consts, [K])
    lo, hi = _good_set_edges(pw_std, float(compute_L(pw_std).rho)).reshape(-1, 2).T / a2
    want = float(np.sum(erfc(lo / math.sqrt(2.0)) - erfc(hi / math.sqrt(2.0))))
    assert rep.lhs[0] == pytest.approx(want, abs=3.0 * rep.lhs_se[0] + 0.012)


def test_prob_in_G_dominates_lemma_bound(pw_std, pw_frontier):
    beta, _ = estimate_beta_slope(pw_frontier, pw_std, _slope_times(pw_frontier))
    consts = compute_sqrt_constants(pw_std, beta)
    rep = estimate_prob_in_G(pw_frontier, pw_std, consts, _default_t_indices(pw_frontier, 10))
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
    rep = estimate_delta0(fr, u2, _default_t_indices(fr, 8))
    # F is 1/2-Lipschitz, so every node mean is at most 1/2
    assert rep.delta0_hat <= 0.5 + 1e-12
    assert rep.delta0_hat + 3.0 * rep.se_at_max <= 0.51


def test_delta0_bounded_by_max_density():
    tri = make_density({"family": "tabulated", "grid": [0.0, 1.0, 2.5],
                        "values": [0.9, 0.9, 0.0]})
    t = np.linspace(0.0, 0.1, 101)
    fr = FrontierPath(t=t, lam=np.zeros_like(t))
    rep = estimate_delta0(fr, tri, _default_t_indices(fr, 8))
    assert rep.delta0_hat <= 0.9 + 1e-12


def test_delta0_piecewise_below_one(pw_std, pw_frontier):
    rep = estimate_delta0(pw_frontier, pw_std, _default_t_indices(pw_frontier, 8))
    assert rep.delta0_hat + 3.0 * rep.se_at_max < 1.0
    assert rep.node_means.shape == (len(rep.t_values), len(rep.h_values))


@pytest.mark.parametrize("seed", [5, 314])
def test_estimators_block_evaluation_equals_the_node_loop(pw_std, sine_density, pw_frontier,
                                                          seed):
    # 10_000 paths span two 8192-row blocks of the sums; the block evaluation is
    # the Monte Carlo referee's of the slope constant and delta0
    t_indices, cols = _samples(pw_frontier, 8, 10_000, seed)
    x_cols = _slope_samples(pw_frontier, 10_000, seed)
    for d in (pw_std, sine_density):
        u = d.support_upper
        table, _ = increment_ratios(d, x_cols, np.geomspace(1e-3 * u, 2.0 * u, 24))
        beta = np.max(table)
        means, _ = increment_ratios_loop(d, x_cols, np.geomspace(1e-3 * u, 2.0 * u, 24))
        assert np.array_equal(table, means) and beta == np.max(means)
        node_means, node_ses = increment_ratios(d, cols, np.geomspace(1e-4 * u, u, 16))
        means, ses = increment_ratios_loop(d, cols, np.geomspace(1e-4 * u, u, 16))
        assert np.array_equal(node_means, means) and np.array_equal(node_ses, ses)


# ---------------------------------------------------------------------------
# early-increment inequality
# ---------------------------------------------------------------------------


def test_early_increment_margin(pw_std, pw_frontier):
    margin = early_increment_check(pw_frontier, pw_std)
    se = math.sqrt(0.25 / 20_000)
    assert margin >= -3.0 * se


def test_bounds_report_one_y_pass_equals_the_standalone_estimators(pw_std, pw_frontier):
    # each estimator here runs on its own, on the report's grid of times
    rep = assemble_bounds_report(pw_std, pw_frontier, n_mc=20_000)
    assert rep.beta_slope == estimate_beta_slope(pw_frontier, pw_std, _slope_times(pw_frontier))[0]
    consts = compute_sqrt_constants(pw_std, rep.beta_slope)
    pg = estimate_prob_in_G(pw_frontier, pw_std, consts, _default_t_indices(pw_frontier, 10))
    d0 = estimate_delta0(pw_frontier, pw_std, _default_t_indices(pw_frontier, 8))
    assert rep.prob_g.to_dict() == pg.to_dict()
    assert np.array_equal(rep.prob_g.lhs_se, pg.lhs_se)
    assert (rep.delta0_hat, rep.delta0_se) == (d0.delta0_hat, d0.se_at_max)


def test_bounds_report_calls_each_estimator_once_through_the_module(pw_std, pw_frontier,
                                                                     monkeypatch):
    # the report's estimates are the public estimators' (so a wrapper of a public
    # name sees them), and one quadrature call, with no sampling, serves the
    # occupation bound's drifted-sup factor
    calls = {"simulate_drifted_sup": 0}
    for name in ("estimate_beta_slope", "estimate_prob_in_G", "estimate_delta0",
                 "simulate_drifted_sup", "prob_drifted_sup_quad"):
        def counted(*args, _fn=getattr(bounds, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(bounds, name, counted)
    assemble_bounds_report(pw_std, pw_frontier, n_mc=20_000, seed=5, n_paths=2000)
    assert calls == {"estimate_beta_slope": 1, "estimate_prob_in_G": 1, "estimate_delta0": 1,
                     "simulate_drifted_sup": 0, "prob_drifted_sup_quad": 1}


def test_bounds_report_draws_every_number_from_its_one_pass(pw_std, pw_frontier, monkeypatch):
    # the Monte Carlo referee of the report's estimates reads X and Y off one
    # pass, at the union of the estimates' times, so every normal is a Y_SAMPLES lane
    kinds = []

    def stream(seed, kind, *args, _fn=streams.stream, **kwargs):
        kinds.append(kind)
        return _fn(seed, kind, *args, **kwargs)
    monkeypatch.setattr(streams, "stream", stream)
    union = np.unique(np.concatenate([_slope_times(pw_frontier),
                                      _default_t_indices(pw_frontier, 10),
                                      _default_t_indices(pw_frontier, 8)]))
    path_columns(pw_frontier, 2000, 5, union)
    assert kinds and set(kinds) == {streams.Y_SAMPLES}


@pytest.mark.parametrize("n_mc", [0, -5, math.nan, 2.5, True])
def test_envelopes_and_report_reject_a_bad_n_mc(pw_std, pw_frontier, n_mc):
    # a count below 1 gave max_se = NaN in the JSON, and 2.5 was taken as a count
    consts = compute_sqrt_constants(pw_std, 0.5)
    with pytest.raises(ValueError, match="n_mc"):
        verify_frontier_envelopes(pw_frontier, consts, n_mc=n_mc)
    with pytest.raises(ValueError, match="n_mc"):
        assemble_bounds_report(pw_std, pw_frontier, n_mc=n_mc, n_paths=100)


@pytest.mark.parametrize("seed", [2.5, True, -1, 2**64, "1"])
def test_report_sampler_rejects_a_bad_seed(pw_std, pw_frontier, seed):
    # 2.5 and True were truncated to a seed; -1 and 2^64 raised OverflowError
    with pytest.raises(ValueError, match="seed"):
        path_columns(pw_frontier, 100, seed, [1])
    with pytest.raises(ValueError, match="seed"):
        simulate_drifted_sup(3.0, n_paths=100, n_steps=10, seed=seed)


def test_report_sampler_takes_the_seed_range_ends(pw_frontier):
    for seed in (0, 2**64 - 1, np.uint64(2**64 - 1)):
        x, y = path_columns(pw_frontier, 3, seed, [1, 2])
        assert x.shape == y.shape == (3, 2) and np.all(y >= x)


# ---------------------------------------------------------------------------
# first-passage quadrature of the running max
# ---------------------------------------------------------------------------


def test_drifted_sup_quad_is_pinned():
    # recorded before the Volterra solve moved into numerics.first_passage_masses
    want = {(1.3, 0.05): ("0x1.d85acbcc56000p-14", "0x1.d85acbcc56000p-14"),
            (1.3, 0.5): ("0x1.27d2449588d50p-5", "0x1.e7479d5b00000p-20"),
            (1.3, 2.0): ("0x1.44e70279c854bp-1", "0x1.bf9be09800000p-22"),
            (5.228, 0.3): ("0x0.0p+0", "0x0.0p+0"),
            (5.228, 1.0): ("0x1.e69cd36000000p-26", "0x1.56af700000000p-28"),
            (5.228, 4.0): ("0x1.1ceedf70bafc0p-4", "0x1.26c2114000000p-22"),
            (0.0, 0.7): ("0x1.083aae2b86550p-1", "0x0.0p+0")}
    for c3, xs in ((1.3, [0.05, 0.5, 2.0]), (5.228, [0.3, 1.0, 4.0]), (0.0, [0.7])):
        p, err = prob_drifted_sup_quad(c3, xs)
        got = [(float(a).hex(), float(b).hex()) for a, b in zip(p, err)]
        assert got == [want[c3, x] for x in xs]


@settings(max_examples=40, deadline=None)
@given(mu=st.floats(0.0, 4.0), k=st.integers(20, 400), t_end=st.floats(0.01, 1.0),
       y=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=6),
       picks=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
# a level far below one step's spread: a clip to [0, 1] read 0 at 4 and 2 cuts
@example(mu=3.735, k=90, t_end=0.2207, y=[5.2e-4], picks=[11 / 90])
def test_running_max_cdf_matches_bachelier_levy_on_a_linear_frontier(mu, k, t_end, y, picks):
    # P(sup_{s <= t} (mu s - B_s) <= y) = Phi((y - mu t)/sqrt(t)) - e^{2 mu y} Phi((-y - mu t)/sqrt(t))
    t_end = min(t_end, 1.0 / mu) if mu > 0.0 else t_end
    t = np.linspace(0.0, t_end, k + 1)
    fr = FrontierPath(t=t, lam=np.minimum(mu * t, 1.0))
    y = np.asarray(y)
    ti = np.unique(np.clip(np.rint(np.asarray(picks) * k).astype(int), 1, k))
    levels = np.eye(len(y))  # one weight column per level: P(Y_t <= y) itself
    p = _running_max_sums(fr, ti, y, levels, _CUTS)
    err = np.abs(p - _running_max_sums(fr, ti, y, levels, _CUTS // 2))
    tt = t[ti][:, None]
    want = ndtr((y - mu * tt) / np.sqrt(tt)) - np.exp(2.0 * mu * y) * ndtr((-y - mu * tt) / np.sqrt(tt))
    # unclipped, the half-cell distance bounds the error at every level, also
    # below one step's spread, where the uniform cells resolve the passage coarsely
    assert np.all(np.abs(p - want) <= 2.0 * err + 5e-5)
    assert np.all(np.abs(p - want) <= 0.02)


def test_running_max_cdf_is_zero_below_a_positive_start():
    # Y_t >= Lambda_0, so P(Y_t <= y) = 0 for every y < Lambda_0 (and at y = Lambda_0)
    t = np.linspace(0.0, 0.1, 51)
    fr = FrontierPath(t=t, lam=0.3 + 0.5 * np.sqrt(t))
    y = np.array([-1.0, 0.0, 0.1, 0.29999, 0.3, 0.31, 0.5, 1.0, math.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = _running_max_sums(fr, [1, 10, 50], y, np.eye(len(y)), _CUTS)
    assert np.all(p[:, :5] == 0.0) and np.all(p[:, -1] == 1.0)
    assert np.all(np.isfinite(p)) and np.all((0.0 < p[:, 5:]) & (p[:, 5:] <= 1.0))


def test_first_passage_blocks_solve_the_whole_system():
    # 3000 cells: three blocks of rows, against one solve of the whole triangle
    t, g, s, g_s = _frontier_cells(FrontierPath(t=np.linspace(0.0, 0.3, 751),
                                                lam=np.sqrt(np.linspace(0.0, 0.3, 751))), 750, 4)
    x = np.array([0.0, 0.05, 0.4, 0.9, math.inf])
    got = first_passage_masses(t, g, s, g_s, x, np.eye(len(x)))
    kernel = np.tril(ndtr(np.subtract.outer(g[1:], g_s)
                          / np.sqrt(np.abs(np.subtract.outer(t[1:], s)))))
    rhs = ndtr((g[1:, None] - x[1:-1]) / np.sqrt(t[1:, None]))
    assert np.allclose(got[:, 1:-1], solve_triangular(kernel, rhs, lower=True),
                       rtol=0.0, atol=1e-13)
    assert got[0, 0] == 1.0 and not np.any(got[1:, 0]) and not np.any(got[:, -1])
    # weighted, the levels at g(0) = 0 and at inf included: the masses times w
    w = np.random.default_rng(5).standard_normal((len(x), 3))
    assert np.allclose(first_passage_masses(t, g, s, g_s, x, w), got @ w, rtol=0.0, atol=1e-13)


def test_bounds_report_solves_delta0_on_at_most_16_right_sides(pw_std, pw_frontier, monkeypatch):
    # delta0 solves on one combined right side per increment h, not on a column
    # per y level (1500 here); the report's widest solve is the occupation's, a
    # column per edge of G, each clipped to [0, 1] before the sum
    widths = []

    def recording(a, b, **kw):
        widths.append(b.shape[1])
        return solve_triangular(a, b, **kw)

    monkeypatch.setattr("stefanlab.numerics.solve_triangular", recording)
    estimate_delta0(pw_frontier, pw_std, _default_t_indices(pw_frontier, 8))
    assert widths and max(widths) <= 16
    widths.clear()
    assemble_bounds_report(pw_std, pw_frontier, n_mc=20_000)
    assert max(widths) == len(_good_set_edges(pw_std, float(compute_L(pw_std).rho)))


@pytest.fixture(scope="module", params=[2026, 314])
def bridge_referee(request, pw_frontier):
    """(seed, X, Y) of 20_000 paths at the union of the report's times, Y the
    continuous running max of the bridge referee."""
    union = np.unique(np.concatenate([_slope_times(pw_frontier),
                                      _default_t_indices(pw_frontier, 10),
                                      _default_t_indices(pw_frontier, 8)]))
    gen = np.random.default_rng(request.param)
    x, y = bridge_path_columns(pw_frontier, 20_000, request.param, union, gen)
    return union, x, y


def test_report_quadratures_agree_with_the_exact_bridge_referee(pw_std, pw_frontier,
                                                                bridge_referee):
    union, x, y = bridge_referee
    rep = assemble_bounds_report(pw_std, pw_frontier, n_mc=20_000)
    pg = rep.prob_g
    p, se = prob_in_G_mc(pw_std, y[:, np.searchsorted(union, _default_t_indices(pw_frontier, 10))])
    assert np.all(np.abs(pg.lhs - p) <= 3.0 * se + pg.lhs_se)
    a = pw_std.support_upper
    ti_d = np.searchsorted(union, _default_t_indices(pw_frontier, 8))
    means, ses = increment_ratios(pw_std, y[:, ti_d], np.geomspace(1e-4 * a, a, 16))
    best = np.argmax(means)
    assert abs(rep.delta0_hat - means.flat[best]) <= 3.0 * ses.flat[best] + rep.delta0_se
    # X_t is N(Lambda_t, t) however the path is monitored: the grid referee's columns
    ti_b = np.searchsorted(union, _slope_times(pw_frontier))
    means, ses = increment_ratios(pw_std, x[:, ti_b], np.geomspace(1e-3 * a, 2.0 * a, 24))
    best = np.argmax(means)
    assert abs(rep.beta_slope - means.flat[best]) <= 3.0 * ses.flat[best]


def test_report_errors_are_below_the_monte_carlo_errors_they_replace(pw_std, pw_frontier,
                                                                     bridge_referee):
    union, _, y = bridge_referee
    rep = assemble_bounds_report(pw_std, pw_frontier, n_mc=20_000)
    _, se = prob_in_G_mc(pw_std, y[:, np.searchsorted(union, _default_t_indices(pw_frontier, 10))])
    assert np.all(rep.prob_g.lhs_se < se)
    a = pw_std.support_upper
    ti_d = np.searchsorted(union, _default_t_indices(pw_frontier, 8))
    _, ses = increment_ratios(pw_std, y[:, ti_d], np.geomspace(1e-4 * a, a, 16))
    assert rep.delta0_se < np.min(ses[ses > 0.0])


def test_bounds_report_draws_no_random_number(pw_std, pw_frontier, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the bounds report drew a random number")

    draws = [name for name, fn in vars(streams).items()
             if callable(fn) and not name.startswith("_")
             and getattr(fn, "__module__", None) == streams.__name__]
    assert {"uniform_block", "normal_block", "stream"} <= set(draws)
    for name in draws:
        monkeypatch.setattr(streams, name, refuse)
    rep = assemble_bounds_report(pw_std, pw_frontier, n_mc=20_000)
    assert 0.0 < rep.beta_slope < 1.0


def test_bounds_report_ignores_seed_and_n_paths(pw_std, pw_frontier):
    # the keywords stay for callers that still pass them; they change nothing
    a = assemble_bounds_report(pw_std, pw_frontier, n_mc=20_000, seed=1, n_paths=100)
    b = assemble_bounds_report(pw_std, pw_frontier, n_mc=20_000, seed=2**63, n_paths=50_000)
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())
