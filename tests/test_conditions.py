import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stefanlab import make_piecewise, uniform_density, build_gaussian_path, make_density
from stefanlab.conditions import (
    EnvelopeFunction,
    check_averaging_condition,
    check_moment_condition,
    check_pointwise_condition,
    chi_bar,
    g_tilde_inverse,
    psi,
    psi_grid,
    sup_psi,
)

from _oracles import (g_tilde_inverse_bisect, pointwise_h_at, riemann_psi_piecewise,
                      riemann_psi_sine)


def linear_density():
    """f(x) = x on [0, sqrt(2)]: increasing from 0, mass exactly 1."""
    s = math.sqrt(2.0)
    return make_density({"family": "tabulated", "grid": [0.0, s], "values": [0.0, s]})


# ---------------------------------------------------------------------------
# psi
# ---------------------------------------------------------------------------


def test_psi_uniform_density_window_inside_support():
    u = uniform_density(0.0, 1.0)
    assert psi(u, 0.3, 0.5) == pytest.approx(1.0, abs=1e-14)


def test_psi_piecewise_adversarial_window_exact(pw_std):
    # the window [a_{2n+1}, a_{2n}] averages to exactly alpha2, for every n
    for n in range(1, 11):
        lam = pw_std.odd_endpoint(n + 1)  # (1-q)/q = 1 at q = 1/2
        assert psi(pw_std, lam, F(1)) == F(21, 20)


def test_psi_zero_lambda_degenerates_to_pdf(pw_std):
    u = uniform_density(0.0, 2.0)
    assert psi(u, 0.0, 0.3) == pytest.approx(0.5)
    # a scalar zero lambda against an array of mus reads f(0) in the mus' shape
    mus = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    for d in (u, pw_std):
        f0 = float(d.pdf(0.0))
        assert np.array_equal(psi(d, 0.0, mus), np.full(mus.shape, f0))
        assert sup_psi(d, 0.0) == (f0, 0.0)


def test_psi_sine_vs_riemann_oracle(sine_density):
    for lam, mu in ((0.01, 0.0), (0.01, 0.37), (0.003, 0.8), (0.2, 0.1)):
        want, err = riemann_psi_sine(1.0, sine_density.a, lam, mu, n_panels=10**6)
        assert err < 5e-7
        got = psi(sine_density, lam, mu)
        assert got == pytest.approx(want, abs=1e-6)
        if lam <= 0.01:
            assert got < 0.75


def test_psi_piecewise_exact_vs_riemann(pw_std):
    # 100 seeded random windows; midpoint-rule error is bounded by the band
    # crossings, which the mu range keeps to a handful
    rng = np.random.default_rng(7)
    a1 = float(pw_std.a1)
    for _ in range(100):
        lam = float(rng.uniform(0.05, 0.5) * a1)
        mu = float(rng.uniform(1.0 / 3.0, 1.0))
        want = riemann_psi_piecewise(pw_std, lam, mu, n_panels=10**6)
        assert psi(pw_std, lam, mu) == pytest.approx(want, abs=1e-6)


def test_psi_grid_thread_determinism(pw_std, sine_density):
    for lams, mus in ((np.geomspace(1e-4, 0.5, 40), np.linspace(0.0, 1.0, 31)),  # one block
                      (np.geomspace(1e-4, 0.5, 250), np.linspace(0.0, 1.0, 101))):  # four
        for d in (pw_std, sine_density):
            a = psi_grid(d, lams, mus, threads=1)
            for threads in (2, 3, 8):
                assert np.array_equal(a, psi_grid(d, lams, mus, threads=threads))


@pytest.fixture(scope="module")
def profile_density():
    return make_density({"family": "periodic", "alpha": 1.0,
                         "psi": {"period": 2.0 * math.pi, "values": [0.0, -0.5, 0.5, 0.2]}})


def test_psi_grid_equals_psi_row_by_row(pw_std, sine_density, profile_density):
    # rows of all four kinds of density, a zero lambda among them, across blocks
    path = build_gaussian_path(0.5, math.sqrt(2.0), grid_size=257, seed=3)
    lams = np.concatenate([[0.0], np.geomspace(1e-6, 2.0, 199)])
    mus = np.linspace(0.0, 1.0, 101)
    for d in (pw_std, sine_density, profile_density, path):
        want = np.array([psi(d, lam, mus) for lam in lams])
        assert np.array_equal(psi_grid(d, lams, mus, threads=2), want)


def test_psi_bounded_by_max_density(pw_std, sine_density):
    lams = np.concatenate([[0.0], np.geomspace(1e-5, 1.0, 25)])
    mus = np.linspace(0.0, 1.0, 21)
    vals = psi_grid(pw_std, lams, mus)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.05 + 1e-12)
    vals = psi_grid(sine_density, lams, mus)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0 + 1e-12)
    u = uniform_density(0.0, 2.0)  # f(0) = 1/2, which the zero-lambda row must read
    assert np.array_equal(psi_grid(u, lams, mus)[0], np.full(len(mus), 0.5))


# ---------------------------------------------------------------------------
# sup_psi
# ---------------------------------------------------------------------------


def test_sup_psi_piecewise_spike(pw_std):
    for n in (1, 3, 6):
        lam = float(pw_std.odd_endpoint(n + 1))
        val, mu = sup_psi(pw_std, lam)
        assert val >= 1.05 - 1e-12
        assert mu == pytest.approx(1.0, abs=1e-6)


def test_sup_psi_uniform_unit():
    u = uniform_density(0.0, 1.0)
    for lam in (0.1, 0.3, 0.5):
        val, _ = sup_psi(u, lam)
        assert val == pytest.approx(1.0, abs=1e-12)


def test_sup_psi_sine_below_three_quarters(sine_density):
    for lam in (1e-2, 1e-3, 1e-4):
        val, _ = sup_psi(sine_density, lam)
        assert val < 0.75


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["sine", "profile", "band"]), log_lam=st.floats(-6.0, 0.0))
def test_sup_psi_is_a_psi_value_at_least_the_first_grid_max(pw_std, sine_density,
                                                            profile_density, kind, log_lam):
    d = {"sine": sine_density, "profile": profile_density, "band": pw_std}[kind]
    lam = 10.0 ** log_lam
    val, mu = sup_psi(d, lam)
    assert val >= np.max(psi(d, lam, np.linspace(0.0, 1.0, 256)))
    assert 0.0 <= mu <= 1.0
    assert val == pytest.approx(psi(d, lam, mu), abs=1e-15)


def test_sup_psi_ends_at_the_least_and_at_a_wide_xtol(pw_std, sine_density):
    # uniform[0, 1] at lambda 0.5 and a zero lambda are flat in mu: the search
    # keeps the left end and narrows towards 0 until its mus are an ulp apart
    cases = [(sine_density, 1e-4), (sine_density, 0.3), (pw_std, 0.01),
             (uniform_density(0.0, 1.0), 0.5), (pw_std, 0.0)]
    for d, lam in cases:
        grid_max = np.max(psi(d, lam, np.linspace(0.0, 1.0, 256)))
        for xtol in (1.0, 3.0):
            assert sup_psi(d, lam, xtol=xtol)[0] == grid_max
        val, mu = sup_psi(d, lam, xtol=5e-324)
        assert val >= sup_psi(d, lam)[0] and 0.0 <= mu <= 1.0


@pytest.mark.parametrize("lam, xtol, name", [
    (0.01, 0.0, "xtol"), (0.01, -1e-9, "xtol"), (0.01, math.nan, "xtol"),
    (0.01, math.inf, "xtol"), (-1e-3, 1e-9, "lambda"), (math.nan, 1e-9, "lambda"),
])
def test_sup_psi_rejects_a_bad_lambda_or_xtol(sine_density, lam, xtol, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        sup_psi(sine_density, lam, xtol=xtol)


# ---------------------------------------------------------------------------
# pointwise and moment conditions
# ---------------------------------------------------------------------------


def test_pointwise_piecewise_fails_with_band_witness(pw_std):
    rep = check_pointwise_condition(pw_std)
    assert not rep.holds
    assert rep.witness is not None
    assert float(pw_std.pdf(rep.witness)) == 1.05  # witness sits in a high band


def test_pointwise_linear_density_holds():
    rep = check_pointwise_condition(linear_density())
    assert rep.holds
    assert rep.witness is None
    assert np.all(rep.h_values > 0.0)
    # stored outermost first, so nondecreasing-in-x reads nonincreasing here
    assert np.all(np.diff(rep.h_values) <= 0.0)


def test_pointwise_sine_fails_at_touch_points(sine_density):
    # f = 1 exactly at x_n = (pi/2 + 2 pi n)^(-1), accumulating at 0
    rep = check_pointwise_condition(sine_density)
    assert not rep.holds
    x = rep.witness
    assert x is not None and x < 1.0
    assert float(sine_density.pdf(x)) == pytest.approx(1.0, abs=1e-9)


def test_moment_condition(pw_std, sine_density):
    mo = check_moment_condition(sine_density)
    assert mo.f_le_1
    assert 0.0 < mo.first_moment < sine_density.a

    mo = check_moment_condition(pw_std)
    assert not mo.f_le_1
    assert mo.max_pdf == 1.05
    assert math.isfinite(mo.first_moment)

    gp = build_gaussian_path(0.5, math.sqrt(2.0), grid_size=257, seed=2)
    mo = check_moment_condition(gp)
    assert mo.f_le_1
    assert math.isfinite(mo.first_moment)


# ---------------------------------------------------------------------------
# averaging condition
# ---------------------------------------------------------------------------


def test_averaging_piecewise_fails(pw_std):
    rep = check_averaging_condition(pw_std, 0.01)
    assert not rep.holds_1_7
    assert rep.margin_1_7 <= -0.05 + 1e-12  # psi reaches 21/20
    assert rep.lambda0 == 0.0  # spikes accumulate below any grid point
    assert not rep.holds_1_5 and not rep.holds_1_6
    worst = rep.worst_psi[0]
    assert worst[2] == pytest.approx(1.05, abs=1e-12)


def test_averaging_sine_passes_with_quarter_envelope(sine_density):
    rep = check_averaging_condition(sine_density, 0.01)
    assert rep.holds_1_7
    assert rep.lambda0 == 0.01
    assert np.all(rep.g_envelope.g_values >= 0.25)  # sup psi < 3/4 on this range
    assert rep.holds_1_6
    assert not rep.holds_1_5  # averaging succeeds where the pointwise test fails


def test_averaging_lambda0_is_no_larger_than_the_grid(sine_density):
    # with no violated node, lambda0 is the largest lambda the grid verified,
    # not the candidate the grid stops short of
    rep = check_averaging_condition(sine_density, 2.0, lambda_grid=[1e-6, 1e-5])
    assert rep.holds_1_7
    assert rep.lambda0 == 1e-5


def test_averaging_report_does_not_depend_on_the_order_of_the_lambda_grid():
    # windows over the 1.6 plateau violate the condition from lambda near 0.54
    # up; lambda0 is the largest grid lambda below them, however the grid runs
    d = make_density({"family": "tabulated", "grid": [0.0, 0.6, 0.9, 1.1, 1.4],
                      "values": [0.5, 0.5, 1.6, 1.6, 0.0]})
    lam = np.geomspace(1e-6, 2.0, 200)
    shuffled = lam[np.random.default_rng(1).permutation(len(lam))]
    reps = [check_averaging_condition(d, 2.0, lambda_grid=g) for g in (lam, lam[::-1], shuffled)]
    assert reps[0].lambda0 == pytest.approx(0.538, abs=1e-3)
    for rep in reps[1:]:
        assert rep.to_json_dict() == reps[0].to_json_dict()
        assert np.array_equal(rep.g_envelope.s_grid, reps[0].g_envelope.s_grid)
        assert np.array_equal(rep.g_envelope.g_values, reps[0].g_envelope.g_values)


def test_averaging_linear_density_passes():
    rep = check_averaging_condition(linear_density(), 0.1)
    assert rep.holds_1_7 and rep.holds_1_5
    assert rep.lambda0 == pytest.approx(0.1)


@pytest.mark.parametrize("kwargs, match", [
    ({"lambda0_candidate": math.inf}, "lambda0"),
    ({"lambda0_candidate": math.nan}, "lambda0"),
    ({"lambda0_candidate": 0.0}, "lambda0"),
    ({"lambda_grid": [1e-3, math.nan]}, "lambdas"),
    ({"lambda_grid": [0.0, 1e-3]}, "lambdas"),
    ({"lambda_grid": [-1e-3, 1e-3]}, "lambdas"),
    ({"mu_grid": [0.0, math.inf]}, "mus"),
    ({"lambda_grid": []}, "empty"),
    ({"mu_grid": []}, "empty"),
    ({"threads": 0}, "threads"),
    ({"threads": 1.5}, "threads"),
    ({"lambda0_candidate": True}, "lambda0"),
])
def test_averaging_rejects_bad_inputs(sine_density, kwargs, match):
    kwargs = {"lambda0_candidate": 0.01, **kwargs}
    with pytest.raises(ValueError, match=match):
        check_averaging_condition(sine_density, **kwargs)


def test_pointwise_implies_averaging_envelope():
    # chain: a pointwise margin h gives the averaging envelope g(s) >= h(s/2)/2
    d = linear_density()
    rep = check_averaging_condition(d, 0.1)
    pw = rep.pointwise
    env = rep.g_envelope
    for s in env.s_grid[::16]:
        h_half = pointwise_h_at(pw, s / 2.0)
        assert float(env(s)) >= h_half / 2.0 - 0.05


def test_report_json_keys(pw_std):
    rep = check_averaging_condition(pw_std, 0.01)
    payload = rep.to_json_dict()
    for key in ("holds_1_5", "holds_1_6", "holds_1_7", "lambda0", "g_envelope", "worst_psi"):
        assert key in payload
    assert all(len(row) == 3 for row in payload["worst_psi"])


def test_passing_report_certifies_every_grid_node(sine_density):
    # when the averaging check passes, the fitted envelope must actually
    # dominate: psi(lambda, mu) <= 1 - g(lambda (mu+1)) at every grid node
    rep = check_averaging_condition(sine_density, 0.01)
    assert rep.holds_1_7
    env = rep.g_envelope
    assert np.min(env.g_values) > 0.0
    svals = rep.lambda_grid[:, None] * (rep.mu_grid[None, :] + 1.0)
    bound = 1.0 - np.asarray(env(svals))
    assert np.all(rep.psi_values <= bound + 1e-12)


# ---------------------------------------------------------------------------
# envelope, g-tilde inverse, chi-bar
# ---------------------------------------------------------------------------


def test_envelope_validation():
    with pytest.raises(ValueError):
        EnvelopeFunction(np.array([1.0, 0.5]), np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        EnvelopeFunction(np.array([0.5, 1.0]), np.array([0.2, 0.1]))  # decreasing
    with pytest.raises(ValueError):
        EnvelopeFunction(np.array([0.5, 1.0]), np.array([-0.1, 0.2]))
    g = EnvelopeFunction(np.array([0.5, 1.0]), np.array([0.2, 0.4]))
    assert g(0.1) == 0.2   # constant extension below the grid
    assert g(0.7) == 0.2   # left-constant
    assert g(5.0) == 0.4


def test_g_tilde_inverse_examples():
    grid = np.linspace(1e-4, 2.0, 20001)
    g_one = EnvelopeFunction(grid, np.ones_like(grid))
    assert g_tilde_inverse(g_one, 0.7) == pytest.approx(0.7, abs=1e-10)
    assert g_tilde_inverse(g_one, 0.0) == 0.0

    g_id = EnvelopeFunction(grid, grid)
    assert g_tilde_inverse(g_id, 0.09) == pytest.approx(0.3, abs=2e-4)

    g_two = EnvelopeFunction(grid, np.minimum(grid, 0.5))
    assert g_tilde_inverse(g_two, 0.3) == pytest.approx(0.6, abs=2e-4)


def test_g_tilde_inverse_identity_on_grid():
    grid = np.geomspace(1e-3, 3.0, 257)
    g = EnvelopeFunction(grid, np.sqrt(grid) / 4.0)
    for s in grid[::16]:
        y = float(s * g(s))
        assert g_tilde_inverse(g, y) == pytest.approx(s, abs=1e-10)


def test_g_tilde_inverse_range_error():
    g = EnvelopeFunction(np.array([0.5, 1.0]), np.array([0.2, 0.4]))
    with pytest.raises(ValueError, match="range"):
        g_tilde_inverse(g, 10.0)
    with pytest.raises(ValueError):
        g_tilde_inverse(g, -1.0)


@st.composite
def envelope_and_level(draw):
    """A random nondecreasing envelope (g may start at 0) and a level y in
    (0, g_tilde_max], sometimes placed exactly on a right limit s_{i+1} g_i."""
    n = draw(st.integers(1, 10))
    steps = draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
    rises = draw(st.lists(st.sampled_from([0.0, 0.0, 1e-3, 0.1, 0.5, 2.0]),
                          min_size=n, max_size=n))
    s = np.cumsum(steps)
    g = np.cumsum(rises) + draw(st.sampled_from([0.0, 0.0, 0.05, 1.0]))
    env = EnvelopeFunction(s, g)
    if env.g_tilde_max == 0.0:
        g[-1] = 0.5
        env = EnvelopeFunction(s, g)
    limits = [v for v in s[1:] * g[:-1] if 0.0 < v <= env.g_tilde_max]
    if limits and draw(st.booleans()):
        y = draw(st.sampled_from(limits))
    else:
        y = draw(st.floats(1e-9, 1.0)) * env.g_tilde_max
    return env, y


@settings(max_examples=300, deadline=None)
@given(envelope_and_level())
def test_g_tilde_inverse_is_the_smallest_s_reaching_y(case):
    g, y = case
    x = g_tilde_inverse(g, y)
    assert 0.0 < x <= g.s_grid[-1] * (1.0 + 1e-15)
    assert x * g(x) >= y * (1.0 - 1e-14)
    below = np.append(np.linspace(0.0, x, 200, endpoint=False), x * (1.0 - 1e-9))
    assert np.all(below * g(below) < y)


def test_g_tilde_inverse_matches_bisection_on_the_sine_envelope(sine_density):
    g = check_averaging_condition(sine_density, lambda0_candidate=2.0).g_envelope
    ts = np.linspace(0.0, 0.25, 501)
    ys = np.concatenate([np.sqrt(2.0 / math.pi) * np.sqrt(ts),
                         np.linspace(0.0, g.g_tilde_max, 2001)])
    for y in ys:
        assert abs(g_tilde_inverse(g, y) - g_tilde_inverse_bisect(g, y)) <= 1e-12


def test_chi_bar_values_and_monotonicity():
    grid = np.linspace(1e-4, 2.0, 20001)
    g_one = EnvelopeFunction(grid, np.ones_like(grid))
    assert chi_bar(g_one, 0.0) == 0.0
    assert chi_bar(g_one, 1.0) == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-9)

    g_id = EnvelopeFunction(grid, grid)
    assert chi_bar(g_id, 1.0) == pytest.approx((2.0 / math.pi) ** 0.25, abs=2e-4)

    ts = np.linspace(0.0, 2.0, 40)
    vals = [chi_bar(g_one, t) for t in ts]
    assert np.all(np.diff(vals) > 0.0)
