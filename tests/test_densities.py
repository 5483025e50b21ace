import json
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from stefanlab import (
    DensityError,
    build_gaussian_path,
    densities,
    make_density,
    make_piecewise,
    tabulated_from_csv,
    uniform_density,
)
from stefanlab.conditions import check_pointwise_condition
from stefanlab.densities import (
    PeriodicOscillatoryDensity,
    SinusoidProfile,
    TabulatedProfile,
)

from _oracles import simpson_scalar, sine_window_mass, sup_pdf_band_walk, tabulated_profile_mass


# ---------------------------------------------------------------------------
# piecewise geometric family
# ---------------------------------------------------------------------------


def test_piecewise_derived_constants(pw_std):
    assert pw_std.beta1 == F(41, 60)
    assert pw_std.beta2 == F(13, 15)
    assert pw_std.a1 == F(60, 41)
    assert pw_std.r == F(1, 4)
    assert pw_std.admissible  # 21/20 < 5/4

    d = make_piecewise("1/2", "9/8", "1/2", "1/2")
    assert d.beta2 == F(11, 12)
    assert d.admissible

    d = make_piecewise("1/2", "3/2", "1/2", "1/2")
    assert not d.admissible  # 3/2 >= 5/4


@pytest.mark.parametrize("bad", [
    dict(alpha1="0", alpha2="21/20", p="1/2", q="1/2"),
    dict(alpha1="3/2", alpha2="2", p="1/2", q="1/2"),
    dict(alpha1="1/2", alpha2="1", p="1/2", q="1/2"),
    dict(alpha1="1/2", alpha2="21/20", p="1", q="1/2"),
    dict(alpha1="1/2", alpha2="21/20", p="1/2", q="0"),
])
def test_piecewise_parameter_validation(bad):
    with pytest.raises(DensityError):
        make_piecewise(**bad)


def test_piecewise_cdf_oscillates_between_lines(pw_std):
    # exact rational arithmetic on both endpoint families, n <= 20
    for n in range(1, 21):
        a_odd = pw_std.odd_endpoint(n)
        a_even = pw_std.even_endpoint(n)
        assert pw_std.cdf(a_odd) == pw_std.beta1 * a_odd
        assert pw_std.cdf(a_even) == pw_std.beta2 * a_even


def test_piecewise_pdf_band_values(pw_std):
    a1 = float(pw_std.a1)
    assert pw_std.pdf(0.99 * a1) == 0.5          # [a2, a1) level
    assert pw_std.pdf(0.6 * a1) == pytest.approx(0.5)
    assert pw_std.pdf(float(pw_std.odd_endpoint(2)) * 1.01) == 1.05  # [a3, a2)
    assert pw_std.pdf(-1.0) == 0.0
    assert pw_std.pdf(a1 * 1.5) == 0.0
    assert pw_std.pdf(F(1, 10**6)) in (F(1, 2), F(21, 20))


def test_piecewise_cdf_examples(pw_std):
    assert pw_std.cdf(F(30, 41)) == F(26, 41)    # beta2 * a2
    assert pw_std.cdf(F(0)) == 0
    assert pw_std.cdf(pw_std.a1) == 1
    xs = np.linspace(0.0, 2.0, 1001)
    Fx = pw_std.cdf(xs)
    assert np.all(np.diff(Fx) >= 0.0)
    assert Fx[0] == 0.0 and Fx[-1] == 1.0


def test_piecewise_sample_inversion(pw_std):
    assert pw_std.sample(F(1)) == pw_std.a1
    assert pw_std.sample(F(26, 41)) == F(30, 41)
    assert pw_std.sample(F(0)) == 0
    us = np.linspace(0.0, 1.0, 1001)
    xs = pw_std.sample(us)
    assert np.all(np.diff(xs) >= 0.0)
    assert np.max(np.abs(pw_std.cdf(xs) - us)) < 1e-12


_RATIONAL = dict(max_denominator=60)


@settings(max_examples=60, deadline=None)
@given(alpha1=st.fractions(0, 1, **_RATIONAL).filter(lambda v: 0 < v < 1),
       alpha2=st.fractions(1, 4, **_RATIONAL).filter(lambda v: v > 1),
       p=st.fractions(F(1, 20), F(19, 20), **_RATIONAL),
       q=st.fractions(F(1, 20), F(19, 20), **_RATIONAL),
       u=st.fractions(0, 1, max_denominator=10**6),
       s=st.fractions(0, 1, max_denominator=10**6))
def test_piecewise_exact_cdf_and_sample_are_inverse(alpha1, alpha2, p, q, u, s):
    d = make_piecewise(alpha1, alpha2, p, q)
    assert d.cdf(d.sample(u)) == u
    x = s * d.a1
    assert d.sample(d.cdf(x)) == x
    for n in (1, 2, 5):  # band edges and their images r^(n-1), beta2 a_{2n}
        for edge in (d.odd_endpoint(n), d.even_endpoint(n)):
            assert d.sample(d.cdf(edge)) == edge


def test_piecewise_first_moment_vs_quadrature(pw_std):
    exact = float(pw_std.first_moment())
    a1 = float(pw_std.a1)
    # midpoint rule handles the band discontinuities at O(panel width) each
    n = 2 ** 20
    mids = (np.arange(n) + 0.5) * a1 / n
    approx = float(np.sum(mids * pw_std.pdf(mids))) * a1 / n
    assert exact == pytest.approx(approx, abs=2e-6)


def test_piecewise_levels_accumulate_at_zero(pw_std):
    # the high level alpha2 > 1 is hit inside (0, eps) for every eps
    for eps in (1e-1, 1e-3, 1e-6, 1e-9):
        sup, arg = pw_std.sup_pdf(0.0, eps)
        assert sup == 1.05
        assert 0.0 < arg < eps


def test_piecewise_float_mode():
    d = make_piecewise(0.5, 1.05, 0.5, 0.5)
    assert not d.exact
    assert float(d.beta1) == pytest.approx(41.0 / 60.0)
    assert d.cdf(0.3) == pytest.approx(float(make_piecewise("1/2", "21/20", "1/2", "1/2").cdf(F(3, 10))))
    # one float parameter puts the "num/den" strings on the float path too
    mixed = make_piecewise(0.5, "21/20", "1/2", "1/2")
    assert not mixed.exact and mixed.cdf(0.3) == d.cdf(0.3)


#: the benchmark spec, its float twin, a non-dyadic float spec, an exact spec
#: with the non-dyadic ratio r = 1/6, and a float spec with r = 0.855
BAND_SPECS = [("1/2", "21/20", "1/2", "1/2"), (0.5, 1.05, 0.5, 0.5), (0.3, 1.1, 0.6, 0.7),
              ("1/3", "3/2", "1/4", "2/3"), (0.3, 1.01, 0.95, 0.9)]
_exact_band_specs = st.tuples(
    st.fractions(0, 1, **_RATIONAL).filter(lambda v: 0 < v < 1),
    st.fractions(1, 4, **_RATIONAL).filter(lambda v: v > 1),
    st.fractions(F(1, 20), F(19, 20), **_RATIONAL),
    st.fractions(F(1, 20), F(19, 20), **_RATIONAL)).filter(lambda v: v[2] * v[3] <= F(171, 200))


def _assert_sup_pdf_is_the_walk(d, lo, hi):
    got, want = d.sup_pdf(lo, hi), sup_pdf_band_walk(d, lo, hi)
    assert got == want
    assert all(type(v) is float for v in got + want if v is not None)


@settings(max_examples=200, deadline=None)
@given(spec=st.one_of(st.sampled_from(BAND_SPECS), _exact_band_specs,
                      _exact_band_specs.map(lambda v: tuple(map(float, v)))),
       u=st.floats(0.0, 1.0), w=st.floats(0.0, 1.0))
@example(spec=BAND_SPECS[0], u=0.0, w=3.834151464431936e-17)  # (a_{2N+1}, a_{2N+1} + 1 ulp]
def test_piecewise_sup_pdf_table_equals_the_band_walk(spec, u, w):
    # windows from the table's lowest band edge a_{2N+1} up to past a1, from
    # empty to 1000 times as wide as they are far from 0
    d = make_piecewise(*spec)
    floor, a1 = float(d._edges[1]), float(d.a1)
    lo = floor * (a1 / floor) ** u
    _assert_sup_pdf_is_the_walk(d, lo, lo * 1000.0 ** w)


@pytest.mark.parametrize("spec", BAND_SPECS)
def test_piecewise_sup_pdf_on_the_pointwise_windows_and_below_the_table(spec):
    d = make_piecewise(*spec)
    for k in range(1, 25):
        _assert_sup_pdf_is_the_walk(d, 2.0 ** (-k - 1), 2.0 ** (-k))
    _assert_sup_pdf_is_the_walk(d, 0.0, float(d.a1))
    for lo, hi in [(math.nan, 0.5), (0.25, math.nan)]:  # no point lies in a NaN window
        _assert_sup_pdf_is_the_walk(d, lo, hi)
    # the sliver below a_{2N+1} stands for both levels: it reads alpha2
    floor = float(d._edges[1])
    assert d.sup_pdf(0.0, 0.5 * floor) == (float(d.alpha2), 0.25 * floor)


# ---------------------------------------------------------------------------
# periodic oscillatory family
# ---------------------------------------------------------------------------


def test_normalize_periodic_trivial_profiles():
    assert PeriodicOscillatoryDensity(1.0, 1.0).a == pytest.approx(1.0, abs=1e-10)
    assert PeriodicOscillatoryDensity(1.0, 0.0).a == pytest.approx(2.0, abs=1e-10)
    assert PeriodicOscillatoryDensity(0.5, 1.0).a == pytest.approx(1.0, abs=1e-10)


def test_normalize_periodic_sine_residual(sine_density):
    # oracle: composite-rule mass of the sine density up to the computed a
    mass, err = sine_window_mass(1.0, 0.0, sine_density.a, n_panels=2 * 10**6)
    assert err < 1e-9
    assert abs(mass - 1.0) < 1e-8


def test_periodic_pdf_closed_form(sine_density):
    assert sine_density.pdf(2.0 / math.pi) == pytest.approx(1.0, abs=1e-14)
    assert sine_density.pdf(0.0) == 0.0
    assert sine_density.pdf(sine_density.a * 1.01) == 0.0
    xs = np.geomspace(1e-8, sine_density.a, 4001)
    fx = sine_density.pdf(xs)
    assert np.all(fx >= 0.0) and np.all(fx <= 1.0)


def test_periodic_cdf_matches_oracle(sine_density):
    for x in (0.003, 0.02, 0.17, 0.9, sine_density.a):
        mass, err = sine_window_mass(1.0, 0.0, x, n_panels=2 * 10**6)
        assert err < 1e-9
        assert float(sine_density.cdf(x)) == pytest.approx(mass, abs=1e-8)


def test_periodic_cdf_small_x_mean_level(sine_density):
    # mass near 0 rides the profile mean: F(x)/x -> 1/2
    for x in (1e-5, 1e-7):
        assert float(sine_density.cdf(x)) / x == pytest.approx(0.5, abs=1e-3)


def test_periodic_sample_roundtrip(sine_density):
    us = np.linspace(0.001, 0.999, 1000)
    xs = sine_density.sample(us)
    assert np.all(np.diff(xs) >= -1e-12)
    assert np.max(np.abs(sine_density.cdf(xs) - us)) < 5e-6


def test_periodic_first_moment(sine_density):
    m = sine_density.first_moment()
    ref = simpson_scalar(lambda y: y * float(sine_density.pdf(y)), 1e-6, sine_density.a, 2 ** 15)
    # the truncated head contributes at most (1e-6)^2 / 2
    assert m == pytest.approx(ref, abs=1e-6)
    assert 0.0 < m < sine_density.a


def test_periodic_tabulated_profile_matches_brute_force():
    # triangle wave sampled over one period
    period = 2.0 * math.pi
    us = np.arange(64) * period / 64
    tri = 2.0 * np.abs(2.0 * (us / period - np.floor(us / period + 0.5))) - 1.0
    d = PeriodicOscillatoryDensity(1.0, {"period": period, "values": list(tri)})
    assert 0.5 < d.a < 8.0
    for x in (0.05, 0.3, 1.0):
        ref = simpson_scalar(lambda y: float(d.pdf(y)), 0.02, x, 2 ** 15)
        got = float(d.cdf(x)) - float(d.cdf(0.02))
        # the oracle's Simpson rule loses an order at each profile kink
        assert got == pytest.approx(ref, abs=2e-6)


def test_periodic_fast_cdf_table_accuracy(sine_density):
    # the solver path goes through the interpolation table; keep its worst
    # deviation from the precise CDF well under the Monte Carlo noise floor
    xs = np.concatenate([np.geomspace(1e-8, sine_density.a * 0.999, 3000),
                         np.linspace(1e-4, sine_density.a, 2000)])
    gap = np.abs(np.asarray(sine_density.cdf_fast(xs)) - np.asarray(sine_density.cdf(xs)))
    assert float(np.max(gap)) < 2e-5
    d2 = PeriodicOscillatoryDensity(2.0, "sin")
    xs = np.geomspace(1e-6, d2.a * 0.999, 3000)
    gap = np.abs(np.asarray(d2.cdf_fast(xs)) - np.asarray(d2.cdf(xs)))
    assert float(np.max(gap)) < 5e-5


def test_periodic_alpha_scaling():
    d = PeriodicOscillatoryDensity(0.5, "sin")
    assert d.pdf((2.0 / math.pi) ** 2) == pytest.approx(1.0, abs=1e-12)
    mass, err = sine_window_mass(0.5, 0.0, d.a, n_panels=2 * 10**6)
    assert abs(mass - 1.0) < 1e-7 + err


def test_periodic_rejects_bad_profiles():
    with pytest.raises(DensityError):
        PeriodicOscillatoryDensity(1.0, 1.5)       # |psi| > 1
    with pytest.raises(DensityError):
        PeriodicOscillatoryDensity(1.0, -1.0)      # zero mass
    with pytest.raises(DensityError):
        PeriodicOscillatoryDensity(-1.0, "sin")
    # g = 0 for u = x^(-alpha) in [0, period / 2]: f vanishes for x above
    # pi^(-1/alpha), so no support endpoint gives mass 1
    for alpha in (0.5, 1.0, 2.0):
        with pytest.raises(DensityError, match="normalization"):
            PeriodicOscillatoryDensity(alpha, {"period": 2.0 * math.pi,
                                               "values": [-1.0, -1.0, -1.0, 1.0]})


@pytest.mark.parametrize("alpha, period, x_star", [
    (1.0, 2.0 * math.pi, 1.0 / math.pi), (2.0, 2.0 * math.pi, math.pi ** -0.5),
    (1.0, 1000.0, 0.002)], ids=["alpha1", "alpha2", "period1000"])
def test_periodic_profile_zero_near_u_0_is_rejected_after_one_table(monkeypatch, alpha, period,
                                                                     x_star):
    # psi = -1 on the first half period (its last sample rises to 1 only after
    # it): f = 0 above x* = (period / 2)^(-1/alpha), so the mass is that of (0, x*]
    nodes = PeriodicOscillatoryDensity._nodes
    calls = []

    def counted(self, hi):
        calls.append(hi)
        return nodes(self, hi)
    monkeypatch.setattr(PeriodicOscillatoryDensity, "_nodes", counted)
    with pytest.raises(DensityError, match="normalization") as exc:
        PeriodicOscillatoryDensity(alpha, {"period": period, "values": [-1.0, -1.0, -1.0, 1.0]})
    assert len(calls) == 1
    head, mass = str(exc.value).split(f"above x = {x_star:g}, and the total mass is ")
    assert head.endswith(f"[0, {period / 2:g}), so f = 0 ")
    assert 0.0 < float(mass.removesuffix(" < 1")) < 1.0


@pytest.mark.parametrize("alpha", [2.0, 3.0])
def test_periodic_profile_with_g0_zero_and_too_little_mass_names_both(alpha):
    # g(u) = u / pi on [0, pi] leaves f = x^(-alpha) / pi for x >= 1: a finite
    # mass at alpha > 1, below 1 here, which no support endpoint reaches
    values = [-1.0, 1.0]
    with pytest.raises(DensityError, match=r"^normalization impossible: g\(0\) = 0, ") as exc:
        PeriodicOscillatoryDensity(alpha, {"period": 2.0 * math.pi, "values": values})
    head, mass = str(exc.value).split(" is ")
    assert head.startswith("normalization impossible: g(0) = 0, and the mass up to x = ")
    below_1, bound = tabulated_profile_mass(alpha, 2.0 * math.pi, values, [1.0],
                                            tail_panels=16)
    total = float(below_1[0]) + 1.0 / (math.pi * (alpha - 1.0))
    # the message keeps 6 digits
    assert float(mass.removesuffix(" < 1")) == pytest.approx(total, abs=2e-6 + bound)


def test_tabulated_profile_mass_bound_covers_its_simpson_pieces():
    # at 2 panels per piece above u = 20 this case was off by 7.6e-7, 85 times
    # the bound of the tail past u_c alone
    args = (2.0, 2.0 * math.pi, [-1.0, 1.0], [1.0])
    mass, bound = tabulated_profile_mass(*args)
    finer, finer_bound = tabulated_profile_mass(*args, tail_panels=16)
    assert abs(mass[0] - finer[0]) + finer_bound <= bound
    assert finer[0] == pytest.approx(0.53949482, abs=1e-8)


def test_periodic_tabulated_profile_mass_matches_break_aligned_oracle():
    # 64 samples of a sine put 4 kinks in each sixteenth of a period: the
    # quadrature cells must end on them, or the Gauss-Legendre rule loses mass
    period = 2.0 * math.pi
    values = np.sin(np.arange(64) * period / 64)
    d = PeriodicOscillatoryDensity(1.0, {"period": period, "values": list(values)})
    xs = np.array([0.005, 0.03, 0.2, 0.7, d.a])
    mass, bound = tabulated_profile_mass(1.0, period, values, xs)
    assert bound < 1e-10
    assert abs(mass[-1] - 1.0) < 1e-10 + bound
    assert abs(d.total_mass - 1.0) < 1e-12
    assert np.max(np.abs(np.asarray(d.cdf(xs[:-1])) - mass[:-1])) < 1e-10 + bound


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(0.5, 2.0),
       values=st.one_of(st.none(), st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=64)))
def test_periodic_table_properties(alpha, values):
    psi = "sin" if values is None else {"period": 2.0 * math.pi, "values": values}
    try:
        d = PeriodicOscillatoryDensity(alpha, psi)
    except DensityError:
        # no mass (profile mean -1), or psi(0) = -1: then f decays like x^-alpha
        # at large x and the mass on (0, inf) can stay below 1
        assert values is not None and ((1.0 + np.mean(values)) / 2.0 <= 1e-12
                                       or values[0] == -1.0)
        return
    xs = np.sort(np.concatenate([np.linspace(0.0, d.a, 4001), np.geomspace(1e-9, d.a, 2001)]))
    # below x0 the CDF is a truncated expansion, exact up to a tracked bound;
    # where f vanishes on a stretch it can dip there by a few units in the last place
    assert np.all(np.diff(np.asarray(d.cdf(xs))) >= -1e-14)
    assert abs(d.total_mass - 1.0) < 1e-12
    us = np.linspace(0.001, 0.999, 999)
    assert np.max(np.abs(np.asarray(d.cdf(d.sample(us))) - us)) < 5e-6


def test_periodic_sample_roundtrip_where_alpha_is_large():
    # at alpha = 2 the table below x0 is off by ~3e-5; two Newton steps from
    # there used to leave that error in sample()
    d = PeriodicOscillatoryDensity(2.0, "sin")
    us = np.linspace(0.001, 0.999, 999)
    assert np.max(np.abs(np.asarray(d.cdf(d.sample(us))) - us)) < 1e-9


def test_periodic_cdf_and_sample_edge_inputs(sine_density):
    # NaN stays NaN (the precise CDF used to return uninitialised memory there),
    # and u outside [0, 1] is clamped, as the table inversion always did
    assert math.isnan(sine_density.cdf(math.nan))
    assert np.all(np.isnan(sine_density.cdf(np.array([math.nan, math.nan]))))
    assert list(sine_density.sample(np.array([-0.1, 1.1]))) == [0.0, sine_density.sample(1.0)]


def test_periodic_head_where_u_overflows():
    # where x^(-alpha) overflows, F(x) is its leading term g.mean x, x/2 for the sine
    assert PeriodicOscillatoryDensity(1.0, "sin").cdf(1e-310) == pytest.approx(5e-311, rel=1e-12)
    d = PeriodicOscillatoryDensity(2.0, "sin")
    for x in (1e-200, 1e-160):
        assert d.cdf(x) == pytest.approx(0.5 * x, rel=1e-12)
        assert d.sample(x) == pytest.approx(2.0 * x * d.total_mass, rel=1e-9)
    d = PeriodicOscillatoryDensity(100.0, "sin")
    assert not np.any(np.isnan(d._Fs))
    assert abs(d.cdf(d.sample(0.5)) - 0.5 * d.total_mass) < 1e-9
    assert d.sup_pdf(1e-5, 1e-4) == (1.0, 1e-4)  # the whole window overflows
    assert d.sup_pdf(0.5, 0.9)[0] == 1.0


@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(0.25, 100.0), psi=st.sampled_from(["sin", 0.3]),
       x=st.one_of(st.floats(5e-324, 1e-300), st.floats(0.0, 1.0)),
       u=st.one_of(st.floats(5e-324, 1e-300), st.floats(0.0, 1.0)))
def test_periodic_is_finite_down_to_the_smallest_float(alpha, psi, x, u):
    d = PeriodicOscillatoryDensity(alpha, psi)
    assert not np.any(np.isnan(d._Fs))
    values = [d.pdf(x), d.cdf(x), d.cdf_fast(x), d.sample(u), d.sup_pdf(0.5 * x, x)[0]]
    assert all(math.isfinite(v) for v in values)


def test_periodic_slowly_decaying_profile_is_normalized():
    # psi(0) near -1 puts a near 1e5, where the uniform grid is coarse next to x
    d = PeriodicOscillatoryDensity(2.0, {"period": 2.0 * math.pi, "values": [-0.99999, 0.0]})
    assert d.a > 1e4
    assert abs(d.total_mass - 1.0) < 1e-12
    xs = np.geomspace(1e-3, d.a, 3001)
    assert np.all(np.diff(np.asarray(d.cdf(xs))) >= 0.0)


def test_periodic_table_past_the_cell_edge_cap_is_rejected(monkeypatch):
    # the cap is lowered here: a real oversize table needs gigabytes; at period
    # 0.1 the first table (x in [1/60, 1]) has 9441 cell edges below v0 = 60
    spec = {"family": "periodic", "alpha": 1.0,
            "psi": {"period": 0.1, "values": [0.0, -0.5, 0.5, 0.2]}}
    monkeypatch.setattr(densities, "_MAX_CELL_EDGES", 10_000)
    assert abs(make_density(spec).total_mass - 1.0) < 1e-9
    monkeypatch.setattr(densities, "_MAX_CELL_EDGES", 9_000)
    with pytest.raises(DensityError, match=r"^profile period 0\.1 needs 9441 cell edges "
                                           r"below v0 = 60, more than 9000$"):
        make_density(spec)


# ---------------------------------------------------------------------------
# Gaussian path family
# ---------------------------------------------------------------------------


def test_gaussian_path_formula_and_mass():
    d = build_gaussian_path(0.5, math.sqrt(2.0), grid_size=513, seed=7)
    assert d.path[0] == 0.0
    assert float(d.pdf(0.0)) == 1.0  # S_0 = 0 and the envelope vanishes at 0
    # the clipped-path formula holds at every grid point
    for i in (1, 57, 200, 511):
        x = d.grid[i]
        kap = math.sqrt(2.0) * math.sqrt(x * abs(math.log(abs(math.log(x)))))
        manual = min(max(1.0 + d.path[i] - kap, 0.0), 1.0)
        assert float(d.pdf(x)) == pytest.approx(manual, abs=1e-15)
    assert float(d.pdf(1.0)) == 0.0  # the envelope blows up at 1
    assert float(d.cdf(60.0)) == pytest.approx(1.0, abs=1e-12)
    # F(1) is the path's own mass; the tent past 1 carries the rest
    assert float(d.cdf(1.0)) == pytest.approx(np.trapezoid(d.values[:513], d.grid[:513]),
                                              abs=1e-15)
    assert float(d.cdf(d.support_upper)) == pytest.approx(1.0, abs=1e-15)
    assert math.isfinite(d.first_moment())


def test_gaussian_path_variance_matches_brownian():
    # empirical Var(S_x) ~ x over 1e4 draws, relative error < 5%
    grid = np.linspace(0.0, 1.0, 129)
    idx = [32, 64, 128]
    draws = np.empty((10**4, len(idx)))
    for s in range(10**4):
        d = build_gaussian_path(0.5, 1.0, grid=grid, seed=90_000 + s)
        draws[s] = d.path[idx]
    for j, i in enumerate(idx):
        assert np.var(draws[:, j]) == pytest.approx(grid[i], rel=0.05)
    # covariance check: Cov(S_x, S_y) ~ min(x, y)
    cov = float(np.mean(draws[:, 0] * draws[:, 2]))
    assert cov == pytest.approx(min(grid[32], grid[128]), abs=0.02)


def test_gaussian_path_lil_touches_majority_of_seeds():
    # the path density touches 1 near 0 for most seeds (the pointwise condition
    # fails along the iterated-logarithm envelope); 100 seeds, log-deep grid
    grid = np.concatenate([[0.0], np.geomspace(1e-12, 1.0, 8192)])
    touch = {0.5: 0, 0.1: 0}
    for s in range(100):
        d = build_gaussian_path(0.5, math.sqrt(2.0), grid=grid, seed=5000 + s)
        ones = (d.values >= 1.0) & (d.grid > 0.0)
        for eps in touch:
            touch[eps] += int(np.any(ones & (d.grid < eps)))
    assert touch[0.5] > 50
    assert touch[0.1] > 50


def test_gaussian_path_scaling_law_ks():
    # S_{r x} / sqrt(r) has the law of S_x (H = 1/2): two-sample KS at fixed x
    r, xq = 0.25, 0.8
    grid = np.linspace(0.0, 1.0, 257)
    i_rx = int(np.argmin(np.abs(grid - r * xq)))
    i_x = int(np.argmin(np.abs(grid - xq)))
    a = [build_gaussian_path(0.5, 1.0, grid=grid, seed=20_000 + s).path[i_rx] / math.sqrt(r)
         for s in range(500)]
    b = [build_gaussian_path(0.5, 1.0, grid=grid, seed=40_000 + s).path[i_x]
         for s in range(500)]
    assert ks_2samp(a, b).pvalue > 0.01


def test_gaussian_path_general_hurst_and_errors():
    d = build_gaussian_path(0.75, 1.0, grid_size=129, seed=3)
    assert d.path[0] == 0.0
    assert 0.0 < float(d.cdf(1.0)) <= 1.0
    with pytest.raises(DensityError, match="grid"):
        build_gaussian_path(0.75, 1.0, grid=np.array([0.0, 0.5, 0.5, 1.0]))
    with pytest.raises(DensityError):
        build_gaussian_path(1.5, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_a_float_array_grid_names_its_first_non_finite_element(bad, dtype):
    # a float array is checked in one call; the one-line error still names the
    # first bad element as a list of the same numbers would
    grid = np.array([0.0, 0.25, bad, 0.75, bad, 1.0], dtype=dtype)
    with pytest.raises(DensityError) as exc:
        build_gaussian_path(0.5, 1.0, grid=grid)
    assert str(exc.value) == f"grid[2] must be a finite number, got {grid[2]!r}"
    with pytest.raises(DensityError, match=r"^grid\[2\] must be a finite number, got "):
        build_gaussian_path(0.5, 1.0, grid=[0.0, 0.25, bad, 0.75, bad, 1.0])


def test_gaussian_path_sample_roundtrip():
    d = build_gaussian_path(0.5, math.sqrt(2.0), grid_size=513, seed=11)
    us = np.linspace(0.001, 0.999, 1000)
    xs = d.sample(us)
    assert np.all(np.diff(xs) >= -1e-14)
    assert np.max(np.abs(d.cdf(xs) - us)) < 1e-9
    # tail samples land beyond 1 when the tail carries mass, and the top one
    # at the end of the support
    tail = 1.0 - float(d.cdf(1.0))
    if tail > 1e-3:
        assert d.sample(1.0 - tail / 2.0) > 1.0
    assert d.sample(1.0) == pytest.approx(d.support_upper, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), grid_size=st.integers(2, 600))
@example(seed=11, grid_size=65)  # its trapezoid sum ends 2^-53 below 1
def test_tabulated_cdf_is_one_at_the_top_and_its_quantile_is_the_top(seed, grid_size):
    # the sum of the cells ended an ulp or more below 1 on about a quarter of
    # the seeds, and where f falls to 0 the quantile of 1 missed the top by 3e-8
    d = build_gaussian_path(0.5, 1.41, grid_size=grid_size, seed=seed)
    assert float(d.cdf(d.support_upper)) == 1.0
    assert d.sample(1.0) == d.support_upper


def test_gaussian_path_rejects_a_grid_ending_below_one():
    with pytest.raises(DensityError, match="end at 1"):
        build_gaussian_path(0.5, 0.2, seed=3, grid=np.linspace(0.0, 0.8, 200))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), beta_lil=st.floats(0.1, 3.0),
       grid_size=st.sampled_from([65, 257, 513]))
def test_gaussian_path_tail_is_a_tent_of_the_missing_mass(seed, beta_lil, grid_size):
    d = build_gaussian_path(0.5, beta_lil, grid_size=grid_size, seed=seed)
    assert float(d.cdf(d.support_upper)) == pytest.approx(1.0, abs=1e-12)
    assert np.all(d.values <= 1.0)
    assert np.all(d.values[d.grid > 1.0] <= 0.5)
    again = make_density(d.spec_dict())
    assert np.array_equal(again.grid, d.grid) and np.array_equal(again.values, d.values)


# ---------------------------------------------------------------------------
# tabulated family
# ---------------------------------------------------------------------------


def test_tabulated_uniforms():
    u = uniform_density(0.0, 2.0)
    assert u.sample(0.5) == pytest.approx(1.0, abs=1e-15)
    assert u.cdf(1.0) == pytest.approx(0.5)
    assert u.first_moment() == pytest.approx(1.0)
    half = uniform_density(0.0, 0.5)
    assert half.pdf(0.25) == pytest.approx(2.0)  # above 1 is allowed per family
    far = uniform_density(10.0, 11.0)
    assert far.cdf(9.9) == 0.0
    assert far.sample(0.25) == pytest.approx(10.25)


def test_tabulated_roundtrip_and_normalization():
    d = make_density({"family": "tabulated", "grid": [0.0, 1.0, 2.0], "values": [0.0, 2.0, 0.0]})
    assert d.normalized  # trapezoid mass was 2, rescaled
    us = np.linspace(0.0, 1.0, 1001)
    xs = d.sample(us)
    assert np.max(np.abs(d.cdf(xs) - us)) < 1e-12
    assert d.first_moment() == pytest.approx(1.0)


def test_tabulated_from_csv(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x,f\n0.0,0.5\n2.0,0.5\n")
    d = tabulated_from_csv(p)
    assert d.cdf(1.0) == pytest.approx(0.5)
    empty = tmp_path / "empty.csv"
    empty.write_text("x,f\n")
    with pytest.raises(DensityError):
        tabulated_from_csv(empty)


@pytest.mark.parametrize("text, line", [
    ("x,f\n0,0.5\n0.7;l,1\n2,0.5\n", 3),
    ("\nx,f\n\n0.0,0.5\n0.7\n2.0,0.5\n", 5),
    ("0,0.5\nx,f\n2,0.5\n", 2),
    ("0,O.5\n2,0.5\n", 1),
])
def test_tabulated_from_csv_rejects_a_bad_row(tmp_path, text, line):
    p = tmp_path / "d.csv"
    p.write_text(text)
    with pytest.raises(DensityError, match=f"d.csv:{line}:"):
        tabulated_from_csv(p)


def test_tabulated_from_csv_skips_blank_rows_and_one_header(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("\n x ; f \n0.0,0.5\n\n2.0,0.5\n\n")
    d = tabulated_from_csv(p)
    assert d.cdf(1.0) == pytest.approx(0.5)


def test_tabulated_validation():
    with pytest.raises(DensityError):
        make_density({"family": "tabulated", "grid": [0.0, 1.0], "values": [-1.0, 1.0]})
    with pytest.raises(DensityError):
        make_density({"family": "tabulated", "grid": [1.0, 0.0], "values": [1.0, 1.0]})


def test_tabulated_sup_pdf_window_past_the_grid_end():
    # the sup runs over (lo, hi]: lo counts only while the pdf lives to its right
    assert uniform_density(0.0, 0.5).sup_pdf(0.5, 1.0) == (0.0, None)
    assert uniform_density(0.0, 0.5).sup_pdf(0.2, 1.0) == (2.0, 0.5)
    assert uniform_density(0.1, 0.5).sup_pdf(0.1, 0.3) == (2.5, 0.1)


@pytest.mark.parametrize("family", ["band_exact", "band_float", "periodic_sine",
                                    "periodic_profile", "gaussian_path", "tabulated", "tent"])
def test_sup_pdf_of_an_empty_window_is_zero(cdf_families, family):
    # (lo, hi] holds no point when hi <= lo, inside the support or not
    d = cdf_families.get(family) or make_density(
        {"family": "tabulated", "grid": [0.0, 0.5, 1.0], "values": [0.0, 2.0, 0.0]})
    for lo, hi in [(0.2, 0.2), (0.6, 0.4), (0.5, 0.5), (0.0, 0.0), (3.0, 2.0)]:
        assert d.sup_pdf(lo, hi) == (0.0, None)


# ---------------------------------------------------------------------------
# JSON specs
# ---------------------------------------------------------------------------


def test_make_density_all_families(tmp_path):
    pw = make_density({"family": "piecewise", "alpha1": "1/2", "alpha2": "21/20",
                       "p": "1/2", "q": "1/2"})
    assert pw.exact and pw.beta1 == F(41, 60)
    per = make_density({"family": "periodic", "alpha": 1.0, "psi": "sin"})
    assert per.a == pytest.approx(1.28015, abs=1e-4)
    gp = make_density({"family": "gaussian_path", "hurst": 0.5, "beta_lil": 1.41,
                       "grid_size": 65, "seed": 1})
    assert gp.seed == 1
    tab = make_density({"family": "tabulated", "grid": [0.0, 2.0], "values": [0.5, 0.5]})
    assert tab.cdf(2.0) == pytest.approx(1.0)

    path = tmp_path / "d.json"
    path.write_text(json.dumps(pw.spec_dict()))
    again = make_density(json.loads(path.read_text()))
    assert again.beta1 == pw.beta1


@pytest.mark.parametrize("abc", [(1.0, 0.0, 0.0), (0.0, -1.0, 1.0), (0.5, 0.0, 0.5),
                                 (-0.3, 0.0, 0.0), (0.0, 2.5, -1.0), (0.7, -0.2, 0.1)])
def test_sinusoid_eval_skipping_zero_terms_is_bit_identical(abc):
    a, b, c = abc
    u = np.concatenate([np.linspace(-40.0, 40.0, 4001), np.arange(-8, 9) * math.pi,
                        [0.0, -0.0, 1e300, np.inf, -np.inf, np.nan]])
    with np.errstate(invalid="ignore"):
        full = a * np.sin(u) + b * np.cos(u) + c
        got = SinusoidProfile(a, b, c).eval(u)
    assert got.tobytes() == full.tobytes()


def test_make_density_errors():
    with pytest.raises(DensityError, match="family"):
        make_density({"alpha": 1.0})
    with pytest.raises(DensityError, match="unknown"):
        make_density({"family": "nope"})
    with pytest.raises(DensityError, match="missing field"):
        make_density({"family": "piecewise", "alpha1": "1/2"})


@pytest.mark.parametrize("spec, match", [
    ({"family": "tabulated", "grid": [0.0, 1.0, 2.0], "values": [0.5, math.nan, 0.5]},
     "finite"),
    ({"family": "tabulated", "grid": [0.0, 1.0, math.inf], "values": [0.5, 0.5, 0.5]},
     "finite"),
    ({"family": "gaussian_path", "hurst": 0.5, "beta_lil": math.nan}, "beta_lil"),
    ({"family": "gaussian_path", "hurst": 0.5, "beta_lil": math.inf}, "beta_lil"),
    ({"family": "gaussian_path", "hurst": math.nan, "beta_lil": 1.4}, "hurst"),
    ({"family": "gaussian_path", "hurst": 0.5, "beta_lil": 1.4, "seed": -1}, "seed"),
    ({"family": "gaussian_path", "hurst": 0.5, "beta_lil": 1.4, "seed": 1.5}, "seed"),
    ({"family": "gaussian_path", "hurst": 0.5, "beta_lil": 1.4, "seed": 2**64}, "seed"),
    ({"family": "gaussian_path", "hurst": 0.5, "beta_lil": 1.4, "grid_size": 64.5},
     "grid_size"),
    ({"family": "gaussian_path", "hurst": 0.5, "beta_lil": 1.4, "grid_size": 1}, "grid_size"),
    ({"family": "periodic", "alpha": math.nan}, "alpha"),
    ({"family": "periodic", "alpha": math.inf}, "alpha"),
    ({"family": "periodic", "alpha": True}, "alpha"),
    ({"family": "periodic", "alpha": "1"}, "alpha"),
    ({"family": "periodic", "alpha": 1.0, "psi": math.nan}, "into"),
    ({"family": "periodic", "alpha": 1.0, "psi": {"period": 1.0, "values": [0.0, math.nan]}},
     "into"),
    ({"family": "periodic", "alpha": 1.0, "psi": {"period": math.inf, "values": [0.0, 0.5]}},
     "period"),
    ({"family": "periodic", "alpha": 1.0, "psi": {"period": "6", "values": [0.0, 0.5]}},
     "period"),
    ({"family": "periodic", "alpha": 1.0, "psi": True}, "psi"),
    ({"family": "periodic", "alpha": 1.0, "psi": {"period": 1.0, "values": [0.0, False]}},
     "psi values"),
    ({"family": "periodic", "alpha": 0.001}, "alpha"),
    ({"family": "periodic", "alpha": 0.005}, "alpha"),
    ({"family": "periodic", "alpha": 0.01}, "alpha"),
    ({"family": "periodic", "alpha": 1e5}, "alpha"),
    ({"family": "periodic", "alpha": 1e16}, "alpha"),
    ({"family": "piecewise", "alpha1": "1/2", "alpha2": "21/20", "p": "1/2", "q": [1]}, "q"),
    ({"family": "piecewise", "alpha1": "1/2", "alpha2": "21/20", "p": "1/2", "q": "x"}, "q"),
    ({"family": "piecewise", "alpha1": "1/2", "alpha2": "21/20", "p": "1/2", "q": "1/0"}, "q"),
    ({"family": "piecewise", "alpha1": "1/2", "alpha2": "1e400", "p": "1/2", "q": "1/2"},
     "alpha2"),
    ({"family": "piecewise", "alpha1": True, "alpha2": "21/20", "p": "1/2", "q": "1/2"},
     "alpha1"),
    ({"family": "piecewise", "alpha1": 0.5, "alpha2": 1.05, "p": 5e-324, "q": 0.5}, "p q"),
    ({"family": "gaussian_path", "hurst": "0.5", "beta_lil": 1.4}, "hurst"),
    ({"family": "gaussian_path", "hurst": 0.5, "beta_lil": True}, "beta_lil"),
    ({"family": "gaussian_path", "hurst": 0.5, "beta_lil": 1.4, "seed": True}, "seed"),
    ({"family": "tabulated", "grid": ["0", "1"], "values": [1.0, 1.0]}, "grid"),
    ({"family": "tabulated", "grid": 2.0, "values": [1.0, 1.0]}, "grid"),
    ({"family": "tabulated", "grid": [0.0, 1.0], "values": [True, True]}, "values"),
    ({"family": "tabulated", "grid": [0.0, 1.0, 2.0], "values": [1e308, 1e308, 1e308]}, "mass"),
    ({"family": "periodic", "alpha": 1.0,
      "psi": {"period": 3.0, "values": [0.0, -1.0, 0.5], "phase": 1.0}}, "unknown key 'phase'"),
])
def test_make_density_rejects_non_finite_or_non_integer_fields(spec, match):
    with pytest.raises(DensityError, match=match):
        make_density(spec)


#: one valid spec per family variant, each cheap to build
VALID_SPECS = [
    {"family": "piecewise", "alpha1": "1/2", "alpha2": "21/20", "p": "1/2", "q": "1/2"},
    {"family": "piecewise", "alpha1": 0.5, "alpha2": 1.05, "p": 0.5, "q": 0.5},
    {"family": "periodic", "alpha": 1.0, "psi": "sin"},
    {"family": "periodic", "alpha": 2, "psi": {"period": 6.0, "values": [0.0, -1.0, -1.0, 0.5]}},
    {"family": "gaussian_path", "hurst": 0.5, "beta_lil": 1.4, "grid_size": 65, "seed": 3},
    {"family": "gaussian_path", "hurst": 0.7, "beta_lil": 1.4, "grid_size": 33, "seed": 3},
    {"family": "tabulated", "grid": [0.0, 1.0, 2.0], "values": [0.5, 0.5, 0.5]},
]
#: any JSON value; integers stay <= 65, so a grid_size allocates little
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(max_value=65) | st.floats() | st.text(max_size=6)
    | st.sampled_from([5e-324, 1e-308, 1e-300, 1e300, 1e308, 1.7976931348623157e308, -1e308]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(VALID_SPECS).flatmap(
    lambda spec: st.tuples(st.just(spec), st.sampled_from(sorted(spec)), _JSON_VALUES)))
def test_any_one_field_replaced_gives_a_density_or_a_density_error(case):
    spec, name, value = case
    try:
        make_density({**spec, name: value})
    except DensityError:
        pass


@pytest.mark.parametrize("spec, field", [
    ({"family": "periodic", "alpha": 1, "pis": {"period": 1.0, "values": [0.0, 1.0]}}, "pis"),
    ({"family": "piecewise", "alpha1": "1/2", "alpha2": "21/20", "p": "1/2", "q": "1/2",
      "r": "1/4"}, "r"),
    ({"family": "gaussian_path", "hurst": 0.5, "beta_lil": 1.4, "grid": 65}, "grid"),
    ({"family": "tabulated", "grid": [0.0, 2.0], "values": [0.5, 0.5], "csv": "d.csv"}, "grid"),
])
def test_make_density_rejects_an_unknown_field(spec, field):
    with pytest.raises(DensityError, match=f"unknown field '{field}'"):
        make_density(spec)


@pytest.mark.parametrize("density", [
    make_piecewise("1/2", "21/20", "1/2", "1/2"),
    make_piecewise(0.5, 1.05, 0.5, 0.5),
    PeriodicOscillatoryDensity(1.0, "sin"),
    PeriodicOscillatoryDensity(2.0, 0.3),
    PeriodicOscillatoryDensity(1.5, {"period": 3.0, "values": [0.0, -1.0, -1.0, 0.5]}),
    build_gaussian_path(0.5, 1.41, grid_size=65, seed=1),
    make_density({"family": "tabulated", "grid": [0.0, 0.3, 0.7, 1.5],
                  "values": [0.2, 1.4, 0.0, 0.9]}),
], ids=lambda d: d.family)
def test_spec_dict_round_trips_through_json(density):
    again = make_density(json.loads(json.dumps(density.spec_dict())))
    xs = np.concatenate([np.geomspace(1e-9, 3.0, 401), np.linspace(0.0, 3.0, 301)])
    assert np.array_equal(again.pdf(xs), density.pdf(xs))
    assert np.array_equal(again.cdf(xs), density.cdf(xs))
    assert math.isfinite(density.support_upper)
    assert float(density.cdf(density.support_upper)) == 1.0


def test_a_gaussian_path_density_on_a_custom_grid_has_no_spec():
    # its spec would name the density on linspace(0, 1, grid_size), a different one
    d = build_gaussian_path(0.5, 1.41, seed=1, grid=np.linspace(0.0, 1.0, 65) ** 2)
    with pytest.raises(DensityError, match="custom grid"):
        d.spec_dict()


def test_profile_helpers():
    s = SinusoidProfile(1.0, 0.0, 0.0)
    assert s.mean == 0.0 and s.sup_abs == 1.0
    a = s.antiderivative_stage()  # 1 - cos u
    assert float(a.eval(0.0)) == pytest.approx(0.0)
    assert a.mean == pytest.approx(1.0)
    sup, arg = s.sup_on(0.0, 10.0)
    assert sup == pytest.approx(1.0) and arg == pytest.approx(math.pi / 2.0)
    sup, arg = s.sup_on(2.0, 3.0)  # no peak inside
    assert sup == pytest.approx(math.sin(2.0))

    tp = TabulatedProfile(2.0 * math.pi, np.sin(np.arange(256) * 2.0 * math.pi / 256))
    assert tp.mean == pytest.approx(0.0, abs=1e-12)
    us = np.linspace(0.0, 20.0, 500)
    assert np.max(np.abs(tp.eval(us) - np.sin(us))) < 5e-4
    at = tp.antiderivative_stage()
    assert np.max(np.abs(at.eval(us) - (1.0 - np.cos(us)))) < 5e-3



def test_tabulated_profile_stages_match_a_trapezoid_reference():
    values = np.random.default_rng(3).uniform(-1.0, 1.0, 37)
    nodes = np.arange(38) * 2.0 / 37
    closed = np.append(values, values[0])
    # the first stage at the nodes is the integral of the zero-mean part, and
    # the trapezoid rule is exact on linear pieces
    ref = np.concatenate([[0.0], np.cumsum(0.5 * (closed[1:] + closed[:-1]) * np.diff(nodes))])
    stage = TabulatedProfile(2.0, values).antiderivative_stage()
    assert np.max(np.abs(stage.eval(nodes[:-1]) - (ref - np.mean(values) * nodes)[:-1])) < 1e-14
    # every stage is continuous across the period's end, where it returns to 0
    for _ in range(4):
        assert abs(stage.eval(np.nextafter(2.0, 0.0))) < 1e-14
        assert stage.eval(0.0) == 0.0
        stage = stage.antiderivative_stage()


def test_tabulated_profile_sup_finds_a_break_inside_a_short_window():
    # one peak node between samples of the old sampled sup: u in [2, 4] holds
    # node 22 at u = 2 pi 22 / 64, where psi = 1 and so f = 1
    values = np.full(64, -0.5)
    values[22] = 1.0
    d = PeriodicOscillatoryDensity(1.0, {"period": 2.0 * math.pi, "values": list(values)})
    peak = 2.0 * math.pi * 22 / 64
    assert d.g.sup_on(2.0, 4.0) == (1.0, peak)
    assert d.g.sup_on(2.0 + 6 * math.pi, 2.2 + 6 * math.pi)[0] == pytest.approx(1.0, abs=1e-12)
    sup, arg = d.sup_pdf(0.25, 0.5)
    assert sup == 1.0 and arg == pytest.approx(1.0 / peak)
    assert d.pdf(arg) == pytest.approx(1.0, abs=1e-12)
    lo, hi, margin = check_pointwise_condition(d).windows[0]
    assert (lo, hi) == (0.25, 0.5) and margin == 0.0
    # with no break inside, the larger end value
    assert d.g.sup_on(2.2, 2.3) == (float(d.g.eval(2.2)), 2.2)


# ---------------------------------------------------------------------------
# cdf_fast monotonicity, every family
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cdf_families(pw_std, sine_density):
    return {
        "band_exact": pw_std,
        "band_float": make_piecewise(0.5, 1.05, 0.5, 0.5),
        "periodic_sine": sine_density,
        "periodic_profile": PeriodicOscillatoryDensity(
            1.0, {"period": 2.0 * math.pi, "values": [0.0, -0.5, 0.5, 0.2]}),
        "gaussian_path": build_gaussian_path(0.5, math.sqrt(2.0), grid_size=513, seed=7),
        "tabulated": make_density({"family": "tabulated", "grid": [0.0, 0.3, 0.7, 1.5],
                                   "values": [0.2, 1.4, 0.0, 0.9]}),
    }


@pytest.mark.parametrize("family", ["band_exact", "band_float", "periodic_sine",
                                    "gaussian_path", "tabulated"])
@settings(max_examples=100, deadline=None)
@given(xs=st.lists(st.one_of(st.floats(-1.0, 4.0), st.floats(0.0, 1e-6)),
                   min_size=2, max_size=200))
def test_cdf_fast_nondecreasing(cdf_families, family, xs):
    d = cdf_families[family]
    F = np.asarray(d.cdf_fast(np.sort(np.asarray(xs))))
    assert np.all(np.diff(F) >= 0.0)


# psi values with a run of -1 samples: f vanishes on a stretch of every period;
# psi(0) > -1 keeps f(x) -> g(0) > 0 as x grows, so a support endpoint with mass
# 1 exists (test_periodic_rejects_bad_profiles covers a psi(0) = -1 that has none)
_zero_stretch_values = st.tuples(
    st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6),
    st.integers(2, 5),
    st.lists(st.floats(-1.0, 1.0), max_size=6),
).map(lambda t: t[0] + [-1.0] * t[1] + t[2]).filter(lambda v: v[0] > -1.0)


@settings(max_examples=30, deadline=None)
@given(values=_zero_stretch_values, alpha=st.sampled_from([0.5, 1.0, 2.0]),
       period=st.sampled_from([1.0, 2.0 * math.pi]), seed=st.integers(0, 2**32 - 1))
@example(values=[0.0, -1.0, -1.0], alpha=1.0, period=2.0 * math.pi, seed=0)
def test_periodic_cdf_nondecreasing_where_f_vanishes_on_a_stretch(values, alpha, period, seed):
    # below x0 the tail expansion cancels only to rounding; the points come
    # unsorted, and cross x0 into the table
    d = PeriodicOscillatoryDensity(alpha, {"period": period, "values": values})
    xs = np.concatenate([np.geomspace(1e-12, 1e-2, 20_000), np.geomspace(1e-12, d.a, 20_000)])
    xs = np.random.default_rng(seed).permutation(xs)
    order = np.argsort(xs, kind="stable")
    assert np.all(np.diff(np.asarray(d.cdf(xs))[order]) >= 0.0)


@pytest.mark.parametrize("family", ["band_exact", "band_float", "periodic_sine",
                                    "periodic_profile", "gaussian_path", "tabulated"])
@settings(max_examples=40, deadline=None)
@given(xs=st.lists(st.one_of(st.floats(-1.0, 4.0), st.floats(0.0, 1e-6)),
                   min_size=6, max_size=6),
       us=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6))
# above-x0 points that a cell rule summed by a matrix product reads differently
# inside one call than alone (for the sine, then for the profile)
@example(xs=[0.9813920847865071, 0.371678016448809, 0.7462949706311363,
             1.1813177685605831, 0.7661227173311422, 1.1145855266547755], us=[0.5] * 6)
@example(xs=[0.797583468104147, 0.4359285971688367, 0.04418845469976729,
             0.5785085069750494, 0.2954641013035603, 0.03262888737084885], us=[0.5] * 6)
def test_methods_keep_the_input_shape_and_act_pointwise(cdf_families, family, xs, us):
    d = cdf_families[family]
    for method, values in (("pdf", xs), ("cdf", xs), ("cdf_fast", xs), ("sample", us)):
        f = getattr(d, method)
        flat = np.asarray(values)
        pointwise = [f(np.asarray(v)) for v in flat]  # 0-d input
        assert all(np.shape(v) == () for v in pointwise), method
        for shape in ((6,), (2, 3)):
            got = f(flat.reshape(shape))
            assert np.shape(got) == shape, method
            assert np.array_equal(got, np.reshape(pointwise, shape)), method
