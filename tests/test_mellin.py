import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.interpolate import PchipInterpolator, PPoly

import mthorder.mellin as ml
from mthorder.lcfun import NonIntegrableError, Profile
from mthorder.numerics import make_rng

EULER_GAMMA = 0.5772156649015329

POSITIVE_GRID = [0.25, 0.5, 1.0, 2.0, 3.0, 4.5, 6.0]
NEGATIVE_GRID = [-0.9, -0.7, -0.5, -0.3, -0.1]


def gaussian_collapse(p):
    # closed form for (p M(e^{-t^2/2})(p) / Gamma(1+p))^(1/p)
    lg = special.gammaln
    return math.exp((0.5 * p * math.log(2.0) + lg(1.0 + 0.5 * p) - lg(1.0 + p)) / p)


class TestProfiles:
    def test_exponential_fields(self):
        psi = ml.exponential()
        assert psi.psi0 == 1.0
        assert psi.sup == 1.0
        assert psi.support_radius == math.inf
        assert psi.slope0 == -1.0
        assert psi.value(0.0) == 1.0
        assert psi.value(1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_drop_is_cancellation_free(self):
        psi = ml.exponential()
        assert psi.drop(1e-18) == pytest.approx(-1e-18, rel=1e-12)
        assert ml.gaussian().drop(1e-9) == pytest.approx(-5e-19, rel=1e-10)

    def test_power_support_and_values(self):
        lin = ml.power(1.0)
        assert lin.value(0.25) == pytest.approx(0.75)
        assert lin.value(2.0) == 0.0
        assert lin.drop(2.0) == -1.0
        quad = ml.power(0.5)
        assert quad.value(0.25) == pytest.approx(0.5625)
        assert quad.slope0 == -2.0

    def test_indicator_carries_an_atom(self):
        psi = ml.indicator(2.0)
        assert psi.atoms == ((2.0, 1.0),)
        assert psi.neg_derivative(0.7) == 0.0
        assert psi.value(1.9) == 1.0 and psi.value(2.1) == 0.0

    def test_scale_and_amplitude(self):
        psi = ml.exponential(alpha=2.0, amplitude=3.0)
        assert psi.sup == 3.0
        assert psi.value(2.0) == pytest.approx(3.0 * math.exp(-1.0), rel=1e-15)
        assert psi.slope0 == -1.5

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_lens_against_scipy_special(self, n):
        # dyadic u, so scipy's 1 - u^2 and u^2 are exact
        radius, b = 0.8, 0.5 * (n + 1)
        psi = ml.lens(n, radius)
        u = np.arange(1, 64) / 64.0
        t = 2.0 * radius * u
        np.testing.assert_allclose(psi.value(t), special.betainc(b, 0.5, 1.0 - u * u),
                                   rtol=1e-13)
        np.testing.assert_allclose(psi.drop(t), -special.betainc(0.5, b, u * u), rtol=1e-13)
        beta = special.beta(b, 0.5)
        np.testing.assert_allclose(psi.neg_derivative(t),
                                   (1.0 - u * u) ** (0.5 * (n - 1)) / (radius * beta),
                                   rtol=1e-13)
        assert psi.slope0 == pytest.approx(-1.0 / (radius * beta), rel=1e-14)
        for p in (-0.99, -0.5, 0.5, 1.0, 7.0, 200.0, 400.0):
            want = special.beta(0.5 * (p + 1.0), b) / special.beta(0.5, b)
            assert psi.pmellin(p) == pytest.approx(want, rel=1e-12)

    def test_pfamily_zero_rejected(self):
        with pytest.raises(NonIntegrableError):
            ml.from_profile(Profile("pfamily", 0.0, ambient_dim=2))

    def test_pfamily_tail_restriction(self):
        psi = ml.from_profile(Profile("pfamily", 0.5, ambient_dim=1))
        assert psi.min_p == -0.5
        with pytest.raises(NonIntegrableError):
            ml.mellin(psi, -0.7)

    def test_from_table_slope0_pins_the_slope_at_zero(self):
        ts = np.linspace(0.0, 1.0, 9)
        vals = (1.0 - ts) ** 2
        for root in (1, 2, 3):
            assert ml.from_table(ts, vals, root=root, slope0=1.7).slope0 == pytest.approx(
                -1.7, rel=1e-14)
        psi = ml.from_table(ts, vals, root=2, slope0=2.0)    # exact: one piece per node
        np.testing.assert_allclose(psi.value(np.linspace(0.0, 1.0, 33)),
                                   (1.0 - np.linspace(0.0, 1.0, 33)) ** 2, atol=1e-15)

    def test_from_table_matches_samples(self):
        ts = np.linspace(0.0, 40.0, 2001)
        psi = ml.from_table(ts, np.exp(-ts))
        assert psi.psi0 == 1.0
        assert psi.support_radius == 40.0
        assert psi.value(1.3) == pytest.approx(math.exp(-1.3), rel=1e-8)
        assert psi.value(41.0) == 0.0

    @pytest.mark.parametrize("ts, vals", [
        ([0.0, 1.0, 2.0], [1.0, 0.5, 0.1]),                 # too few nodes
        ([0.1, 1.0, 2.0, 3.0], [1.0, 0.5, 0.2, 0.1]),       # does not start at 0
        ([0.0, 1.0, 1.0, 2.0], [1.0, 0.5, 0.3, 0.1]),       # not strictly increasing
        ([0.0, 1.0, 2.0, 3.0], [1.0, -0.5, 0.2, 0.1]),      # negative value
        ([0.0, 1.0, 2.0, 3.0], [0.0, 0.5, 0.2, 0.1]),       # zero at the origin
    ])
    def test_from_table_validation(self, ts, vals):
        with pytest.raises(ValueError):
            ml.from_table(ts, vals)


class TestPiecewisePolynomialProfiles:
    @pytest.mark.parametrize("p", [-0.99, -0.5, 0.5, 3.0])
    def test_matches_closed_form_of_the_linear_profile(self, p):
        # (1 - t/2)_+ as two pieces against power(1, scale=2)
        pp = ml.Pieces([[-0.5, -0.5], [1.0, 0.5]], [0.0, 1.0, 2.0])
        assert ml.mellin(ml.from_ppoly(pp), p) == pytest.approx(
            ml.mellin(ml.power(1.0, scale=2.0), p), rel=1e-12)

    def test_large_support_and_exponent_stay_finite(self):
        psi = ml.from_ppoly(ml.Pieces([[-1.0 / 60.0], [1.0]], [0.0, 60.0]))
        assert ml.i_p(psi, 400.0) == pytest.approx(60.0 * 401.0 ** (-1.0 / 400.0),
                                                   rel=1e-12)

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            ml.from_ppoly(ml.Pieces([[-1.0], [1.0]], [0.5, 1.0]))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), root=st.integers(1, 3), pinned=st.booleans())
    def test_table_of_a_nonincreasing_section_peaks_at_a_knot(self, data, root, pinned):
        # the tables `starbodies.body_ray` builds: nonincreasing values with
        # flat runs and zeros, and a slope at 0 no steeper than the first
        # secant of vals^(1/root), which is concave there; no piece rises
        # above the knots, so the largest knot value is the maximum
        size = data.draw(st.integers(4, 12))
        gaps = data.draw(st.lists(st.floats(0.05, 2.0), min_size=size - 1, max_size=size - 1))
        ratios = data.draw(st.lists(st.one_of(st.just(1.0), st.just(0.0), st.floats(0.0, 1.0)),
                                    min_size=size - 1, max_size=size - 1))
        ts = np.concatenate([[0.0], np.cumsum(gaps)])
        vals = data.draw(st.floats(0.1, 10.0)) * np.concatenate([[1.0], np.cumprod(ratios)])
        slope0 = None
        if pinned:
            y = vals ** (1.0 / root)
            d0 = data.draw(st.floats(0.0, 1.0)) * (y[1] - y[0]) / ts[1]
            slope0 = -d0 * root / vals[0] ** (1.0 / root - 1.0)
        psi = ml.from_table(ts, vals, root=root, slope0=slope0)
        assert psi.sup == pytest.approx(vals.max(), rel=1e-14)   # vals^(1/root) rounds
        assert psi.value(np.linspace(0.0, ts[-1], 4001)).max() <= psi.sup


class TestPieces:
    """`ml.Pieces` and `ml.pchip` against scipy.interpolate as an oracle."""

    TABLES = {
        "non-uniform": ([0.0, 0.3, 1.0, 1.1, 2.5, 4.0],
                        [1.0, 0.8, 0.35, 0.3, 0.05, 0.0]),
        "flat-runs": ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                      [1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.2]),
        "sign-changes": ([0.0, 0.5, 1.5, 2.0, 3.5, 4.0],
                         [0.0, 1.0, -1.0, 2.0, 0.5, 3.0]),
        # left end (3 m0 - m1)/2 = -0.5 against m0 = 1: clamped to 0
        "end-sign-clamp": ([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 5.0, 6.0, 7.0]),
        # left end 6.5 > 3 m0 where the secants turn: clamped to 3 m0
        "end-size-clamp": ([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 1.0, -9.0, -8.0, -7.0]),
    }

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_pchip_coefficients(self, name):
        x, y = map(np.array, self.TABLES[name])
        for xs, ys in ((x, y), (x[-1] - x[::-1], y[::-1])):   # and the mirror: right ends
            want = PchipInterpolator(xs, ys).c
            np.testing.assert_allclose(ml.pchip(xs, ys).c, want, rtol=1e-14, atol=0.0)

    def test_end_clamps_are_met(self):
        x, y = self.TABLES["end-sign-clamp"]
        assert ml.pchip(x, y).c[2, 0] == 0.0
        x, y = self.TABLES["end-size-clamp"]
        assert ml.pchip(x, y).c[2, 0] == 3.0

    def test_pchip_coefficients_of_random_tables(self):
        rng = np.random.default_rng(7)
        for k in range(50):
            x = np.cumsum(rng.exponential(size=int(rng.integers(3, 30))))
            y = rng.normal(size=x.size)
            if k % 2:
                y[rng.integers(0, x.size, 3)] = 0.0     # flat runs
            np.testing.assert_allclose(ml.pchip(x, y).c, PchipInterpolator(x, y).c,
                                       rtol=1e-14, atol=0.0)

    def test_slope0_pins_the_first_derivative_only(self):
        x, y = map(np.array, self.TABLES["non-uniform"])
        got = ml.pchip(x, y, slope0=-0.4)
        assert got.derivative()(0.0) == -0.4
        assert got.c[2, 0] == -0.4
        np.testing.assert_array_equal(got.c[:, 1:], PchipInterpolator(x, y).c[:, 1:])
        np.testing.assert_allclose(got(x), y, rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("x0", [0.0, 0.5])
    @pytest.mark.parametrize("pieces", [1, 5])
    def test_evaluation_in_the_input_shape(self, x0, pieces):
        rng = np.random.default_rng(pieces)
        x = x0 + np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.0, pieces))])
        c = rng.normal(size=(4, pieces))
        got, want = ml.Pieces(c, x), PPoly(c, x)
        for t in (x0 + 0.3, np.array(x[-1] + 0.7), x0 - 1.0,       # 0-d, outside too
                  np.linspace(x0 - 1.0, x[-1] + 1.0, 41),
                  rng.uniform(x0 - 1.0, x[-1] + 1.0, size=(3, 5))):
            val = got(t)
            assert np.shape(val) == np.shape(t)
            np.testing.assert_allclose(val, want(t), rtol=1e-13, atol=1e-13)

    def test_constant_pieces_keep_the_shape(self):
        flat = ml.Pieces([[1.0, 2.0]], [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(flat(np.array([[0.5], [1.5]])), [[1.0], [2.0]])
        assert flat.derivative()(1.5) == 0.0

    def test_derivative(self):
        x, y = map(np.array, self.TABLES["sign-changes"])
        c = ml.pchip(x, y).c
        got, want = ml.Pieces(c, x).derivative(), PPoly(c, x).derivative()
        np.testing.assert_array_equal(got.c, want.c)
        t = np.linspace(-0.5, 4.5, 23)
        np.testing.assert_allclose(got(t), want(t), rtol=1e-13, atol=1e-13)


class TestMellinTransform:
    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 3.0])
    def test_exponential_matches_gamma(self, p):
        assert ml.mellin(ml.exponential(), p) == pytest.approx(math.gamma(p), rel=1e-9)

    def test_exponential_at_two_is_one(self):
        assert ml.mellin(ml.exponential(), 2.0) == pytest.approx(1.0, rel=1e-11)

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.5])
    def test_gaussian_moments(self, p):
        expected = 2.0 ** (0.5 * p) * math.gamma(1.0 + 0.5 * p)
        assert p * ml.mellin(ml.gaussian(), p) == pytest.approx(expected, rel=1e-9)

    def test_gaussian_at_two(self):
        assert 2.0 * ml.mellin(ml.gaussian(), 2.0) == pytest.approx(2.0, rel=1e-10)

    def test_exponential_negative_branch(self):
        assert ml.mellin(ml.exponential(), -0.5) == pytest.approx(
            -2.0 * math.sqrt(math.pi), rel=1e-8)

    @pytest.mark.parametrize("p", [-0.9, -0.5, -0.25, -0.049])
    def test_negative_branch_continues_gamma(self, p):
        assert ml.mellin(ml.exponential(), p) == pytest.approx(math.gamma(p), rel=1e-7)

    @pytest.mark.parametrize("make", [ml.exponential, lambda: ml.power(1.0)],
                             ids=["exponential", "linear"])
    def test_exponents_next_to_minus_one(self, make):
        # the t^p weight is absorbed by substitution, so t^(p-1) never overflows
        for p in (-0.99, -0.999):
            want = math.gamma(p) if make is ml.exponential else 1.0 / (p * (p + 1.0))
            assert ml.mellin(make(), p) == pytest.approx(want, rel=1e-8)

    def test_power_negative_branch(self):
        assert ml.mellin(ml.power(1.0), -0.5) == pytest.approx(-4.0, rel=1e-9)

    @pytest.mark.parametrize("p", [0.5, 3.0, -0.5])
    def test_indicator_closed_form(self, p):
        assert ml.mellin(ml.indicator(2.0), p) == pytest.approx(2.0 ** p / p, rel=1e-10)

    def test_small_positive_exponents_are_stable(self):
        # both sides of the branch threshold agree with Gamma(p)
        for p in (0.049, 0.051, 0.001):
            assert ml.mellin(ml.exponential(), p) == pytest.approx(math.gamma(p), rel=1e-8)

    def test_pfamily_matches_moment_formula(self):
        prof = Profile("pfamily", 1.5, ambient_dim=2)
        psi = ml.from_profile(prof)
        for p in (0.5, 2.0):
            assert ml.mellin(psi, p) == pytest.approx(prof.moment(p - 1.0), rel=1e-8)

    def test_table_profile_transform(self):
        ts = np.linspace(0.0, 40.0, 2001)
        psi = ml.from_table(ts, np.exp(-ts))
        assert ml.mellin(psi, 1.5) == pytest.approx(math.gamma(1.5), rel=1e-7)
        assert ml.mellin(psi, -0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-4)

    @pytest.mark.parametrize("p", [0.0, 1e-9, -1e-7, -1.0, -2.0, math.inf, math.nan])
    def test_domain_errors(self, p):
        with pytest.raises(ValueError):
            ml.mellin(ml.exponential(), p)

    def test_route_disagreement_raises(self):
        psi = ml.exponential()
        broken = dataclasses.replace(
            psi, pmellin=None,
            neg_derivative=lambda t: 1.5 * psi.neg_derivative(t))
        with pytest.raises(ArithmeticError):
            ml.mellin(broken, 1.0)

    def test_subtracted_branch_needs_peak_at_zero(self):
        ts = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        bumped = ml.from_table(ts, np.array([0.5, 1.0, 0.8, 0.4, 0.1]))
        with pytest.raises(ValueError):
            ml.mellin(bumped, -0.5)

    @settings(max_examples=25, deadline=None)
    @given(alpha=st.floats(0.25, 4.0), amplitude=st.floats(0.5, 3.0),
           p=st.floats(0.2, 4.0))
    def test_scaling_covariance(self, alpha, amplitude, p):
        value = ml.mellin(ml.exponential(alpha=alpha, amplitude=amplitude), p)
        assert value == pytest.approx(amplitude * alpha ** p * math.gamma(p), rel=1e-7)


class TestIp:
    @pytest.mark.parametrize("p", [-0.9, -0.5, 0.0, 0.5, 1.0, 5.0])
    def test_indicator_is_its_radius(self, p):
        assert ml.i_p(ml.indicator(2.0), p) == pytest.approx(2.0, rel=1e-9)

    def test_exponential_values(self):
        psi = ml.exponential()
        assert ml.i_p(psi, 1.0) == pytest.approx(1.0, rel=1e-10)
        assert ml.i_p(psi, -0.5) == pytest.approx(1.0 / math.pi, rel=1e-8)
        assert ml.i_p(psi, 0.0) == pytest.approx(math.exp(-EULER_GAMMA), rel=1e-9)

    def test_zero_window_routing_and_continuity(self):
        psi = ml.exponential()
        at_zero = ml.i_p(psi, 0.0)
        assert ml.i_p(psi, 1e-7) == at_zero
        assert ml.i_p(psi, -1e-7) == at_zero
        assert ml.i_p(psi, 2e-6) == pytest.approx(at_zero, rel=1e-4)
        assert ml.i_p(psi, -2e-6) == pytest.approx(at_zero, rel=1e-4)

    def test_gaussian_log_mean(self):
        expected = math.exp(0.5 * (math.log(2.0) - EULER_GAMMA))
        assert ml.i_p(ml.gaussian(), 0.0) == pytest.approx(expected, rel=1e-9)

    def test_gaussian_p2(self):
        assert ml.i_p(ml.gaussian(), 2.0) == pytest.approx(math.sqrt(2.0), rel=1e-9)

    @pytest.mark.parametrize("p", [-0.5, 0.0, 2.0])
    def test_amplitude_invariance(self, p):
        assert ml.i_p(ml.exponential(amplitude=7.0), p) == pytest.approx(
            ml.i_p(ml.exponential(), p), rel=1e-10)

    @pytest.mark.parametrize("make", [ml.gaussian, ml.exponential, lambda: ml.power(0.5)],
                             ids=["gaussian", "exponential", "quadratic"])
    def test_strictly_increasing_in_p(self, make):
        psi = make()
        grid = NEGATIVE_GRID + [0.0] + POSITIVE_GRID
        values = [ml.i_p(psi, p) for p in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_table_profile_log_mean(self):
        ts = np.linspace(0.0, 40.0, 2001)
        psi = ml.from_table(ts, np.exp(-ts))
        assert ml.i_p(psi, 0.0) == pytest.approx(math.exp(-EULER_GAMMA), rel=1e-6)

    @pytest.mark.parametrize("p", [50.0, 200.0])
    def test_finite_support_limit(self, p):
        value = ml.i_p(ml.indicator(2.0), p)
        assert abs(value - 2.0) <= 2.0 * math.log(p) / p
        assert value == pytest.approx(2.0, rel=1e-9)

    def test_large_exponent_horizon_does_not_overflow(self):
        # the tail horizon damps eps by (2r)^(p+1), taken in logs
        assert ml.i_p(ml.exponential(), 100.0) == pytest.approx(
            37.99268934483429, rel=1e-12)                  # Gamma(101)^(1/100)
        gauss = math.exp((50.0 * math.log(2.0) + special.gammaln(51.0)) / 100.0)
        assert ml.i_p(ml.gaussian(), 100.0) == pytest.approx(gauss, rel=1e-12)

    @pytest.mark.parametrize("make,p,log_pm", [
        (ml.exponential, 108.0, special.gammaln(109.0)),
        (ml.exponential, 109.0, special.gammaln(110.0)),
        (ml.exponential, 150.0, special.gammaln(151.0)),
        (ml.exponential, 170.0, special.gammaln(171.0)),
        (ml.gaussian, 200.0, 100.0 * math.log(2.0) + special.gammaln(101.0)),
    ], ids=["exp-108", "exp-109", "exp-150", "exp-170", "gauss-200"])
    def test_large_exponent_weight_does_not_overflow(self, make, p, log_pm):
        # (t - a)^(p-1) would overflow on the horizon; the weight is taken in
        # units of the span, with span^(p-1) in logs
        assert ml.i_p(make(), p) == pytest.approx(math.exp(log_pm / p), rel=1e-14)

    def test_out_of_range_transform_is_arithmetic_error(self):
        with pytest.raises(ArithmeticError):      # 171! exceeds the float range
            ml.i_p(ml.exponential(), 171.0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            ml.i_p(ml.exponential(), -1.0)

    @settings(max_examples=25, deadline=None)
    @given(pair=st.tuples(st.floats(-0.9, 6.0), st.floats(-0.9, 6.0)))
    def test_monotone_between_random_exponents(self, pair):
        lo, hi = sorted(pair)
        psi = ml.gaussian()
        assert ml.i_p(psi, lo) <= ml.i_p(psi, hi) * (1.0 + 1e-9)


def _one_piece(c):
    """The `from_ppoly` profile of sum_k c[k] x^k on [0, 1]."""
    return ml.from_ppoly(ml.Pieces(np.asarray(c, dtype=float)[::-1, None], [0.0, 1.0]))


# nonincreasing on [0, 1], peaks at 0; the last two keep an atom psi(1) > 0
POLY_STACK = np.array([[1.0, -1.0, 0.0, 0.0], [1.0, -1.2, 0.27, 0.0],
                       [1.0, -1.5, 0.66, -0.08], [1.0, -0.5, 0.0, 0.0],
                       [1.0, -0.6, -0.2, 0.05]])


class TestPolyMeans:
    """I_p of a stack of one-piece polynomial profiles in one call."""

    def test_equals_i_p_of_each_profile(self):
        grid = [-0.99, -0.5, -1e-7, 0.0, 1e-3, 0.03, 1.0, 2.0, 5.0, 200.0]
        got = ml.poly_means(POLY_STACK, grid)
        assert got.shape == (len(POLY_STACK), len(grid))
        for c, row in zip(POLY_STACK, got):
            assert row.tolist() == ml.i_p(_one_piece(c), np.array(grid)).tolist()
        assert ml.poly_means(POLY_STACK, 2.0).tolist() == got[:, 7].tolist()

    @pytest.mark.parametrize("p", [-0.5, 1.0, 3.0])
    def test_atom_at_the_support_end(self, p):
        # psi = 1 - x/2: p M = 1 - p / (2 (p + 1)), the jump 1/2 at x = 1 included
        got = ml.poly_means([[1.0, -0.5]], p)[0]
        assert got == pytest.approx((1.0 - p / (2.0 * (p + 1.0))) ** (1.0 / p), rel=1e-14)

    def test_log_moment(self):
        # psi = 1 - x/2: int log x (-psi') = sum_{k>=1} c_k / k = -1/2
        assert ml.poly_means([[1.0, -0.5]], 0.0)[0] == pytest.approx(math.exp(-0.5),
                                                                       rel=1e-15)

    @pytest.mark.parametrize("p", [-1.0, -2.0, math.nan, math.inf])
    def test_inadmissible_exponent_raises_like_i_p(self, p):
        with pytest.raises(ValueError) as stacked:
            ml.poly_means(POLY_STACK, [1.0, p])
        with pytest.raises(ValueError) as single:
            ml.i_p(_one_piece(POLY_STACK[0]), [1.0, p])
        assert str(stacked.value) == str(single.value)

    def test_polynomial_ending_below_zero_is_rejected(self):
        # 1 - 3x on [0, 1] ends at -2; the rounding of an end at zero passes
        with pytest.raises(ValueError, match=r"below zero.* is -2\.0$"):
            _one_piece([1.0, -3.0])
        assert _one_piece([1.0, -1.0 - 2.0 ** -52]).support_radius == 1.0

    def test_nonpositive_moment_raises_like_i_p(self):
        # psi = 1 - 6x + 5.5x^2 dips below zero: p M = -1/6 at p = 1
        with pytest.raises(ArithmeticError, match="not positive"):
            ml.poly_means([[1.0, -6.0, 5.5]], 1.0)
        with pytest.raises(ArithmeticError, match="not positive"):
            ml.i_p(_one_piece([1.0, -6.0, 5.5]), 1.0)


class TestBerwald:
    def test_binomial_values(self):
        assert ml.binom_gen(2.0, 1.0) == pytest.approx(3.0, rel=1e-12)
        assert ml.binom_gen(1.0, 0.0) == pytest.approx(1.0, rel=1e-12)
        assert ml.binom_gen(-0.5, 0.0) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-12)
        assert ml.binom_gen(2.0, 0.5) == pytest.approx(6.0, rel=1e-12)
        assert ml.binom_gen(1.0, 1e-3) == pytest.approx(1001.0, rel=1e-10)

    def test_binomial_domain(self):
        with pytest.raises(ValueError):
            ml.binom_gen(-1.5, 1.0)
        with pytest.raises(ValueError):
            ml.binom_gen(1.0, -0.1)

    def test_c_const(self):
        assert ml.c_const(0.5) == 2.0
        assert ml.c_const(0.0) == 1.0
        assert ml.c_const(2.0) == 0.5
        with pytest.raises(ValueError):
            ml.c_const(-1.0)

    @pytest.mark.parametrize("p", [-0.5, 0.0, 1.0, 2.0, 5.0])
    def test_exponential_family_is_flat(self, p):
        assert abs(ml.berwald_g(ml.exponential(), p, 0.0) - 1.0) <= 1e-9

    @pytest.mark.parametrize("p", [-0.5, 0.0, 1.0, 2.0, 5.0])
    def test_linear_family_is_flat(self, p):
        assert abs(ml.berwald_g(ml.power(1.0), p, 1.0) - 1.0) <= 1e-9

    @pytest.mark.parametrize("p", [-0.5, 0.0, 1.0, 2.0, 5.0])
    def test_quadratic_family_is_flat(self, p):
        assert abs(ml.berwald_g(ml.power(0.5), p, 0.5) - 1.0) <= 1e-9

    @pytest.mark.parametrize("p", [-0.5, 0.0, 1.0, 3.0])
    @pytest.mark.parametrize("s", [1.5, 2.0, 4.0, 10.0])
    def test_singular_end_families_are_flat(self, s, p):
        # -psi' = (1 - t)^(1/s - 1) / s is singular at the support end; no grid
        # in t resolves its mass there (2e-8 of it within one ulp of 1 at
        # s = 2), so the derivative routes run over the level depth
        assert abs(ml.berwald_g(ml.power(s), p, s) - 1.0) <= 1e-12

    def test_flat_families_scale_to_alpha(self):
        # the equality value is the scale parameter, not always 1
        for p in (-0.5, 0.0, 2.0):
            assert ml.berwald_g(ml.exponential(alpha=1.5), p, 0.0) == pytest.approx(
                1.5, rel=1e-9)

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 4.0])
    def test_gaussian_matches_closed_form(self, p):
        assert ml.berwald_g(ml.gaussian(), p, 0.0) == pytest.approx(
            gaussian_collapse(p), rel=1e-8)

    def test_gaussian_strictly_decreasing(self):
        grid = [-0.5, -0.1, 0.0, 0.5, 1.0, 2.0, 4.0, 6.0]
        values = [ml.berwald_g(ml.gaussian(), p, 0.0) for p in grid]
        assert all(b < a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("make, s", [
        (ml.gaussian, 0.0),
        (ml.exponential, 0.0),
        (lambda: ml.power(1.0), 1.0),
        (lambda: ml.power(0.5), 0.5),
        (lambda: ml.power(0.5), 0.0),     # weaker concavity index still admissible
    ], ids=["gaussian", "exponential", "linear", "quadratic", "quadratic-log"])
    def test_nonincreasing_on_grid(self, make, s):
        psi = make()
        grid = NEGATIVE_GRID + [0.0] + POSITIVE_GRID
        values = [ml.berwald_g(psi, p, s) for p in grid]
        assert all(b <= a * (1.0 + 1e-9) for a, b in zip(values, values[1:]))

    def test_collapse_toward_zero(self):
        values = [ml.berwald_g(ml.gaussian(), p, 0.0) for p in (20.0, 50.0, 100.0)]
        assert values[0] > values[1] > values[2] > 0.0
        assert values[2] < 0.2
        for p, value in zip((20.0, 50.0, 100.0), values):
            assert value == pytest.approx(gaussian_collapse(p), rel=1e-7)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_fractional_derivative_limit(self, k):
        q = 10.0 ** -k
        value = q * ml.mellin(ml.exponential(), q)
        assert abs(value - 1.0) <= 10.0 * 10.0 ** -k
        assert value == pytest.approx(math.gamma(1.0 + q), rel=1e-7)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ml.berwald_g(ml.exponential(), 1.0, -0.5)
        with pytest.raises(ValueError):
            ml.berwald_g(ml.exponential(), -1.2, 0.0)


def _table_profile():
    # a covariogram table along a pentagon direction (`from_table`, root 2)
    from mthorder import convexcore as cc
    from mthorder import starbodies as sb
    pentagon = cc.from_vertices(np.array([[1.0, 0.0], [0.3, 0.95], [-0.8, 0.6],
                                          [-0.8, -0.6], [0.3, -0.95]]))
    return sb.body_ray(pentagon, 1, [0.6, 0.8]).profile


def _box_profile():
    from mthorder import convexcore as cc
    from mthorder import starbodies as sb
    return sb.body_ray(cc.cube(2, 1.0), 1, [0.6, 0.8]).profile


GRID_PROFILES = {
    "gaussian": ml.gaussian, "exponential": ml.exponential,
    "power-0.5": lambda: ml.power(0.5), "power-1": lambda: ml.power(1.0),
    "indicator": lambda: ml.indicator(2.0), "table": _table_profile, "box": _box_profile,
}
# p = 0, both sides of the subtracted branch's threshold, weights in (-1, 0),
# (0, 1) and >= 1
EXPONENT_GRID = np.array([-0.9, -0.5, -0.1, 0.0, 0.03, 0.25, 0.5, 1.0, 1.7, 2.0, 3.0, 6.0])


class TestExponentGrids:
    """An array of exponents gives, entry by entry, the call at each exponent."""

    @pytest.mark.parametrize("name", sorted(GRID_PROFILES))
    def test_i_p_and_berwald(self, name):
        psi = GRID_PROFILES[name]()
        got = ml.i_p(psi, EXPONENT_GRID)
        assert isinstance(got, np.ndarray) and got.shape == EXPONENT_GRID.shape
        assert got.tolist() == [ml.i_p(psi, p) for p in EXPONENT_GRID.tolist()]
        for s in (0.0, 1.0):
            assert ml.berwald_g(psi, EXPONENT_GRID, s).tolist() == [
                ml.berwald_g(psi, p, s) for p in EXPONENT_GRID.tolist()]
        assert ml.i_p(psi, EXPONENT_GRID[::-1].reshape(3, 4)).ravel().tolist() == got[::-1].tolist()
        assert isinstance(ml.i_p(psi, 2.0), float)

    @pytest.mark.parametrize("name", sorted(GRID_PROFILES))
    def test_mellin(self, name):
        psi = GRID_PROFILES[name]()
        grid = EXPONENT_GRID[EXPONENT_GRID != 0.0]
        assert ml.mellin(psi, grid).tolist() == [ml.mellin(psi, p) for p in grid.tolist()]
        assert ml.mellin(psi, grid[:0]).shape == (0,)

    @staticmethod
    def _same_error(on_grid, alone):
        with pytest.raises(Exception) as grid_error:
            on_grid()
        with pytest.raises(Exception) as scalar_error:
            alone()
        assert type(grid_error.value) is type(scalar_error.value)
        assert str(grid_error.value) == str(scalar_error.value)

    def test_inadmissible_exponent_raises_its_own_error(self):
        gauss = ml.gaussian()
        heavy = ml.from_profile(Profile("pfamily", 0.5, ambient_dim=1))   # p > -0.5 only
        rising = ml.from_table([0.0, 0.5, 1.0, 1.5, 2.0], [0.5, 1.0, 0.8, 0.4, 0.1])
        cases = [
            (gauss, ml.i_p, [1.0, -1.0, 2.0], -1.0),
            (gauss, ml.i_p, [1.0, math.nan], math.nan),
            (gauss, ml.mellin, [1.0, 0.0, 2.0], 0.0),
            (heavy, ml.i_p, [1.0, -0.7], -0.7),
            (heavy, ml.mellin, [2.0, -0.7], -0.7),
            (rising, ml.i_p, [1.0, 0.0], 0.0),
            (rising, ml.mellin, [1.0, -0.5], -0.5),
        ]
        for psi, fn, grid, bad in cases:
            self._same_error(lambda: fn(psi, np.array(grid)), lambda: fn(psi, bad))
        self._same_error(lambda: ml.berwald_g(gauss, np.array([1.0, -1.2]), 0.0),
                         lambda: ml.berwald_g(gauss, -1.2, 0.0))


def test_pieces_on_panels_equal_the_call():
    # the knot routes' per-panel gather gives the call's values to the bit
    rng = make_rng(5, 0)
    x = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0, 40))])
    pp = ml.Pieces(rng.normal(size=(4, 40)), x)
    edges = np.sort(np.concatenate([x, rng.uniform(0.0, x[-1], 60)]))
    nodes, _ = ml.gauss_panels(edges, order=8)
    piece = np.minimum(np.searchsorted(x, edges[:-1], side="right") - 1, 39)
    got = pp.on_panels(nodes.reshape(piece.size, -1), piece).ravel()
    assert got.tolist() == pp(nodes).tolist()
