import itertools
import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, optimize
from scipy.spatial import ConvexHull

from mthorder import convexcore as cc
from mthorder.covariogram import (
    MVector,
    _disc_meeting,
    as_mvector,
    box_rates,
    common_volume,
    covariogram_body,
    covariogram_body_many,
    covariogram_fn,
    dm_support_radius,
    dm_support_radius_fn,
    lens,
    lens_drop,
    lens_slope,
    meeting_sums,
    meeting_volume,
)
from mthorder.lcfun import LogConcaveFunction, NonIntegrableError, Profile
from mthorder.numerics import combine_sigma, make_rng, max_slack
from oracles import (ball_cov_mc, contains, cov_fn_direct, cov_radial_derivative, dm_body,
                     dm_support_membership)


def interval01():
    return cc.from_vertices([[0.0], [1.0]])


def expfun(K, shift=None, A=1.0):
    shift = np.zeros(K.dim) if shift is None else np.asarray(shift, float)
    return LogConcaveFunction(Profile("exponential"), K, shift, A)


class TestMVector:
    def test_flat_roundtrip(self):
        xb = as_mvector([1.0, 2.0, 3.0, 4.0], 2)
        assert xb.m == 2 and xb.n == 2 and xb.flat.size == 4
        assert np.allclose(xb.flat, [1, 2, 3, 4])

    def test_bad_split(self):
        with pytest.raises(ValueError):
            as_mvector([1.0, 2.0, 3.0], 2)

    def test_unit_and_scaled(self):
        xb = as_mvector([[3.0, 4.0]], 2)
        assert xb.unit().norm() == pytest.approx(1.0)
        assert xb.scaled(2.0).norm() == pytest.approx(10.0)
        with pytest.raises(ValueError):
            MVector(np.zeros((1, 2))).unit()


class TestBodyCovariogram:
    def test_interval_m1(self):
        assert covariogram_body(interval01(), [0.5]).value == pytest.approx(0.5)

    def test_interval_m2(self):
        est = covariogram_body(interval01(), [0.5, -0.25])
        assert est.value == pytest.approx(0.25)

    def test_square_overlap(self):
        est = covariogram_body(cc.cube(2, 1.0), [1.0, 1.0])
        assert est.value == pytest.approx(1.0)

    def test_empty(self):
        assert covariogram_body(interval01(), [1.5]).value == 0.0

    @pytest.mark.parametrize("K", [
        lambda: interval01(),
        lambda: cc.cube(2, 1.0),
        lambda: cc.simplex(2, "centered"),
        lambda: cc.ball(2, 1.5),
    ])
    def test_value_at_origin_is_volume(self, K):
        K = K()
        xb = np.zeros((2, K.dim))
        assert covariogram_body(K, xb).value == pytest.approx(
            cc.volume(K).value, rel=1e-12)

    def test_dilation_identity(self):
        K = cc.simplex(2, "centered")
        gen = make_rng(5, 0)
        for _ in range(10):
            xb = gen.normal(size=(2, 2)) * 0.3
            s = 1.0 + gen.random() * 2.0
            lhs = covariogram_body(cc.scale(K, s), xb).value
            rhs = s ** 2 * covariogram_body(K, xb / s).value
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    def test_box_fast_path_matches_general_route(self):
        K = cc.cube(2, 1.0)
        gen = make_rng(7, 0)
        for _ in range(20):
            xb = gen.normal(size=(2, 2))
            fast = covariogram_body(K, xb).value
            body = cc.intersect_translates(K, xb)
            slow = 0.0 if body is None else cc.volume(body).value
            assert fast == pytest.approx(slow, abs=1e-9)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_polygon_closed_form_matches_halfspace_route(self, m):
        # oracle: the qhull volume of the intersected halfspaces
        gen = make_rng(17, m)
        polys = [cc.simplex(2, "corner"),
                 cc.from_vertices(gen.normal(size=(7, 2))),
                 cc.from_vertices([[math.cos(t), math.sin(t)]
                                   for t in 2 * math.pi * np.arange(5) / 5 + 0.3])]
        for K in polys:
            B = gen.normal(size=(60, m, 2)) * 0.5
            vals = covariogram_body_many(K, B)
            for xb, v in zip(B, vals):
                body = cc.intersect_translates(K, xb)
                slow = 0.0 if body is None else cc.volume(body).value
                assert v == pytest.approx(slow, abs=1e-13 * cc.volume(K).value)

    def test_evenness_m1(self):
        K = cc.simplex(2, "corner")
        gen = make_rng(11, 0)
        for _ in range(10):
            x = gen.normal(size=(1, 2)) * 0.4
            a = covariogram_body(K, x).value
            b = covariogram_body(K, -x).value
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_many_matches_loop(self):
        K = cc.simplex(2, "centered")
        gen = make_rng(13, 0)
        B = gen.normal(size=(15, 2, 2)) * 0.3
        vals = covariogram_body_many(K, B)
        for xb, v in zip(B, vals):
            assert v == pytest.approx(covariogram_body(K, xb).value, rel=1e-12)

    def test_cube3_axis_path_is_exact(self):
        est = covariogram_body(cc.cube(3, 1.0), [1.0, 1.0, 1.0])
        assert est.std_error == 0.0
        assert est.value == pytest.approx(1.0, rel=1e-12)

    def test_simplex3_origin(self):
        K = cc.simplex(3, "corner")
        est = covariogram_body(K, np.zeros((1, 3)))
        assert est.std_error == 0.0
        assert est.value == pytest.approx(1.0 / 6.0, rel=1e-12)


class TestBallCovariogram:
    def test_disk_lens_vs_mc_oracle(self):
        val = covariogram_body(cc.ball(2, 1.0), [1.0, 0.0]).value
        gen = np.random.default_rng(0)
        Y = gen.random((400_000, 2)) * [1.0, 2.0] + [0.0, -1.0]
        p = np.mean((np.sum(Y ** 2, 1) <= 1) & (np.sum((Y - [1, 0]) ** 2, 1) <= 1))
        oracle = 2.0 * p
        sigma = 2.0 * math.sqrt(p * (1 - p) / 400_000)
        assert abs(val - oracle) <= 3 * sigma

    def test_sphere_lens_closed_form(self):
        val = covariogram_body(cc.ball(3, 1.0), [1.0, 0.0, 0.0]).value
        assert val == pytest.approx(5.0 * math.pi / 12.0, rel=1e-12)
        gen = np.random.default_rng(1)
        Y = gen.random((400_000, 3)) * [1.0, 2.0, 2.0] + [0.0, -1.0, -1.0]
        p = np.mean((np.sum(Y ** 2, 1) <= 1) & (np.sum((Y - [1, 0, 0]) ** 2, 1) <= 1))
        assert abs(val - 4.0 * p) <= 4.0 * 3 * math.sqrt(p * (1 - p) / 400_000)

    @pytest.mark.parametrize("u", [0.05, 0.3, 0.5, 0.75, 0.9])
    def test_lens_matches_planar_and_spatial_formulas(self, u):
        r = 1.3
        d = 2.0 * r * u
        disc = 2.0 * r * r * math.acos(u) - 0.5 * d * math.sqrt(4.0 * r * r - d * d)
        ball = math.pi * (2.0 * r - d) ** 2 * (4.0 * r + d) / 12.0
        assert covariogram_body(cc.ball(2, r), [d, 0.0]).value == pytest.approx(
            disc, rel=1e-13)
        assert covariogram_body(cc.ball(3, r), [0.0, 0.0, d]).value == pytest.approx(
            ball, rel=1e-13)
        assert lens(2, u) == pytest.approx(disc / (math.pi * r * r), rel=1e-13)

    @pytest.mark.parametrize("u", [0.1, 0.5, 0.9])
    def test_lens_in_r4_matches_cap_quadrature(self, u):
        # two caps of height 1 - u of the unit ball B^4, vol(B^4) = pi^2 / 2
        caps = 2.0 * (4.0 * math.pi / 3.0) * integrate.quad(
            lambda x: (1.0 - x * x) ** 1.5, u, 1.0, epsabs=0.0, epsrel=1e-13)[0]
        est = covariogram_body(cc.ball(4, 1.0), [2.0 * u, 0.0, 0.0, 0.0])
        assert est.std_error == 0.0
        assert est.value == pytest.approx(caps, rel=1e-12)
        assert lens(4, u) == pytest.approx(caps / (0.5 * math.pi ** 2), rel=1e-12)

    # u down to 1e-12 and 1 - u down to 1e-12; 1 - u^2 is formed in mpmath from
    # the float u, since a float 1 - u^2 would round away the small tail
    _LENS_GRID = np.unique(np.concatenate([
        np.logspace(-12, -0.01, 25), 1.0 - np.logspace(-12, -0.01, 25),
        np.linspace(0.0, 1.0, 21)]))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_lens_and_drop_against_mpmath(self, n):
        got_lens, got_drop = lens(n, self._LENS_GRID), lens_drop(n, self._LENS_GRID)
        with mpmath.workdps(40):
            b, half = mpmath.mpf(n + 1) / 2, mpmath.mpf(1) / 2
            for u, g_lens, g_drop in zip(self._LENS_GRID, got_lens, got_drop):
                x = mpmath.mpf(float(u))
                want_lens = mpmath.betainc(b, half, 0, 1 - x * x, regularized=True)
                want_drop = mpmath.betainc(half, b, 0, x * x, regularized=True)
                assert abs(g_lens - want_lens) <= 1e-13 * want_lens, (n, u)
                assert abs(g_drop - want_drop) <= 1e-13 * want_drop, (n, u)
                assert lens(n, float(u)) == g_lens and lens_drop(n, float(u)) == g_drop

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_lens_slope_against_mpmath(self, n):
        for u in (0.0, 1e-9, 0.3, 0.8, 1.0 - 1e-9):
            with mpmath.workdps(30):
                want = mpmath.diff(lambda x: mpmath.betainc(
                    mpmath.mpf(n + 1) / 2, 0.5, 0, 1 - x * x, regularized=True), u,
                    direction=1)
            assert lens_slope(n, u) == pytest.approx(-float(want), rel=1e-13)
        np.testing.assert_array_equal(lens_slope(n, np.array([1.0, 2.0])), [0.0, 0.0])

    def test_lens_vanishes_beyond_contact(self):
        np.testing.assert_array_equal(lens(3, np.array([1.0, 1.5])), [0.0, 0.0])
        assert lens(3, 0.0) == 1.0

    def test_duplicate_translate_reduces_to_lens(self):
        lens = covariogram_body(cc.ball(2, 1.0), [[1.0, 0.0]]).value
        est = covariogram_body(cc.ball(2, 1.0), [[1.0, 0.0], [1.0, 0.0]])
        assert est.std_error == 0.0 and est.value == lens

    @pytest.mark.parametrize("n", [3, 4])
    def test_common_volume_of_equal_balls_is_the_lens(self, n):
        # the two caps of equal balls are the two halves of the lens
        for d in (0.0, 0.3, 1.0, 1.9, 2.0, 2.5):
            B0 = cc.ball(n, 0.8, center=np.full(n, 0.1))
            B1 = cc.translate(B0, np.r_[d * 0.8, np.zeros(n - 1)])
            gap = np.linalg.norm(B1.center - B0.center)
            assert common_volume([B0, B1]) == cc.volume(B0).value * lens(n, gap / 1.6)

    def test_common_volume_of_discs_and_polytopes(self):
        # discs of radius 1 at distance 1 meet in the lens; the unit square
        # and its translate by (1, 0) only touch; the corner simplex and the
        # square [-1/2, 1/2]^2 meet in the quarter square
        disc = cc.ball(2, 1.0, center=[5.0, -3.0])
        lens_area = 2.0 * math.acos(0.5) - 0.5 * math.sqrt(3.0)
        assert common_volume([disc, cc.translate(disc, [0.6, 0.8])]) == \
            pytest.approx(lens_area, rel=1e-12)
        square = cc.cube(2, 0.5)
        assert common_volume([square, cc.translate(square, [1.0, 0.0])]) == 0.0
        assert common_volume([cc.simplex(2), square]) == pytest.approx(0.25, rel=1e-12)

    def test_common_volume_outside_its_cases(self):
        ball3 = cc.ball(3, 1.0)
        for bodies in ([cc.cube(2, 1.0), cc.ball(2, 1.0)], [ball3] * 3):
            with pytest.raises(NotImplementedError):
                common_volume(bodies)

    def test_far_translates_empty(self):
        assert covariogram_body(cc.ball(2, 1.0), [[3.0, 0.0], [0.0, 0.1]]).value == 0.0

    def test_batch_of_two_translates_takes_the_lens(self):
        r = 1.3
        d = np.array([0.0, 0.4, 1.1, 2.5, 2.6, 3.0])
        disc = np.where(d < 2 * r, 2 * r * r * np.arccos(np.minimum(d / (2 * r), 1.0))
                        - 0.5 * d * np.sqrt(np.maximum(4 * r * r - d * d, 0.0)), 0.0)
        x = np.stack([0.6 * d, -0.8 * d], axis=1)
        for B in (x[:, None, :], np.stack([x, x], axis=1), np.stack([x, 0.0 * x], axis=1)):
            vals = covariogram_body_many(cc.ball(2, r), B)
            np.testing.assert_allclose(vals, disc, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3])
    def test_batch_with_three_translates_matches_single_rows(self, n):
        B = np.zeros((3, 2, n))
        B[0, :, 0] = 0.4                             # a duplicate translate: the lens
        B[1, 0, 0], B[1, 1, 1] = 0.4, 0.3            # three distinct translates
        B[2, 0, 0], B[2, 1, 0] = 1.5, -1.5           # collinear, too far apart
        vals = covariogram_body_many(cc.ball(n, 1.0), B)
        assert vals[0] == covariogram_body(cc.ball(n, 1.0), [[0.4] + [0.0] * (n - 1)]).value
        assert 0.0 < vals[1] < vals[0] and vals[2] == 0.0
        for xb, v in zip(B, vals):
            assert v == covariogram_body(cc.ball(n, 1.0), xb).value

    def test_determinism(self):
        a = covariogram_body(cc.ball(2, 1.0), [[0.5, 0.2], [0.1, 0.4]])
        b = covariogram_body(cc.ball(2, 1.0), [[0.5, 0.2], [0.1, 0.4]])
        assert a.value == b.value


def _scipy_disc_area(c, rad):
    """Area of the meeting of the discs B(c_i, rad_i) by scipy quad over x of
    the chord, with breakpoints where a disc ends or two circles cross."""
    lo, hi = np.max(c[:, 0] - rad), np.min(c[:, 0] + rad)
    if hi <= lo:
        return 0.0
    cuts = list(c[:, 0] - rad) + list(c[:, 0] + rad)
    for i, j in itertools.combinations(range(len(c)), 2):
        v = c[j] - c[i]
        d = math.hypot(*v)
        if abs(rad[i] - rad[j]) < d < rad[i] + rad[j]:
            a = (d * d + rad[i] ** 2 - rad[j] ** 2) / (2.0 * d)
            h = math.sqrt(max(rad[i] ** 2 - a * a, 0.0))
            cuts += [c[i, 0] + (a * v[0] + s * h * v[1]) / d for s in (1.0, -1.0)]
    discs = [(float(x0), float(y0), float(r) ** 2) for (x0, y0), r in zip(c, rad)]

    def chord(x):
        top, bottom = math.inf, -math.inf
        for x0, y0, r2 in discs:
            h = math.sqrt(max(r2 - (x - x0) ** 2, 0.0))
            top, bottom = min(top, y0 + h), max(bottom, y0 - h)
        return max(top - bottom, 0.0)
    pts = sorted(x for x in cuts if lo < x < hi)
    return integrate.quad(chord, lo, hi, points=pts or None, epsabs=1e-13,
                          epsrel=1e-11, limit=200)[0]


def _scipy_ball_meeting(c):
    """Volume of the meeting of the unit balls B(c_i, 1) in R^3 by scipy quad
    over z of the slice areas, with breakpoints where a slice disc vanishes,
    two slice circles touch (the z-extremes of a pair's circle) or three
    spheres meet."""
    lo, hi = c[:, 2].max() - 1.0, c[:, 2].min() + 1.0
    if hi <= lo:
        return 0.0
    cuts = []
    for i, j in itertools.combinations(range(len(c)), 2):
        u = c[j] - c[i]
        d = float(np.linalg.norm(u))
        if 0.0 < d < 2.0:
            rho = math.sqrt(1.0 - d * d / 4.0) * math.sqrt(max(1.0 - (u[2] / d) ** 2, 0.0))
            cuts += [0.5 * (c[i, 2] + c[j, 2]) + s * rho for s in (1.0, -1.0)]
    for i, j, k in itertools.combinations(range(len(c)), 3):
        a, b = c[j] - c[i], c[k] - c[i]
        nrm = np.cross(a, b)
        centre = c[i] + np.cross(a @ a * b - b @ b * a, nrm) / (2.0 * nrm @ nrm)
        gap = 1.0 - float(np.sum((centre - c[i]) ** 2))
        if gap > 0.0:
            off = math.sqrt(gap) * nrm[2] / float(np.linalg.norm(nrm))
            cuts += [centre[2] + off, centre[2] - off]

    def area(z):
        return _scipy_disc_area(c[:, :2], np.sqrt(np.maximum(1.0 - (z - c[:, 2]) ** 2, 0.0)))
    pts = sorted(z for z in cuts if lo < z < hi)
    return integrate.quad(area, lo, hi, points=pts or None, epsabs=1e-13,
                          epsrel=1e-8, limit=200)[0]


def _rotation(n, seed):
    q, _ = np.linalg.qr(make_rng(seed, 90).normal(size=(n, n)))
    return q


class TestBallMeetings:
    """Exact meetings of three or more equal balls against closed forms,
    scipy quadrature and the Monte Carlo oracle."""

    def test_reuleaux_triangle(self):
        a = 1.3
        xb = a * np.array([[1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]]) @ _rotation(2, 1)
        want = 0.5 * (math.pi - math.sqrt(3.0)) * a * a
        assert covariogram_body(cc.ball(2, a), xb).value == pytest.approx(want, rel=1e-12)

    def test_reuleaux_tetrahedron(self):
        a = 1.3
        xb = a * np.array([[1.0, 0.0, 0.0], [0.5, math.sqrt(3.0) / 2.0, 0.0],
                           [0.5, math.sqrt(3.0) / 6.0, math.sqrt(2.0 / 3.0)]]) @ _rotation(3, 2)
        want = a ** 3 * (3.0 * math.sqrt(2.0) - 49.0 * math.pi
                         + 162.0 * math.atan(math.sqrt(2.0))) / 12.0
        assert covariogram_body(cc.ball(3, a), xb).value == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_collinear_translates_give_the_lens(self, n):
        a = 0.8
        e = _rotation(n, n)[0]
        K = cc.ball(n, a)
        for s, t in [(0.3, 0.9), (-0.5, 0.6), (0.2, 1.7)]:
            want = cc.volume(K).value * lens(n, (t - min(s, 0.0)) / (2.0 * a))
            got = covariogram_body(K, [s * e, t * e]).value
            assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("n", [2, 3])
    def test_duplicate_translate_counts_once(self, n):
        x, y = make_rng(3, n).normal(size=(2, n)) * 0.5
        K = cc.ball(n, 1.0)
        assert covariogram_body(K, [x, x, y]).value == pytest.approx(
            covariogram_body(K, [x, y]).value, rel=1e-12)

    def test_pairwise_meeting_balls_can_miss_together(self):
        side = 1.9      # every pair of unit balls meets; the circumradii exceed 1
        tri = side * np.array([[1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
        tet = side * np.array([[1.0, 0.0, 0.0], [0.5, math.sqrt(3.0) / 2.0, 0.0],
                               [0.5, math.sqrt(3.0) / 6.0, math.sqrt(2.0 / 3.0)]])
        assert covariogram_body(cc.ball(2, 1.0), tri[:1]).value > 0.0
        assert covariogram_body(cc.ball(2, 1.0), tri).value == 0.0
        assert covariogram_body(cc.ball(3, 1.0), np.hstack([tri, np.zeros((2, 1))])).value == 0.0
        assert covariogram_body(cc.ball(3, 1.0), tet).value == 0.0

    def test_disc_meeting_at_tangency(self):
        """Tangent, nested and nearly coincident pairs of unequal discs."""
        C = np.zeros((5, 2, 2))
        C[:, 1, 0] = [0.5, 0.0, 1.1, 1e-13, 0.7]
        rad = np.array([[0.3, 0.8], [0.3, 0.8], [0.3, 0.8], [0.3, 0.3 + 2e-13], [0.3, 0.8]])
        got = _disc_meeting(C - C.mean(axis=1, keepdims=True), rad)
        small = math.pi * 0.09
        np.testing.assert_allclose(got[:2], small, rtol=1e-14)
        assert got[2] == 0.0
        assert got[3] == pytest.approx(small, rel=1e-11)
        assert got[4] == pytest.approx(_scipy_disc_area(C[4], rad[4]), rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_discs_match_scipy_quadrature(self, seed):
        xb = make_rng(seed, 77).normal(size=(2 + seed % 2, 2)) * 0.5
        c = np.vstack([np.zeros(2), xb])
        want = _scipy_disc_area(c, np.ones(len(c)))
        assert covariogram_body(cc.ball(2, 1.0), xb).value == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("m", [2, 3])
    def test_balls_match_scipy_quadrature(self, m):
        xb = make_rng(m, 78).normal(size=(m, 3)) * 0.5
        want = _scipy_ball_meeting(np.vstack([np.zeros(3), xb]))
        assert want > 0.0
        assert covariogram_body(cc.ball(3, 1.0), xb).value == pytest.approx(want, rel=1e-9)

    def test_translates_beyond_a_plane_in_r4_are_out_of_scope(self):
        K = cc.ball(4, 1.0)
        assert covariogram_body(K, 0.3 * np.eye(4)[:2]).value > 0.0
        with pytest.raises(NotImplementedError):
            covariogram_body(K, 0.3 * np.eye(4)[:3])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_monte_carlo_oracle_is_calibrated(self, n):
        """z-scores of 40 seeded 20,000-draw estimates against the exact value."""
        K = cc.ball(n, 1.0)
        xb = MVector(make_rng(5, n).normal(size=(2, n)) * 0.5)
        exact = covariogram_body(K, xb).value
        z = []
        for seed in range(40):
            est = ball_cov_mc(K, xb, seed, 20_000)
            z.append((est.value - exact) / est.std_error)
        assert 0.6 <= np.std(z, ddof=1) <= 1.5
        assert np.max(np.abs(z)) <= 4.0


class TestFunctionCovariogram:
    def test_one_sided_exponential_closed_form(self):
        f = expfun(interval01())
        est = covariogram_fn(f, [0.7])
        assert est.value == pytest.approx(math.exp(-0.7), rel=1e-6)

    def test_two_sided_exponential_closed_form(self):
        f = expfun(cc.cube(1, 1.0))
        est = covariogram_fn(f, [1.0])
        assert est.value == pytest.approx(2.0 * math.exp(-0.5), rel=1e-6)

    @pytest.mark.parametrize("f", [
        lambda: expfun(interval01()),
        lambda: LogConcaveFunction(Profile("gaussian"), cc.cube(2, 1.0), np.zeros(2), 1.3),
        lambda: LogConcaveFunction(Profile("power", 0.5), cc.simplex(2, "centered"), np.zeros(2)),
        lambda: LogConcaveFunction(Profile("pfamily", 1.5, ambient_dim=2), cc.ball(2, 1.0), np.zeros(2)),
    ])
    def test_value_at_origin_is_mass(self, f):
        f = f()
        xb = np.zeros((2, f.dim))
        est = covariogram_fn(f, xb)
        assert est.value == pytest.approx(f.mass(), rel=1e-7)

    @pytest.mark.parametrize("kind, param", [("exponential", 0.0), ("gaussian", 0.0),
                                             ("power", 2.0), ("pfamily", 1.5),
                                             ("pfamily", -0.5)])
    @pytest.mark.parametrize("body", ["interval", "square"])
    def test_level_depth_route_at_origin_is_mass(self, kind, param, body):
        # the level-depth integral at xbar = 0 against the closed-form mass
        K = interval01() if body == "interval" else cc.cube(2, 1.0)
        f = LogConcaveFunction(Profile(kind, param, ambient_dim=K.dim), K, np.zeros(K.dim))
        est = covariogram_fn(f, np.zeros(K.dim))
        assert est.value == pytest.approx(f.mass(), rel=1e-10)

    def test_indicator_reduces_to_body(self):
        f = LogConcaveFunction(Profile("indicator"), cc.cube(2, 1.0), np.zeros(2), 2.0)
        est = covariogram_fn(f, [0.5, 0.5])
        assert est.value == pytest.approx(2.0 * 1.5 * 1.5, rel=1e-12)
        assert est.std_error == 0.0

    def test_direct_mc_on_exponential(self):
        f = expfun(interval01())
        est = cov_fn_direct(f, [0.7], seed=3)
        assert abs(est.value - math.exp(-0.7)) <= 3 * est.std_error

    def test_levelset_shift_invariance_exact(self):
        f0 = expfun(cc.cube(1, 1.0))
        f1 = expfun(cc.cube(1, 1.0), shift=[2.5])
        a = covariogram_fn(f0, [0.8]).value
        b = covariogram_fn(f1, [0.8]).value
        assert a == pytest.approx(b, rel=1e-12)

    def test_direct_mc_shift_invariance(self):
        f0 = LogConcaveFunction(Profile("gaussian"), cc.cube(1, 1.0), np.zeros(1))
        f1 = LogConcaveFunction(Profile("gaussian"), cc.cube(1, 1.0), np.array([1.5]))
        a = cov_fn_direct(f0, [0.6], seed=1)
        b = cov_fn_direct(f1, [0.6], seed=2)
        assert abs(a.value - b.value) <= 3 * combine_sigma(a.std_error, b.std_error)

    @pytest.mark.parametrize("n", [2, 3])
    def test_ball_levelset_with_three_translates_agrees_with_direct(self, n):
        f = expfun(cc.ball(n, 1.0))
        xb = 0.3 * np.eye(n)[:2]
        ls = covariogram_fn(f, xb)
        mc = cov_fn_direct(f, xb, seed=6)
        assert ls.std_error <= 1e-9 * ls.value
        assert abs(ls.value - mc.value) <= 3 * combine_sigma(ls.std_error, mc.std_error)

    def test_duplicate_blocks_keep_exact_levelset(self):
        f = expfun(cc.ball(2, 1.0))
        est = covariogram_fn(f, np.zeros((2, 2)))
        assert est.value == pytest.approx(f.mass(), rel=1e-7)

    def test_p0_profile_rejected(self):
        f = LogConcaveFunction(Profile("pfamily", 0.0, ambient_dim=1),
                               cc.cube(1, 1.0), np.zeros(1))
        with pytest.raises(NonIntegrableError):
            covariogram_fn(f, [0.1])


def _random_cases(count):
    """Deterministic catalog of (f, xbar) pairs across kinds and orders."""
    gen = make_rng(2024, 0)
    bodies = [
        interval01(),
        cc.cube(1, 1.0),
        cc.from_vertices([[-0.3], [0.7]]),
        cc.cube(2, 1.0),
        cc.simplex(2, "centered"),
        cc.from_vertices([[0.9, 0.1], [-0.4, 0.8], [-0.7, -0.5], [0.3, -0.9]]),
    ]
    profiles = [
        Profile("exponential"),
        Profile("gaussian"),
        Profile("power", 0.5),
        Profile("power", 2.0),
        Profile("indicator"),
    ]
    cases = []
    for j in range(count):
        K = bodies[j % len(bodies)]
        n = K.dim
        prof = profiles[j % len(profiles)]
        if j % 7 == 0:
            prof = Profile("pfamily", 1.5 if j % 2 else -0.5, ambient_dim=n)
        m = 1 + j % (2 if n == 2 else 3)
        shift = gen.normal(size=n) * 0.3
        A = 0.5 + gen.random() * 2.0
        f = LogConcaveFunction(prof, K, shift, A)
        xb = gen.normal(size=(m, n)) * 0.35
        cases.append((f, xb))
    return cases


class TestMethodAgreement:
    @pytest.mark.parametrize("case_id", range(50))
    def test_levelset_vs_direct(self, case_id):
        f, xb = _random_cases(50)[case_id]
        ls = covariogram_fn(f, xb)
        mc = cov_fn_direct(f, xb, seed=case_id)
        tol = 3 * combine_sigma(ls.std_error, mc.std_error) + 1e-9
        assert abs(ls.value - mc.value) <= tol


class TestLogConcavityOfCovariogram:
    def test_indicator_on_square(self):
        f = LogConcaveFunction(Profile("indicator"), cc.cube(2, 1.0), np.zeros(2))
        gen = make_rng(31, 0)
        X = gen.normal(size=(1000, 1, 2)) * 0.8
        Y = gen.normal(size=(1000, 1, 2)) * 0.8
        gx = np.array([covariogram_fn(f, x).value for x in X])
        gy = np.array([covariogram_fn(f, y).value for y in Y])
        gm = np.array([covariogram_fn(f, z).value for z in 0.5 * (X + Y)])
        assert np.all(gm + 1e-9 >= np.sqrt(gx * gy) * (1 - 1e-9))

    def test_exponential_interval_m2(self):
        f = expfun(interval01())
        gen = make_rng(37, 0)
        X = gen.normal(size=(1000, 2, 1)) * 0.5
        Y = gen.normal(size=(1000, 2, 1)) * 0.5
        gx = np.array([covariogram_fn(f, x).value for x in X])
        gy = np.array([covariogram_fn(f, y).value for y in Y])
        gm = np.array([covariogram_fn(f, z).value for z in 0.5 * (X + Y)])
        assert np.all(gm + 1e-9 >= np.sqrt(gx * gy) * (1 - 1e-7))


def test_integral_of_classical_covariogram_is_volume_squared():
    K = cc.cube(2, 1.0)
    gen = make_rng(41, 0)
    X = gen.random((200_000, 1, 2)) * 4.0 - 2.0
    vals = covariogram_body_many(K, X)
    integral = 16.0 * float(vals.mean())
    assert integral == pytest.approx(cc.volume(K).value ** 2, rel=1e-2)


class TestRadialDerivative:
    def test_one_sided_exponential(self):
        f = expfun(interval01())
        assert cov_radial_derivative(f, 1, [1.0], h=1e-3) == pytest.approx(-1.0, abs=1e-6)

    def test_indicator_interval(self):
        f = LogConcaveFunction(Profile("indicator"), interval01(), np.zeros(1))
        assert cov_radial_derivative(f, 1, [1.0], h=1e-3) == pytest.approx(-1.0, abs=1e-9)

    def test_indicator_square(self):
        f = LogConcaveFunction(Profile("indicator"), cc.cube(2, 1.0), np.zeros(2))
        d = cov_radial_derivative(f, 1, [1.0, 0.0], h=1e-3)
        assert d == pytest.approx(-2.0, abs=1e-9)

    def test_invalid_step(self):
        f = expfun(interval01())
        with pytest.raises(ValueError):
            cov_radial_derivative(f, 1, [1.0], h=0.0)

    def test_block_count_mismatch(self):
        f = expfun(interval01())
        with pytest.raises(ValueError):
            cov_radial_derivative(f, 2, [1.0], h=1e-3)


class TestDmSupport:
    def test_membership_examples(self):
        K = interval01()
        assert dm_support_membership(K, [0.5, -0.25])
        assert not dm_support_membership(K, [1.5])

    def test_membership_ball(self):
        B = cc.ball(2, 1.0)
        assert dm_support_membership(B, [1.99, 0.0])
        assert not dm_support_membership(B, [2.01, 0.0])

    def test_radius_examples(self):
        assert dm_support_radius(interval01(), [1.0]) == pytest.approx(1.0, abs=1e-9)
        assert dm_support_radius(cc.cube(2, 1.0), [1.0, 0.0]) == pytest.approx(2.0, abs=1e-9)
        assert dm_support_radius(cc.ball(2, 1.0), [1.0, 0.0]) == pytest.approx(2.0)
        half = 1.0 / math.sqrt(2.0)
        assert dm_support_radius(cc.ball(2, 1.0), [[half, 0.0], [half, 0.0]]) \
            == pytest.approx(2.0 * math.sqrt(2.0))

    def test_radius_interval_m2(self):
        K = interval01()
        assert dm_support_radius(K, [1.0, 0.0]) == pytest.approx(1.0, abs=1e-9)
        s = 1.0 / math.sqrt(2.0)
        assert dm_support_radius(K, [s, s]) == pytest.approx(math.sqrt(2.0), abs=1e-9)
        assert dm_support_radius(K, [s, -s]) == pytest.approx(s, abs=1e-9)

    def test_radius_is_support_boundary(self):
        gen = make_rng(43, 0)
        K = cc.simplex(2, "centered")
        for _ in range(8):
            th = gen.normal(size=(2, 2))
            th /= np.linalg.norm(th)
            rho = dm_support_radius(K, th)
            assert dm_support_membership(K, th * (0.999 * rho))
            assert not dm_support_membership(K, th * (1.001 * rho))

    @pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_radius_against_linprog(self, n, m):
        # max r with y in K and y - r theta_i in K, on the (m+1) F stacked rows
        gen = make_rng(60 + 10 * n + m, 0)
        for _ in range(4):
            K = cc.from_vertices(gen.normal(size=(int(gen.integers(n + 3, 12)), n)))
            th = gen.normal(size=(m, n))
            th /= np.linalg.norm(th)
            A, b = K.normals, K.offsets
            rows = [np.column_stack([A, np.zeros(len(A))])]
            rows += [np.column_stack([A, -(A @ x)]) for x in th]
            ref = optimize.linprog(np.r_[np.zeros(n), -1.0], A_ub=np.vstack(rows),
                                   b_ub=np.tile(b, m + 1),
                                   bounds=[(None, None)] * (n + 1), method="highs")
            assert dm_support_radius(K, th) == pytest.approx(-ref.fun, rel=1e-9)

    @pytest.mark.parametrize("m", [1, 2])
    def test_box_radius_is_closed_form(self, m):
        # 1 / max_j t_j against the LP on the same rows, directions with zeros
        gen = make_rng(70 + m, 0)
        boxes = [cc.cube(n, 1.0) for n in (1, 2, 3)]
        boxes += [cc.from_halfspaces(np.vstack([np.eye(n), -np.eye(n)]),
                                     np.r_[hi, -np.asarray(lo)])
                  for n, lo, hi in [(2, [0.0, -1.0], [3.0, 0.5]),
                                    (3, [-0.5, 0.0, 1.0], [0.5, 4.0, 1.25])]]
        for K in boxes:
            n = K.dim
            for _ in range(6):
                th = gen.normal(size=(m, n)) * (gen.random((m, n)) < 0.6)
                if not np.any(th):
                    th[0, 0] = 1.0
                lo, hi = cc.bounding_box(K)
                want = 1.0 / box_rates(lo, hi, th).max()
                s = np.maximum(0.0, -(th @ K.normals.T).min(axis=0))
                lp, _ = max_slack(K.normals, K.offsets, s, K.vertices.mean(axis=0))
                assert dm_support_radius(K, th) == want
                assert want == pytest.approx(lp, rel=1e-12)

    def test_box_rates(self):
        lo, hi = np.array([0.0, -1.0]), np.array([2.0, 1.0])
        got = box_rates(lo, hi, np.array([[1.0, 0.0], [-0.5, 0.5]]))
        np.testing.assert_array_equal(got, [0.75, 0.25])

    def test_function_form(self):
        f = LogConcaveFunction(Profile("indicator"), interval01(), np.zeros(1))
        assert dm_support_membership(f.support_body(), [0.5, -0.25])
        assert not dm_support_membership(f.support_body(), [1.5, 0.0])
        g = expfun(interval01())
        assert g.support_body() is None
        assert dm_support_radius_fn(g, [1.0]) == math.inf
        assert dm_support_radius_fn(f, [1.0]) == pytest.approx(1.0, abs=1e-9)


class TestDmBody:
    def test_difference_body_of_simplex(self):
        D = dm_body(cc.simplex(2, "corner"), 1)
        assert cc.volume(D).value == pytest.approx(3.0, rel=1e-9)
        assert len(D.vertices) == 6

    def test_interval_m2_volume_is_three(self):
        D = dm_body(interval01(), 2)
        assert cc.volume(D).value == pytest.approx(3.0, rel=1e-12)

    def test_interval_m2_grid_oracle(self):
        xs = np.linspace(-1.049, 1.049, 1500)
        G = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2, 1)
        vals = covariogram_body_many(interval01(), G)
        area = (vals > 0).mean() * (2.098) ** 2
        assert area == pytest.approx(3.0, rel=1e-2)

    def test_ball(self):
        D = dm_body(cc.ball(2, 1.5), 1)
        assert D.kind == "ball" and D.radius == pytest.approx(3.0)

    def test_membership_consistency(self):
        D = dm_body(interval01(), 3)
        gen = make_rng(47, 0)
        X = gen.normal(size=(40, 3)) * 0.8
        for x in X:
            member = dm_support_membership(interval01(), x.reshape(3, 1))
            assert member == bool(contains(D, x)[0])

    def test_unsupported(self):
        with pytest.raises(NotImplementedError):
            dm_body(cc.simplex(2, "corner"), 2)

    def test_meeting_volume_of_intervals(self):
        # {x : [0, a] meets x_1 + [0, b] and x_2 + [0, c]} has area ab + ac + bc
        a, b, c = 1.0, 0.5, 2.0
        bodies = [cc.from_vertices([[0.0], [w]]) for w in (a, b, c)]
        assert meeting_volume(bodies) == pytest.approx(a * b + a * c + b * c,
                                                       rel=1e-12)
        assert meeting_volume(bodies[:2]) == a + b

    @pytest.mark.parametrize("K,m", [(interval01(), 1), (interval01(), 3),
                                     (cc.simplex(2, "corner"), 2)])
    def test_dm_volume_is_meeting_volume_of_copies(self, K, m):
        # D^m of a simplex meets Schneider's bound binom(n(m+1), n) vol(K)^m
        n = K.dim
        want = math.comb(n * (m + 1), n) * cc.volume(K).value ** m
        assert meeting_volume([K] * (m + 1)) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("bodies", [
        [cc.cube(2, 1.0), cc.simplex(2, "corner")],
        [cc.from_vertices(make_rng(3, 0).normal(size=(7, 2)))] * 2,
        [cc.from_vertices([[0.0], [w]]) for w in (1.0, 0.5, 2.0)],
        [cc.from_vertices([[-0.3], [1.0]])] * 3,
    ], ids=["square-triangle", "polygon-7", "three-intervals", "interval-m2"])
    def test_planar_meeting_volume_against_qhull(self, bodies):
        # the vertex sums (y - k_1, ..., y - k_m), built independently
        pts = [np.ravel(y - np.array(ks)) for y in bodies[0].vertices
               for ks in itertools.product(*[K.vertices for K in bodies[1:]])]
        assert meeting_volume(bodies) == pytest.approx(ConvexHull(pts).volume, rel=1e-14)

    def test_meeting_sums(self):
        square, triangle = cc.cube(2, 1.0), cc.simplex(2, "corner")
        assert meeting_sums([square, triangle, triangle]) == 4 * 3 * 3
        assert meeting_sums([square, cc.ball(2, 1.0)]) is None
        assert meeting_sums([square] * 5) is None            # n*m = 8

    def test_meeting_volume_needs_polytopes(self):
        with pytest.raises(NotImplementedError):
            meeting_volume([cc.ball(2, 1.0), cc.ball(2, 1.0)])

    def test_quadrilateral_volume_against_membership_oracle(self):
        K = cc.from_vertices([[0.0, 0.0], [2.0, 0.0], [1.5, 1.0], [0.2, 1.3]])
        exact = meeting_volume([K] * 3)
        lo, hi = cc.bounding_box(K)
        width = hi - lo
        N = 4000
        X = (2.0 * make_rng(11, 0).random((N, 2, 2)) - 1.0) * width
        frac = np.mean([dm_support_membership(K, x) for x in X])
        box = float(np.prod(2.0 * width)) ** 2
        sigma = box * math.sqrt(frac * (1.0 - frac) / N)
        assert abs(box * frac - exact) <= 4.0 * sigma
