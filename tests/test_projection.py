import math

import numpy as np
import pytest

import mthorder.convexcore as cc
import mthorder.inequalities as iq
import mthorder.projection as proj
from mthorder.covariogram import as_mvector
from mthorder.lcfun import LogConcaveFunction, NonIntegrableError, profile_from_kind
from mthorder.numerics import make_rng


def expc(body, **kw):
    prof = profile_from_kind("exponential", ambient_dim=body.dim)
    return LogConcaveFunction(prof, body, np.zeros(body.dim), **kw)


class TestGaugeBody:
    def test_interval_m1(self):
        K = cc.cube(1, 0.5)  # [-1/2, 1/2]
        assert proj.ppb_gauge_body(K, 1, [1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_cube_axis_direction(self):
        K = cc.cube(2, 1.0)
        assert proj.ppb_gauge_body(K, 1, [1.0, 0.0]) == pytest.approx(2.0, abs=1e-12)

    def test_unit_interval_two_blocks_formula(self):
        K = cc.cube(1, 0.5)
        rng = make_rng(5, 1)
        for _ in range(40):
            t1, t2 = rng.normal(size=2)
            want = max(t1, t2, 0.0) + max(-t1, -t2, 0.0)
            got = proj.ppb_gauge_body(K, 2, [t1, t2])
            assert got == pytest.approx(want, abs=1e-12)

    def test_ball_m1_is_chord_length(self):
        K = cc.ball(2, 1.0)
        got = proj.ppb_gauge_body(K, 1, [1.0, 0.0])
        assert got == pytest.approx(2.0, abs=0.03)

    def test_halving_identity_m1(self):
        # facet sum of negative parts equals half the facet sum of |<n_F, t>|
        for K in [cc.simplex(2), cc.cube(2, 1.0),
                  cc.from_vertices(np.array([[0.0, 0.0], [2.0, 0.3], [1.1, 1.7], [-0.4, 0.9]]))]:
            fd = cc.facets(K)
            rng = make_rng(7, 1)
            for _ in range(15):
                t = rng.normal(size=2)
                neg = fd.areas @ np.maximum(0.0, -(fd.normals @ t))
                half_abs = 0.5 * (fd.areas @ np.abs(fd.normals @ t))
                assert neg == pytest.approx(half_abs, abs=1e-12)

    def test_translation_invariance(self):
        K = cc.simplex(2)
        Kt = cc.translate(K, [0.7, -0.4])
        th = as_mvector(np.array([0.3, -0.8, 0.5, 0.1]), 2)
        assert proj.ppb_gauge_body(Kt, 2, th) == pytest.approx(
            proj.ppb_gauge_body(K, 2, th), rel=1e-12)

    def test_dilation_scales_with_surface(self):
        K = cc.cube(2, 1.0)
        th = as_mvector(np.array([0.4, 1.2]), 2)
        for s in [0.5, 2.0, 3.5]:
            assert proj.ppb_gauge_body(cc.scale(K, s), 1, th) == pytest.approx(
                s * proj.ppb_gauge_body(K, 1, th), rel=1e-12)

    def test_block_count_mismatch(self):
        K = cc.cube(2, 1.0)
        with pytest.raises(ValueError):
            proj.ppb_gauge_body(K, 2, [1.0, 0.0])

    def test_many_matches_loop(self):
        K = cc.simplex(2)
        rng = make_rng(11, 2)
        T = rng.normal(size=(30, 2, 2))
        vals = proj.ppb_gauge_body_many(K, 2, T)
        for k in range(30):
            assert vals[k] == pytest.approx(proj.ppb_gauge_body(K, 2, T[k]), rel=1e-12)

    def test_many_accepts_flat_directions(self):
        K = cc.cube(2, 1.0)
        rng = make_rng(11, 3)
        T = rng.normal(size=(10, 4))
        flat = proj.ppb_gauge_body_many(K, 2, T)
        shaped = proj.ppb_gauge_body_many(K, 2, T.reshape(10, 2, 2))
        np.testing.assert_allclose(flat, shaped, rtol=1e-14)


def _ball_gauge_reference(T):
    """int over S^{n-1} of max_i <u, theta_i>_-, the unit-ball gauge, by a
    fine deterministic quadrature: midpoint rule in the angle for n = 2,
    Gauss-Legendre in the height times midpoint in the angle for n = 3."""
    n = T.shape[1]
    count = 4000 if n == 2 else 800
    phi = (np.arange(count) + 0.5) * (2.0 * math.pi / count)
    if n == 2:
        U = np.column_stack([np.cos(phi), np.sin(phi)])
        W = np.full(len(phi), 2.0 * math.pi / len(phi))
    else:
        z, wz = np.polynomial.legendre.leggauss(400)
        s = np.sqrt(1.0 - z ** 2)
        U = np.stack([np.outer(s, np.cos(phi)), np.outer(s, np.sin(phi)),
                      np.repeat(z[:, None], len(phi), axis=1)], axis=-1).reshape(-1, 3)
        W = np.repeat(wz, len(phi)) * 2.0 * math.pi / len(phi)
    return float(W @ np.maximum(0.0, -(U @ T.T)).max(axis=1))


class TestGaugeBall:
    @pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_matches_sphere_quadrature(self, n, m):
        rng = make_rng(13, 10 * n + m)
        K = cc.ball(n, 1.0)
        for _ in range(3):
            T = rng.normal(size=(m, n))
            assert proj.ppb_gauge_body(K, m, T.ravel()) == pytest.approx(
                _ball_gauge_reference(T), rel=1e-6)

    def test_planar_hull_degenerate_blocks(self):
        # collinear and repeated blocks: the hull is the segment [-1, 2] e_1
        T = np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0]])
        got = proj.ppb_gauge_body(cc.ball(2, 1.0), 3, T.ravel())
        assert got == pytest.approx(2.0 * 3.0, rel=1e-12)

    @pytest.mark.parametrize("n,m", [(2, 1), (2, 3), (3, 2)])
    def test_radius_scaling_and_centre_invariance(self, n, m):
        rng = make_rng(17, n + m)
        th = rng.normal(size=n * m)
        unit = proj.ppb_gauge_body(cc.ball(n, 1.0), m, th)
        for r in (0.5, 2.5):
            moved = cc.ball(n, r, center=rng.normal(size=n))
            assert proj.ppb_gauge_body(moved, m, th) == pytest.approx(
                r ** (n - 1) * unit, rel=1e-12)

    def test_many_matches_single(self):
        K = cc.ball(2, 1.3)
        T = make_rng(19, 1).normal(size=(25, 3, 2))
        vals = proj.ppb_gauge_body_many(K, 3, T)
        for k in range(25):
            assert vals[k] == pytest.approx(proj.ppb_gauge_body(K, 3, T[k]), rel=1e-12)

    def test_four_blocks_in_four_space_not_implemented(self):
        # the hull of three or more blocks in R^3 or above need not be planar
        with pytest.raises(NotImplementedError, match="n <= 2 or m <= 2"):
            proj.ppb_gauge_body(cc.ball(4, 1.0), 4, np.ones(16))
        with pytest.raises(NotImplementedError, match="n <= 2 or m <= 2"):
            proj.ppb_gauge_body_many(cc.ball(3, 1.0), 3, np.ones((2, 9)))
        with pytest.raises(NotImplementedError):
            iq.check_zhang_body(cc.ball(4, 1.0), 4)

    def test_zhang_body_cube3_m3(self):
        # the Petty side would need the ball gauge at n = m = 3
        with pytest.raises(NotImplementedError, match="n <= 2 or m <= 2"):
            iq.check_zhang_body(cc.cube(3), 3, directions=500)

    def test_petty_right_side_of_disc_is_exact(self):
        # vol(PPB(B^2, 1)) vol(B^2) = (pi/4) pi
        _, right = iq.check_zhang_body(cc.ball(2, 1.0), 1)
        assert right.rhs.value == pytest.approx(math.pi ** 2 / 4.0, abs=1e-12)


class TestGaugeFn:
    def test_exponential_interval(self):
        f = expc(cc.from_halfspaces(np.array([[-1.0], [1.0]]), np.array([0.0, 1.0])))
        assert proj.ppb_gauge_fn(f, 1, [1.0]) == pytest.approx(1.0, rel=1e-12)

    def test_exponential_gauge_cube(self):
        # n = 2 exponential of the cube gauge: level factor is (n-1)! = 1
        f = expc(cc.cube(2, 1.0))
        assert proj.ppb_gauge_fn(f, 1, [1.0, 0.0]) == pytest.approx(2.0, rel=1e-12)

    def test_indicator_reduces_to_body_gauge(self):
        K = cc.simplex(2)
        f = LogConcaveFunction(profile_from_kind("indicator", ambient_dim=2), K, np.zeros(2))
        th = as_mvector(np.array([0.3, -0.9, 1.1, 0.2]), 2)
        assert proj.ppb_gauge_fn(f, 2, th) == pytest.approx(
            proj.ppb_gauge_body(K, 2, th), rel=1e-12)

    def test_amplitude_scales_linearly(self):
        K = cc.cube(2, 1.0)
        f1 = expc(K)
        f3 = expc(K, amplitude=3.0)
        th = as_mvector(np.array([0.5, 0.7]), 2)
        assert proj.ppb_gauge_fn(f3, 1, th) == pytest.approx(
            3.0 * proj.ppb_gauge_fn(f1, 1, th), rel=1e-12)

    def test_gaussian_level_factor(self):
        # n = 2 gaussian: (n-1) * M_{n-2} = integral of exp(-t^2/2) = sqrt(pi/2)
        K = cc.cube(2, 1.0)
        f = LogConcaveFunction(profile_from_kind("gaussian", ambient_dim=2), K, np.zeros(2))
        want = math.sqrt(math.pi / 2.0) * proj.ppb_gauge_body(K, 1, [1.0, 0.0])
        assert proj.ppb_gauge_fn(f, 1, [1.0, 0.0]) == pytest.approx(want, rel=1e-12)

    def test_heavy_tail_profile_rejected(self):
        K = cc.cube(2, 1.0)
        f = LogConcaveFunction(profile_from_kind("pfamily", 0.0, ambient_dim=2), K, np.zeros(2))
        with pytest.raises(NonIntegrableError):
            proj.ppb_gauge_fn(f, 1, [1.0, 0.0])


class TestUnitBallAndVolume:
    def test_interval_two_blocks_hexagon(self):
        K = cc.cube(1, 0.5)
        B = proj.ppb_body_polytope(K, 2)
        got = cc.volume(B)
        assert got.value == pytest.approx(3.0, rel=1e-12)
        assert got.std_error == 0.0

    def test_interval_two_blocks_volume_op(self):
        K = cc.cube(1, 0.5)
        assert proj.ppb_volume(K, 2).value == pytest.approx(3.0, rel=1e-12)

    def test_corner_simplex_m1(self):
        # equality case of the body-level volume bound: vol = 6/4 / vol(K)
        K = cc.simplex(2)
        assert proj.ppb_volume(K, 1).value == pytest.approx(3.0, rel=1e-12)

    def test_cube_m1(self):
        K = cc.cube(2, 1.0)
        B = proj.ppb_body_polytope(K, 1)
        # gauge = 2(|t1| + |t2|), so the ball is the L1 ball of radius 1/2
        assert cc.volume(B).value == pytest.approx(0.5, rel=1e-12)

    def test_disk_m1(self):
        K = cc.ball(2, 1.0)
        got = proj.ppb_volume(K, 1)
        assert got.value == pytest.approx(math.pi / 4.0, rel=1e-12)
        assert got.std_error == 0.0

    def test_function_volume_scaling(self):
        f = expc(cc.from_halfspaces(np.array([[-1.0], [1.0]]), np.array([0.0, 1.0])))
        assert proj.ppb_volume(f, 1).value == pytest.approx(2.0, rel=1e-12)

    def test_sphere_route_matches_exact_route(self):
        K = cc.simplex(2)
        exact = proj.ppb_volume(K, 1).value
        B = proj.ppb_body_polytope(K, 1)
        dirs = np.arange(1)  # noqa: F841 - exercised below via monte carlo path
        mc = _sphere_volume_reference(K, 1, 40_000)
        assert mc == pytest.approx(exact, rel=0.02)
        assert cc.volume(B).value == pytest.approx(exact, rel=1e-12)

    def test_ball_nm4_runs_monte_carlo(self):
        K = cc.cube(2, 1.0)
        got = proj.ppb_volume(K, 2, directions=4000)
        assert got.std_error > 0.0
        assert got.value > 0.0


def _sphere_volume_reference(K, m, n_dirs):
    d = K.dim * m
    rng = np.random.default_rng(2024)
    U = rng.normal(size=(n_dirs, d))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    g = proj.ppb_gauge_body_many(K, m, U.reshape(n_dirs, m, K.dim))
    surface = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    return surface * float((g ** (-d)).mean()) / d


class TestMatheron:
    def test_exponential_interval_ratio(self):
        f = expc(cc.from_halfspaces(np.array([[-1.0], [1.0]]), np.array([0.0, 1.0])))
        rep = proj.matheron_consistency(f, 1, [1.0])
        assert rep["gauge"] == pytest.approx(1.0, rel=1e-12)
        assert 8.0 <= rep["ratio"] <= 12.0

    def test_power_profile_interval_ratio(self):
        K = cc.cube(1, 1.0)
        f = LogConcaveFunction(profile_from_kind("power", 2.0, ambient_dim=1), K, np.zeros(1))
        rep = proj.matheron_consistency(f, 1, [-1.0])
        assert 8.0 <= rep["ratio"] <= 12.0

    def test_gaussian_square_diagonal_ratio(self):
        # curvature comes from the body section here, not the profile
        f = LogConcaveFunction(profile_from_kind("gaussian", ambient_dim=2),
                               cc.cube(2, 1.0), np.zeros(2))
        s = 1.0 / math.sqrt(2.0)
        rep = proj.matheron_consistency(f, 1, [s, s])
        assert 8.0 <= rep["ratio"] <= 12.0

    def test_flat_direction_is_higher_order(self):
        # along an axis of the square every section is linear: the quotient
        # error collapses and the ratio leaves the first-order window
        f = LogConcaveFunction(profile_from_kind("gaussian", ambient_dim=2),
                               cc.cube(2, 1.0), np.zeros(2))
        rep = proj.matheron_consistency(f, 1, [1.0, 0.0])
        assert not (8.0 <= rep["ratio"] <= 12.0)

    def test_exponential_square_two_blocks(self):
        f = expc(cc.cube(2, 1.0))
        rep = proj.matheron_consistency(f, 2, [0.6, 0.8, -0.8, 0.6])
        assert 8.0 <= rep["ratio"] <= 12.0

    def test_block_count_checked(self):
        f = expc(cc.cube(2, 1.0))
        with pytest.raises(ValueError):
            proj.matheron_consistency(f, 2, [1.0, 0.0])
