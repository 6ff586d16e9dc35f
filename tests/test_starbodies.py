import math

import numpy as np
import pytest
from scipy import integrate, special
from scipy.special import gamma as gamma_fn
from scipy.stats import norm

import mthorder.convexcore as cc
import mthorder.covariogram as cov
import mthorder.mellin as ml
import mthorder.projection as proj
import mthorder.starbodies as sb
from mthorder.lcfun import ZERO_P_WINDOW, LogConcaveFunction, profile_from_kind
from mthorder.numerics import make_rng
from oracles import covariogram_body, layer_cake_section, radial_from_ray_derivative

EULER_GAMMA = 0.5772156649015329


def expfun(body, **kw):
    prof = profile_from_kind("exponential", ambient_dim=body.dim)
    return LogConcaveFunction(prof, body, np.zeros(body.dim), **kw)


def unit_interval():
    return cc.from_halfspaces(np.array([[-1.0], [1.0]]), np.array([0.0, 1.0]))


def triangle():
    """psi(t) = (1 - t)_+ as a one-piece polynomial profile."""
    return ml.from_ppoly(ml.Pieces([[-1.0], [1.0]], [0.0, 1.0]))


class TestBallBodyRadial:
    """The Ball-body radius rho_p of a normalized section is `mellin.i_p`."""

    def test_exponential_p1(self):
        assert ml.i_p(ml.exponential(), 1.0) == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("p", [0.25, 0.5, 1.0, 2.0, 3.5, 5.0])
    def test_exponential_positive_p_gamma_law(self, p):
        got = ml.i_p(ml.exponential(), p)
        assert got == pytest.approx(gamma_fn(p + 1.0) ** (1.0 / p), rel=1e-8)

    def test_exponential_p_minus_half(self):
        assert ml.i_p(ml.exponential(), -0.5) == pytest.approx(1.0 / math.pi, rel=1e-6)

    @pytest.mark.parametrize("p", [-0.9, -0.5, -0.1])
    def test_exponential_negative_p_gamma_law(self, p):
        got = ml.i_p(ml.exponential(), p)
        assert got == pytest.approx(gamma_fn(p + 1.0) ** (1.0 / p), rel=1e-6)

    def test_exponential_p0_euler_constant(self):
        got = ml.i_p(ml.exponential(), 0.0)
        assert got == pytest.approx(math.exp(-EULER_GAMMA), rel=1e-8)

    def test_p0_scaling(self):
        for c in [0.5, 3.0]:
            got = ml.i_p(ml.exponential(alpha=1.0 / c), 0.0)
            assert got == pytest.approx(math.exp(-EULER_GAMMA) / c, rel=1e-8)

    def test_tiny_p_routes_to_zero_branch(self):
        psi = ml.exponential()
        assert ml.i_p(psi, 1e-9) == ml.i_p(psi, 0.0)

    def test_triangular_section_p1(self):
        assert ml.i_p(triangle(), 1.0) == pytest.approx(0.5, rel=1e-10)

    def test_triangular_section_negative_p(self):
        # p * int r^{p-1}(psi - 1) over [0,1] and the constant -1 tail give
        # rho^p = 1/(p+1)
        for p in [-0.5, -0.25]:
            got = ml.i_p(triangle(), p)
            assert got == pytest.approx((1.0 / (p + 1.0)) ** (1.0 / p), rel=1e-6)

    def test_indicator_section_recovers_cut(self):
        for p in [2.0, 0.0, -0.5]:
            assert ml.i_p(ml.indicator(0.75), p) == pytest.approx(0.75, rel=1e-6)

    def test_continuity_across_branches(self):
        eps = 5e-6
        psi = ml.exponential()
        mid = ml.i_p(psi, 0.0)
        assert ml.i_p(psi, -eps) == pytest.approx(mid, rel=1e-4)
        assert ml.i_p(psi, eps) == pytest.approx(mid, rel=1e-4)

    def test_p_at_most_minus_one_rejected(self):
        with pytest.raises(ValueError):
            ml.i_p(ml.exponential(), -1.0)


class TestBodyRays:
    def test_unit_interval_section(self):
        ray = sb.body_ray(unit_interval(), 1, [1.0])
        r = np.array([0.0, 0.25, 0.5, 0.99, 1.0, 2.0])
        np.testing.assert_allclose(ray.profile.value(r), np.maximum(1.0 - r, 0.0), atol=1e-12)
        assert ray.profile.support_radius == pytest.approx(1.0)
        assert ray.slope0 == pytest.approx(1.0, rel=1e-12)

    def test_square_axis_section(self):
        ray = sb.body_ray(cc.cube(2, 1.0), 1, [1.0, 0.0])
        assert ray.profile.support_radius == pytest.approx(2.0)
        assert ray.slope0 == pytest.approx(0.5, rel=1e-12)  # gauge 2 / vol 4
        assert ray.profile.value(1.0) == pytest.approx(0.5, rel=1e-12)

    def test_simplex_interp_accuracy(self):
        K = cc.simplex(2)
        th = sb.as_unit(np.array([0.3, -0.9]), 2)
        ray = sb.body_ray(K, 1, th)
        vol = cc.volume(K).value
        for r in [0.1, 0.3, 0.55, 0.8]:
            exact = covariogram_body(K, th.scaled(r)).value / vol
            assert ray.profile.value(r) == pytest.approx(exact, abs=2e-6)

    def test_antithetic_pair_shares_one_ray_at_m1(self):
        K = cc.from_vertices([[math.cos(t), math.sin(t)]
                              for t in 2 * math.pi * np.arange(5) / 5 + 0.3])
        dirs = np.array([[0.6, 0.8], [-0.6, -0.8], [0.8, -0.6]])
        built = []

        def make(th):
            built.append(th)
            return sb.body_ray(K, 1, th, nodes=64)

        rays = sb.rays_for(dirs, 1, make)
        assert len(built) == 2 and rays[0] is rays[1]
        apart = [sb.body_ray(K, 1, th, nodes=64) for th in dirs[:2]]
        for p in (-0.9, 0.0, 0.5, 2.0):
            for ray in apart:
                assert sb.radial_from_ray(rays[1], p).value == pytest.approx(
                    sb.radial_from_ray(ray, p).value, rel=1e-14)
        assert apart[1].slope0 == pytest.approx(rays[1].slope0, rel=1e-14)

    def test_antithetic_pair_keeps_two_rays_at_m2(self):
        dirs = np.array([[0.6, 0.0, 0.0, 0.8], [-0.6, 0.0, 0.0, -0.8]])
        rays = sb.rays_for(dirs, 2, lambda th: sb.body_ray(cc.simplex(2), 2, th, nodes=16))
        assert rays[0] is not rays[1]

    def test_disk_m1_section_is_cheap_exact(self):
        K = cc.ball(2, 1.0)
        ray = sb.body_ray(K, 1, [0.0, 1.0])
        # normalized lens area at distance 1
        want = (2.0 * math.acos(0.5) - 0.5 * math.sqrt(3.0)) / math.pi
        assert ray.profile.value(1.0) == pytest.approx(want, rel=1e-12)


def _box(n):
    return unit_interval() if n == 1 else cc.cube(n, 1.0)


def _box_directions(n, m):
    """A generic m-direction and one with a zero coordinate in every block."""
    gen = make_rng(4, 10 * n + m)
    generic = gen.normal(size=(m, n))
    zeroed = gen.normal(size=(m, n))
    if n > 1:
        zeroed[:, 0] = 0.0          # t_0 = 0
    else:
        zeroed[0] = 0.0             # one block at rest
    return [generic, zeroed] if m > 1 or n > 1 else [generic]


_BOX_PS = [-0.99, -0.5, -1e-7, 0.0, 1e-7, 0.5, 1.0, 5.0, 200.0]


def _box_reference(rates, p):
    """rho_p of prod_j (1 - r t_j)_+ by scipy's QAWS quadrature of -psi'
    against the weight r^p (log r within 1e-6 of p = 0)."""
    t = np.asarray(rates)

    def neg_slope(r):
        f = 1.0 - r * t
        return sum(t[j] * np.prod(np.delete(f, j)) for j in range(len(t)))

    zero = abs(p) <= 1e-6
    val = integrate.quad(neg_slope, 0.0, 1.0 / t.max(),
                         weight="alg-loga" if zero else "alg",
                         wvar=(0.0 if zero else p, 0.0), epsabs=0.0, epsrel=1e-13)[0]
    return math.exp(val) if zero else val ** (1.0 / p)


class TestBoxRays:
    """Box sections are polynomials: knot-exact radii against quadrature."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2])
    def test_closed_form_matches_quadrature(self, n, m):
        K = _box(n)
        lo, hi = cc.bounding_box(K)
        for k, theta in enumerate(_box_directions(n, m)):
            th = sb.as_unit(theta.ravel(), n)
            ray = sb.body_ray(K, m, th)
            rates = cov.box_rates(lo, hi, th.blocks)
            if k == 1 and n > 1:    # t_0 = 0 drops the top degree
                assert ray.profile.spline.c[0, 0] == 0.0
            for p in _BOX_PS:
                got = sb.radial_from_ray(ray, p)
                assert got.value == pytest.approx(_box_reference(rates, p), rel=1e-9)
                assert got.std_error == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2])
    def test_section_support_and_slope_are_exact(self, n, m):
        K = _box(n)
        vol = cc.volume(K).value
        for theta in _box_directions(n, m):
            th = sb.as_unit(theta.ravel(), n)
            ray = sb.body_ray(K, m, th)
            r = np.linspace(0.0, 1.2 * ray.profile.support_radius, 9)
            want = [covariogram_body(K, th.scaled(x)).value / vol for x in r]
            np.testing.assert_allclose(ray.profile.value(r), want, rtol=1e-12, atol=1e-15)
            assert ray.profile.value(float(r[3])) == pytest.approx(want[3], rel=1e-12)
            assert ray.profile.support_radius == pytest.approx(
                cov.dm_support_radius(K, th), rel=1e-12)
            assert ray.slope0 == pytest.approx(
                proj.ppb_gauge_body(K, m, th) / vol, rel=1e-12)
            assert ray.slope0 == pytest.approx(-ray.profile.slope0, rel=1e-12)

    @pytest.mark.parametrize("p", [-0.99, -0.5, 0.5, 1.0, 5.0, 200.0])
    def test_unit_interval_closed_form(self, p):
        ray = sb.body_ray(unit_interval(), 1, [1.0])
        got = sb.radial_from_ray(ray, p).value
        assert got == pytest.approx((1.0 + p) ** (-1.0 / p), rel=1e-14)

    def test_p_at_most_minus_one_rejected(self):
        ray = sb.body_ray(unit_interval(), 1, [1.0])
        with pytest.raises(ValueError):
            sb.radial_from_ray(ray, -1.0)

    def test_box_functions_build_no_covariograms(self, monkeypatch):
        import mthorder.inequalities as iq
        calls = {"cov": 0, "quad": 0}
        cov_many, quad = cov.covariogram_body_many, ml.integrate_1d

        def counted_cov(*args, **kw):
            calls["cov"] += 1
            return cov_many(*args, **kw)

        def counted_quad(*args, **kw):
            calls["quad"] += 1
            return quad(*args, **kw)

        monkeypatch.setattr(cov, "covariogram_body_many", counted_cov)
        monkeypatch.setattr(ml, "integrate_1d", counted_quad)
        chi = LogConcaveFunction(profile_from_kind("indicator", ambient_dim=1),
                                 cc.simplex(1), np.zeros(1))
        dirs = make_rng(0, 3).normal(size=(8, 2))
        radii = sb.radial_mean_body_fn(chi, 2, 200.0, directions=dirs)
        want = [cov.dm_support_radius(chi.body, th) for th in sb.direction_set(dirs, 2, 0)]
        np.testing.assert_allclose(radii, want, rtol=0.05)
        gauss = LogConcaveFunction(profile_from_kind("gaussian", ambient_dim=1),
                                   cc.cube(1, 1.0), np.zeros(1))
        verdicts = iq.check_chain(gauss, 1, [-0.5, 0.0, 1.0, 2.0])
        assert all(v.status != iq.VIOLATED for v in verdicts)
        assert calls == {"cov": 0, "quad": 0}


_STACKED_PS = [-0.99, -0.5, 0.5 * ZERO_P_WINDOW, 1e-3, 1.0, 2.0, 5.0, 200.0]


class TestBoxRadii:
    """The stacked closed route for a whole direction set against the radii
    of one box ray per direction."""

    @pytest.mark.parametrize("n,m", [(n, m) for n in (1, 2, 3) for m in (1, 2, 3)
                                     if n * m <= 6])
    def test_matches_rays(self, n, m):
        K = _box(n)
        dirs = make_rng(5, 10 * n + m).normal(size=(12, n * m))
        if n > 1:
            dirs[0, ::n] = 0.0              # t_0 = 0
        elif m > 1:
            dirs[0, 0] = 0.0                # one block at rest
        radii, limits = sb.box_radii(K, m, dirs, _STACKED_PS)
        assert radii.shape == (12, len(_STACKED_PS))
        for k, theta in enumerate(dirs):
            ray = sb.body_ray(K, m, theta)
            want = [sb.radial_from_ray(ray, p).value for p in _STACKED_PS]
            np.testing.assert_allclose(radii[k], want, rtol=1e-13, atol=0.0)
            assert limits[k] == pytest.approx(sb.limit_body_minus1(ray), rel=1e-13)
        for j, p in enumerate(_STACKED_PS):     # a number p gives one column
            np.testing.assert_array_equal(sb.box_radii(K, m, dirs, p)[0], radii[:, j])

    def test_equals_rays_to_the_bit(self):
        # the same sums and powers as the knot routes: seed-0 verdicts do not move
        for n, m in [(1, 2), (2, 1), (3, 2)]:
            dirs = make_rng(6, 10 * n + m).normal(size=(6, n * m))
            radii, limits = sb.box_radii(_box(n), m, dirs, _STACKED_PS)
            rays = [sb.body_ray(_box(n), m, th) for th in dirs]
            assert radii.tolist() == sb.radii_at(rays, np.array(_STACKED_PS)).tolist()
            assert limits.tolist() == [sb.limit_body_minus1(ray) for ray in rays]

    @pytest.mark.parametrize("p", [-1.0, -3.0, math.nan, math.inf])
    def test_inadmissible_exponents_raise_like_i_p(self, p):
        with pytest.raises(ValueError) as stacked:
            sb.box_radii(unit_interval(), 1, [[1.0]], p)
        with pytest.raises(ValueError) as single:
            sb.radial_from_ray(sb.body_ray(unit_interval(), 1, [1.0]), p)
        assert str(stacked.value) == str(single.value)

    def test_zero_direction_raises(self):
        with pytest.raises(ValueError, match="nonzero"):
            sb.box_radii(cc.cube(2, 1.0), 1, [[0.6, 0.8], [0.0, 0.0]], 1.0)

    def test_radial_mean_body_builds_no_profile(self, monkeypatch):
        def refuse(*args, **kw):
            raise AssertionError("a box takes the stacked route")

        monkeypatch.setattr(ml, "from_ppoly", refuse)
        monkeypatch.setattr(ml, "i_p", refuse)
        radii = sb.radial_mean_body_body(cc.cube(2, 1.0), 2, [-0.5, 0.0, 2.0], seed=4)
        assert radii.shape == (64, 3) and np.all(np.isfinite(radii))
        with pytest.raises(AssertionError, match="stacked"):      # the patch holds
            sb.radial_mean_body_body(_PENTAGON, 1, 1.0, directions=[[0.6, 0.8]])


def _per_knot_radius(ray, knots, p):
    """rho_p of a ray by scipy quad of r^p (log r within 1e-6 of p = 0)
    against -psi' on each knot interval, the first with the weight taken
    exactly (QAWS), plus the atom at the last knot."""
    zero = abs(p) <= 1e-6
    nd = ray.profile.neg_derivative
    total = integrate.quad(nd, 0.0, knots[1], weight="alg-loga" if zero else "alg",
                           wvar=(0.0 if zero else p, 0.0), epsabs=0.0, epsrel=1e-13)[0]
    weight = (lambda r: math.log(r)) if zero else (lambda r: r ** p)
    for a, b in zip(knots[1:-1], knots[2:]):
        total += integrate.quad(lambda r: nd(r) * weight(r), a, b,
                                epsabs=0.0, epsrel=1e-13)[0]
    total += sum(w * weight(loc) for loc, w in ray.profile.atoms)
    return math.exp(total) if zero else total ** (1.0 / p)


class TestTableRays:
    """Tabulated sections are integrated knot by knot, exactly."""

    @pytest.mark.parametrize("p", [-0.99, -0.5, 0.0, 0.5, 1.0, 5.0, 200.0])
    def test_polygon_radii_match_per_knot_quadrature(self, p):
        ray = sb.body_ray(_PENTAGON, 1, [0.6, 0.8])
        knots = np.linspace(0.0, ray.profile.support_radius, 256)    # body_ray's table
        got = sb.radial_from_ray(ray, p)
        assert got.value == pytest.approx(_per_knot_radius(ray, knots, p), rel=1e-10)
        assert got.std_error == 0.0

    def test_disc_table_is_exact_at_m2(self):
        """The disc ray at m = 2 tabulates exact meetings of three discs: no
        sigma, and 256 nodes agree with 16,384 to 1e-7 at both ends of p."""
        th = [2 ** -0.5, 0.0, 0.0, 2 ** -0.5]
        ray = sb.body_ray(cc.ball(2, 1.0), 2, th)
        fine = sb.body_ray(cc.ball(2, 1.0), 2, th, nodes=16_384)
        for p, want in [(-0.99, 0.0124449566), (1.0, 0.7760086)]:
            got = sb.radial_from_ray(ray, p)
            ref = sb.radial_from_ray(fine, p).value
            assert got.std_error == 0.0
            assert got.value == pytest.approx(ref, rel=1e-7)
            assert ref == pytest.approx(want, rel=1e-7)

    def test_disc_table_takes_the_exact_slope(self):
        """Pinning the slope at 0 to the projection gauge brings the p -> -1
        radius of a coarse disc ray onto the fine-table value."""
        disc, th = cc.ball(2, 1.0), sb.as_unit([1.0, 0.0, 0.0, 1.0], 2)
        ray = sb.body_ray(disc, 2, th, nodes=64)
        assert ray.profile.slope0 == pytest.approx(-ray.slope0, rel=1e-12)
        pinned = sb.radial_from_ray(ray, -0.99).value
        # the same table with one-sided end slopes, as before the pin
        grid = np.linspace(0.0, cov.dm_support_radius(disc, th), 64)
        vals = np.clip(cov.covariogram_body_many(disc, grid[:, None, None] * th.blocks[None])
                       / math.pi, 0.0, 1.0)
        vals[0] = 1.0
        unpinned = ml.i_p(ml.from_table(grid, vals, root=2), -0.99)
        fine = sb.radial_from_ray(sb.body_ray(disc, 2, th, nodes=16_384), -0.99).value
        assert abs(pinned - fine) <= abs(unpinned - fine) / 40.0


class TestBallRays:
    """A ball at m = 1 has the lens section and Beta-function radii."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_radii_match_beta_closed_form(self, n):
        a = 0.7
        ray = sb.body_ray(cc.ball(n, a), 1, np.eye(n)[-1])
        b = 0.5 * (n + 1)
        for p in [-0.99, -0.5, 0.0, 0.5, 1.0, 5.0, 200.0]:
            if p == 0.0:
                want = 2.0 * a * math.exp(0.5 * (special.digamma(0.5)
                                                 - special.digamma(0.5 + b)))
            else:
                want = 2.0 * a * (special.beta(0.5 * (p + 1.0), b)
                                  / special.beta(0.5, b)) ** (1.0 / p)
            assert sb.radial_from_ray(ray, p).value == pytest.approx(want, rel=1e-9)

    def test_slope_is_the_projection_gauge(self):
        K = cc.ball(3, 0.7)
        th = sb.as_unit([0.0, 0.6, 0.8], 3)
        ray = sb.body_ray(K, 1, th)
        want = proj.ppb_gauge_body(K, 1, th) / cc.volume(K).value
        assert ray.slope0 == pytest.approx(want, rel=1e-12)


class TestRadialMeanBodies:
    def test_interval_p1_table(self):
        radii = sb.radial_mean_body_body(unit_interval(), 1, 1.0)
        np.testing.assert_allclose(radii, 0.5, rtol=1e-9)
        assert sb.star_volume(radii, 1).value == pytest.approx(1.0, rel=1e-9)

    def test_interval_p200_near_difference_body(self):
        radii = sb.radial_mean_body_body(unit_interval(), 1, 200.0)
        # exact closed form (p+1)^{-1/p}, which sits within 5% of the
        # difference-body radius 1
        np.testing.assert_allclose(radii, 201.0 ** (-1.0 / 200.0), rtol=1e-6)
        np.testing.assert_allclose(radii, 1.0, rtol=0.05)

    def test_interval_m2_p200_near_difference_body(self):
        K = unit_interval()
        radii = sb.radial_mean_body_body(K, 2, 200.0, seed=3)
        want = [cov.dm_support_radius(K, th) for th in sb.direction_set(None, 2, 3)]
        np.testing.assert_allclose(radii, want, rtol=0.05)

    def test_exponential_function_gamma_radii(self):
        f = expfun(unit_interval())
        np.testing.assert_allclose(sb.radial_mean_body_fn(f, 1, 1.0), 1.0, rtol=1e-7)
        np.testing.assert_allclose(sb.radial_mean_body_fn(f, 1, -0.5), 1.0 / math.pi,
                                   rtol=1e-5)

    def test_gaussian_p1_value(self):
        f = LogConcaveFunction(profile_from_kind("gaussian", ambient_dim=1),
                               cc.cube(1, 1.0), np.zeros(1))
        np.testing.assert_allclose(sb.radial_mean_body_fn(f, 1, 1.0),
                                   4.0 / math.sqrt(2.0 * math.pi), rtol=1e-6)

    def test_gaussian_section_matches_hand_formula(self):
        f = LogConcaveFunction(profile_from_kind("gaussian", ambient_dim=1),
                               cc.cube(1, 1.0), np.zeros(1))
        ray = sb.layer_cake_ray(f, 1, [1.0])
        for r in [0.3, 1.0, 2.5]:
            want = 2.0 * (1.0 - norm.cdf(r / 2.0))
            assert ray.profile.value(r) == pytest.approx(want, rel=1e-7)

    def test_determinism(self):
        f = expfun(cc.cube(1, 1.0))
        a = sb.radial_mean_body_fn(f, 1, 2.0, seed=7)
        b = sb.radial_mean_body_fn(f, 1, 2.0, seed=7)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(sb.direction_set(None, 1, 7),
                                      sb.direction_set(None, 1, 7))

    def test_radii_over_a_grid_are_the_columns_of_single_exponents(self):
        dirs = np.array([[0.6, 0.8], [1.0, 0.0], [-0.6, -0.8]])
        rays = sb.rays_for(dirs, 1, lambda th: sb.body_ray(_PENTAGON, 1, th))
        grid = np.array([-0.5, 0.0, 1.0, 2.0, 5.0])
        radii = sb.radii_at(rays, grid)
        assert radii.shape == (3, 5)
        for j, p in enumerate(grid.tolist()):
            assert radii[:, j].tolist() == sb.radii_at(rays, p).tolist()
        assert radii[0].tolist() == radii[2].tolist()      # one ray for +-theta

    def test_direction_count_default(self):
        assert sb.default_direction_count(2) == 64
        assert sb.default_direction_count(5) == 256

    def test_explicit_directions_are_normalized(self):
        given = np.array([[2.0, 0.0], [0.0, -3.0]])
        dirs = sb.direction_set(given, 2, 0)
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0)
        np.testing.assert_array_equal(
            sb.radial_mean_body_body(unit_interval(), 2, 1.0, directions=given),
            sb.radial_mean_body_body(unit_interval(), 2, 1.0, directions=dirs))


class TestDerivativeRoute:
    @pytest.mark.parametrize("p", [1.0, 2.0, -0.5, 0.0])
    def test_matches_primary_on_exponential(self, p):
        ray = sb.RadialRay(ml.exponential(), 1.0)
        primary = sb.radial_from_ray(ray, p).value
        oracle = radial_from_ray_derivative(ray, p, nodes=6001)
        assert oracle == pytest.approx(primary, rel=5e-3)

    def test_matches_primary_on_body_ray(self):
        ray = sb.body_ray(cc.simplex(2), 1, sb.as_unit(np.array([1.0, 0.4]), 2))
        for p in [1.0, -0.5]:
            primary = sb.radial_from_ray(ray, p).value
            oracle = radial_from_ray_derivative(ray, p, nodes=6001)
            assert oracle == pytest.approx(primary, rel=5e-3)


class TestLimitBodies:
    def test_exponential_limit(self):
        ray = sb.RadialRay(ml.exponential(), 1.0)
        assert sb.limit_body_minus1(ray) == pytest.approx(1.0)

    def test_interval_limit(self):
        ray = sb.body_ray(unit_interval(), 1, [1.0])
        assert sb.limit_body_minus1(ray) == pytest.approx(1.0, rel=1e-12)

    def test_square_axis_limit(self):
        ray = sb.body_ray(cc.cube(2, 1.0), 1, [1.0, 0.0])
        assert sb.limit_body_minus1(ray) == pytest.approx(2.0, rel=1e-12)

    def test_flat_section_flags_unbounded(self):
        ray = sb.RadialRay(ml.indicator(3.0), 0.0)
        assert sb.limit_body_minus1(ray) == math.inf


class TestStarVolume:
    def test_unit_sphere_d2(self):
        assert sb.star_volume(np.ones(32), 2).value == pytest.approx(math.pi, rel=1e-12)

    def test_unit_sphere_d3(self):
        assert sb.star_volume(np.ones(64), 3).value == pytest.approx(4.0 * math.pi / 3.0,
                                                                    rel=1e-12)

    def test_unbounded_entry_rejected(self):
        with pytest.raises(cc.UnboundedBodyError):
            sb.star_volume(np.array([1.0, math.inf]), 1)

    def test_one_direction_has_no_error_bar(self):
        with pytest.raises(ValueError, match="two directions"):
            sb.star_volume(np.ones(1), 2)

    def test_sigma_propagates(self):
        # the standard error of the sphere average of rho^d / d over the directions
        radii = np.array([1.0, 2.0, 1.0, 2.0])
        est = sb.star_volume(radii, 2)
        assert est.value == pytest.approx(math.pi * 2.5, rel=1e-14)
        assert est.std_error == pytest.approx(math.pi * np.std(radii ** 2, ddof=1) / 2.0,
                                              rel=1e-14)


class TestChains:
    def test_weak_chain_monotone_in_p(self):
        # Jensen: rho_{K_p} nondecreasing in p, checked per direction
        K = cc.cube(2, 1.0)
        dirs = [sb.as_unit(v, 2) for v in
                make_rng(21, 1).normal(size=(6, 2))]
        ps = [-0.5, 0.0, 0.5, 1.0, 2.0, 4.0]
        for th in dirs:
            ray = sb.body_ray(K, 1, th)
            vals = [sb.radial_from_ray(ray, p).value for p in ps]
            assert all(vals[i] <= vals[i + 1] + 1e-9 for i in range(len(vals) - 1))

    def test_strong_chain_exponential_simplex_equality(self):
        # For the exponential of a simplex gauge the Gamma-normalized radial
        # is constant in p and meets the gauge endpoint exactly.
        f = expfun(cc.simplex(1))
        for sgn in (1.0, -1.0):
            ray = sb.body_ray(f.body, 1, [sgn])
            endpoint = f.mass() / proj.ppb_gauge_fn(f, 1, [sgn])
            for p in [-0.5, 0.0, 1.0, 2.0, 5.0]:
                rho = f.radial_factor(p) * sb.radial_from_ray(ray, p).value
                scaled = rho * _gamma_norm(p)
                assert scaled == pytest.approx(endpoint, rel=2e-6)

    def test_strong_chain_gaussian_strictly_decreasing(self):
        f = LogConcaveFunction(profile_from_kind("gaussian", ambient_dim=1),
                               cc.cube(1, 1.0), np.zeros(1))
        ray = sb.body_ray(f.body, 1, [1.0])
        endpoint = f.mass() / proj.ppb_gauge_fn(f, 1, [1.0])
        scaled = [f.radial_factor(p) * sb.radial_from_ray(ray, p).value
                  * _gamma_norm(p) for p in [-0.5, 0.0, 1.0, 2.0, 5.0]]
        for a, b in zip(scaled, scaled[1:]):
            assert b < a * (1.0 - 1e-6)
        assert scaled[0] < endpoint


def _gamma_norm(p):
    if abs(p) <= 1e-6:
        return math.exp(EULER_GAMMA)
    return gamma_fn(p + 1.0) ** (-1.0 / p)


class TestScalingLaws:
    @pytest.mark.parametrize("profile,p", [("exponential", 1.0),
                                           ("exponential", 2.0),
                                           ("gaussian", 1.0),
                                           ("gaussian", 2.0)])
    def test_function_to_body_ratio(self, profile, p):
        K = cc.cube(1, 1.0)
        prof = profile_from_kind(profile, ambient_dim=1)
        f = LogConcaveFunction(prof, K, np.zeros(1))
        ray_f = sb.layer_cake_ray(f, 1, [1.0])
        ray_k = sb.body_ray(K, 1, [1.0])
        got = sb.radial_from_ray(ray_f, p).value / sb.radial_from_ray(ray_k, p).value
        n = 1
        want = ((n + p) / n * prof.moment(n + p - 1.0) / prof.moment(n - 1.0)) \
            ** (1.0 / p)
        assert got == pytest.approx(want, rel=1e-2)

    def test_gaussian_specialization(self):
        # sqrt(2) * (Gamma(1+(n+p)/2)/Gamma(1+n/2))^{1/p} at n=1
        K = cc.cube(1, 1.0)
        f = LogConcaveFunction(profile_from_kind("gaussian", ambient_dim=1),
                               K, np.zeros(1))
        for p in [1.0, 2.0]:
            got = sb.radial_from_ray(sb.layer_cake_ray(f, 1, [1.0]), p).value \
                / sb.radial_from_ray(sb.body_ray(K, 1, [1.0]), p).value
            want = math.sqrt(2.0) * (gamma_fn(1.0 + (1.0 + p) / 2.0)
                                     / gamma_fn(1.5)) ** (1.0 / p)
            assert got == pytest.approx(want, rel=1e-2)

    @pytest.mark.parametrize("p", [1.0, 2.0, -0.5])
    def test_pfamily_matches_family_law(self, p):
        K = unit_interval()
        prof = profile_from_kind("pfamily", p, ambient_dim=1)
        f = LogConcaveFunction(prof, K, np.zeros(1))
        rho_f = sb.radial_from_ray(sb.layer_cake_ray(f, 1, [1.0]), p).value
        rho_k = sb.radial_from_ray(sb.body_ray(K, 1, [1.0]), p).value
        want = rho_k if p < 0 else (1.0 + p) ** (1.0 / p) * rho_k
        assert rho_f == pytest.approx(want, rel=1e-2)


_PENTAGON = cc.from_vertices(make_rng(1, 1).normal(size=(5, 2)))   # 5 vertices


class TestLayerCakeReference:
    """The profile-moment factor against the layer cake in its original order."""

    @pytest.mark.parametrize("body,theta", [
        (cc.cube(1, 1.0), [1.0]), (cc.cube(2, 1.0), [0.6, 0.8]),
        (_PENTAGON, [0.6, 0.8])], ids=["interval", "square", "pentagon"])
    @pytest.mark.parametrize("kind,par", [
        ("exponential", None), ("gaussian", None), ("power", 2.0),
        ("pfamily", 1.0)])
    def test_factor_matches_reference(self, body, theta, kind, par):
        f = LogConcaveFunction(profile_from_kind(kind, par, ambient_dim=body.dim),
                               body, np.zeros(body.dim))
        ref = sb.layer_cake_ray(f, 1, theta)
        body_ray = sb.body_ray(body, 1, theta)
        for p in [-0.5, 0.0, 1.0, 5.0]:
            got = f.radial_factor(p) * sb.radial_from_ray(body_ray, p).value
            assert got == pytest.approx(sb.radial_from_ray(ref, p).value, rel=1e-5)
        endpoint = f.radial_factor(-1.0) * sb.limit_body_minus1(body_ray)
        assert endpoint == pytest.approx(sb.limit_body_minus1(ref), rel=1e-5)

    @pytest.mark.parametrize("body,theta", [
        (cc.cube(2, 1.0), [0.6, 0.8]), (cc.ball(2, 1.0), [0.6, 0.8])], ids=["square", "disc"])
    def test_slope_rides_with_the_grid(self, body, theta):
        # the two difference points share the grid's section call; rows are
        # independent, so the slope is that of two one-point calls
        f = LogConcaveFunction(profile_from_kind("exponential", ambient_dim=2),
                               body, np.zeros(2))
        th = sb.as_unit(theta, 2)
        h = 1e-5 * cov.dm_support_radius(body, th)

        def psi(r):
            g = cov.covariogram_fn_many(f, np.array([r])[:, None, None] * th.blocks[None])
            return float(np.clip(g.value / f.mass(), 0.0, 1.0)[0])

        d1 = (1.0 - psi(h)) / h
        d2 = (1.0 - psi(h / 10.0)) / (h / 10.0)
        assert sb.layer_cake_ray(f, 1, theta).slope0 == (10.0 * d2 - d1) / 9.0

    @pytest.mark.parametrize("p", [-0.5, 0.0, 1.0, 5.0])
    def test_table_is_body_table_times_factor(self, p):
        f = LogConcaveFunction(profile_from_kind("gaussian", ambient_dim=2),
                               cc.cube(2, 1.0), np.zeros(2))
        dirs = [[0.6, 0.8], [1.0, 0.0]]
        radii = sb.radial_mean_body_fn(f, 1, p, directions=dirs)
        ref = [sb.radial_from_ray(sb.layer_cake_ray(f, 1, th), p).value
               for th in dirs]
        np.testing.assert_allclose(radii, ref, rtol=1e-5)

    def test_heavy_tailed_pfamily(self):
        # p = -0.5: phi(t) = exp(-2(sqrt(t) - 1)) and a unit slope law
        f = LogConcaveFunction(profile_from_kind("pfamily", -0.5, ambient_dim=1),
                               cc.simplex(1), np.zeros(1))
        ref = sb.radial_from_ray(sb.layer_cake_ray(f, 1, [1.0]), -0.5).value
        rk = sb.radial_from_ray(sb.body_ray(cc.simplex(1), 1, [1.0]), -0.5).value
        assert f.radial_factor(-0.5) == pytest.approx(1.0, rel=1e-12)
        assert ref == pytest.approx(rk, rel=1e-5)

    @pytest.mark.parametrize("body,m,theta", [
        (cc.cube(1, 1.0), 1, [1.0]), (cc.cube(1, 1.0), 2, [0.6, 0.8]),
        (cc.cube(2, 1.0), 1, [0.6, 0.8]), (cc.cube(2, 1.0), 2, [0.36, 0.48, 0.48, 0.64]),
        (cc.cube(3, 1.0), 1, [0.48, 0.6, 0.64])],
        ids=["interval-m1", "interval-m2", "square-m1", "square-m2", "cube-m1"])
    @pytest.mark.parametrize("kind,par", [
        ("exponential", None), ("gaussian", None), ("pfamily", -0.5), ("pfamily", 2.0),
        ("power", 2.0)])
    def test_box_level_rule_converged(self, body, m, theta, kind, par):
        # the closed level integral against one adaptive integral per radius
        f = LogConcaveFunction(profile_from_kind(kind, par, ambient_dim=body.dim),
                               body, np.zeros(body.dim))
        ray = sb.layer_cake_ray(f, m, theta)
        knots = ray.profile.spline.x * ray.profile.support_radius
        rows = [1, 5, 30, 100, 300, 600, 900, 1020]
        ref = [layer_cake_section(f, m, theta, float(knots[i])) for i in rows]
        np.testing.assert_allclose(ray.profile.value(knots[rows]), ref, rtol=0.0,
                                   atol=1e-12)

    @pytest.mark.parametrize("body,m,theta", [
        (cc.cube(1, 1.0), 1, [1.0]), (cc.cube(1, 1.0), 2, [0.6, 0.8]),
        (cc.cube(2, 1.0), 1, [0.6, 0.8])], ids=["interval-m1", "interval-m2", "square-m1"])
    def test_box_section_at_other_gamma_orders(self, body, m, theta):
        # p = 3: the tail moments need Q(4/3, v) and Q(5/3, v)
        f = LogConcaveFunction(profile_from_kind("pfamily", 3.0, ambient_dim=body.dim),
                               body, np.zeros(body.dim))
        ray = sb.layer_cake_ray(f, m, theta)
        knots = ray.profile.spline.x * ray.profile.support_radius
        rows = [1, 5, 30, 100, 300, 600, 900, 1020]
        ref = [layer_cake_section(f, m, theta, float(knots[i])) for i in rows]
        np.testing.assert_allclose(ray.profile.value(knots[rows]), ref, rtol=0.0,
                                   atol=1e-12)

    def test_indicator_section_is_body_section(self):
        f = LogConcaveFunction(profile_from_kind("indicator", ambient_dim=2),
                               cc.cube(2, 1.0), np.zeros(2))
        ref = sb.layer_cake_ray(f, 1, [0.6, 0.8])
        body = sb.body_ray(f.body, 1, [0.6, 0.8])
        r = np.linspace(0.0, 1.5, 7)
        np.testing.assert_allclose(ref.profile.value(r), body.profile.value(r), rtol=1e-6, atol=1e-12)
        assert f.radial_factor(2.0) == 1.0
