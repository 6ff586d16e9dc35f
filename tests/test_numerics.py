import itertools
import math

import mpmath
import numpy as np
import pytest
from scipy import optimize, special

from mthorder import convexcore as cc
from mthorder.numerics import (
    _SCALES,
    EstimateWithError,
    InvalidDimensionError,
    QuadratureConfig,
    QuadratureFailure,
    beta,
    digamma,
    erfcx,
    gamma_ratio,
    gamma_q,
    integrate_1d,
    make_rng,
    max_slack,
    maximize_logconcave,
    sphere_sample,
)


def test_estimate_rejects_bad_sigma():
    with pytest.raises(ValueError):
        EstimateWithError(1.0, -0.1)
    with pytest.raises(ValueError):
        EstimateWithError(1.0, math.nan)


class TestSphereSample:
    def test_s0_is_plus_minus_one(self):
        pts = sphere_sample(1, 2, seed=123)
        assert sorted(pts.ravel().tolist()) == [-1.0, 1.0]

    def test_norms_are_one(self):
        pts = sphere_sample(3, 1000, seed=7)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-14)

    def test_antithetic_means_vanish(self):
        pts = sphere_sample(2, 4096, seed=1)
        # antithetic construction cancels linear terms exactly
        assert np.all(np.abs(pts.mean(axis=0)) < 1e-15)

    def test_deterministic(self):
        a = sphere_sample(3, 50, seed=11, stream=4)
        b = sphere_sample(3, 50, seed=11, stream=4)
        assert np.array_equal(a, b)
        c = sphere_sample(3, 50, seed=11, stream=5)
        assert not np.array_equal(a, c)

    def test_zero_dim_rejected(self):
        with pytest.raises(InvalidDimensionError):
            sphere_sample(0, 4, seed=1)


class TestIntegrate1d:
    def test_linear(self):
        est = integrate_1d(lambda r: r, 0.0, 1.0)
        assert abs(est.value - 0.5) < 1e-12

    def test_exponential_tail(self):
        est = integrate_1d(lambda t: np.exp(-t), 0.0, math.inf, tail_bound=(1.0, 1.0))
        assert abs(est.value - 1.0) < 1e-9

    def test_gamma_half_with_singularity(self):
        est = integrate_1d(lambda t: np.exp(-t), 0.0, math.inf,
                           tail_bound=(1.0, 1.0), weight_exponent=-0.5)
        # independent oracle: u = sqrt(t) gives 2*int exp(-u^2) du on a fixed fine grid
        u = np.linspace(0.0, 14.0, 2_000_001)
        oracle = 2.0 * np.trapezoid(np.exp(-u * u), u)
        assert abs(oracle - math.sqrt(math.pi)) < 1e-10
        assert abs(est.value - oracle) < 1e-8

    def test_weight_about_left_endpoint(self):
        # int_1^2 (t - 1)^k dt = 1/(k + 1), for a weight on either side of 0
        for k in (2.5, -0.999):
            est = integrate_1d(np.ones_like, 1.0, 2.0, weight_exponent=k)
            assert est.value == pytest.approx(1.0 / (k + 1.0), rel=1e-9)
        with pytest.raises(ValueError):
            integrate_1d(np.ones_like, 0.0, 1.0, weight_exponent=-1.0)

    @pytest.mark.parametrize("deg", [0, 3, 7, 10])
    def test_polynomials_exact(self, deg):
        coeffs = np.arange(1.0, deg + 2.0)
        exact = sum(c / (k + 1) * (2.0 ** (k + 1) - 1.0)
                    for k, c in enumerate(coeffs))
        est = integrate_1d(lambda r: np.polynomial.polynomial.polyval(r, coeffs), 1.0, 2.0)
        assert abs(est.value - exact) <= 1e-12 * abs(exact)

    def test_infinite_limit_requires_bound(self):
        with pytest.raises(ValueError):
            integrate_1d(lambda t: np.exp(-t), 0.0, math.inf)

    def test_singular_upper_end(self):
        # the cascade toward t = 1 resolves (1 - t)^(-1/2) down to panels of
        # width ~1e-12; the mass of the last float below 1 alone is 2e-8, so
        # the tolerance is looser than that
        cfg = QuadratureConfig(rel_tol=1e-7)
        est = integrate_1d(lambda t: (1.0 - t) ** -0.5, 0.0, 1.0, cfg)
        assert abs(est.value - 2.0) <= max(est.std_error, 1e-12)
        assert est.std_error <= 2e-7

    def test_log_singularity_at_lower_end(self):
        est = integrate_1d(np.log, 0.0, 1.0)
        assert est.value == pytest.approx(-1.0, rel=1e-8)

    def test_one_call_per_round(self):
        calls = []

        def spy(f):
            def phi(t):
                assert t.ndim == 1
                calls.append(t.size)
                return f(t)
            return phi

        coeffs = np.arange(1.0, 12.0)      # degree 10: one GK21 panel is exact
        est = integrate_1d(spy(lambda r: np.polynomial.polynomial.polyval(r, coeffs)), 1.0, 2.0)
        assert calls == [21] and est.samples_or_nodes == 21
        calls.clear()
        est = integrate_1d(spy(lambda t: np.exp(-t)), 0.0, math.inf, tail_bound=(1.0, 1.0))
        assert len(calls) >= 2 and sum(calls) == est.samples_or_nodes
        assert all(c % 21 == 0 for c in calls)
        # a batch: still one call per round, over every unconverged integral
        calls.clear()
        owners = []

        def batch_phi(t, owner):
            assert t.ndim == 1 and owner.shape == t.shape
            calls.append(t.size)
            owners.append(np.unique(owner).tolist())
            return np.exp(-t) * (1.0 + 0.1 * owner)

        ends = np.array([1.0, math.inf, 3.0, math.inf])
        est = integrate_1d(batch_phi, 0.0, ends, tail_bound=(1.2, 1.0),
                           weight_exponent=np.array([0.0, -0.5, 2.0, 0.5]))
        solo_rounds = []
        for j in range(4):
            n = len(calls)
            integrate_1d(lambda t: batch_phi(t, np.full(t.size, j)), 0.0, float(ends[j]),
                         tail_bound=(1.2, 1.0), weight_exponent=[0.0, -0.5, 2.0, 0.5][j])
            solo_rounds.append(len(calls) - n)
        batch_rounds = len(calls) - sum(solo_rounds)
        assert batch_rounds == max(solo_rounds) < sum(solo_rounds)
        assert sum(calls[:batch_rounds]) == est.samples_or_nodes == int(est.nodes.sum())
        assert owners[0] == [0, 1, 2, 3]
        # an integral leaves the pass once it converges
        assert all(len(o) <= len(prev) for prev, o in zip(owners, owners[1:batch_rounds]))

    def test_failure_carries_best_estimate(self):
        cfg = QuadratureConfig(max_subdivisions=5)
        with pytest.raises(QuadratureFailure) as info:
            integrate_1d(lambda t: (1.0 - t) ** -0.5, 0.0, 1.0, cfg)
        best = info.value.best
        assert best.samples_or_nodes % 21 == 0 and best.samples_or_nodes > 0
        assert 0.0 < abs(best.value - 2.0) <= best.std_error

    def test_scalar_integrand_rejected(self):
        with pytest.raises(ValueError, match="array"):
            integrate_1d(lambda t: 1.0, 0.0, 1.0)

    def test_batch_equals_solo_calls(self):
        # k = 0, (-1, 0), (0, 1) and >= 1, finite and infinite upper limits:
        # every integral of the batch is its solo call, to the bit
        def f(t):
            return np.exp(-t) * (2.0 + np.cos(3.0 * t))

        a = np.array([0.0, 0.0, 1.0, 0.5, 0.0, 0.2, 0.0, 0.0, 0.0, 0.3, 2.0])
        b = np.array([1.0, 2.0, 3.0, 4.0, 9.0, 1.5, math.inf, math.inf, math.inf, 2.0, 2.5])
        k = np.array([0.0, -0.5, -0.9, 0.3, 0.7, 1.0, 2.5, 4.0, 0.0, -0.5, 7.0])
        amp = np.linspace(3.0, 5.0, a.size)
        cfg = QuadratureConfig(rel_tol=1e-11, abs_tol=1e-13)
        batch = integrate_1d(lambda t, owner: f(t), a, b, cfg, tail_bound=(amp, 1.0),
                             weight_exponent=k)
        assert batch.value.shape == batch.std_error.shape == batch.nodes.shape == a.shape
        for j in range(a.size):
            solo = integrate_1d(f, float(a[j]), float(b[j]), cfg,
                                tail_bound=(float(amp[j]), 1.0), weight_exponent=float(k[j]))
            assert (batch.value[j], batch.std_error[j], batch.nodes[j]) == (
                solo.value, solo.std_error, solo.samples_or_nodes)
        assert batch.samples_or_nodes == int(batch.nodes.sum())
        assert integrate_1d(lambda t, owner: t, 0.0, np.zeros(0)).value.shape == (0,)

    def test_batch_failure_carries_the_failing_integrals_best(self):
        cfg = QuadratureConfig(max_subdivisions=5)

        def f(t, owner):
            out = np.cos(t)
            one = owner == 1
            out[one] = (1.0 - t[one]) ** -0.5
            return out

        with pytest.raises(QuadratureFailure) as solo:
            integrate_1d(lambda t: (1.0 - t) ** -0.5, 0.0, 1.0, cfg)
        with pytest.raises(QuadratureFailure) as batch:
            integrate_1d(f, 0.0, np.array([1.0, 1.0, 2.0]), cfg)
        assert batch.value.best == solo.value.best
        assert 0.0 < abs(batch.value.best.value - 2.0) <= batch.value.best.std_error
        # a weighted integral's best estimate is in the caller's units
        with pytest.raises(QuadratureFailure) as weighted:
            integrate_1d(lambda t: (4.0 - t) ** -0.5, 0.0, 4.0, cfg, weight_exponent=1.0)
        # int_0^4 t (4 - t)^(-1/2) dt = 32/3
        assert abs(weighted.value.best.value - 32.0 / 3.0) <= weighted.value.best.std_error


class TestMaximizeLogconcave:
    def test_gaussian_bump(self):
        x, val = maximize_logconcave(lambda Z: np.exp(-(Z * Z).sum(axis=1)),
                                     np.array([3.0, 3.0]))
        assert np.linalg.norm(x) < 1e-4
        assert abs(val - 1.0) < 1e-8

    def test_indicator_plateau(self):
        x, val = maximize_logconcave(
            lambda Z: ((0.0 <= Z[:, 0]) & (Z[:, 0] <= 1.0)).astype(float), [0.5])
        assert val == 1.0

    def test_product_of_shifted_exponentials(self):
        # brute-force oracle on a 10^6 grid
        grid = np.linspace(-3.0, 4.0, 1_000_001)
        oracle = np.max(np.exp(-np.abs(grid)) * np.exp(-np.abs(grid - 1.0)))
        f = lambda Z: np.exp(-np.abs(Z[:, 0])) * np.exp(-np.abs(Z[:, 0] - 1.0))
        x, val = maximize_logconcave(f, [-2.0])
        assert abs(val - oracle) < 1e-9
        assert abs(val - math.exp(-1.0)) < 1e-9

    def test_concave_quadratic_reaches_analytic_max(self):
        f = lambda Z: np.exp(-(2.0 * (Z[:, 0] - 0.3) ** 2 + 0.5 * (Z[:, 1] + 1.2) ** 2))
        x, val = maximize_logconcave(f, [5.0, 5.0], tol=1e-10)
        assert abs(val - 1.0) < 1e-8

    def test_zero_region_error(self):
        # the search starts where the objective is positive or not at all
        with pytest.raises(ValueError, match="positive"):
            maximize_logconcave(lambda Z: np.zeros(len(Z)), [0.0])

    def test_start_off_the_support_rejected(self):
        f = lambda Z: ((4.0 <= Z[:, 0]) & (Z[:, 0] <= 6.0)).astype(float)
        with pytest.raises(ValueError, match="positive"):
            maximize_logconcave(f, [0.0])
        with pytest.raises(ValueError, match="positive"):
            maximize_logconcave(lambda Z: np.full(len(Z), math.nan), [5.0])
        x, val = maximize_logconcave(f, [5.0])
        assert val == 1.0 and 4.0 <= x[0] <= 6.0

    def test_deterministic(self):
        f = lambda Z: np.exp(-(Z * Z).sum(axis=1) - 0.2 * Z[:, 0])
        a = maximize_logconcave(f, np.array([1.0, -2.0]))
        b = maximize_logconcave(f, np.array([1.0, -2.0]))
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_one_call_per_sweep(self, d):
        # the 2^d diagonals join +-e_i from d = 2 on; at d = 1 they are +-e_1
        diagonals = [np.array(s) / math.sqrt(d)
                     for s in itertools.product((-1.0, 1.0), repeat=d)] if d > 1 else []
        dirs = np.vstack([np.eye(d), -np.eye(d)] + diagonals)
        # every direction at h, h/2, ..., h/2^(K-1), the largest step first
        rows = np.vstack([0.5 ** j * dirs for j in range(_SCALES)])
        calls = []

        def spy(Z):
            out = np.exp(-((Z - 2.0) ** 2).sum(axis=1))
            calls.append(np.array(Z, copy=True))
            return out

        stencil = len(rows)
        assert stencil == _SCALES * (2 if d == 1 else 2 * d + 2 ** d)
        maximize_logconcave(spy, np.zeros(d), max_evals=1 + 5 * stencil)
        assert all(Z.ndim == 2 and Z.shape[1] == d for Z in calls)
        assert calls[0].shape == (1, d)
        for Z in calls[1:]:             # every other call is one whole stencil
            c = Z.mean(axis=0)
            h = np.linalg.norm(Z[0] - c)
            np.testing.assert_allclose(Z, c + h * rows, atol=1e-12 * (1.0 + h))
        # the start is one point; each sweep adds its stencil
        assert len(calls) - 1 == 5

    def test_next_sweep_starts_from_the_winning_step(self):
        # from 0 at h = 1/2 the peak 1/16 is the +e_1 point of the fourth
        # step; the next sweep steps 1/16 from there, gains nothing, and
        # the one after steps 1/16 / 2^K
        calls = []

        def spy(Z):
            calls.append(np.array(Z, copy=True))
            return np.exp(-8.0 * (Z[:, 0] - 0.0625) ** 2)

        x, val = maximize_logconcave(spy, [0.0])
        assert x[0] == 0.0625 and val == 1.0
        centres = [Z.mean(axis=0)[0] for Z in calls[1:4]]
        steps = [Z[0, 0] - c for Z, c in zip(calls[1:4], centres)]
        assert centres == [0.0, 0.0625, 0.0625]
        assert steps == [0.5, 0.0625, 0.0625 * 0.5 ** _SCALES]

    def test_ties_go_to_the_largest_step_then_the_first_direction(self):
        # the second call gains equally everywhere: the move is to x0 + h e_1
        calls = []

        def spy(Z):
            calls.append(np.array(Z, copy=True))
            return np.full(len(Z), 1.0 if len(calls) == 1 else 2.0)

        x, val = maximize_logconcave(spy, [0.0, 0.0])
        assert val == 2.0 and x.tolist() == [0.5, 0.0]
        assert calls[2].mean(axis=0).tolist() == [0.5, 0.0]
        assert calls[2][0].tolist() == [1.0, 0.0]       # the same step, 1/2


def _linprog_max_slack(A, b, s):
    """Reference max t over {(x, t) : A x + t s <= b}; inf when unbounded."""
    n = A.shape[1]
    c = np.zeros(n + 1)
    c[-1] = -1.0
    ref = optimize.linprog(c, A_ub=np.column_stack([A, s]), b_ub=b,
                           bounds=[(None, None)] * (n + 1), method="highs")
    assert ref.status in (0, 3)
    return math.inf if ref.status == 3 else -ref.fun


class TestSimplexLP:
    """`max_slack`, the one-phase simplex, against hand values and linprog."""

    def test_simple_box(self):
        # [0, 1] x [0, 2]: Chebyshev radius 1/2
        A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        t, x = max_slack(A, np.array([1.0, 0.0, 2.0, 0.0]), np.ones(4), np.zeros(2))
        assert abs(t - 0.5) < 1e-12
        assert abs(x[0] - 0.5) < 1e-12 and 0.5 - 1e-12 <= x[1] <= 1.5 + 1e-12

    def test_infeasible(self):
        # x <= 1 and x >= 2 share no point: the largest slack is negative
        t, x = max_slack(np.array([[1.0], [-1.0]]), np.array([1.0, -2.0]),
                         np.ones(2), np.zeros(1))
        assert t == pytest.approx(-0.5, abs=1e-12) and x[0] == pytest.approx(1.5)

    def test_unbounded(self):
        t, x = max_slack(np.array([[-1.0]]), np.array([0.0]), np.ones(1), np.zeros(1))
        assert t == math.inf and x is None

    def test_no_positive_slack_rate_is_unbounded(self):
        t, x = max_slack(np.array([[1.0]]), np.array([1.0]), np.zeros(1), np.zeros(1))
        assert t == math.inf and x is None

    @pytest.mark.parametrize("trial", range(20))
    def test_against_scipy_linprog(self, trial):
        # random systems with zero slack rates; x0 meets every row
        gen = make_rng(900 + trial, 0)
        m, n = int(gen.integers(3, 10)), int(gen.integers(1, 4))
        A = gen.normal(size=(m, n))
        x0 = gen.normal(size=n)
        b = A @ x0 + np.abs(gen.normal(size=m))
        s = np.abs(gen.normal(size=m)) * (gen.random(m) < 0.7)
        s[0] = max(s[0], 0.1)
        t, x = max_slack(A, b, s, x0)
        want = _linprog_max_slack(A, b, s)
        if want == math.inf:
            assert t == math.inf and x is None
        else:
            assert abs(t - want) < 1e-9 * max(1.0, abs(want))
            assert np.all(A @ x + t * s <= b + 1e-9)

    @pytest.mark.parametrize("trial", range(5))
    def test_open_polyhedron_is_unbounded(self, trial):
        # every row points away from d, so x = x0 + r d gains slack without end
        gen = make_rng(950 + trial, 0)
        n = int(gen.integers(1, 4))
        d = gen.normal(size=n)
        A = gen.normal(size=(int(gen.integers(2, 7)), n))
        A[A @ d > 0] *= -1.0
        b = gen.normal(size=len(A))
        assert _linprog_max_slack(A, b, np.ones(len(A))) == math.inf
        t, x = max_slack(A, b, np.ones(len(A)), np.zeros(n))
        assert t == math.inf and x is None

    @pytest.mark.parametrize("start", [(0.0, 0.0), (0.3, -0.2), (0.9, 0.0)])
    def test_degenerate_ties(self, start):
        # a doubled square and a doubled diamond: at the centre every row ties
        # in the ratio test, off it the doubled rows tie pairwise
        square = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        diamond = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        A = np.vstack([square, square, diamond, diamond])
        b = np.concatenate([np.ones(8), np.full(8, 1.2)])
        t, x = max_slack(A, b, np.ones(16), np.array(start))
        assert abs(t - _linprog_max_slack(A, b, np.ones(16))) < 1e-12
        assert np.all(A @ x + t <= b + 1e-12)

    def test_feasibility_margin(self):
        # the margin sits in from_halfspaces: a 1 x w rectangle builds only
        # when its Chebyshev radius w/2 reaches 1e-10
        normals = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        with pytest.raises(cc.DegenerateBodyError):
            cc.from_halfspaces(normals, [1.0, 0.0, 5e-11, 0.0])
        K = cc.from_halfspaces(normals, [1.0, 0.0, 1e-9, 0.0])
        assert len(K.vertices) == 4
        assert cc.volume(K).value == pytest.approx(1e-9, rel=1e-6)


def test_rng_streams_are_disjoint():
    a = make_rng(5, 1).random(8)
    b = make_rng(5, 2).random(8)
    assert not np.allclose(a, b)
    assert np.array_equal(a, make_rng(5, 1).random(8))


class TestSpecialFunctions:
    """The `math`-based special functions against mpmath and scipy.special."""

    def test_digamma_against_mpmath(self):
        xs = np.concatenate([np.logspace(-8, 3, 300),
                             [0.5, 1.0, 1.5, 1.4616321449683622, 9.999999, 10.0]])
        for x in xs:
            with mpmath.workdps(30):
                want = float(mpmath.digamma(mpmath.mpf(float(x))))
            assert abs(digamma(float(x)) - want) <= 1e-14 * max(1.0, abs(want)), x

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5, math.nan])
    def test_digamma_outside_its_domain(self, x):
        with pytest.raises(ValueError):
            digamma(x)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_integer_gamma_q(self, n):
        for x in [0.0, 1e-12, 0.3, 1.0, 4.5, 30.0, 300.0]:
            want = float(special.gammaincc(n, x))
            assert gamma_q(n, x) == pytest.approx(want, rel=1e-13, abs=1e-300)

    def test_half_integer_gamma_q(self):
        xs = [0.0, 1e-12, 0.3, 1.0, 4.5, 30.0, 300.0]
        # Q(1/2, x) = erfc(sqrt x); past x = 30 the rounding of sqrt x alone
        # moves erfc by about 2 x eps
        for x in xs[:-1]:
            assert gamma_q(0.5, x) == pytest.approx(math.erfc(math.sqrt(x)), rel=1e-14)
        cfg = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-300)
        for a in (1.5, 2.5, 3.5, 6.5):
            got = gamma_q(a, np.array(xs))
            for x, value in zip(xs, got):
                # Gamma(a, x) = int_x^inf t^(a-1) e^-t dt, shifted to start at 0
                direct = integrate_1d(lambda u: (x + u) ** (a - 1.0) * np.exp(-x - u),
                                      0.0, math.inf, cfg, tail_bound=(1e4, 0.5)).value
                assert value == pytest.approx(direct / math.gamma(a), rel=1e-12, abs=1e-300)
                assert gamma_q(a, x) == value

    def test_gamma_q_arrays_keep_the_integer_sum(self):
        xs = np.array([0.0, 1e-12, 0.3, 1.0, 4.5, 30.0, 300.0])
        for n in (1, 2, 3, 6):
            want = []
            for x in xs.tolist():   # the finite sum, term by term
                term = total = 1.0
                for k in range(1, n):
                    term *= x / k
                    total += term
                want.append(math.exp(-x) * total)
            assert [gamma_q(n, x) for x in xs.tolist()] == want
            np.testing.assert_allclose(gamma_q(n, xs), want, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("a", [0.25, 1.3, 2.75, 1.0 / 3.0, 4.0 / 3.0, 7.1, 40.3])
    def test_gamma_q_at_other_orders(self, a):
        # the series below x = a + 1 and the continued fraction above, against
        # scipy; both sides of the switch and the far tail
        xs = np.concatenate([[0.0], np.geomspace(1e-10, 400.0, 120),
                             np.linspace(a + 0.5, a + 1.5, 21)])
        want = special.gammaincc(a, xs)
        got = gamma_q(a, xs)
        live = want > 1e-290
        np.testing.assert_allclose(got[live], want[live], rtol=1e-13, atol=0.0)
        assert gamma_q(a, 0.0) == 1.0
        assert [gamma_q(a, x) for x in xs[::10].tolist()] == got[::10].tolist()

    @pytest.mark.parametrize("a", [0.0, -0.5])
    def test_gamma_q_rejects_other_orders(self, a):
        with pytest.raises(ValueError):
            gamma_q(a, 1.0)

    def test_gamma_ratio_and_beta(self):
        assert gamma_ratio((4.0,)) == 6.0          # exact factorials
        assert gamma_ratio((2.5, 1.0), (2.5,)) == 1.0
        assert beta(1.0, 2.0) == 0.5
        for g, lf in [(0.5, 1.3), (7.25, -20.0), (170.5, 0.0), (200.0, -500.0), (1.5, 709.5)]:
            want = math.exp(float(special.gammaln(g)) + lf)
            assert gamma_ratio((g,), (), lf) == pytest.approx(want, rel=1e-12)
        for a, b in [(0.5, 0.5), (1e-3, 2.0), (2.5, 1.5), (100.0, 80.5), (300.0, 0.5)]:
            assert beta(a, b) == pytest.approx(float(special.beta(a, b)), rel=1e-12)

    def test_erfcx_against_mpmath(self):
        # both sides of the continued fraction's cutoff at 3, the range where
        # erfc itself underflows (x > 26.5), and the negative reflection
        xs = np.concatenate([np.linspace(-5.0, 5.0, 1001), np.linspace(2.99, 3.01, 21),
                             np.geomspace(5.0, 1e4, 300), [0.0, 1e-300, 26.5, 27.0]])
        got = erfcx(xs)
        with mpmath.workdps(40):
            want = np.array([float(mpmath.erfc(x) * mpmath.exp(x * x))
                             for x in map(mpmath.mpf, xs.tolist())])
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        assert erfcx(1e4) == pytest.approx(1.0 / (1e4 * math.sqrt(math.pi)), rel=1e-8)

    def test_erfcx_scalar_and_limits(self):
        assert isinstance(erfcx(0.5), float) and erfcx(0.0) == 1.0
        assert erfcx(math.inf) == 0.0 and erfcx(-30.0) == math.inf
        assert math.isnan(erfcx(math.nan))
        assert erfcx(np.empty(0)).shape == (0,)

    def test_gamma_overflow_raises(self):
        with pytest.raises(OverflowError):
            gamma_ratio((200.0,))
