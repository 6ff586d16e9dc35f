import math

import numpy as np
import pytest
from scipy import integrate, special

from mthorder import convexcore as cc
from mthorder.lcfun import (
    LogConcaveFunction,
    NonIntegrableError,
    Profile,
    make_function,
    profile_from_kind,
)
from mthorder.numerics import QuadratureConfig, integrate_1d, make_rng


def expfun(K, shift=None, A=1.0):
    shift = np.zeros(K.dim) if shift is None else np.asarray(shift, float)
    return LogConcaveFunction(Profile("exponential"), K, shift, A)


def interval01():
    return cc.from_vertices([[0.0], [1.0]])


class TestProfileMoments:
    """Closed-form moments frozen against fine-grid numeric oracles."""

    @pytest.mark.parametrize("prof,tail", [
        (Profile("exponential"), 60.0),
        (Profile("gaussian"), 30.0),
        (Profile("power", 0.5), 1.0),
        (Profile("power", 2.0), 1.0),
        (Profile("indicator"), 1.0),
        (Profile("pfamily", 1.5, ambient_dim=2), 40.0),
        (Profile("pfamily", -0.5, ambient_dim=1), 4000.0),  # subexponential tail
    ])
    @pytest.mark.parametrize("k,q", [(0.0, 1.0), (1.0, 1.0), (2.5, 1.0), (1.0, 0.5)])
    def test_against_grid(self, prof, tail, k, q):
        # graded grid t = tail*u^3 keeps the sqrt-type slope singularities resolved
        u = np.linspace(0.0, 1.0, 400_001)
        t = tail * u ** 3
        vals = np.asarray(prof.value(t)) ** q * t ** k * (3.0 * tail * u ** 2)
        oracle = float(np.trapezoid(vals, u))
        assert prof.moment(k, q) == pytest.approx(oracle, rel=5e-4)

    def test_known_values(self):
        assert Profile("exponential").moment(0.0) == pytest.approx(1.0, rel=1e-12)
        assert Profile("exponential").moment(2.0) == pytest.approx(2.0, rel=1e-12)  # Gamma(3)
        assert Profile("gaussian").moment(0.0) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)
        assert Profile("indicator").moment(3.0) == pytest.approx(0.25, rel=1e-12)

    def test_p0_family_not_integrable(self):
        with pytest.raises(NonIntegrableError):
            Profile("pfamily", 0.0, ambient_dim=2).moment(1.0)


_LEVEL_PROFILES = [
    Profile("exponential"), Profile("gaussian"), Profile("power", 2.0),
    Profile("power", 0.5), Profile("indicator"),
    Profile("pfamily", 1.0, ambient_dim=1), Profile("pfamily", -0.5, ambient_dim=1),
    Profile("pfamily", 1.5, ambient_dim=2),
]


# k in (-a, 0), where M_k is still finite: -phi'(s) ~ s^(a-1) at 0, with
# a = 1 for the exponential and power kinds, 2 for the Gaussian, |p| for the p-family
_NEGATIVE_K = [
    (Profile("exponential"), -0.5), (Profile("exponential"), -0.9),
    (Profile("gaussian"), -0.5), (Profile("gaussian"), -0.9), (Profile("gaussian"), -1.5),
    (Profile("power", 0.5), -0.5), (Profile("power", 0.5), -0.9),
    (Profile("pfamily", 1.5, ambient_dim=2), -0.5),
    (Profile("pfamily", 1.5, ambient_dim=2), -0.9),
    (Profile("pfamily", -0.5, ambient_dim=1), -0.25),
    (Profile("pfamily", -0.5, ambient_dim=1), -0.4),
]
_QUADRATURE_CASES = (
    [pytest.param(prof, k, id=f"{k}-prof{i}")
     for i, prof in enumerate(_LEVEL_PROFILES) for k in (0.5, 1.0, 2.5, 4.0)]
    + [pytest.param(prof, k, id=f"{k}-{prof.kind}{prof.param:g}") for prof, k in _NEGATIVE_K])


class TestLevelMoments:
    """M_k = int (-phi') s^k ds, its log-slope, and the radial factor."""

    @pytest.mark.parametrize("prof,k", _QUADRATURE_CASES)
    def test_against_quadrature(self, prof, k):
        if prof.kind == "indicator":
            oracle = 1.0                        # -phi' is the unit mass at 1
        else:
            # s = u^4 flattens the integrand's endpoint power s^(k+a-1) at 0
            top = 1.0 if prof.kind == "power" else math.inf
            oracle = integrate.quad(
                lambda u: 4.0 * prof.neg_derivative(u ** 4) * u ** (4.0 * k + 3.0),
                0.0, top, limit=200)[0]
        assert prof.level_moment(k) == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("prof,k", [
        (Profile("pfamily", -0.5, ambient_dim=1), -0.7),
        (Profile("exponential"), -1.0),
        (Profile("power", 0.5), -1.2),
        (Profile("gaussian"), -2.0),
    ])
    def test_below_the_domain_is_not_integrable(self, prof, k):
        with pytest.raises(NonIntegrableError):
            prof.level_moment(k)

    @pytest.mark.parametrize("prof,k", [
        (Profile("pfamily", -0.5, ambient_dim=1), -0.5),
        (Profile("exponential"), -1.0),
        (Profile("power", 0.5), -1.2),
        (Profile("gaussian"), -2.0),
        (Profile("gaussian"), -7.5),
    ])
    def test_log_slope_below_the_domain_is_not_integrable(self, prof, k):
        with pytest.raises(NonIntegrableError):
            prof.level_moment_log_slope(k)

    @staticmethod
    def _scipy_forms(prof, k):
        """M_k and d log M_k / dk from scipy.special, the oracle for `math`."""
        if prof.kind == "power":
            r = 1.0 / prof.param
            lg = special.gammaln
            return (math.exp(lg(k + 1.0) + lg(r + 1.0) - lg(k + r + 1.0)),
                    special.digamma(k + 1.0) - special.digamma(k + r + 1.0))
        if prof.kind == "pfamily":
            a = abs(prof.param)
            c = b = prof.ambient_dim / a
        else:
            a, c, b = {"exponential": (1.0, 1.0, 0.0), "gaussian": (2.0, 0.5, 0.0)}[prof.kind]
        return (math.exp(b + special.gammaln(k / a + 1.0) - (k / a) * math.log(c)),
                (special.digamma(k / a + 1.0) - math.log(c)) / a)

    @pytest.mark.parametrize("prof", [p for p in _LEVEL_PROFILES if p.kind != "indicator"])
    def test_against_scipy_special(self, prof):
        edge = -prof.exponent
        for k in (edge + 1e-9, edge + 1e-3, edge + 0.5, 0.0, 1.0, 2.5, 30.0, 60.0):
            moment, slope = self._scipy_forms(prof, k)
            assert prof.level_moment(k) == pytest.approx(moment, rel=1e-12)
            assert abs(prof.level_moment_log_slope(k) - slope) <= 1e-13 * max(1.0, abs(slope))

    def test_overflowing_moment_raises(self):
        with pytest.raises(OverflowError):
            Profile("exponential").level_moment(200.0)

    @pytest.mark.parametrize("prof", _LEVEL_PROFILES)
    def test_zero_moment_is_peak(self, prof):
        assert prof.level_moment(0.0) == prof.phi0

    @pytest.mark.parametrize("prof", _LEVEL_PROFILES)
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.5, 4.0])
    def test_log_slope_against_difference(self, prof, k):
        h = 1e-5
        fd = (math.log(prof.level_moment(k + h))
              - math.log(prof.level_moment(k - h))) / (2.0 * h)
        assert prof.level_moment_log_slope(k) == pytest.approx(fd, abs=1e-8)

    def test_p0_family_not_integrable(self):
        prof = Profile("pfamily", 0.0, ambient_dim=2)
        for call in (lambda: prof.level_moment(0.0), lambda: prof.level_moment(2.0),
                     lambda: prof.level_moment_log_slope(2.0)):
            with pytest.raises(NonIntegrableError):
                call()

    @pytest.mark.parametrize("prof", _LEVEL_PROFILES)
    def test_depth_scale_inverts_the_level(self, prof):
        # phi(s(v)) = phi(0) e^-v, read from both sides of s(v) so that the
        # indicator's jump at s = 1 passes too
        v = np.array([1e-3, 0.5, 3.0, 20.0])
        s = prof.depth_scale(v)
        level = prof.phi0 * np.exp(-v)
        assert np.all(prof.value(s * (1.0 - 1e-9)) >= level * (1.0 - 1e-7))
        assert np.all(prof.value(s * (1.0 + 1e-6)) <= level * (1.0 + 1e-6))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_indicator_factor_is_exactly_one(self, n):
        f = LogConcaveFunction(profile_from_kind("indicator", ambient_dim=n),
                               cc.cube(n, 1.0), np.zeros(n))
        for p in (-1.0, -0.5, 0.0, 1.0, 5.0, 200.0):
            assert f.radial_factor(p) == 1.0

    def test_radial_factor_is_continuous(self):
        f = expfun(cc.cube(2, 1.0))
        # exponential: M_k = Gamma(k + 1), so the factor is
        # (Gamma(n + p + 1) / Gamma(n + 1))^(1/p)
        for p in (-0.5, 1.0, 5.0):
            want = (math.gamma(3.0 + p) / math.gamma(3.0)) ** (1.0 / p)
            assert f.radial_factor(p) == pytest.approx(want, rel=1e-12)
        assert f.radial_factor(0.0) == pytest.approx(f.radial_factor(1e-4), rel=1e-4)
        assert f.radial_factor(-1.0) == pytest.approx(2.0, rel=1e-12)   # M_2 / M_1
        assert f.radial_factor(-1.0) == pytest.approx(f.radial_factor(-1.0 + 1e-7),
                                                      rel=1e-6)
        with pytest.raises(ValueError):
            f.radial_factor(-1.5)


# integer and half-integer gamma orders, and others (the p-family at 1.5 and 3)
_TAIL_PROFILES = [
    Profile("exponential"), Profile("gaussian"), Profile("power", 2.0),
    Profile("power", 0.5), Profile("indicator"),
    Profile("pfamily", 1.0, ambient_dim=1), Profile("pfamily", -0.5, ambient_dim=1),
    Profile("pfamily", 2.0, ambient_dim=3), Profile("pfamily", 1.5, ambient_dim=2),
    Profile("pfamily", 3.0, ambient_dim=1),
]


class TestTailLevelMoments:
    """T_k(v) = phi(0) int_v^inf e^-w s(w)^k dw."""

    @pytest.mark.parametrize("prof", _TAIL_PROFILES)
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_zero_depth_is_the_level_moment(self, prof, k):
        assert prof.tail_level_moment(k, 0.0) == pytest.approx(prof.level_moment(k),
                                                               rel=1e-14)

    @pytest.mark.parametrize("prof", _TAIL_PROFILES)
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_against_quadrature(self, prof, k):
        # e^-w s(w)^k <= 1e3 e^(-w/2) for every profile here at k <= 3
        cfg = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-300)
        depths = np.array([0.0, 0.3, 2.0, 10.0, 35.0])
        got = prof.tail_level_moment(k, depths)
        for v, value in zip(depths, got):
            oracle = prof.phi0 * integrate_1d(
                lambda w: np.exp(-w) * prof.depth_scale(w) ** k, v, math.inf, cfg,
                tail_bound=(1e3, 0.5)).value
            assert value == pytest.approx(oracle, rel=1e-10)
            assert prof.tail_level_moment(k, v) == value

    def test_inadmissible_orders_raise(self):
        with pytest.raises(ValueError):
            Profile("power", 2.0).tail_level_moment(1.5, 0.5)
        with pytest.raises(NonIntegrableError):
            Profile("pfamily", 0.0, ambient_dim=2).tail_level_moment(1, 0.5)


class TestProfileShape:
    @pytest.mark.parametrize("prof", [
        Profile("exponential"), Profile("gaussian"), Profile("power", 0.5),
        Profile("power", 3.0), Profile("indicator"),
        Profile("pfamily", 0.7, ambient_dim=2), Profile("pfamily", -0.3, ambient_dim=1),
    ])
    def test_nonincreasing_max_at_zero(self, prof):
        t = np.linspace(0.0, 5.0, 1001)
        v = np.asarray(prof.value(t))
        assert np.all(np.diff(v) <= 1e-12)
        assert v[0] == pytest.approx(prof.phi0)

    @pytest.mark.parametrize("prof", [
        Profile("exponential"), Profile("gaussian"),
        Profile("power", 0.5), Profile("pfamily", 2.0, ambient_dim=1),
    ])
    def test_neg_derivative_matches_difference_quotient(self, prof):
        for t in [0.2, 0.7, 0.95]:
            h = 1e-6
            fd = (prof.value(t - h) - prof.value(t + h)) / (2.0 * h)
            assert prof.neg_derivative(t) == pytest.approx(fd, rel=1e-4)

    @pytest.mark.parametrize("prof", [
        Profile("exponential"), Profile("gaussian"), Profile("power", 2.0),
        Profile("indicator"), Profile("pfamily", -0.5, ambient_dim=2),
    ])
    def test_inverse_level_is_inverse(self, prof):
        for u in [0.9, 0.5, 0.11]:
            uu = u * min(prof.phi0, 1e6)
            s = prof.depth_scale(math.log(prof.phi0) - math.log(uu))   # phi(s) = uu
            assert prof.value(s * (1.0 - 1e-9)) >= uu * (1.0 - 1e-7)
            assert prof.value(s * (1.0 + 1e-6)) <= uu * (1.0 + 1e-6)


class TestEval:
    def test_one_sided_exponential(self):
        f = expfun(interval01())
        assert f.eval([1.0]) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_outside_support(self):
        f = expfun(interval01())
        assert f.eval([-0.5]) == 0.0

    def test_gaussian_on_symmetric_interval(self):
        f = LogConcaveFunction(Profile("gaussian"), cc.cube(1, 1.0), np.zeros(1))
        assert f.eval([2.0]) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_eval_many_matches_eval(self):
        f = LogConcaveFunction(Profile("gaussian"), cc.simplex(2, "centered"),
                               np.array([0.1, -0.2]), 2.0)
        gen = make_rng(1, 0)
        X = gen.normal(size=(30, 2))
        many = f.eval_many(X)
        for x, v in zip(X, many):
            assert v == pytest.approx(f.eval(x), rel=1e-12, abs=1e-300)


class TestMass:
    def test_one_sided_exponential(self):
        assert expfun(interval01()).mass() == pytest.approx(1.0, rel=1e-12)

    def test_indicator_cube(self):
        f = LogConcaveFunction(Profile("indicator"), cc.cube(2, 1.0), np.zeros(2))
        assert f.mass() == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("K", [
        lambda: cc.simplex(2, "centered"),
        lambda: cc.cube(2, 1.0),
        lambda: cc.from_vertices([[0, 0], [2, 0], [1.5, 1.5], [-0.5, 1.0]]),
    ])
    def test_classical_volume_identity(self, K):
        # (1/n!) * mass(e^{-gauge_K}) = vol(K)
        K = K()
        f = expfun(K)
        n = K.dim
        assert f.mass() / math.factorial(n) == pytest.approx(
            cc.volume(K).value, rel=1e-9)

    def test_shift_and_amplitude(self):
        f = expfun(interval01(), shift=[3.0], A=2.5)
        assert f.mass() == pytest.approx(2.5, rel=1e-12)


class TestLpNorm:
    def test_indicator_power_norm(self):
        f = LogConcaveFunction(Profile("indicator"), interval01(), np.zeros(1))
        assert f.lp_norm(0.5) == pytest.approx(1.0, rel=1e-12)

    def test_half_norm_of_exponential(self):
        f = expfun(interval01())
        assert f.lp_norm(0.5) == pytest.approx(4.0, rel=1e-12)

    def test_q1_is_mass(self):
        f = LogConcaveFunction(Profile("gaussian"), cc.cube(2, 1.0), np.zeros(2), 1.7)
        assert f.lp_norm(1.0) == pytest.approx(f.mass(), rel=1e-12)


class TestLogConcavityAndCoercivity:
    @pytest.mark.parametrize("prof", [
        Profile("exponential"), Profile("gaussian"), Profile("power", 2.0),
        Profile("indicator"), Profile("pfamily", 1.0, ambient_dim=2),
    ])
    def test_segment_log_concavity(self, prof):
        f = LogConcaveFunction(prof, cc.simplex(2, "centered"), np.array([0.05, 0.0]))
        gen = make_rng(17, 0)
        X = gen.normal(size=(1000, 2)) * 0.8
        Y = gen.normal(size=(1000, 2)) * 0.8
        lam = gen.random(1000)
        fx = f.eval_many(X)
        fy = f.eval_many(Y)
        fm = f.eval_many(X * (1 - lam[:, None]) + Y * lam[:, None])
        assert np.all(fm >= fx ** (1 - lam) * fy ** lam - 1e-12)

    @pytest.mark.parametrize("prof", [
        Profile("exponential"), Profile("gaussian"), Profile("indicator"),
        Profile("power", 0.5), Profile("pfamily", 2.0, ambient_dim=2),
    ])
    def test_coercivity_envelope(self, prof):
        f = LogConcaveFunction(prof, cc.simplex(2, "centered"), np.array([0.3, -0.1]))
        A, B = f.coercivity_bound()
        gen = make_rng(23, 0)
        X = gen.normal(size=(10_000, 2)) * 3.0
        bound = A * np.exp(-B * np.linalg.norm(X, axis=1))
        assert np.all(f.eval_many(X) <= bound * (1.0 + 1e-9))

    def test_subexponential_family_rejected(self):
        f = LogConcaveFunction(Profile("pfamily", -0.5, ambient_dim=1),
                               cc.cube(1, 1.0), np.zeros(1))
        with pytest.raises(NonIntegrableError):
            f.coercivity_bound()


def test_truncation_radius_bounds_weighted_tail():
    prof = Profile("pfamily", -0.5, ambient_dim=1)
    r = prof.truncation_radius(1e-13, extra_power=3.0)
    t = np.linspace(r, 4 * r, 1000)
    assert np.all(np.asarray(prof.value(t)) * t ** 3.0 <= 1e-13 * 1.01)


@pytest.mark.parametrize("kind", ["exponential", "gaussian"])
def test_truncation_radius_at_high_weight(kind):
    # (2r)^301 overflows a float; the damped level is a depth in logs
    prof = Profile(kind)
    r = prof.truncation_radius(1e-13, extra_power=301.0)
    assert math.isfinite(r)
    t = np.linspace(r, 4 * r, 1000)
    with np.errstate(divide="ignore"):               # phi underflows far out
        log_weighted = np.log(prof.value(t)) + 301.0 * np.log(t)
    assert np.all(log_weighted <= math.log(1e-13) + 1e-9)


def test_truncation_radius_rejects_infinite_peak():
    with pytest.raises(NonIntegrableError):
        Profile("pfamily", 0.0, ambient_dim=1).truncation_radius(1e-13, extra_power=2.0)


def test_make_function_json():
    f = make_function({"profile": "power", "s_or_p": 2.0,
                       "body": {"kind": "cube", "dim": 2, "halfwidth": 1.0},
                       "shift": [0.5, 0.0], "amplitude": 3.0})
    assert f.profile.kind == "power"
    assert f.eval([0.5, 0.0]) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        make_function({"profile": "power", "body": {"kind": "cube", "dim": 1}})


@pytest.mark.parametrize("p", [0.0, 0.5, -0.5, 0.999])
def test_make_function_rejects_pfamily_below_one(p):
    # not log-concave below p = 1; the profile itself stays available
    spec = {"profile": "pfamily", "s_or_p": p, "body": {"kind": "cube", "dim": 1}}
    with pytest.raises(ValueError, match="not log-concave"):
        make_function(spec)
    assert Profile("pfamily", p, ambient_dim=1).param == p
    assert make_function({**spec, "s_or_p": 1.0}).profile.param == 1.0


def test_profile_from_kind_requires_param():
    with pytest.raises(ValueError):
        profile_from_kind("pfamily")
    assert profile_from_kind("exponential").kind == "exponential"
