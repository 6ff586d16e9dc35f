import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.spatial import ConvexHull

import mthorder.convexcore as cc
import mthorder.covariogram as cov
import mthorder.inequalities as iq
import mthorder.mellin as ml
from mthorder.lcfun import LogConcaveFunction, profile_from_kind
from mthorder.numerics import _SCALES, EstimateWithError, make_rng
from oracles import (discs_meet, dm_support_membership, inf_convolution_gauge,
                     polytopes_meet, sup_convolution, three_point_radius)

SQRT_2PI = math.sqrt(2.0 * math.pi)


def unit_interval():
    return cc.from_vertices([[0.0], [1.0]])


def make_fn(kind, body, amplitude=1.0):
    prof = profile_from_kind(kind, ambient_dim=body.dim)
    return LogConcaveFunction(prof, body, np.zeros(body.dim), amplitude)


def est(value, sigma=0.0, n=0):
    return EstimateWithError(float(value), float(sigma), n)


# the recurring cast: chi = indicator of [0,1], f_exp = e^-x on the half
# line, two_sided = e^-|x|, std_gauss = e^-x^2/2, disc_chi = indicator of
# the unit disc
chi = make_fn("indicator", unit_interval())
f_exp = make_fn("exponential", unit_interval())
two_sided = make_fn("exponential", cc.cube(1, 1.0))
std_gauss = make_fn("gaussian", cc.cube(1, 1.0))
disc_chi = make_fn("indicator", cc.ball(2, 1.0))


class TestVerdictRule:
    def test_exact_equality(self):
        v = iq.make_verdict("t", est(1.0), est(1.0))
        assert v.status == iq.EQUALITY
        assert v.margin == 0.0

    def test_statistical_tie_positive_margin(self):
        v = iq.make_verdict("t", est(1.0, 0.1), est(1.2))
        assert v.status == iq.EQUALITY

    def test_statistical_tie_negative_margin(self):
        v = iq.make_verdict("t", est(1.2, 0.1), est(1.0))
        assert v.status == iq.EQUALITY

    def test_holds_strict(self):
        v = iq.make_verdict("t", est(1.0, 0.1), est(2.0))
        assert v.status == iq.HOLDS

    def test_violated(self):
        v = iq.make_verdict("t", est(2.0, 0.1), est(1.0))
        assert v.status == iq.VIOLATED

    def test_equality_tol_window(self):
        assert iq.make_verdict("t", est(1.0), est(1.0 + 5e-7)).status == iq.EQUALITY
        tight = iq.make_verdict("t", est(1.0), est(1.0 + 5e-7), equality_tol=1e-8)
        assert tight.status == iq.HOLDS

    def test_default_sigma_is_quadrature_sum(self):
        v = iq.make_verdict("t", est(0.0, 3.0), est(10.0, 4.0))
        assert v.sigma_combined == pytest.approx(5.0, rel=1e-12)

    def test_sigma_override(self):
        v = iq.make_verdict("t", est(1.0, 10.0), est(2.0), sigma=0.01)
        assert v.sigma_combined == 0.01
        assert v.status == iq.HOLDS

    @pytest.mark.parametrize("bad", [float("nan"), -1.0, float("inf")])
    def test_bad_sigma_rejected(self, bad):
        with pytest.raises(ValueError):
            iq.make_verdict("t", est(1.0), est(2.0), sigma=bad)

    def test_nan_lhs_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            iq.make_verdict("t", est(float("nan")), est(1.0))

    def test_inf_against_inf_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            iq.make_verdict("t", est(float("inf")), est(float("inf")))

    def test_to_dict_round_trip(self):
        v = iq.make_verdict("t", est(1.0, 0.5, 10), est(3.0), metadata={"k": 1})
        d = v.to_dict()
        assert d["name"] == "t"
        assert d["lhs"] == {"value": 1.0, "std_error": 0.5, "samples_or_nodes": 10}
        assert d["margin"] == 2.0
        assert d["status"] == v.status
        assert d["metadata"] == {"k": 1}
        d["metadata"]["k"] = 2
        assert v.metadata["k"] == 1  # serialization must not alias the verdict

    @given(lhs=st.floats(-1e6, 1e6), delta=st.floats(0.0, 1e6),
           sigma=st.floats(0.0, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_ordered_sides_never_violate(self, lhs, delta, sigma):
        v = iq.make_verdict("t", est(lhs, sigma), est(lhs + delta))
        assert v.status in (iq.HOLDS, iq.EQUALITY)
        assert v.margin == (lhs + delta) - lhs


class TestCsvAndJobs:
    def test_csv_shape(self):
        v = iq.make_verdict("a", est(1.0 / 3.0), est(2.0 / 3.0))
        text = iq.csv_summary([v, v])
        lines = text.strip().split("\n")
        assert lines[0] == iq.CSV_HEADER
        assert len(lines) == 3
        fields = lines[1].split(",")
        assert len(fields) == 8
        assert fields[1] == "0.33333333333333331"
        assert fields[-1] == v.status

    def test_run_jobs_flattens_in_order(self):
        vs = [iq.make_verdict(f"v{i}", est(0.0), est(1.0)) for i in range(5)]
        jobs = [lambda: vs[0], lambda: [vs[1], vs[2]], lambda: (vs[3], vs[4])]
        out = iq.run_jobs(jobs)
        assert [v.name for v in out] == ["v0", "v1", "v2", "v3", "v4"]

    def test_run_jobs_threaded_matches_serial(self):
        vs = [iq.make_verdict(f"v{i}", est(0.0), est(1.0)) for i in range(6)]
        jobs = [lambda v=v: v for v in vs]
        assert iq.run_jobs(jobs, threads=3) == iq.run_jobs(jobs, threads=1)

    def test_run_jobs_default_is_the_callers_thread(self):
        seen = []

        def job():
            seen.append(threading.get_ident())
            return iq.make_verdict("v", est(0.0), est(1.0))

        assert len(iq.run_jobs([job] * 4)) == 4
        assert seen == [threading.get_ident()] * 4


class TestConvolutions:
    def test_sup_chi_triple_feasible(self):
        rchi = make_fn("indicator", cc.from_vertices([[-1.0], [0.0]]))
        assert sup_convolution([chi, rchi, rchi], [0.5, 0.25]) == 1.0

    def test_sup_chi_triple_disjoint(self):
        rchi = make_fn("indicator", cc.from_vertices([[-1.0], [0.0]]))
        assert sup_convolution([chi, rchi, rchi], [0.5, -0.5]) == 0.0

    def test_sup_two_sided_exp_plateau(self):
        # e^-|z| e^-|z-1| == e^-1 for every z in [0,1]
        got = sup_convolution([two_sided, two_sided], [1.0])
        assert got == pytest.approx(math.exp(-1.0), rel=1e-9)

    def test_sup_gaussian_pair(self):
        got = sup_convolution([std_gauss, std_gauss], [1.0])
        assert got == pytest.approx(math.exp(-0.25), rel=1e-12)

    def test_sup_disjoint_discs(self):
        assert sup_convolution([disc_chi, disc_chi], [3.0, 0.0]) == 0.0

    def test_sup_overlapping_discs(self):
        assert sup_convolution([disc_chi, disc_chi], [1.5, 0.0]) == 1.0

    def test_sup_square_and_disc(self):
        # a polytope support next to a ball support has no exact meeting
        # test where their boxes overlap; where the boxes miss, the sup is 0
        # exactly; rs-multi's sup side rejects the tuple
        square_chi = make_fn("indicator", cc.cube(2, 1.0))
        with pytest.raises(NotImplementedError):
            sup_convolution([square_chi, disc_chi], [0.3, 0.3])
        assert sup_convolution([square_chi, disc_chi], [2.5, 2.5]) == 0.0
        with pytest.raises(NotImplementedError):
            iq.check_rs_multi([square_chi, disc_chi])
        # nor do other profiles on such supports, or on balls of two radii
        power = lambda K: LogConcaveFunction(profile_from_kind("power", 2.0), K, np.zeros(2))
        for pair in ([power(cc.cube(2, 1.0)), power(cc.ball(2, 1.0))],
                     [power(cc.ball(2, 1.0)), power(cc.ball(2, 0.5))]):
            with pytest.raises(NotImplementedError):
                sup_convolution(pair, [0.3, 0.3])

    def test_int_gaussian_pair_1d_exact(self):
        got = iq.int_convolution([std_gauss, std_gauss], [0.8])
        exact = math.sqrt(math.pi) * math.exp(-0.16)
        assert got.value == pytest.approx(exact, rel=1e-12)
        assert got.std_error <= 1e-12 * exact

    def test_int_disc_pair_lens_area(self):
        got = iq.int_convolution([disc_chi, disc_chi], [1.0, 0.0])
        exact = 2.0 * math.acos(0.5) - 0.5 * math.sqrt(3.0)
        assert got.value == pytest.approx(exact, rel=1e-12)
        assert got.std_error == 0.0

    def test_int_two_sided_exp_1d_exact(self):
        got = iq.int_convolution([two_sided, two_sided], [0.0])
        assert got.value == pytest.approx(1.0, rel=1e-12)

    def test_int_1d_makes_no_sup_search(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the 1-D rule needs no mode")
        monkeypatch.setattr(iq, "_sup_rows", refuse)
        got = iq.int_convolution([std_gauss, two_sided, chi], [0.3, -0.2])
        assert got.value > 0.0

    @pytest.mark.parametrize("r,gap", [(0.1, 0.5), (0.3, 1.2)],
                             ids=["inside", "partial"])
    def test_disc_meets_a_smaller_disc(self, r, gap):
        # a feasible start must lie in both discs: the point half way along
        # the centres, (gap / 2, 0), misses the smaller one in both cases
        small = LogConcaveFunction(profile_from_kind("indicator", ambient_dim=2),
                                   cc.ball(2, r), np.array([gap, 0.0]))
        assert sup_convolution([disc_chi, small], [0.0, 0.0]) == 1.0
        got = iq.int_convolution([disc_chi, small], [0.0, 0.0])
        if gap + r <= 1.0:
            exact = math.pi * r * r
        else:       # the lens of circles of radii 1 and r at distance gap
            exact = (r * r * math.acos((gap * gap + r * r - 1.0) / (2.0 * gap * r))
                     + math.acos((gap * gap + 1.0 - r * r) / (2.0 * gap))
                     - 0.5 * math.sqrt((r + 1.0 - gap) * (gap + r - 1.0)
                                       * (gap - r + 1.0) * (gap + r + 1.0)))
        assert got.value == pytest.approx(exact, rel=1e-12)
        assert got.std_error == 0.0

    @pytest.mark.parametrize("gap", [0.5, 0.9, 1.2, 1.55])
    def test_unequal_balls_meet_in_two_caps(self, gap):
        # balls of radii 1 and 0.6 in R^3: each side of the radical plane,
        # at height h from the centre of ball 0, is a cap of height t and
        # volume pi t^2 (3 r - t) / 3, checked here against a quadrature
        # over the slices z, each the smaller of the two discs
        r0, r1 = 1.0, 0.6
        ball0 = make_fn("indicator", cc.ball(3, r0))
        ball1 = make_fn("indicator", cc.ball(3, r1))
        h = (gap * gap + r0 * r0 - r1 * r1) / (2.0 * gap)
        caps = (math.pi / 3.0) * ((r0 - h) ** 2 * (2.0 * r0 + h)
                                  + (r1 - gap + h) ** 2 * (2.0 * r1 + gap - h))
        slices = integrate.quad(
            lambda z: math.pi * max(0.0, min(r0 * r0 - z * z, r1 * r1 - (z - gap) ** 2)),
            -r0, r0, points=[h], epsabs=1e-15, epsrel=1e-13)[0]
        assert caps == pytest.approx(slices, rel=1e-11)
        got = iq.int_convolution([ball0, ball1], [0.0, 0.0, gap])
        assert got.value == pytest.approx(caps, rel=1e-12)
        assert got.std_error == 0.0

    def test_square_translates_meet_in_a_rectangle(self):
        # [-1, 1]^2 and its translates by (0.5, 0.2) and (-0.3, 0.4), with
        # amplitudes 2, 1 and 1.5, meet in [-0.5, 0.7] x [-0.6, 1]
        square = cc.cube(2, 1.0)
        fbar = [make_fn("indicator", square, 2.0), make_fn("indicator", square),
                make_fn("indicator", square, 1.5)]
        got = iq.int_convolution(fbar, [0.5, 0.2, -0.3, 0.4])
        assert got.value == pytest.approx(3.0 * 1.2 * 1.6, rel=1e-12)
        assert got.std_error == 0.0
        assert iq.int_convolution(fbar, [2.5, 0.0, 0.0, 0.0]).value == 0.0

    def test_non_indicator_above_one_dimension_rejected(self):
        gauss = make_fn("gaussian", cc.ball(2, 1.0))
        square_chi = make_fn("indicator", cc.cube(2, 1.0))
        for fbar in ([gauss, gauss], [square_chi, disc_chi]):
            with pytest.raises(NotImplementedError):
                iq.int_convolution(fbar, [0.2, 0.1])

    def test_int_disjoint_is_exact_zero(self):
        got = iq.int_convolution([disc_chi, disc_chi], [3.0, 0.0])
        assert (got.value, got.std_error, got.samples_or_nodes) == (0.0, 0.0, 0)

    def test_single_function_rejected(self):
        with pytest.raises(ValueError):
            sup_convolution([chi], [])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sup_convolution([chi, disc_chi], [0.0])

    def test_wrong_block_count_rejected(self):
        with pytest.raises(ValueError):
            sup_convolution([chi, chi, chi], [0.5])


def _quad_int_convolution(fbar, x):
    """Reference: scipy quad of the translated product between its breakpoints
    (each factor's centre and box ends) inside the joint box."""
    offsets = [0.0] + list(x)
    boxes = iq._factor_boxes(fbar)
    lo = max(b + t for b, t in zip(boxes.lo[:, 0], offsets))
    hi = min(b + t for b, t in zip(boxes.hi[:, 0], offsets))
    cuts = {lo, hi}
    for f, a, b, t in zip(fbar, boxes.lo[:, 0], boxes.hi[:, 0], offsets):
        cuts |= {f.shift[0] + t, a + t, b + t}
    cuts = sorted(c for c in cuts if lo <= c <= hi)

    def F(z):
        return float(np.prod([f.eval([z - t]) for f, t in zip(fbar, offsets)]))
    return sum(integrate.quad(F, a, b, epsabs=0.0, epsrel=1e-13, limit=500)[0]
               for a, b in zip(cuts[:-1], cuts[1:]))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("kind,s_param", [
    ("indicator", None), ("exponential", None), ("gaussian", None),
    ("power", 0.3), ("power", 3.0), ("power", 10.0)])
def test_int_convolution_1d_matches_quad(kind, s_param, m):
    """The breakpoint rule against quad on asymmetric, shifted factors; at
    s = 10 the profile (1 - t)^0.1 has an infinite slope at its support end."""
    def factor(lo, hi, shift, amplitude):
        return LogConcaveFunction(profile_from_kind(kind, s_param, 1),
                                  cc.from_vertices([[lo], [hi]]),
                                  np.array([shift]), amplitude)
    fbar = [factor(-0.7, 1.3, 0.2, 1.5)] + [
        factor(-1.1 - 0.2 * i, 0.6 + 0.3 * i, -0.1 * i, 0.8) for i in range(m)]
    x = [0.3 * (i + 1) * (-1) ** i for i in range(m)]
    got = iq.int_convolution(fbar, x)
    want = _quad_int_convolution(fbar, x)
    assert want > 0.0
    assert got.value == pytest.approx(want, rel=1e-9)
    assert got.std_error <= 1e-6 * want


def test_breakpoint_rows_match_single_rows():
    """One batched call gives every row bit for bit what int_convolution
    gives at that row alone; rows whose supports miss cost no nodes."""
    half = cc.from_vertices([[-0.7], [1.3]])
    fbar = [make_fn("indicator", half, 1.4), make_fn("gaussian", half),
            LogConcaveFunction(profile_from_kind("power", 2.0, 1),
                               half, np.array([0.3]), 0.8)]
    X = make_rng(14, 0).uniform(-3.0, 3.0, size=(48, 2))
    value, error, nodes = iq._breakpoint_rows(fbar, iq._factor_boxes(fbar), X)
    assert np.count_nonzero(nodes == 0) > 5 and np.count_nonzero(value) > 10
    assert np.all(value[nodes == 0] == 0.0)
    for k, x in enumerate(X):
        one = iq.int_convolution(fbar, x)
        assert (one.value, one.std_error, one.samples_or_nodes) == (
            value[k], error[k], nodes[k])


def test_coinciding_breakpoints_add_no_interval():
    # chi * chi at x = 0: every cut is 0 or 1, so one closed-form piece
    got = iq.int_convolution([chi, chi], [0.0])
    assert (got.value, got.std_error, got.samples_or_nodes) == (1.0, 0.0, 1)
    # the same supports under a power profile: one interval of the graded rule
    power = LogConcaveFunction(profile_from_kind("power", 2.0, 1),
                               unit_interval(), np.zeros(1))
    got = iq.int_convolution([power, power], [0.0])
    assert got.samples_or_nodes == 2 * len(iq._HALF_NODES)
    assert got.value == pytest.approx(0.5, rel=1e-12)


def _rows_both_ways(fbar, X):
    """(int, sup) per row from the closed-form kernels and from the numeric
    ones they replace: the graded Gauss rule and the bracket search."""
    boxes = iq._factor_boxes(fbar)
    X = np.asarray(X, dtype=float)
    closed = (iq._breakpoint_rows(fbar, boxes, X)[0], iq._sup_rows(fbar, boxes, X)[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(iq, "_closed_form", lambda fbar: False)
        boxes = iq._factor_boxes(fbar)
    numeric = (iq._breakpoint_rows(fbar, boxes, X)[0], iq._sup_rows(fbar, boxes, X)[1])
    return closed, numeric


class TestClosedFormKernels:
    def test_gaussian_pair(self):
        # int e^(-z^2/2) e^(-(z-x)^2/2) dz = sqrt(pi) e^(-x^2/4)
        x = np.linspace(-6.0, 6.0, 49)
        value, error, cells = iq._breakpoint_rows(
            [std_gauss, std_gauss], iq._factor_boxes([std_gauss] * 2), x[:, None])
        np.testing.assert_allclose(value, math.sqrt(math.pi) * np.exp(-0.25 * x * x),
                                   rtol=1e-14)
        # the two centres split the joint box into 3 cells, 2 where they meet
        assert np.all(error == 0.0) and set(cells.tolist()) == {2, 3}

    def test_two_sided_exponential_pair(self):
        # int e^-|z| e^-|z-x| dz = (1 + |x|) e^-|x|
        for x in np.linspace(-5.0, 5.0, 41):
            got = iq.int_convolution([two_sided, two_sided], [x])
            assert got.value == pytest.approx((1.0 + abs(x)) * math.exp(-abs(x)),
                                              rel=1e-13)
            assert got.std_error == 0.0

    def test_one_sided_exponential_sup_is_exact(self):
        # sup_z e^-z e^-(z-x) over z >= max(0, x) is e^-|x| exactly; the
        # cell left of each centre, where the gauge of [0, 1] is +inf,
        # contributes nothing
        X = make_rng(15, 0).uniform(-4.0, 4.0, size=(64, 1))
        z, sup = sup_rows([f_exp, f_exp], X)
        assert np.array_equal(sup, np.exp(-np.abs(X[:, 0])))
        assert np.array_equal(z, np.maximum(X[:, 0], 0.0))
        got = iq.int_convolution([f_exp, f_exp], [1.5])
        assert got.value == pytest.approx(0.5 * math.exp(-1.5), rel=1e-13)

    def test_far_tail_row_stays_finite(self):
        # a steep exponential (slope 100) against a wide Gaussian: on the
        # cells right of the exponential's centre the quadratic's vertex
        # lies near z = -10^4, where its value e^(5 10^5) overflows, while
        # the erf differences there round to 0, so the expanded form
        # e^(vertex value) (erf w - erf u) reads inf * 0 = NaN
        sharp = LogConcaveFunction(profile_from_kind("exponential", ambient_dim=1),
                                   cc.cube(1, 0.01), np.zeros(1))
        wide = make_fn("gaussian", cc.cube(1, 10.0))
        fbar = [sharp, wide]
        boxes = iq._factor_boxes(fbar)
        pieces = iq._exponent_pieces(boxes, np.array([[30.0]]))
        vertex_value = pieces.top + pieces.fall_hi ** 2 / (4.0 * pieces.q)
        assert np.max(vertex_value) > 1e5
        for x in (0.0, 30.0, 60.0):
            got = iq.int_convolution(fbar, [x])
            want = _quad_int_convolution(fbar, [x])
            assert math.isfinite(got.value) and want > 0.0
            assert got.value == pytest.approx(want, rel=1e-12)

    def test_against_the_numeric_kernels_on_seeded_triples(self):
        from mthorder.harness import _random_triple
        for seed in range(200):
            fbar = _random_triple(make_rng(seed, 907))
            X = make_rng(seed, 1).uniform(-3.0, 3.0, size=(16, 2))
            (c_int, c_sup), (g_int, g_sup) = _rows_both_ways(fbar, X)
            np.testing.assert_allclose(c_int, g_int, rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(c_sup, g_sup, rtol=1e-13, atol=0.0)

    def test_never_evaluate_the_product(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("closed-form kinds evaluate no product")
        monkeypatch.setattr(iq, "_product_many", refuse)
        monkeypatch.setattr(iq, "_bracket_max_many", refuse)
        fbar = [std_gauss, two_sided, chi]
        assert iq.int_convolution(fbar, [0.3, -0.2]).value > 0.0
        assert sup_convolution(fbar, [0.3, -0.2]) > 0.0
        multi = iq.check_rs_multi([two_sided, std_gauss], outer_samples=50)
        assert (multi.metadata["sup_route"], multi.metadata["row_kernel"]) == (
            "closed-form", "closed-form")
        single = iq.check_rs_single(std_gauss, 1, samples=50)
        assert single.metadata["row_kernel"] == "closed-form"
        assert iq.check_rs_single(f_exp, 1).metadata["route"] == "mixed-volume"
        assert iq.check_rs_multi([chi, chi]).metadata["route"] == "mixed-volume"

    def test_other_profiles_keep_the_numeric_kernels(self):
        power = LogConcaveFunction(profile_from_kind("power", 2.0, 1),
                                   cc.cube(1, 1.0), np.zeros(1))
        multi = iq.check_rs_multi([power, std_gauss], outer_samples=50)
        assert (multi.metadata["sup_route"], multi.metadata["row_kernel"]) == (
            "breakpoint-gauss", "bracket-search")
        assert multi.lhs.std_error > 0.0


def test_sup_evals_count_points_of_batched_calls(monkeypatch):
    shapes = []
    rows_rule = iq._breakpoint_rows

    def spy(fbar, boxes, X):
        shapes.append(X.shape)
        return rows_rule(fbar, boxes, X)

    monkeypatch.setattr(iq, "_breakpoint_rows", spy)
    v = iq.check_rs_multi([two_sided, std_gauss], outer_samples=50)
    # the two starts share one call, the search evaluates its start, each
    # sweep's stencil (+-e_1 at _SCALES steps) is one call, and the last
    # call is the int-convolution at the argmax
    assert shapes[:2] == [(2, 1), (1, 1)] and shapes[-1] == (1, 1)
    assert len(shapes) > 4 and all(s == (2 * _SCALES, 1) for s in shapes[2:-1])
    assert v.metadata["sup_evals"] == sum(s[0] for s in shapes[:-1])


def _seeded_pair(seed, kinds):
    """Two 1-D functions of the given kinds, with widths, shift and
    amplitude drawn as for the benchmark's rs-multi pairs."""
    gen = np.random.default_rng([seed, 3])
    fbar = []
    for kind in kinds:
        w, v = 0.4 + 1.2 * gen.random(), 0.4 + 1.2 * gen.random()
        fbar.append(LogConcaveFunction(profile_from_kind(kind, ambient_dim=1),
                                       cc.from_vertices([[-w], [v]]),
                                       np.array([gen.uniform(-0.5, 0.5)]),
                                       0.5 + 1.5 * gen.random()))
    return fbar


_PAIR_KINDS = [("exponential", "gaussian"), ("gaussian", "exponential")]


@pytest.mark.parametrize("kinds", _PAIR_KINDS)
def test_rs_multi_kernel_calls_stay_few(monkeypatch, kinds):
    # a timing-free guard on the search: the starts, every sweep and the
    # value at the argmax take at most 12 row-kernel calls on these pairs
    calls = []
    rows_rule = iq._int_rows
    monkeypatch.setattr(iq, "_int_rows", lambda *a: calls.append(1) or rows_rule(*a))
    for seed in range(20):
        calls.clear()
        iq.check_rs_multi(_seeded_pair(seed, kinds), outer_samples=10)
        assert len(calls) <= 12, seed


@pytest.mark.parametrize("kinds", _PAIR_KINDS)
def test_rs_multi_sup_matches_a_dense_bracket_search(kinds):
    # the search's sup against `_bracket_max_many` on the same objective
    # over the whole translation box (to ~1e-16 of its width)
    for seed in range(12):
        fbar = _seeded_pair(seed, kinds)
        v = iq.check_rs_multi(fbar, outer_samples=10)
        boxes = iq._factor_boxes(fbar)
        lo = boxes.lo[0] - boxes.hi[1]
        hi = boxes.hi[0] - boxes.lo[1]
        _, best = iq._bracket_max_many(
            lambda Z: iq._int_rows(fbar, boxes, Z.reshape(-1, 1))[0].reshape(Z.shape), lo, hi)
        assert v.metadata["sup_norm"] <= best[0]
        assert v.metadata["sup_norm"] == pytest.approx(best[0], rel=5e-11, abs=0.0)


def test_rs_multi_search_at_nm_4_is_not_cut_short(monkeypatch):
    # a sweep has 144 points at n*m = 4; each search must stop at its step
    # floor with points of its budget left, where an unlimited one stops
    budgets = []
    real = iq.maximize_logconcave

    def search(F, x0, **kwargs):
        points = []
        out = real(lambda Z: points.append(len(Z)) or F(Z), x0, **kwargs)
        free = real(F, x0, tol=kwargs["tol"], max_evals=10 ** 9)
        assert np.array_equal(out[0], free[0]) and out[1] == free[1]
        budgets.append((sum(points), kwargs["max_evals"]))
        return out
    monkeypatch.setattr(iq, "maximize_logconcave", search)
    gen = make_rng(30, 0)
    for _ in range(3):
        fbar = [LogConcaveFunction(profile_from_kind(kind, ambient_dim=1),
                                   cc.from_vertices([[-gen.uniform(0.4, 1.6)],
                                                     [gen.uniform(0.4, 1.6)]]),
                                   np.array([gen.uniform(-0.5, 0.5)]))
                for kind in ("gaussian", "exponential", "gaussian", "exponential",
                             "indicator")]
        iq.check_rs_multi(fbar, outer_samples=10)
    iq.check_rs_multi(_polytope_triple(), outer_samples=10)
    assert len(budgets) == 4
    assert all(used < budget for used, budget in budgets)


def sup_rows(fbar, X):
    """Row-batched pointwise sups, as the pointwise-sup route computes them."""
    return iq._sup_rows(fbar, iq._factor_boxes(fbar), np.asarray(X, dtype=float))


class TestBatchedSup:
    def test_gaussian_pairs_closed_form(self):
        # sup_z e^(-z^2/2) e^(-(z-x)^2/2) = e^(-x^2/4), attained at z = x/2
        X = make_rng(11, 0).uniform(-4.0, 4.0, size=(200, 1))
        z, sup = sup_rows([std_gauss, std_gauss], X)
        np.testing.assert_allclose(sup, np.exp(-0.25 * X[:, 0] ** 2), rtol=1e-12)
        np.testing.assert_allclose(z, 0.5 * X[:, 0], atol=1e-6)

    def test_two_sided_exponential_plateau(self):
        # e^-|z| e^-|z-x| = e^-|x| on the whole segment between 0 and x
        X = make_rng(12, 0).uniform(-5.0, 5.0, size=(200, 1))
        _, sup = sup_rows([two_sided, two_sided], X)
        np.testing.assert_allclose(sup, np.exp(-np.abs(X[:, 0])), rtol=1e-12)

    def test_compact_sliver(self):
        # the two indicators meet only on [1 - 1e-9, 1], far narrower than
        # a cell of the Gaussian factor's box; the product there is e^-1/2
        rchi = make_fn("indicator", cc.from_vertices([[-1.0], [0.0]]))
        fbar = [std_gauss, chi, rchi]
        x = [0.0, 2.0 - 1e-9]
        _, sup = sup_rows(fbar, [x])
        assert sup[0] == sup_convolution(fbar, x)
        assert sup[0] == pytest.approx(math.exp(-0.5), rel=1e-8)

    def test_one_sided_sliver(self):
        # e^-z on z >= 0 times e^(z-x) on z <= x is e^-x on [0, x]: a
        # sliver no grid node of the truncation box hits
        fbar = [f_exp, make_fn("exponential", cc.reflect(unit_interval()))]
        _, sup = sup_rows(fbar, [[1e-3], [1e-7]])
        np.testing.assert_allclose(sup, np.exp(-np.array([1e-3, 1e-7])),
                                   rtol=1e-14)
        assert sup[1] == sup_convolution(fbar, [1e-7])

    def test_missing_supports_give_exact_zero(self):
        rchi = make_fn("indicator", cc.from_vertices([[-1.0], [0.0]]))
        fbar = [std_gauss, chi, rchi]
        _, sup = sup_rows(fbar, [[0.5, -0.5], [0.0, 3.0], [0.5, 1.0]])
        assert sup[0] == 0.0 and sup[1] == 0.0
        assert sup[2] == pytest.approx(math.exp(-0.125), rel=1e-12)

    def test_single_row_matches_batch_bitwise(self):
        half = cc.from_vertices([[-0.7], [1.3]])
        fbar = [make_fn("gaussian", half), make_fn("indicator", half, 1.4),
                LogConcaveFunction(profile_from_kind("exponential", ambient_dim=1),
                                   half, np.array([0.3]), 0.8)]
        X = make_rng(13, 0).uniform(-3.0, 3.0, size=(64, 2))
        z, sup = sup_rows(fbar, X)
        assert np.count_nonzero(sup) > 10
        for k, x in enumerate(X):
            z1, sup1 = sup_rows(fbar, x[None, :])
            assert (z1[0], sup1[0]) == (z[k], sup[k])
            assert sup_convolution(fbar, x) == sup[k]


def test_scalar_evaluations_do_not_grow_with_samples(monkeypatch):
    """The pointwise-sup route evaluates all outer samples in batches, so the
    count of scalar LogConcaveFunction.eval calls does not depend on them."""
    calls = []
    scalar_eval = LogConcaveFunction.eval

    def counted(self, x):
        calls.append(1)
        return scalar_eval(self, x)

    monkeypatch.setattr(LogConcaveFunction, "eval", counted)
    counts = []
    for samples in (100, 400):
        calls.clear()
        v = iq.check_rs_single(std_gauss, 1, samples=samples)
        assert v.metadata["route"] == "pointwise-sup"
        counts.append(len(calls))
    assert counts[0] == counts[1]


class TestRsBody:
    def test_simplex_is_the_equality_case(self):
        v = iq.check_rs_body(cc.simplex(2), 1)
        assert v.status == iq.EQUALITY
        assert (v.lhs.value, v.rhs.value) == (3.0, 3.0)   # exact vertices
        assert (v.metadata["route"], v.metadata["samples"]) == ("mixed-volume", 0)

    def test_interval_m2_equality(self):
        v = iq.check_rs_body(unit_interval(), 2)
        assert v.status == iq.EQUALITY
        assert v.lhs.value == pytest.approx(3.0, rel=1e-9)

    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_interval_high_order_equality(self, m):
        v = iq.check_rs_body(unit_interval(), m)
        assert v.metadata["route"] == "mixed-volume"
        assert v.lhs.value == pytest.approx(m + 1.0, rel=1e-12)
        assert v.status == iq.EQUALITY

    def test_simplex3_m2_is_exact_equality(self):
        v = iq.check_rs_body(cc.simplex(3), 2)
        assert v.metadata["route"] == "mixed-volume"
        assert v.lhs.value == pytest.approx(7.0 / 3.0, rel=1e-12)
        assert v.rhs.value == pytest.approx(7.0 / 3.0, rel=1e-12)
        assert v.lhs.std_error == v.rhs.std_error == 0.0
        assert v.status == iq.EQUALITY

    def test_disc_is_strict(self):
        v = iq.check_rs_body(cc.ball(2, 1.0), 1)
        assert v.status == iq.HOLDS
        assert v.metadata["route"] == "ball-overlap"
        assert v.lhs.value == pytest.approx(4.0 * math.pi, rel=1e-9)
        assert v.rhs.value == pytest.approx(6.0 * math.pi, rel=1e-9)

    def test_disc_m2_goes_monte_carlo(self):
        # D^2 of a disc has no meeting volume: the mean sup over sampled
        # translates, against the membership oracle's hit rate on a box
        v = iq.check_rs_body(cc.ball(2, 1.0), 2, samples=800)
        assert (v.metadata["route"], v.metadata["samples"]) == ("pointwise-sup", 800)
        assert v.metadata["row_kernel"] == "meeting-test"
        assert v.status == iq.HOLDS
        assert 0.0 < v.lhs.value < v.rhs.value
        assert v.lhs.std_error > 0.0
        N = 3_000
        X = 4.0 * make_rng(11, 1).random((N, 2, 2)) - 2.0    # D^2 B lies in [-2, 2]^4
        frac = np.mean([dm_support_membership(cc.ball(2, 1.0), x) for x in X])
        hit = EstimateWithError(256.0 * frac, 256.0 * math.sqrt(frac * (1.0 - frac) / N), N)
        sigma = math.hypot(v.lhs.std_error, hit.std_error)
        assert abs(v.lhs.value - hit.value) <= 4.0 * sigma

    def test_monte_carlo_route_matches_exact(self, monkeypatch):
        # with no meeting volume allowed, the triangle's D(K), a hexagon of
        # area 3 in the box [-1, 1]^2, is sampled
        monkeypatch.setattr(iq, "_MEETING_SUMS_MAX", 0)
        v = iq.check_rs_body(cc.simplex(2), 1, samples=2_000)
        assert v.metadata["route"] == "pointwise-sup"
        assert v.lhs.std_error > 0.0
        assert abs(v.lhs.value - 3.0) <= 4.0 * v.lhs.std_error

    def test_ten_gon_m3_is_sampled(self):
        # 10^4 vertex sums in R^6, past the vertex-sum cap
        t = 2.0 * math.pi * np.arange(10) / 10
        v = iq.check_rs_body(cc.from_vertices(np.c_[np.cos(t), np.sin(t)]), 3,
                             samples=64)
        assert (v.metadata["route"], v.metadata["samples"]) == ("pointwise-sup", 64)
        assert v.lhs.samples_or_nodes == 64
        assert v.status != iq.VIOLATED

    def test_body_off_the_origin_is_translated(self):
        # chi_K needs the origin in K; vol(D^m K) does not see the shift
        K = cc.from_vertices([[2.0, 1.0], [3.5, 1.2], [3.0, 2.4], [2.2, 2.0]])
        v = iq.check_rs_body(K, 2)
        assert v.metadata["route"] == "mixed-volume"
        meeting = cov.level_set_volumes([K] * 3, [0.0] * 3, [1.0])[0]
        assert v.lhs.value == pytest.approx(meeting, rel=1e-14)
        assert v.rhs.value == 15.0 * cc.volume(K).value ** 2
        assert v.status == iq.HOLDS
        ball = iq.check_rs_body(cc.ball(2, 0.5, center=[3.0, -1.0]), 1)
        assert ball.lhs.value == pytest.approx(math.pi, rel=1e-14)

    def test_budget_guard(self):
        with pytest.raises(NotImplementedError):
            iq.check_rs_body(cc.cube(2, 1.0), 4)


class TestZhangFn:
    def test_exponential_m1_equality(self):
        v = iq.check_zhang_fn(f_exp, 1)
        assert v.status == iq.EQUALITY
        assert v.lhs.value == pytest.approx(2.0, rel=1e-8)
        assert v.rhs.value == pytest.approx(2.0, rel=1e-8)
        assert v.sigma_combined < 1e-9
        assert (v.lhs.std_error, v.rhs.std_error) == (0.0, 0.0)

    def test_exponential_m2_equality(self):
        v = iq.check_zhang_fn(f_exp, 2)
        assert v.status == iq.EQUALITY
        # the shared direction set makes the two sides agree far beyond the
        # Monte Carlo accuracy of either one
        assert v.lhs.value == pytest.approx(v.rhs.value, rel=1e-9)
        assert v.lhs.value == pytest.approx(3.0, rel=0.01)
        assert v.sigma_combined < 1e-9

    def test_gaussian_is_strict(self):
        v = iq.check_zhang_fn(std_gauss, 1)
        assert v.status == iq.HOLDS
        assert v.lhs.value == pytest.approx(8.0, rel=1e-8)
        assert v.rhs.value == pytest.approx(4.0 * math.pi, rel=1e-8)
        assert v.margin > 3.0 * v.sigma_combined

    def test_exponential_cube2_m2_closed_form_lhs(self):
        # A M_{n(m+1)} vol(K)^{m+1} / (nm)! = 6! * 4^3 / 4! = 1920
        v = iq.check_zhang_fn(make_fn("exponential", cc.cube(2, 1.0)), 2)
        assert v.lhs.value == pytest.approx(1920.0, rel=1e-12)
        assert v.lhs.std_error == 0.0
        assert v.metadata["directions"] == 10_000
        assert v.status != iq.VIOLATED

    def test_rhs_is_mass_power_times_ppb_volume(self):
        import mthorder.projection as proj
        f = make_fn("gaussian", cc.simplex(2, "centered"), amplitude=1.5)
        v = iq.check_zhang_fn(f, 1)
        want = f.mass() ** 3 * proj.ppb_volume(f, 1).value
        assert v.rhs.value == pytest.approx(want, rel=1e-12)
        assert v.rhs.std_error == 0.0

    def test_budget_guard(self):
        with pytest.raises(NotImplementedError):
            iq.check_zhang_fn(std_gauss, 7)


class TestTangentBound:
    def test_exponential_touches_everywhere(self):
        v = iq.check_tangent_bound(f_exp, 1, [[0.7], [0.0]])
        assert v.status == iq.EQUALITY
        assert np.allclose(v.metadata["margins"], 0.0, atol=1e-9)

    def test_chi_margins_and_worst_point(self):
        v = iq.check_tangent_bound(chi, 1, [[0.5], [0.9]])
        assert v.status == iq.HOLDS
        want = [math.exp(-0.5) - 0.5, math.exp(-0.9) - 0.1]
        assert v.metadata["margins"] == pytest.approx(want, rel=1e-9)
        assert v.metadata["worst_point"] == 0
        assert v.lhs.value == pytest.approx(0.5, rel=1e-9)
        assert v.rhs.value == pytest.approx(math.exp(-0.5), rel=1e-9)

    def test_no_points_rejected(self):
        with pytest.raises(ValueError):
            iq.check_tangent_bound(chi, 1, [])

    def test_wrong_block_count_rejected(self):
        with pytest.raises(ValueError):
            iq.check_tangent_bound(chi, 1, [[0.5, 0.3]])


class TestChainBodies:
    def test_unit_interval_chain_is_constant(self):
        vs = iq.check_chain(unit_interval(), 1, [-0.5, 0.0, 1.0, 2.0, 5.0])
        assert [v.name for v in vs] == ["chain[-1->-0.5]", "chain[-0.5->1]",
                                        "chain[1->2]", "chain[2->5]"]
        for v in vs:
            assert v.status == iq.EQUALITY
            assert v.lhs.value == pytest.approx(1.0, rel=1e-9)
            assert v.rhs.value == pytest.approx(1.0, rel=1e-9)
            assert v.metadata["skipped_p"] == [0.0]
            assert v.metadata["concavity_index"] == 1.0

    def test_square_axis_values_are_closed_form(self):
        vs = iq.check_chain(cc.cube(2, 1.0), 1, [2.0], directions=[[1.0, 0.0]])
        (v,) = vs
        assert v.name == "chain[-1->2]"
        assert v.status == iq.HOLDS
        assert v.lhs.value == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-9)
        assert v.rhs.value == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("bad", [[], [-1.5, 1.0], [float("nan")],
                                     [float("inf")]])
    def test_bad_grid_rejected(self, bad):
        with pytest.raises(ValueError):
            iq.check_chain(cc.cube(1, 1.0), 1, bad)

    def test_zero_only_grid_rejected_for_bodies(self):
        with pytest.raises(ValueError):
            iq.check_chain(cc.cube(1, 1.0), 1, [0.0])

    def test_direction_width_checked(self):
        with pytest.raises(ValueError):
            iq.check_chain(cc.cube(2, 1.0), 1, [1.0], directions=[[1.0]])


class TestChainFunctions:
    def test_exponential_chain_is_constant_through_zero(self):
        vs = iq.check_chain(f_exp, 1, [-0.5, 0.0, 1.0, 2.0, 5.0])
        assert [v.name for v in vs] == ["chain[-1->-0.5]", "chain[-0.5->0]",
                                        "chain[0->1]", "chain[1->2]",
                                        "chain[2->5]"]
        for v in vs:
            assert v.status == iq.EQUALITY
            assert v.lhs.value == pytest.approx(1.0, rel=1e-6)
            assert v.metadata["skipped_p"] == []
            assert v.metadata["concavity_index"] == 0.0

    def test_gaussian_chain_strictly_decreases(self):
        vs = iq.check_chain(std_gauss, 1, [-0.5, 0.0, 1.0, 2.0, 5.0])
        levels = {-0.5: 2.123648272896924, 0.0: 1.8873645212254018,
                  1.0: 1.5957691216057304, 2.0: math.sqrt(2.0),
                  5.0: 1.1122431920570883}
        assert vs[0].rhs.value == pytest.approx(SQRT_2PI, rel=1e-12)
        for v in vs:
            assert v.status == iq.HOLDS
            assert v.margin > 0.0
            assert v.lhs.value == pytest.approx(levels[v.metadata["p_inner"]],
                                                rel=1e-9)

    def test_gaussian_approaches_endpoint(self):
        (v,) = iq.check_chain(std_gauss, 1, [-0.99])
        assert v.status == iq.HOLDS
        assert v.lhs.value > 0.985 * v.rhs.value


# (K, m) pairs on which rs-body and rs-single on chi_K agree; the ids "n-m"
# are simplex(n) at order m
_RS_BODY_CASES = ([(cc.simplex(1), m) for m in range(1, 7)]
                  + [(cc.simplex(2), m) for m in (1, 2, 3)]
                  + [(cc.simplex(3), m) for m in (1, 2)]
                  + [(cc.cube(2, 1.0), m) for m in (1, 2)]
                  + [(cc.from_vertices(make_rng(7, 5).normal(size=(5, 2))), m)
                     for m in (1, 2)]
                  + [(cc.cube(3, 1.0), 2)]
                  + [(cc.from_vertices([[2.0, 1.0], [3.5, 1.2], [3.0, 2.4], [2.2, 2.0]]), m)
                     for m in (1, 2)])
_RS_BODY_IDS = ([f"1-{m}" for m in range(1, 7)] + ["2-1", "2-2", "2-3", "3-1", "3-2"]
                + ["square-1", "square-2", "pentagon-1", "pentagon-2", "cube3-2",
                   "quad-off-origin-1", "quad-off-origin-2"])


class TestRsSingle:
    def test_chi_m1_equality(self):
        v = iq.check_rs_single(chi, 1)
        assert v.status == iq.EQUALITY
        assert v.rhs.value == pytest.approx(2.0, rel=1e-12)
        assert (v.lhs.value, v.lhs.std_error) == (2.0, 0.0)
        assert v.metadata["route"] == "mixed-volume"
        assert v.metadata["samples"] == 0

    def test_chi_m2_equality(self):
        v = iq.check_rs_single(chi, 2)
        assert v.status == iq.EQUALITY
        assert v.rhs.value == pytest.approx(3.0, rel=1e-12)
        assert (v.lhs.value, v.lhs.std_error) == (3.0, 0.0)

    @pytest.mark.parametrize("m", [3, 6])
    def test_chi_high_order_equality(self, m):
        v = iq.check_rs_single(chi, m)
        assert v.status == iq.EQUALITY
        assert v.lhs.value == pytest.approx(m + 1.0, rel=1e-12)
        assert v.rhs.value == pytest.approx(m + 1.0, rel=1e-12)

    def test_disc_is_strict(self):
        v = iq.check_rs_single(disc_chi, 1)
        assert v.status == iq.HOLDS
        assert v.rhs.value == pytest.approx(6.0 * math.pi, rel=1e-12)
        assert v.lhs.value == pytest.approx(4.0 * math.pi, rel=1e-12)
        assert v.lhs.std_error == 0.0
        assert v.metadata["route"] == "ball-overlap"

    def test_simplex_indicator_takes_meeting_volume(self):
        # (chi_K, chi_K) meet where x lies in D(K) = K - K, so the L1 norm is
        # vol D(K) = 3 exactly; the right side is binom(4, 2) vol(K) = 3
        v = iq.check_rs_single(make_fn("indicator", cc.simplex(2)), 1)
        assert v.metadata["route"] == "mixed-volume"
        assert v.metadata["samples"] == 0
        assert v.lhs.value == pytest.approx(3.0, abs=1e-12)
        assert v.rhs.value == pytest.approx(3.0, abs=1e-12)
        assert v.sigma_combined == 0.0
        assert v.status == iq.EQUALITY

    @pytest.mark.parametrize("K,m", _RS_BODY_CASES, ids=_RS_BODY_IDS)
    def test_indicator_matches_rs_body(self, K, m):
        # rs-body is rs-single on chi_K: (chi_K, ..., chi_K) meets exactly on
        # D^m(K), so both checks give the same left side, byte for byte, and
        # simplices reach Schneider's equality.  A body without the origin
        # is moved by its vertex mean first, as rs-body moves it.
        moved = cc.translate(K, -K.vertices.mean(axis=0)) if K.offsets.min() < 0 else K
        single = iq.check_rs_single(make_fn("indicator", moved), m)
        body = iq.check_rs_body(K, m)
        assert single.metadata["route"] == body.metadata["route"]
        assert body.metadata["route"] == "mixed-volume"
        assert (single.lhs.value, single.lhs.std_error) == (body.lhs.value, body.lhs.std_error)
        assert single.rhs.value == pytest.approx(body.rhs.value, rel=1e-12)
        assert single.status == body.status
        simplex = len(K.vertices) == K.dim + 1
        assert body.status == (iq.EQUALITY if simplex else iq.HOLDS)

    def test_cube_indicator_at_m2_is_exact(self):
        # D^2 of a box is the product of the D^2 of its edges: 12^3 for [-1, 1]^3
        v = iq.check_rs_single(make_fn("indicator", cc.cube(3, 1.0)), 2)
        assert v.metadata["route"] == "mixed-volume"
        assert v.lhs.value == pytest.approx(1728.0, rel=1e-12)
        assert v.lhs.std_error == 0.0

    def test_many_vertex_sums_are_sampled(self):
        # a 10-gon at m = 3 has 10^4 vertex sums in R^6, past the hull bound
        t = 2.0 * math.pi * np.arange(10) / 10
        K = cc.from_vertices(np.c_[np.cos(t), np.sin(t)])
        assert len(K.vertices) ** 4 > iq._MEETING_SUMS_MAX
        v = iq.check_rs_single(make_fn("indicator", K), 3, samples=64)
        assert v.metadata["route"] == "pointwise-sup"
        assert v.metadata["samples"] == 64
        assert v.metadata["row_kernel"] == "meeting-test"

    def test_exponential_is_exact(self):
        v = iq.check_rs_single(f_exp, 1, samples=800)
        assert (v.metadata["route"], v.metadata["samples"]) == ("mixed-volume", 0)
        assert v.rhs.value == pytest.approx(2.0, rel=1e-12)
        # sup_z e^-z e^-(z - x) over z >= max(0, x) is e^-|x|: L1 norm 2
        assert (v.lhs.value, v.lhs.std_error) == (pytest.approx(2.0, rel=1e-14), 0.0)
        assert v.status == iq.EQUALITY

    def test_budget_guard(self):
        with pytest.raises(NotImplementedError):
            iq.check_rs_single(disc_chi, 4)


_TRIANGLE = [[-0.4, -0.3], [0.8, -0.1], [-0.1, 0.6]]     # area 0.51, the origin inside


def _mixed_l1(fbar) -> float:
    """The exact L1 norm of a tuple's sup-convolution, asserting its route."""
    lhs, info = iq._star_l1(fbar, iq._factor_boxes(fbar), 0, None)
    assert info == {"route": "mixed-volume", "samples": 0}
    assert lhs.std_error == 0.0
    return lhs.value


class TestMixedVolumeL1:
    """The `mixed-volume` route against values worked out by hand.  For
    f_j = e^-||x||_K_j, -log S(x) is the inf-convolution g of the gauges,
    and the layer cake gives ||S||_1 = (nm)! vol{g <= 1}."""

    def test_exponential_on_the_square(self):
        sq = make_fn("exponential", cc.cube(2, 1.0))
        # m = 1: g is the gauge of the hull of C and -C, C itself: 2! * 4
        assert _mixed_l1([sq] * 2) == pytest.approx(8.0, rel=1e-14)
        # m = 2: ||v||_inf = ||M v||_1 with M(a, b) = ((a + b) / 2, (a - b) / 2),
        # det 1/2, so g splits by the coordinates of M x_j into the range of
        # {0, u, v}, whose unit ball is conv{+-(1, 0), +-(0, 1), +-(1, 1)}
        # of area 3; the Jacobian 2^2 times (2! * 3)^2 is 144
        assert _mixed_l1([sq] * 3) == pytest.approx(144.0, rel=1e-13)

    def test_exponential_on_the_unit_interval(self):
        # the gauge of [0, 1] is x on x >= 0: at m = 1 S = e^-|x|, and at
        # m = 2 g = 3 max(0, x_1, x_2) - x_1 - x_2, whose unit ball is three
        # triangles of area 1/2: 2! * 3/2 = 3
        assert _mixed_l1([f_exp] * 2) == pytest.approx(2.0, rel=1e-14)
        assert _mixed_l1([f_exp] * 3) == pytest.approx(3.0, rel=1e-14)

    def test_exponential_on_a_triangle_at_m1(self):
        # the origin lies inside T = conv{a, b, c}, so the hull of T and -T is
        # the hexagon +-a, +-b, +-c of area 2 vol T: 2! * 2 * 0.51
        T = make_fn("exponential", cc.from_vertices(_TRIANGLE))
        assert _mixed_l1([T] * 2) == pytest.approx(2.04, rel=1e-13)

    def test_exponential_with_an_indicator_on_a_triangle(self):
        # A = T and B = -T (or the reverse): vol(tT - T) = vol T (t^2 + 4t + 1),
        # the mixed area V(T, -T) being 2 vol T as vol(T - T) = 6 vol T; so
        # the L1 norm is (2 + 4 + 1) vol T
        K = cc.from_vertices(_TRIANGLE)
        pair = [make_fn("exponential", K), make_fn("indicator", K)]
        assert _mixed_l1(pair) == pytest.approx(7.0 * 0.51, rel=1e-13)
        assert _mixed_l1(pair[::-1]) == pytest.approx(7.0 * 0.51, rel=1e-13)

    def test_exponential_with_two_square_indicators(self):
        # A = {(u, u)}, B = C x C: the first (and the second) coordinates of
        # the two blocks form the square [-1, 1]^2 plus t times the diagonal
        # segment, of area 4 + 8t; int e^-t (8t + 4)^2 dt = 128 + 64 + 16
        C = cc.cube(2, 1.0)
        fbar = [make_fn("exponential", C)] + [make_fn("indicator", C)] * 2
        assert _mixed_l1(fbar) == pytest.approx(208.0, rel=1e-13)

    def test_amplitudes_and_offsets_scale_the_norm(self):
        # the p-family at p = 1 is e^(1 - |x|) on cube(1): height e per factor
        K = cc.cube(1, 1.0)
        p1 = LogConcaveFunction(profile_from_kind("pfamily", 1.0, 1), K, np.zeros(1))
        assert _mixed_l1([p1, p1]) == pytest.approx(2.0 * math.e ** 2, rel=1e-14)
        loud = make_fn("exponential", K, amplitude=3.0)
        assert _mixed_l1([loud, two_sided]) == pytest.approx(3.0 * 2.0, rel=1e-14)

    @pytest.mark.parametrize("K,m", [(cc.cube(2, 1.0), 1), (cc.cube(2, 1.0), 2),
                                     (cc.from_vertices(_TRIANGLE), 1),
                                     (cc.from_vertices(_TRIANGLE), 2),
                                     (cc.simplex(2, "centered"), 2)],
                             ids=["square-1", "square-2", "triangle-1", "triangle-2",
                                  "centred-simplex-2"])
    def test_hull_gauge_is_the_lp_inf_convolution(self, K, m):
        # the slotted vertices (v, ..., v) and -v in block i, built here,
        # span a hull whose gauge the HiGHS LP matches at random points, and
        # whose volume times (nm)! is the route's norm
        n, d = K.dim, K.dim * m
        P = [np.tile(v, m) for v in K.vertices]
        for i in range(m):
            for v in K.vertices:
                p = np.zeros(d)
                p[i * n:(i + 1) * n] = -v
                P.append(p)
        hull = ConvexHull(np.array(P))
        X = make_rng(29, m).normal(size=(40, d))
        gauge = np.max(X @ hull.equations[:, :-1].T / -hull.equations[:, -1], axis=1)
        np.testing.assert_allclose(inf_convolution_gauge([K] * (m + 1), X), gauge,
                                   rtol=1e-9)
        f = make_fn("exponential", K)
        assert _mixed_l1([f] * (m + 1)) == pytest.approx(
            math.factorial(d) * hull.volume, rel=1e-12)

    def test_triangle_at_m2(self):
        T = make_fn("exponential", cc.from_vertices(_TRIANGLE))
        assert _mixed_l1([T] * 3) == pytest.approx(2.8764, rel=1e-12)

    def test_indicator_triple_keeps_the_meeting_volume(self):
        # catalog random-5: the exact hull volume of the meeting route it replaces
        from mthorder.harness import _random_triple
        assert _mixed_l1(_random_triple(make_rng(5, 907))) == pytest.approx(
            8.579039187180024, rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_exponential_triples_against_midpoint_grids(self, seed):
        # catalog random-0 and random-3, three exponentials each: midpoint
        # sums of the closed-form 1-D sups over [-40, 40]^2, where S < 1e-9
        # outside, converge to the exact norm; it lies within the gap between
        # the h and h/2 grids of the finer one
        from mthorder.harness import _random_triple
        fbar = _random_triple(make_rng(seed, 907))
        assert all(f.profile.kind == "exponential" for f in fbar)
        boxes = iq._factor_boxes(fbar)

        def grid(N):
            h = 80.0 / N
            g = -40.0 + h * (np.arange(N) + 0.5)
            return h * h * sum(iq._sup_rows(fbar, boxes, np.stack(
                np.meshgrid(a, g, indexing="ij"), -1).reshape(-1, 2))[1].sum()
                for a in np.array_split(g, 4))

        coarse, fine = grid(200), grid(400)
        assert abs(_mixed_l1(fbar) - fine) <= abs(coarse - fine)


class TestRsMulti:
    def test_simplex_pair_meets_on_difference_body(self):
        # (chi_K, chi_K) meet where x lies in D(K) = K - K: vol 3 exactly
        simplex_chi = make_fn("indicator", cc.simplex(2))
        # and the int-convolution peaks at x = 0 with the area 1/2 of K:
        # lhs 1/2 * 3 meets rhs binom(4, 2) (1/2)^2 exactly
        v = iq.check_rs_multi([simplex_chi, simplex_chi])
        assert v.metadata["route"] == "mixed-volume"
        assert v.metadata["sup_route"] == "common-volume"
        assert v.metadata["sup_norm"] == pytest.approx(0.5, rel=1e-12)
        assert v.metadata["l1_norm"] == pytest.approx(3.0, abs=1e-12)
        assert v.rhs.value == pytest.approx(1.5, abs=1e-12)
        assert v.lhs.std_error == 0.0
        assert v.status == iq.EQUALITY

    def test_supports_meeting_at_the_origin_only(self):
        # [0, 1] and [-1, 0] meet only in 0 at x = 0, which is also their
        # shift difference; laying the midpoint of one on the other's finds
        # the sup 1 at x = 1, and the L1 norm is the length of [0, 2]
        left = make_fn("indicator", cc.from_vertices([[-1.0], [0.0]]))
        v = iq.check_rs_multi([chi, left])
        assert v.metadata["sup_norm"] == pytest.approx(1.0, rel=1e-12)
        assert v.metadata["sup_argmax"] == pytest.approx([1.0], abs=1e-6)
        assert v.lhs.value == pytest.approx(2.0, rel=1e-12)
        assert v.rhs.value == pytest.approx(2.0, rel=1e-12)
        assert v.status == iq.EQUALITY

    def test_ball_pair_is_exact(self):
        # the disc of radius 1/2 at (1/4, 0) lies in the unit disc: sup
        # pi / 4, and the L1 norm is the disc of radius 3/2
        small = LogConcaveFunction(profile_from_kind("indicator", ambient_dim=2),
                                   cc.ball(2, 0.5), np.array([0.25, 0.0]))
        v = iq.check_rs_multi([disc_chi, small])
        assert v.metadata["sup_norm"] == pytest.approx(math.pi / 4.0, rel=1e-12)
        assert v.lhs.value == pytest.approx(9.0 * math.pi ** 2 / 16.0, rel=1e-12)
        assert v.lhs.std_error == 0.0
        assert v.status == iq.HOLDS

    def test_chi_pair_equality(self):
        v = iq.check_rs_multi([chi, chi])
        assert v.status == iq.EQUALITY
        assert v.metadata["sup_route"] == "closed-form"
        assert v.metadata["sup_evals"] > 0
        assert v.rhs.value == pytest.approx(2.0, rel=1e-12)
        assert v.lhs.value == pytest.approx(2.0, rel=0.05)

    def test_chi_triple_equality(self):
        v = iq.check_rs_multi([chi, chi, chi], outer_samples=40_000)
        assert v.status == iq.EQUALITY
        assert v.rhs.value == pytest.approx(3.0, rel=1e-12)
        assert v.metadata["sup_norm"] == pytest.approx(1.0, rel=0.03)
        assert v.metadata["l1_norm"] == pytest.approx(3.0, rel=0.03)

    def test_two_sided_exp_pair_is_strict(self):
        v = iq.check_rs_multi([two_sided, two_sided], outer_samples=600)
        assert v.status == iq.HOLDS
        assert v.rhs.value == pytest.approx(8.0, rel=1e-12)
        assert abs(v.lhs.value - 2.0) <= 4.0 * v.lhs.std_error
        assert v.metadata["sup_norm"] == pytest.approx(1.0, rel=1e-9)
        # the sup value is the deterministic rule at the search's argmax
        at_argmax = iq.int_convolution([two_sided, two_sided],
                                       v.metadata["sup_argmax"])
        assert v.metadata["sup_norm"] == at_argmax.value

    def test_budget_guard(self):
        with pytest.raises(NotImplementedError):
            iq.check_rs_multi([chi] * 6)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            iq.check_rs_multi([chi, disc_chi])


def _polytope_triple():
    triangle = cc.from_vertices([[-0.4, -0.3], [0.8, -0.1], [-0.1, 0.6]])
    flat = profile_from_kind("indicator", ambient_dim=2)
    return [make_fn("indicator", cc.cube(2)),
            LogConcaveFunction(flat, triangle, np.array([-0.2, -0.2])),
            make_fn("indicator", cc.simplex(2, "centered"))]


class TestNoBodyPerPoint:
    """Polytope meetings are batched volumes: no route builds a body (an LP
    and a hull) per covariogram row or per int-convolution point."""

    @staticmethod
    def _count(monkeypatch, module, name):
        calls = []
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
        return calls

    def test_simplex3_covariogram_rows(self, monkeypatch):
        K = cc.simplex(3)
        built = self._count(monkeypatch, cc, "from_halfspaces")
        B = make_rng(71, 0).uniform(-0.5, 0.5, size=(64, 2, 3))
        assert np.all(cov.covariogram_body_many(K, B) >= 0.0)
        assert built == []

    def test_rs_multi_polytope_triple(self, monkeypatch):
        fbar = _polytope_triple()
        built = self._count(monkeypatch, cc, "from_halfspaces")
        volumes = self._count(monkeypatch, cov, "common_volume")
        stencils = []
        real_search = iq.maximize_logconcave

        def search(F, x0, **kwargs):
            return real_search(lambda Z: stencils.append(len(Z)) or F(Z), x0, **kwargs)
        monkeypatch.setattr(iq, "maximize_logconcave", search)
        v = iq.check_rs_multi(fbar)
        assert built == []
        assert v.status == iq.HOLDS and v.metadata["sup_route"] == "common-volume"
        # one call for the two starts, one per compass stencil, one at the argmax
        assert len(volumes) == len(stencils) + 2
        rows = [len(shifts) for _, shifts in volumes]
        assert rows[1:-1] == stencils and rows[0] == 2 and rows[-1] == 1
        assert sum(rows) == v.metadata["sup_evals"] + 1


def _unequal_discs():
    """Indicators of the unit disc and of discs of radius 0.5 and 0.7
    shifted to (0.2, 0) and (0, 0.1)."""
    return [disc_chi,
            LogConcaveFunction(profile_from_kind("indicator"), cc.ball(2, 0.5),
                               np.array([0.2, 0.0])),
            LogConcaveFunction(profile_from_kind("indicator"), cc.ball(2, 0.7),
                               np.array([0.0, 0.1]))]


class TestMeetingTest:
    """Above one dimension the pointwise sup of an indicator tuple is its
    height where the translated supports meet: exact, and one batch for all
    draws, checked here on the seed-0 draws of the checks."""

    @staticmethod
    def _draws(monkeypatch, run):
        """The translates and pointwise sups of the `pointwise-sup` route of run()."""
        seen = []
        real = iq._sup_values

        def spy(fbar, boxes, X):
            vals, kernel = real(fbar, boxes, X)
            seen.append((X.copy(), vals, kernel))
            return vals, kernel
        monkeypatch.setattr(iq, "_sup_values", spy)
        v = run()
        (X, vals, kernel), = seen
        assert kernel == v.metadata["row_kernel"] == "meeting-test"
        return v, X, vals

    def test_equal_discs_meet_where_the_miniball_fits(self, monkeypatch):
        v, X, vals = self._draws(monkeypatch, lambda: iq.check_rs_body(cc.ball(2, 1.0), 2))
        assert len(X) == 1_500 and set(vals.tolist()) == {0.0, 1.0}
        radius = np.array([cc.miniball(np.vstack([np.zeros(2), x.reshape(2, 2)]))[1]
                           for x in X])
        assert np.array_equal(vals == 1.0, radius < 1.0)
        # draw 271 meets with miniball radius 0.99993
        assert vals[271] == 1.0 and 0.9999 < radius[271] < 1.0
        # D^2 of the disc lies in the box [-2, 2]^4 of volume 256
        assert v.lhs.value == pytest.approx(256.0 * 515 / 1_500, rel=1e-14)
        assert v.status == iq.HOLDS

    def test_three_balls_agree_with_the_triangle_radius(self, monkeypatch):
        # the miniball of the centres (0, x_1, x_2) by triangle geometry,
        # not by the package's subset search
        v, X, vals = self._draws(monkeypatch,
                                 lambda: iq.check_rs_body(cc.ball(3, 1.0), 2, samples=300))
        meet = np.array([three_point_radius(np.vstack([np.zeros(3), x.reshape(2, 3)])) <= 1.0
                         for x in X])
        assert np.array_equal(vals == 1.0, meet) and meet.sum() == 38
        assert v.status == iq.HOLDS

    @pytest.mark.parametrize("points, batched", [(17, True), (40, False)])
    def test_many_facet_hull_m2(self, monkeypatch, points, batched):
        # past the vertex-sum cap: a hull with F^3 <= _LASSERRE_WORK_MAX
        # (F facet normals) takes one common-volume batch, one with more the
        # Chebyshev LP per draw whose boxes meet; both against HiGHS
        P = make_rng(1, points).normal(size=(points, 3))
        K = cc.from_vertices(P / np.linalg.norm(P, axis=1)[:, None])
        assert (len(K.normals) ** 3 <= iq._LASSERRE_WORK_MAX) == batched
        volumes = TestNoBodyPerPoint._count(monkeypatch, cov, "common_volume")
        v, X, vals = self._draws(monkeypatch, lambda: iq.check_rs_body(K, 2, samples=64))
        assert len(volumes) == int(batched)
        meet = np.array([polytopes_meet([K] + [cc.translate(K, t) for t in x.reshape(2, 3)])
                         for x in X])
        assert np.array_equal(vals == 1.0, meet) and 0 < meet.sum() < 64

    def test_unequal_discs_agree_with_the_candidate_oracle(self, monkeypatch):
        fbar = _unequal_discs()
        v, X, vals = self._draws(monkeypatch, lambda: iq.check_rs_multi(fbar))
        shifts = np.array([[0.0, 0.0], [0.2, 0.0], [0.0, 0.1]])
        meet = np.array([discs_meet(shifts + np.vstack([np.zeros(2), x.reshape(2, 2)]),
                                    [1.0, 0.5, 0.7]) for x in X])
        assert np.array_equal(vals == 1.0, meet) and meet.sum() == 327
        # two slivers of area 1.3e-6 and 4.4e-5
        assert meet[271] and meet[1136]
        assert v.metadata["l1_norm"] == pytest.approx(10.2 ** 2 * 327 / 1_500, rel=1e-14)
        assert v.status == iq.HOLDS

    def test_one_common_volume_for_all_draws(self, monkeypatch):
        volumes = TestNoBodyPerPoint._count(monkeypatch, cov, "common_volume")

        def refuse(*args, **kwargs):
            raise AssertionError("no search runs per draw for an indicator tuple")
        monkeypatch.setattr(iq, "maximize_logconcave", refuse)
        monkeypatch.setattr(iq, "_feasible_point", refuse)
        v = iq.check_rs_body(cc.ball(2, 1.0), 2)
        # the 841 draws whose translated boxes meet
        assert [len(shifts) for _, shifts in volumes] == [841]
        assert v.metadata["samples"] == 1_500

    def test_ten_gon_m3_takes_one_batch(self, monkeypatch):
        # 10^4 vertex sums, past the vertex-sum cap: the sampled meeting
        # test is one batch of stacked rows, against the qhull oracle
        t = 2.0 * math.pi * np.arange(10) / 10
        K = cc.from_vertices(np.c_[np.cos(t), np.sin(t)])
        volumes = TestNoBodyPerPoint._count(monkeypatch, cov, "common_volume")
        v, X, vals = self._draws(monkeypatch,
                                 lambda: iq.check_rs_body(K, 3, samples=64))
        assert len(volumes) == 1
        member = np.array([dm_support_membership(K, x) for x in X])
        assert np.array_equal(vals == 1.0, member) and 0 < member.sum() < 64


class TestBudgets:
    def test_shard_sigma_needs_two_values(self):
        assert iq._shard_sigma(np.array([1.0, 3.0])) == pytest.approx(1.0, rel=1e-15)
        with pytest.raises(ValueError, match="two values"):
            iq._shard_sigma(np.array([2.0]))


class TestZhangPettyBodies:
    def test_simplex_attains_lower_bound(self):
        left, right = iq.check_zhang_body(cc.simplex(2), 1)
        assert (left.name, right.name) == ("zhang-body", "petty-body")
        assert left.status == iq.EQUALITY
        assert left.lhs.value == pytest.approx(1.5, rel=1e-12)
        assert left.rhs.value == pytest.approx(1.5, rel=1e-9)
        assert right.status == iq.HOLDS
        assert right.rhs.value == pytest.approx(math.pi ** 2 / 4.0, rel=5e-3)

    def test_square_sits_between_the_bounds(self):
        left, right = iq.check_zhang_body(cc.cube(2, 1.0), 1)
        assert left.status == iq.HOLDS
        assert left.rhs.value == pytest.approx(2.0, rel=1e-9)
        assert right.status == iq.HOLDS
        assert right.lhs.value == pytest.approx(2.0, rel=1e-9)

    def test_directions_are_those_each_side_drew(self):
        # both volumes are exact for the square and the disc at m = 1
        for v in iq.check_zhang_body(cc.cube(2, 1.0), 1):
            assert v.metadata["directions"] == [0, 0]
        left, right = iq.check_zhang_body(cc.cube(3), 2, directions=300)
        assert left.metadata["directions"] == [0, 300]
        assert right.metadata["directions"] == [300, 300]


class TestNormalizer:
    """`mellin.binom_root`, the normalizer of `check_chain` and `berwald_g`."""

    def test_binomial_value(self):
        assert ml.binom_root(1.0, 0.5) == pytest.approx(3.0, rel=1e-12)

    def test_gamma_value(self):
        # Gamma(3)^(-1/2)
        assert ml.binom_root(2.0, 0.0) == pytest.approx(
            1.0 / math.sqrt(2.0), rel=1e-12)

    def test_zero_p_limits(self):
        assert ml.binom_root(0.0, 0.0) == pytest.approx(
            math.exp(np.euler_gamma), rel=1e-12)
        assert ml.binom_root(0.0, 1.0) == pytest.approx(math.e, rel=1e-12)

    def test_window_snaps_to_limit(self):
        assert ml.binom_root(1e-9, 0.0) == ml.binom_root(0.0, 0.0)

    def test_continuity_at_zero(self):
        eps = 1e-5
        lim = ml.binom_root(0.0, 0.5)
        assert ml.binom_root(eps, 0.5) == pytest.approx(lim, rel=1e-4)
        assert ml.binom_root(-eps, 0.5) == pytest.approx(lim, rel=1e-4)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            ml.binom_root(1.0, -0.1)
