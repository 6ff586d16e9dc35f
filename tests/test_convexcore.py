import math

import numpy as np
import pytest

from mthorder import convexcore as cc
from mthorder import covariogram as cov
from mthorder.numerics import make_rng, max_slack
from oracles import covariogram_body, intersect_translates


def test_simplex_corner():
    K = cc.simplex(2, "corner")
    assert len(K.offsets) == 3
    want = {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)}
    assert {tuple(v) for v in K.vertices.tolist()} == want


def test_cube_1d_and_scaled_simplex():
    K = cc.cube(1, 1.0)
    assert K.vertices.min() == -1.0 and K.vertices.max() == 1.0
    S = cc.scale(cc.simplex(1, "corner"), 2.0)
    assert cc.volume(S).value == pytest.approx(2.0, abs=1e-12)
    assert S.vertices.min() == 0.0 and S.vertices.max() == 2.0


class TestGauge:
    def test_interval(self):
        K = cc.from_vertices([[-1.0], [2.0]])
        assert cc.gauge(K, [2.0]) == pytest.approx(1.0, abs=1e-12)
        assert cc.gauge(K, [-1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_cube(self):
        assert cc.gauge(cc.cube(2, 1.0), [2.0, 0.0]) == pytest.approx(2.0, abs=1e-12)

    def test_outside_every_dilate(self):
        K = cc.from_vertices([[0.0], [1.0]])
        assert cc.gauge(K, [-0.5]) == math.inf
        # brute force over a t-grid: no dilate t*[0,1] contains -0.5
        assert not any(-0.5 <= 0.0 and -0.5 <= t for t in np.linspace(0.01, 100, 500)
                       if -0.5 >= 0.0)

    def test_origin_required(self):
        K = cc.from_vertices([[1.0], [2.0]])
        with pytest.raises(cc.OriginNotContainedError):
            cc.gauge(K, [1.5])

    def test_homogeneity(self):
        gen = make_rng(3, 0)
        K = cc.simplex(2, "centered")
        for _ in range(50):
            x = gen.normal(size=2)
            t = float(gen.random()) * 3.0 + 0.1
            assert cc.gauge(K, t * x) == pytest.approx(t * cc.gauge(K, x), rel=1e-12)

    def test_gauge_many_matches_scalar(self):
        bodies = [cc.simplex(2, "centered"),
                  cc.ball(2, 1.5),
                  cc.ball(2, 1.5, center=[0.4, -0.7]),     # off-centre
                  cc.ball(3, 1.0, center=[0.2, 0.1, -0.3]),
                  cc.ball(2, 1.0, center=[1.0, 0.0])]      # origin on the boundary
        gen = make_rng(4, 0)
        for K in bodies:
            X = np.vstack([np.zeros(K.dim), gen.normal(size=(40, K.dim))])
            many = cc.gauge_many(K, X)
            assert many[0] == 0.0
            for x, g in zip(X, many):
                assert g == pytest.approx(cc.gauge(K, x), rel=1e-12)

    def test_gauge_many_ball_boundary_origin(self):
        B = cc.ball(2, 1.0, center=[1.0, 0.0])
        g = cc.gauge_many(B, [[2.0, 0.0], [1.0, 1.0], [-1.0, 0.0], [0.0, 1.0]])
        assert g[0] == pytest.approx(1.0, abs=1e-12)
        assert g[1] == pytest.approx(1.0, abs=1e-12)
        assert np.isinf(g[2]) and np.isinf(g[3])

    def test_gauge_many_ball_origin_outside(self):
        with pytest.raises(cc.OriginNotContainedError):
            cc.gauge_many(cc.ball(2, 1.0, center=[2.0, 0.0]), [[1.0, 0.0]])

    def test_ball_gauge(self):
        B = cc.ball(2, 2.0)
        assert cc.gauge(B, [0.0, 3.0]) == pytest.approx(1.5, abs=1e-12)
        Boff = cc.ball(2, 2.0, center=[1.0, 0.0])   # origin interior, off-center
        assert cc.gauge(Boff, [3.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
        assert cc.gauge(Boff, [-1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)


class TestIntersectTranslates:
    """The qhull halfspace route (`oracles.intersect_translates`) and the
    batched Lasserre volume of `covariogram` agree on meetings of translates."""

    def test_single_shift(self):
        K = cc.from_vertices([[0.0], [1.0]])
        J = intersect_translates(K, [[0.5]])
        assert J.vertices.min() == pytest.approx(0.5, abs=1e-10)
        assert J.vertices.max() == pytest.approx(1.0, abs=1e-10)
        assert cov.common_volume([K, K], [[[0.0], [0.5]]])[0] == 0.5

    def test_two_shifts(self):
        K = cc.from_vertices([[0.0], [1.0]])
        J = intersect_translates(K, [[0.5], [-0.25]])
        assert J.vertices.min() == pytest.approx(0.5, abs=1e-10)
        assert J.vertices.max() == pytest.approx(0.75, abs=1e-10)
        assert cov.common_volume([K] * 3, [[[0.0], [0.5], [-0.25]]])[0] == 0.25

    def test_empty(self):
        K = cc.from_vertices([[0.0], [1.0]])
        assert intersect_translates(K, [[1.5]]) is None
        assert cov.common_volume([K, K], [[[0.0], [1.5]]])[0] == 0.0

    def test_zero_shift_keeps_volume(self):
        for K in [cc.simplex(2, "corner"), cc.cube(2, 1.0)]:
            J = intersect_translates(K, np.zeros((2, 2)))
            assert cc.volume(J).value == pytest.approx(cc.volume(K).value, rel=1e-9)
            assert covariogram_body(K, np.zeros((2, 2))).value == pytest.approx(
                cc.volume(K).value, rel=1e-12)

    def test_matches_the_stacked_system(self):
        # reference: K's rows once per translate, K cap (x_1 + K) cap ...
        gen = make_rng(31, 0)
        bodies = [cc.simplex(2), cc.simplex(3), cc.cube(3, 0.5)]
        bodies += [cc.from_vertices(gen.standard_normal((k, 2))) for k in (3, 5, 8)]
        bodies += [cc.from_vertices(gen.standard_normal((k, 3))) for k in (5, 9)]
        empty = 0
        for K in bodies:
            lo, hi = cc.bounding_box(K)
            for _ in range(24):
                m = int(gen.integers(1, 4))
                xbar = (hi - lo) * gen.uniform(-1.0, 1.0, size=(m, K.dim))
                A = np.vstack([K.normals] * (m + 1))
                b = np.concatenate([K.offsets] + [K.offsets + K.normals @ x for x in xbar])
                try:
                    want = cc.volume(cc.from_halfspaces(A, b)).value
                except cc.DegenerateBodyError:
                    want = None
                J = intersect_translates(K, xbar)
                got = covariogram_body(K, xbar).value
                if want is None:
                    empty += 1
                    assert J is None
                    assert got == pytest.approx(0.0, abs=1e-14)
                else:
                    assert cc.volume(J).value == pytest.approx(want, rel=1e-12, abs=1e-14)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-14)
        assert 0 < empty < 24 * len(bodies)


class TestVolume:
    def test_simplex_exact(self):
        # each vertex is solved from the halfspaces qhull names for it
        assert cc.volume(cc.simplex(2, "corner")).value == 0.5
        assert {tuple(v) for v in cc.simplex(3).vertices.tolist()} == {
            (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)}

    def test_cube3_exact(self):
        assert cc.volume(cc.cube(3, 1.0)).value == pytest.approx(8.0, rel=1e-15)

    def test_simplex3_exact(self):
        est = cc.volume(cc.simplex(3, "corner"))
        assert est.value == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert est.std_error == 0.0

    def test_octahedron_from_vertices(self):
        K = cc.from_vertices(np.vstack([np.eye(3), -np.eye(3)]))
        assert cc.volume(K).value == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert len(K.offsets) == 8

    def test_ball(self):
        assert cc.volume(cc.ball(2, 1.0)).value == pytest.approx(math.pi, rel=1e-12)
        assert cc.volume(cc.ball(3, 2.0)).value == pytest.approx(32.0 * math.pi / 3.0, rel=1e-12)

    def test_ball_beyond_three_dimensions(self):
        assert cc.volume(cc.ball(4, 1.0)).value == pytest.approx(math.pi ** 2 / 2.0, rel=1e-14)
        assert cc.volume(cc.ball(5, 2.0)).value == pytest.approx(
            32.0 * 8.0 * math.pi ** 2 / 15.0, rel=1e-14)

    def test_scaling_law(self):
        K = cc.simplex(2, "centered")
        assert cc.volume(cc.scale(K, 3.0)).value == pytest.approx(
            9.0 * cc.volume(K).value, rel=1e-9)

    def test_found_once_per_body(self, monkeypatch):
        calls = []
        real = cc.planar_hull
        monkeypatch.setattr(cc, "planar_hull", lambda P: calls.append(len(P)) or real(P))
        K = cc.from_vertices(np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]]))
        calls.clear()
        assert [cc.volume(K).value for _ in range(3)] == [2.0, 2.0, 2.0]
        assert len(calls) == 1
        assert cc.volume(cc.scale(K, 2.0)).value == 8.0 and len(calls) == 2


class TestFacets:
    def test_interval(self):
        F = cc.facets(cc.from_vertices([[0.0], [1.0]]))
        pairs = sorted((float(n[0]), float(a)) for n, a in zip(F.normals, F.areas))
        assert pairs == [(-1.0, 1.0), (1.0, 1.0)]

    def test_cube2(self):
        F = cc.facets(cc.cube(2, 1.0))
        assert len(F) == 4
        assert np.allclose(sorted(F.areas), [2.0, 2.0, 2.0, 2.0])

    def test_corner_simplex(self):
        F = cc.facets(cc.simplex(2, "corner"))
        got = sorted(zip(np.round(F.normals, 6).tolist(), np.round(F.areas, 9)))
        s = 1.0 / math.sqrt(2.0)
        want = sorted([([-1.0, 0.0], 1.0), ([0.0, -1.0], 1.0),
                       ([round(s, 6), round(s, 6)], round(math.sqrt(2.0), 9))])
        assert got == want

    @pytest.mark.parametrize("make", [
        lambda: cc.simplex(2, "centered"),
        lambda: cc.cube(2, 0.7),
        lambda: cc.simplex(3, "corner"),
        lambda: cc.cube(3, 1.3),
        lambda: cc.from_vertices([[0, 0], [2, 0], [2, 1], [0.5, 2.0], [-0.5, 1.0]]),
    ])
    def test_closedness(self, make):
        F = cc.facets(make())
        assert np.linalg.norm(F.areas @ F.normals) < 1e-9

    def test_ball_rejected(self):
        with pytest.raises(ValueError):
            cc.facets(cc.ball(2, 1.5))

    def test_simplex3_total_area(self):
        F = cc.facets(cc.simplex(3, "corner"))
        assert np.sum(F.areas) == pytest.approx(1.5 + math.sqrt(3.0) / 2.0, rel=1e-9)


class TestConstruction:
    def test_from_vertices_roundtrip(self):
        pts = [[0, 0], [2, 0], [2, 1], [0.5, 2.0], [-0.5, 1.0]]
        K = cc.from_vertices(pts)
        assert cc.volume(K).value > 0
        assert len(K.vertices) == 5

    def test_degenerate_rejected(self):
        with pytest.raises(cc.DegenerateBodyError):
            cc.from_vertices([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])

    def test_unbounded_rejected(self):
        with pytest.raises((cc.UnboundedBodyError, cc.DegenerateBodyError)):
            cc.from_halfspaces([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 1.0, 0.0])

    def test_redundant_halfspace_dropped(self):
        K = cc.from_halfspaces([[1.0], [-1.0], [1.0]], [1.0, 0.0, 5.0])
        assert len(K.offsets) == 2

    def test_near_duplicate_halfspace_dropped(self):
        A = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 0.0]]
        K = cc.from_halfspaces(A, [1.0, 1.0, 1.0, 1.0, 1.0 + 1e-13])
        assert len(K.offsets) == 4
        assert cc.volume(K).value == pytest.approx(4.0, rel=1e-12)

    def test_make_body_json(self):
        K = cc.make_body({"kind": "cube", "dim": 2, "halfwidth": 1.0})
        assert cc.volume(K).value == pytest.approx(4.0)
        B = cc.make_body({"kind": "ball", "dim": 2, "radius": 2.0})
        assert B.radius == 2.0
        S = cc.make_body({"kind": "simplex", "dim": 2, "variant": "centered"})
        assert cc.gauge(S, [0.0, 0.0]) == 0.0

    def test_ball_1d_is_interval(self):
        B = cc.ball(1, 2.0)
        assert B.kind == "polytope"
        assert cc.volume(B).value == pytest.approx(4.0)


def _assert_miniball(points, centre, radius, tol):
    c, r = cc.miniball(points)
    assert r == pytest.approx(radius, abs=tol)
    np.testing.assert_allclose(c, centre, atol=tol)
    assert np.linalg.norm(np.asarray(points, dtype=float) - c, axis=1).max() <= r + 1e-12


def test_miniball():
    _assert_miniball([[0.0, 0.0], [2.0, 0.0]], [1.0, 0.0], 1.0, 1e-10)
    tri = [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2.0]]
    _assert_miniball(tri, [0.5, 0.5 / math.sqrt(3.0)], 1.0 / math.sqrt(3.0), 1e-9)
    # an obtuse triangle's ball is its longest edge's
    obtuse = [[0.0, 0.0], [4.0, 0.0], [2.0, 0.1]]
    _assert_miniball(obtuse, [2.0, 0.0], 2.0, 1e-9)
    # a right triangle's ball is its hypotenuse's
    _assert_miniball([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]], [1.0, 1.0], math.sqrt(2.0), 1e-12)
    # corner tetrahedron: the ball through {e1,e2,e3} (radius sqrt(6)/3, center at
    # their centroid) already covers the origin and beats the full circumball
    tetra = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    _assert_miniball(tetra, [1.0 / 3.0] * 3, math.sqrt(6.0) / 3.0, 1e-8)
    # regular tetrahedron needs all four points on the boundary
    reg = [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
    _assert_miniball(reg, [0.0, 0.0, 0.0], math.sqrt(3.0), 1e-8)
    # one point is its own ball
    _assert_miniball([[0.3, -0.2, 1.0]], [0.3, -0.2, 1.0], 0.0, 0.0)


def test_chebyshev_lp_of_square():
    # the Chebyshev LP that from_halfspaces solves, from a corner of cube(2)
    K = cc.cube(2, 1.0)
    t, c = max_slack(K.normals, K.offsets, np.ones(len(K.offsets)), K.vertices[0])
    assert t == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(c, 0.0, atol=1e-12)


def test_outer_radius():
    assert cc.outer_radius(cc.ball(2, 1.5, center=[3.0, 4.0])) == 6.5
    assert cc.outer_radius(cc.cube(3, 2.0)) == pytest.approx(2.0 * math.sqrt(3.0))
    assert cc.outer_radius(cc.from_vertices([[-1.0], [2.5]])) == 2.5


def _qhull_polygon(normals, offsets):
    """Vertices and irredundant rows of {a_i . x <= b_i} from qhull, the
    oracle for the planar path (same unit rows, same Chebyshev centre)."""
    from scipy.spatial import ConvexHull, HalfspaceIntersection
    A = np.asarray(normals, dtype=float)
    lens = np.linalg.norm(A, axis=1)
    A, b = A / lens[:, None], np.asarray(offsets, dtype=float) / lens
    _, c = max_slack(A, b, np.ones(len(b)), np.zeros(2))
    hs = HalfspaceIntersection(np.column_stack([A, -b]), c)
    verts = hs.intersections[ConvexHull(hs.intersections).vertices]
    keep = np.unique(np.concatenate(hs.dual_facets))
    return verts, np.column_stack([A[keep], b[keep]])


def _same_rows(P, Q, tol):
    """P and Q hold the same rows up to order."""
    if P.shape != Q.shape:
        return False
    return all(np.min(np.max(np.abs(Q - row), axis=1)) <= tol for row in P)


def _random_halfspaces(gen, count):
    ang = np.sort(gen.uniform(0.0, 2.0 * math.pi, count))
    return (np.column_stack([np.cos(ang), np.sin(ang)]) * gen.uniform(0.5, 3.0, (count, 1)),
            gen.uniform(0.2, 2.0, count), ang)


class TestPlanarPath:
    """`from_halfspaces` and `from_vertices` in the plane, without qhull."""

    @pytest.mark.parametrize("normals,offsets", [
        ([[1.0, 0.0]], [1.0]),                                  # half-plane
        ([[0.0, 1.0], [0.0, -1.0]], [1.0, 1.0]),                # strip
        ([[0.0, 1.0], [0.0, -1.0], [1.0, 0.0]], [1.0, 1.0, 2.0]),   # half-strip
        ([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0]),                 # wedge
        ([[0.0, 1.0], [0.0, -1.0], [1.0, 0.0], [1.0, 1.0]], [1.0, 1.0, 2.0, 5.0]),
    ], ids=["half-plane", "strip", "half-strip", "wedge", "half-strip-redundant"])
    def test_unbounded(self, normals, offsets):
        with pytest.raises(cc.UnboundedBodyError):
            cc.from_halfspaces(normals, offsets)

    @pytest.mark.parametrize("offsets", [[0.0, 0.0, 1.0, 1.0], [-1.0, -1.0, 1.0, 1.0]],
                             ids=["flat", "empty"])
    def test_empty_interior(self, offsets):
        square = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
        with pytest.raises(cc.DegenerateBodyError):
            cc.from_halfspaces(square, offsets)

    def test_redundant_and_vertex_touching_rows_dropped(self):
        square = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
        extra = [[1.0, 0.0], [1.0, 1.0], [-1.0, 1.0], [3.0, -1.0], [1.0, 1.0]]
        # x <= 5 is redundant; x + y <= 2, y - x <= 2 and 3x - y <= 4 touch
        # the square at a vertex only; the repeated x + y row as well
        K = cc.from_halfspaces(square + extra, [1.0, 1.0, 1.0, 1.0, 5.0, 2.0, 2.0, 4.0, 2.0])
        assert len(K.offsets) == 4
        assert {tuple(v) for v in K.vertices.tolist()} == {
            (1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)}
        assert cc.volume(K).value == 4.0

    @pytest.mark.parametrize("normals,offsets,want", [
        ([[1, 1], [1, -1], [-1, 1], [-1, -1]], [2, 2, 2, 2],
         {(2.0, 0.0), (0.0, 2.0), (-2.0, 0.0), (0.0, -2.0)}),
        ([[-1, 0], [0, -1], [1, 2]], [0, 0, 4], {(0.0, 0.0), (4.0, 0.0), (0.0, 2.0)}),
        ([[-1, 0], [0, -1], [1, 0], [0, 1], [1, 1]], [0, 0, 3, 2, 4],
         {(0.0, 0.0), (3.0, 0.0), (3.0, 1.0), (2.0, 2.0), (0.0, 2.0)}),
    ], ids=["diamond", "triangle", "clipped"])
    def test_integer_inputs_give_exact_vertices(self, normals, offsets, want):
        K = cc.from_halfspaces(normals, offsets)
        assert {tuple(v) for v in K.vertices.tolist()} == want

    def test_vertices_are_counterclockwise(self):
        K = cc.from_halfspaces(*_random_halfspaces(make_rng(2, 0), 12)[:2])
        V = K.vertices
        W = np.roll(V, -1, axis=0)
        assert np.all(V[:, 0] * W[:, 1] - V[:, 1] * W[:, 0] > 0.0)

    def test_agrees_with_qhull_on_random_polygons(self):
        gen = make_rng(17, 0)
        checked = 0
        for _ in range(200):
            A, b, ang = _random_halfspaces(gen, int(gen.integers(3, 16)))
            gaps = np.diff(np.concatenate([ang, [ang[0] + 2.0 * math.pi]]))
            if gaps.max() >= math.pi:
                with pytest.raises(cc.UnboundedBodyError):
                    cc.from_halfspaces(A, b)
                continue
            K = cc.from_halfspaces(A, b)
            verts, rows = _qhull_polygon(A, b)
            assert _same_rows(K.vertices, verts, 1e-12)
            assert _same_rows(np.column_stack([K.normals, K.offsets]), rows, 1e-12)
            checked += 1
        assert checked >= 150

    def test_agrees_with_qhull_on_a_ppb_polytope(self):
        from mthorder import projection as proj
        ang = np.sort(make_rng(5, 1).uniform(0.0, 2.0 * math.pi, 7))
        P = cc.from_vertices(np.column_stack([np.cos(ang), 1.5 * np.sin(ang)]))
        fd = cc.facets(P)
        assert len(fd) == 7
        rows = np.array([-(np.array(sel)[:, None] * fd.areas[:, None] * fd.normals).sum(axis=0)
                         for sel in np.ndindex(*([2] * 7))])
        rows = rows[np.linalg.norm(rows, axis=1) > 1e-14]
        K = proj.ppb_body_polytope(P, 1)
        verts, kept = _qhull_polygon(rows, np.ones(len(rows)))
        assert _same_rows(K.vertices, verts, 1e-12)
        assert _same_rows(np.column_stack([K.normals, K.offsets]), kept, 1e-12)

    def test_from_vertices_drops_repeated_and_collinear_points(self):
        pts = [[0, 0], [2, 0], [2, 2], [0, 2], [2, 2], [1, 0], [2, 1], [0, 0],
               [1, 1], [0.5, 2], [0, 1.5]]
        K = cc.from_vertices(pts)
        assert len(K.vertices) == 4 and len(K.offsets) == 4
        assert cc.volume(K).value == 4.0

    @pytest.mark.parametrize("pts", [
        [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.5, 0.5]],
        [[1.0, 2.0]] * 4,
        [[0.0, 0.0], [3.0, 0.0]],
    ], ids=["collinear", "one-point", "two-points"])
    def test_from_vertices_rejects_flat_input(self, pts):
        with pytest.raises(cc.DegenerateBodyError):
            cc.from_vertices(pts)

    def test_planar_hull_order_and_ties(self):
        pts = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.0],
                        [0.0, 0.0], [0.5, 0.5]])
        assert cc.planar_hull(pts).tolist() == [1, 2, 0, 3]
