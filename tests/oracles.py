"""Reference implementations that the tests compare mthorder against.

No run of mthorder reaches any of these.  Each but `covariogram_body`
computes a quantity that the package computes another way, so agreement
checks both; `covariogram_body` is g_{K,m}(xbar) at one point as an
estimate, one row of `covariogram.covariogram_body_many`, which only the
tests of single points take.

* `cov_fn_direct`: g_{f,m}(xbar) by seeded direct Monte Carlo of
  min_i f(y - x_i) over a truncation box, against
  `covariogram.covariogram_fn`;
* `ball_cov_mc`: the covariogram of a ball by seeded Monte Carlo over the
  box that bounds the meeting of its translates (once the package's own
  `covariogram._ball_cov`), against the exact ball meetings;
* `cov_radial_derivative`: the slope of r -> g_{f,m}(r theta) at 0+ by
  Richardson-extrapolated difference quotients, which tends to minus the
  polar projection gauge of theta;
* `radial_from_ray_derivative`: the Ball-body radius of a ray by the
  trapezoid rule on a finite-difference -psi', against
  `starbodies.radial_from_ray`;
* `layer_cake_section`: g_{f,m}(r theta) / ||f||_1 by one adaptive
  QUADPACK integral over the level depth per radius, over exact body
  covariograms, against the closed tail-moment sum of
  `covariogram.covariogram_fn_many` on axis boxes and the reference ray
  `starbodies.layer_cake_ray` built on it;
* `intersect`, `intersect_translates` and `common_volume_qhull`: a meeting
  of polytopes as a body, its stacked rows through
  `convexcore.from_halfspaces` (a Chebyshev LP, then qhull in R^3), whose
  volume checks the batched Lasserre volumes of `covariogram.common_volume`
  and `covariogram_body_many`;
* `dm_support_membership`: whether xbar lies in D^m(K), by a miniball
  radius or an LP; its hit rate over a box checks the meeting volumes
  and the sampled translates of the Rogers-Shephard checks;
* `dm_body` and `contains`: D^m(K) as an explicit hull, against
  `dm_support_membership`;
* `discs_meet`: whether discs of any radii share a point, by testing the
  few points where the leftmost point of their meeting can lie, against
  the common-volume meeting test of the Rogers-Shephard checks;
* `three_point_radius`: the miniball radius of three points by triangle
  geometry, against the meeting test of three equal balls in R^3;
* `polytopes_meet`: whether polytopes meet in positive volume, by scipy's
  HiGHS LP on their stacked rows, against the common-volume and
  Chebyshev-LP meeting tests of the Rogers-Shephard checks;
* `sup_convolution`: sup_z f_0(z) prod_i f_i(z - x_i) at one x, by the
  routes that the Rogers-Shephard checks take on every row;
* `bracket_max_many`, `bracket_sup_rows` and `graded_int_rows`: the 1-D
  sup- and int-convolutions of a row batch from pointwise values of the
  product (a bracket search for the unimodal sup, a Gauss-Legendre rule
  graded toward every breakpoint for the integral), against the closed
  kernels `inequalities._closed_sup_rows` and `_closed_int_rows`;
* `inf_convolution_gauge`: -log of the sup-convolution of exponentials
  e^-||x||_K_j, an inf-convolution of gauges, by scipy's HiGHS LP over the
  facets, against the hull whose volume the `mixed-volume` route takes.
"""
import itertools
import math

import numpy as np
from scipy import integrate

import mthorder.convexcore as cc
import mthorder.covariogram as cov
import mthorder.inequalities as iq
from mthorder.lcfun import ZERO_P_WINDOW, LogConcaveFunction
from mthorder.numerics import EstimateWithError, gauss_panels, make_rng

_STREAM_DIRECT_MC = 201
_STREAM_BALL_COV = 202
_MC_SHARDS = 8
_CORE_LEVEL = 1e-2   # the core box reaches where f falls to this fraction of phi(0)
_GRID_NODES = 65     # nodes per row and round of the bracket search
_GRID_ROUNDS = 11    # rounds; each keeps 2 of 64 cells
# 20 geometric panels from a cell's end to its middle, 16 Gauss-Legendre
# points each
_HALF_NODES, _HALF_WEIGHTS = gauss_panels(np.append(0.0, 0.5 ** np.arange(20)[::-1]), 16)


def default_mc_samples(total_dim: int) -> int:
    """Monte Carlo budgets by ambient dimension; keeps suite runtime in minutes."""
    return 200_000 if total_dim <= 4 else 1_000_000


# ---------------------------------------------------------------------------
# direct Monte Carlo covariogram


def _min_translate(f: LogConcaveFunction, Y: np.ndarray, blocks) -> np.ndarray:
    vals = f.eval_many(Y)
    for x in blocks:
        np.minimum(vals, f.eval_many(Y - x), out=vals)
    return vals


def _box_mc(f, blocks, lo, hi, N, seed, stream, inner=None):
    """MC integral of min_i f(y-x_i) over box [lo,hi] minus the inner box."""
    n = len(lo)
    box_vol = float(np.prod(hi - lo))
    per_shard = max(1, N // _MC_SHARDS)
    total = total_sq = 0.0
    count = 0
    for s in range(_MC_SHARDS):
        gen = make_rng(seed, stream * _MC_SHARDS + s)
        Y = lo + gen.random((per_shard, n)) * (hi - lo)
        vals = _min_translate(f, Y, blocks)
        if inner is not None:
            vals[np.all(np.abs(Y) < inner, axis=1)] = 0.0
        total += float(vals.sum())
        total_sq += float(np.square(vals).sum())
        count += per_shard
    mean = total / count
    var = max(0.0, (total_sq - count * mean * mean) / max(count - 1, 1))
    return box_vol * mean, box_vol * math.sqrt(var / count), count


def _core_radius(prof) -> float:
    """sup{r : phi(r) >= _CORE_LEVEL} through the level depth."""
    depth = math.log(prof.phi0) - math.log(_CORE_LEVEL)
    return float(prof.depth_scale(depth)) if depth >= 0.0 else 0.0


def cov_fn_direct(f: LogConcaveFunction, xbar, seed: int = 0,
                  samples: int | None = None) -> EstimateWithError:
    """g_{f,m}(xbar) = int min_i f(y - x_i) dy by seeded Monte Carlo, over the
    box of the intersected supports when supp f is compact."""
    xb = cov.as_mvector(xbar, f.dim)
    n = f.dim
    shifts = np.vstack([np.zeros(n), xb.blocks])
    N = samples or default_mc_samples(xb.blocks.size)
    supp = f.support_body()
    if supp is not None:
        lo0, hi0 = cc.bounding_box(supp)
        lo = (lo0[None, :] + shifts).max(axis=0)
        hi = (hi0[None, :] + shifts).min(axis=0)
        if np.any(hi <= lo):
            return EstimateWithError(0.0, 0.0, 0)
        val, sig, cnt = _box_mc(f, xb.blocks, lo, hi, N, seed,
                                _STREAM_DIRECT_MC)
        return EstimateWithError(val, sig, cnt)

    # Unbounded support: min_i f(y - x_i) <= f(y), so f's own tail bounds the
    # truncation loss.  A single box out to that radius has terrible variance
    # for slowly decaying profiles, so stratify: a core box where f is large,
    # then geometrically growing box shells out to the truncation radius.
    r_total = cov.coercive_box_radius(f, tol=1e-12)
    shift_norm = float(np.linalg.norm(f.shift))
    r_core = min(r_total, shift_norm + cc.outer_radius(f.body)
                 * _core_radius(f.profile)
                 + float(np.abs(xb.blocks).max()))
    radii = [r_core]
    while radii[-1] < r_total:
        radii.append(min(2.0 * radii[-1], r_total))
    n_shells = len(radii) - 1
    val, sig, cnt = _box_mc(f, xb.blocks, np.full(n, -r_core),
                            np.full(n, r_core), N // 2, seed,
                            _STREAM_DIRECT_MC)
    sig_sq = sig * sig
    per_shell = max(2000, (N - N // 2) // max(n_shells, 1))
    for a in range(n_shells):
        v, s, c = _box_mc(f, xb.blocks, np.full(n, -radii[a + 1]),
                          np.full(n, radii[a + 1]), per_shell, seed,
                          _STREAM_DIRECT_MC + a + 1, inner=radii[a])
        val += v
        sig_sq += s * s
        cnt += c
    return EstimateWithError(val, math.sqrt(sig_sq), cnt)


def ball_cov_mc(K: cc.ConvexBody, xb: cov.MVector, seed: int,
                samples) -> EstimateWithError:
    """Seeded Monte Carlo g_{K,m} of a ball meeting three or more distinct
    translates, over the box that bounds their intersection."""
    r = K.radius
    pts = np.vstack([np.zeros(K.dim), xb.blocks])
    pts = np.unique(pts, axis=0)  # only distinct translates matter
    if cc.miniball(pts)[1] > r + 1e-12:
        return EstimateWithError(0.0, 0.0, 0)
    centers = K.center + pts
    lo = centers.max(axis=0) - r
    hi = centers.min(axis=0) + r
    if np.any(hi <= lo):
        return EstimateWithError(0.0, 0.0, 0)
    N = samples or default_mc_samples(K.dim)
    gen = make_rng(seed, _STREAM_BALL_COV)
    Y = lo + gen.random((N, K.dim)) * (hi - lo)
    inside = np.ones(N, dtype=bool)
    for p in centers:
        inside &= np.sum((Y - p) ** 2, axis=1) <= r * r
    frac = float(inside.mean())
    box_vol = float(np.prod(hi - lo))
    sigma = box_vol * math.sqrt(max(frac * (1.0 - frac), 0.0) / N)
    return EstimateWithError(box_vol * frac, sigma, N)


def covariogram_body(K: cc.ConvexBody, xbar) -> EstimateWithError:
    """g_{K,m}(xbar), exact, with no error bar."""
    xb = cov.as_mvector(xbar, K.dim)
    return EstimateWithError(float(cov.covariogram_body_many(K, xb.blocks[None])[0]), 0.0, 0)


def cov_radial_derivative(f: LogConcaveFunction, m: int, theta,
                          h: float = 1e-3) -> float:
    """One-sided slope of r -> g_{f,m}(r theta / |theta|) at r = 0+, from the
    difference quotients at h and h/10 by Richardson extrapolation."""
    if h <= 0.0:
        raise ValueError("invalid step: h must be positive")
    th = cov.as_mvector(theta, f.dim)
    if th.m != m:
        raise ValueError(f"direction has {th.m} blocks, expected m = {m}")
    th = th.unit()
    g0 = f.mass()
    d_h = (cov.covariogram_fn(f, th.scaled(h)).value - g0) / h
    d_h10 = (cov.covariogram_fn(f, th.scaled(h / 10.0)).value - g0) / (h / 10.0)
    return (10.0 * d_h10 - d_h) / 9.0


# ---------------------------------------------------------------------------
# Ball-body radii


def radial_from_ray_derivative(ray, p: float, nodes: int = 4001) -> float:
    """Integrate r^p (log r at p = 0) against the finite-difference -psi'."""
    if p <= -1.0:
        raise ValueError("p must exceed -1")
    T = float(ray.profile.cutoff(max(p, 0.0)))
    power = 2.0 if p >= 0.0 else 4.0
    r = T * np.linspace(0.0, 1.0, nodes) ** power
    vals = ray.profile.value(r)
    neg_slope = -np.gradient(vals, r, edge_order=1)
    if abs(p) <= ZERO_P_WINDOW:
        integrand = np.where(r > 0.0, np.log(np.maximum(r, 1e-300)), 0.0) * neg_slope
        integrand[0] = 0.0
        return math.exp(float(np.trapezoid(integrand, r)))
    integrand = np.where(r > 0.0, r, 1.0) ** p * neg_slope
    integrand[0] = 0.0
    return float(np.trapezoid(integrand, r)) ** (1.0 / p)


def layer_cake_section(f: LogConcaveFunction, m: int, theta, r: float) -> float:
    """g_{f,m}(r theta) / ||f||_1 along a direction theta, by the layer cake
    in its original order: A phi(0) int e^-v s(v)^n g_{K,m}(r theta / s(v)) dv
    over the depths v at which r theta lies in s(v) D^m(K), one adaptive
    QUADPACK integral per radius."""
    th = cov.as_mvector(theta, f.dim).unit()
    if th.m != m:
        raise ValueError(f"direction has {th.m} blocks, expected m = {m}")
    K, prof, n = f.body, f.profile, f.dim
    v_lo = float(prof.depth(r / cov.dm_support_radius(K, th)))
    if not math.isfinite(v_lo):
        return 0.0

    def level(v):
        s = float(prof.depth_scale(v))
        return math.exp(-v) * s ** n * float(
            cov.covariogram_body_many(K, (r / s) * th.blocks[None])[0])

    val, _ = integrate.quad(level, v_lo, math.inf, epsabs=1e-16, epsrel=1e-13,
                            limit=400)
    return f.amplitude * prof.phi0 * val / f.mass()


# ---------------------------------------------------------------------------
# meetings of polytopes as bodies


def intersect(bodies) -> cc.ConvexBody | None:
    """K_0 cap K_1 cap ... cap K_m for polytopes; None when its interior is
    empty.  The meeting keeps every body's rows a_j.x <= b_j; of rows that
    share a normal only the least offset binds."""
    normals, rows = np.unique(np.vstack([K.normals for K in bodies]), axis=0,
                              return_inverse=True)
    offsets = np.full(len(normals), math.inf)
    np.minimum.at(offsets, rows.ravel(), np.concatenate([K.offsets for K in bodies]))
    try:
        return cc.from_halfspaces(normals, offsets)
    except cc.DegenerateBodyError:
        return None


def intersect_translates(K: cc.ConvexBody, xbar) -> cc.ConvexBody | None:
    """K cap (x_1+K) cap ... cap (x_m+K); None when its interior is empty."""
    xbar = np.atleast_2d(np.asarray(xbar, dtype=float))
    return intersect([K] + [cc.translate(K, x) for x in xbar])


def common_volume_qhull(bodies) -> float:
    """vol of the meeting of polytopes by `intersect`: 0 when it is flat or empty."""
    body = intersect(bodies)
    return 0.0 if body is None else cc.volume(body).value


# ---------------------------------------------------------------------------
# D^m(K) as a body


def dm_support_membership(K: cc.ConvexBody, xbar) -> bool:
    """Whether xbar lies in D^m(K) = supp g_{K,m}."""
    xb = cov.as_mvector(xbar, K.dim)
    if K.kind == "ball":
        pts = np.vstack([np.zeros(K.dim), xb.blocks])
        return cc.miniball(pts)[1] <= K.radius + 1e-12
    return intersect_translates(K, xb.blocks) is not None


def contains(K: cc.ConvexBody, X) -> np.ndarray:
    """Membership of every row of X in K, with the package's geometric tolerance."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if K.kind == "ball":
        return np.linalg.norm(X - K.center, axis=1) <= K.radius + cc._GEOM_TOL
    return np.all(X @ K.normals.T <= K.offsets + cc._GEOM_TOL, axis=1)


def dm_body(K: cc.ConvexBody, m: int) -> cc.ConvexBody:
    """D^m(K) as an explicit body: the hull of the vertex sums for a
    polytope with n*m <= 3, the ball 2rB^n for a ball at m = 1."""
    if K.kind == "ball" and m == 1:
        return cc.ball(K.dim, 2.0 * K.radius)
    if K.kind == "polytope" and K.dim * m <= 3:
        sums = [np.ravel(y - np.array(ks)) for y in K.vertices
                for ks in itertools.product(K.vertices, repeat=m)]
        return cc.from_vertices(np.unique(sums, axis=0))
    raise NotImplementedError("no explicit D^m body for this (K, m)")


# ---------------------------------------------------------------------------
# sup-convolution


def discs_meet(centres, radii, tol: float = 1e-12) -> bool:
    """Whether the closed discs B(c_i, r_i) share a point.  If they do, the
    leftmost point of their meeting is the leftmost point of one disc or a
    point where two circles cross or touch, so one of those candidates lies
    in every disc (within tol)."""
    C, r = np.asarray(centres, dtype=float), np.asarray(radii, dtype=float)
    cands = [c - np.array([ri, 0.0]) for c, ri in zip(C, r)]
    for i, j in itertools.combinations(range(len(r)), 2):
        d = float(np.linalg.norm(C[j] - C[i]))
        if d == 0.0 or d > r[i] + r[j] or d < abs(r[i] - r[j]):
            continue
        a = (d * d + r[i] * r[i] - r[j] * r[j]) / (2.0 * d)
        h = math.sqrt(max(r[i] * r[i] - a * a, 0.0))
        u = (C[j] - C[i]) / d
        mid, perp = C[i] + a * u, np.array([-u[1], u[0]])
        cands += [mid + h * perp, mid - h * perp]
    return any(np.all(np.linalg.norm(C - p, axis=1) <= r + tol) for p in cands)


def three_point_radius(points) -> float:
    """Radius of the least ball holding three points in R^n, by triangle
    geometry: half the longest side c when the angle facing it is not
    acute (a^2 + b^2 <= c^2, collinear points included), else the
    circumradius abc / (4 area)."""
    P = np.asarray(points, dtype=float)
    a, b, c = sorted(float(np.linalg.norm(P[i] - P[j])) for i, j in ((0, 1), (1, 2), (0, 2)))
    if a * a + b * b <= c * c:
        return 0.5 * c
    u, v = P[1] - P[0], P[2] - P[0]
    area = 0.5 * math.sqrt(max(float(u @ u) * float(v @ v) - float(u @ v) ** 2, 0.0))
    return a * b * c / (4.0 * area)


def polytopes_meet(bodies) -> bool:
    """Whether polytopes meet in positive volume: the largest ball inside
    all their rows, by scipy's HiGHS LP, has a positive radius."""
    from scipy.optimize import linprog
    A = np.vstack([K.normals for K in bodies])
    b = np.concatenate([K.offsets for K in bodies])
    n = A.shape[1]
    res = linprog(np.append(np.zeros(n), -1.0), A_ub=np.c_[A, np.ones(len(A))], b_ub=b,
                  bounds=[(None, None)] * n + [(None, 1.0)], method="highs")
    return res.status == 0 and -res.fun > 0.0


def sup_convolution(fbar, xbar) -> float:
    """sup_z f_0(z) * prod_i f_i(z - x_i); 0 when the supports never meet."""
    fbar, _, _ = iq._validated_tuple(fbar)
    x = np.concatenate(iq._offsets(fbar, xbar)[1:])[None, :]
    return float(iq._sup_values(fbar, iq._factor_boxes(fbar), x)[0][0])


def inf_convolution_gauge(bodies, X) -> np.ndarray:
    """min_z sum_j ||z - x_j||_K_j at every row x = (x_1, ..., x_m) of X,
    with x_0 = o, for polytopes K_j holding the origin inside: one HiGHS LP
    per row, min sum_j t_j over (z, t) subject to <a, z - x_j> <= b t_j
    for every facet row (a, b) of K_j."""
    from scipy.optimize import linprog
    n, k = bodies[0].dim, len(bodies)
    A = np.vstack([np.c_[K.normals, -np.outer(K.offsets, np.eye(k)[j])]
                   for j, K in enumerate(bodies)])
    out = []
    for x in np.atleast_2d(np.asarray(X, dtype=float)):
        shifts = np.vstack([np.zeros(n), x.reshape(k - 1, n)])
        b = np.concatenate([K.normals @ c for K, c in zip(bodies, shifts)])
        res = linprog(np.r_[np.zeros(n), np.ones(k)], A_ub=A, b_ub=b,
                      bounds=[(None, None)] * (n + k), method="highs")
        out.append(res.fun)
    return np.array(out)


# ---------------------------------------------------------------------------
# 1-D row kernels from pointwise values of the product


def bracket_max_many(F, lo: np.ndarray, hi: np.ndarray):
    """Row-wise max of a unimodal F on [lo, hi]; returns (argmax, max).

    Each round evaluates F on _GRID_NODES equispaced nodes per row and keeps
    the two cells around the row's best node, so _GRID_ROUNDS rounds shrink
    the bracket to 32^-11 ~ 3e-17 of its width.  The best node seen wins.
    """
    rows = np.arange(len(lo))
    nodes = np.linspace(0.0, 1.0, _GRID_NODES)
    a, b = lo, hi
    best_x = lo.copy()
    best_v = np.full(len(lo), -math.inf)
    for _ in range(_GRID_ROUNDS):
        Z = a[:, None] + (b - a)[:, None] * nodes
        V = F(Z)
        k = np.argmax(V, axis=1)
        gain = V[rows, k] > best_v
        best_x[gain] = Z[rows, k][gain]
        best_v[gain] = V[rows, k][gain]
        a = Z[rows, np.maximum(k - 1, 0)]
        b = Z[rows, np.minimum(k + 1, _GRID_NODES - 1)]
    return best_x, best_v


def _product_on(fbar, T: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """f_0(z) * prod_i f_i(z - t_i) at every z of a (rows, G) grid Z, each
    row translated by its own offsets T[row] = (0, t_1, ..., t_m)."""
    out = np.ones(Z.shape)
    for i, f in enumerate(fbar):
        out *= f.eval_many((Z - T[:, i, None]).reshape(-1, 1)).reshape(Z.shape)
    return out


def _row_offsets(X: np.ndarray) -> np.ndarray:
    return np.concatenate([np.zeros((len(X), 1)), X], axis=1)


def bracket_sup_rows(fbar, X) -> tuple[np.ndarray, np.ndarray]:
    """(argmax, sup) of the 1-D sup-convolution at every row x of X: one
    bracket search over each row's joint box (the product is log-concave,
    hence unimodal).  A row keeps its feasible start (the centre of the
    compact supports' overlap, else 0) when the search finds no larger
    value, as on a zero-valued grid around a sliver of positive product."""
    X = np.asarray(X, dtype=float)
    boxes = iq._factor_boxes(fbar)
    T = _row_offsets(X)
    lo_i, hi_i = boxes.lo[:, 0] + T, boxes.hi[:, 0] + T
    lo, hi = lo_i.max(axis=1), hi_i.min(axis=1)
    compact = [i for i, f in enumerate(fbar) if f.profile.support_radius < math.inf]
    z = np.zeros(len(X))
    if compact:
        z = 0.5 * (lo_i[:, compact].max(axis=1) + hi_i[:, compact].min(axis=1))
    live = lo < hi
    val = np.where(live, _product_on(fbar, T, z[:, None])[:, 0], 0.0)
    search = live & (hi - lo > 1e-14)
    if np.any(search):
        x, v = bracket_max_many(lambda Z: _product_on(fbar, T[search], Z),
                                lo[search], hi[search])
        keep = val[search] > v
        z[search] = np.where(keep, z[search], x)
        val[search] = np.where(keep, val[search], v)
    return z, val


def graded_int_rows(fbar, X) -> np.ndarray:
    """The 1-D int-convolution at every row x of X: on both halves of every
    cell of `inequalities._row_cells`, a composite Gauss-Legendre rule on 20
    panels graded geometrically toward the cell's end."""
    X = np.asarray(X, dtype=float)
    _, rows, a, b = iq._row_cells(iq._factor_boxes(fbar), X)
    a, b = a[:, None], b[:, None]
    h = 0.5 * (b - a)
    Z = np.concatenate([a + h * _HALF_NODES, b - h * _HALF_NODES], axis=1)
    vals = h * _product_on(fbar, _row_offsets(X)[rows], Z)
    return np.bincount(rows, vals @ np.tile(_HALF_WEIGHTS, 2), len(X))
