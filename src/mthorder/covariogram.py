"""m-th order covariograms of bodies and log-concave functions.

The order-m covariogram of a body K is

    g_{K,m}(xbar) = vol_n(K cap (x_1+K) cap ... cap (x_m+K)),

and for a function f it is the integral of min_{0<=i<=m} f(y - x_i) over
R^n, with x_0 = o by convention.  Both are log-concave in
xbar = (x_1, ..., x_m) and reduce to the classical covariogram at m = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import convexcore as cc
from .convexcore import ConvexBody
from .lcfun import LogConcaveFunction, NonIntegrableError
from .numerics import (
    EstimateWithError,
    QuadratureConfig,
    beta,
    default_mc_samples,
    gamma_q,
    gauss_panels,
    integrate_1d,
    make_rng,
    max_slack,
    sphere_surface,
)

_STREAM_BALL_COV = 202
_NODE_SEED_STRIDE = 100_003  # decorrelates per-node seeds inside quadratures
# layer cakes feed difference quotients: a tight tolerance, and an absolute
# one that puts a compact profile's depth horizon where e^-v is 1e-17
_LEVELSET_QUAD = QuadratureConfig(rel_tol=1e-11, abs_tol=1e-16)


# ---------------------------------------------------------------------------
# m-vectors


@dataclass(frozen=True)
class MVector:
    """m translation blocks (x_1, ..., x_m) in R^n; x_0 = o is implicit."""

    blocks: np.ndarray

    def __post_init__(self):
        b = np.atleast_2d(np.asarray(self.blocks, dtype=float))
        if b.ndim != 2 or b.size == 0:
            raise ValueError("blocks must form a nonempty (m, n) array")
        object.__setattr__(self, "blocks", b)

    @property
    def m(self) -> int:
        return self.blocks.shape[0]

    @property
    def n(self) -> int:
        return self.blocks.shape[1]

    @property
    def total_dim(self) -> int:
        return self.blocks.size

    @property
    def flat(self) -> np.ndarray:
        return self.blocks.ravel()

    def norm(self) -> float:
        return float(np.linalg.norm(self.blocks))

    def unit(self) -> "MVector":
        nrm = self.norm()
        if nrm <= 0.0:
            raise ValueError("cannot normalize the zero m-vector")
        return MVector(self.blocks / nrm)

    def scaled(self, t: float) -> "MVector":
        return MVector(self.blocks * float(t))


def as_mvector(x, n: int) -> MVector:
    """Coerce an MVector / (m,n) array / flat length-mn array to block form."""
    if isinstance(x, MVector):
        if x.n != n:
            raise ValueError(f"m-vector has block dimension {x.n}, expected {n}")
        return x
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        if arr.size % n:
            raise ValueError(f"flat m-vector of length {arr.size} does not "
                             f"split into blocks of dimension {n}")
        arr = arr.reshape(-1, n)
    if arr.ndim != 2 or arr.shape[1] != n:
        raise ValueError("expected an (m, n) block array")
    return MVector(arr)


# ---------------------------------------------------------------------------
# body covariograms


def axis_box(K: ConvexBody):
    """(lo, hi) when K is an axis-aligned box (every facet normal is +-e_j)."""
    if K.kind != "polytope":
        return None
    A = np.abs(K.normals)
    if np.any(np.sum(A > 1e-12, axis=1) != 1) or np.any(np.abs(A.max(axis=1) - 1.0) > 1e-12):
        return None
    return cc.bounding_box(K)


def _box_cov(lo, hi, blocks):
    """Vectorized box covariogram; blocks has shape (N, m, n)."""
    drop = np.minimum(0.0, blocks.min(axis=1))
    rise = np.maximum(0.0, blocks.max(axis=1))
    lengths = (hi - lo) + drop - rise
    return np.prod(np.maximum(lengths, 0.0), axis=1)


def box_rates(lo, hi, blocks) -> np.ndarray:
    """The rates t_j = ptp(0, x_1j, ..., x_mj) / (hi_j - lo_j) of the box
    prod_j [lo_j, hi_j]: its covariogram at r * blocks is
    vol * prod_j (1 - r t_j)_+."""
    return np.ptp(np.vstack([np.zeros(len(lo)), blocks]), axis=0) / (hi - lo)


def lens(n: int, u):
    """vol(B cap (B + x)) / vol(B) for a ball B in R^n and |x| = 2u radius(B):
    twice a cap, the regularized incomplete beta I_w(b, 1/2) with
    w = 1 - u^2 and b = (n+1)/2, and 0 for u >= 1.  Accepts scalars or
    arrays.  It is 1 - `lens_drop` for w >= 1/2; below, where the lens is
    small, the series w^b u / (b B(b, 1/2)) sum_k (b+1/2)_k / (b+1)_k w^k
    keeps its relative accuracy."""
    u = np.minimum(np.abs(np.asarray(u, dtype=float)), 1.0)
    w = (1.0 - u) * (1.0 + u)
    out = np.asarray(1.0 - lens_drop(n, u))
    near = w < 0.5
    if np.any(near):
        b, x = 0.5 * (n + 1), w[near]
        term = total = np.ones_like(x)
        k = 0
        while np.any(term > 1e-17 * total):
            term = term * x * (b + 0.5 + k) / (b + 1.0 + k)
            total = total + term
            k += 1
        out[near] = x ** b * u[near] * total / (b * beta(b, 0.5))
    return out if out.ndim else float(out)


def lens_drop(n: int, u):
    """1 - lens(n, u) = I_{u^2}(1/2, (n+1)/2), from sums of nonnegative
    terms in u and w = 1 - u^2, accurate relative to itself down to u -> 0:
    u sum_{j<(n+1)/2} c_j w^j with c_0 = 1, c_j = c_{j-1} (j - 1/2)/j at
    odd n, and (2/pi) (arcsin u + u w^(1/2) sum_{j<n/2} d_j w^j) with
    d_0 = 1, d_j = d_{j-1} j / (j + 1/2) at even n."""
    u = np.minimum(np.abs(np.asarray(u, dtype=float)), 1.0)
    w = (1.0 - u) * (1.0 + u)
    if n % 2:
        coef = np.cumprod([1.0] + [(j - 0.5) / j for j in range(1, (n + 1) // 2)])
        out = u * np.polyval(coef[::-1], w)
    else:
        coef = np.cumprod([1.0] + [j / (j + 0.5) for j in range(1, n // 2)])
        out = (np.arcsin(u) + u * np.sqrt(w) * np.polyval(coef[::-1], w)) / (0.5 * math.pi)
    return out if out.ndim else float(out)


def lens_slope(n: int, u):
    """-d lens(n, u) / du = 2 (1 - u^2)^((n-1)/2) / B((n+1)/2, 1/2) on
    [0, 1), and 0 from u = 1 on."""
    u = np.abs(np.asarray(u, dtype=float))
    w = np.maximum((1.0 - u) * (1.0 + u), 0.0)
    out = np.where(u < 1.0, w ** (0.5 * (n - 1)), 0.0) * (
        2.0 / beta(0.5 * (n + 1), 0.5))
    return out if out.ndim else float(out)


def _ball_cov(K: ConvexBody, xb: MVector, seed: int, samples) -> EstimateWithError:
    """Seeded Monte Carlo g_{K,m} of a ball meeting three or more distinct
    translates, over the box that bounds their intersection."""
    r = K.radius
    pts = np.vstack([np.zeros(K.dim), xb.blocks])
    pts = np.unique(pts, axis=0)  # only distinct translates matter
    if cc.miniball_radius(pts) > r + 1e-12:
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


def _polygon_cov(K: ConvexBody, blocks) -> np.ndarray:
    """Vectorized covariogram of a polygon; blocks has shape (N, m, 2).

    The intersection keeps K's unit rows a_j with right sides
    c_j = b_j + min(0, min_i a_j.x_i) (`convexcore.intersect_translates`),
    and its area is (1/2) sum_j c_j l_j (Lasserre, 1983), l_j being the
    length of the segment of the line a_j.y = c_j that meets every other
    row.  Along y = c_j a_j + tau e_j, with e_j = a_j turned by a right
    angle, row k reads tau (a_k.e_j) <= c_k - c_j (a_k.a_j).  A segment is
    empty when a parallel row excludes its line, and every segment is empty
    when the intersection is.
    """
    A = K.normals
    c = K.offsets + np.minimum(0.0, (blocks @ A.T).min(axis=1))        # (N, F)
    slope = (A @ np.array([[0.0, 1.0], [-1.0, 0.0]])) @ A.T           # a_k.e_j at [j, k]
    room = c[:, None, :] - c[:, :, None] * (A @ A.T)                  # (N, F, F)
    up, down = slope > 1e-12, slope < -1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = room / slope
    hi = np.where(up, bound, np.inf).min(axis=2)
    lo = np.where(down, bound, -np.inf).max(axis=2)
    parallel = ~(up | down) & ~np.eye(len(A), dtype=bool)
    blocked = np.any(parallel & (room < 0.0), axis=2)
    length = np.where(blocked, 0.0, np.maximum(hi - lo, 0.0))
    return np.maximum(0.5 * np.sum(c * length, axis=1), 0.0)


def _ball_lens_cov(K: ConvexBody, blocks) -> np.ndarray | None:
    """Vectorized covariogram of a ball whose translates o, x_1, ..., x_m
    take at most two distinct values in every row: the lens of the origin
    and the farthest translate.  None when some row has three or more."""
    pts = np.concatenate([np.zeros((len(blocks), 1, K.dim)), blocks], axis=1)
    dist = np.linalg.norm(pts, axis=2)
    far = pts[np.arange(len(pts)), np.argmax(dist, axis=1)]
    if not np.all((dist == 0.0) | np.all(pts == far[:, None, :], axis=2)):
        return None
    return cc.volume(K).value * lens(K.dim, dist.max(axis=1) / (2.0 * K.radius))


def _exact_cov(K: ConvexBody, blocks) -> np.ndarray | None:
    """The vectorized closed form of g_{K,m} on an (N, m, n) batch: axis-aligned
    boxes, polygons, and balls with at most two distinct translates per row;
    None where it has none."""
    if K.kind == "ball":
        return _ball_lens_cov(K, blocks)
    box = axis_box(K)
    if box is not None:
        return _box_cov(box[0], box[1], blocks)
    if K.dim == 2:
        return _polygon_cov(K, blocks)
    return None


def covariogram_body(K: ConvexBody, xbar, seed: int = 0,
                     samples: int | None = None) -> EstimateWithError:
    """g_{K,m}(xbar); exact for polytopes and for balls with at most two
    distinct translates, seeded Monte Carlo for balls otherwise."""
    xb = as_mvector(xbar, K.dim)
    val = _exact_cov(K, xb.blocks[None])
    if val is not None:
        return EstimateWithError(float(val[0]), 0.0, 0)
    if K.kind == "ball":
        return _ball_cov(K, xb, seed, samples)
    body = cc.intersect_translates(K, xb.blocks)
    if body is None:
        return EstimateWithError(0.0, 0.0, 0)
    return cc.volume(body)


def covariogram_body_many(K: ConvexBody, xbars, seed: int = 0,
                          samples: int | None = None):
    """Batch g_{K,m}; returns (values, std_errors) arrays.

    Axis-aligned boxes (intervals included), polygons and balls with at
    most two distinct translates per row go through a fully vectorized
    closed form (`_exact_cov`); everything else loops over covariogram_body.
    """
    B = np.asarray(xbars, dtype=float)
    if B.ndim == 2:
        B = B.reshape(len(B), -1, K.dim)
    if B.ndim != 3 or B.shape[2] != K.dim:
        raise ValueError("expected an (N, m, n) or (N, m*n) batch")
    vals = _exact_cov(K, B)
    if vals is not None:
        return vals, np.zeros(len(vals))
    vals = np.empty(len(B))
    sigs = np.empty(len(B))
    for j, xb in enumerate(B):
        est = covariogram_body(K, xb, seed=seed, samples=samples)
        vals[j] = est.value
        sigs[j] = est.std_error
    return vals, sigs


# ---------------------------------------------------------------------------
# support of g_{K,m}: the m-th difference construction D^m(K)


def dm_support_membership(K: ConvexBody, xbar) -> bool:
    """Whether xbar lies in D^m(K) = supp g_{K,m}."""
    xb = as_mvector(xbar, K.dim)
    if K.kind == "ball":
        pts = np.vstack([np.zeros(K.dim), xb.blocks])
        return cc.miniball_radius(pts) <= K.radius + 1e-12
    return cc.intersect_translates(K, xb.blocks) is not None


def dm_support_radius(K: ConvexBody, theta) -> float:
    """max{r >= 0 : r*theta in D^m(K)} -- the radial function of D^m(K).

    For a box it is 1/max_j t_j with the `box_rates` t, for a ball its
    radius over the miniball radius of (0, theta_1, ..., theta_m).  For
    another polytope it is the LP max r with y and every y - r theta_i in
    K; on K's own rows a_j that is a_j.y + r s_j <= b_j with
    s_j = max_i (-a_j.theta_i)_+, solved by `max_slack` from the vertex
    mean of K.
    """
    th = as_mvector(theta, K.dim)
    if th.norm() <= 0.0:
        raise ValueError("direction must be nonzero")
    if K.kind == "ball":
        base = cc.miniball_radius(np.vstack([np.zeros(K.dim), th.blocks]))
        return K.radius / base
    box = axis_box(K)
    if box is not None:
        return 1.0 / float(box_rates(box[0], box[1], th.blocks).max())
    s = np.maximum(0.0, -(th.blocks @ K.normals.T).min(axis=0))
    return float(max_slack(K.normals, K.offsets, s, K.vertices.mean(axis=0))[0])


def dm_support_radius_fn(f: LogConcaveFunction, theta) -> float:
    supp = f.support_body()
    if supp is None:
        return math.inf
    return dm_support_radius(supp, as_mvector(theta, f.dim))


def _meeting_points(bodies) -> np.ndarray:
    """The vertex sums (y - k_1, ..., y - k_m), y a vertex of K_0 and k_i one
    of K_i, flattened to R^{nm}.  Their hull is the set of x with
    K_0 cap (x_1 + K_1) cap ... cap (x_m + K_m) nonempty; for K_i = K it is
    D^m(K) = Delta(K) + (-K)^m (Rogers and Shephard, 1957)."""
    V0, *rest = [K.vertices for K in bodies]
    idx = np.indices([len(V0)] + [len(V) for V in rest]).reshape(len(bodies), -1)
    sums = V0[idx[0]][:, None, :] - np.stack(
        [V[i] for V, i in zip(rest, idx[1:])], axis=1)
    return np.unique(sums.reshape(len(idx[0]), -1), axis=0)


def meeting_sums(bodies) -> int | None:
    """The number of vertex sums whose hull `meeting_volume` takes, or None
    where it has no exact value (a body that is not a polytope, n*m > 6)."""
    n, m = bodies[0].dim, len(bodies) - 1
    if n * m > 6 or any(K.kind != "polytope" for K in bodies):
        return None
    return math.prod(len(K.vertices) for K in bodies)


def meeting_volume(bodies) -> float:
    """vol_{nm} of {x : K_0 cap (x_1 + K_1) cap ... cap (x_m + K_m) nonempty}
    for polytopes K_0, ..., K_m in R^n with n*m <= 6, exact (a hull volume:
    the planar hull's shoelace area at n*m = 2, qhull's above)."""
    if meeting_sums(bodies) is None:
        raise NotImplementedError("exact meeting volume needs polytopes with n*m <= 6")
    n, m = bodies[0].dim, len(bodies) - 1
    pts = _meeting_points(bodies)
    if n * m == 1:
        return float(pts.max() - pts.min())
    if n * m == 2:
        return cc.polygon_area(pts)
    from scipy.spatial import ConvexHull
    return float(ConvexHull(pts).volume)


def dm_volume(K: ConvexBody, m: int) -> float:
    """vol_{nm}(D^m(K)), exact: the meeting volume of m + 1 copies of a
    polytope with n*m <= 6, vol(2K) = 2^n vol(K) for a ball at m = 1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if K.kind == "ball":
        if m > 1:
            raise NotImplementedError("D^m of a ball has no closed form for m > 1")
        return 2.0 ** K.dim * cc.volume(K).value
    return meeting_volume([K] * (m + 1))


# ---------------------------------------------------------------------------
# function covariograms


def profile_cut(prof, n: int, scale: float) -> float:
    """Radius beyond which the level-set integrand is negligible."""
    if prof.support_radius < math.inf:
        return prof.support_radius
    eps = 1e-13 / max(1.0, scale * n)
    return prof.truncation_radius(eps, extra_power=n + max(1.0, prof.exponent) + 2.0)


def covariogram_fn(f: LogConcaveFunction, xbar, seed: int = 0,
                   samples: int | None = None) -> EstimateWithError:
    """g_{f,m}(xbar) by level-set quadrature: covariogram_body folded
    through the layer-cake decomposition of f.  Exact inner volumes make it
    a deterministic quadrature; a ball meeting three or more distinct
    translates takes seeded Monte Carlo inner volumes (`seed`, `samples`)."""
    xb = as_mvector(xbar, f.dim)
    if not math.isfinite(f.profile.phi0):
        raise NonIntegrableError("the p = 0 profile has infinite mass and "
                                 "no covariogram")
    K, prof, A = f.body, f.profile, f.amplitude
    n, m = f.dim, xb.m
    if prof.kind == "indicator":
        return covariogram_body(K, xb, seed=seed, samples=samples).scaled(A)

    # with {f >= t} = shift + rK and t = A*phi(r) the t-integral becomes
    #   A * int (-phi'(r)) r^n g_{K,m}(xbar / r) dr
    vol_k = cc.volume(K).value
    nrm = xb.norm()
    r_lo = 0.0 if nrm < 1e-300 else nrm / dm_support_radius(K, xb.unit())
    r_hi = profile_cut(prof, n, A * vol_k)
    if r_hi <= r_lo:
        return EstimateWithError(0.0, 0.0, 0)

    distinct = len(np.unique(np.vstack([np.zeros(n), xb.blocks]), axis=0))
    if K.kind == "polytope" or distinct <= 2:   # exact inner volumes
        # over the level depth v, with r = s(v) = prof.depth_scale(v) and
        # -phi'(r) dr = phi(0) e^-v dv, it is
        #   A phi(0) int e^-v s(v)^n g_{K,m}(xbar / s(v)) dv,
        # smooth where phi is not: the power kind's end r = 1 is v = inf
        peak = A * prof.phi0

        def integrand(v):
            s = prof.depth_scale(v)
            g, _ = covariogram_body_many(K, xb.blocks[None] / s[:, None, None])
            return peak * np.exp(-v) * s ** n * g

        v_hi = prof.depth(r_hi)
        tail = None if math.isfinite(v_hi) else (peak * vol_k, 1.0)   # s(v) <= 1 there
        return integrate_1d(integrand, prof.depth(r_lo), v_hi, _LEVELSET_QUAD,
                            tail_bound=tail)

    # a ball meeting three or more distinct translates has Monte Carlo inner
    # volumes: fixed Gauss grid with independent per-node seeds, so
    # adaptivity never chases the noise
    nodes, weights = gauss_panels(np.linspace(r_lo, r_hi, 33), order=8)
    factors = A * prof.neg_derivative(nodes) * nodes ** n * weights
    budget = samples or default_mc_samples(xb.total_dim)
    per_node = max(1000, budget // len(nodes))
    total = 0.0
    var = 0.0
    for k, (r, factor) in enumerate(zip(nodes, factors)):
        est = covariogram_body(K, xb.scaled(1.0 / r),
                               seed=seed + _NODE_SEED_STRIDE * (k + 1),
                               samples=per_node)
        total += factor * est.value
        var += (factor * est.std_error) ** 2
    return EstimateWithError(total, math.sqrt(var), len(nodes) * per_node)


def coercive_box_radius(f: LogConcaveFunction, tol: float) -> float:
    """R with int_{|y|>R} f <= tol/10, from the exponential envelope when
    one exists and from iterated profile truncation otherwise."""
    n = f.dim
    surface = sphere_surface(n)
    shift_norm = float(np.linalg.norm(f.shift))
    try:
        amp, rate = f.coercivity_bound()
    except NonIntegrableError:
        r_out = cc.outer_radius(f.body)
        eps = tol / (10.0 * f.amplitude * surface * max(1.0, r_out) ** n)
        return shift_norm + r_out * f.profile.truncation_radius(
            eps, extra_power=n + 1.0)

    def tail(radius):
        return amp * surface * math.gamma(n) * gamma_q(n, rate * radius) / rate ** n

    hi = 1.0 / rate
    while tail(hi) > tol / 10.0 and hi < 1e6:
        hi *= 2.0
    lo = hi / 2.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if tail(mid) > tol / 10.0:
            lo = mid
        else:
            hi = mid
    return hi

