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
    gamma_q,
    integrate_1d,
    max_slack,
    sphere_surface,
)

_SPAN_TOL = 1e-12   # singular value, in ball radii, below which translates count as flat
# layer cakes feed difference quotients: a tight tolerance, and an absolute
# one that puts a compact profile's depth horizon where e^-v is 1e-17
_LEVELSET_QUAD = QuadratureConfig(rel_tol=1e-11, abs_tol=1e-16)
# ball meetings are integrals of exact disc meetings; 1e-12 keeps them to 1e-13
_MEETING_QUAD = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-16)


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


def _disc_meeting(C, rad) -> np.ndarray:
    """Area of the meeting of the discs B(C[:, i], rad[:, i]) in each row of
    an (N, k, 2) centre and (N, k) radius batch (centres near o, so the
    terms cancel less), by Green's theorem over its boundary arcs.  Circle
    i is cut where it crosses circle j, at phi_ij +- arccos kappa_ij with
    kappa_ij = (d^2 + r_i^2 - r_j^2) / (2 r_i d), and a piece bounds the
    meeting when its midpoint lies in every other disc (an arc longer than
    pi can meet a disc in two pieces); the arc from t0 to t1 adds
    (1/2) [r (c_x (sin t1 - sin t0) - c_y (cos t1 - cos t0)) + r^2 (t1 - t0)].
    Pairs within 1e-12 of tangency touch rather than cross (rounding would
    cut a spurious arc of angle ~1e-8): discs that touch from outside meet
    in no area, and of nested or coincident ones the outer circle bounds
    nothing.  Discs that meet pairwise but not all together keep no piece."""
    N, k = rad.shape
    x, y = C[..., 0], C[..., 1]
    dx = x[:, None, :] - x[:, :, None]                         # c_j - c_i at [i, j]
    dy = y[:, None, :] - y[:, :, None]
    d = np.hypot(dx, dy)
    ri, rj = rad[:, :, None], rad[:, None, :]
    tol = 1e-12 * rad.max(axis=1)[:, None, None]
    other = ~np.eye(k, dtype=bool)
    nested = (d <= np.abs(ri - rj) + tol) & other
    cross = ~nested & other
    outer = nested & ((ri > rj) | ((ri == rj) & np.tri(k, k, -1, dtype=bool)))
    apart = np.any((d >= ri + rj - tol) & other, axis=(1, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        half = np.arccos(np.clip((d * d + ri * ri - rj * rj) / (2.0 * ri * d), -1.0, 1.0))
    phi = np.arctan2(dy, dx)
    cuts = np.concatenate([np.where(cross, phi - half, 0.0), np.where(cross, phi + half, 0.0)],
                          axis=2)
    ends = np.sort(np.concatenate([np.mod(cuts, 2.0 * math.pi), np.zeros((N, k, 1)),
                                   np.full((N, k, 1), 2.0 * math.pi)], axis=2), axis=2)
    mid = 0.5 * (ends[..., :-1] + ends[..., 1:])
    px = x[:, :, None] + rad[:, :, None] * np.cos(mid)
    py = y[:, :, None] + rad[:, :, None] * np.sin(mid)
    keep = ~np.any(outer, axis=2, keepdims=True) & ~apart[:, None, None]
    for j in range(k):      # one disc at a time keeps the arrays (N, k, pieces)
        dist2 = (px - x[:, j, None, None]) ** 2 + (py - y[:, j, None, None]) ** 2
        keep = keep & ((dist2 <= rad[:, j, None, None] ** 2) | ~cross[:, :, j, None])
    r = rad[:, :, None]
    arc = (r * (x[:, :, None] * np.diff(np.sin(ends), axis=2)
                - y[:, :, None] * np.diff(np.cos(ends), axis=2))
           + r * r * np.diff(ends, axis=2))
    return np.maximum(0.5 * np.sum(np.where(keep, arc, 0.0), axis=(1, 2)), 0.0)


def common_volume(bodies) -> float:
    """vol_n(K_0 cap K_1 cap ... cap K_m) of bodies already moved into
    place, exact: polytopes through their stacked rows (`cc.intersect`),
    discs in the plane through `_disc_meeting`, and two balls in R^n, n >= 3,
    as two caps cut by their radical plane, each a half `lens` (a cap past
    the centre is the ball less the other half).  Other tuples raise
    NotImplementedError."""
    n = bodies[0].dim
    kinds = {K.kind for K in bodies}
    if kinds == {"polytope"}:
        body = cc.intersect(bodies)
        return 0.0 if body is None else cc.volume(body).value
    if kinds != {"ball"} or (n > 2 and len(bodies) > 2):
        raise NotImplementedError("exact common volumes need polytopes, discs in "
                                  "the plane or two balls")
    C = np.array([K.center for K in bodies])
    rad = np.array([K.radius for K in bodies])
    if n == 2:
        return float(_disc_meeting((C - C.mean(axis=0))[None], rad[None])[0])
    (r0, r1), gap = rad, float(np.linalg.norm(C[1] - C[0]))
    if gap >= r0 + r1:
        return 0.0
    if gap <= abs(r0 - r1):
        return cc.volume(bodies[int(np.argmin(rad))]).value
    # the radical plane lies at signed distance a_i from centre i
    a0 = 0.5 * (gap + (r0 - r1) * (r0 + r1) / gap)
    total = 0.0
    for K, a in zip(bodies, (a0, gap - a0)):
        half = 0.5 * lens(n, abs(a) / K.radius)
        total += cc.volume(K).value * (half if a >= 0.0 else 1.0 - half)
    return total


def _unit_ball_meeting(X: np.ndarray, n: int) -> float:
    """vol_n of the meeting of unit balls B(x_i, 1) in R^n, for distinct
    centres X given in the coordinates of their affine span, of dimension 2
    or 3.  A slice at height s over the first two axes is a meeting of discs
    of radii (1 - (s - z_i)^2)^(1/2).  In R^3 the volume integrates the
    slices along the third axis.  Over a plane (z = 0) every point at
    distance t from it sees the slice at s = t, so the volume is
    |S^{n-3}| int_0^reach t^(n-3) A(t) dt, reach^2 = 1 - R^2 with R the
    miniball radius of the centres, where the discs stop meeting."""
    R = cc.miniball_radius(X)
    if R >= 1.0:
        return 0.0
    z = X[:, 2] if X.shape[1] == 3 else np.zeros(len(X))

    def slices(s):
        rad = np.sqrt(np.maximum(1.0 - (s[:, None] - z) ** 2, 0.0))
        return _disc_meeting(np.broadcast_to(X[:, :2], (len(s), len(X), 2)), rad)
    if X.shape[1] == 2:
        return sphere_surface(n - 2) * integrate_1d(
            slices, 0.0, math.sqrt(1.0 - R * R), _MEETING_QUAD, weight_exponent=n - 3.0).value
    return integrate_1d(slices, z.max() - 1.0, z.min() + 1.0, _MEETING_QUAD).value


def _ball_meeting_cov(K: ConvexBody, blocks) -> np.ndarray:
    """Vectorized covariogram of a ball B(c, a) on an (N, m, n) batch, the
    meeting of the balls B(x_i, a), x_0 = o: the lens of the two translates
    farthest apart when all lie on a line (the balls between them contain
    it), else a meeting of discs in the plane, or an integral of them over
    a plane in R^n or across R^3 (`_unit_ball_meeting`)."""
    n, a = K.dim, K.radius
    pts = np.concatenate([np.zeros((len(blocks), 1, n)), blocks], axis=1)
    diam = np.linalg.norm(pts[:, :, None, :] - pts[:, None, :, :], axis=3).max(axis=(1, 2))
    out = cc.volume(K).value * lens(n, diam / (2.0 * a))
    Q = (pts - pts.mean(axis=1, keepdims=True)) / a
    _, sing, frames = np.linalg.svd(Q, full_matrices=False)
    span = np.sum(sing > _SPAN_TOL, axis=1)
    if n > 3 and np.any(span > 2):
        raise NotImplementedError("exact ball meetings need translates that span "
                                  "at most a plane when n > 3")
    if n == 2:
        flat = span == 2
        out[flat] = a * a * _disc_meeting(Q[flat], np.ones(Q[flat].shape[:2]))
        return out
    for i in np.flatnonzero(span >= 2):
        X = np.unique(Q[i] @ frames[i, :span[i]].T, axis=0)
        out[i] = a ** n * _unit_ball_meeting(X, n)
    return out


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


def _exact_cov(K: ConvexBody, blocks) -> np.ndarray | None:
    """The vectorized g_{K,m} on an (N, m, n) batch: balls, axis-aligned
    boxes and polygons; None for other polytopes."""
    if K.kind == "ball":
        return _ball_meeting_cov(K, blocks)
    box = axis_box(K)
    if box is not None:
        return _box_cov(box[0], box[1], blocks)
    if K.dim == 2:
        return _polygon_cov(K, blocks)
    return None


def covariogram_body(K: ConvexBody, xbar) -> EstimateWithError:
    """g_{K,m}(xbar), exact: `_exact_cov`, else the volume of the
    intersected translates."""
    xb = as_mvector(xbar, K.dim)
    val = _exact_cov(K, xb.blocks[None])
    if val is not None:
        return EstimateWithError(float(val[0]), 0.0, 0)
    body = cc.intersect_translates(K, xb.blocks)
    if body is None:
        return EstimateWithError(0.0, 0.0, 0)
    return cc.volume(body)


def covariogram_body_many(K: ConvexBody, xbars) -> np.ndarray:
    """Batch g_{K,m} over an (N, m, n) or (N, m*n) batch, exact.

    Balls, axis-aligned boxes (intervals included) and polygons go through
    a vectorized closed form (`_exact_cov`); other polytopes loop over
    covariogram_body.
    """
    B = np.asarray(xbars, dtype=float)
    if B.ndim == 2:
        B = B.reshape(len(B), -1, K.dim)
    if B.ndim != 3 or B.shape[2] != K.dim:
        raise ValueError("expected an (N, m, n) or (N, m*n) batch")
    vals = _exact_cov(K, B)
    if vals is not None:
        return vals
    return np.array([covariogram_body(K, xb).value for xb in B])


# ---------------------------------------------------------------------------
# support of g_{K,m}: the m-th difference construction D^m(K)


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


# ---------------------------------------------------------------------------
# function covariograms


def profile_cut(prof, n: int, scale: float) -> float:
    """Radius beyond which the level-set integrand is negligible."""
    if prof.support_radius < math.inf:
        return prof.support_radius
    eps = 1e-13 / max(1.0, scale * n)
    return prof.truncation_radius(eps, extra_power=n + max(1.0, prof.exponent) + 2.0)


def covariogram_fn(f: LogConcaveFunction, xbar) -> EstimateWithError:
    """g_{f,m}(xbar) by level-set quadrature: covariogram_body folded
    through the layer-cake decomposition of f, over exact inner volumes."""
    xb = as_mvector(xbar, f.dim)
    if not math.isfinite(f.profile.phi0):
        raise NonIntegrableError("the p = 0 profile has infinite mass and "
                                 "no covariogram")
    K, prof, A = f.body, f.profile, f.amplitude
    n = f.dim
    if prof.kind == "indicator":
        return covariogram_body(K, xb).scaled(A)

    # with {f >= t} = shift + rK and t = A*phi(r) the t-integral becomes
    #   A * int (-phi'(r)) r^n g_{K,m}(xbar / r) dr,
    # and over the level depth v, with r = s(v) = prof.depth_scale(v) and
    # -phi'(r) dr = phi(0) e^-v dv, it is
    #   A phi(0) int e^-v s(v)^n g_{K,m}(xbar / s(v)) dv,
    # smooth where phi is not: the power kind's end r = 1 is v = inf
    vol_k = cc.volume(K).value
    nrm = xb.norm()
    r_lo = 0.0 if nrm < 1e-300 else nrm / dm_support_radius(K, xb.unit())
    r_hi = profile_cut(prof, n, A * vol_k)
    if r_hi <= r_lo:
        return EstimateWithError(0.0, 0.0, 0)
    peak = A * prof.phi0

    def integrand(v):
        s = prof.depth_scale(v)
        return peak * np.exp(-v) * s ** n * covariogram_body_many(
            K, xb.blocks[None] / s[:, None, None])

    v_hi = prof.depth(r_hi)
    tail = None if math.isfinite(v_hi) else (peak * vol_k, 1.0)   # s(v) <= 1 there
    return integrate_1d(integrand, prof.depth(r_lo), v_hi, _LEVELSET_QUAD,
                        tail_bound=tail)


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

