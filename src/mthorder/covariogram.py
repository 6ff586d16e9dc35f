"""m-th order covariograms of bodies and log-concave functions.

The order-m covariogram of a body K is

    g_{K,m}(xbar) = vol_n(K cap (x_1+K) cap ... cap (x_m+K)),

and for a function f it is the integral of min_{0<=i<=m} f(y - x_i) over
R^n, with x_0 = o by convention.  Both are log-concave in
xbar = (x_1, ..., x_m) and reduce to the classical covariogram at m = 1.
A meeting of polytopes (translates of one body, or the supports of an
int-convolution in `common_volume`) is {x : A x <= c}: one row-batched
Lasserre volume, never a body.
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
    Estimates,
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
_PARALLEL_TOL = 1e-12   # |sine| of the angle below which two unit rows count as parallel
_BLOCK = 1 << 19        # elements per block of the polytope volume kernel
_QUARTER = np.array([[0.0, 1.0], [-1.0, 0.0]])   # a -> a turned by a right angle


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


def _box_cov(lo, hi, blocks):
    """Vectorized box covariogram; blocks has shape (N, m, n)."""
    drop = np.minimum(0.0, blocks.min(axis=1))
    rise = np.maximum(0.0, blocks.max(axis=1))
    lengths = (hi - lo) + drop - rise
    return np.prod(np.maximum(lengths, 0.0), axis=1)


def box_rates(lo, hi, blocks) -> np.ndarray:
    """The rates t_j = ptp(0, x_1j, ..., x_mj) / (hi_j - lo_j) of the box
    prod_j [lo_j, hi_j] at (m, n) blocks, or at each row of an (N, m, n)
    batch: its covariogram at r * blocks is vol * prod_j (1 - r t_j)_+."""
    return (np.maximum(blocks.max(axis=-2), 0.0)
            - np.minimum(blocks.min(axis=-2), 0.0)) / (hi - lo)


def box_coefficients(t) -> np.ndarray:
    """The coefficients c_0, ..., c_n, lowest power first, of
    prod_j (1 - u t_j) at each row of an (..., n) array of rates t."""
    t = np.asarray(t, dtype=float)
    c = np.zeros(t.shape[:-1] + (t.shape[-1] + 1,))
    c[..., 0] = 1.0
    for j in range(t.shape[-1]):                    # times (1 - u t_j)
        c[..., 1:] = c[..., 1:] - t[..., j, None] * c[..., :-1]
    return c


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


def common_volume(bodies, shifts) -> np.ndarray:
    """vol_n((K_0 + t_0) cap ... cap (K_k + t_k)) at every row of an
    (N, k+1, n) batch of translations t, exact: the `_lasserre_volume` of
    polytopes' stacked rows about the vertex mean of K_0 + t_0, the least
    right side kept per normal (within 1e-12); `_disc_meeting` for discs;
    for two balls in R^n, n >= 3, two caps cut by their radical plane, each
    a half `lens` (past the centre, the ball less the other half).  Other
    tuples raise NotImplementedError."""
    n, T = bodies[0].dim, np.asarray(shifts, dtype=float)
    kinds = {K.kind for K in bodies}
    if kinds == {"polytope"}:
        A, T = np.vstack([K.normals for K in bodies]), T - T[:, :1]
        p = bodies[0].vertices.mean(axis=0)         # the origin, near the meeting
        c = np.hstack([K.offsets + (T[:, i] - p) @ K.normals.T for i, K in enumerate(bodies)])
        _, first, group = np.unique(np.round(A, 12) + 0.0, axis=0,
                                    return_index=True, return_inverse=True)
        least = np.full((len(first), len(T)), np.inf)
        np.minimum.at(least, group.ravel(), c.T)
        return _lasserre_volume(A[first], least.T)
    if kinds != {"ball"} or (n > 2 and len(bodies) > 2):
        raise NotImplementedError("exact common volumes need polytopes, discs in "
                                  "the plane or two balls")
    C = np.array([K.center for K in bodies]) + T
    rad = np.array([K.radius for K in bodies])
    if n == 2:
        return _disc_meeting(C - C.mean(axis=1, keepdims=True),
                             np.broadcast_to(rad, C.shape[:2]))
    vol = np.array([cc.volume(K).value for K in bodies])
    (r0, r1), gap = rad, np.linalg.norm(C[:, 1] - C[:, 0], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        # the radical plane lies at signed distance a_i from centre i
        a0 = 0.5 * (gap + (r0 - r1) * (r0 + r1) / gap)
        a = np.stack([a0, gap - a0], axis=1)
        half = 0.5 * lens(n, np.abs(a) / rad)
        caps = np.sum(vol * np.where(a >= 0.0, half, 1.0 - half), axis=1)
    return np.where(gap >= r0 + r1, 0.0, np.where(gap <= abs(r0 - r1), vol.min(), caps))


def _unit_ball_meeting(X: np.ndarray, n: int) -> float:
    """vol_n of the meeting of unit balls B(x_i, 1) in R^n, for distinct
    centres X given in the coordinates of their affine span, of dimension 2
    or 3.  A slice at height s over the first two axes is a meeting of discs
    of radii (1 - (s - z_i)^2)^(1/2).  In R^3 the volume integrates the
    slices along the third axis.  Over a plane (z = 0) every point at
    distance t from it sees the slice at s = t, so the volume is
    |S^{n-3}| int_0^reach t^(n-3) A(t) dt, reach^2 = 1 - R^2 with R the
    miniball radius of the centres, where the discs stop meeting."""
    _, R = cc.miniball(X)
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


def _area(A, c) -> np.ndarray:
    """Area of {y : A y <= c} for rows A (..., F, 2), unit or zero, at every
    right side c (N, ..., F): (1/2) sum_j c_j l_j (Lasserre, 1983), l_j the
    length of the segment of a_j.y = c_j that meets every other row.  Along
    y = c_j a_j + tau e_j, e_j = a_j turned by a right angle, row k reads
    tau (a_k.e_j) <= c_k - c_j (a_k.a_j).  A row parallel to a_j (its dot
    +-1 exactly, so that facing rows agree on their gap) empties the segment
    when it excludes the line, and of two rows on one line only the first
    keeps it.  A zero row reads 0 <= c_k: no bound, or an empty set."""
    F = A.shape[-2]
    At = np.swapaxes(A, -1, -2)
    slope = (A @ _QUARTER) @ At                                   # a_k.e_j at [j, k]
    up, down = slope > _PARALLEL_TOL, slope < -_PARALLEL_TOL
    parallel = ~(up | down) & ~np.eye(F, dtype=bool)
    dots = np.where(parallel, np.sign(A @ At), A @ At)
    room = c[..., None, :] - c[..., :, None] * dots
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = room / slope
    hi = np.where(up, bound, np.inf).min(axis=-1)
    lo = np.where(down, bound, -np.inf).max(axis=-1)
    tie = (room == 0.0) & (dots > 0.0) & np.tri(F, F, -1, dtype=bool)   # k before j
    blocked = np.any(parallel & ((room < 0.0) | tie), axis=-1) | ~np.any(A, axis=-1)
    length = np.where(blocked, 0.0, np.maximum(hi - lo, 0.0))
    return np.maximum(0.5 * np.sum(c * length, axis=-1), 0.0)


def _lasserre_volume(A, c) -> np.ndarray:
    """vol_n{x : A x <= c} for distinct unit rows A (F, n), n <= 3, at every
    row of an (N, F) batch of right sides c, exact (0 when empty): the
    interval length, the `_area`, or (1/3) sum_j c_j area_j.  On facet j,
    x = c_j a_j + E_j y with E_j a frame of a_j's plane, row k reads
    (E_j a_k).y <= c_k - c_j (a_j.a_k), divided by |E_j a_k| (a zero row for
    a_k parallel to a_j).  Rounding grows like (distance / size)^n, so
    callers put the origin near the set.  Rows go in blocks of _BLOCK elements."""
    F, n = A.shape
    if n > 3:
        raise NotImplementedError("exact polytope volumes need n <= 3")
    if n == 1:
        return np.maximum(c[:, A[:, 0] > 0].min(axis=1) + c[:, A[:, 0] < 0].min(axis=1), 0.0)
    if n == 3:
        proj = np.einsum("jyx,kx->jky", np.array([cc.plane_frame(a) for a in A]), A)
        size = np.linalg.norm(proj, axis=2)
        flat = size <= _PARALLEL_TOL
        size[flat] = 1.0
        rows = np.where(flat[..., None], 0.0, proj / size[..., None])
        dots = np.where(flat, np.sign(A @ A.T), A @ A.T)
        np.fill_diagonal(dots, 1.0)                 # a facet's own row reads 0 <= 0

    def volume(part):
        if n == 2:
            return _area(A, part)
        area = _area(rows, (part[:, None, :] - part[:, :, None] * dots) / size)
        return np.maximum(np.sum(part * area, axis=1) / 3.0, 0.0)

    step = max(1, _BLOCK // F ** n)        # F^n elements per row
    return np.concatenate([volume(c[s:s + step]) for s in range(0, max(len(c), 1), step)])


def _batch(xbars, n: int) -> np.ndarray:
    """An (N, m, n) or (N, m*n) batch of m-vectors as an (N, m, n) array."""
    B = np.asarray(xbars, dtype=float)
    if B.ndim == 2:
        B = B.reshape(len(B), -1, n)
    if B.ndim != 3 or B.shape[2] != n:
        raise ValueError("expected an (N, m, n) or (N, m*n) batch")
    return B


def covariogram_body_many(K: ConvexBody, xbars) -> np.ndarray:
    """Batch g_{K,m} over an (N, m, n) or (N, m*n) batch, exact and in one
    vectorized pass: balls through their meetings, axis-aligned boxes in
    closed form, other polytopes as the `_lasserre_volume` of K's rows with
    right sides c_j = b_j + min(0, min_i a_j.x_i), about K's vertex mean."""
    B = _batch(xbars, K.dim)
    if K.kind == "ball":
        return _ball_meeting_cov(K, B)
    box = K.axis_box
    if box is not None:
        return _box_cov(box[0], box[1], B)
    A = K.normals
    base = K.offsets - A @ K.vertices.mean(axis=0)
    return _lasserre_volume(A, base + np.minimum(0.0, (B @ A.T).min(axis=1)))


# ---------------------------------------------------------------------------
# support of g_{K,m}: the m-th difference construction D^m(K)


def _m_vectors(theta, n: int):
    """An (N, m, n) array as a batch (True), or one m-vector as a batch of
    one (False)."""
    if isinstance(theta, np.ndarray) and theta.ndim == 3:
        return theta, True
    return as_mvector(theta, n).blocks[None], False


def dm_support_radius(K: ConvexBody, theta):
    """max{r >= 0 : r*theta in D^m(K)} -- the radial function of D^m(K) --
    at one m-vector, or at each row of an (N, m, n) batch (an array).

    For a box it is 1/max_j t_j with the `box_rates` t, for a ball its
    radius over the miniball radius of (0, theta_1, ..., theta_m).  For
    another polytope it is the LP max r with y and every y - r theta_i in
    K; on K's own rows a_j that is a_j.y + r s_j <= b_j with
    s_j = max_i (-a_j.theta_i)_+, solved by `max_slack` from the vertex
    mean of K.  A batch takes one `box_rates` call on a box; a ball or
    another polytope takes its rows one at a time, each the one-row call.
    """
    B, batch = _m_vectors(theta, K.dim)
    if B.shape[2] != K.dim:
        raise ValueError(f"m-vectors have block dimension {B.shape[2]}, expected {K.dim}")
    if not np.all(np.linalg.norm(B, axis=(1, 2)) > 0.0):
        raise ValueError("direction must be nonzero")
    box = K.axis_box
    if box is not None:
        radii = 1.0 / box_rates(box[0], box[1], B).max(axis=1)
    elif K.kind == "ball":
        radii = np.array([K.radius / cc.miniball(np.vstack([np.zeros(K.dim), b]))[1]
                          for b in B])
    else:
        s = np.maximum(0.0, -(B @ K.normals.T).min(axis=1))
        x0 = K.vertices.mean(axis=0)
        radii = np.array([max_slack(K.normals, K.offsets, row, x0)[0] for row in s])
    return radii if batch else float(radii[0])


def dm_support_radius_fn(f: LogConcaveFunction, theta):
    """`dm_support_radius` of the support of f, built once per call; inf
    where f is not compactly supported."""
    B, batch = _m_vectors(theta, f.dim)
    supp = f.support_body()
    radii = np.full(len(B), math.inf) if supp is None else dm_support_radius(supp, B)
    return radii if batch else float(radii[0])


def level_set_volumes(bodies, rates, ts, max_sums: float = math.inf) -> np.ndarray | None:
    """vol_{nm}(t A + B) at every t of ts, exact, for polytopes K_0, ..., K_m
    in R^n with n*m <= 6 and rates r_j >= 0, or None past `max_sums` vertex
    sums.  With L(y_0, ..., y_m) = (y_0 - y_1, ..., y_0 - y_m), A is L of the
    hull of the origin and the K_j / r_j with r_j > 0, each in its own slot,
    and B is L of the product of the K_j with r_j = 0 ({0} if none): the x
    with K_0 cap (x_1 + K_1) cap ... cap (x_m + K_m) nonempty when every
    r_j is 0, D^m(K) for K_j = K.  Each volume is the hull of the vertex
    sums: their span at n*m = 1, the shoelace area at 2, qhull's above."""
    n, m = bodies[0].dim, len(bodies) - 1
    if n * m > 6 or any(K.kind != "polytope" for K in bodies):
        raise NotImplementedError("exact level-set volumes need polytopes with n*m <= 6")

    def placed(j, V):       # L of the points V in slot j
        Y = np.zeros((len(V), m + 1, n))
        Y[:, j] = V
        return (Y[:, :1] - Y[:, 1:]).reshape(len(V), n * m)

    origin = np.zeros((1, n * m))
    P = np.unique(np.vstack([origin] + [placed(j, K.vertices / r) for j, (K, r)
                                        in enumerate(zip(bodies, rates)) if r > 0.0]), axis=0)
    fixed = [j for j, r in enumerate(rates) if r == 0.0]
    sizes = [len(bodies[j].vertices) for j in fixed]
    if len(P) * math.prod(sizes) > max_sums:
        return None
    idx = np.indices(sizes).reshape(len(fixed), math.prod(sizes))
    Q = np.unique(sum((placed(j, bodies[j].vertices[i]) for j, i in zip(fixed, idx)), origin),
                  axis=0)
    out = []
    for t in ts:
        pts = (t * P[:, None, :] + Q[None, :, :]).reshape(-1, n * m)
        if n * m <= 2:
            out.append(float(np.ptp(pts)) if n * m == 1 else cc.polygon_area(pts))
        else:
            from scipy.spatial import ConvexHull
            out.append(float(ConvexHull(pts).volume))
    return np.array(out)


# ---------------------------------------------------------------------------
# function covariograms


def profile_cut(prof, n: int, scale: float) -> float:
    """Radius beyond which the level-set integrand is negligible."""
    if prof.support_radius < math.inf:
        return prof.support_radius
    eps = 1e-13 / max(1.0, scale * n)
    return prof.truncation_radius(eps, extra_power=n + max(1.0, prof.exponent) + 2.0)


def covariogram_fn(f: LogConcaveFunction, xbar) -> EstimateWithError:
    """g_{f,m}(xbar), the one-row `covariogram_fn_many`."""
    return covariogram_fn_many(f, as_mvector(xbar, f.dim).blocks[None]).row(0)


def covariogram_fn_many(f: LogConcaveFunction, xbars) -> Estimates:
    """g_{f,m} over an (N, m, n) or (N, m*n) batch, by the layer cake of
    f = A phi(||x - c||_K): with {f >= A phi(0) e^-v} = c + s(v) K,

        g_{f,m}(xbar) = A phi(0) int e^-v s(v)^n g_{K,m}(xbar / s(v)) dv

    over the depths v >= v_lo at which xbar lies in s(v) D^m(K).

    * An indicator is A g_{K,m}(xbar), exact.
    * On an axis box (every body in R^1 is one) g_{K,m}(xbar / s) is
      vol(K) sum_k c_k s^-k, with c_k the coefficients of prod_j (1 - u t_j)
      at the `box_rates` t of xbar, so the integral is closed: with the tail
      level moments T_j(v) = phi(0) int_v^inf e^-w s(w)^j dw
      (`lcfun.Profile.tail_level_moment`) and v_lo = depth(max_j t_j),

          g_{f,m}(xbar) = A vol(K) sum_k c_k T_{n-k}(v_lo),

      exact up to rounding, with no error bar.
    * Any other body integrates over exact body covariograms, one adaptive
      `integrate_1d` batch for every row, each row to the bit its solo
      integral; the error bar is the rule's.
    """
    K, prof, A, n = f.body, f.profile, f.amplitude, f.dim
    B = _batch(xbars, n)
    zero = np.zeros(len(B))
    if not math.isfinite(prof.phi0):
        raise NonIntegrableError("the p = 0 profile has infinite mass and "
                                 "no covariogram")
    if prof.kind == "indicator":
        return Estimates(A * covariogram_body_many(K, B), zero, zero.astype(int))
    vol_k = cc.volume(K).value
    box = K.axis_box
    if box is not None:
        t = box_rates(box[0], box[1], B)
        c = box_coefficients(t)
        v_lo = prof.depth(t.max(axis=1))
        total = sum(c[:, k] * prof.tail_level_moment(n - k, v_lo) for k in range(n + 1))
        return Estimates(np.maximum(A * vol_k * total, 0.0), zero, zero.astype(int))

    # r_lo = |xbar| / rho_{D^m K}(xbar / |xbar|): xbar enters s(v) D^m(K) at
    # the radius s = r_lo; past the profile's cut the integrand is negligible
    r_hi = profile_cut(prof, n, A * vol_k)
    r_lo = []
    for b in B:
        xb = MVector(b)
        nrm = xb.norm()
        r_lo.append(0.0 if nrm < 1e-300 else nrm / dm_support_radius(K, xb.unit()))
    live = np.flatnonzero(np.array(r_lo) < r_hi)
    out = Estimates(zero.copy(), zero.copy(), zero.astype(int))
    if not live.size:
        return out
    peak = A * prof.phi0
    X = B[live]

    def integrand(v, owner):
        s = prof.depth_scale(v)
        return peak * np.exp(-v) * s ** n * covariogram_body_many(
            K, X[owner] / s[:, None, None])

    v_hi = prof.depth(r_hi)           # the power kind's end r = 1 is v = inf
    est = integrate_1d(integrand, [prof.depth(r_lo[i]) for i in live], v_hi,
                       _LEVELSET_QUAD, tail_bound=(peak * vol_k, 1.0))   # s(v) <= 1 there
    out.value[live], out.std_error[live], out.nodes[live] = (
        est.value, est.std_error, est.nodes)
    return out


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

