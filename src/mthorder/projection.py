"""Polar projection bodies of order m, for bodies and log-concave functions.

For a polytope the gauge of the m-th order polar projection body is the
facet sum

    ||thetabar||_{PPB(K,m)} = sum_F area_F * max_i <n_F, theta_i>_-.

For a Euclidean ball rB^n the Cauchy-Kubota formula (Schneider, Convex
Bodies: The Brunn-Minkowski Theory) gives it in closed form,

    ||thetabar||_{PPB(rB^n,m)} = r^{n-1} kappa_{n-1} V_1(conv{0, -theta_1, ..., -theta_m}),

with kappa_{n-1} the volume of the unit (n-1)-ball and V_1 the first
intrinsic volume: half the perimeter of that hull when it is planar, and
a sum over its edges when it spans three dimensions.  Both are exact; a
ball gauge whose hull may span four or more dimensions (n >= 4 and
m >= 4) raises NotImplementedError.  Function versions flow through the
layer-cake decomposition: every level set of a profile function is a
dilate of one body, so the gauge picks up a single profile-dependent
factor.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import convexcore as cc
from . import starbodies as sb
from .convexcore import ConvexBody, UnboundedBodyError
from .covariogram import as_mvector, covariogram_fn
from .lcfun import LogConcaveFunction
from .numerics import EstimateWithError, sphere_sample, sphere_surface

_STREAM_PPB_DIRS = 301
_FLAT_TOL = 1e-12   # relative singular value below which a hull counts as flat


def require_exact_gauge(K: ConvexBody, m: int) -> None:
    """Raise NotImplementedError unless the gauge of PPB(K, m) is evaluated
    here: always for a polytope, and for a ball when conv{0, theta_i} spans
    at most three dimensions, that is n <= 3 or m <= 3."""
    if K.kind == "ball" and min(K.dim, m) > 3:
        raise NotImplementedError(
            f"exact ball gauge needs n <= 3 or m <= 3, got n = {K.dim}, m = {m}")


def ppb_gauge_body(K: ConvexBody, m: int, theta) -> float:
    """||theta||_{PPB(K,m)}, exact for polytopes and balls."""
    th = as_mvector(theta, K.dim)
    if th.m != m:
        raise ValueError(f"direction has {th.m} blocks, expected m = {m}")
    return float(ppb_gauge_body_many(K, m, th.blocks[None])[0])


def ppb_gauge_body_many(K: ConvexBody, m: int, thetas) -> np.ndarray:
    """Vectorized gauge over a (D, m, n) or (D, m*n) batch of directions."""
    T = np.asarray(thetas, dtype=float)
    if T.ndim == 2:
        T = T.reshape(len(T), m, K.dim)
    if K.kind == "ball":
        # V_1 is invariant under x -> -x, so the hull of the theta_i serves
        require_exact_gauge(K, m)
        n = K.dim
        kappa = sphere_surface(n - 1) / (n - 1)
        return K.radius ** (n - 1) * kappa * _hull_v1(T)
    fd = cc.facets(K)
    inner = (T.reshape(-1, K.dim) @ fd.normals.T).reshape(len(T), m, -1)
    return np.maximum(0.0, -inner.min(axis=1)) @ fd.areas


def _hull_v1(T) -> np.ndarray:
    """V_1(conv{0, theta_1, ..., theta_m}) for a (D, m, n) batch whose hulls
    span at most three dimensions."""
    D, m, n = T.shape
    if m == 1:
        return np.linalg.norm(T[:, 0], axis=1)
    if m == 2:
        return 0.5 * (np.linalg.norm(T[:, 0], axis=1) + np.linalg.norm(T[:, 1], axis=1)
                      + np.linalg.norm(T[:, 0] - T[:, 1], axis=1))
    if n == 2:
        return 0.5 * _perimeter_2d(_with_origin(T))
    # m, n >= 3: read the hull in coordinates of the span of the blocks
    _, s, vt = np.linalg.svd(T, full_matrices=False)   # min(n, m) = 3
    P = _with_origin(T @ vt[:, :3].transpose(0, 2, 1))
    out = np.full(D, math.nan)
    for k in np.flatnonzero(s[:, 2] > _FLAT_TOL * s[:, 0]):
        out[k] = _polyhedron_v1(P[k])
    flat = np.isnan(out)
    if flat.any():
        out[flat] = 0.5 * _perimeter_2d(P[flat][..., :2])
    return out


def _with_origin(T) -> np.ndarray:
    return np.concatenate([np.zeros((len(T), 1, T.shape[2])), T], axis=1)


def _polyhedron_v1(P) -> float:
    """V_1 of a 3-D hull conv(P): (1/2pi) sum over its edges of the length
    times the angle between the normals of the two facets meeting there;
    nan when qhull finds conv(P) flat to working precision."""
    from scipy.spatial import ConvexHull, QhullError
    try:
        hull = ConvexHull(P)
    except QhullError:
        return math.nan
    S, N = hull.simplices, hull.equations[:, :3]
    # facet f meets its neighbour opposite vertex k along the other two
    length = np.linalg.norm(P[S[:, [1, 2, 0]]] - P[S[:, [2, 0, 1]]], axis=-1)
    n1, n2 = N[:, None, :], N[hull.neighbors]
    angle = 2.0 * np.arctan2(np.linalg.norm(n1 - n2, axis=-1),
                             np.linalg.norm(n1 + n2, axis=-1))
    return float(np.sum(length * angle)) / (4.0 * math.pi)   # each edge twice


def _perimeter_2d(P) -> np.ndarray:
    """Perimeter of conv(P) for a (D, k, 2) batch, by Cauchy's formula
    L = int_0^{2pi} h(phi) dphi.  The maximizing point of <u(phi), p> can
    change only where u(phi) is orthogonal to some p_i - p_j, so between
    those angles h is one sinusoid, integrated exactly."""
    i, j = np.triu_indices(P.shape[1], 1)
    diff = P[:, i] - P[:, j]
    normal = np.arctan2(diff[..., 1], diff[..., 0]) + 0.5 * math.pi
    cuts = np.sort(np.mod(np.concatenate([normal, normal + math.pi], axis=1),
                          2.0 * math.pi), axis=1)
    cuts = np.concatenate([cuts, cuts[:, :1] + 2.0 * math.pi], axis=1)
    a, b = cuts[:, :-1], cuts[:, 1:]
    mid = 0.5 * (a + b)
    u = np.stack([np.cos(mid), np.sin(mid)], axis=-1)          # (D, S, 2)
    best = np.argmax(u @ P.transpose(0, 2, 1), axis=2)         # (D, S)
    x = np.take_along_axis(P[..., 0], best, axis=1)
    y = np.take_along_axis(P[..., 1], best, axis=1)
    arcs = x * (np.sin(b) - np.sin(a)) - y * (np.cos(b) - np.cos(a))
    return arcs.sum(axis=1)


def level_scale_integral(f: LogConcaveFunction) -> float:
    """A * M_{n-1} = A * int_0^inf r^{n-1} (-phi'(r)) dr, the factor carrying
    the gauge of PPB(K,m) to the function body PPB(<f>,m) through the layer
    cake."""
    return f.amplitude * f.profile.level_moment(f.dim - 1.0)


def ppb_gauge_fn(f: LogConcaveFunction, m: int, theta) -> float:
    """||theta||_{PPB(<f>,m)} = level_scale_integral(f) * ||theta||_{PPB(K,m)}."""
    return level_scale_integral(f) * ppb_gauge_body(f.body, m, theta)


def ppb_body_polytope(K: ConvexBody, m: int) -> ConvexBody:
    """The unit ball {||theta|| <= 1} of the PPB gauge, as an H-polytope.

    The facet sum of per-facet maxima equals the maximum of all per-facet
    selections, giving (m+1)^F candidate linear functionals; bodies are
    built only for nm <= 3.
    """
    if K.kind != "polytope":
        raise ValueError("exact PPB unit balls need a polytope")
    d = K.dim * m
    if d > 3:
        raise NotImplementedError("exact PPB unit ball limited to nm <= 3")
    fd = cc.facets(K)
    rows = []
    for sel in itertools.product(range(m + 1), repeat=len(fd.normals)):
        c = np.zeros((m, K.dim))
        for f_idx, j in enumerate(sel):
            if j > 0:
                c[j - 1] -= fd.areas[f_idx] * fd.normals[f_idx]
        rows.append(c.ravel())
    rows = np.unique(np.asarray(rows), axis=0)
    keep = np.linalg.norm(rows, axis=1) > 1e-14
    return cc.from_halfspaces(rows[keep], np.ones(int(keep.sum())))


def ppb_volume(source, m: int, seed: int = 0,
               directions: int = 10_000) -> EstimateWithError:
    """vol_{nm} of the PPB unit ball of a body or a log-concave function:
    exact for polytopes with nm <= 3 and for balls at m = 1, otherwise the
    star volume of the radii 1/gauge over `directions` seeded directions."""
    if isinstance(source, LogConcaveFunction):
        base = ppb_volume(source.body, m, seed=seed, directions=directions)
        d = source.dim * m
        return base.scaled(level_scale_integral(source) ** (-d))
    K = source
    d = K.dim * m
    if K.kind == "polytope" and d <= 3:
        return cc.volume(ppb_body_polytope(K, m))
    if K.kind == "ball" and m == 1:
        # the gauge is constant on the sphere, so the unit ball is a ball
        unit_gauge = ppb_gauge_body_many(K, 1, np.eye(K.dim)[:1])[0]
        return cc.volume(cc.ball(K.dim, 1.0 / unit_gauge))
    dirs = sphere_sample(d, directions, seed, stream=_STREAM_PPB_DIRS)
    gauges = ppb_gauge_body_many(K, m, dirs.reshape(len(dirs), m, K.dim))
    if np.any(gauges <= 1e-12):
        raise UnboundedBodyError("PPB gauge vanishes along a sampled direction")
    return sb.star_volume(1.0 / gauges, d)


def matheron_consistency(f: LogConcaveFunction, m: int, theta) -> dict:
    """Error of the raw covariogram difference quotient against the PPB gauge.

    The quotient (g(h) - g(0))/h converges at first order, so halving-type
    step ratios should reproduce the step ratio itself; callers check the
    observed ratio against [8, 12] for the steps h = 1e-3 and 1e-4.
    """
    steps = (1e-3, 1e-4)
    th = as_mvector(theta, f.dim)
    if th.m != m:
        raise ValueError(f"direction has {th.m} blocks, expected m = {m}")
    th = th.unit()
    gauge = ppb_gauge_fn(f, m, th)
    g0 = f.mass()
    errors = []
    for h in steps:
        quot = (covariogram_fn(f, th.scaled(h)).value - g0) / h
        errors.append(abs(quot + gauge))
    ratio = errors[0] / errors[1] if errors[1] > 0 else math.inf
    return {"gauge": gauge, "steps": steps, "errors": errors,
            "ratio": ratio}
