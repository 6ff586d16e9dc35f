"""Ball bodies and radial p-th mean bodies, as radii along direction sets.

The radial function of the Ball body of a radial section psi (normalized so
psi(0) = sup psi = 1) is a Mellin mean of the section,

    rho^p = p int_0^inf r^{p-1} psi(r) dr = int_0^inf r^p (-psi'(r)) dr,
    log rho = int_0^inf log r (-psi'(r)) dr                 at p = 0,

for every p > -1, which is `mellin.i_p`.  Each ray therefore carries its
section as a `mellin.MellinProfile`, and `radial_from_ray` is one `i_p` call
for every kind of ray:

* an axis-aligned box K = prod_j [lo_j, hi_j] has the polynomial section
  prod_j (1 - r t_j)_+ with rates t_j = ptp(0, theta_1j, ..., theta_mj) /
  (hi_j - lo_j): one piece on [0, R], R = 1 / max_j t_j, with the
  `covariogram.box_coefficients` of t, and slope sum_j t_j at 0.  Its
  radii need no ray: `box_radii` takes a whole direction set and grid of
  exponents in one stacked call (`mellin.poly_means`), to the bit the
  radii of its rays; `body_radii` sends a box there and any other body to
  its rays;
* a ball of radius a at m = 1 has the lens section
  I_{1-(r/2a)^2}((n+1)/2, 1/2) (`mellin.lens`), whose Beta closed form
  `mellin` checks its quadratures against;
* every other body tabulates its section once per direction, and
  `mellin.from_table(..., root=n)` (the in-house monotone cubic interpolant
  `mellin.pchip` of psi^(1/n), with each cubic piece raised to the n-th
  power and its slope at 0 pinned to the exact projection-body gauge) is
  integrated knot by knot, so many p values reuse one ray.  The tabulated
  values are exact covariograms (`covariogram.covariogram_body_many`).

A function f = A phi(||x - c||_K) needs no rays of its own.  The layer cake
g_{f,m}(x) = A int (-phi'(s)) s^n g_{K,m}(x/s) ds factors its radial mean
bodies as rho(R_p^m f) = f.radial_factor(p) * rho(R_p^m K), with the profile
moments M_k = int (-phi') s^k ds in closed form.  `layer_cake_ray`
tabulates the function section in the original order of integration, from
`covariogram.covariogram_fn_many`; it is the independent reference that
checks that factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import convexcore as cc
from . import covariogram as cov
from . import mellin as ml
from . import projection as proj
from .convexcore import ConvexBody, UnboundedBodyError
from .lcfun import LogConcaveFunction
from .numerics import EstimateWithError, sphere_sample, sphere_surface

_STREAM_STAR_DIRS = 401

_LAYER_CAKE_NODES = 1024    # fixed radii of a layer-cake ray (Gaussian section to 2e-8)
RAY_NODES = 256             # default radii tabulated along a body's ray (`body_ray`)


def default_direction_count(d: int) -> int:
    return 64 if d <= 4 else 256


# ---------------------------------------------------------------------------
# radial sections


@dataclass(frozen=True)
class RadialRay:
    """A normalized radial section psi(r) = g(r*theta)/g(0) along one direction.

    `profile` is psi as a Mellin profile, and slope0 = |psi'(0+)|, exact (the
    normalized projection-body gauge).
    """

    profile: ml.MellinProfile
    slope0: float


def _box_ray(lo, hi, blocks) -> RadialRay:
    """The section prod_j (1 - r t_j)_+ of a box along a unit m-direction."""
    rates = cov.box_rates(lo, hi, blocks)
    R = 1.0 / float(rates.max())
    pp = ml.Pieces(cov.box_coefficients(rates)[::-1, None], np.array([0.0, R]))
    return RadialRay(ml.from_ppoly(pp), float(rates.sum()))


def body_ray(K: ConvexBody, m: int, theta, nodes: int = RAY_NODES) -> RadialRay:
    """The normalized covariogram section of a body along one unit direction:
    the polynomial prod_j (1 - r t_j)_+ for an axis-aligned box, the lens for
    a ball at m = 1, else a table of exact covariograms at `nodes` radii
    whose interpolant starts at the exact slope.
    """
    th = as_unit(theta, K.dim)
    box = K.axis_box
    if box is not None:
        return _box_ray(box[0], box[1], th.blocks)
    if K.kind == "ball" and m == 1:
        lens = ml.lens(K.dim, K.radius)
        return RadialRay(lens, -lens.slope0)
    vol = cc.volume(K).value
    R = cov.dm_support_radius(K, th)
    slope0 = proj.ppb_gauge_body(K, m, th) / vol
    grid = np.linspace(0.0, R, nodes)
    vals = cov.covariogram_body_many(K, grid[:, None, None] * th.blocks[None, :, :])
    vals = np.clip(vals / vol, 0.0, 1.0)
    vals[0] = 1.0
    return RadialRay(ml.from_table(grid, vals, root=K.dim, slope0=slope0), slope0)


def layer_cake_ray(f: LogConcaveFunction, m: int, theta) -> RadialRay:
    """Reference section g_{f,m}(r theta) / ||f||_1 at fixed radii, from
    `covariogram.covariogram_fn_many`: the layer cake in its original order,
    closed over a box and a level quadrature over exact body covariograms
    elsewhere.  The radii run to the support, or on a quartic grading to
    where the section is below 1e-12; the slope at 0 is the Richardson
    difference (10 d(h/10) - d(h)) / 9 of the quotients d(x) = (1 - psi(x)) / x
    at h = 1e-5 R.  Both points ride in the one section call with the grid;
    its rows are independent.  Never swapping the order of integration, it
    checks `radial_mean_body_fn`.
    """
    th = as_unit(theta, f.dim)
    prof, n = f.profile, f.dim
    R = cov.dm_support_radius(f.body, th)
    support = R * prof.support_radius
    if math.isfinite(support):
        grid = np.linspace(0.0, support, _LAYER_CAKE_NODES)
    else:   # quartic grading resolves heavy tails that fall steeply at 0
        horizon = R * prof.truncation_radius(1e-12, n + 8)
        grid = horizon * np.linspace(0.0, 1.0, _LAYER_CAKE_NODES) ** 4
    h = 1e-5 * R
    radii = np.append(grid, [h, h / 10.0])
    g = cov.covariogram_fn_many(f, radii[:, None, None] * th.blocks[None])
    vals = np.clip(g.value / f.mass(), 0.0, 1.0)
    d1, d2 = (1.0 - vals[-2:]) / radii[-2:]
    slope0 = (10.0 * d2 - d1) / 9.0
    return RadialRay(ml.from_table(grid, vals[:-2], root=n), float(slope0))


def as_unit(theta, n: int) -> cov.MVector:
    th = cov.as_mvector(theta, n)
    if th.norm() <= 0.0:
        raise ValueError("direction must be nonzero")
    return th.unit()


# ---------------------------------------------------------------------------
# Ball-body radii


def radial_from_ray(ray: RadialRay, p: float) -> EstimateWithError:
    """rho of the Ball body of a ray, `mellin.i_p` of its profile."""
    return EstimateWithError(ml.i_p(ray.profile, p), 0.0, 0)


def limit_body_minus1(ray: RadialRay) -> float:
    """rho of the limiting body at p = -1: reciprocal normalized slope at 0+."""
    if ray.slope0 <= 0.0:
        return math.inf
    return 1.0 / ray.slope0


# ---------------------------------------------------------------------------
# radial mean bodies over direction sets


def radii_at(rays, p) -> np.ndarray:
    """rho at p of every ray's Ball body, one row per ray, with one column
    per exponent when p is an array: one `mellin.i_p` call over the whole
    grid per distinct ray object."""
    distinct = {id(ray): ray for ray in rays}
    rho = {key: ml.i_p(ray.profile, p) for key, ray in distinct.items()}
    return np.array([rho[id(ray)] for ray in rays])


def rays_for(dirs, m: int, make_ray):
    """One ray per distinct direction; duplicates share the same object.
    At m = 1 the directions theta and -theta share one ray too, since
    g_K(x) = g_K(-x); it is built along the first of the two in `dirs`."""
    cache: dict[bytes, RadialRay] = {}
    rays = []
    for k in range(len(dirs)):
        theta = np.round(dirs[k], 15) + 0.0          # + 0.0 turns -0.0 into 0.0
        key = theta.tobytes()
        if m == 1:                                   # one key for the pair +-theta
            key = max(key, (0.0 - theta).tobytes())
        if key not in cache:
            cache[key] = make_ray(dirs[k])
        rays.append(cache[key])
    return rays


def box_radii(K: ConvexBody, m: int, dirs, p) -> tuple[np.ndarray, np.ndarray]:
    """rho at p of R_p^m K for an axis box K along every row of dirs (each
    normalized, as `as_unit` does), one column per exponent when p is an
    array, and the p -> -1 limit 1 / sum_j t_j.  One `covariogram.box_rates`
    call takes the whole (D, m, n) batch; with R = 1 / max_j t_j, the
    section in units of R is prod_j (1 - x R t_j), with coefficients c_k R^k
    (c = `covariogram.box_coefficients` of t), and rho is R times its
    `mellin.poly_means`.  No ray is built."""
    lo, hi = K.axis_box
    dirs = np.asarray(dirs, dtype=float)
    norms = np.sqrt(np.vecdot(dirs, dirs))
    if not np.all(norms > 0.0):
        raise ValueError("direction must be nonzero")
    t = cov.box_rates(lo, hi, (dirs / norms[:, None]).reshape(len(dirs), m, K.dim))
    R = 1.0 / t.max(axis=1)
    c = cov.box_coefficients(t) * R[:, None] ** np.arange(K.dim + 1)   # as from_ppoly scales
    means = ml.poly_means(c, p)
    return R.reshape((-1,) + (1,) * (means.ndim - 1)) * means, 1.0 / t.sum(axis=1)


def body_radii(K: ConvexBody, m: int, dirs, p, nodes: int = RAY_NODES):
    """`box_radii` on an axis box; on any other body the radii of one
    `body_ray` per distinct direction (`rays_for`, `radii_at`), and their
    p -> -1 limits (`limit_body_minus1`)."""
    if K.axis_box is not None:
        return box_radii(K, m, dirs, p)
    rays = rays_for(dirs, m, lambda th: body_ray(K, m, th, nodes=nodes))
    return radii_at(rays, p), np.array([limit_body_minus1(ray) for ray in rays])


def radial_mean_body_body(K: ConvexBody, m: int, p: float, directions=None,
                          seed: int = 0, nodes: int = RAY_NODES) -> np.ndarray:
    """Radii of R_p^m K along `direction_set(directions, nm, seed)`."""
    dirs = direction_set(directions, K.dim * m, seed)
    return body_radii(K, m, dirs, p, nodes=nodes)[0]


def radial_mean_body_fn(f: LogConcaveFunction, m: int, p: float,
                        directions=None, seed: int = 0) -> np.ndarray:
    """Radii of R_p^m f: those of R_p^m K for the body K of f, times the
    profile-moment factor f.radial_factor(p) (1 for indicators)."""
    factor = f.radial_factor(p)
    return factor * radial_mean_body_body(f.body, m, p, directions=directions,
                                          seed=seed)


def direction_set(directions, d: int, seed: int) -> np.ndarray:
    """The given directions normalized, or the default seeded sphere sample."""
    if directions is None:
        return sphere_sample(d, default_direction_count(d), seed,
                             stream=_STREAM_STAR_DIRS)
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    if dirs.shape[1] != d:
        raise ValueError(f"directions must have {d} components")
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def star_volume(radii: np.ndarray, d: int) -> EstimateWithError:
    """(1/d) * surface(S^{d-1}) * mean(rho^d) over the radii of a star body
    along directions sampled uniformly on S^{d-1}, with its standard error."""
    if np.any(~np.isfinite(radii)):
        raise UnboundedBodyError("a radius of the star body is unbounded")
    count = len(radii)
    if count < 2:
        raise ValueError("a sphere average needs at least two directions")
    rho_d = radii ** d
    surface = sphere_surface(d)
    value = surface * float(rho_d.mean()) / d
    sigma = surface * float(rho_d.std(ddof=1)) / (d * math.sqrt(count))
    return EstimateWithError(value, sigma, count)
