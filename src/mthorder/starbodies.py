"""Ball bodies and radial p-th mean bodies, as star-body radial tables.

The radial function of the Ball body of a radial section g (normalized so
g(0) = sup g = 1) is

    rho^p = p * int_0^inf r^{p-1} psi(r) dr                 p > 0
    rho   = exp( int_0^inf (-psi'(r)) log r dr )            p = 0
    rho^p = p * int_0^inf r^{p-1} (psi(r) - 1) dr           -1 < p < 0

Radial mean bodies apply this to covariogram sections r -> g_{K,m}(r*theta)
normalized by vol(K).  On an axis-aligned box K = prod_j [lo_j, hi_j] the
section is the polynomial

    psi(r) = prod_j (1 - r t_j)_+ = sum_k a_k r^k   on [0, R],  R = 1 / max_j t_j,

with rates t_j = ptp(0, theta_1j, ..., theta_mj) / (hi_j - lo_j) and
a = np.poly(t), so rho = R (-sum_{k>=1} k a_k R^k / (p + k))^{1/p} for every
p in (-1, inf) off 0, rho = R exp(sum_{k>=1} a_k R^k / k) at p = 0, and the
slope at 0 is sum_j t_j.  A ball at m = 1 evaluates its section directly;
every other body tabulates it once per direction and interpolates, so that
many p values can reuse one ray.

A function f = A phi(||x - c||_K) needs no rays of its own.  The layer cake
g_{f,m}(x) = A int (-phi'(s)) s^n g_{K,m}(x/s) ds factors its radial mean
bodies as rho(R_p^m f) = f.radial_factor(p) * rho(R_p^m K), with the profile
moments M_k = int (-phi') s^k ds in closed form.  `layer_cake_ray`
tabulates the function section in the original order of integration; it
is the independent reference that checks that factorization.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.interpolate import PchipInterpolator

from . import convexcore as cc
from . import covariogram as cov
from . import projection as proj
from .convexcore import ConvexBody, UnboundedBodyError
from .lcfun import ZERO_P_WINDOW, LogConcaveFunction, NonIntegrableError
from .numerics import (EstimateWithError, QuadratureConfig, combine_sigma,
                       gauss_panels, integrate_1d, sphere_sample, sphere_surface)

_STREAM_STAR_DIRS = 401

_LEVEL_PANELS = 24        # geometric Gauss panels per radius of a layer-cake ray
_LAYER_CAKE_NODES = 1024  # fixed radii of a layer-cake ray (Gaussian section to 2e-8)
_LEVEL_DEPTH = 40.0       # least level depth v (levels down to e^-v of the peak)


def default_direction_count(d: int) -> int:
    return 64 if d <= 4 else 256


# ---------------------------------------------------------------------------
# radial sections


@dataclass(frozen=True)
class RadialRay:
    """A normalized radial section psi(r) = g(r*theta)/g(0) along one direction.

    psi is a callable accepting scalars or 1-d arrays; support_radius may be
    inf, in which case tail_radius gives a finite horizon beyond which the
    section is negligible.  slope0 is |psi'(0+)| where known exactly (the
    normalized projection-body gauge), sigma an optional pointwise std error.
    rates, set on box rays only, are the t_j of psi(r) = prod_j (1 - r t_j)_+,
    from which `radial_from_ray` takes the Ball-body radius in closed form.
    """

    psi: Callable
    support_radius: float
    tail_radius: float
    slope0: float | None = None
    sigma: Callable | None = None
    rates: tuple | None = None


def _body_section_direct(K: ConvexBody, thb: np.ndarray, vol: float,
                         seed: int, samples: int | None):
    """Vectorized normalized section of a body with cheap exact covariograms."""
    def section(r):
        rr = np.atleast_1d(np.asarray(r, dtype=float))
        vals, _ = cov.covariogram_body_many(
            K, rr[:, None, None] * thb[None, :, :], seed=seed, samples=samples)
        out = np.clip(vals / vol, 0.0, 1.0)
        return out if np.ndim(r) else float(out[0])
    return section


def _interp_section(grid, vals, root_power: float, cutoff: float):
    interp = PchipInterpolator(grid, np.maximum(vals, 0.0) ** (1.0 / root_power))

    def psi(r):
        rr = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.where(rr < cutoff,
                       np.maximum(interp(np.minimum(rr, cutoff * (1 - 1e-15))), 0.0)
                       ** root_power,
                       0.0)
        return out if np.ndim(r) else float(out[0])

    return psi


def _box_ray(lo, hi, blocks) -> RadialRay:
    """The section prod_j (1 - r t_j)_+ of a box along a unit m-direction."""
    rates = cov.box_rates(lo, hi, blocks)
    R = 1.0 / float(rates.max())

    def psi(r):
        out = np.prod(np.clip(1.0 - np.multiply.outer(r, rates), 0.0, 1.0), axis=-1)
        return out if np.ndim(r) else float(out)

    return RadialRay(psi, R, R, float(rates.sum()), None, tuple(rates.tolist()))


def body_ray(K: ConvexBody, m: int, theta, seed: int = 0,
             samples: int | None = None, nodes: int = 256) -> RadialRay:
    """The normalized covariogram section of a body along one unit direction:
    prod_j (1 - r t_j)_+ with its rates t for an axis-aligned box, the exact
    section for a ball at m = 1, else a Pchip table of covariograms at
    `nodes` radii (`samples` draws each where they are Monte Carlo).
    """
    th = as_unit(theta, K.dim)
    box = cov.axis_box(K)
    if box is not None:
        return _box_ray(box[0], box[1], th.blocks)
    vol = cc.volume(K).value
    R = cov.dm_support_radius(K, th)
    slope0 = proj.ppb_gauge_body(K, m, th) / vol
    if K.kind == "ball" and m == 1:
        psi = _body_section_direct(K, th.blocks, vol, seed, samples)
        return RadialRay(psi, R, R, slope0, None)
    grid = np.linspace(0.0, R, nodes)
    vals, sigs = cov.covariogram_body_many(
        K, grid[:, None, None] * th.blocks[None, :, :], seed=seed, samples=samples)
    vals = np.clip(vals / vol, 0.0, 1.0)
    vals[0] = 1.0
    psi = _interp_section(grid, vals, float(K.dim), R)
    sigma = None
    if np.any(sigs > 0.0):
        lin = PchipInterpolator(grid, sigs / vol)
        def sigma(r):  # noqa: E306
            rr = np.atleast_1d(np.asarray(r, dtype=float))
            out = np.where(rr < R, np.abs(lin(np.minimum(rr, R))), 0.0)
            return out if np.ndim(r) else float(out[0])
    return RadialRay(psi, R, R, slope0, sigma)


def layer_cake_ray(f: LogConcaveFunction, m: int, theta, seed: int = 0,
                   samples: int | None = None) -> RadialRay:
    """Reference section g_{f,m}(r theta) / ||f||_1 at fixed radii,
    by the layer cake in its original order, over the level depth v:

        g_{f,m}(r theta) = A phi(0) int e^{-v} s(v)^n g_{K,m}(r theta / s(v)) dv,

    s(v) = profile.depth_scale(v), on geometric Gauss panels from the depth
    at which r theta enters s(v) D^m(K); all (radius, level) pairs take one
    call of the body section.  The slope at 0 is a Richardson difference of
    the same integral over exact body covariograms.  Never swapping the
    order of integration, it checks `radial_mean_body_fn`.
    """
    th = as_unit(theta, f.dim)
    K, prof, n = f.body, f.profile, f.dim
    vol = cc.volume(K).value
    R = cov.dm_support_radius(K, th)
    weight = f.amplitude * prof.phi0 * vol / f.mass()
    cut = float(prof.value(cov.profile_cut(prof, n, f.amplitude * vol))) / prof.phi0
    depth = max(_LEVEL_DEPTH, -math.log(cut)) if cut > 0.0 else _LEVEL_DEPTH
    unit, unit_w = gauss_panels(np.linspace(0.0, 1.0, _LEVEL_PANELS + 1))

    def section(r, body_psi):
        with np.errstate(divide="ignore"):
            v_lo = -np.log(np.asarray(prof.value(r / R)) / prof.phi0)
        live = (v_lo < depth) & (r > 0.0)
        v_lo = np.maximum(v_lo[live, None], 1e-18)
        span = np.log(depth / v_lo)
        V = v_lo * np.exp(span * unit)
        S = prof.depth_scale(V)
        g = body_psi((r[live, None] / S).ravel()).reshape(S.shape)
        out = np.where(r > 0.0, 0.0, 1.0)
        out[live] = weight * np.sum(span * unit_w * V * np.exp(-V) * S ** n * g,
                                    axis=1)
        return np.clip(out, 0.0, 1.0)

    support = R * prof.support_radius
    if math.isfinite(support):
        grid = np.linspace(0.0, support, _LAYER_CAKE_NODES)
    else:   # quartic grading resolves heavy tails that fall steeply at 0
        horizon = R * prof.truncation_radius(1e-12, n + 8)
        grid = horizon * np.linspace(0.0, 1.0, _LAYER_CAKE_NODES) ** 4
    body = body_ray(K, m, th, seed=seed, samples=samples)
    # batches of 256 radii keep the (radius, level) arrays under 1 MB each
    vals = np.concatenate([section(rows, body.psi)
                           for rows in np.array_split(grid, _LAYER_CAKE_NODES // 256)])
    exact = body.psi if body.rates is not None \
        else _body_section_direct(K, th.blocks, vol, seed, samples)
    slope0 = _fd_slope(lambda r: float(section(np.array([r]), exact)[0]), R)
    return RadialRay(_interp_section(grid, vals, float(n), grid[-1]),
                     support, grid[-1], slope0, None)


def as_unit(theta, n: int) -> cov.MVector:
    th = cov.as_mvector(theta, n)
    if th.norm() <= 0.0:
        raise ValueError("direction must be nonzero")
    return th.unit()


# ---------------------------------------------------------------------------
# the three-branch radial formula


def _level_radius(psi, horizon: float, level: float) -> float:
    """First radius at which the nonincreasing section drops to `level`."""
    if psi(horizon) > level:
        return horizon
    lo, hi = 0.0, horizon
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if psi(mid) > level:
            lo = mid
        else:
            hi = mid
    return hi


def _fd_slope(psi, scale: float) -> float:
    h = 1e-5 * scale
    d1 = (1.0 - psi(h)) / h
    d2 = (1.0 - psi(h / 10.0)) / (h / 10.0)
    return (10.0 * d2 - d1) / 9.0


def ball_body_radial(psi, p: float, *, support_radius: float = math.inf,
                     tail_radius: float | None = None,
                     slope0: float | None = None,
                     cfg: QuadratureConfig | None = None) -> float:
    """Radial value of the Ball body of a normalized section (psi(0) = 1).

    p values within 1e-6 of 0 are routed to the p = 0 branch, evaluated as
    the derivative-weighted log integral after integration by parts (which
    trades the radial derivative for two ordinary integrals).  The p < 0
    branch integrates the subtracted section, with the singular segment
    [0, delta] replaced by its tangent-line model.
    """
    if p <= -1.0:
        raise ValueError("p must exceed -1")
    T = support_radius if math.isfinite(support_radius) else tail_radius
    if T is None or not math.isfinite(T) or T <= 0.0:
        raise NonIntegrableError("section needs a finite integration horizon")
    cfg = cfg or QuadratureConfig()

    if abs(p) <= ZERO_P_WINDOW:
        r_half = _level_radius(psi, T, 0.5)
        near = integrate_1d(lambda r: (psi(r) - 1.0) / r, 0.0, r_half, cfg=cfg)
        far = integrate_1d(lambda r: psi(r) / r, r_half, T, cfg=cfg)
        return math.exp(near.value + far.value + math.log(r_half))

    if p >= 0.05:
        cfg_pos = cfg if p >= 1.0 else replace(cfg, singular_exponent=p - 1.0)
        inner = integrate_1d(lambda u: float(psi(T * u)) * u ** (p - 1.0),
                             0.0, 1.0, cfg=cfg_pos)
        return T * (p * max(inner.value, 0.0)) ** (1.0 / p)

    if p > 0.0:
        # small positive p: p*int u^{p-1} psi = 1 + p*int u^{p-1}(psi - 1),
        # whose integrand is bounded; the direct form is ill-conditioned here
        inner = integrate_1d(lambda u: (float(psi(T * u)) - 1.0) * u ** (p - 1.0),
                             0.0, 1.0, cfg=cfg)
        return T * max(1.0 + p * inner.value, 0.0) ** (1.0 / p)

    if slope0 is None:
        slope0 = _fd_slope(psi, _level_radius(psi, T, 0.99))
    r99 = _level_radius(psi, T, 0.99)
    delta = 1e-3 * r99
    # quadratic correction to the tangent-line model on [0, delta]
    curv = (float(psi(delta)) - 1.0 + slope0 * delta) / delta ** 2
    seg = -slope0 * delta ** (p + 1.0) / (p + 1.0) \
        + curv * delta ** (p + 2.0) / (p + 2.0)
    mid = integrate_1d(lambda r: r ** (p - 1.0) * (float(psi(r)) - 1.0),
                       delta, T, cfg=cfg)
    val = p * (seg + mid.value) + T ** p
    if val <= 0.0:
        raise ArithmeticError("subtracted moment came out nonpositive")
    return val ** (1.0 / p)


def _box_radial(ray: RadialRay, p: float) -> float:
    """rho_p of the polynomial section prod_j (1 - r t_j)_+, term by term."""
    a = np.poly(ray.rates)[1:]      # a_1 .. a_n; a_0 = 1
    R = ray.support_radius
    k = np.arange(1, len(a) + 1)
    aR = a * R ** k
    if abs(p) <= ZERO_P_WINDOW:
        return R * math.exp(float(np.sum(aR / k)))
    return R * float(-np.sum(k * aR / (p + k))) ** (1.0 / p)


def radial_from_ray(ray: RadialRay, p: float) -> EstimateWithError:
    """rho of the Ball body of a ray, with an error bar when the ray is noisy.

    A box ray takes the closed form R (-sum_{k>=1} k a_k R^k / (p + k))^{1/p},
    a = np.poly(rates), or R exp(sum_{k>=1} a_k R^k / k) within ZERO_P_WINDOW
    of 0; every other ray goes through `ball_body_radial`.
    """
    if ray.rates is not None:
        if p <= -1.0:
            raise ValueError("p must exceed -1")
        return EstimateWithError(_box_radial(ray, p), 0.0, 0)
    kw = dict(support_radius=ray.support_radius, tail_radius=ray.tail_radius,
              slope0=ray.slope0)
    rho = ball_body_radial(ray.psi, p, **kw)
    if ray.sigma is None:
        return EstimateWithError(rho, 0.0, 0)

    def shifted(sign):
        def env(r):
            return np.clip(ray.psi(r) + sign * ray.sigma(r), 0.0, 1.0)
        return env

    hi = ball_body_radial(shifted(+1.0), p, **kw)
    lo = ball_body_radial(shifted(-1.0), p, **kw)
    return EstimateWithError(rho, 0.5 * abs(hi - lo), 0)


def radial_from_ray_derivative(ray: RadialRay, p: float,
                               nodes: int = 4001) -> float:
    """Independent route: integrate r^p against the finite-difference -psi'."""
    if p <= -1.0:
        raise ValueError("p must exceed -1")
    T = ray.tail_radius
    power = 2.0 if p >= 0.0 else 4.0
    r = T * np.linspace(0.0, 1.0, nodes) ** power
    vals = ray.psi(r)
    neg_slope = -np.gradient(vals, r, edge_order=1)
    if abs(p) <= ZERO_P_WINDOW:
        integrand = np.where(r > 0.0, np.log(np.maximum(r, 1e-300)), 0.0) * neg_slope
        integrand[0] = 0.0
        return math.exp(float(np.trapezoid(integrand, r)))
    integrand = np.where(r > 0.0, r, 1.0) ** p * neg_slope
    integrand[0] = 0.0
    return float(np.trapezoid(integrand, r)) ** (1.0 / p)


def limit_body_minus1(ray: RadialRay) -> float:
    """rho of the limiting body at p = -1: reciprocal normalized slope at 0+."""
    s0 = ray.slope0
    if s0 is None:
        s0 = _fd_slope(ray.psi, _level_radius(ray.psi, ray.tail_radius, 0.99))
    if s0 <= 0.0:
        return math.inf
    return 1.0 / s0


# ---------------------------------------------------------------------------
# star-body tables


@dataclass(frozen=True)
class StarBodyTable:
    directions: np.ndarray   # (D, d) unit rows
    radii: np.ndarray        # (D,)
    std_errors: np.ndarray   # (D,)
    meta: dict

    def __post_init__(self):
        D = np.atleast_2d(np.asarray(self.directions, dtype=float))
        object.__setattr__(self, "directions", D)
        object.__setattr__(self, "radii", np.asarray(self.radii, dtype=float))
        object.__setattr__(self, "std_errors",
                           np.asarray(self.std_errors, dtype=float))
        if len(self.radii) != len(D) or len(self.std_errors) != len(D):
            raise ValueError("table columns disagree in length")
        norms = np.linalg.norm(D, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("directions must be unit vectors")
        finite = self.radii[np.isfinite(self.radii)]
        if np.any(finite < 0.0):
            raise ValueError("radial values must be nonnegative")

    @property
    def dim(self) -> int:
        return self.directions.shape[1]

    @property
    def has_unbounded(self) -> bool:
        return bool(np.any(~np.isfinite(self.radii)))

    def to_csv(self, path) -> None:
        d = self.dim
        header = ",".join([f"theta_{k}" for k in range(d)] + ["rho", "sigma"])
        rows = [f"# {json.dumps(self.meta, sort_keys=True)}", header]
        for k in range(len(self.radii)):
            cells = [f"{v:.17g}" for v in self.directions[k]]
            cells += [f"{self.radii[k]:.17g}", f"{self.std_errors[k]:.17g}"]
            rows.append(",".join(cells))
        with open(path, "w") as fh:
            fh.write("\n".join(rows) + "\n")

    @staticmethod
    def from_csv(path) -> "StarBodyTable":
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        if not lines or not lines[0].startswith("#"):
            raise ValueError("missing metadata header")
        meta = json.loads(lines[0][1:].strip())
        data = np.array([[float(c) for c in ln.split(",")] for ln in lines[2:]])
        return StarBodyTable(data[:, :-2], data[:, -2], data[:, -1], meta)


def _build_table(rays, dirs, p, meta) -> StarBodyTable:
    radii = np.empty(len(dirs))
    sigs = np.empty(len(dirs))
    cache: dict[int, EstimateWithError] = {}
    for k, ray in enumerate(rays):
        if id(ray) not in cache:
            cache[id(ray)] = radial_from_ray(ray, p)
        est = cache[id(ray)]
        radii[k] = est.value
        sigs[k] = est.std_error
    return StarBodyTable(dirs, radii, sigs, meta)


def rays_for(dirs, make_ray):
    """One ray per distinct direction; duplicates share the same object."""
    cache: dict[bytes, RadialRay] = {}
    rays = []
    for k in range(len(dirs)):
        key = np.round(dirs[k], 15).tobytes()
        if key not in cache:
            cache[key] = make_ray(dirs[k])
        rays.append(cache[key])
    return rays


def radial_mean_body_body(K: ConvexBody, m: int, p: float, directions=None,
                          seed: int = 0, samples: int | None = None,
                          nodes: int = 256) -> StarBodyTable:
    """Radial table of R_p^m K over a sampled (or given) direction set."""
    d = K.dim * m
    dirs = direction_set(directions, d, seed)
    rays = rays_for(dirs, lambda th: body_ray(K, m, th, seed=seed,
                                              samples=samples, nodes=nodes))
    meta = {"p": p, "m": m, "kind": "body", "source": _describe(K), "seed": seed}
    return _build_table(rays, dirs, p, meta)


def radial_mean_body_fn(f: LogConcaveFunction, m: int, p: float,
                        directions=None, seed: int = 0,
                        samples: int | None = None) -> StarBodyTable:
    """Radial table of R_p^m f: the table of R_p^m K for the body K of f,
    times the profile-moment factor f.radial_factor(p) (1 for indicators)."""
    body = radial_mean_body_body(f.body, m, p, directions=directions, seed=seed,
                                 samples=samples)
    factor = f.radial_factor(p)
    meta = {"p": p, "m": m, "kind": "function",
            "source": f"{f.profile.kind} on {_describe(f.body)}", "seed": seed}
    return StarBodyTable(body.directions, factor * body.radii,
                         factor * body.std_errors, meta)


def direction_set(directions, d: int, seed: int) -> np.ndarray:
    """The given directions normalized, or the default seeded sphere sample."""
    if directions is None:
        return sphere_sample(d, default_direction_count(d), seed,
                             stream=_STREAM_STAR_DIRS)
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    if dirs.shape[1] != d:
        raise ValueError(f"directions must have {d} components")
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def _describe(K: ConvexBody) -> str:
    if K.kind == "ball":
        return f"ball(dim={K.dim}, r={K.radius:g})"
    return f"polytope(dim={K.dim}, facets={len(K.offsets)})"


def star_volume(table: StarBodyTable) -> EstimateWithError:
    """(1/d) * surface(S^{d-1}) * mean(rho^d) over the table's directions."""
    if table.has_unbounded:
        raise UnboundedBodyError("table contains unbounded radial entries")
    d = table.dim
    rho_d = table.radii ** d
    surface = sphere_surface(d)
    count = len(rho_d)
    value = surface * float(rho_d.mean()) / d
    sig_mc = surface * float(rho_d.std(ddof=1)) / (d * math.sqrt(count)) \
        if count > 1 else 0.0
    sig_nodes = surface * float(np.mean(d * table.radii ** (d - 1)
                                        * table.std_errors)) / d
    return EstimateWithError(value, combine_sigma(sig_mc, sig_nodes), count)
