"""One-variable Mellin machinery for bounded nonincreasing profiles.

The transform M(psi)(p) is evaluated on p > -1 with the simple pole at p = 0
excluded: directly for p > 0, and through the subtracted integral
int t^(p-1) (psi(t) - psi(0)) dt for p in (-1, 0).  Every call runs two
independent routes -- the branch integral and the integrated-by-parts form
(1/p) int (-psi'(t)) t^p dt -- and cross-checks them against each other and
against the closed form when the profile has one.  `from_profile` only reads
a `lcfun.Profile`: its pointwise formulas, its level scale s(v) (the second
route runs over the level depth v on a finite support, where -psi'(t) dt =
psi(0) e^-v dv tames a singular end), and its level moment M_p, which is the
closed form p M(phi)(p).  Piecewise polynomial profiles (`Pieces`, a
small numpy piecewise polynomial; `from_ppoly`, and `from_table` through
the in-house monotone cubic interpolant `pchip`) are integrated knot by
knot, exactly up to rounding, and peak at a knot: their pieces do not rise
(`from_ppoly` says why each one the package builds is so); closed-form
profiles by adaptive quadrature, `integrate_1d` taking the t^p weight in
units of the integration span.
A profile of finite support is measured in units of its support, so no
power of a large radius overflows.

`mellin`, `i_p` and `berwald_g` take one exponent or an array of them, and
an entry of an array result equals the call at that exponent alone.  A
grid costs one adaptive pass: both routes at every exponent, and the p = 0
log moment, are the integrals of one batched `integrate_1d` call, whose
integrand maps the nodes of every unconverged integral to their values in
one call of the profile's vectorized formulas per refinement round.  The
knot routes evaluate the spline once at the shared Gauss nodes and weight
it by t^p for every exponent.  The checks (admissible exponents, route
agreement, closed form) still run exponent by exponent.

On top of the transform sit the normalized means I_p (with a log-moment
branch at p = 0), generalized binomial coefficients, and the Berwald-type
functional G(psi, p, s) whose monotonicity in p encodes the s-concavity
comparison theorems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import covariogram as cov
from .lcfun import ZERO_P_WINDOW, NonIntegrableError, Profile
from .numerics import QuadratureConfig, beta, gauss_panels, integrate_1d

_ROUTE_AGREEMENT = 1e-6    # required relative match between the two routes
_SMALL_P = 0.05            # below this the transform takes the subtracted form
_TAIL_EPS = 1e-18          # pointwise envelope level used to place the horizon
_END_ROUNDING = 1e-12      # a negative end within this of the last piece's size is a rounded 0

_DEFAULT_CFG = QuadratureConfig(rel_tol=1e-11, abs_tol=1e-13)


# ---------------------------------------------------------------------------
# piecewise polynomials


@dataclass(frozen=True, eq=False)
class Pieces:
    """Piecewise polynomial sum_k c[k, i] (t - x[i])^(K - k) on [x[i], x[i+1]]:
    highest power first, each piece in its local variable (the layout of
    scipy's PPoly).  The end pieces extend beyond [x[0], x[-1]]."""

    c: np.ndarray   # (K + 1, N) coefficients
    x: np.ndarray   # (N + 1,) increasing knots

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        if self.c.ndim != 2 or self.x.shape != (self.c.shape[1] + 1,):
            raise ValueError("need (K + 1, N) coefficients on N + 1 knots")

    def __call__(self, t):
        """Values at t, in t's shape (0-d included)."""
        t = np.asarray(t, dtype=float)
        if self.c.shape[1] == 1:   # one piece: no knot search, scalar coefficients
            s = t - self.x[0] if self.x[0] else t
            coef = self.c[:, 0]
        else:
            i = np.searchsorted(self.x, t, side="right") - 1
            i = np.clip(i, 0, self.c.shape[1] - 1)
            s = t - self.x[i]
            coef = np.take(self.c, i, axis=1)   # three times faster than c[:, i]
        return _horner(coef, s)

    def on_panels(self, t: np.ndarray, piece: np.ndarray) -> np.ndarray:
        """Values at the (panels, k) nodes t, row i lying in piece piece[i]:
        the same values as a call at t, with no search per node."""
        return _horner(self.c[:, piece, None], t - self.x[piece, None])

    def derivative(self) -> Pieces:
        K = len(self.c) - 1
        if K == 0:
            return Pieces(np.zeros_like(self.c), self.x)
        return Pieces(self.c[:-1] * np.arange(K, 0, -1.0)[:, None], self.x)


def _horner(coef, s):
    """sum_k coef[k] s^(K - k), each coef[k] broadcasting against s."""
    if len(coef) == 1:
        return np.zeros_like(s) + coef[0]
    y = coef[0] * s + coef[1]
    for ck in coef[2:]:
        y *= s
        y += ck
    return y


def pchip(x, y, slope0: float | None = None) -> Pieces:
    """The monotone cubic Hermite interpolant of (x, y), with scipy's
    PchipInterpolator coefficients: inner slopes are the weighted harmonic
    means of the adjacent secants, zero where the data turn or stay flat
    (Fritsch and Butland, 1984); the end slopes are one-sided three-point
    estimates clamped to the data's shape (Moler, Numerical Computing with
    MATLAB, 3.6).  `slope0`, when given, is the derivative at x[0] instead."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.zeros_like(y)
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    inner = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0.0) & (m[:-1] != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    d[1:-1][inner] = 1.0 / whmean[inner]
    d[0] = _pchip_end(h[0], h[1], m[0], m[1]) if slope0 is None else slope0
    d[-1] = _pchip_end(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    return Pieces(np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]]), x)


def _pchip_end(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided end slope from the two end secants m0, m1 of widths h0, h1."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


@dataclass(frozen=True)
class MellinProfile:
    """Bounded profile psi on [0, inf) with the pieces its transform needs.

    `value`, `drop` and `neg_derivative` accept scalars or arrays;
    drop(t) = psi(t) - psi(0) is evaluated cancellation-free near 0.
    Jump discontinuities of psi contribute point masses of -psi' recorded in
    `atoms` as (location, mass) pairs.  `pmellin`, when present, is the
    closed form p -> p * M(psi)(p) / s^p used as an extra cross-check, where
    the scale s is the support radius when it is finite and 1 otherwise;
    every route measures t in units of s, so no s^p is ever formed.
    `cutoff(p)` returns a horizon beyond which t^(p-1) psi(t) is negligible,
    and `deriv_exponent` is the power e with -psi'(t) ~ t^e as t -> 0+.
    Exponents are admissible on p > max(-1, min_p).  `level`, on closed-form
    profiles, maps a level depth v to the radius where psi = psi0 e^-v.
    """

    kind: str
    value: Callable
    drop: Callable
    neg_derivative: Callable
    psi0: float
    slope0: float
    sup: float
    support_radius: float
    cutoff: Callable
    atoms: tuple = ()
    pmellin: Callable | None = None
    deriv_exponent: float = 0.0
    min_p: float = -1.0
    spline: Pieces | None = None  # psi(support_radius * u) on [0, 1], for knot-exact routes
    level: Callable | None = None


# ---------------------------------------------------------------------------
# profile constructors


def from_profile(prof: Profile, scale: float = 1.0, amplitude: float = 1.0) -> MellinProfile:
    """Wrap a closed-form profile as psi(t) = amplitude * phi(t / scale); its
    closed form p M(psi)(p) is the level moment M_p of `Profile`."""
    if scale <= 0 or amplitude <= 0:
        raise ValueError("scale and amplitude must be positive")
    if not math.isfinite(prof.phi0):
        raise NonIntegrableError("the p = 0 family is unbounded at the origin")
    indicator = prof.kind == "indicator"     # -phi' is the atom at 1 alone

    def value(t):
        return amplitude * prof.value(np.divide(t, scale))

    def drop(t):
        return amplitude * prof.drop(np.divide(t, scale))

    def neg_derivative(t):
        if indicator:
            out = np.zeros_like(np.asarray(t, dtype=float))
            return out if out.ndim else 0.0
        return (amplitude / scale) * prof.neg_derivative(np.divide(t, scale))

    psi0 = amplitude * prof.phi0
    unit = scale if math.isinf(prof.support_radius) else 1.0   # see MellinProfile
    a = prof.exponent
    return MellinProfile(
        kind=prof.kind,
        value=value,
        drop=drop,
        neg_derivative=neg_derivative,
        psi0=psi0,
        slope0=amplitude * prof.slope0 / scale,
        sup=psi0,
        support_radius=scale * prof.support_radius,
        cutoff=lambda p: scale * prof.truncation_radius(_TAIL_EPS, max(p, 0.0) + 1.0),
        atoms=((scale, amplitude),) if indicator else (),
        pmellin=lambda p: amplitude * unit ** p * prof.level_moment(p),
        deriv_exponent=a - 1.0,
        min_p=-min(1.0, a),
        level=None if indicator else lambda v: scale * prof.depth_scale(v),
    )


def exponential(alpha: float = 1.0, amplitude: float = 1.0) -> MellinProfile:
    """psi(t) = amplitude * exp(-t / alpha)."""
    return from_profile(Profile("exponential"), scale=alpha, amplitude=amplitude)


def gaussian(scale: float = 1.0, amplitude: float = 1.0) -> MellinProfile:
    """psi(t) = amplitude * exp(-(t / scale)^2 / 2)."""
    return from_profile(Profile("gaussian"), scale=scale, amplitude=amplitude)


def power(s: float, scale: float = 1.0, amplitude: float = 1.0) -> MellinProfile:
    """psi(t) = amplitude * (1 - t / scale)_+^(1/s); s is the concavity index."""
    return from_profile(Profile("power", s), scale=scale, amplitude=amplitude)


def indicator(radius: float = 1.0, amplitude: float = 1.0) -> MellinProfile:
    """psi = amplitude on [0, radius], zero beyond."""
    return from_profile(Profile("indicator"), scale=radius, amplitude=amplitude)


def lens(n: int, radius: float) -> MellinProfile:
    """The lens section psi(t) = vol(B cap (B + t e)) / vol(B) of a ball B of
    `radius` in R^n, I_{1-(t/2 radius)^2}((n+1)/2, 1/2) (`covariogram.lens`),
    with p M(psi)(p) = (2 radius)^p B((p+1)/2, (n+1)/2) / B(1/2, (n+1)/2)."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    width = 2.0 * radius
    b = 0.5 * (n + 1)

    def pmellin(p):   # scaled by width^-p, see MellinProfile
        return beta(0.5 * (p + 1), b) / beta(0.5, b)

    return MellinProfile(
        kind="lens", value=lambda t: cov.lens(n, np.divide(t, width)),
        drop=lambda t: -cov.lens_drop(n, np.divide(t, width)),
        neg_derivative=lambda t: cov.lens_slope(n, np.divide(t, width)) / width,
        psi0=1.0, slope0=-cov.lens_slope(n, 0.0) / width, sup=1.0,
        support_radius=width, cutoff=lambda p: width, pmellin=pmellin)


def from_table(ts, vals, root: int = 1, slope0: float | None = None) -> MellinProfile:
    """Profile from samples, zero beyond the last node: the `pchip`
    interpolant of vals^(1/root) with each cubic piece raised to the root-th
    power.  A root n follows a covariogram section in R^n, whose n-th root is
    concave.  `slope0`, when given, is the exact -psi'(0+); it pins the
    interpolant's derivative at 0 in place of the one-sided estimate from the
    first nodes, which noisy tables get wrong."""
    ts = np.asarray(ts, dtype=float)
    vals = np.asarray(vals, dtype=float)
    if ts.ndim != 1 or ts.shape != vals.shape or ts.size < 4:
        raise ValueError("need matching 1-d arrays with at least 4 nodes")
    if ts[0] != 0.0 or np.any(np.diff(ts) <= 0):
        raise ValueError("nodes must start at 0 and increase strictly")
    if not np.all(np.isfinite(vals)) or np.any(vals < 0) or vals[0] <= 0:
        raise ValueError("values must be finite, nonnegative, positive at 0")
    if root != int(root) or root < 1:
        raise ValueError("root must be a positive integer")
    d0 = None if slope0 is None else -slope0 * vals[0] ** (1.0 / root - 1.0) / root
    base = pchip(ts, vals ** (1.0 / root), d0).c
    c = base
    for _ in range(int(root) - 1):
        prod = np.zeros((len(c) + 3, c.shape[1]))
        for i, row in enumerate(base):
            prod[i:i + len(c)] += row * c
        c = prod
    return replace(from_ppoly(Pieces(c, ts)), kind="table")


def from_ppoly(pp: Pieces) -> MellinProfile:
    """Profile of a piecewise polynomial on knots 0 = x_0 < ... < x_N, zero
    beyond x_N; a nonzero value at x_N is an atom of -psi'.

    Every route integrates it knot by knot (`_weighted_knot_integral`) on
    the unit support, so its transforms are exact up to rounding for any
    size and exponent.  `sup` is the largest knot value, so no piece may
    rise above its ends, and none that the package builds does: a box
    section is a product of decreasing linear factors on [0, R], and
    `from_table` raises a shape-preserving `pchip` of nonincreasing data to
    the root-th power, whose slope at 0 as `starbodies.body_ray` pins it is
    no steeper than the first secant, because the n-th root of a covariogram
    section is concave (Brunn-Minkowski).  An end value below zero raises
    ValueError, unless it is within `_END_ROUNDING` of the last piece's
    bound sum_j |c_j| h^j, the rounding of an end at zero.
    """
    knots = pp.x
    if knots[0] != 0.0 or not np.all(np.isfinite(pp.c)):
        raise ValueError("a profile polynomial starts at 0 and has finite coefficients")
    support = float(knots[-1])
    psi0 = float(pp.c[-1, 0])
    dip = _minus(pp, psi0)          # first piece has constant term 0: no cancellation
    dpp = pp.derivative()
    at_knots = np.append(pp.c[-1], pp(knots[-1]))    # each piece starts at its constant
    sup = float(at_knots.max())
    powers = np.arange(len(pp.c) - 1, -1, -1)[:, None]
    reach = np.sum(np.abs(pp.c) * np.diff(knots) ** powers, axis=0)
    last = float(at_knots[-1])
    if last < -_END_ROUNDING * reach[-1]:
        raise ValueError(f"a profile polynomial must not end below zero: its value "
                         f"at the support end {support} is {last}")

    def inside(spline, beyond):
        def f(t):
            t = np.asarray(t, dtype=float)
            out = np.where(t > support, beyond, spline(np.clip(t, 0.0, support)))
            return out if out.ndim else float(out)
        return f

    return MellinProfile(
        kind="ppoly",
        value=inside(pp, 0.0),
        drop=inside(dip, -psi0),
        neg_derivative=inside(lambda t: -dpp(t), 0.0),
        psi0=psi0,
        slope0=float(dpp(0.0)),
        sup=sup,
        support_radius=support,
        cutoff=lambda p: support,
        atoms=((support, last),) if last > 0.0 else (),
        spline=Pieces(pp.c * support ** powers, knots / support),
    )


def _minus(pp: Pieces, c0: float) -> Pieces:
    """pp - c0 as a piecewise polynomial on the same knots."""
    c = pp.c.copy()
    c[-1] -= c0
    return Pieces(c, pp.x)


# ---------------------------------------------------------------------------
# the transform


def mellin(psi: MellinProfile, p, cfg: QuadratureConfig | None = None):
    """M(psi)(p) for p in (-1, 0) or p > 0, computed and cross-checked twice.
    p may be an array of exponents, with a result of its shape whose every
    entry equals the call at that exponent alone."""
    grid = _grid(p)
    for q in grid.tolist():
        _require_exponent(psi, q)
    vals, _ = _transform(psi, grid, cfg or _DEFAULT_CFG)
    return _like(p, [_scale(psi) ** q * v for q, v in zip(grid.tolist(), vals.tolist())])


def _grid(p) -> np.ndarray:
    """The exponents p, a number or an array, as a flat float array."""
    return np.asarray(p, dtype=float).reshape(-1)


def _like(p, values):
    """One value per exponent, in the shape of p: a float for a number."""
    if isinstance(p, (int, float)):
        return float(values[0])
    out = np.asarray(values, dtype=float).reshape(np.shape(p))
    return float(out) if out.ndim == 0 else out


def _scale(psi: MellinProfile) -> float:
    """The radius the routes measure t in: the support radius when finite
    (a piecewise polynomial's spline lives on [0, 1]), else 1."""
    return psi.support_radius if math.isfinite(psi.support_radius) else 1.0


def _transform(psi: MellinProfile, p: np.ndarray, cfg: QuadratureConfig,
               log_moment: bool = False):
    """M(psi)(p) / _scale(psi)^p at admissible exponents p != 0 from the
    branch and derivative routes, reconciled exponent by exponent; and, with
    log_moment, int log(t/s) (-psi'(t)) dt over the atoms too (else None),
    the p -> 0 limit of the derivative route."""
    routes = _knot_routes if psi.spline is not None else _quadrature_routes
    first, second, log_total = routes(psi, p, cfg, log_moment)
    for q, a, b in zip(p.tolist(), first.tolist(), second.tolist()):
        _reconcile("branch and derivative routes", a, b)
        if psi.pmellin is not None:
            _reconcile("quadrature and closed form", a, psi.pmellin(q) / q)
    return first, log_total


def i_p(psi: MellinProfile, p, cfg: QuadratureConfig | None = None):
    """(p M(psi/sup)(p))^(1/p); geometric mean of -psi'/sup radii at p = 0.

    p may be an array of exponents, with a result of its shape whose every
    entry equals the call at that exponent alone: each adaptive route is
    one batched `integrate_1d` call over the grid (the p = 0 log moment
    rides with the derivative route), the knot routes weight one spline
    evaluation by every t^p, and the checks run exponent by exponent, in
    grid order, so an inadmissible exponent raises what its own call raises.
    """
    exps = _grid(p).tolist()
    for q in exps:
        if not math.isfinite(q) or q <= -1.0:
            raise ValueError("i_p needs a finite exponent p > -1")
        if abs(q) <= ZERO_P_WINDOW:
            _require_peak_at_zero(psi)
        else:
            _require_exponent(psi, q)
    zero = [abs(q) <= ZERO_P_WINDOW for q in exps]
    rest = [q for q, z in zip(exps, zero) if not z]
    moments, log_total = _transform(psi, np.array(rest), cfg or _DEFAULT_CFG, any(zero))
    pm = [q * m / psi.sup for q, m in zip(rest, moments.tolist())]
    for x in pm:
        if not x > 0.0:
            raise ArithmeticError(f"p*M = {x:g} is not positive; cannot take the 1/p power")
    s = _scale(psi)
    mean = iter([s * x ** (1.0 / q) for q, x in zip(rest, pm)])
    return _like(p, [s * math.exp(log_total / psi.sup) if z else next(mean) for z in zero])


def poly_means(c, p) -> np.ndarray:
    """I_p of each one-piece profile psi(x) = sum_k c[i, k] x^k on [0, 1],
    zero beyond, at every exponent of p: an (N,) array for a number p, an
    (N, P) one for P exponents.  Each psi peaks at psi(0) = c[i, 0] > 0, as
    a covariogram section does.  The stack takes one array expression per
    route where `i_p` takes a spline pass per profile:

    * branch route: M = sum_k c_k / (p + k), with the pole term c_0 / p
      added apart for p < 0 (the subtracted integral);
    * derivative route: (sum_k c_k - sum_{k>=1} k c_k / (p + k)) / p, the
      atom psi(1) at the support end plus int x^p (-psi');
    * log moment within ZERO_P_WINDOW: int log x (-psi') = sum_{k>=1} c_k / k.

    The routes are reconciled entry by entry at _ROUTE_AGREEMENT, and the
    errors are those of `i_p`.  Every sum and power is formed as the knot
    routes form it, so an entry is `i_p` of the `from_ppoly` profile with
    the same coefficients, to the bit.
    """
    c = np.atleast_2d(np.asarray(c, dtype=float))
    exps = _grid(p).tolist()
    for q in exps:
        if not math.isfinite(q) or q <= -1.0:
            raise ValueError("i_p needs a finite exponent p > -1")
    zero = [abs(q) <= ZERO_P_WINDOW for q in exps]
    rest = np.array([q for q, z in zip(exps, zero) if not z])
    top = np.arange(c.shape[1] - 1, -1, -1.0)            # powers, highest first
    desc = np.ascontiguousarray(c[:, ::-1])   # BLAS dots, as in the knot routes
    # 1 / (p + k), the integral of x^(p+k-1) over [0, 1], formed as
    # `_weighted_knot_integral` forms it from the weight exponent p - 1
    weights = 1.0 / (top + (rest[:, None] - 1.0) + 1.0)   # (P, K + 1)
    pole = rest < 0.0
    first = np.where(pole, c[:, :1] / rest, 0.0) + np.where(
        pole, _dots(desc[:, :-1], weights[:, :-1]), _dots(desc, weights))
    second = (c.sum(axis=1)[:, None] - _dots(desc * top, weights)) / rest
    for a, b in zip(first.ravel().tolist(), second.ravel().tolist()):
        _reconcile("branch and derivative routes", a, b)
    pm = (rest * first / c[:, :1]).tolist()
    k = top[:-1]                      # sum_{k>=1} c_k / k, as -(k c_k) . (-1 / k^2)
    logs = -np.vecdot(desc[:, :-1] * k, -1.0 / (k * k)) / c[:, 0]
    out = []     # Python floats: numpy's vector pow and exp may differ in the last bit
    for row, log in zip(pm, logs.tolist()):
        for x in row:
            if not x > 0.0:
                raise ArithmeticError(f"p*M = {x:g} is not positive; cannot take the 1/p power")
        mean = iter([x ** (1.0 / q) for q, x in zip(rest.tolist(), row)])
        out.append([math.exp(log) if z else next(mean) for z in zero])
    return np.array(out).reshape((len(c),) + np.shape(p))


def _dots(a, b) -> np.ndarray:
    """Every row of a dotted with every row of b, each pair summed as a
    1-d dot sums it (a matrix product may sum in another order)."""
    return np.vecdot(a[:, None, :], b[None, :, :])


def berwald_g(psi: MellinProfile, p, s: float):
    """G(psi, p, s) = binom_root(p, s) * i_p(psi), at a number or an array p.

    Nonincreasing in p when psi is s-concave with its maximum at 0, and
    constant exactly on the family psi(0) * (1 - t/alpha)_+^(1/s)
    (exponential psi(0) e^(-t/alpha) at s = 0).
    """
    grid = _grid(p)
    roots = [binom_root(q, s) for q in grid.tolist()]
    return _like(p, [r * v for r, v in zip(roots, _grid(i_p(psi, grid)).tolist())])


def _extremal(s: float) -> Profile:
    """The profile on which G(., p, s) is constant: (1 - t)_+^(1/s), e^-t at s = 0."""
    if s < 0:
        raise ValueError("concavity index s must be nonnegative")
    return Profile("power", s) if s > 0 else Profile("exponential")


def binom_gen(p: float, s: float) -> float:
    """Generalized binomial coefficient (1/s + p choose p), 1/Gamma(p+1) at
    s = 0: the reciprocal of the extremal profile's level moment M_p."""
    if not math.isfinite(p) or p <= -1.0:
        raise ValueError("binom_gen needs a finite p > -1")
    return 1.0 / _extremal(s).level_moment(p)


def binom_root(p: float, s: float) -> float:
    """binom_gen(p, s)^(1/p), the normalizer of the radial chain and of G,
    continued through p = 0 (within ZERO_P_WINDOW) by its limit
    exp(-d/dp log M_p) = exp(digamma(1/s + 1) + euler_gamma)."""
    if abs(p) <= ZERO_P_WINDOW:
        return math.exp(-_extremal(s).level_moment_log_slope(0.0))
    return binom_gen(p, s) ** (1.0 / p)


def c_const(s: float) -> float:
    """Normalizing constant 1/s for s > 0, and 1 at s = 0."""
    if s < 0:
        raise ValueError("concavity index s must be nonnegative")
    return 1.0 / s if s > 0 else 1.0


# ---------------------------------------------------------------------------
# quadrature routes


def _require_exponent(psi: MellinProfile, p: float) -> None:
    if not math.isfinite(p):
        raise ValueError("exponent must be finite")
    if p <= -1.0:
        raise ValueError("the transform needs p > -1")
    if abs(p) <= ZERO_P_WINDOW:
        raise ValueError("p = 0 is a simple pole of the transform; i_p handles p = 0")
    if p <= psi.min_p:
        raise NonIntegrableError(f"this profile only admits exponents p > {psi.min_p:g}")
    if p < 0.0:
        _require_peak_at_zero(psi)


def _require_peak_at_zero(psi: MellinProfile) -> None:
    if psi.psi0 < psi.sup * (1.0 - 1e-12):
        raise ValueError("p <= 0 needs the profile maximum at t = 0")


def _weighted_knot_integral(pp, alphas: list, with_log: bool = False) -> list:
    """int t^alpha * pp(t) [* log t] over the knot span of the piecewise poly
    pp, for each exponent alpha of the list alphas.

    The first interval starts at t = 0 and owns the t^alpha endpoint behavior;
    there the local power-basis coefficients give the integral analytically.
    Every other interval is cut at doublings of its left end, so t^alpha is
    smooth on each panel (an end at most twice the other), and Gauss-Legendre
    of at least the pieces' degree is exact to rounding there.  Those nodes
    do not depend on alpha: pp is evaluated there once, each panel in its
    own piece (`Pieces.on_panels`), and weighted by each row t^alpha of the
    (exponents, nodes) matrix, one exponent at a time, so every entry is
    what the exponent alone gives.
    """
    if not alphas:
        return []
    knots, c = pp.x, pp.c
    powers = np.arange(len(c) - 1, -1, -1)
    b = float(knots[1])
    first = []
    for alpha in alphas:
        q = powers + alpha + 1.0                     # first piece: t^(q-1) terms
        first.append(float(c[:, 0] @ (b ** q * (q * math.log(b) - 1.0) / (q * q) if with_log
                                      else b ** q / q)))
    lo, hi = knots[1:-1], knots[2:]
    if lo.size == 0:
        return first
    cuts = [a * 2.0 ** np.arange(1, math.ceil(math.log2(b / a)))
            for a, b in zip(lo[hi > 2.0 * lo], hi[hi > 2.0 * lo])]
    edges = np.sort(np.concatenate([knots[1:], *cuts]))
    nodes, weights = gauss_panels(edges, order=max(8, len(c) - 1))
    piece = np.minimum(np.searchsorted(knots, edges[:-1], side="right") - 1, c.shape[1] - 1)
    spline = pp.on_panels(nodes.reshape(piece.size, -1), piece).ravel()
    log = np.log(nodes) if with_log else None
    out = []
    for head, alpha in zip(first, alphas):
        vals = spline * nodes ** alpha
        if with_log:
            vals = vals * log
        out.append(head + float(weights @ vals))
    return out


def _knot_routes(psi: MellinProfile, p: np.ndarray, cfg: QuadratureConfig,
                 log_moment: bool):
    """Both routes and the log moment of a piecewise polynomial profile,
    knot by knot on its unit support: the branch integral int t^(p-1) psi
    (subtracted, psi0 / p + int t^(p-1) (psi - psi0), for p < 0), and
    (1/p) int t^p (-psi') with the atom at the support end."""
    spline, s, exps = psi.spline, _scale(psi), p.tolist()
    dpp = spline.derivative()
    up = iter(_weighted_knot_integral(spline, [q - 1.0 for q in exps if q > 0.0]))
    negative = [q - 1.0 for q in exps if q <= 0.0]
    down = iter(_weighted_knot_integral(_minus(spline, psi.psi0), negative) if negative else [])
    first = [next(up) if q > 0.0 else psi.psi0 / q + next(down) for q in exps]
    second = [(-d + a) / q for q, d, a in
              zip(exps, _weighted_knot_integral(dpp, exps), _atoms(psi, exps))]
    log_total = None
    if log_moment:
        log_total = (-_weighted_knot_integral(dpp, [0.0], with_log=True)[0]
                     + sum(w * math.log(loc / s) for loc, w in psi.atoms))
    return np.array(first), np.array(second), log_total


def _over_depth(psi: MellinProfile) -> bool:
    """Whether the derivative routes integrate over the level depth v: on a
    closed-form profile of finite support, whose -psi' may be singular at the
    support end (the power kind with s > 1), and whose mass near that end no
    grid in t resolves.  With t = level(v), -psi'(t) dt = psi0 e^-v dv, and
    that end becomes a smooth e^-v tail."""
    return psi.level is not None and math.isfinite(psi.support_radius)


def _quadrature_routes(psi: MellinProfile, p: np.ndarray, cfg: QuadratureConfig,
                       log_moment: bool):
    """Both routes of a closed-form profile at every exponent of p, and the
    log moment with log_moment, as the integrals of one batched
    `integrate_1d` call, t in units of s = _scale(psi): integral j < P = p.size
    is the branch route at p[j], P + j the derivative route at p[j], and 2P
    the log moment.  The branch integrand is psi, the derivative one -psi',
    over t or, `_over_depth`, over the level depth v."""
    s, e, P = _scale(psi), psi.deriv_exponent, p.size
    horizon = np.array([float(psi.cutoff(q)) for q in p.tolist()]) / s
    # subtracted form below _SMALL_P: exact for p in (-1, 0), and for
    # 0 < p < _SMALL_P the identity int_0^T t^(p-1) psi = psi(0) T^p / p +
    # int_0^T t^(p-1) (psi - psi(0)) keeps the integrand bounded; drop(t) ~
    # t^(1 + deriv_exponent) at 0.
    small = p < _SMALL_P
    ends, weights, envelopes = [horizon], [np.where(small, p + e, p - 1.0)], [np.ones(P)]
    depth = _over_depth(psi)
    a = 1.0 + e
    if depth:
        # level(v) ~ v^(1/a) at 0: the weight v^(p/a) is absorbed, and
        # (level/s)^p <= 2 where the tail is cut (1 for the log moment)
        ends += [np.full(P, math.inf), [math.inf] * log_moment]
        weights += [p / a, [0.0] * log_moment]
        envelopes += [np.full(P, 2.0), [1.0] * log_moment]
    else:
        ends += [horizon, [float(psi.cutoff(1.0)) / s] * log_moment]
        weights += [p + e, [e] * log_moment]
        envelopes += [np.ones(P + log_moment)]
    subtracted = np.concatenate([small, np.zeros(P + log_moment, dtype=bool)])

    def phi(t, owner):
        out = np.empty_like(t)
        branch, log = owner < P, owner == 2 * P
        drop = subtracted[owner]
        keep = branch & ~drop
        if keep.any():
            out[keep] = psi.value(s * t[keep])
        if drop.any():
            out[drop] = psi.drop(s * t[drop]) / t[drop] ** (1.0 + e)
        deriv = ~branch & ~log
        for rows, logged in ((deriv, False), (log, True)):
            if not rows.any():
                continue
            v = t[rows]
            if depth and logged:
                out[rows] = np.exp(-v) * np.log(psi.level(v) / s)
            elif depth:
                out[rows] = np.exp(-v) * (psi.level(v) / (s * v ** (1.0 / a))) ** p[owner[rows] - P]
            else:
                out[rows] = s * psi.neg_derivative(s * v) / v ** e * (np.log(v) if logged else 1.0)
        return out

    quad = integrate_1d(phi, 0.0, np.concatenate(ends), cfg,
                        tail_bound=(np.concatenate(envelopes), 1.0),
                        weight_exponent=np.concatenate(weights)).value
    if depth:
        quad[P:] *= psi.psi0
    head = [psi.psi0 * h ** q / q if sm else 0.0
            for q, h, sm in zip(p.tolist(), horizon.tolist(), small.tolist())]
    log_total = None
    if log_moment:
        log_total = float(quad[-1]) + sum(w * math.log(loc / s) for loc, w in psi.atoms)
    return np.array(head) + quad[:P], (quad[P:2 * P] + _atoms(psi, p.tolist())) / p, log_total


def _atoms(psi: MellinProfile, exps: list) -> list:
    """sum_atoms w (loc/s)^p at each exponent, the jumps' share of
    int (t/s)^p (-psi'(t)) dt."""
    s = _scale(psi)
    return [sum(w * (loc / s) ** q for loc, w in psi.atoms) for q in exps]


def _reconcile(label: str, a: float, b: float) -> None:
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ArithmeticError(f"{label}: non-finite transform value ({a}, {b})")
    if abs(a - b) > _ROUTE_AGREEMENT * max(abs(a), abs(b)):
        raise ArithmeticError(f"{label} disagree: {a:.12g} vs {b:.12g}")
