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
knot, exactly up to rounding; closed-form profiles by adaptive quadrature,
`integrate_1d` taking the t^p weight in units of the integration span.
Every integrand here maps an array of nodes to an array of values, so one
refinement round is one call of the profile's vectorized formulas.  A
profile of finite support is measured in units of its support, so no power
of a large radius overflows.

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
        if len(coef) == 1:
            return np.zeros_like(s) + coef[0]
        y = coef[0] * s + coef[1]
        for ck in coef[2:]:   # Horner
            y *= s
            y += ck
        return y

    def derivative(self) -> Pieces:
        K = len(self.c) - 1
        if K == 0:
            return Pieces(np.zeros_like(self.c), self.x)
        return Pieces(self.c[:-1] * np.arange(K, 0, -1.0)[:, None], self.x)

    def roots(self) -> np.ndarray:
        """The distinct real roots in each piece's own interval, ascending;
        a piece that vanishes identically is skipped.  Each piece is taken
        without its leading and trailing zero coefficients (a trailing zero
        is a root at the piece's left knot), and all pieces of one degree
        are solved together (`_real_roots`)."""
        nz = self.c != 0.0
        live = np.flatnonzero(nz.any(axis=0))
        top = len(self.c) - 1
        lead = nz[:, live].argmax(axis=0)
        tail = top - nz[::-1, live].argmax(axis=0)
        owners, found = [live[tail < top]], [np.zeros(np.count_nonzero(tail < top))]
        degree = tail - lead
        for d in np.unique(degree[degree > 0]):
            pick = np.flatnonzero(degree == d)
            row, s = _real_roots(self.c[lead[pick, None] + np.arange(d + 1), live[pick, None]])
            owners.append(live[pick[row]])
            found.append(s)
        owner, s = np.concatenate(owners), np.concatenate(found)
        keep = (s >= 0.0) & (s <= np.diff(self.x)[owner])
        return np.unique(self.x[owner[keep]] + s[keep])


def _real_roots(coef: np.ndarray):
    """The real roots of a stack of polynomials of one degree d >= 1
    (rows, highest power first, with nonzero first and last coefficients),
    as (row, root) arrays: -b/a at d = 1, the quadratic formula without
    cancellation at d = 2 (so that a double root stays real), else the
    eigenvalues of the stacked companion matrices in one call."""
    d = coef.shape[1] - 1
    rows = np.arange(len(coef))
    if d == 1:
        return rows, -coef[:, 1] / coef[:, 0]
    if d == 2:
        a, b, c = coef.T
        disc = b * b - 4.0 * a * c
        real = disc >= 0.0
        a, b, c = coef[real].T
        q = -0.5 * (b + np.copysign(np.sqrt(disc[real]), b))
        return np.tile(rows[real], 2), np.concatenate([q / a, c / q])
    companion = np.zeros((len(coef), d, d))
    companion[:, 0] = -coef[:, 1:] / coef[:, :1]
    companion[:, 1:, :-1] = np.eye(d - 1)
    z = np.linalg.eigvals(companion)
    row, col = np.nonzero(z.imag == 0.0)
    return row, z.real[row, col]


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
    size and exponent.  The maximum is taken over the knots and the interior
    critical points.
    """
    knots = pp.x
    if knots[0] != 0.0 or not np.all(np.isfinite(pp.c)):
        raise ValueError("a profile polynomial starts at 0 and has finite coefficients")
    support = float(knots[-1])
    psi0 = float(pp.c[-1, 0])
    dip = _minus(pp, psi0)          # first piece has constant term 0: no cancellation
    dpp = pp.derivative()
    at_knots = pp(knots)
    # a piece rises above the knot values only if its bound sum_j |c_j| h^j
    # does; critical points are sought on those pieces alone
    powers = np.arange(len(pp.c) - 1, -1, -1)[:, None]
    reach = np.sum(np.abs(pp.c) * np.diff(knots) ** powers, axis=0)
    dc = dpp.c.copy()
    dc[:, reach <= at_knots.max()] = 0.0
    sup = float(np.max(pp(np.concatenate([knots, Pieces(dc, knots).roots()]))))
    last = float(at_knots[-1])

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


def mellin(psi: MellinProfile, p: float, cfg: QuadratureConfig | None = None) -> float:
    """M(psi)(p) for p in (-1, 0) or p > 0, computed and cross-checked twice."""
    return _scale(psi) ** p * _transform(psi, p, cfg or _DEFAULT_CFG)


def _scale(psi: MellinProfile) -> float:
    """The radius the routes measure t in: the support radius when finite
    (a piecewise polynomial's spline lives on [0, 1]), else 1."""
    return psi.support_radius if math.isfinite(psi.support_radius) else 1.0


def _transform(psi: MellinProfile, p: float, cfg: QuadratureConfig) -> float:
    """M(psi)(p) / _scale(psi)^p from both routes, reconciled."""
    _require_exponent(psi, p)
    first = _branch_route(psi, p, cfg)
    second = _derivative_route(psi, p, cfg)
    _reconcile("branch and derivative routes", first, second)
    if psi.pmellin is not None:
        _reconcile("quadrature and closed form", first, psi.pmellin(p) / p)
    return first


def i_p(psi: MellinProfile, p: float, cfg: QuadratureConfig | None = None) -> float:
    """(p M(psi/sup)(p))^(1/p); geometric mean of -psi'/sup radii at p = 0."""
    cfg = cfg or _DEFAULT_CFG
    if not math.isfinite(p) or p <= -1.0:
        raise ValueError("i_p needs a finite exponent p > -1")
    if abs(p) <= ZERO_P_WINDOW:
        _require_peak_at_zero(psi)
        return _log_moment_mean(psi, cfg)
    pm = p * _transform(psi, p, cfg) / psi.sup
    if not pm > 0.0:
        raise ArithmeticError(f"p*M = {pm:g} is not positive; cannot take the 1/p power")
    return _scale(psi) * pm ** (1.0 / p)


def berwald_g(psi: MellinProfile, p: float, s: float) -> float:
    """G(psi, p, s) = binom_root(p, s) * i_p(psi).

    Nonincreasing in p when psi is s-concave with its maximum at 0, and
    constant exactly on the family psi(0) * (1 - t/alpha)_+^(1/s)
    (exponential psi(0) e^(-t/alpha) at s = 0).
    """
    return binom_root(p, s) * i_p(psi, p)


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


def _weighted_knot_integral(pp, alpha: float, with_log: bool = False) -> float:
    """int t^alpha * pp(t) [* log t] over the knot span of the piecewise poly pp.

    The first interval starts at t = 0 and owns the t^alpha endpoint behavior;
    there the local power-basis coefficients give the integral analytically.
    Every other interval is cut at doublings of its left end, so t^alpha is
    smooth on each panel (an end at most twice the other), and Gauss-Legendre
    of at least the pieces' degree is exact to rounding there.
    """
    knots, c = pp.x, pp.c
    q = np.arange(len(c) - 1, -1, -1) + alpha + 1.0      # first piece: t^(q-1) terms
    b = float(knots[1])
    first = float(c[:, 0] @ (b ** q * (q * math.log(b) - 1.0) / (q * q) if with_log
                             else b ** q / q))
    lo, hi = knots[1:-1], knots[2:]
    if lo.size == 0:
        return first
    cuts = [a * 2.0 ** np.arange(1, math.ceil(math.log2(b / a)))
            for a, b in zip(lo[hi > 2.0 * lo], hi[hi > 2.0 * lo])]
    edges = np.sort(np.concatenate([knots[1:], *cuts]))
    nodes, weights = gauss_panels(edges, order=max(8, len(c) - 1))
    vals = pp(nodes) * nodes ** alpha
    if with_log:
        vals = vals * np.log(nodes)
    return first + float(weights @ vals)


def _branch_route(psi: MellinProfile, p: float, cfg: QuadratureConfig) -> float:
    if psi.spline is not None:
        if p > 0.0:
            return _weighted_knot_integral(psi.spline, p - 1.0)
        return psi.psi0 / p + _weighted_knot_integral(_minus(psi.spline, psi.psi0), p - 1.0)
    s = _scale(psi)
    horizon = float(psi.cutoff(p)) / s
    if p >= _SMALL_P:
        return integrate_1d(lambda u: psi.value(s * u), 0.0, horizon, cfg,
                            weight_exponent=p - 1.0).value
    # subtracted form: exact for p in (-1, 0), and for 0 < p < _SMALL_P the
    # identity int_0^T t^(p-1) psi = psi(0) T^p / p + int_0^T t^(p-1) (psi - psi(0))
    # keeps the integrand bounded; drop(t) ~ t^(1 + deriv_exponent) at 0.
    e = psi.deriv_exponent
    return psi.psi0 * horizon ** p / p + integrate_1d(
        lambda u: psi.drop(s * u) / u ** (1.0 + e), 0.0, horizon, cfg,
        weight_exponent=p + e).value


def _over_depth(psi: MellinProfile) -> bool:
    """Whether the derivative routes integrate over the level depth v: on a
    closed-form profile of finite support, whose -psi' may be singular at the
    support end (the power kind with s > 1), and whose mass near that end no
    grid in t resolves.  With t = level(v), -psi'(t) dt = psi0 e^-v dv, and
    that end becomes a smooth e^-v tail."""
    return psi.level is not None and math.isfinite(psi.support_radius)


def _derivative_route(psi: MellinProfile, p: float, cfg: QuadratureConfig) -> float:
    s = _scale(psi)
    if psi.spline is not None:
        quad_part = -_weighted_knot_integral(psi.spline.derivative(), p)
    elif _over_depth(psi):
        # level(v) ~ v^(1/a) at 0, a = 1 + deriv_exponent: the weight v^(p/a)
        # is absorbed, and (level/s)^p <= 2 where the tail is cut
        a = 1.0 + psi.deriv_exponent
        quad_part = psi.psi0 * integrate_1d(
            lambda v: np.exp(-v) * (psi.level(v) / (s * v ** (1.0 / a))) ** p,
            0.0, math.inf, cfg, tail_bound=(2.0, 1.0), weight_exponent=p / a).value
    else:
        e = psi.deriv_exponent
        quad_part = integrate_1d(lambda u: s * psi.neg_derivative(s * u) / u ** e,
                                 0.0, float(psi.cutoff(p)) / s, cfg,
                                 weight_exponent=p + e).value
    total = quad_part + sum(w * (loc / s) ** p for loc, w in psi.atoms)
    return total / p


def _log_moment_mean(psi: MellinProfile, cfg: QuadratureConfig) -> float:
    s = _scale(psi)
    if psi.spline is not None:
        quad_part = -_weighted_knot_integral(psi.spline.derivative(), 0.0, with_log=True)
    elif _over_depth(psi):
        quad_part = psi.psi0 * integrate_1d(
            lambda v: np.exp(-v) * np.log(psi.level(v) / s), 0.0, math.inf, cfg,
            tail_bound=(1.0, 1.0)).value
    else:
        e = psi.deriv_exponent
        quad_part = integrate_1d(
            lambda u: s * psi.neg_derivative(s * u) / u ** e * np.log(u),
            0.0, float(psi.cutoff(1.0)) / s, cfg, weight_exponent=e).value
    total = quad_part + sum(w * math.log(loc / s) for loc, w in psi.atoms)
    return s * math.exp(total / psi.sup)


def _reconcile(label: str, a: float, b: float) -> None:
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ArithmeticError(f"{label}: non-finite transform value ({a}, {b})")
    if abs(a - b) > _ROUTE_AGREEMENT * max(abs(a), abs(b)):
        raise ArithmeticError(f"{label} disagree: {a:.12g} vs {b:.12g}")
