"""One-variable Mellin machinery for bounded nonincreasing profiles.

The transform M(psi)(p) is evaluated on p > -1 with the simple pole at p = 0
excluded: directly for p > 0, and through the subtracted integral
int t^(p-1) (psi(t) - psi(0)) dt for p in (-1, 0).  Every call runs two
independent routes -- the branch integral and the integrated-by-parts form
(1/p) int (-psi'(t)) t^p dt -- and cross-checks them against each other and
against the closed form when the profile kind has one.

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
from scipy import special
from scipy.interpolate import PchipInterpolator

from .lcfun import ZERO_P_WINDOW, NonIntegrableError, Profile
from .numerics import QuadratureConfig, integrate_1d

_ROUTE_AGREEMENT = 1e-6    # required relative match between the two routes
_SMALL_P = 0.05            # below this the direct t^(p-1) substitution underflows
_TAIL_EPS = 1e-18          # pointwise envelope level used to place the horizon
_EULER = float(np.euler_gamma)

_DEFAULT_CFG = QuadratureConfig(rel_tol=1e-11, abs_tol=1e-13)
_GL8 = np.polynomial.legendre.leggauss(8)


@dataclass(frozen=True)
class MellinProfile:
    """Bounded profile psi on [0, inf) with the pieces its transform needs.

    `value`, `drop` and `neg_derivative` accept scalars or arrays;
    drop(t) = psi(t) - psi(0) is evaluated cancellation-free near 0.
    Jump discontinuities of psi contribute point masses of -psi' recorded in
    `atoms` as (location, mass) pairs.  `pmellin`, when present, is the
    closed form p -> p * M(psi)(p) used as an extra cross-check.
    `cutoff(p)` returns a horizon beyond which t^(p-1) psi(t) is negligible,
    and `deriv_exponent` is the power e with -psi'(t) ~ t^e as t -> 0+.
    Exponents are admissible on p > max(-1, min_p).
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
    spline: object = None      # drop interpolant for table profiles (knot-exact routes)


# ---------------------------------------------------------------------------
# profile constructors


def from_profile(prof: Profile, scale: float = 1.0, amplitude: float = 1.0) -> MellinProfile:
    """Wrap a closed-form profile as psi(t) = amplitude * phi(t / scale)."""
    if scale <= 0 or amplitude <= 0:
        raise ValueError("scale and amplitude must be positive")
    if prof.kind == "pfamily" and prof.param == 0.0:
        raise NonIntegrableError("the p = 0 family is unbounded at the origin")

    def value(t):
        return amplitude * prof.value(np.asarray(t, dtype=float) / scale)

    def neg_derivative(t):
        if prof.kind == "indicator":
            t = np.asarray(t, dtype=float)
            out = np.zeros_like(t)
            return out if out.ndim else 0.0
        return (amplitude / scale) * prof.neg_derivative(np.asarray(t, dtype=float) / scale)

    drop = _drop_of(prof, scale, amplitude)
    psi0 = amplitude * prof.phi0
    atoms = ((scale, amplitude),) if prof.kind == "indicator" else ()

    if prof.support_radius < math.inf:
        horizon = scale * prof.support_radius
        cutoff = lambda p: horizon
    else:
        cutoff = lambda p: scale * prof.truncation_radius(_TAIL_EPS, max(p, 0.0) + 1.0)

    return MellinProfile(
        kind=prof.kind,
        value=value,
        drop=drop,
        neg_derivative=neg_derivative,
        psi0=psi0,
        slope0=_slope_at_zero(prof, scale, amplitude),
        sup=psi0,
        support_radius=scale * prof.support_radius,
        cutoff=cutoff,
        atoms=atoms,
        pmellin=_closed_form(prof, scale, amplitude),
        deriv_exponent=_deriv_exponent(prof),
        min_p=-min(1.0, abs(prof.param)) if prof.kind == "pfamily" else -1.0,
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


def from_table(ts, vals) -> MellinProfile:
    """Monotone-interpolated profile from samples; zero beyond the last node."""
    ts = np.asarray(ts, dtype=float)
    vals = np.asarray(vals, dtype=float)
    if ts.ndim != 1 or ts.shape != vals.shape or ts.size < 4:
        raise ValueError("need matching 1-d arrays with at least 4 nodes")
    if ts[0] != 0.0 or np.any(np.diff(ts) <= 0):
        raise ValueError("nodes must start at 0 and increase strictly")
    if not np.all(np.isfinite(vals)) or np.any(vals < 0) or vals[0] <= 0:
        raise ValueError("values must be finite, nonnegative, positive at 0")

    psi0 = float(vals[0])
    support = float(ts[-1])
    dip = PchipInterpolator(ts, vals - psi0)      # first segment starts at 0: no cancellation
    ddip = dip.derivative()

    def drop(t):
        t = np.asarray(t, dtype=float)
        out = np.where(t > support, -psi0, dip(np.clip(t, 0.0, support)))
        return out if out.ndim else float(out)

    def value(t):
        return psi0 + drop(t)

    def neg_derivative(t):
        t = np.asarray(t, dtype=float)
        out = np.where(t > support, 0.0, -ddip(np.clip(t, 0.0, support)))
        return out if out.ndim else float(out)

    atoms = ((support, float(vals[-1])),) if vals[-1] > 0 else ()
    return MellinProfile(
        kind="table",
        value=value,
        drop=drop,
        neg_derivative=neg_derivative,
        psi0=psi0,
        slope0=float(ddip(0.0)),
        sup=float(np.max(vals)),
        support_radius=support,
        cutoff=lambda p: support,
        atoms=atoms,
        spline=dip,
    )


def _drop_of(prof: Profile, scale: float, amplitude: float) -> Callable:
    kind, s = prof.kind, prof.param

    def drop(t):
        u = np.asarray(t, dtype=float) / scale
        with np.errstate(divide="ignore", invalid="ignore"):
            if kind == "exponential":
                out = np.expm1(-u)
            elif kind == "gaussian":
                out = np.expm1(-0.5 * u * u)
            elif kind == "power":
                out = np.expm1(np.log1p(-np.minimum(u, 1.0)) / s)
            elif kind == "indicator":
                out = np.where(u <= 1.0, 0.0, -1.0)
            else:                                  # pfamily with param != 0
                n, a = prof.ambient_dim, abs(s)
                phi0 = math.exp(n / a)
                out = phi0 * np.expm1(-(n / a) * np.minimum(u, 1e300) ** a)
        out = amplitude * out
        return out if out.ndim else float(out)

    return drop


def _slope_at_zero(prof: Profile, scale: float, amplitude: float) -> float:
    kind, par = prof.kind, prof.param
    if kind == "exponential":
        base = -1.0
    elif kind in ("gaussian", "indicator"):
        base = 0.0
    elif kind == "power":
        base = -1.0 / par
    else:
        n, a = prof.ambient_dim, abs(par)
        base = -math.inf if a < 1 else (-n * prof.phi0 if a == 1.0 else 0.0)
    return amplitude * base / scale


def _deriv_exponent(prof: Profile) -> float:
    if prof.kind == "gaussian":
        return 1.0
    if prof.kind == "pfamily":
        return abs(prof.param) - 1.0
    return 0.0


def _closed_form(prof: Profile, scale: float, amplitude: float) -> Callable:
    """The analytic map p -> p * M(psi)(p), valid on the admissible range."""
    kind = prof.kind
    lg = special.gammaln
    if kind == "exponential":
        core = lambda p: math.exp(lg(p + 1.0))
    elif kind == "gaussian":
        core = lambda p: 2.0 ** (0.5 * p) * math.exp(lg(1.0 + 0.5 * p))
    elif kind == "power":
        s = prof.param
        core = lambda p: math.exp(lg(p + 1.0) + lg(1.0 / s + 1.0) - lg(p + 1.0 / s + 1.0))
    elif kind == "indicator":
        core = lambda p: 1.0
    else:
        n, a = prof.ambient_dim, abs(prof.param)
        c = n / a
        core = lambda p: math.exp(c + lg(p / a + 1.0) - (p / a) * math.log(c))
    return lambda p: amplitude * scale ** p * core(p)


# ---------------------------------------------------------------------------
# the transform


def mellin(psi: MellinProfile, p: float, cfg: QuadratureConfig | None = None) -> float:
    """M(psi)(p) for p in (-1, 0) or p > 0, computed and cross-checked twice."""
    cfg = cfg or _DEFAULT_CFG
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
    pm = p * mellin(psi, p, cfg) / psi.sup
    if not pm > 0.0:
        raise ArithmeticError(f"p*M = {pm:g} is not positive; cannot take the 1/p power")
    return pm ** (1.0 / p)


def berwald_g(psi: MellinProfile, p: float, s: float) -> float:
    """G(psi, p, s) = binom_gen(p, s)^(1/p) * i_p(psi); limit expression at p = 0.

    Nonincreasing in p when psi is s-concave with its maximum at 0, and
    constant exactly on the family psi(0) * (1 - t/alpha)_+^(1/s)
    (exponential psi(0) e^(-t/alpha) at s = 0).
    """
    if s < 0:
        raise ValueError("concavity index s must be nonnegative")
    if not math.isfinite(p) or p <= -1.0:
        raise ValueError("berwald_g needs a finite exponent p > -1")
    if abs(p) <= ZERO_P_WINDOW:
        tilt = special.digamma(1.0 / s + 1.0) if s > 0 else 0.0
        return math.exp(tilt + _EULER) * i_p(psi, 0.0)
    return binom_gen(p, s) ** (1.0 / p) * i_p(psi, p)


def binom_gen(p: float, s: float) -> float:
    """Generalized binomial coefficient (1/s + p choose p); 1/Gamma(p+1) at s=0."""
    if not math.isfinite(p) or p <= -1.0:
        raise ValueError("binom_gen needs a finite p > -1")
    if s < 0:
        raise ValueError("concavity index s must be nonnegative")
    if s == 0.0:
        return math.exp(-special.gammaln(p + 1.0))
    r = 1.0 / s
    return math.exp(special.gammaln(r + p + 1.0) - special.gammaln(p + 1.0)
                    - special.gammaln(r + 1.0))


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


def _with_singularity(cfg: QuadratureConfig, e: float | None) -> QuadratureConfig:
    if e is not None and e >= 0.0:
        e = None
    return replace(cfg, singular_exponent=e)


def _weighted_knot_integral(pp, alpha: float, with_log: bool = False) -> float:
    """int t^alpha * pp(t) [* log t] over the knot span of the piecewise poly pp.

    The first interval starts at t = 0 and owns the t^alpha endpoint behavior;
    there the local power-basis coefficients give the integral analytically.
    Away from zero the integrand is smooth per interval, so knot-aligned
    Gauss-Legendre is exact to rounding.
    """
    knots = pp.x
    degree = pp.c.shape[0] - 1
    first = 0.0
    b = knots[1]
    for m in range(degree + 1):
        cm = float(pp.c[m, 0])
        if cm == 0.0:
            continue
        q = (degree - m) + alpha + 1.0
        if with_log:
            first += cm * b ** q * (q * math.log(b) - 1.0) / (q * q)
        else:
            first += cm * b ** q / q
    x, w = _GL8
    lo, hi = knots[1:-1], knots[2:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = (mid[:, None] + half[:, None] * x).ravel()
    weights = (half[:, None] * w).ravel()
    vals = pp(nodes) * nodes ** alpha
    if with_log:
        vals = vals * np.log(nodes)
    return first + float(weights @ vals)


def _branch_route(psi: MellinProfile, p: float, cfg: QuadratureConfig) -> float:
    horizon = float(psi.cutoff(p))
    if psi.spline is not None:
        return psi.psi0 * horizon ** p / p + _weighted_knot_integral(psi.spline, p - 1.0)
    if p >= _SMALL_P:
        e = p - 1.0 if p < 1.0 else None
        est = integrate_1d(lambda t: t ** (p - 1.0) * float(psi.value(t)),
                           0.0, horizon, _with_singularity(cfg, e))
        return est.value
    # subtracted form: exact for p in (-1, 0), and for 0 < p < _SMALL_P the
    # identity int_0^T t^(p-1) psi = psi(0) T^p / p + int_0^T t^(p-1) (psi - psi(0))
    # avoids the underflowing t = u^(1/p) substitution.
    e = p + psi.deriv_exponent if p < 0.0 else None
    est = integrate_1d(lambda t: t ** (p - 1.0) * float(psi.drop(t)),
                       0.0, horizon, _with_singularity(cfg, e))
    return psi.psi0 * horizon ** p / p + est.value


def _derivative_route(psi: MellinProfile, p: float, cfg: QuadratureConfig) -> float:
    if psi.spline is not None:
        quad_part = -_weighted_knot_integral(psi.spline.derivative(), p)
    else:
        horizon = float(psi.cutoff(p))
        e = p + psi.deriv_exponent if p < 0.0 else None
        quad_part = integrate_1d(lambda t: float(psi.neg_derivative(t)) * t ** p,
                                 0.0, horizon, _with_singularity(cfg, e)).value
    total = quad_part + sum(w * loc ** p for loc, w in psi.atoms)
    return total / p


def _log_moment_mean(psi: MellinProfile, cfg: QuadratureConfig) -> float:
    if psi.spline is not None:
        quad_part = -_weighted_knot_integral(psi.spline.derivative(), 0.0, with_log=True)
    else:
        horizon = float(psi.cutoff(1.0))
        e = psi.deriv_exponent if psi.deriv_exponent < 0.0 else None
        quad_part = integrate_1d(lambda t: float(psi.neg_derivative(t)) * math.log(t),
                                 0.0, horizon, _with_singularity(cfg, e)).value
    total = quad_part + sum(w * math.log(loc) for loc, w in psi.atoms)
    return math.exp(total / psi.sup)


def _reconcile(label: str, a: float, b: float) -> None:
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ArithmeticError(f"{label}: non-finite transform value ({a}, {b})")
    if abs(a - b) > _ROUTE_AGREEMENT * max(abs(a), abs(b)):
        raise ArithmeticError(f"{label} disagree: {a:.12g} vs {b:.12g}")
