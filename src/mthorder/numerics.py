"""Shared numeric primitives: seeded streams, the few special functions the
package needs (on `math`), quadrature, the compass search for the maximum of
a log-concave function, and the one LP, max t over A x + t s <= b
(`max_slack`, a one-phase simplex).

Quadrature and search are array-first: `integrate_1d` is adaptive
Gauss-Kronrod 21 whose integrand maps a 1-D array of nodes to their values,
one call per refinement round, and `maximize_logconcave` takes objectives on
(k, d) arrays of points, one call per sweep of a multi-scale compass stencil
(every direction at `_SCALES` halving steps), from a start where the
objective is positive.  One adaptive pass refines a whole batch of
integrals, each with its own interval, weight, tail cut, panels and
tolerance test, with one integrand call per round over every integral still
short of its tolerance; a single integral is the batch of one, and each
integral of a batch comes out as it would alone.

Everything here is deterministic given its inputs.  Random draws come from a
counter-based generator keyed by (seed, stream id) so that parallel shards can
use disjoint streams and still reproduce bit-identical results run to run.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

_T_FLOOR = 1e-150   # relative distance from the endpoint below which weighted integrands freeze


class InvalidDimensionError(ValueError):
    pass


class QuadratureFailure(RuntimeError):
    """Quadrature did not converge; `.best` carries the last estimate."""

    def __init__(self, message, best):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class EstimateWithError:
    """A numeric value with a one-sigma error bar."""

    value: float
    std_error: float = 0.0
    samples_or_nodes: int = 0

    def __post_init__(self):
        if not math.isfinite(self.std_error) or self.std_error < 0:
            raise ValueError("std_error must be finite and nonnegative")

    def scaled(self, factor: float) -> "EstimateWithError":
        return EstimateWithError(self.value * factor,
                                 self.std_error * abs(factor),
                                 self.samples_or_nodes)


@dataclass(frozen=True)
class Estimates:
    """The integrals of one batched `integrate_1d` call: the value, error
    bar and node count of each, and `samples_or_nodes`, their node total."""

    value: np.ndarray
    std_error: np.ndarray
    nodes: np.ndarray

    @property
    def samples_or_nodes(self) -> int:
        return int(self.nodes.sum())

    def row(self, i: int) -> EstimateWithError:
        """The i-th integral as an `EstimateWithError`."""
        return EstimateWithError(float(self.value[i]), float(self.std_error[i]),
                                 int(self.nodes[i]))


def combine_sigma(*sigmas: float) -> float:
    return math.sqrt(sum(s * s for s in sigmas))


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances for integrate_1d."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 200

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")


_DEFAULT_QUADRATURE = QuadratureConfig()


# ---------------------------------------------------------------------------
# random streams


def make_rng(seed: int, stream: int) -> np.random.Generator:
    """Counter-based 64-bit generator for (seed, stream); streams never overlap."""
    key = np.array([seed % 2**64, stream % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sphere_sample(d: int, count: int, seed: int, stream: int = 0) -> np.ndarray:
    """`count` unit vectors in R^d, deterministic in (seed, stream).

    For even `count` the set is antithetic: it contains -v for every v,
    so linear test functions integrate to exactly zero.
    """
    if d < 1:
        raise InvalidDimensionError("sphere dimension must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    gen = make_rng(seed, stream)
    half = (count + 1) // 2
    z = gen.standard_normal((half, d))
    norms = np.linalg.norm(z, axis=1)
    bad = norms < 1e-150
    if np.any(bad):                      # essentially impossible; keep deterministic anyway
        z[bad] = 0.0
        z[bad, 0] = 1.0
        norms = np.linalg.norm(z, axis=1)
    v = z / norms[:, None]
    out = np.empty((2 * half, d))
    out[0::2] = v
    out[1::2] = -v
    return out[:count]


def sphere_surface(d: int) -> float:
    """Surface measure of the unit sphere S^{d-1} in R^d."""
    if d < 1:
        raise InvalidDimensionError("sphere dimension must be >= 1")
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


# ---------------------------------------------------------------------------
# special functions (the few the package needs, on `math`)

# B_2k / 2k for k = 7, ..., 1: psi(x) ~ log x - 1/2x - sum_k B_2k / (2k x^2k)
_DIGAMMA_SERIES = (1.0 / 12.0, -691.0 / 32760.0, 1.0 / 132.0, -1.0 / 240.0,
                   1.0 / 252.0, -1.0 / 120.0, 1.0 / 12.0)


def digamma(x: float) -> float:
    """psi(x) = d/dx log Gamma(x) for x > 0: the recurrence
    psi(x) = psi(x + 1) - 1/x up to x >= 10, then the asymptotic series
    through x^-14, whose first omitted term is below 5e-17 there.  The
    terms are summed exactly (`math.fsum`), so only their own roundings
    remain: within 4e-16 of max(1, |psi|)."""
    if not x > 0.0:
        raise ValueError("digamma is implemented for x > 0 only")
    terms = []
    while x < 10.0:
        terms.append(-1.0 / x)
        x += 1.0
    w = 1.0 / (x * x)
    series = 0.0
    for c in _DIGAMMA_SERIES:
        series = series * w + c
    return math.fsum(terms + [math.log(x), -0.5 / x, -series * w])


def gamma_ratio(num, den=(), log_factor: float = 0.0) -> float:
    """prod Gamma(num) / prod Gamma(den) * e^log_factor for positive
    arguments.  `math.gamma` is exact on small integers where `math.lgamma`
    is a few ulps off, so the log form serves only where a Gamma or the
    exponential would leave the float range.  The pairs Gamma(num_i) /
    Gamma(den_i) are divided first, so equal pairs give exactly 1."""
    if max((*num, *den)) < 171.0 and abs(log_factor) < 700.0:
        out = math.exp(log_factor)
        for i, x in enumerate(num):
            out *= math.gamma(x) / math.gamma(den[i]) if i < len(den) else math.gamma(x)
        return out
    return math.exp(sum(map(math.lgamma, num)) - sum(map(math.lgamma, den)) + log_factor)


def beta(a: float, b: float) -> float:
    """B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b) for a, b > 0."""
    return gamma_ratio((a, b), (a + b,))


def gamma_q(a: float, x):
    """The regularized upper incomplete gamma Q(a, x) = Gamma(a, x) / Gamma(a)
    at an order a > 0 and x >= 0 (a number or an ndarray).  At an integer
    or half-integer order, by the upward recurrence Q(b + 1, x) = Q(b, x) +
    x^b e^-x / Gamma(b + 1) from Q(1, x) = e^-x or Q(1/2, x) = e^-x
    erfcx(sqrt x): every term is positive, so nothing cancels, and at an
    integer order it is the finite sum e^-x sum_{k<a} x^k / k!.  At any
    other order, 1 - P(a, x) by the series of P below x < a + 1, where
    Q > 1/4 so the difference keeps its digits, and the continued fraction
    of Q above (`_gamma_q_series`, `_gamma_q_fraction`)."""
    if not a > 0.0:
        raise ValueError(f"gamma_q needs an order a > 0, got {a}")
    scalar = not isinstance(x, np.ndarray)
    x = float(x) if scalar else x.astype(float, copy=False)
    if 2.0 * a != math.floor(2.0 * a):
        xs = np.atleast_1d(x)
        out = np.empty_like(xs)
        low = xs < a + 1.0
        out[low] = _gamma_q_series(a, xs[low])
        out[~low] = _gamma_q_fraction(a, xs[~low])
        return float(out[0]) if scalar else out
    b = 1.0 if a == math.floor(a) else 0.5
    total = 1.0 if b == 1.0 else erfcx(np.sqrt(x))
    term = x ** b / math.gamma(b + 1.0)
    while b < a:
        total = total + term
        b += 1.0
        term = term * (x / b)
    return (math.exp(-x) if scalar else np.exp(-x)) * total


_GAMMA_Q_TERMS = 1000    # bound on series terms and continued-fraction levels


def _gamma_prefactor(a: float, x: np.ndarray) -> np.ndarray:
    """x^a e^-x / Gamma(a), in logs; 0 at x = 0."""
    with np.errstate(divide="ignore"):
        return np.exp(a * np.log(x) - x - math.lgamma(a))


def _gamma_q_series(a: float, x: np.ndarray) -> np.ndarray:
    """1 - P(a, x), P = x^a e^-x / Gamma(a) sum_n x^n / (a (a+1) ... (a+n)),
    each entry summed until its terms stop changing its sum (x < a + 1: the
    terms fall at least geometrically), so an entry does not depend on the
    others."""
    term = np.full_like(x, 1.0 / a)
    total = term.copy()
    live = np.ones(x.shape, dtype=bool)
    for n in range(1, _GAMMA_Q_TERMS):
        if not live.any():
            break
        term = np.where(live, term * (x / (a + n)), 0.0)
        total = total + term
        live &= term > _EPS * total
    return 1.0 - _gamma_prefactor(a, x) * total


def _gamma_q_fraction(a: float, x: np.ndarray) -> np.ndarray:
    """Q(a, x) = x^a e^-x / Gamma(a) / (x + 1 - a - 1 (1 - a) / (x + 3 - a -
    2 (2 - a) / ...)) for x >= a + 1, by the modified Lentz method (Numerical
    Recipes, 6.2), each entry until a level changes it by at most eps."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = np.full_like(x, 1.0 / tiny)
    d = 1.0 / b
    h = d
    live = np.ones(x.shape, dtype=bool)
    for i in range(1, _GAMMA_Q_TERMS):
        if not live.any():
            break
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d = 1.0 / np.where(np.abs(d) < tiny, tiny, d)
        c = b + an / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        step = d * c
        h = np.where(live, h * step, h)
        live &= np.abs(step - 1.0) > _EPS
    return _gamma_prefactor(a, x) * h


# From this |x| on, erfcx takes Laplace's continued fraction, which at this
# depth is exact to rounding there; below it math.erfc is still a normal float.
_ERFCX_CF_FROM = 26.0
_ERFCX_CF_DEPTH = 8


def _exp_square(a: np.ndarray) -> np.ndarray:
    """e^(a^2) elementwise for |a| < 1e150, with the rounding error of a^2
    put back: a is split into halves whose products are exact (Veltkamp and
    Dekker), so the result keeps its relative accuracy where a^2 is large."""
    hi = a * a
    c = 134217729.0 * a                 # 2^27 + 1
    ah = c - (c - a)
    al = a - ah
    return np.exp(hi) * (1.0 + (((ah * ah - hi) + 2.0 * ah * al) + al * al))


def erfcx(x):
    """The scaled complementary error function e^(x^2) erfc(x), elementwise
    over an array (or a scalar).  For |x| < 26 it is math.erfc(|x|) times
    e^(x^2), formed without the rounding of x^2; above, where erfc
    underflows, the continued fraction 1 / (sqrt(pi) (x + (1/2) / (x + 1 /
    (x + (3/2) / ...)))), which tends to 1 / (x sqrt(pi)).  Negative x
    reflect through erfcx(x) = 2 e^(x^2) - erfcx(-x), which overflows below
    x ~ -26.6."""
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    out = np.empty_like(a)
    near = a < _ERFCX_CF_FROM
    b = a[near]
    out[near] = np.array([math.erfc(v) for v in b.tolist()]) * _exp_square(b)
    if not near.all():
        far = t = a[~near]
        for k in range(_ERFCX_CF_DEPTH, 0, -1):
            t = far + (0.5 * k) / t
        out[~near] = 1.0 / (math.sqrt(math.pi) * t)
    neg = x < 0.0
    if neg.any():
        with np.errstate(over="ignore"):
            out[neg] = 2.0 * _exp_square(np.minimum(a[neg], 27.0)) - out[neg]
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# quadrature


def integrate_1d(phi, a, b, cfg: QuadratureConfig | None = None, tail_bound=None,
                 weight_exponent=0.0):
    """Integrate (t - a)^k phi(t) over [a, b] (b may be +inf) to the configured
    tolerance, with k = weight_exponent > -1 and phi bounded near a.

    phi maps a 1-D array of nodes to the array of its values there; the
    adaptive rule (`_adaptive_gk21`) calls it once per refinement round.
    For k < 1 the substitution w = ((t - a) / (b - a))^(k+1) absorbs the
    weight, (b - a)^(k+1) / (k+1) int_0^1 phi(t(w)) dw, so no power of a
    tiny t - a is formed even as k -> -1, and for 0 < k < 1 the rule no
    longer refines the infinite slope of t^k at a; phi is taken at
    t - a >= _T_FLOOR (b - a), below which t(w) would underflow.  For
    k >= 1 the weight is ((t - a) / (b - a))^k <= 1, and the factor
    (b - a)^k, like the absolute tolerance it rescales, is applied in logs,
    so the result overflows only when the integral itself does.
    An infinite upper limit requires tail_bound = (A, B) with
    (t - a)^k phi(t) <= A*exp(-B*t); the integral is truncated where that
    envelope drops below abs_tol/10.  Raises QuadratureFailure (carrying the
    best estimate, in the units of the result) if the adaptive rule cannot
    reach the tolerance within cfg.max_subdivisions panels.
    `samples_or_nodes` counts the nodes phi was evaluated at.

    A batch of J integrals: a, b, k and the two entries of tail_bound may
    be 1-D arrays, broadcast to a common length J.  Then phi(t, owner)
    receives, with the nodes, the index of the integral each node belongs
    to; every integral keeps its own panels, tolerance test and
    max_subdivisions, and each round is one phi call over the new panels of
    every integral not yet converged.  The result is an `Estimates`, whose
    j-th entry is, to the bit, what the call with the j-th scalars returns.
    If any integral fails, QuadratureFailure carries the best estimate of
    the first to fail.

    Only the end a has this singular treatment.  An algebraic singularity
    at b is resolved only down to panels 1024 eps (relative) wide, as the
    rule neither extrapolates nor puts nodes on a panel edge, so
    int_0^1 (1 - t)^(-1/2) dt fails at the default tolerance: the caller
    must move such a point to a, or substitute it away.
    """
    cfg = cfg or _DEFAULT_QUADRATURE
    args = (a, b, weight_exponent, *((1.0, 1.0) if tail_bound is None else tail_bound))
    batch = not all(isinstance(x, (int, float)) for x in args) and any(map(np.ndim, args))
    a, b, k, big_a, big_b = ((np.asarray(x, dtype=float).ravel().tolist() for x in
                              np.broadcast_arrays(*args)) if batch
                             else ([float(x)] for x in args))
    if not all(kj > -1.0 for kj in k):
        raise ValueError("the weight exponent must exceed -1")
    if not a:
        return Estimates(np.zeros(0), np.zeros(0), np.zeros(0, dtype=int))
    for j, bj in enumerate(b):
        if math.isinf(bj):
            if tail_bound is None:
                raise ValueError("infinite upper limit needs an exponential tail_bound (A, B)")
            if big_b[j] <= 0:
                raise ValueError("tail bound decay rate must be positive")
            cut = math.log(max(10.0 * big_a[j] / cfg.abs_tol, 2.0)) / big_b[j]
            b[j] = max(a[j] + 1.0, cut)

    span = [bj - aj for aj, bj in zip(a, b)]
    sub = [kj != 0.0 and kj < 1.0 for kj in k]           # integrated over w in [0, 1]
    weighted = [kj >= 1.0 for kj in k]                   # ((t - a) / span)^k in the integrand
    unit = [kj * math.log(sj) if wj else 0.0 for kj, sj, wj in zip(k, span, weighted)]
    abs_tol = [_times_exp(cfg.abs_tol, -u) if wj else cfg.abs_tol
               for u, wj in zip(unit, weighted)]
    any_sub, any_weighted = any(sub), any(weighted)
    if any_sub or any_weighted:
        a_, span_, k_, sub_, weighted_ = map(np.array, (a, span, k, sub, weighted))
        q_, floor_ = 1.0 / (k_ + 1.0), a_ + _T_FLOOR * span_

    def integrand(x, panel_owner):
        x = x.ravel()
        owner = panel_owner.repeat(_GK_NODES.size) if batch or any_sub or any_weighted else None
        t = x
        if any_sub:
            s = sub_[owner]
            o = owner[s]
            t = x.copy()
            t[s] = np.maximum(a_[o] + span_[o] * x[s] ** q_[o], floor_[o])
        f = np.asarray(phi(t, owner) if batch else phi(t), dtype=float)
        if f.shape != x.shape:
            raise ValueError("phi must map a 1-D array of nodes to an array of its values")
        if any_weighted:
            w = weighted_[owner]
            o = owner[w]
            f = f.copy()
            f[w] = f[w] * ((t[w] - a_[o]) / span_[o]) ** k_[o]
        return f

    val, err, nodes, failure = _adaptive_gk21(
        integrand, np.array([0.0 if sj else aj for aj, sj in zip(a, sub)]),
        np.array([1.0 if sj else bj for bj, sj in zip(b, sub)]), np.array(abs_tol), cfg)

    def finish(j):
        v, e = float(val[j]), float(err[j])
        if weighted[j]:
            v, e = _times_exp(v, unit[j]), _times_exp(e, unit[j])
        elif sub[j]:
            factor = span[j] ** (k[j] + 1.0) * (1.0 / (k[j] + 1.0))
            v, e = v * factor, e * abs(factor)
        return EstimateWithError(v, e, int(nodes[j]))

    if failure is not None:
        j, message = failure
        raise QuadratureFailure(message, finish(j))
    if not batch:
        return finish(0)
    est = [finish(j) for j in range(len(a))]
    return Estimates(np.array([e.value for e in est]), np.array([e.std_error for e in est]),
                     nodes)


# Gauss-Kronrod 21-point rule (QUADPACK's qk21): the Kronrod abscissae of
# [0, 1] in decreasing order, their weights, and the weights of the 10-point
# Gauss rule, whose abscissae are every other Kronrod one from the second
_XGK = np.array([0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
                 0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
                 0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
                 0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
                 0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
                 0.0])
_WGK = np.array([0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
                 0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
                 0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
                 0.123491976262065851077208643474262, 0.134709217311473325928054001771707,
                 0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
                 0.149445554002916905664936468389821])
_WG = np.zeros(11)
_WG[1::2] = [0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
             0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
             0.295524224714752870173892994651338]
_GK_NODES = np.concatenate([-_XGK, _XGK[-2::-1]])
_GK_WEIGHTS = np.concatenate([_WGK, _WGK[-2::-1]])
_GK_ERROR = _GK_WEIGHTS - np.concatenate([_WG, _WG[-2::-1]])
_CASCADE = 2.0 ** -np.arange(8.0, 0.0, -1.0)   # 1/256, ..., 1/2 of a panel toward its end
# cuts of a panel as fractions of its width from the end it is split toward:
# the cascade toward a, toward b, and a bisection (its other cuts fall on hi)
_CUTS = np.stack([_CASCADE, _CASCADE[::-1], np.r_[0.5, np.ones(_CASCADE.size - 1)]])
_EPS = np.finfo(float).eps
_MIN_PANEL = 1024.0 * _EPS   # least panel width relative to its edges' magnitude


def _gk21(f, lo, hi, owner):
    """The panels [lo, hi] of the integrals `owner` as a (5, panels) table:
    lo, hi, the GK21 integral, its error |K21 - G10| and the integral of
    |f|, all nodes in one call f(nodes, owner), 21 nodes per panel in a row.
    Each panel's sums run over its own row (`np.vecdot` sums a row alike
    wherever it sits, where a matrix product need not), so they do not
    depend on the other panels of the call."""
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _GK_NODES
    y = f(x, owner).reshape(x.shape)
    out = np.empty((5, lo.size))
    out[0], out[1] = lo, hi
    out[2] = half * np.vecdot(y, _GK_WEIGHTS)
    out[3] = np.abs(half * np.vecdot(y, _GK_ERROR))
    out[4] = np.abs(half) * np.vecdot(np.abs(y), _GK_WEIGHTS)
    return out


def _children(lo, hi, a, b):
    """The panels that replace [lo_i, hi_i], a panel of an integral over
    [a_i, b_i]: a geometric cascade of halvings toward the one end of
    [a_i, b_i] that it touches, else its bisection (so the first split
    halves [a, b]).  Cuts closer than _MIN_PANEL (relative) to an edge are
    dropped (moved onto that edge), so the outer nodes of every child stay
    distinct from its edges.  Returns the children's ends, each panel's
    children in order, and how many children each panel has."""
    w = hi - lo
    at_a, at_b = lo == a, hi == b
    kind = np.where(at_a == at_b, 2, at_b)          # 0: toward a, 1: toward b, 2: halve
    base, step = np.where(kind == 1, hi, lo), np.where(kind == 1, -w, w)
    cuts = base[:, None] + step[:, None] * _CUTS[kind]
    gap = (_MIN_PANEL * np.maximum(np.abs(lo), np.abs(hi)))[:, None]
    cuts = np.where(cuts - lo[:, None] < gap, lo[:, None],
                    np.where(hi[:, None] - cuts < gap, hi[:, None], cuts))
    edges = np.concatenate([lo[:, None], cuts, hi[:, None]], axis=1)
    left, right = edges[:, :-1], edges[:, 1:]
    real = right > left
    return left[real], right[real], real.sum(axis=1)


def _adaptive_gk21(f, a, b, abs_tol, cfg):
    """Adaptive GK21 on the intervals [a_j, b_j] at once, f(x, owner) taking
    nodes and the integral each belongs to.  Each round splits, in every
    integral not yet converged, its worst panels until the error left on its
    unsplit panels is within half its tolerance, and evaluates all of their
    children in one f call.  Panel errors are |K21 - G10|; integral j stops
    once their sum is within max(abs_tol_j, rel_tol |I_j|), or within the
    rounding floor 50 eps int |f|, and its panels leave the pass.  Sums
    over an integral's panels run in panel order, and an integral's panels
    keep their order (survivors first, then children), so each integral's
    result does not depend on the others.  Returns values, errors, node
    counts and a failure: None, or (j, message) for the first integral that
    cannot converge, whose value and error are then its best estimate."""
    J = a.size
    own = np.arange(J)
    tab = _gk21(f, a, b, own)                # rows: lo, hi, integral, error, |f| integral
    nodes = np.full(J, _GK_NODES.size)
    value, error = np.zeros(J), np.zeros(J)
    live = np.ones(J, dtype=bool)
    while True:
        total, total_err = np.bincount(own, tab[2], J), np.bincount(own, tab[3], J)
        finite = np.isfinite(total) & np.isfinite(total_err)   # an integral without panels reads 0
        if not finite.all():
            j = int((~finite).nonzero()[0][0])
            value[j] = total[j]
            return value, error, nodes, (j, "quadrature met a non-finite integrand value")
        tol = np.maximum(abs_tol, cfg.rel_tol * np.abs(total))
        done = live & (total_err <= np.maximum(tol, 50.0 * _EPS * np.bincount(own, tab[4], J)))
        if done.any():
            value[done], error[done] = total[done], total_err[done]
            live &= ~done
            if not live.any():
                return value, error, nodes, None
            stay = live[own]
            tab, own = tab[:, stay], own[stay]
        lo, hi, err = tab[0], tab[1], tab[3]
        # each integral's splittable panels by decreasing error; left[i] is
        # the error its panels would keep if those before panel i were split
        split = hi - lo >= 2.0 * _MIN_PANEL * np.maximum(np.abs(lo), np.abs(hi))
        order = split.nonzero()[0]
        order = order[np.lexsort((-err[order], own[order]))]
        group = own[order]
        count = np.bincount(group, minlength=J)
        rank = np.arange(order.size) - group.searchsorted(group)
        width = count.max()
        col = (width - 1) - rank               # right to left: cumsum runs from the tail
        tails = np.zeros((J, width))
        tails[group, col] = err[order]
        left = tails.cumsum(axis=1)[group, col]
        if not split.all():
            left += np.bincount(own, np.where(split, 0.0, err), J)[group]
        take = np.maximum(np.bincount(group[left > 0.5 * tol[group]], minlength=J), 1)
        pick = order[rank < take[group]]
        picked = own[pick]
        new_lo, new_hi, per = _children(lo[pick], hi[pick], a[picked], b[picked])
        new_own = picked.repeat(per)
        born = np.bincount(new_own, minlength=J)
        panels = np.bincount(own, minlength=J)
        stalled = live & ((count == 0)
                          | (panels - np.minimum(take, count) + born > cfg.max_subdivisions))
        if stalled.any():
            j = int(stalled.nonzero()[0][0])
            value[j], error[j] = total[j], total_err[j]
            return value, error, nodes, (j, (
                f"quadrature did not converge: error {total_err[j]:.3g} above tolerance "
                f"{tol[j]:.3g} on {panels[j]} panels"))
        keep = np.ones(own.size, dtype=bool)
        keep[pick] = False
        tab = np.concatenate([tab[:, keep], _gk21(f, new_lo, new_hi, new_own)], axis=1)
        own = np.concatenate([own[keep], new_own])
        nodes += _GK_NODES.size * born


def _times_exp(x: float, log_factor: float) -> float:
    """x * e^log_factor, overflowing only when the product itself does."""
    if x == 0.0:
        return 0.0
    return math.copysign(math.exp(math.log(abs(x)) + log_factor), x)


@functools.lru_cache(maxsize=None)
def _legendre(order: int):
    """The Gauss-Legendre rule of one order, computed once and read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_panels(edges, order: int = 16):
    """Composite Gauss-Legendre nodes and weights on the panels between
    consecutive entries of the increasing array `edges`."""
    x, w = _legendre(order)
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


# ---------------------------------------------------------------------------
# derivative-free maximization of log-concave objectives


_SCALES = 6     # steps per compass sweep: h, h/2, ..., h/2^5 in one objective call


def _direction_set(d: int) -> np.ndarray:
    dirs = list(np.eye(d)) + list(-np.eye(d))
    if 2 <= d <= 6:         # at d = 1 the diagonals are +-e_1 again
        for signs in itertools.product((-1.0, 1.0), repeat=d):
            v = np.array(signs) / math.sqrt(d)
            dirs.append(v)
    return np.array(dirs)


def maximize_logconcave(F, x0, tol: float = 1e-9, max_evals: int = 60_000):
    """Locate the supremum of a coercive log-concave F by compass search on
    a multi-scale stencil.

    F maps a (k, d) array of points to their k values.  Each sweep evaluates
    the direction set (the 2d axes and, for 2 <= d <= 6, the 2^d diagonals)
    at the `_SCALES` steps h, h/2, ..., h/2^(_SCALES - 1) in one call and
    moves to the point of largest strictly positive log gain, the largest
    step and then the first direction winning ties; the next sweep starts
    from the step that won.  A sweep without gain divides h by
    2^_SCALES.  The start x0 must have F(x0) > 0 (a ValueError otherwise).
    One restart with a fresh step; deterministic for fixed inputs, and
    `max_evals` counts points.  Returns (argmax, value) with the value
    within ~tol (relative) of the supremum for smooth F; plateau maxima
    (indicator-type F) are returned exactly.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    dirs = _direction_set(x.size)
    stencil = np.vstack([0.5 ** j * dirs for j in range(_SCALES)])    # largest step first
    fx = float(F(x[None, :])[0])
    evals = 1
    if not fx > 0.0:
        raise ValueError(f"the search needs a start where F is positive, got {fx}")
    logf = math.log(fx)
    scale = max(1.0, float(np.linalg.norm(x)))
    h_min = math.sqrt(max(tol, 1e-15)) * scale * 0.05
    for start in range(2):                     # restart once with a fresh step
        h = 0.5 * scale if start == 0 else 64.0 * h_min
        while h > h_min and evals < max_evals:
            Y = x + h * stencil
            fy = np.asarray(F(Y), dtype=float)
            evals += len(Y)
            with np.errstate(divide="ignore", invalid="ignore"):
                ly = np.where(fy > 0.0, np.log(fy), -math.inf)
            k = int(np.argmax(ly - logf))
            if ly[k] - logf > 0.0:
                x, logf = Y[k], float(ly[k])
                h *= 0.5 ** (k // len(dirs))
            else:
                h *= 0.5 ** _SCALES
    return x, math.exp(logf)


# ---------------------------------------------------------------------------
# one-phase max-slack LP (tiny problems; Bland's rule for determinism)


_PIV_TOL = 1e-11


def _bland_pivot(T, basis, ncols):
    """Run simplex pivots on tableau T (last row = reduced costs, minimize)."""
    mrows = T.shape[0] - 1
    while True:
        enter = -1
        for j in range(ncols):
            if T[-1, j] < -1e-9:
                enter = j
                break
        if enter < 0:
            return "optimal"
        best_ratio, leave = None, -1
        for i in range(mrows):
            if T[i, enter] > _PIV_TOL:
                ratio = T[i, -1] / T[i, enter]
                if best_ratio is None or ratio < best_ratio - 1e-12 or (
                        abs(ratio - best_ratio) <= 1e-12 and basis[i] < basis[leave]):
                    best_ratio, leave = ratio, i
        if leave < 0:
            return "unbounded"
        piv = T[leave, enter]
        T[leave] /= piv
        for i in range(T.shape[0]):
            if i != leave and T[i, enter] != 0.0:
                T[i] -= T[i, enter] * T[leave]
        basis[leave] = enter


def max_slack(A, b, s, x0):
    """max t over {(x, t) : A x + t s <= b} for s >= 0, from a point x0
    that meets every row with s_i = 0.

    At x0 the largest feasible t0 is min over s_i > 0 of (b - A x0)_i / s_i,
    so with x = x0 + u - w and t = t0 + tau (u, w, tau >= 0) the slack
    basis is feasible and one run of Bland's rule maximizes tau: no phase 1.
    Returns (t, x), or (inf, None) when t is unbounded.
    """
    A, s, x0 = (np.asarray(v, dtype=float) for v in (A, s, x0))
    room = np.asarray(b, dtype=float) - A @ x0
    pos = s > 0.0
    if not np.any(pos):
        return math.inf, None
    t0 = float(np.min(room[pos] / s[pos]))
    m, n = A.shape
    T = np.zeros((m + 1, 2 * n + m + 2))       # columns u, w, tau, slacks | rhs
    T[:m, :-1] = np.hstack([A, -A, s[:, None], np.eye(m)])
    T[:m, -1] = np.maximum(room - t0 * s, 0.0)
    T[-1, 2 * n] = -1.0
    basis = np.arange(2 * n + 1, 2 * n + 1 + m)
    if _bland_pivot(T, basis, 2 * n + 1 + m) == "unbounded":
        return math.inf, None
    z = np.zeros(2 * n + 1 + m)
    z[basis] = T[:m, -1]
    return t0 + float(z[2 * n]), x0 + z[:n] - z[n:2 * n]
