"""Executable verdicts for the Rogers-Shephard / Zhang / chain inequality family.

Every check computes both sides of one inequality together with an explicit
error budget and classifies the outcome mechanically:

    holds_with_equality   |margin| <= max(3 sigma, equality_tol)
    violated_beyond_3sigma margin < -3 sigma
    holds                  otherwise

where margin = rhs - lhs.  Exact paths carry equality_tol = 1e-6; Monte
Carlo paths are governed by their combined 3 sigma band.  Wherever an
inequality compares two integrals over the same sphere of directions, both
sides are evaluated on a shared direction set so that direction noise
cancels out of the margin.

The functional Rogers-Shephard checks rest on the sup-convolution
S(x) = sup_z f_0(z) prod_i f_i(z - x_i).  Its L1 norm is exact for
exponential and indicator factors on polytopes (n*m <= 6, at most
`_MEETING_SUMS_MAX` vertex sums), where -log S has sublevel sets tA + B and
the norm integrates the mixed-volume polynomial vol(tA + B) against e^-t
(`mixed-volume`), and for two ball indicators (`ball-overlap`); otherwise it
is a uniform Monte Carlo over the translation box of pointwise sups
(`pointwise-sup`).  In one dimension every factor must be an indicator,
exponential or Gaussian: the log of the product is a concave quadratic on
each cell between the factors' breakpoints, so each translate's sup is the
best cell's peak in closed form; other 1-D tuples raise NotImplementedError.
Above one dimension only indicator tuples have pointwise sups, their height
where the translated supports meet, an exact test (`_meets`); other tuples
outside `mixed-volume` raise NotImplementedError.  The body inequality
vol(D^m K) <= binom(n(m+1), n) vol(K)^m is the single-function one on chi_K,
so `check_rs_body` takes its left side from the same routes.  The sup norm
rests on the int-convolution int_z f_0(z) prod_i f_i(z - x_i) dz: in one
dimension the same cells integrated in closed form; above, for indicator
tuples only, the exact volume of the translated supports' meeting, one
`covariogram.common_volume` batch (stacked rows for polytopes) per sweep of
the compass search.

The functional Zhang and chain checks rest on the layer cake: every
function here is f = A phi(||x - c||_K), so its covariogram integral and
its radial mean bodies are those of K times one profile moment factor.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import convexcore as cc
from . import covariogram as cov
from . import mellin as ml
from . import projection as proj
from . import starbodies as sb
from .convexcore import ConvexBody
from .lcfun import ZERO_P_WINDOW, LogConcaveFunction, profile_from_kind
from .numerics import (EstimateWithError, combine_sigma, erfcx, gauss_panels,
                       make_rng, max_slack, maximize_logconcave)

HOLDS = "holds"
EQUALITY = "holds_with_equality"
VIOLATED = "violated_beyond_3sigma"

_EQUALITY_TOL = 1e-6

_STREAM_STAR_L1 = 503

_SHARDS = 8

_TRUNCATION_TOL = 1e-13   # tail mass a factor's truncation box may drop
# Most vertex sums of tA + B for which a tuple takes the exact mixed volume
# rather than sampled translates.  In R^6 the hull of 2,197 sums (a
# 13-vertex 3-polytope at m = 2) took 2.7 s and 194 MB, 10,000 sums (a 10-gon
# at m = 3) 14 s and 464 MB; R^4 and below stay under 0.05 s at this bound.
_MEETING_SUMS_MAX = 2_500
# Most F^n per row (F distinct normals) for which `_meets` batches volumes; per row
# in R^3, one thread, volume against LP: 0.54/1.5 ms at F = 30, 2.3/2.7 at 50, 4.5/3.5 at 60.
_LASSERRE_WORK_MAX = 50 ** 3
# Gauss-Legendre rule on [0, 1] for the closed-form half-cells whose exponent
# drops by less than 1 (`_fall_integral`)
_FLAT_NODES, _FLAT_WEIGHTS = gauss_panels(np.array([0.0, 1.0]), 10)


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class Verdict:
    name: str
    lhs: EstimateWithError
    rhs: EstimateWithError
    sigma_combined: float
    status: str
    metadata: dict = field(default_factory=dict)

    @property
    def margin(self) -> float:
        return self.rhs.value - self.lhs.value

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": {"value": self.lhs.value, "std_error": self.lhs.std_error,
                    "samples_or_nodes": self.lhs.samples_or_nodes},
            "rhs": {"value": self.rhs.value, "std_error": self.rhs.std_error,
                    "samples_or_nodes": self.rhs.samples_or_nodes},
            "margin": self.margin,
            "sigma_combined": self.sigma_combined,
            "status": self.status,
            "metadata": dict(self.metadata),
        }


def make_verdict(name: str, lhs: EstimateWithError, rhs: EstimateWithError,
                 sigma: float | None = None, equality_tol: float = _EQUALITY_TOL,
                 metadata: dict | None = None) -> Verdict:
    """Classify lhs <= rhs by the mechanical 3-sigma / equality_tol rule."""
    if not (math.isfinite(lhs.value) and math.isfinite(rhs.value)):
        raise ValueError(f"{name}: sides must be finite, got lhs = {lhs.value}, "
                         f"rhs = {rhs.value}")
    sig = combine_sigma(lhs.std_error, rhs.std_error) if sigma is None else float(sigma)
    if not math.isfinite(sig) or sig < 0.0:
        raise ValueError("sigma_combined must be finite and nonnegative")
    margin = rhs.value - lhs.value
    if abs(margin) <= max(3.0 * sig, equality_tol):
        status = EQUALITY
    elif margin < -3.0 * sig:
        status = VIOLATED
    else:
        status = HOLDS
    return Verdict(name, lhs, rhs, sig, status, dict(metadata or {}))


CSV_HEADER = "name,lhs,lhs_sigma,rhs,rhs_sigma,margin,sigma_combined,status"


def csv_summary(verdicts) -> str:
    """Tabular one-line-per-verdict summary (17 significant digits)."""
    rows = [CSV_HEADER]
    for v in verdicts:
        rows.append(",".join([
            v.name,
            f"{v.lhs.value:.17g}", f"{v.lhs.std_error:.17g}",
            f"{v.rhs.value:.17g}", f"{v.rhs.std_error:.17g}",
            f"{v.margin:.17g}", f"{v.sigma_combined:.17g}", v.status]))
    return "\n".join(rows) + "\n"


def run_jobs(jobs, threads: int | None = None) -> list:
    """Run independent verdict jobs in order on the caller's thread, or on a
    pool of `threads` threads when more than one is asked for.

    Each job is a zero-argument callable returning a Verdict or a list of
    Verdicts; the flattened results come back in submission order.
    """
    workers = min(threads or 1, len(jobs))
    if workers <= 1:
        results = [job() for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda job: job(), jobs))
    flat = []
    for r in results:
        flat.extend(r) if isinstance(r, (list, tuple)) else flat.append(r)
    return flat


def _shard_sigma(values: np.ndarray) -> float:
    """Standard error of the mean from _SHARDS interleaved shard means, or
    the plain one below 2 _SHARDS values; one value has none."""
    if len(values) < 2:
        raise ValueError("a standard error needs at least two values")
    if len(values) < 2 * _SHARDS:
        return float(values.std(ddof=1)) / math.sqrt(len(values))
    means = np.array([values[s::_SHARDS].mean() for s in range(_SHARDS)])
    return float(means.std(ddof=1)) / math.sqrt(_SHARDS)


# ---------------------------------------------------------------------------
# sup- and integral-convolutions of function tuples


def _validated_tuple(fbar) -> tuple[list[LogConcaveFunction], int, int]:
    fbar = list(fbar)
    if len(fbar) < 2:
        raise ValueError("need at least two functions (f_0 and one translate)")
    n = fbar[0].dim
    if any(f.dim != n for f in fbar):
        raise ValueError("all functions must share the ambient dimension")
    return fbar, n, len(fbar) - 1


def _offsets(fbar, xbar) -> list[np.ndarray]:
    """Translation applied to each factor: x_0 = o, then the blocks of xbar."""
    n, m = fbar[0].dim, len(fbar) - 1
    xb = cov.as_mvector(xbar, n)
    if xb.m != m:
        raise ValueError(f"xbar must supply {m} translation blocks, got {xb.m}")
    return [np.zeros(n)] + [xb.blocks[i].copy() for i in range(m)]


@dataclass(frozen=True)
class _Boxes:
    """Per-tuple constants of the row kernels, built once by `_factor_boxes`.

    Row i of the (factors, n) arrays lo and hi is the axis box of the
    untranslated factor f_i outside which it is negligible (or zero);
    translating a factor by t moves its box by t.  `shifts` holds each
    factor's centre.  In one dimension c1 and c2 are the `log_quadratic`
    rates, log_amp the log of the amplitudes' product plus the constant
    terms, and ends the body ends (-w, v) per factor; above, they are None."""
    lo: np.ndarray
    hi: np.ndarray
    shifts: np.ndarray
    c1: np.ndarray | None = None
    c2: np.ndarray | None = None
    log_amp: float | None = None
    ends: np.ndarray | None = None


def _factor_boxes(fbar) -> _Boxes:
    """The `_Boxes` of a tuple: a bounding box per compact support, else a
    cube of radius `coercive_box_radius`, and in one dimension the rates of
    the closed-form row kernels; a 1-D tuple that `_closed_form` does not
    admit raises NotImplementedError."""
    lo, hi = [], []
    for f in fbar:
        supp = f.support_body()
        if supp is not None:
            a, b = cc.bounding_box(supp)
        else:
            R = cov.coercive_box_radius(f, _TRUNCATION_TOL)
            a, b = np.full(f.dim, -R), np.full(f.dim, R)
        lo.append(a)
        hi.append(b)
    closed = {}
    if fbar[0].dim == 1:
        if not _closed_form(fbar):
            raise NotImplementedError("one-dimensional row kernels need indicator, "
                                      "exponential or Gaussian factors")
        coef = np.array([f.profile.log_quadratic for f in fbar])
        closed = {"c1": coef[:, 1], "c2": coef[:, 2],
                  "log_amp": (math.fsum(math.log(f.amplitude) for f in fbar)
                              + math.fsum(coef[:, 0])),
                  "ends": np.sort([f.body.vertices[:, 0] for f in fbar], axis=1)}
    return _Boxes(np.array(lo, dtype=float), np.array(hi, dtype=float),
                  np.array([f.shift for f in fbar], dtype=float), **closed)


def _inner_point(K: ConvexBody) -> np.ndarray:
    """An interior point of K: its centre, or its vertex mean."""
    return K.center if K.kind == "ball" else K.vertices.mean(axis=0)


def _feasible_point(fbar, offsets):
    """A point where every factor of an indicator tuple is positive, or
    None, decided exactly.

    Polytope supports go through the Chebyshev LP (`max_slack` on their
    stacked rows); balls of one radius r meet exactly when the miniball of
    their centres has radius at most r, and its centre lies in all of them.
    A degenerate (flat) meeting is still accepted.  Other mixes of supports
    raise NotImplementedError.
    """
    supports = [cc.translate(f.support_body(), t) for f, t in zip(fbar, offsets)]
    kinds = {S.kind for S in supports}
    if kinds == {"polytope"}:
        A = np.vstack([S.normals for S in supports])
        b = np.concatenate([S.offsets for S in supports])
        t, x = max_slack(A, b, np.ones(len(b)), supports[0].vertices.mean(axis=0))
        return x if t >= -1e-9 else None
    radii = {S.radius for S in supports} if kinds == {"ball"} else set()
    if len(radii) != 1:
        raise NotImplementedError("exact meeting tests need polytope supports or "
                                  "ball supports of one radius")
    r = radii.pop()
    centre, R = cc.miniball([S.center for S in supports])
    return centre if R <= r * (1.0 + 1e-12) else None


def _row_cells(boxes: _Boxes, X: np.ndarray):
    """n = 1: the cells between consecutive breakpoints of every row x of X
    inside its joint box.  The breakpoints are each translated factor's
    centre, where its gauge kinks, and its box ends, all clipped to the
    joint box; zero-width cells are dropped, so a row whose supports miss
    has none.  Returns the centres per (row, factor), and per cell its row
    and its ends a < b, in row order."""
    T = np.concatenate([np.zeros((len(X), 1)), X], axis=1)     # the offsets (0, x)
    lo_i, hi_i = boxes.lo[:, 0] + T, boxes.hi[:, 0] + T
    lo, hi = lo_i.max(axis=1, keepdims=True), hi_i.min(axis=1, keepdims=True)
    centres = boxes.shifts[:, 0] + T
    cuts = np.concatenate([lo, hi, centres, lo_i, hi_i], axis=1)
    cuts = np.sort(np.minimum(np.maximum(cuts, lo), hi), axis=1)
    rows, cols = np.nonzero(cuts[:, 1:] > cuts[:, :-1])
    return centres, rows, cuts[rows, cols], cuts[rows, cols + 1]


def _closed_form(fbar) -> bool:
    """True when every log-profile of the tuple is a polynomial of degree
    <= 2 on its support (`Profile.log_quadratic`): the indicator,
    exponential and Gaussian kinds.  `_exponent_pieces` gives their 1-D
    row kernels in closed form."""
    return all(f.profile.log_quadratic is not None for f in fbar)


@dataclass(frozen=True)
class _Pieces:
    """The log of a 1-D product on each cell [a, b] of a row: with the peak
    p in [a, b], it is top - fall_lo (p - z) - q (p - z)^2 on [a, p] and
    top - fall_hi (z - p) - q (z - p)^2 on [p, b], where fall_lo, fall_hi
    and q are >= 0.  top is -inf on a cell where a factor vanishes."""
    rows: np.ndarray
    a: np.ndarray
    b: np.ndarray
    p: np.ndarray
    top: np.ndarray
    fall_lo: np.ndarray
    fall_hi: np.ndarray
    q: np.ndarray


def _exponent_pieces(boxes: _Boxes, X: np.ndarray) -> _Pieces:
    """The log of z -> f_0(z) prod_i f_i(z - x_i) on every cell of
    `_row_cells`, from the rates and body ends stored in the tuple's
    `_Boxes`.

    On a cell, each factor A phi(||z - c||_K) with K = [-w, v] sees one side
    of its centre c, where its gauge is g = s (z - c) with s = 1/v on the
    right and -1/w on the left, and its log is log A + b - c1 g - c2 g^2
    (an indicator adds log A alone: the cell lies in its support).  The sum
    is a concave quadratic, whose peak on the cell is its vertex clipped to
    [a, b], or the higher end when no c2 is positive.  The log and its
    slope at that peak are summed from the factors themselves rather than
    from expanded polynomial coefficients, which cancel when the centres
    are far from the origin.  A cell beyond a one-sided body's centre
    (w or v = 0) gets top = -inf.
    """
    centres, rows, a, b = _row_cells(boxes, X)
    c1, c2, ends = boxes.c1, boxes.c2, boxes.ends     # ends: (-w, v)
    C = centres[rows]
    right = C <= a[:, None]                 # centres are cuts: none lies inside a cell
    reach = np.where(right, ends[:, 1], -ends[:, 0])
    live = reach > 0.0
    S = np.where(right, 1.0, -1.0) / np.where(live, reach, math.inf)
    c1S, c2S2 = c1 * S, c2 * S * S
    q = c2S2.sum(axis=1)
    tilt = c1S.sum(axis=1)
    curved = q > 0.0
    vertex = ((c2S2 * C).sum(axis=1) - 0.5 * tilt) / np.where(curved, q, 1.0)
    p = np.where(curved, np.minimum(np.maximum(vertex, a), b), np.where(tilt < 0.0, b, a))
    d = p[:, None] - C
    g = S * d                               # every factor's gauge at the peak
    top = np.where(np.any(~live & (c1 + c2 > 0.0), axis=1), -math.inf,
                   boxes.log_amp - ((c1 + c2 * g) * g).sum(axis=1))
    slope = -(c1S + 2.0 * c2S2 * d).sum(axis=1)
    return _Pieces(rows, a, b, p, top, np.maximum(slope, 0.0),
                   np.maximum(-slope, 0.0), q)


def _fall_integral(fall, q, L):
    """int_0^L e^(-fall t - q t^2) dt, elementwise, for fall, q, L >= 0.

    With the drop d = fall L + q L^2: q = 0 gives -expm1(-fall L) / fall;
    q > 0 and d >= 1 the scaled erfc difference
    sqrt(pi) / (2 sqrt q) [erfcx(u) - e^-d erfcx(u + sqrt(q) L)] at
    u = fall / (2 sqrt q), which never overflows and whose bracket keeps at
    least 1 - 1/e of its first term; d < 1, where that difference would
    cancel, a 10-point Gauss-Legendre rule, exact to rounding on so flat an
    integrand.
    """
    out = L.copy()
    drop = L * (fall + q * L)
    curved = q > 0.0
    tilted = ~curved & (fall > 0.0)
    if tilted.any():
        out[tilted] = -np.expm1(-fall[tilted] * L[tilted]) / fall[tilted]
    flat = curved & (drop < 1.0)
    if flat.any():
        t = L[flat, None] * _FLAT_NODES
        out[flat] = L[flat] * (np.exp(-t * (fall[flat, None] + q[flat, None] * t))
                               @ _FLAT_WEIGHTS)
    steep = curved & (drop >= 1.0)
    if steep.any():
        root = np.sqrt(q[steep])
        u = fall[steep] / (2.0 * root)
        ends = erfcx(np.concatenate([u, u + root * L[steep]]))
        out[steep] = (0.5 * math.sqrt(math.pi) / root) * (
            ends[:len(u)] - np.exp(-drop[steep]) * ends[len(u):])
    return out


def _closed_int_rows(boxes: _Boxes, X: np.ndarray):
    """n = 1: (value, error, nodes) of the int-convolution at every row x of
    X: each cell of `_exponent_pieces` gives its e^top times the integrals
    falling away from its peak on either side, with error 0 and the cells
    counted as nodes; a row whose supports miss gets 0 for all three."""
    P = _exponent_pieces(boxes, X)
    k = len(P.p)
    halves = _fall_integral(np.concatenate([P.fall_lo, P.fall_hi]),
                            np.concatenate([P.q, P.q]),
                            np.concatenate([P.p - P.a, P.b - P.p]))
    value = np.bincount(P.rows, np.exp(P.top) * (halves[:k] + halves[k:]),
                        minlength=len(X))
    return value, np.zeros(len(X)), np.bincount(P.rows, minlength=len(X))


def _closed_sup_rows(boxes: _Boxes, X: np.ndarray):
    """n = 1: (argmax, sup) of z -> f_0(z) * prod_i f_i(z - x_i) at every
    row x of X: the best peak among the cells of `_exponent_pieces`, the
    leftmost on ties; (0, 0) on a row whose supports miss."""
    P = _exponent_pieces(boxes, X)
    order = np.lexsort((-P.top, P.rows))
    best = order[np.unique(P.rows[order], return_index=True)[1]]
    z, val = np.zeros(len(X)), np.zeros(len(X))
    z[P.rows[best]] = P.p[best]
    val[P.rows[best]] = np.exp(P.top[best])
    return z, val


def _placements(X: np.ndarray, n: int) -> np.ndarray:
    """The (N, m+1, n) translations (o, x_1, ..., x_m) of the rows of X."""
    return np.concatenate([np.zeros((len(X), 1, n)), X.reshape(len(X), -1, n)], axis=1)


def _sup_values(fbar, boxes, X: np.ndarray):
    """The sup-convolution at every row x of X and its kernel's name.

    In one dimension `_closed_sup_rows` (`closed-form`).  Above, the tuple
    must be all indicators, else NotImplementedError: rows whose translated
    boxes miss read 0, and on the rest the sup is the tuple's height where
    `_meets` (`meeting-test`).
    """
    n = fbar[0].dim
    if n == 1:
        return _closed_sup_rows(boxes, X)[1], "closed-form"
    if any(f.profile.kind != "indicator" for f in fbar):
        raise NotImplementedError("above one dimension pointwise sups are exact only "
                                  "for indicator tuples")
    T = _placements(X, n)
    lo = (boxes.lo + T).max(axis=1)
    live = np.all(lo < (boxes.hi + T).min(axis=1), axis=1)
    vals = np.zeros(len(X))
    vals[live] = math.prod(f.sup_norm for f in fbar) * _meets(fbar, T[live])
    return vals, "meeting-test"


def _meets(fbar, T: np.ndarray) -> np.ndarray:
    """Whether an indicator tuple's supports, translated by each row of an
    (N, m+1, n) batch T, meet in positive volume: one `common_volume`
    batch, or `_feasible_point` per row where that has no closed form (3 or
    more balls in R^3) or costs more than the LP (F^n > _LASSERRE_WORK_MAX,
    F distinct normals); they differ only on touching translates, a null set."""
    supports = [f.support_body() for f in fbar]
    normals = [S.normals for S in supports if S.kind == "polytope"]
    if not normals or (len(np.unique(np.round(np.vstack(normals), 12), axis=0)) ** T.shape[2]
                       <= _LASSERRE_WORK_MAX):
        try:
            return cov.common_volume(supports, T) > 0.0
        except NotImplementedError:         # no closed form for the tuple
            pass
    return np.array([_feasible_point(fbar, list(t)) is not None for t in T], dtype=bool)


def int_convolution(fbar, xbar) -> EstimateWithError:
    """int_z f_0(z) * prod_i f_i(z - x_i) dz.

    In one dimension every factor must be an indicator, exponential or
    Gaussian (see `Profile.log_quadratic`), else NotImplementedError.  The
    log of the product is then a concave quadratic on each cell between the
    breakpoints of its translated factors (each centre, where the gauge
    kinks, and each end of a support or truncation box), and the cells are
    integrated in closed form (scaled erfc differences): the error bar is 0
    and `samples_or_nodes` counts the cells.  Above one dimension the tuple
    must be all indicators: the integral is the product of their amplitudes
    times the exact volume of the translated supports' meeting
    (`covariogram.common_volume`), and other tuples raise
    NotImplementedError.
    """
    fbar, _, _ = _validated_tuple(fbar)
    x = np.concatenate(_offsets(fbar, xbar)[1:])[None, :]
    value, error, nodes = _int_rows(fbar, _factor_boxes(fbar), x)
    return EstimateWithError(float(value[0]), float(error[0]), int(nodes[0]))


def _int_rows(fbar, boxes, X: np.ndarray):
    """(value, error, nodes) of the int-convolution at every row x of X:
    `_closed_int_rows` in one dimension; above, for indicator tuples only,
    the amplitudes times one `covariogram.common_volume` batch, error 0."""
    n = fbar[0].dim
    if n == 1:
        return _closed_int_rows(boxes, X)
    if any(f.profile.kind != "indicator" for f in fbar):
        raise NotImplementedError("above one dimension the int-convolution is "
                                  "exact only for indicator tuples")
    height = math.prod(f.sup_norm for f in fbar)
    meeting = cov.common_volume([f.support_body() for f in fbar], _placements(X, n))
    return height * meeting, np.zeros(len(X)), np.zeros(len(X), dtype=int)


# ---------------------------------------------------------------------------
# Rogers-Shephard family


def _indicator(K: ConvexBody) -> LogConcaveFunction:
    """chi_K, with K moved by an interior point (its vertex mean or centre)
    when it does not contain the origin, which a function's body must."""
    flat = profile_from_kind("indicator")
    try:
        return LogConcaveFunction(flat, K, np.zeros(K.dim))
    except cc.OriginNotContainedError:
        return LogConcaveFunction(flat, cc.translate(K, -_inner_point(K)),
                                  np.zeros(K.dim))


def check_rs_body(K: ConvexBody, m: int, seed: int = 0,
                  samples: int | None = None) -> Verdict:
    """vol(D^m K) <= binom(n(m+1), n) * vol(K)^m: Rogers and Shephard at
    m = 1, Schneider above; simplices give equality.

    This is `check_rs_single` on f = chi_K, whose left side
    ||(chi_K, ..., chi_K)_star_m||_1 is vol(D^m K): the same `_star_l1`
    routes, vertex-sum cap and `samples`, so metadata["route"] and
    metadata["samples"] are its.  vol(D^m K) does not change when K is
    translated to contain the origin (`_indicator`); the right side is
    taken on K as given.
    """
    n = K.dim
    if n * m > 6:
        raise NotImplementedError("difference-body check is limited to n*m <= 6")
    t0 = time.perf_counter()
    fbar = [_indicator(K)] * (m + 1)
    lhs, info = _star_l1(fbar, _factor_boxes(fbar), seed, samples)
    const = float(math.comb(n * (m + 1), n))
    rhs = EstimateWithError(const * cc.volume(K).value ** m, 0.0, 0)
    meta = {"n": n, "m": m, "seed": seed,
            "runtime_s": time.perf_counter() - t0, **info}
    return make_verdict("rs-body", lhs, rhs, metadata=meta)


def _star_l1(fbar, boxes, seed: int,
             samples: int | None) -> tuple[EstimateWithError, dict]:
    """L1 norm of the sup-convolution over the m translation blocks, and its
    route: `ball-overlap` for two ball indicators, `mixed-volume` where
    `_mixed_volume_l1` is exact, else the mean of `_sup_values` over
    `samples` seeded translates (`pointwise-sup`, 1,500 by default) with a
    shard sigma; above one dimension only indicator tuples have that."""
    fbar, n, m = _validated_tuple(fbar)
    height = float(np.prod([f.sup_norm for f in fbar]))
    exact, route = _mixed_volume_l1(fbar), "mixed-volume"
    if m == 1 and all(f.profile.kind == "indicator" and f.body.kind == "ball" for f in fbar):
        # the x for which K0 meets x + K1 form a ball of radius r0 + r1
        exact = cc.volume(cc.ball(n, fbar[0].body.radius + fbar[1].body.radius)).value
        route = "ball-overlap"
    if exact is not None:
        return EstimateWithError(height * exact, 0.0, 0), {"route": route, "samples": 0}
    lo = (boxes.lo[0] - boxes.hi[1:]).ravel()
    hi = (boxes.hi[0] - boxes.lo[1:]).ravel()
    box_vol = float(np.prod(hi - lo))
    N = int(samples or 1_500)
    X = lo + (hi - lo) * make_rng(seed, _STREAM_STAR_L1).random((N, n * m))
    vals, kernel = _sup_values(fbar, boxes, X)
    est = EstimateWithError(box_vol * float(vals.mean()),
                            box_vol * _shard_sigma(vals), len(vals))
    return est, {"route": "pointwise-sup", "samples": len(vals),
                 "row_kernel": kernel}


def _mixed_volume_l1(fbar) -> float | None:
    """||S||_1 / prod ||f_j||_inf for the sup-convolution S of exponential
    (`log_quadratic` rate c1 > 0, c2 = 0) and indicator factors on
    polytopes with n*m <= 6 and at most `_MEETING_SUMS_MAX` vertex sums;
    None for other tuples.  -log(S / prod ||f_j||_inf) has the sublevel
    sets tA + B + s of `covariogram.level_set_volumes` at rates c1, so the
    ratio is int_0^inf e^-t vol(tA + B) dt, vol(tA + B) being a polynomial
    of degree nm whose coefficients are mixed volumes (Schneider, Convex
    Bodies, ch. 5): k! vol(A + B) where A or B is {0} (k = nm or 0), else
    exact on ceil((nm + 1) / 2) Gauss-Laguerre nodes.
    """
    n, m = fbar[0].dim, len(fbar) - 1
    coef = [f.profile.log_quadratic for f in fbar]
    if (n * m > 6 or any(c is None or c[2] != 0.0 for c in coef)
            or any(f.body.kind != "polytope" for f in fbar)):
        return None
    rates = [c[1] for c in coef]
    if all(r > 0.0 for r in rates) or all(r == 0.0 for r in rates):
        ts, ws = np.ones(1), np.array([math.factorial(n * m if rates[0] > 0.0 else 0)])
    else:
        from numpy.polynomial.laguerre import laggauss
        ts, ws = laggauss((n * m + 2) // 2)
    vols = cov.level_set_volumes([f.body for f in fbar], rates, ts, _MEETING_SUMS_MAX)
    return None if vols is None else float(vols @ ws)


def check_rs_single(f: LogConcaveFunction, m: int, seed: int = 0,
                    samples: int | None = None) -> Verdict:
    """||(f, f, ..., f)_star_m||_1 <= binom(n(m+1), n) ||f||_inf^m ||f||_{1/m}.

    The tuple repeats f unreflected, as `check_rs_multi` takes its tuples:
    sup_z f(z) prod_i f(z - x_i) is positive exactly where supp f meets
    every supp f + x_i, so on f = chi_K the left side is vol(D^m K) and
    simplices give Schneider's equality; `check_rs_body` is this check on
    chi_K.  The left side takes `_star_l1`'s routes: exact for an
    exponential or indicator on a polytope (`mixed-volume`) and a ball
    indicator at m = 1 (`ball-overlap`), else sampled, with the kernel
    metadata["row_kernel"] named as in `check_rs_multi`.  Other functions
    raise NotImplementedError: in one dimension those whose log-profile is
    not a quadratic (`Profile.log_quadratic`), above it every one.
    """
    n = f.dim
    if n * m > 6:
        raise NotImplementedError("single-function check is limited to n*m <= 6")
    t0 = time.perf_counter()
    fbar = [f] * (m + 1)
    lhs, info = _star_l1(fbar, _factor_boxes(fbar), seed, samples)
    rhs_val = math.comb(n * (m + 1), n) * f.sup_norm ** m * f.lp_norm(1.0 / m)
    meta = {"n": n, "m": m, "seed": seed, "profile": f.profile.kind,
            "runtime_s": time.perf_counter() - t0, **info}
    return make_verdict("rs-single", lhs, EstimateWithError(rhs_val, 0.0, 0),
                        metadata=meta)


def check_rs_multi(fbar, seed: int = 0,
                   outer_samples: int | None = None) -> Verdict:
    """||(fbar)_oplus_m||_inf * ||(fbar)_star_m||_1 <= binom * prod ||f_i||_inf ||f_i||_1.

    The sup norm is a compass search over x of the int-convolution, as
    `int_convolution` computes it: in one dimension exact cell by cell for
    indicator, exponential and Gaussian tuples (route `closed-form`); above
    it the exact volume of the translated supports' meeting for indicator
    tuples (`common-volume`); NotImplementedError for other tuples.
    The search starts from x = 0 and from the shift differences, or, when
    both read 0 (supports that meet only on their boundary there), from
    the x that lays an interior point of every factor's support (its
    shift when not compact) on f_0's.  The sup value is `int_convolution`
    at the search's argmax.  Each sweep of the multi-scale compass stencil
    (every direction at six step sizes) is one objective call: one
    row-batched kernel in one dimension, one batched common volume above
    it.  The budget of 10,000 points lets a search at n*m = 4 (144 points a
    sweep) reach its step floor.  metadata["sup_evals"] counts the points
    evaluated by the starts and the search, not the value at the argmax.
    On the `pointwise-sup` route of `_star_l1`, metadata["row_kernel"]
    names the pointwise sups' kernel: `closed-form` for those same 1-D tuples
    and `meeting-test` for indicator tuples above one dimension (exact,
    `_meets`).
    """
    fbar, n, m = _validated_tuple(fbar)
    if n * m > 4:
        raise NotImplementedError("the inner sup-norm search is limited to n*m <= 4")
    t0 = time.perf_counter()
    boxes = _factor_boxes(fbar)
    evals = 0

    def objective(X):
        nonlocal evals
        evals += len(X)
        return _int_rows(fbar, boxes, X)[0]

    base = np.asarray(fbar[0].shift, dtype=float)
    starts = np.array([np.zeros(n * m),
                       np.concatenate([base - np.asarray(f.shift, dtype=float)
                                       for f in fbar[1:]])])
    values = objective(starts)
    if values.max() <= 0.0:
        supports = [f.support_body() for f in fbar]
        inner = [np.asarray(f.shift, dtype=float) if S is None else _inner_point(S)
                 for f, S in zip(fbar, supports)]
        starts = np.concatenate([inner[0] - c for c in inner[1:]])[None, :]
        values = objective(starts)
    best = starts[int(np.argmax(values))]
    if values.max() > 0.0:
        x_star, _ = maximize_logconcave(objective, best, tol=1e-7,
                                        max_evals=10_000)
    else:
        x_star = best
    sup_est = int_convolution(fbar, x_star)

    l1_est, info = _star_l1(fbar, boxes, seed, outer_samples)
    lhs = EstimateWithError(
        sup_est.value * l1_est.value,
        combine_sigma(sup_est.std_error * l1_est.value,
                      sup_est.value * l1_est.std_error), l1_est.samples_or_nodes)
    rhs_val = math.comb(n * (m + 1), n) * float(
        np.prod([f.sup_norm * f.mass() for f in fbar]))
    meta = {"n": n, "m": m, "seed": seed,
            "sup_norm": sup_est.value, "sup_argmax": [float(v) for v in x_star],
            "sup_route": "closed-form" if n == 1 else "common-volume",
            "sup_evals": evals,
            "l1_norm": l1_est.value, "runtime_s": time.perf_counter() - t0, **info}
    return make_verdict("rs-multi", lhs, EstimateWithError(rhs_val, 0.0, 0),
                        metadata=meta)


# ---------------------------------------------------------------------------
# functional Zhang and the tangent bound


def check_zhang_fn(f: LogConcaveFunction, m: int, seed: int = 0,
                   directions: int | None = None) -> Verdict:
    """(1/(nm)!) int g_{f,m} <= ||f||_1^{nm+1} vol(PPB(<f>, m)).

    The layer cake gives the left side in closed form: for f = A phi(||x - c||_K),
    int g_{f,m} = A M_{n(m+1)} vol(K)^{m+1} with M_k = int (-phi') s^k ds,
    so it carries no error bar.  The right side is ||f||_1^{nm+1} times
    ppb_volume(f, m), exact wherever that is and a seeded sphere average
    over `directions` (ppb_volume's default when None) otherwise.
    """
    n = f.dim
    d = n * m
    if d > 6:
        raise NotImplementedError("functional Zhang check is limited to n*m <= 6")
    t0 = time.perf_counter()
    lhs = (f.amplitude * f.profile.level_moment(n * (m + 1))
           * cc.volume(f.body).value ** (m + 1) / math.factorial(d))
    sphere = {} if directions is None else {"directions": directions}
    rhs = proj.ppb_volume(f, m, seed=seed, **sphere)
    meta = {"n": n, "m": m, "seed": seed, "directions": rhs.samples_or_nodes,
            "profile": f.profile.kind, "runtime_s": time.perf_counter() - t0}
    return make_verdict("zhang-fn", EstimateWithError(lhs, 0.0, 0),
                        rhs.scaled(f.mass() ** (d + 1)), metadata=meta)


def check_tangent_bound(f: LogConcaveFunction, m: int, points) -> Verdict:
    """g_{f,m}(x) <= ||f||_1 exp(-||x||_{PPB<f>} / ||f||_1) at each point.

    The left sides are one `covariogram.covariogram_fn_many` batch: exact on
    indicators and axis boxes, a batched level quadrature with its error bar
    on other bodies.  The verdict reports the most binding point; per-point
    margins live in the metadata.
    """
    proj.require_exact_gauge(f.body, m)
    t0 = time.perf_counter()
    mass = f.mass()
    pts = [cov.as_mvector(x, f.dim) for x in points]
    if not pts:
        raise ValueError("need at least one evaluation point")
    if any(p.m != m for p in pts):
        raise ValueError(f"every point must carry {m} blocks")
    g = cov.covariogram_fn_many(f, np.array([p.blocks for p in pts]))
    margins, entries = [], []
    for i, xb in enumerate(pts):
        bound = mass * math.exp(-proj.ppb_gauge_fn(f, m, xb) / mass)
        margins.append(bound - float(g.value[i]))
        entries.append((g.row(i), EstimateWithError(bound, 0.0, 0)))
    worst = int(np.argmin(margins))
    lhs, rhs = entries[worst]
    meta = {"m": m, "points": [p.flat.tolist() for p in pts],
            "margins": [float(v) for v in margins], "worst_point": worst,
            "runtime_s": time.perf_counter() - t0}
    return make_verdict("tangent-bound", lhs, rhs, metadata=meta)


# ---------------------------------------------------------------------------
# the normalized radial chain


def check_chain(source, m: int, p_grid, directions=None, seed: int = 0,
                nodes: int = sb.RAY_NODES) -> list[Verdict]:
    """Normalized radial mean bodies shrink as p grows: one inclusion verdict
    per adjacent grid pair, plus the p -> -1 endpoint as the outermost body.

    Bodies use the binomial normalizer (concavity index 1/n) and skip p = 0;
    functions use the Gamma normalizer (index 0) and include it.  A function
    reuses the radii of its body K (`starbodies.body_radii`: stacked on an
    axis box, rays elsewhere), each level and the endpoint scaled by
    f.radial_factor(p).
    """
    is_body = isinstance(source, ConvexBody)
    K = source if is_body else source.body
    proj.require_exact_gauge(K, m)
    grid = np.unique(np.asarray(p_grid, dtype=float))
    if grid.size == 0 or np.any(~np.isfinite(grid)) or np.any(grid <= -1.0):
        raise ValueError("p grid must be finite and lie in (-1, inf)")
    skipped = []
    if is_body:
        keep = np.abs(grid) > ZERO_P_WINDOW
        skipped = [float(p) for p in grid[~keep]]
        grid = grid[keep]
    if grid.size == 0:
        raise ValueError("p grid is empty after dropping p = 0")
    t0 = time.perf_counter()
    if is_body:
        s, label, factor = 1.0 / K.dim, "body", lambda p: 1.0
    else:
        s, label, factor = 0.0, source.profile.kind, source.radial_factor
    dirs = sb.direction_set(directions, K.dim * m, seed)
    radii, limits = sb.body_radii(K, m, dirs, grid, nodes=nodes)

    levels = {}
    for p, column in zip(grid.tolist(), radii.T):
        column = column * (ml.binom_root(p, s) * factor(p))
        levels[p] = [EstimateWithError(r, 0.0, 0) for r in column.tolist()]
    reach = ml.c_const(s) * factor(-1.0)
    endpoint = [EstimateWithError(reach * limit, 0.0, 0) for limit in limits.tolist()]
    pairs = [(-1.0, float(grid[0]))]
    pairs += [(float(a), float(b)) for a, b in zip(grid, grid[1:])]
    verdicts = []
    for p_out, p_in in pairs:
        outer = endpoint if p_out == -1.0 else levels[p_out]
        inner = levels[p_in]
        margins = np.array([o.value - i.value for o, i in zip(outer, inner)])
        worst = int(np.argmin(margins))
        meta = {"p_outer": p_out, "p_inner": p_in, "source": label, "m": m,
                "concavity_index": s, "directions": len(dirs), "seed": seed,
                "worst_direction": dirs[worst].tolist(),
                "skipped_p": skipped, "runtime_s": time.perf_counter() - t0}
        verdicts.append(make_verdict(
            f"chain[{p_out:g}->{p_in:g}]", inner[worst], outer[worst],
            sigma=combine_sigma(inner[worst].std_error, outer[worst].std_error),
            metadata=meta))
    return verdicts


# ---------------------------------------------------------------------------
# Zhang / Petty for bodies


def check_zhang_body(K: ConvexBody, m: int, seed: int = 0,
                     directions: int | None = None) -> tuple[Verdict, Verdict]:
    """Both sides of the body inequality for vol(PPB) * vol(K)^{m(n-1)}.

    Left: the simplex constant binom(n(m+1), n) / n^{nm} is a lower bound.
    Right: the same functional of the unit ball is an upper bound (computed
    with the same seed so sphere directions are shared).  Each volume is
    exact where `ppb_volume` is, and a sphere average over `directions`
    (ppb_volume's default when None) otherwise; metadata["directions"]
    lists the directions each side of a verdict drew, 0 where exact.
    """
    n = K.dim
    ball = cc.ball(n, 1.0)
    proj.require_exact_gauge(ball, m)
    t0 = time.perf_counter()
    power = m * (n - 1)
    sphere = {} if directions is None else {"directions": directions}
    functional = []
    for body in (K, ball):
        vol = cc.volume(body).value
        pv = proj.ppb_volume(body, m, seed=seed, **sphere)
        functional.append(pv.scaled(vol ** power))
    x_K, x_ball = functional
    const = math.comb(n * (m + 1), n) / float(n) ** (n * m)
    meta = {"n": n, "m": m, "seed": seed, "runtime_s": time.perf_counter() - t0}

    def verdict(name, lhs, rhs):
        drawn = [lhs.samples_or_nodes, rhs.samples_or_nodes]
        return make_verdict(name, lhs, rhs, metadata={**meta, "directions": drawn})

    return (verdict("zhang-body", EstimateWithError(const, 0.0, 0), x_K),
            verdict("petty-body", x_K, x_ball))
