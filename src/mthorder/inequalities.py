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
sup_z f_0(z) prod_i f_i(z - x_i).  In one dimension, for indicator,
exponential and Gaussian factors, the log of the product is a concave
quadratic on each cell between the factors' breakpoints, so the sup of
every requested translate is the best cell's peak in closed form; for
other profiles it is a single row-batched bracket search over all
translates at once (the product is log-concave, hence unimodal).  Above
one dimension it is a compass search per translate.  The L1 norm over the
translates is exact for indicator tuples of polytopes with n*m <= 6 and at
most `_MEETING_SUMS_MAX` vertex sums (the hull of the sums: `interval` in
one dimension, `meeting-volume` above) and of two balls (`ball-overlap`),
and a uniform Monte Carlo over the translation box of those sups
otherwise (`pointwise-sup`).  The body inequality
vol(D^m K) <= binom(n(m+1), n) vol(K)^m is the single-function one on
chi_K, so `check_rs_body` takes its left side from the same routes.  The
sup norm rests on the int-convolution int_z f_0(z) prod_i f_i(z - x_i) dz:
in one dimension the same cells integrated in closed form, or a fixed
breakpoint-aligned Gauss rule for other profiles; above, for indicator
tuples only, the exact volume of the translated supports' meeting
(`covariogram.common_volume`).

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
                       make_rng, max_slack, maximize_logconcave,
                       minimize_convex)

HOLDS = "holds"
EQUALITY = "holds_with_equality"
VIOLATED = "violated_beyond_3sigma"

_EQUALITY_TOL = 1e-6

_STREAM_STAR_L1 = 503

_SHARDS = 8

_TRUNCATION_TOL = 1e-13   # tail mass a factor's truncation box may drop
# Most vertex sums for which an all-indicator tuple takes the exact meeting
# volume rather than sampled translates.  In R^6 the hull of 2,197 sums (a
# 13-vertex 3-polytope at m = 2) took 2.7 s and 194 MB, 10,000 sums (a 10-gon
# at m = 3) 14 s and 464 MB; R^4 and below stay under 0.05 s at this bound.
_MEETING_SUMS_MAX = 2_500
_GRID_NODES = 65          # nodes per row and round of the 1-D bracket search
_GRID_ROUNDS = 11         # rounds; each keeps 2 of 64 cells
_GAUSS_ORDER = 16         # Gauss-Legendre points per panel of the 1-D int rule
# Geometric panels from a breakpoint to mid-interval.  The innermost panel
# carries the error at a power profile's support end, (1 - t)^(1/s): at s = 10
# 16 levels left 1.3e-9 relative against scipy quad, 20 leave 6e-11.
_GRADING_LEVELS = 20
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
    """Standard error of the mean from _SHARDS interleaved shard means."""
    if len(values) < 2 * _SHARDS:
        if len(values) < 2:
            return 0.0
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


def _product_many(fbar, offsets, Z: np.ndarray) -> np.ndarray:
    """f_0(z - t_0) * prod_i f_i(z - t_i) at every point z (last axis) of Z;
    each translation t_i broadcasts against Z."""
    out = np.ones(Z.shape[:-1])
    for f, t in zip(fbar, offsets):
        out *= f.eval_many((Z - t).reshape(-1, Z.shape[-1])).reshape(out.shape)
    return out


def _factor_boxes(fbar) -> list[tuple[np.ndarray, np.ndarray]]:
    """Axis box of each untranslated factor outside which it is negligible
    (or zero); translating a factor by t moves its box by t."""
    boxes = []
    for f in fbar:
        supp = f.support_body()
        if supp is not None:
            boxes.append(cc.bounding_box(supp))
        else:
            R = cov.coercive_box_radius(f, _TRUNCATION_TOL)
            boxes.append((np.full(f.dim, -R), np.full(f.dim, R)))
    return boxes


def _conv_box(boxes, offsets):
    """Joint box of the translated factors; None when it is empty."""
    lo = np.max([b[0] + t for b, t in zip(boxes, offsets)], axis=0)
    hi = np.min([b[1] + t for b, t in zip(boxes, offsets)], axis=0)
    if np.any(lo >= hi):
        return None
    return lo, hi


def _inner_point(K: ConvexBody) -> np.ndarray:
    """An interior point of K: its centre, or its vertex mean."""
    return K.center if K.kind == "ball" else K.vertices.mean(axis=0)


def _feasible_point(fbar, offsets):
    """A point where every compactly supported factor is positive, or None.

    Polytope supports go through the Chebyshev LP (`max_slack` on their
    stacked rows); a degenerate (flat) intersection is still accepted.
    Mixed supports fall back to minimizing the convex sum of gauge excesses
    from the mean of the supports' interior points.
    """
    polys, balls = [], []
    for f, t in zip(fbar, offsets):
        supp = f.support_body()
        if supp is None:
            continue
        supp = cc.translate(supp, t)
        (balls if supp.kind == "ball" else polys).append(supp)
    if not polys and not balls:
        return np.zeros(fbar[0].dim)
    if not balls:
        A = np.vstack([S.normals for S in polys])
        b = np.concatenate([S.offsets for S in polys])
        t, x = max_slack(A, b, np.ones(len(b)), polys[0].vertices.mean(axis=0))
        return x if t >= -1e-9 else None
    if not polys and len(balls) == 2:
        # on the segment from c0 to c1, the points at distance t from c0
        # with t in [gap - r1, r0] lie in both balls; take the middle of
        # that piece of [0, gap]
        (c0, r0), (c1, r1) = [(B.center, B.radius) for B in balls]
        gap = float(np.linalg.norm(c1 - c0))
        if gap > r0 + r1 + 1e-12:
            return None
        if gap == 0.0:
            return c0.copy()
        t = 0.5 * (max(0.0, gap - r1) + min(r0, gap))
        return c0 + (t / gap) * (c1 - c0)

    def excess(Z):
        total = np.zeros(len(Z))
        for S in polys + balls:
            if S.kind == "ball":
                total += np.maximum(0.0, np.linalg.norm(Z - S.center, axis=1) - S.radius)
            else:
                total += np.maximum(0.0, np.max(Z @ S.normals.T - S.offsets, axis=1))
        return total

    start = np.mean([_inner_point(S) for S in polys + balls], axis=0)
    z, val = minimize_convex(excess, start)
    return z if val <= 1e-9 else None


def _bracket_max_many(F, lo: np.ndarray, hi: np.ndarray):
    """Row-wise max of a unimodal F on [lo, hi]; returns (argmax, max).

    Each round evaluates F on _GRID_NODES equispaced nodes per row and keeps
    the two cells around the row's best node, so _GRID_ROUNDS rounds shrink
    the bracket to 32^-11 ~ 3e-17 of its width.  The best node seen wins.
    """
    rows = np.arange(len(lo))
    nodes = np.linspace(0.0, 1.0, _GRID_NODES)
    a, b = lo, hi
    best_x = lo.copy()
    best_v = np.full(len(lo), -math.inf)
    for _ in range(_GRID_ROUNDS):
        Z = a[:, None] + (b - a)[:, None] * nodes
        V = F(Z)
        k = np.argmax(V, axis=1)
        gain = V[rows, k] > best_v
        best_x[gain] = Z[rows, k][gain]
        best_v[gain] = V[rows, k][gain]
        a = Z[rows, np.maximum(k - 1, 0)]
        b = Z[rows, np.minimum(k + 1, _GRID_NODES - 1)]
    return best_x, best_v


def _row_boxes(boxes, X: np.ndarray):
    """n = 1: the offsets T = (0, x) of every row x of X, and the lower and
    upper ends of each factor's box translated by them; all (rows, factors)."""
    T = np.concatenate([np.zeros((len(X), 1)), X], axis=1)
    return (T, np.array([b[0][0] for b in boxes]) + T,
            np.array([b[1][0] for b in boxes]) + T)


def _row_cells(fbar, boxes, X: np.ndarray):
    """n = 1: the cells between consecutive breakpoints of every row x of X
    inside its joint box.  The breakpoints are each translated factor's
    centre, where its gauge kinks, and its box ends, all clipped to the
    joint box; zero-width cells are dropped, so a row whose supports miss
    has none.  Returns the offsets T and centres per (row, factor), and per
    cell its row and its ends a < b, in row order."""
    T, lo_i, hi_i = _row_boxes(boxes, X)
    lo, hi = lo_i.max(axis=1, keepdims=True), hi_i.min(axis=1, keepdims=True)
    centres = np.array([f.shift[0] for f in fbar]) + T
    cuts = np.concatenate([lo, hi, centres, lo_i, hi_i], axis=1)
    cuts = np.sort(np.minimum(np.maximum(cuts, lo), hi), axis=1)
    rows, cols = np.nonzero(cuts[:, 1:] > cuts[:, :-1])
    return T, centres, rows, cuts[rows, cols], cuts[rows, cols + 1]


def _closed_form(fbar) -> bool:
    """True for one-dimensional tuples whose log-profiles are polynomials of
    degree <= 2 on their supports (`Profile.log_quadratic`): the indicator,
    exponential and Gaussian kinds.  `_exponent_pieces` gives their row
    kernels in closed form."""
    return fbar[0].dim == 1 and all(f.profile.log_quadratic is not None
                                   for f in fbar)


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


def _exponent_pieces(fbar, boxes, X: np.ndarray) -> _Pieces:
    """The log of z -> f_0(z) prod_i f_i(z - x_i) on every cell of
    `_row_cells`, for a tuple that `_closed_form` admits.

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
    _, centres, rows, a, b = _row_cells(fbar, boxes, X)
    coef = np.array([f.profile.log_quadratic for f in fbar])
    log_amp = math.fsum(math.log(f.amplitude) for f in fbar) + math.fsum(coef[:, 0])
    c1, c2 = coef[:, 1], coef[:, 2]
    ends = np.sort([f.body.vertices[:, 0] for f in fbar], axis=1)    # (-w, v)
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
                   log_amp - ((c1 + c2 * g) * g).sum(axis=1))
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


def _closed_int_rows(pieces: _Pieces, count: int) -> np.ndarray:
    """The integral of the product over every row: each cell's e^top times
    the integrals falling away from its peak on either side."""
    P = pieces
    k = len(P.p)
    halves = _fall_integral(np.concatenate([P.fall_lo, P.fall_hi]),
                            np.concatenate([P.q, P.q]),
                            np.concatenate([P.p - P.a, P.b - P.p]))
    return np.bincount(P.rows, np.exp(P.top) * (halves[:k] + halves[k:]),
                       minlength=count)


def _closed_sup_rows(pieces: _Pieces, count: int):
    """(argmax, sup) over every row: the best cell's peak, the leftmost on
    ties; (0, 0) on a row without cells."""
    P = pieces
    order = np.lexsort((-P.top, P.rows))
    best = order[np.unique(P.rows[order], return_index=True)[1]]
    z, val = np.zeros(count), np.zeros(count)
    z[P.rows[best]] = P.p[best]
    val[P.rows[best]] = np.exp(P.top[best])
    return z, val


def _sup_rows(fbar, boxes, X: np.ndarray):
    """(argmax, sup) of z -> f_0(z) * prod_i f_i(z - x_i) for every row x of
    X (n = 1); sup 0 where supports miss.

    Tuples that `_closed_form` admits (indicator, exponential and Gaussian
    factors) take the exact peak of `_exponent_pieces`.  Power and other
    p-family factors take one bracket search over all rows at once (the
    product is log-concave, hence unimodal); a row then keeps its feasible
    start (the centre of the compact supports' overlap, else 0) when the
    search finds no larger value there, as on a zero-valued grid around a
    sliver of positive product.
    """
    if _closed_form(fbar):
        return _closed_sup_rows(_exponent_pieces(fbar, boxes, X), len(X))
    T, lo_i, hi_i = _row_boxes(boxes, X)

    def product(rows):          # the product on a grid (rows, G) of those rows
        offsets = [T[rows, i, None, None] for i in range(len(fbar))]
        return lambda Z: _product_many(fbar, offsets, Z[..., None])

    lo, hi = lo_i.max(axis=1), hi_i.min(axis=1)
    compact = [i for i, f in enumerate(fbar) if f.profile.support_radius < math.inf]
    z = np.zeros(len(X))
    if compact:
        z = 0.5 * (lo_i[:, compact].max(axis=1) + hi_i[:, compact].min(axis=1))
    live = lo < hi
    val = np.where(live, product(slice(None))(z[:, None])[:, 0], 0.0)
    search = live & (hi - lo > 1e-14)
    if np.any(search):
        x, v = _bracket_max_many(product(search), lo[search], hi[search])
        keep = val[search] > v
        z[search] = np.where(keep, z[search], x)
        val[search] = np.where(keep, val[search], v)
    return z, val


def _sup_point(fbar, boxes, offsets):
    """(argmax, sup) of the translated product for n >= 2; sup 0.0 when
    supports miss.  One-dimensional tuples take `_sup_rows`."""
    if _conv_box(boxes, offsets) is None:
        return None, 0.0
    start = _feasible_point(fbar, offsets)
    if start is None:
        return None, 0.0

    def F(Z):
        return _product_many(fbar, offsets, Z)

    if all(f.profile.kind == "indicator" for f in fbar):
        return start, float(F(start[None, :])[0])
    candidates = np.array([start] + [t + np.asarray(f.shift, dtype=float)
                                     for f, t in zip(fbar, offsets)])
    values = F(candidates)
    best = int(np.argmax(values))
    if values[best] <= 0.0:
        return start, 0.0
    return maximize_logconcave(F, candidates[best])


def int_convolution(fbar, xbar) -> EstimateWithError:
    """int_z f_0(z) * prod_i f_i(z - x_i) dz.

    In one dimension the product is smooth between the breakpoints of its
    translated factors (each centre, where the gauge kinks, and each end of
    a support or truncation box).  When every factor is an indicator,
    exponential or Gaussian (see `Profile.log_quadratic`), its log is a
    concave quadratic on each cell between breakpoints, and the cells are
    integrated in closed form (scaled erfc differences): the error bar is
    0 and `samples_or_nodes` counts the cells.  Other profiles take a
    composite Gauss-Legendre rule graded geometrically toward every
    breakpoint; the error bar is the difference from the same rule at half
    the grading levels.  Above one dimension the tuple must be all
    indicators: the integral is the product of their amplitudes times the
    exact volume of the translated supports' meeting
    (`covariogram.common_volume`), and other tuples raise
    NotImplementedError.
    """
    fbar, _, _ = _validated_tuple(fbar)
    return _int_convolution(fbar, _factor_boxes(fbar), _offsets(fbar, xbar))


def _int_convolution(fbar, boxes, offsets) -> EstimateWithError:
    if fbar[0].dim == 1:
        value, error, nodes = _breakpoint_rows(
            fbar, boxes, np.concatenate(offsets[1:])[None, :])
        return EstimateWithError(float(value[0]), float(error[0]), int(nodes[0]))
    if any(f.profile.kind != "indicator" for f in fbar):
        raise NotImplementedError("above one dimension the int-convolution is "
                                  "exact only for indicator tuples")
    height = math.prod(f.sup_norm for f in fbar)
    meeting = cov.common_volume([cc.translate(f.support_body(), t)
                                 for f, t in zip(fbar, offsets)])
    return EstimateWithError(height * meeting, 0.0, 0)


def _graded_edges(levels: int) -> np.ndarray:
    """[0, 2^-(L-1), ..., 1/2, 1]: L panels on [0, 1] graded toward 0."""
    return np.append(0.0, 0.5 ** np.arange(levels)[::-1])


def _graded_half_rule():
    """Nodes u in (0, 1) with the weights of the composite Gauss-Legendre
    rules on `_graded_edges` at L = _GRADING_LEVELS (fine) and at half that
    (coarse).  The coarse rule shares every panel but its innermost, whose
    nodes are appended."""
    nodes, fine = gauss_panels(_graded_edges(_GRADING_LEVELS), _GAUSS_ORDER)
    c_nodes, c_weights = gauss_panels(_graded_edges(_GRADING_LEVELS // 2),
                                      _GAUSS_ORDER)
    cut = 0.5 ** (_GRADING_LEVELS // 2 - 1)
    inner = c_nodes < cut
    return (np.concatenate([nodes, c_nodes[inner]]),
            np.concatenate([fine, np.zeros(inner.sum())]),
            np.concatenate([np.where(nodes > cut, fine, 0.0), c_weights[inner]]))


_HALF_NODES, _HALF_FINE, _HALF_COARSE = _graded_half_rule()


def _breakpoint_rows(fbar, boxes, X: np.ndarray):
    """n = 1: (value, error, nodes) of the int-convolution at every row x of
    X, all rows at once, over the cells of `_row_cells`; a row whose
    supports miss gets value, error and nodes 0.  Tuples that `_closed_form`
    admits integrate each cell of `_exponent_pieces` in closed form, with
    error 0 and the cells counted as nodes.  Others take the graded rule on
    both halves of every cell, in one product call, with the error from the
    coarse rule."""
    if _closed_form(fbar):
        pieces = _exponent_pieces(fbar, boxes, X)
        return (_closed_int_rows(pieces, len(X)), np.zeros(len(X)),
                np.bincount(pieces.rows, minlength=len(X)))
    T, _, rows, a, b = _row_cells(fbar, boxes, X)
    a, b = a[:, None], b[:, None]
    h = 0.5 * (b - a)
    Z = np.concatenate([a + h * _HALF_NODES, b - h * _HALF_NODES], axis=1)
    offsets = [T[rows, i, None, None] for i in range(len(fbar))]
    vals = h * _product_many(fbar, offsets, Z[..., None])
    fine = np.bincount(rows, (vals * np.tile(_HALF_FINE, 2)).sum(axis=1), len(X))
    coarse = np.bincount(rows, (vals * np.tile(_HALF_COARSE, 2)).sum(axis=1), len(X))
    return fine, np.abs(fine - coarse), np.bincount(rows, minlength=len(X)) * Z.shape[1]


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
    routes, meeting-volume cap and `samples`, so metadata["route"] and
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
    """L1 norm of the sup-convolution over the m translation blocks."""
    fbar, n, m = _validated_tuple(fbar)
    all_indicator = all(f.profile.kind == "indicator" for f in fbar)
    height = float(np.prod([f.sup_norm for f in fbar]))
    supports = [f.support_body() for f in fbar]
    S0, S1 = supports[0], supports[1]
    if all_indicator and m == 1 and S0.kind == S1.kind == "ball":
        # the x for which S0 meets x + S1 form a ball of radius r0 + r1
        overlap = cc.volume(cc.ball(n, S0.radius + S1.radius)).value
        return (EstimateWithError(height * overlap, 0.0, 0),
                {"route": "ball-overlap", "samples": 0})
    sums = cov.meeting_sums(supports) if all_indicator else None
    if sums is not None and sums <= _MEETING_SUMS_MAX:
        overlap = cov.meeting_volume(supports)
        return (EstimateWithError(height * overlap, 0.0, 0),
                {"route": "interval" if n == 1 else "meeting-volume",
                 "samples": 0})
    lo0, hi0 = boxes[0]
    lo = np.concatenate([lo0 - fhi for _, fhi in boxes[1:]])
    hi = np.concatenate([hi0 - flo for flo, _ in boxes[1:]])
    box_vol = float(np.prod(hi - lo))
    N = int(samples or 1_500)
    X = lo + (hi - lo) * make_rng(seed, _STREAM_STAR_L1).random((N, n * m))
    if n == 1:
        vals = _sup_rows(fbar, boxes, X)[1]
        kernel = "closed-form" if _closed_form(fbar) else "bracket-search"
    else:
        vals = np.array([_sup_point(fbar, boxes, _offsets(fbar, x))[1] for x in X])
        kernel = "compass-search"
    est = EstimateWithError(box_vol * float(vals.mean()),
                            box_vol * _shard_sigma(vals), len(vals))
    return est, {"route": "pointwise-sup", "samples": len(vals),
                 "row_kernel": kernel}


def check_rs_single(f: LogConcaveFunction, m: int, seed: int = 0,
                    samples: int | None = None) -> Verdict:
    """||(f, f, ..., f)_star_m||_1 <= binom(n(m+1), n) ||f||_inf^m ||f||_{1/m}.

    The tuple repeats f unreflected, as `check_rs_multi` takes its tuples:
    sup_z f(z) prod_i f(z - x_i) is positive exactly where supp f meets
    every supp f + x_i, so on f = chi_K the left side is vol(D^m K) and
    simplices give Schneider's equality; `check_rs_body` is this check on
    chi_K.  The left side is `_star_l1`'s: exact for the indicator of a
    polytope with at most `_MEETING_SUMS_MAX` vertex sums (`interval`,
    `meeting-volume`) and of a ball at m = 1 (`ball-overlap`); otherwise
    the mean sup over `samples` seeded translates (`pointwise-sup`, 1,500
    by default) with a shard sigma.
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
    indicator, exponential and Gaussian tuples (route `closed-form`) and
    the deterministic breakpoint rule otherwise (`breakpoint-gauss`); above
    it the exact volume of the translated supports' meeting for indicator
    tuples (`common-volume`), and NotImplementedError for other tuples.
    The search starts from x = 0 and from the shift differences, or, when
    both read 0 (supports that meet only on their boundary there), from
    the x that lays an interior point of every factor's support (its
    shift when not compact) on f_0's.  The sup value is `int_convolution`
    at the search's argmax.  Each compass stencil is one objective call:
    one row-batched kernel in one dimension, one common volume per row
    above it.  metadata["sup_evals"] counts the points evaluated.  On the
    `pointwise-sup` route of the L1 norm, metadata["row_kernel"] names the
    pointwise sups' kernel: `closed-form` for those same 1-D tuples,
    `bracket-search` for other 1-D tuples, `compass-search` above.
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
        if n == 1:
            return _breakpoint_rows(fbar, boxes, X)[0]
        return np.array([_int_convolution(fbar, boxes, _offsets(fbar, x)).value
                         for x in X])

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
                                        max_evals=2_000)
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
            "sup_route": ("closed-form" if _closed_form(fbar) else
                          "breakpoint-gauss" if n == 1 else "common-volume"),
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

    The verdict reports the most binding point; per-point margins live in
    the metadata.
    """
    proj.require_exact_gauge(f.body, m)
    t0 = time.perf_counter()
    mass = f.mass()
    pts = [cov.as_mvector(x, f.dim) for x in points]
    if not pts:
        raise ValueError("need at least one evaluation point")
    if any(p.m != m for p in pts):
        raise ValueError(f"every point must carry {m} blocks")
    margins, entries = [], []
    for xb in pts:
        g = cov.covariogram_fn(f, xb)
        bound = mass * math.exp(-proj.ppb_gauge_fn(f, m, xb) / mass)
        margins.append(bound - g.value)
        entries.append((g, EstimateWithError(bound, 0.0, 0)))
    worst = int(np.argmin(margins))
    lhs, rhs = entries[worst]
    meta = {"m": m, "points": [p.flat.tolist() for p in pts],
            "margins": [float(v) for v in margins], "worst_point": worst,
            "runtime_s": time.perf_counter() - t0}
    return make_verdict("tangent-bound", lhs, rhs, metadata=meta)


# ---------------------------------------------------------------------------
# the normalized radial chain


def check_chain(source, m: int, p_grid, directions=None, seed: int = 0,
                nodes: int = 256) -> list[Verdict]:
    """Normalized radial mean bodies shrink as p grows: one inclusion verdict
    per adjacent grid pair, plus the p -> -1 endpoint as the outermost body.

    Bodies use the binomial normalizer (concavity index 1/n) and skip p = 0;
    functions use the Gamma normalizer (index 0) and include it.  A function
    reuses the rays of its body K, each level and the endpoint scaled by
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
    rays = sb.rays_for(dirs, m, lambda th: sb.body_ray(K, m, th, nodes=nodes))

    levels = {}
    for p in grid.tolist():
        radii = sb.radii_at(rays, p) * (ml.binom_root(p, s) * factor(p))
        levels[p] = [EstimateWithError(r, 0.0, 0) for r in radii.tolist()]
    reach = ml.c_const(s) * factor(-1.0)
    endpoint = [EstimateWithError(reach * sb.limit_body_minus1(rays[k]), 0.0, 0)
                for k in range(len(dirs))]
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
