"""Convex bodies in R^n (n <= 3): gauges, supports, facets, volumes, intersections.

Bodies are canonically halfspace-represented (<a_i, x> <= b_i); the vertex list
is derived at construction for polytopes.  Euclidean balls are carried as a
separate kind with closed-form gauge/support/volume; a 1-D "ball" is just an
interval and is stored as a polytope.

Planar hulls and polygons are the package's own (`planar_hull`, Andrew's
monotone chain).  qhull (`scipy.spatial`) serves only 3-D bodies here and
hulls in R^{nm}, nm >= 3, in `covariogram` and `projection`; each function
that needs it imports it on its first call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import EstimateWithError, max_slack, sphere_surface

_GEOM_TOL = 1e-9
_INTERIOR_MARGIN = 1e-10   # Chebyshev radius below which a body counts as flat
_TURN_TOL = 1e-12          # planar turn below which three points count as collinear


class DegenerateBodyError(ValueError):
    pass


class UnboundedBodyError(ValueError):
    pass


class OriginNotContainedError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class ConvexBody:
    dim: int
    kind: str                        # "polytope" | "ball"
    normals: np.ndarray | None       # (F, n) unit rows, polytopes only
    offsets: np.ndarray | None       # (F,)
    vertices: np.ndarray | None      # (V, n), polytopes only
    center: np.ndarray | None = None  # balls only
    radius: float | None = None

    def __repr__(self):
        if self.kind == "ball":
            return f"ConvexBody(ball, dim={self.dim}, r={self.radius}, c={self.center})"
        return (f"ConvexBody(polytope, dim={self.dim}, "
                f"facets={len(self.offsets)}, vertices={len(self.vertices)})")


@dataclass(frozen=True)
class FacetData:
    normals: np.ndarray   # (F, n) unit outer normals
    areas: np.ndarray     # (F,) (n-1)-measures

    def __len__(self):
        return len(self.areas)


# ---------------------------------------------------------------------------
# construction


def _canonical_order(normals, offsets):
    key = np.round(np.column_stack([normals, offsets]), 9)
    order = np.lexsort(key.T[::-1])
    return normals[order], offsets[order]


def _interval(normals, offsets) -> ConvexBody:
    a = normals[:, 0]                      # +-1 after normalization
    if not (np.any(a > 0) and np.any(a < 0)):
        raise UnboundedBodyError("halfspace intersection is unbounded")
    lo, hi = float(np.max(-offsets[a < 0])), float(np.min(offsets[a > 0]))
    if hi - lo < 2.0 * _INTERIOR_MARGIN:
        raise DegenerateBodyError("halfspace intersection has empty interior")
    return ConvexBody(1, "polytope", np.array([[-1.0], [1.0]]), np.array([-lo, hi]),
                      np.array([[lo], [hi]]))


def from_halfspaces(normals, offsets) -> ConvexBody:
    """Body from <a_i, x> <= b_i (canonicalized, vertices derived).

    The halfspaces are read about the Chebyshev centre c, the x of max t
    with <a_i, x> + t <= b_i (`max_slack` from the origin); a radius below
    _INTERIOR_MARGIN means an empty interior, an unbounded one an unbounded
    body.  A vertex where exactly n irredundant halfspaces meet is solved
    from those n, so exact inputs give exact vertices.
    """
    normals = np.atleast_2d(np.asarray(normals, dtype=float))
    offsets = np.asarray(offsets, dtype=float)
    n = normals.shape[1]
    if n not in (1, 2, 3):
        raise DegenerateBodyError("supported dimensions are 1, 2, 3")
    lens = np.linalg.norm(normals, axis=1)
    if np.any(lens < 1e-14):
        raise DegenerateBodyError("zero normal in halfspace list")
    normals = normals / lens[:, None]
    offsets = offsets / lens
    if n == 1:
        return _interval(normals, offsets)
    radius, center = max_slack(normals, offsets, np.ones(len(offsets)), np.zeros(n))
    if center is None:
        raise UnboundedBodyError("halfspace intersection is unbounded")
    if radius < _INTERIOR_MARGIN:
        raise DegenerateBodyError("halfspace intersection has empty interior")
    make = _polygon if n == 2 else _polyhedron
    keep, verts = make(normals, offsets, center)
    normals, offsets = _canonical_order(normals[keep], offsets[keep])
    return ConvexBody(n, "polytope", normals, offsets, verts)


def _polygon(normals, offsets, center):
    """Irredundant rows and counterclockwise vertices of a polygon with
    interior point `center`.  Its polar about the centre is the hull of the
    dual points a_i / (b_i - <a_i, c>): the irredundant rows are the hull's
    vertices, the polygon is bounded exactly when that hull holds the origin
    strictly inside, and each polygon vertex is solved from the two rows of
    one hull edge."""
    dual = normals / (offsets - normals @ center)[:, None]
    keep = planar_hull(dual)
    D = dual[keep]
    nxt = np.roll(np.arange(len(keep)), -1)
    edge = np.linalg.norm(D[nxt] - D, axis=1)
    inside = D[:, 0] * D[nxt, 1] - D[:, 1] * D[nxt, 0]
    scale = float(np.max(np.abs(dual)))
    if len(keep) < 3 or np.any(inside <= _TURN_TOL * scale * edge):
        raise UnboundedBodyError("halfspace intersection is unbounded")
    pairs = np.column_stack([keep, keep[nxt]])
    verts = np.linalg.solve(normals[pairs], offsets[pairs][..., None])[..., 0] + 0.0
    return keep, verts


def _polyhedron(normals, offsets, center):
    """Irredundant rows and vertices of a 3-D polytope by qhull's halfspace
    intersection about the interior point `center`; its dual facets name the
    irredundant rows and the rows that meet at each vertex."""
    from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError
    try:
        with np.errstate(divide="ignore", invalid="ignore"):   # points at infinity
            hs = HalfspaceIntersection(np.column_stack([normals, -offsets]), center)
        if not np.all(np.isfinite(hs.intersections)):
            raise UnboundedBodyError("halfspace intersection is unbounded")
        corners = ConvexHull(hs.intersections).vertices
    except QhullError as e:
        raise DegenerateBodyError("halfspace intersection has empty interior") from e
    verts = hs.intersections[corners]
    simple = [k for k, i in enumerate(corners) if len(hs.dual_facets[i]) == 3]
    if simple:
        active = np.array([hs.dual_facets[corners[k]] for k in simple])
        verts[simple] = np.linalg.solve(normals[active],
                                        offsets[active][..., None])[..., 0] + 0.0
    return np.unique(np.concatenate(hs.dual_facets)), verts


def planar_hull(points) -> np.ndarray:
    """Indices of the vertices of conv(points) for (k, 2) points, in
    counterclockwise order, by Andrew's monotone chain: O(k log k).  Repeated
    points and points on an edge, within _TURN_TOL of the points' extent,
    are not vertices; collinear points give the two ends."""
    P = np.asarray(points, dtype=float)
    _, order = np.unique(P, axis=0, return_index=True)     # sorted by x, then y
    tol = _TURN_TOL * float(np.max(np.ptp(P, axis=0))) ** 2
    xs, ys = P[:, 0].tolist(), P[:, 1].tolist()

    def chain(idx):
        out = []
        for i in idx:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                if (xs[a] - xs[o]) * (ys[i] - ys[o]) - (ys[a] - ys[o]) * (xs[i] - xs[o]) > tol:
                    break
                out.pop()
            out.append(i)
        return out

    lower, upper = chain(order.tolist()), chain(order[::-1].tolist())
    return np.array(lower[:-1] + upper[:-1] if len(lower) > 1 else lower)


def from_vertices(points) -> ConvexBody:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[1]
    if n == 1:
        lo, hi = float(points.min()), float(points.max())
        if hi - lo < 1e-12:
            raise DegenerateBodyError("interval has zero length")
        return from_halfspaces(np.array([[1.0], [-1.0]]), np.array([hi, -lo]))
    if n == 2:
        P = points[planar_hull(points)]
        if len(P) < 3:
            raise DegenerateBodyError("vertices do not affinely span the space")
        edge = np.roll(P, -1, axis=0) - P
        normals = np.column_stack([edge[:, 1], -edge[:, 0]])   # outward for ccw
        return from_halfspaces(normals, np.einsum("ij,ij->i", normals, P))
    from scipy.spatial import ConvexHull, QhullError
    try:
        hull = ConvexHull(points)
    except QhullError as e:
        raise DegenerateBodyError("vertices do not affinely span the space") from e
    # qhull equations: a.x + b <= 0; coplanar simplices share one plane each
    return from_halfspaces(hull.equations[:, :-1], -hull.equations[:, -1])


def simplex(n: int, variant: str = "corner") -> ConvexBody:
    """conv{o, e_1, ..., e_n}, optionally translated to put the centroid at o."""
    normals = np.vstack([-np.eye(n), np.ones((1, n))])
    offsets = np.concatenate([np.zeros(n), [1.0]])
    body = from_halfspaces(normals, offsets)
    if variant == "corner":
        return body
    if variant == "centered":
        centroid = np.full(n, 1.0 / (n + 1))
        return translate(body, -centroid)
    raise ValueError(f"unknown simplex variant {variant!r}")


def cube(n: int, halfwidth: float = 1.0) -> ConvexBody:
    if halfwidth <= 0:
        raise DegenerateBodyError("halfwidth must be positive")
    normals = np.vstack([np.eye(n), -np.eye(n)])
    offsets = np.full(2 * n, float(halfwidth))
    return from_halfspaces(normals, offsets)


def ball(n: int, r: float, center=None) -> ConvexBody:
    if r <= 0:
        raise DegenerateBodyError("radius must be positive")
    c = np.zeros(n) if center is None else np.asarray(center, dtype=float)
    if c.shape != (n,):
        raise ValueError(f"center must have shape ({n},), got {c.shape}")
    if n == 1:
        return from_halfspaces(np.array([[1.0], [-1.0]]),
                               np.array([c[0] + r, -(c[0] - r)]))
    return ConvexBody(n, "ball", None, None, None, center=c, radius=float(r))


def translate(K: ConvexBody, v) -> ConvexBody:
    v = np.asarray(v, dtype=float)
    if v.shape != (K.dim,):
        raise ValueError(f"translation must have shape ({K.dim},), got {v.shape}")
    if K.kind == "ball":
        return ConvexBody(K.dim, "ball", None, None, None, K.center + v, K.radius)
    return ConvexBody(K.dim, "polytope", K.normals, K.offsets + K.normals @ v,
                      K.vertices + v)


def scale(K: ConvexBody, t: float) -> ConvexBody:
    """Dilation about the origin; negative t reflects then dilates by |t|."""
    if t == 0:
        raise DegenerateBodyError("scale factor must be nonzero")
    if t < 0:
        return scale(reflect(K), -t)
    if K.kind == "ball":
        return ConvexBody(K.dim, "ball", None, None, None, K.center * t, K.radius * t)
    return ConvexBody(K.dim, "polytope", K.normals, K.offsets * t, K.vertices * t)


def reflect(K: ConvexBody) -> ConvexBody:
    if K.kind == "ball":
        return ConvexBody(K.dim, "ball", None, None, None, -K.center, K.radius)
    normals, offsets = _canonical_order(-K.normals, K.offsets.copy())
    return ConvexBody(K.dim, "polytope", normals, offsets, -K.vertices)


def make_body(spec: dict) -> ConvexBody:
    """Body from its JSON description (see the schema in the README)."""
    kind = spec.get("kind")
    n = int(spec.get("dim", 0))
    if kind == "simplex":
        return simplex(n, spec.get("variant", "corner"))
    if kind == "cube":
        return cube(n, float(spec.get("halfwidth", 1.0)))
    if kind == "ball":
        b = ball(n, float(spec.get("radius", 1.0)))
        if "center" in spec:
            b = translate(b, np.asarray(spec["center"], dtype=float))
        return b
    if kind == "vertices":
        return from_vertices(spec["points"])
    if kind == "halfspaces":
        return from_halfspaces(spec["normals"], spec["offsets"])
    raise ValueError(f"unknown body kind {kind!r}")


# ---------------------------------------------------------------------------
# gauges


def gauge(K: ConvexBody, x) -> float:
    """Minkowski functional inf{t > 0 : x in tK}; +inf outside every dilate."""
    return float(gauge_many(K, x)[0])


def gauge_many(K: ConvexBody, X) -> np.ndarray:
    """Minkowski functional of every row of X: inf{t > 0 : x in tK}, 0 at
    the origin and +inf outside every dilate; the origin must lie in K."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if K.kind == "ball":
        c, r = K.center, K.radius
        c2 = float(c @ c)
        if c2 > r * r + _GEOM_TOL:
            raise OriginNotContainedError("gauge needs the origin inside the body")
        xx = np.einsum("ij,ij->i", X, X)
        xc = X @ c
        a = r * r - c2
        with np.errstate(divide="ignore", invalid="ignore"):
            if a <= _GEOM_TOL * r * r:      # origin on the boundary
                out = np.where(xc > 0.0, xx / (2.0 * xc), math.inf)
            else:
                out = (np.sqrt(xc * xc + a * xx) - xc) / a
        return np.where(xx == 0.0, 0.0, out)
    b = K.offsets
    if np.min(b) < -_GEOM_TOL:
        raise OriginNotContainedError("gauge needs the origin inside the body")
    AX = X @ K.normals.T
    pos = b > _GEOM_TOL
    out = np.zeros(len(X))
    if np.any(pos):
        out = np.max(AX[:, pos] / b[pos], axis=1)
    out = np.maximum(out, 0.0)
    if np.any(~pos):
        bad = np.any(AX[:, ~pos] > _GEOM_TOL, axis=1)
        out[bad] = np.inf
    return out


def outer_radius(K: ConvexBody) -> float:
    """max |x| over x in K: |c| + r for a ball, the largest vertex norm else."""
    if K.kind == "ball":
        return float(np.linalg.norm(K.center)) + K.radius
    return float(np.max(np.linalg.norm(K.vertices, axis=1)))


def bounding_box(K: ConvexBody):
    if K.kind == "ball":
        return K.center - K.radius, K.center + K.radius
    return K.vertices.min(axis=0), K.vertices.max(axis=0)


# ---------------------------------------------------------------------------
# intersections of translates


def intersect(bodies) -> ConvexBody | None:
    """K_0 cap K_1 cap ... cap K_m for polytopes; None when its interior is
    empty.

    The meeting keeps every body's rows a_j.x <= b_j; of rows that share a
    normal only the least offset binds.  Balls in n >= 2 meet in no
    polytope; `covariogram.common_volume` takes their volume.
    """
    if any(K.kind != "polytope" for K in bodies):
        raise ValueError("intersect needs polytopes; ball meetings are "
                         "handled by the covariogram module")
    normals, rows = np.unique(np.vstack([K.normals for K in bodies]), axis=0,
                              return_inverse=True)
    offsets = np.full(len(normals), math.inf)
    np.minimum.at(offsets, rows.ravel(), np.concatenate([K.offsets for K in bodies]))
    try:
        return from_halfspaces(normals, offsets)
    except DegenerateBodyError:
        return None


def intersect_translates(K: ConvexBody, xbar) -> ConvexBody | None:
    """K cap (x_1+K) cap ... cap (x_m+K); None when its interior is empty.

    x in x_i + K reads a_j.x <= b_j + a_j.x_i on every row of K, so
    `intersect` keeps K's own rows with right sides b_j + min(0, min_i
    a_j.x_i).
    """
    xbar = np.atleast_2d(np.asarray(xbar, dtype=float))
    return intersect([K] + [translate(K, x) for x in xbar])


def miniball_radius(points) -> float:
    """Radius of the smallest ball enclosing <= 4 points in dimension <= 3 (exact)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    k, n = pts.shape
    best_r = math.inf
    for size in range(1, min(k, n + 1) + 1):
        for idx in itertools.combinations(range(k), size):
            sub = pts[list(idx)]
            if size == 1:
                c = sub[0]
            else:
                d = sub[1:] - sub[0]
                rhs = 0.5 * (np.sum(sub[1:] ** 2, axis=1) - np.sum(sub[0] ** 2))
                sol, *_ = np.linalg.lstsq(d, rhs - d @ sub[0], rcond=None)
                c = sub[0] + sol
                if np.max(np.abs(d @ (c - sub[0]) - (rhs - d @ sub[0]))) > 1e-8:
                    continue
            r = float(np.max(np.linalg.norm(pts[list(idx)] - c, axis=1)))
            if float(np.max(np.linalg.norm(pts - c, axis=1))) <= r + 1e-10 and r < best_r:
                best_r = r
    return best_r


# ---------------------------------------------------------------------------
# volume and facets


def volume(K: ConvexBody) -> EstimateWithError:
    """vol_n(K), exact: closed form for balls, the qhull volume for 3-D polytopes."""
    n = K.dim
    if K.kind == "ball":
        value = sphere_surface(n) / n * K.radius ** n
    elif n == 1:
        value = float(K.vertices.max() - K.vertices.min())
    elif n == 2:
        value = polygon_area(K.vertices)
    else:
        from scipy.spatial import ConvexHull
        value = float(ConvexHull(K.vertices).volume)
    return EstimateWithError(value, 0.0, 0)


def polygon_area(points: np.ndarray) -> float:
    """Area of the hull of (k, 2) points: the shoelace formula over `planar_hull`."""
    P = points[planar_hull(points)]
    x, y = P[:, 0], P[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def facets(K: ConvexBody) -> FacetData:
    """Outer unit normals of a polytope with their (n-1)-measures."""
    if K.kind != "polytope":
        raise ValueError("facets need a polytope")
    n = K.dim
    V = K.vertices
    if n == 1:
        return FacetData(np.array([[-1.0], [1.0]]), np.array([1.0, 1.0]))
    scale_ = 1.0 + float(np.max(np.abs(V)))
    normals, areas = [], []
    for a, b in zip(K.normals, K.offsets):
        on = V[np.abs(V @ a - b) <= 1e-7 * scale_]
        if n == 2:
            if len(on) < 2:
                continue
            along = on @ _edge_dir(a)
            measure = float(np.linalg.norm(on[np.argmax(along)] - on[np.argmin(along)]))
        else:
            if len(on) < 3:
                continue
            measure = _facet_polygon_area(on, a)
        normals.append(a)
        areas.append(measure)
    return FacetData(np.array(normals), np.array(areas))


def _edge_dir(normal2d):
    return np.array([-normal2d[1], normal2d[0]])


def _facet_polygon_area(points3d, normal):
    # orthonormal basis of the facet plane, then a 2-D shoelace
    a = normal / np.linalg.norm(normal)
    t = np.array([1.0, 0.0, 0.0]) if abs(a[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    u = np.cross(a, t)
    u /= np.linalg.norm(u)
    v = np.cross(a, u)
    coords = np.column_stack([points3d @ u, points3d @ v])
    return polygon_area(coords)
