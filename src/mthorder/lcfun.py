"""Log-concave model functions f = A * phi(||x - x'||_K).

Only profile-of-gauge functions are first class, and every formula for a
profile phi lives in `Profile`, once per family:

* the stretched exponentials phi(t) = exp(b - c t^a): the exponential
  (a, c, b) = (1, 1, 0), the Gaussian (2, 1/2, 0) and the p-family
  exp(-(n/|p|)(t^|p| - 1)) at p != 0, (|p|, n/|p|, n/|p|);
* the power kind (1 - t)_+^(1/s);
* the indicator of [0, 1];
* the p-family at p = 0, t^-n, admitted for radial-mean-body limit work only.

The form gives closed-form masses, level sets, q-norms and the level moments
M_k = int (-phi') s^k ds, which `mellin` reads as the closed-form Mellin
transforms of these profiles, and their tails over the levels below a depth
(`tail_level_moment`), which close the layer cake over a polynomial body
section.

Note the p-family with |p| < 1 is a valid monotone profile but is *not*
log-concave; it participates only in scaling-law computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import convexcore as cc
from .convexcore import ConvexBody
from .numerics import digamma, gamma_q, gamma_ratio

_KINDS = ("exponential", "gaussian", "power", "indicator", "pfamily")

ZERO_P_WINDOW = 1e-6     # |p| below this is routed to the p = 0 branch
_P0_MESSAGE = "p=0 family has an infinite peak and no finite moments"


class NonIntegrableError(ValueError):
    pass


@dataclass(frozen=True)
class Profile:
    """Nonincreasing profile phi on [0, inf) with phi(0) = max."""

    kind: str
    param: float = 0.0        # s for power, p for pfamily; unused otherwise
    ambient_dim: int = 1      # pfamily couples the profile to the dimension

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind == "power" and self.param <= 0:
            raise ValueError("power profile needs s > 0")
        if self.kind == "pfamily" and self.param <= -1:
            raise ValueError("pfamily needs p > -1")

    @cached_property
    def _stretch(self) -> tuple[float, float, float] | None:
        """(a, c, b) with phi(t) = exp(b - c t^a); None off the stretched family."""
        if self.kind == "exponential":
            return 1.0, 1.0, 0.0
        if self.kind == "gaussian":
            return 2.0, 0.5, 0.0
        if self.kind == "pfamily" and self.param != 0.0:
            a = abs(self.param)
            c = self.ambient_dim / a
            return a, c, c
        return None

    # -- pointwise data ------------------------------------------------------

    @property
    def phi0(self) -> float:
        if self._stretch:
            return math.exp(self._stretch[2])
        return math.inf if self.kind == "pfamily" else 1.0

    @property
    def support_radius(self) -> float:
        return 1.0 if self.kind in ("power", "indicator") else math.inf

    @property
    def exponent(self) -> float:
        """The a with -phi'(t) ~ t^(a-1) as t -> 0+: the stretched family's
        own, 1 for the power and indicator kinds, -n at p = 0."""
        if self._stretch:
            return self._stretch[0]
        return -float(self.ambient_dim) if self.kind == "pfamily" else 1.0

    @property
    def slope0(self) -> float:
        """phi'(0+): -c e^b at a = 1, -inf below and 0 above; -1/s for the
        power kind and 0 for the indicator."""
        if self._stretch:
            a, c, b = self._stretch
            return -math.inf if a < 1.0 else (-c * math.exp(b) if a == 1.0 else 0.0)
        if self.kind == "power":
            return -1.0 / self.param
        return 0.0 if self.kind == "indicator" else -math.inf

    @property
    def log_quadratic(self) -> tuple[float, float, float] | None:
        """(b, c1, c2) with log phi(t) = b - c1 t - c2 t^2 for t up to the
        support radius: zeros for the indicator, (0, 1, 0) for the
        exponential, (0, 0, 1/2) for the Gaussian, and the p-family's own at
        p = 1 or 2; None for every other profile."""
        if self.kind == "indicator":
            return 0.0, 0.0, 0.0
        if self._stretch and self._stretch[0] in (1.0, 2.0):
            a, c, b = self._stretch
            return (b, c, 0.0) if a == 1.0 else (b, 0.0, c)
        return None

    def value(self, t):
        t = np.asarray(t, dtype=float)[()]     # 0-d input: a numpy scalar, cheap to compute on
        if self._stretch:
            a, c, b = self._stretch
            out = np.exp(b - c * t ** a)
        elif self.kind == "power":
            out = np.maximum(1.0 - t, 0.0) ** (1.0 / self.param)
        elif self.kind == "indicator":
            out = (t <= 1.0).astype(float)
        else:
            with np.errstate(divide="ignore"):
                out = t ** -float(self.ambient_dim)
        return out if out.ndim else float(out)

    def drop(self, t):
        """phi(t) - phi(0), cancellation-free near t = 0."""
        t = np.asarray(t, dtype=float)[()]
        if self._stretch:
            a, c, b = self._stretch
            out = math.exp(b) * np.expm1(-c * t ** a)
        elif self.kind == "power":
            with np.errstate(divide="ignore"):
                out = np.expm1(np.log1p(-np.minimum(t, 1.0)) / self.param)
        elif self.kind == "indicator":
            out = np.where(t <= 1.0, 0.0, -1.0)
        else:
            raise NonIntegrableError(_P0_MESSAGE)
        return out if out.ndim else float(out)

    def neg_derivative(self, t):
        """-phi'(t); undefined for the indicator kind (a point mass at t=1)."""
        t = np.asarray(t, dtype=float)[()]
        if self._stretch:
            a, c, b = self._stretch
            if a < 1.0:                     # finite right-limit values at t = 0
                t = np.maximum(t, 1e-300)
            out = (c * a) * t ** (a - 1.0) * np.exp(b - c * t ** a)
        elif self.kind == "power":
            s = self.param            # 1/s - 1 > -1, so the floored power stays finite
            out = np.where(t < 1.0, np.maximum(1.0 - t, 1e-300) ** (1.0 / s - 1.0) / s, 0.0)
        elif self.kind == "indicator":
            raise ValueError("indicator profile has no pointwise derivative")
        else:
            with np.errstate(divide="ignore"):
                out = self.ambient_dim * t ** (-self.ambient_dim - 1.0)
        return out if out.ndim else float(out)

    def depth(self, r):
        """The level depth v = log(phi(0) / phi(r)) at radii r >= 0 (scalar or
        array), the inverse of `depth_scale`; inf where phi vanishes."""
        r = np.asarray(r, dtype=float)[()]
        if self._stretch:
            a, c, _ = self._stretch
            out = c * r ** a
        elif self.kind == "power":
            with np.errstate(divide="ignore"):
                out = -np.log1p(-np.minimum(r, 1.0)) / self.param
        elif self.kind == "indicator":
            out = np.where(r <= 1.0, 0.0, math.inf)
        else:
            raise NonIntegrableError(_P0_MESSAGE)
        return out if out.ndim else float(out)

    def depth_scale(self, v):
        """The level scale s(v) at depths v >= 0 (scalar or array), exact near
        v = 0: phi(s(v)) = phi(0) e^-v, so {f >= A phi(0) e^-v} = c + s(v) K."""
        v = np.asarray(v, dtype=float)
        if self._stretch:
            a, c, _ = self._stretch
            return np.asarray(v / c) ** (1.0 / a)   # ndarray ** 0.5: np.sqrt, correctly rounded
        if self.kind == "power":
            return -np.expm1(-self.param * v)
        if self.kind == "indicator":
            return np.ones_like(v)
        raise NonIntegrableError(_P0_MESSAGE)

    def moment(self, k: float, q: float = 1.0) -> float:
        """Closed-form int_0^inf phi(t)^q t^k dt (k > -1, q > 0); by parts it
        is the level moment M_(k+1) of phi^q over k + 1."""
        if k <= -1 or q <= 0:
            raise ValueError("moment requires k > -1, q > 0")
        return self._level_moment(k + 1.0, q) / (k + 1.0)

    def level_moment(self, k: float) -> float:
        """M_k = int_0^inf (-phi'(s)) s^k ds: e^b Gamma(k/a + 1) c^(-k/a) on the
        stretched family and Gamma(k + 1) Gamma(1/s + 1) / Gamma(k + 1/s + 1)
        on the power kind, finite for k > -a, and 1 for the indicator.  The
        layer cake of f = A phi(||x - c||_K) gives ||f||_1 = A M_n vol(K)."""
        return self._level_moment(k, 1.0)

    def _level_moment(self, k: float, q: float) -> float:
        """M_k of phi^q, which stays in phi's family: (a, qc, qb) for the
        stretched kinds, s/q for the power kind."""
        if self.kind == "indicator":
            return 1.0
        self._require_level_moment(k)
        if self._stretch:
            a, c, b = self._stretch
            return gamma_ratio((k / a + 1.0,), (), q * b - (k / a) * math.log(q * c))
        r = q / self.param
        return gamma_ratio((r + 1.0, k + 1.0), (k + r + 1.0,))

    def tail_level_moment(self, k: float, v):
        """T_k(v) = phi(0) int_v^inf e^-w s(w)^k dw, the level moment over
        the levels deeper than v (scalar or array), with T_k(0) = M_k: on
        the stretched family M_k Q(1 + k/a, v) (`gamma_q`), on the power
        kind the finite sum sum_j C(k, j) (-1)^j e^(-(1 + j s) v) / (1 + j s)
        at an integer k >= 0, and e^-v for the indicator.  The layer cake over the levels
        below depth v reads these where the body section is a polynomial."""
        v = np.asarray(v, dtype=float)[()]
        if self.kind == "indicator":
            out = np.exp(-v)
        elif self._stretch:
            out = self.level_moment(k) * gamma_q(1.0 + k / self._stretch[0], v)
        elif self.kind == "power":
            if k != int(k) or k < 0:
                raise ValueError("the power kind's tail moments need an integer k >= 0")
            s = self.param
            out = sum(math.comb(int(k), j) * (-1) ** j * np.exp(-(1.0 + j * s) * v)
                      / (1.0 + j * s) for j in range(int(k) + 1))
        else:
            raise NonIntegrableError(_P0_MESSAGE)
        return out if np.ndim(out) else float(out)

    def level_moment_log_slope(self, k: float) -> float:
        """d/dk log M_k (see `level_moment`) on the same domain; 0 for the
        indicator."""
        if self.kind == "indicator":
            return 0.0
        self._require_level_moment(k)
        if self._stretch:
            a, c, _ = self._stretch
            return (digamma(k / a + 1.0) - math.log(c)) / a
        return digamma(k + 1.0) - digamma(k + 1.0 / self.param + 1.0)

    def _require_level_moment(self, k: float) -> None:
        """Raise NonIntegrableError unless M_k is finite: k > -a, phi0 finite."""
        if not math.isfinite(self.phi0):
            raise NonIntegrableError(_P0_MESSAGE)
        if not k > -self.exponent:
            raise NonIntegrableError(f"M_k is infinite for k <= {-self.exponent:g}")

    def coercivity_bound(self) -> float:
        """C with phi(t) <= C e^-t for every t >= 0: e^(b + g) on the stretched
        family with a >= 1, where g = sup_t (t - c t^a)."""
        if not self._stretch or self._stretch[0] < 1.0:
            raise NonIntegrableError("only stretched profiles with a >= 1 have an "
                                     "envelope C e^-t")
        a, c, b = self._stretch
        if a == 1.0:
            return math.exp(b)              # c >= 1 on every kind with a = 1
        t = (c * a) ** (-1.0 / (a - 1.0))
        return math.exp(b + t - c * t ** a)

    def truncation_radius(self, eps: float, extra_power: float = 0.0) -> float:
        """Radius beyond which phi(r) * r^extra_power stays below eps.  The
        damped level eps / (2r)^extra_power is taken as a depth in logs, so
        it never overflows."""
        if self.support_radius < math.inf:
            return self.support_radius
        r = 0.0
        for _ in range(5):
            depth = (math.log(self.phi0) - math.log(eps)
                     + extra_power * math.log(max(2.0 * r, 1.0)))
            r = max(r, float(self.depth_scale(max(depth, 0.0))))
        return r


def profile_from_kind(kind: str, s_or_p: float | None = None, ambient_dim: int = 1) -> Profile:
    if kind in ("power", "pfamily"):
        if s_or_p is None:
            raise ValueError(f"{kind} profile needs its parameter")
        return Profile(kind, float(s_or_p), ambient_dim)
    return Profile(kind, 0.0, ambient_dim)


@dataclass(frozen=True, eq=False)
class LogConcaveFunction:
    profile: Profile
    body: ConvexBody
    shift: np.ndarray
    amplitude: float = 1.0

    def __post_init__(self):
        if self.amplitude <= 0:
            raise ValueError("amplitude must be positive")
        if self.profile.kind == "pfamily" and self.profile.ambient_dim != self.body.dim:
            raise ValueError("pfamily profile bound to a different dimension")
        if np.shape(self.shift) != (self.body.dim,):
            raise ValueError(f"shift must have shape ({self.body.dim},), "
                             f"got {np.shape(self.shift)}")
        cc.gauge(self.body, np.zeros(self.body.dim))   # origin-in-body check

    @property
    def dim(self) -> int:
        return self.body.dim

    @property
    def sup_norm(self) -> float:
        return self.amplitude * self.profile.phi0

    def eval(self, x) -> float:
        return float(self.eval_many(x)[0])

    __call__ = eval

    def eval_many(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        g = cc.gauge_many(self.body, X - self.shift)
        return self.amplitude * np.asarray(self.profile.value(g))

    def mass(self) -> float:
        """||f||_1 = A M_n vol_n(K)."""
        return (self.amplitude * cc.volume(self.body).value
                * self.profile.level_moment(self.dim))

    def radial_factor(self, p: float) -> float:
        """rho(R_p^m f) / rho(R_p^m K) = (M_{n+p} / M_n)^(1/p) for p in [-1, inf),
        one factor for every m and direction by the layer cake; its limit
        exp(d log M_k/dk at k = n) near p = 0."""
        if p < -1.0:
            raise ValueError("p must be at least -1")
        prof, n = self.profile, self.dim
        if abs(p) <= ZERO_P_WINDOW:
            return math.exp(prof.level_moment_log_slope(n))
        return (prof.level_moment(n + p) / prof.level_moment(n)) ** (1.0 / p)

    def lp_norm(self, q: float) -> float:
        """(int f^q)^(1/q) for q > 0."""
        n = self.dim
        integral = (self.amplitude ** q * cc.volume(self.body).value
                    * n * self.profile.moment(n - 1.0, q=q))
        return integral ** (1.0 / q)

    def support_body(self) -> ConvexBody | None:
        """Closure of supp f when compact, else None."""
        R = self.profile.support_radius
        if R == math.inf:
            return None
        return cc.translate(cc.scale(self.body, R), self.shift)

    def coercivity_bound(self) -> tuple[float, float]:
        """(A, B) with f(x) <= A exp(-B |x|) everywhere; needs exponential-type decay."""
        prof = self.profile
        r_out = cc.outer_radius(self.body)
        shift = float(np.linalg.norm(self.shift))
        if prof.support_radius < math.inf:
            # compactly supported: A e^(R - |x|) dominates f inside |x| <= R
            return self.amplitude * math.exp(r_out * prof.support_radius + shift), 1.0
        b = 1.0 / r_out
        return self.amplitude * prof.coercivity_bound() * math.exp(b * shift), b


def make_function(spec: dict) -> LogConcaveFunction:
    """Function from its JSON description (see the schema in the README);
    a p-family needs p >= 1, where it is log-concave (`Profile` takes less)."""
    body = cc.make_body(spec["body"])
    prof = profile_from_kind(spec["profile"], spec.get("s_or_p"), ambient_dim=body.dim)
    if prof.kind == "pfamily" and prof.param < 1.0:
        raise ValueError(f"a pfamily profile needs s_or_p >= 1: at p = {prof.param:g} "
                         f"it is not log-concave")
    shift = np.asarray(spec.get("shift", np.zeros(body.dim)), dtype=float)
    return LogConcaveFunction(prof, body, shift, float(spec.get("amplitude", 1.0)))
