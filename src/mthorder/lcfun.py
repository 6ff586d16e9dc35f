"""Log-concave model functions f = A * phi(||x - x'||_K).

Only profile-of-gauge functions are first class: exponential, Gaussian,
power (1-t)_+^(1/s), indicator, and the p-family exp(-(n/|p|)(t^|p|-1))
(t^-n at p = 0, admitted for radial-mean-body limit work only).  The form
gives closed-form masses, level sets, q-norms and level-integral weights.

Note the p-family with |p| < 1 is a valid monotone profile but is *not*
log-concave; it participates only in scaling-law computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import convexcore as cc
from .convexcore import ConvexBody

_KINDS = ("exponential", "gaussian", "power", "indicator", "pfamily")

ZERO_P_WINDOW = 1e-6     # |p| below this is routed to the p = 0 branch


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

    # -- pointwise data ------------------------------------------------------

    @property
    def phi0(self) -> float:
        if self.kind == "pfamily":
            p = self.param
            return math.inf if p == 0 else math.exp(self.ambient_dim / abs(p))
        return 1.0

    @property
    def support_radius(self) -> float:
        return 1.0 if self.kind in ("power", "indicator") else math.inf

    @property
    def is_log_concave(self) -> bool:
        if self.kind == "pfamily":
            return self.param >= 1
        return True

    def value(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "exponential":
            out = np.exp(-t)
        elif self.kind == "gaussian":
            out = np.exp(-0.5 * t * t)
        elif self.kind == "power":
            out = np.maximum(1.0 - t, 0.0) ** (1.0 / self.param)
        elif self.kind == "indicator":
            out = (t <= 1.0).astype(float)
        else:
            n, p = self.ambient_dim, self.param
            if p == 0.0:
                with np.errstate(divide="ignore"):
                    out = np.where(t > 0, t, np.nan) ** (-float(n))
                    out = np.where(t > 0, out, np.inf)
            else:
                a = abs(p)
                out = np.exp(-(n / a) * (np.minimum(t, 1e300) ** a - 1.0))
        out = np.where(np.isinf(t) & (t > 0), 0.0, out)
        return out if out.ndim else float(out)

    def neg_derivative(self, t):
        """-phi'(t); undefined for the indicator kind (a point mass at t=1)."""
        t = np.asarray(t, dtype=float)
        if self.kind == "exponential":
            out = np.exp(-t)
        elif self.kind == "gaussian":
            out = t * np.exp(-0.5 * t * t)
        elif self.kind == "power":
            s = self.param
            inside = t < 1.0
            with np.errstate(divide="ignore"):
                out = np.where(inside, np.maximum(1.0 - t, 1e-300) ** (1.0 / s - 1.0) / s, 0.0)
        elif self.kind == "indicator":
            raise ValueError("indicator profile has no pointwise derivative")
        else:
            n, p = self.ambient_dim, self.param
            tp = np.maximum(t, 1e-300)       # right-limit values at t = 0
            with np.errstate(over="ignore"):
                if p == 0.0:
                    out = n * tp ** (-n - 1.0)
                else:
                    a = abs(p)
                    out = n * tp ** (a - 1.0) * np.exp(-(n / a) * (np.minimum(tp, 1e300) ** a - 1.0))
        return out if out.ndim else float(out)

    def inverse_level(self, u: float) -> float:
        """sup{r >= 0 : phi(r) >= u} for 0 < u <= phi(0); 0 above phi(0)."""
        if u <= 0:
            return self.support_radius
        if self.kind == "pfamily" and self.param == 0.0:
            return u ** (-1.0 / self.ambient_dim)
        if u > self.phi0:
            return 0.0
        return float(self.depth_scale(max(math.log(self.phi0) - math.log(u), 0.0)))

    def depth_scale(self, v):
        """The level scale s(v) at depths v >= 0 (scalar or array), exact near
        v = 0: phi(s(v)) = phi(0) e^-v, so {f >= A phi(0) e^-v} = c + s(v) K."""
        v = np.asarray(v, dtype=float)
        if self.kind == "gaussian":
            return np.sqrt(2.0 * v)
        if self.kind == "power":
            return -np.expm1(-self.param * v)
        if self.kind == "indicator":
            return np.ones_like(v)
        if self.kind == "pfamily":               # p = 0 has no finite peak
            a = abs(self.param)
            return (a * v / self.ambient_dim) ** (1.0 / a)
        return v

    def moment(self, k: float, q: float = 1.0) -> float:
        """Closed-form int_0^inf phi(t)^q t^k dt (k > -1, q > 0)."""
        if k <= -1 or q <= 0:
            raise ValueError("moment requires k > -1, q > 0")
        if self.kind == "exponential":
            return math.exp(special.gammaln(k + 1.0)) / q ** (k + 1.0)
        if self.kind == "gaussian":
            return 0.5 * (2.0 / q) ** ((k + 1.0) / 2.0) * math.exp(special.gammaln((k + 1.0) / 2.0))
        if self.kind == "power":
            return math.exp(special.betaln(k + 1.0, q / self.param + 1.0))
        if self.kind == "indicator":
            return 1.0 / (k + 1.0)
        n, p = self.ambient_dim, self.param
        if p == 0.0:
            raise NonIntegrableError("p=0 family has no finite moments")
        a = abs(p)
        c = q * n / a
        return math.exp(c + special.gammaln((k + 1.0) / a)) * c ** (-(k + 1.0) / a) / a

    def level_moment(self, k: float) -> float:
        """M_k = int_0^inf (-phi'(s)) s^k ds = k * moment(k - 1), M_0 = phi(0),
        and exactly 1 for the indicator: the layer cake of
        f = A phi(||x - c||_K) gives ||f||_1 = A M_n vol(K)."""
        if self.kind == "indicator":
            return self.phi0
        if k == 0:
            if not math.isfinite(self.phi0):
                raise NonIntegrableError("p=0 family has an infinite peak")
            return self.phi0
        return k * self.moment(k - 1.0)

    def level_moment_log_slope(self, k: float) -> float:
        """d/dk log M_k.  Up to constants M_k is c^(-k/a) Gamma(k/a + 1),
        over Gamma(k + 1/s + 1) for the power kind; the indicator has M_k = 1."""
        if self.kind == "indicator":
            return 0.0
        a, c = 1.0, 1.0
        if self.kind == "gaussian":
            a, c = 2.0, 0.5
        elif self.kind == "pfamily":
            if self.param == 0.0:
                raise NonIntegrableError("p=0 family has no finite moments")
            a = abs(self.param)
            c = self.ambient_dim / a
        slope = (float(special.digamma(k / a + 1.0)) - math.log(c)) / a
        if self.kind == "power":
            slope -= float(special.digamma(k + 1.0 / self.param + 1.0))
        return slope

    def truncation_radius(self, eps: float, extra_power: float = 0.0) -> float:
        """Radius beyond which phi(r) * r^extra_power stays below eps.  The
        damped level eps / (2r)^extra_power is taken as a depth in logs, so
        it never overflows."""
        if self.support_radius < math.inf:
            return self.support_radius
        if not math.isfinite(self.phi0):
            raise NonIntegrableError("p=0 family has an infinite peak")
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

    def level_set(self, t: float) -> ConvexBody | None:
        """{f >= t} = shift + s*K; None when t exceeds the sup or s degenerates."""
        if t <= 0:
            raise ValueError("level must be positive")
        if t > self.sup_norm:
            return None
        s = self.profile.inverse_level(t / self.amplitude)
        if s <= 1e-15 or not math.isfinite(s):
            return None
        return cc.translate(cc.scale(self.body, s), self.shift)

    def support_body(self) -> ConvexBody | None:
        """Closure of supp f when compact, else None."""
        R = self.profile.support_radius
        if R == math.inf:
            return None
        return cc.translate(cc.scale(self.body, R), self.shift)

    def coercivity_bound(self) -> tuple[float, float]:
        """(A, B) with f(x) <= A exp(-B |x|) everywhere; needs exponential-type decay."""
        kind, par = self.profile.kind, self.profile.param
        if kind == "pfamily" and abs(par) < 1:
            raise NonIntegrableError("p-family decay is subexponential for |p| < 1")
        r_out = cc.outer_radius(self.body)
        b = 1.0 / r_out
        # phi(t) <= C exp(-t) for every kind here (C covers the Gaussian crossover)
        if kind == "gaussian":
            c = math.exp(0.5)
        elif kind == "pfamily":
            n, a = self.profile.ambient_dim, abs(par)
            c = self.profile.phi0 * math.exp(_sup_gap(n, a))
        else:
            c = 1.0
        if kind in ("power", "indicator"):
            # compactly supported: A e^(R - |x|) dominates f inside |x| <= R
            reach = r_out * self.profile.support_radius + float(np.linalg.norm(self.shift))
            return self.amplitude * math.exp(reach), 1.0
        amp = self.amplitude * c * math.exp(b * float(np.linalg.norm(self.shift)))
        return amp, b


def _sup_gap(n: int, a: float) -> float:
    # sup_t [ t - (n/a) t^a ] for a >= 1 (finite; equals the crossover constant)
    if a == 1.0:
        return 0.0 if n >= 1 else math.inf
    t_star = (1.0 / n) ** (1.0 / (a - 1.0))
    return t_star - (n / a) * t_star ** a


def make_function(spec: dict) -> LogConcaveFunction:
    """Function from its JSON description (see the schema in the README)."""
    body = cc.make_body(spec["body"])
    prof = profile_from_kind(spec["profile"], spec.get("s_or_p"), ambient_dim=body.dim)
    shift = np.asarray(spec.get("shift", np.zeros(body.dim)), dtype=float)
    return LogConcaveFunction(prof, body, shift, float(spec.get("amplitude", 1.0)))
